"""Scenario configuration: a versioned INI schema parsed into ScenarioConfig.

Schema (version 1) by section:

* ``[scenario]``      -- schema_version (mandatory), id 1..5, uptake level
  (none | low | medium | high), run seed.
* ``[regions]``       -- ``demand`` region list, optional ``transit`` list.
* ``[data]``          -- file names, resolved against the run's data
  directory: ``demand.<R>``, ``historical_demand.<R>``,
  ``historical_price.<R>`` per demand region; ``pv.<R>`` when uptake is
  not none; ``wind.<zone>`` / ``solar.<zone>`` traces named by the
  replacement section; ``bus`` and ``branch`` for the network.
* ``[battery <R>]`` / ``[pv <R>]`` -- per-region storage window (MWh) and
  PV capacity (MW) for uptake scenarios, one pair per demand region.
* ``[generator <name>]``          -- fleet entries (type, zone, region,
  capacity_mw, min_stable_mw, srmc) of a dispatchable type; renewable
  units come only from ``[replacement]``.
* ``[interconnector <name>]``     -- from, to, forward_mw, reverse_mw.
* ``[replacement]``   -- scenarios 2..5 only: coal units to remove, wind
  and CSP additions with zones, capacities and the CSP delay.
* ``[loadability]``   -- region, step, lambda_max, participation
  (``bus:factor`` list), base_mva.
* ``[predictor]``     -- model kind.
* ``[zone_weights <R>]`` -- optional per-bus split of demand region R's
  demand (finite shares >= 0 summing to 1); equal shares over R's load
  buses when omitted.

Unknown sections or keys are rejected, with every violation reported
against its field.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from gridstudy.demand import DEFAULT_EFFICIENCY
from gridstudy.dispatch import DispatchError, Generator, Interconnector
from gridstudy.loadability import DEFAULT_LAMBDA_MAX, DEFAULT_STEP
from gridstudy.pricing import MODEL_KINDS
from gridstudy.timeseries import KNOWN_REGIONS, TimeSeriesError, ZoneWeights

SCHEMA_VERSION = 1
UPTAKE_LEVELS = ("none", "low", "medium", "high")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BatterySpec:
    soc_min_mwh: float
    soc_max_mwh: float
    charge_rate_mw: Optional[float] = None
    discharge_rate_mw: Optional[float] = None
    efficiency: float = DEFAULT_EFFICIENCY

    def __post_init__(self):
        if not 0.0 <= self.soc_min_mwh < self.soc_max_mwh:
            raise ConfigError(
                f"battery window [{self.soc_min_mwh}, {self.soc_max_mwh}] needs 0 <= min < max")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError(f"battery efficiency {self.efficiency} must be in (0, 1]")


@dataclass(frozen=True)
class ReplacementSpec:
    remove: tuple[str, ...]
    wind_name: str
    wind_region: str
    wind_zone: str
    wind_capacity_mw: float
    csp_names: tuple[str, ...]
    csp_region: str
    csp_zones: tuple[str, ...]
    csp_capacity_mw: float
    csp_delay_hours: int = 12

    def __post_init__(self):
        if len(self.csp_names) != len(self.csp_zones):
            raise ConfigError("replacement: csp_names and csp_zones must pair up")
        if self.wind_capacity_mw <= 0 or self.csp_capacity_mw <= 0:
            raise ConfigError("replacement capacities must be positive")
        if self.csp_delay_hours < 0:
            raise ConfigError("csp delay must be >= 0")


@dataclass(frozen=True)
class LoadabilityOptions:
    region: str
    step: float = DEFAULT_STEP
    lambda_max: float = DEFAULT_LAMBDA_MAX
    participation: Mapping[str, float] = field(default_factory=dict)
    base_mva: float = 100.0

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError(f"loadability step {self.step} must be positive")
        if self.base_mva <= 0:
            raise ConfigError("base_mva must be positive")
        if self.participation:
            total = sum(self.participation.values())
            if any(v < 0 for v in self.participation.values()) or abs(total - 1.0) > 1e-9:
                raise ConfigError("participation factors must be >= 0 and sum to 1")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: int
    uptake: str
    seed: int
    demand_regions: tuple[str, ...]
    transit_regions: tuple[str, ...]
    data_files: Mapping[str, str]
    batteries: Mapping[str, BatterySpec]
    pv_capacity_mw: Mapping[str, float]
    fleet: tuple[Generator, ...]
    interconnectors: tuple[Interconnector, ...]
    replacement: Optional[ReplacementSpec]
    loadability: LoadabilityOptions
    predictor_kind: str
    zone_weights: Mapping[str, ZoneWeights]
    source_path: Optional[str] = None

    @property
    def regions(self) -> tuple[str, ...]:
        return self.demand_regions + self.transit_regions

    @property
    def has_demand_response(self) -> bool:
        return self.uptake != "none"


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _names(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


class _Section:
    """Tracks consumed keys so leftovers can be reported as unknown."""

    def __init__(self, name: str, items: Mapping[str, str], errors: list[str]):
        self.name = name
        self.items = dict(items)
        self.errors = errors

    def take(self, key: str, required: bool = False, default: str | None = None) -> str | None:
        if key in self.items:
            return self.items.pop(key)
        if required:
            self.errors.append(f"[{self.name}] missing required key {key!r}")
        return default

    def leftovers(self):
        for key in self.items:
            self.errors.append(f"[{self.name}] unknown key {key!r}")


def scenario_from_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file; every violation is reported per field."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing scenario config: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (region names appear in keys)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    errors: list[str] = []
    sections = {name: dict(parser.items(name)) for name in parser.sections()}

    def section(name: str, required: bool = False) -> _Section | None:
        if name in sections:
            return _Section(name, sections.pop(name), errors)
        if required:
            errors.append(f"missing required section [{name}]")
        return None

    scen = section("scenario", required=True)
    scenario_id, uptake, seed = 0, "none", 0
    if scen:
        version_raw = scen.take("schema_version", required=True)
        if version_raw is not None and _parse_int("scenario", "schema_version", version_raw) != SCHEMA_VERSION:
            errors.append(f"[scenario] schema_version {version_raw} unsupported (expected {SCHEMA_VERSION})")
        id_raw = scen.take("id", required=True)
        if id_raw is not None:
            scenario_id = _parse_int("scenario", "id", id_raw)
            if not 1 <= scenario_id <= 5:
                errors.append(f"[scenario] id {scenario_id} outside 1..5")
        uptake_raw = scen.take("uptake", required=True)
        if uptake_raw is not None:
            uptake = uptake_raw.strip()
            if uptake not in UPTAKE_LEVELS:
                errors.append(f"[scenario] uptake {uptake!r} not one of {UPTAKE_LEVELS}")
        seed_raw = scen.take("seed", default="0")
        seed = _parse_int("scenario", "seed", seed_raw)
        scen.leftovers()

    regions_sec = section("regions", required=True)
    demand_regions: tuple[str, ...] = ()
    transit_regions: tuple[str, ...] = ()
    if regions_sec:
        demand_raw = regions_sec.take("demand", required=True)
        if demand_raw:
            demand_regions = _names(demand_raw)
        transit_raw = regions_sec.take("transit", default="")
        transit_regions = _names(transit_raw)
        regions_sec.leftovers()
    if not demand_regions:
        errors.append("[regions] demand region list is empty")
    for region in demand_regions + transit_regions:
        if region not in KNOWN_REGIONS:
            errors.append(f"[regions] unknown region {region!r}; expected a subset of {KNOWN_REGIONS}")

    data_sec = section("data", required=True)
    data_files: dict[str, str] = {}
    if data_sec:
        data_files = dict(data_sec.items)
        data_sec.items = {}

    batteries: dict[str, BatterySpec] = {}
    pv_capacity: dict[str, float] = {}
    fleet: list[Generator] = []
    lines: list[Interconnector] = []
    zone_weights: dict[str, ZoneWeights] = {}
    replacement: Optional[ReplacementSpec] = None

    for name in list(sections):
        if name.startswith("battery "):
            region = name.split(" ", 1)[1]
            sec = section(name)
            try:
                lo = _parse_float(name, "soc_min_mwh", sec.take("soc_min_mwh", required=True) or "nan")
                hi = _parse_float(name, "soc_max_mwh", sec.take("soc_max_mwh", required=True) or "nan")
                cha = sec.take("charge_rate_mw")
                dis = sec.take("discharge_rate_mw")
                eff = sec.take("efficiency")
                batteries[region] = BatterySpec(
                    lo, hi,
                    None if cha is None else _parse_float(name, "charge_rate_mw", cha),
                    None if dis is None else _parse_float(name, "discharge_rate_mw", dis),
                    DEFAULT_EFFICIENCY if eff is None else _parse_float(name, "efficiency", eff),
                )
            except ConfigError as exc:
                errors.append(str(exc))
            sec.leftovers()
        elif name.startswith("pv "):
            region = name.split(" ", 1)[1]
            sec = section(name)
            raw = sec.take("capacity_mw", required=True)
            if raw is not None:
                cap = _parse_float(name, "capacity_mw", raw)
                if cap < 0:
                    errors.append(f"[{name}] capacity_mw must be >= 0")
                else:
                    pv_capacity[region] = cap
            sec.leftovers()
        elif name.startswith("generator "):
            gname = name.split(" ", 1)[1]
            sec = section(name)
            try:
                fleet.append(Generator(
                    name=gname,
                    gtype=(sec.take("type", required=True) or "").strip(),
                    zone=(sec.take("zone", required=True) or "").strip(),
                    region=(sec.take("region", required=True) or "").strip(),
                    capacity_mw=_parse_float(name, "capacity_mw", sec.take("capacity_mw", required=True) or "nan"),
                    min_stable_mw=_parse_float(name, "min_stable_mw", sec.take("min_stable_mw", default="0")),
                    srmc=_parse_float(name, "srmc", sec.take("srmc", required=True) or "nan"),
                ))
            except (ConfigError, DispatchError) as exc:
                errors.append(f"[{name}] {exc}")
            sec.leftovers()
        elif name.startswith("interconnector "):
            lname = name.split(" ", 1)[1]
            sec = section(name)
            try:
                lines.append(Interconnector(
                    name=lname,
                    from_region=(sec.take("from", required=True) or "").strip(),
                    to_region=(sec.take("to", required=True) or "").strip(),
                    forward_limit_mw=_parse_float(name, "forward_mw", sec.take("forward_mw", required=True) or "nan"),
                    reverse_limit_mw=_parse_float(name, "reverse_mw", sec.take("reverse_mw", required=True) or "nan"),
                ))
            except (ConfigError, DispatchError) as exc:
                errors.append(f"[{name}] {exc}")
            sec.leftovers()
        elif name.startswith("zone_weights "):
            region = name.split(" ", 1)[1]
            sec = section(name)
            weights = {key: _parse_float(name, key, raw) for key, raw in sec.items.items()}
            sec.items = {}
            if region not in demand_regions:
                errors.append(f"[{name}] {region!r} is not a demand region")
                continue
            try:
                zone_weights[region] = ZoneWeights(weights)
            except TimeSeriesError as exc:
                errors.append(f"[{name}] {exc}")

    repl_sec = section("replacement")
    if repl_sec:
        try:
            replacement = ReplacementSpec(
                remove=_names(repl_sec.take("remove", required=True) or ""),
                wind_name=(repl_sec.take("wind_name", required=True) or "").strip(),
                wind_region=(repl_sec.take("wind_region", required=True) or "").strip(),
                wind_zone=(repl_sec.take("wind_zone", required=True) or "").strip(),
                wind_capacity_mw=_parse_float("replacement", "wind_capacity_mw",
                                              repl_sec.take("wind_capacity_mw", required=True) or "nan"),
                csp_names=_names(repl_sec.take("csp_names", required=True) or ""),
                csp_region=(repl_sec.take("csp_region", required=True) or "").strip(),
                csp_zones=_names(repl_sec.take("csp_zones", required=True) or ""),
                csp_capacity_mw=_parse_float("replacement", "csp_capacity_mw",
                                             repl_sec.take("csp_capacity_mw", required=True) or "nan"),
                csp_delay_hours=_parse_int("replacement", "csp_delay_hours",
                                           repl_sec.take("csp_delay_hours", default="12")),
            )
        except ConfigError as exc:
            errors.append(str(exc))
        repl_sec.leftovers()

    load_sec = section("loadability", required=True)
    load_opts = None
    if load_sec:
        region = (load_sec.take("region", required=True) or "").strip()
        participation: dict[str, float] = {}
        part_raw = load_sec.take("participation", default="")
        for part in _names(part_raw):
            if ":" not in part:
                errors.append(f"[loadability] participation entry {part!r} must be bus:factor")
                continue
            bus, factor = part.split(":", 1)
            participation[bus.strip()] = _parse_float("loadability", "participation", factor)
        numbers = {}  # keys left out take the LoadabilityOptions defaults
        for key in ("step", "lambda_max", "base_mva"):
            raw = load_sec.take(key)
            if raw is not None:
                numbers[key] = _parse_float("loadability", key, raw)
        try:
            load_opts = LoadabilityOptions(region=region, participation=participation, **numbers)
        except ConfigError as exc:
            errors.append(str(exc))
        load_sec.leftovers()

    pred_sec = section("predictor")
    predictor_kind = "ridge-linear"
    if pred_sec:
        kind = (pred_sec.take("kind", default="ridge-linear") or "").strip()
        if kind not in MODEL_KINDS:
            errors.append(f"[predictor] kind {kind!r} not one of {MODEL_KINDS}")
        else:
            predictor_kind = kind
        pred_sec.leftovers()

    for name in sections:
        errors.append(f"unknown section [{name}]")

    # Cross-field invariants.
    all_regions = set(demand_regions) | set(transit_regions)
    if scenario_id == 1 and replacement is not None:
        errors.append("scenario 1 is the unmodified fleet; [replacement] is not allowed")
    if scenario_id >= 2 and replacement is None:
        errors.append(f"scenario {scenario_id} must define [replacement]")
    if scenario_id in (1, 2) and uptake != "none":
        errors.append(f"scenario {scenario_id} runs the conventional load; uptake must be none")
    if scenario_id >= 3 and uptake == "none":
        errors.append(f"scenario {scenario_id} is an uptake scenario; uptake must not be none")
    if uptake == "none":
        for region in set(batteries) | set(pv_capacity):
            errors.append(f"uptake none forbids [battery {region}]/[pv {region}] sections")
    else:
        for region in demand_regions:
            if region not in batteries:
                errors.append(f"uptake {uptake}: missing [battery {region}]")
            if region not in pv_capacity:
                errors.append(f"uptake {uptake}: missing [pv {region}]")
        for region in set(batteries) | set(pv_capacity):
            if region not in demand_regions:
                errors.append(f"battery/pv section names unknown region {region!r}")
    fleet_names = {g.name for g in fleet}
    if replacement is not None:
        for unit in replacement.remove:
            if unit not in fleet_names:
                errors.append(f"[replacement] removes unknown unit {unit!r}")
    for g in fleet:
        if g.region not in all_regions:
            errors.append(f"[generator {g.name}] region {g.region!r} not in the region lists")
        if g.is_renewable:
            errors.append(f"[generator {g.name}] type {g.gtype!r}: renewable units have no "
                          f"availability series; they come only from [replacement]")
    for line in lines:
        for end in (line.from_region, line.to_region):
            if end not in all_regions:
                errors.append(f"[interconnector {line.name}] region {end!r} not in the region lists")
    if load_opts and load_opts.region and load_opts.region not in all_regions:
        errors.append(f"[loadability] region {load_opts.region!r} not in the region lists")
    if not fleet:
        errors.append("no [generator ...] sections found")
    required_files = ["bus", "branch"]
    for region in demand_regions:
        required_files += [f"demand.{region}", f"historical_demand.{region}", f"historical_price.{region}"]
        if uptake != "none":
            required_files.append(f"pv.{region}")
    if replacement is not None:
        required_files.append(f"wind.{replacement.wind_zone}")
        required_files += [f"solar.{zone}" for zone in replacement.csp_zones]
    for key in required_files:
        if key not in data_files:
            errors.append(f"[data] missing file entry {key!r}")
    for key in data_files:
        if key not in required_files and not key.startswith(("pv.", "wind.", "solar.")):
            errors.append(f"[data] unknown file entry {key!r}")

    if errors:
        raise ConfigError(f"{path}:\n  " + "\n  ".join(errors))
    return ScenarioConfig(
        scenario_id=scenario_id,
        uptake=uptake,
        seed=seed,
        demand_regions=demand_regions,
        transit_regions=transit_regions,
        data_files=data_files,
        batteries=batteries,
        pv_capacity_mw=pv_capacity,
        fleet=tuple(fleet),
        interconnectors=tuple(lines),
        replacement=replacement,
        loadability=load_opts,
        predictor_kind=predictor_kind,
        zone_weights=zone_weights,
        source_path=str(path),
    )


def config_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
