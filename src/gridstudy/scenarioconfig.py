"""Scenario configuration: one INI file per study scenario, read into ``ScenarioConfig``.

A scenario file (schema version 1; the bundled ones are under ``configs/``)
has these sections:

* ``[scenario]``      -- ``schema_version`` (must be 1), ``id`` 1..5,
  ``uptake`` (none | low | medium | high).
* ``[regions]``       -- ``demand`` region list, optional ``transit`` list;
  each region at most once across both.
* ``[data]``          -- file names, resolved against the run's data
  directory: ``demand.<R>``, ``historical_demand.<R>`` and
  ``historical_price.<R>`` per demand region; ``pv.<R>`` when uptake is
  not none; the ``wind.<zone>`` / ``solar.<zone>`` traces that
  ``[replacement]`` names; ``bus`` and ``branch`` for the network.
* ``[battery <R>]`` / ``[pv <R>]`` -- storage window (MWh), optional
  charge/discharge rates and efficiency, and PV capacity (MW): one pair per
  demand region when uptake is not none, none otherwise.
* ``[generator <name>]``      -- type, zone, region, capacity_mw, optional
  min_stable_mw (0), srmc.  Dispatchable types only: renewable units come
  from ``[replacement]``, the one place their availability traces are named.
* ``[interconnector <name>]`` -- from, to, forward_mw, reverse_mw.
* ``[replacement]``   -- scenarios 2..5 only: the coal units to remove, the
  wind farm and the CSP pair with zones and capacities, optional
  csp_delay_hours (12).  ``ScenarioConfig.fleet`` is the fleet the scenario
  dispatches: the ``[generator]`` units not removed, in file order, then the
  wind farm and the CSP pair.  Its unit names must be unique; a removed
  unit's name may be reused.
* ``[loadability]``   -- region, participation (``bus:factor`` list), and
  optional step, lambda_max and base_mva.
* ``[zone_weights <R>]`` -- optional split of demand region R over its load
  buses: finite shares >= 0 summing to 1, one key for each of R's load buses
  (checked against the network when the run loads its data).  Without it,
  R's demand splits equally over R's load buses.

``scenario_from_config`` reads every section before it gives up, so one
``ConfigError`` lists every violation in the file, one line each: a
missing, malformed or unknown key as ``[section] key: ...``, a rejected
value under its section's name, then the checks across sections.  A check
across sections skips a value that itself failed, so one mistake gives one
line.  Values that name network buses (participation, zone weights) and
the loadability region, which needs a load bus, are checked against the
network once it is loaded, before any dispatch runs.  ``ScenarioConfig.sha256``
is the digest of the bytes that were parsed, so the file is not read again.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from gridstudy.demand import DEFAULT_EFFICIENCY, default_params
from gridstudy.dispatch import DEFAULT_CSP_DELAY_HOURS, Generator, Interconnector
from gridstudy.loadability import DEFAULT_LAMBDA_MAX, DEFAULT_STEP, validate_scan, validate_shares
from gridstudy.powerflow import DEFAULT_BASE_MVA
from gridstudy.timeseries import KNOWN_REGIONS, ZoneWeights

SCHEMA_VERSION = 1
UPTAKE_LEVELS = ("none", "low", "medium", "high")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BatterySpec:
    soc_min_mwh: float
    soc_max_mwh: float
    charge_rate_mw: Optional[float]
    discharge_rate_mw: Optional[float]
    efficiency: float

    def __post_init__(self):
        # the demand model's checks of SOC window, rates and efficiency (grid limits 0)
        default_params(self.soc_min_mwh, self.soc_max_mwh, 0.0, 0.0, self.charge_rate_mw,
                       self.discharge_rate_mw, self.efficiency)


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
    csp_delay_hours: int

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
    step: float
    lambda_max: float
    participation: Mapping[str, float]
    base_mva: float

    def __post_init__(self):
        if not self.region:
            raise ConfigError("region must name a region")
        validate_scan(self.step, self.lambda_max)
        if self.base_mva <= 0:
            raise ConfigError("base_mva must be positive")
        if not self.participation:
            raise ConfigError("participation names no bus")
        validate_shares(self.participation)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: int
    uptake: str
    demand_regions: tuple[str, ...]
    transit_regions: tuple[str, ...]
    data_files: Mapping[str, str]
    batteries: Mapping[str, BatterySpec]
    pv_capacity_mw: Mapping[str, float]
    fleet: tuple[Generator, ...]
    interconnectors: tuple[Interconnector, ...]
    replacement: Optional[ReplacementSpec]
    loadability: LoadabilityOptions
    zone_weights: Mapping[str, ZoneWeights]
    sha256: str

    @property
    def regions(self) -> tuple[str, ...]:
        return self.demand_regions + self.transit_regions

    @property
    def has_demand_response(self) -> bool:
        return self.uptake != "none"


#: A value that could not be read (its error is already recorded); also the
#: default that marks a key as required.
_BAD = object()


def _names(raw):
    return raw if raw is _BAD else tuple(x.strip() for x in raw.split(",") if x.strip())


def _read_all(mapping: dict):
    return _BAD if _BAD in mapping.values() else mapping


class _Section:
    """One section's keys, each read at most once; problems go to ``errors``.

    A missing or malformed value is recorded and read as ``_BAD`` instead of
    raising, so the rest of the file is still checked.  A required section
    that is absent was reported once; its keys read as ``_BAD`` silently.
    """

    def __init__(self, name: str, items: Optional[Mapping[str, str]], errors: list[str]):
        self.name = name
        self.absent = items is None
        self.items = dict(items or {})
        self.errors = errors

    def error(self, message: str) -> None:
        self.errors.append(f"[{self.name}] {message}")

    def text(self, key: str, default=_BAD):
        """The value of ``key``, stripped; ``default`` when the key is absent
        (recorded as missing when there is no default)."""
        if key in self.items:
            return self.items.pop(key).strip()
        if default is _BAD and not self.absent:
            self.error(f"missing required key {key!r}")
        return default

    def number(self, key: str, default=_BAD, kind=float):
        raw = self.text(key, default)
        return self.convert(key, raw, kind) if isinstance(raw, str) else raw

    def convert(self, key: str, raw: str, kind=float):
        try:
            value = kind(raw)
            if math.isfinite(value):
                return value
            self.error(f"{key}: not a finite number: {raw!r}")
        except ValueError:
            self.error(f"{key}: not {'an integer' if kind is int else 'a number'}: {raw!r}")
        return _BAD

    def build(self, cls, *values):
        """``cls(*values)`` when every value was read, else ``_BAD``; the spec's
        own ValueError is recorded, and so is each key left unread."""
        spec = _BAD
        if _BAD not in values:
            try:
                spec = cls(*values)
            except ValueError as exc:
                self.error(str(exc))
        self.leftovers()
        return spec

    def leftovers(self) -> None:
        for key in self.items:
            self.error(f"unknown key {key!r}")


def scenario_from_config(path) -> ScenarioConfig:
    """Parse and check a scenario file; a ``ConfigError`` lists every violation."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing scenario config: {path}")
    try:
        data = path.read_bytes()
        # decoded as read_text would: UTF-8 with universal newlines
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the scenario config: {exc}") from None
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (region names appear in keys)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    errors: list[str] = []
    sections = {name: dict(parser.items(name)) for name in parser.sections()}

    def section(name: str, required: bool = False) -> _Section:
        if required and name not in sections:
            errors.append(f"missing required section [{name}]")
        return _Section(name, sections.pop(name, None), errors)

    sec = section("scenario", required=True)
    version = sec.number("schema_version", kind=int)
    if version not in (_BAD, SCHEMA_VERSION):
        sec.error(f"schema_version {version} unsupported (expected {SCHEMA_VERSION})")
    scenario_id = sec.number("id", kind=int)
    if scenario_id is not _BAD and not 1 <= scenario_id <= 5:
        sec.error(f"id {scenario_id} outside 1..5")
        scenario_id = _BAD
    uptake = sec.text("uptake")
    if uptake is not _BAD and uptake not in UPTAKE_LEVELS:
        sec.error(f"uptake {uptake!r} not one of {UPTAKE_LEVELS}")
        uptake = _BAD
    sec.leftovers()

    sec = section("regions", required=True)
    demand_regions = _names(sec.text("demand"))
    transit_regions = _names(sec.text("transit", ""))
    sec.leftovers()
    if demand_regions == ():
        sec.error("demand region list is empty")
        demand_regions = _BAD
    listed = (() if demand_regions is _BAD else demand_regions) + transit_regions
    for region in dict.fromkeys(listed):
        if region not in KNOWN_REGIONS:
            sec.error(f"unknown region {region!r}; expected a subset of {KNOWN_REGIONS}")
        if listed.count(region) > 1:
            sec.error(f"region {region!r} is listed more than once")
    # None when the demand regions could not be read: region checks are skipped.
    all_regions = None if demand_regions is _BAD else set(demand_regions) | set(transit_regions)

    data_files = section("data", required=True).items

    # Each section's spec by label, in file order; _BAD where it failed to build.
    batteries: dict[str, BatterySpec] = {}
    pv_capacity: dict[str, float] = {}
    generators: dict[str, Generator] = {}
    lines: dict[str, Interconnector] = {}
    zone_weights: dict[str, ZoneWeights] = {}
    for name in list(sections):
        kind, space, label = name.partition(" ")
        if not space or kind not in ("battery", "pv", "generator", "interconnector",
                                     "zone_weights"):
            continue
        sec = section(name)
        if kind == "battery":
            batteries[label] = sec.build(
                BatterySpec, sec.number("soc_min_mwh"), sec.number("soc_max_mwh"),
                sec.number("charge_rate_mw", None), sec.number("discharge_rate_mw", None),
                sec.number("efficiency", DEFAULT_EFFICIENCY))
        elif kind == "pv":
            cap = pv_capacity[label] = sec.number("capacity_mw")
            if cap is not _BAD and cap < 0:
                sec.error("capacity_mw must be >= 0")
            sec.leftovers()
        elif kind == "generator":
            generators[label] = sec.build(Generator, label, sec.text("type"), sec.text("zone"),
                                          sec.text("region"), sec.number("capacity_mw"),
                                          sec.number("min_stable_mw", 0.0), sec.number("srmc"))
        elif kind == "interconnector":
            lines[label] = sec.build(Interconnector, label, sec.text("from"), sec.text("to"),
                                     sec.number("forward_mw"), sec.number("reverse_mw"))
        else:
            weights = {bus: sec.convert(bus, sec.items.pop(bus)) for bus in list(sec.items)}
            if demand_regions is not _BAD and label not in demand_regions:
                sec.error(f"{label!r} is not a demand region")
            else:
                zone_weights[label] = sec.build(ZoneWeights, _read_all(weights))

    replacement = None
    if "replacement" in sections:
        sec = section("replacement")
        replacement = sec.build(
            ReplacementSpec, _names(sec.text("remove")), sec.text("wind_name"),
            sec.text("wind_region"), sec.text("wind_zone"), sec.number("wind_capacity_mw"),
            _names(sec.text("csp_names")), sec.text("csp_region"),
            _names(sec.text("csp_zones")), sec.number("csp_capacity_mw"),
            sec.number("csp_delay_hours", DEFAULT_CSP_DELAY_HOURS, int))

    sec = section("loadability", required=True)
    region = sec.text("region")
    parts = _names(sec.text("participation"))
    participation = {}
    for part in () if parts is _BAD else parts:
        bus, colon, factor = part.partition(":")
        if not colon:
            sec.error(f"participation entry {part!r} must be bus:factor")
        participation[bus.strip()] = sec.convert("participation", factor) if colon else _BAD
    load_opts = sec.build(LoadabilityOptions, region, sec.number("step", DEFAULT_STEP),
                          sec.number("lambda_max", DEFAULT_LAMBDA_MAX),
                          _BAD if parts is _BAD else _read_all(participation),
                          sec.number("base_mva", DEFAULT_BASE_MVA))

    for name in sections:
        errors.append(f"unknown section [{name}]")

    # Checks across sections; each skips values whose own read failed.
    if scenario_id == 1 and replacement is not None:
        errors.append("scenario 1 is the unmodified fleet; [replacement] is not allowed")
    if scenario_id in (2, 3, 4, 5) and replacement is None:
        errors.append(f"scenario {scenario_id} must define [replacement]")
    if scenario_id in (1, 2) and uptake not in ("none", _BAD):
        errors.append(f"scenario {scenario_id} runs the conventional load; uptake must be none")
    if scenario_id in (3, 4, 5) and uptake == "none":
        errors.append(f"scenario {scenario_id} is an uptake scenario; uptake must not be none")
    uptake_regions = sorted(set(batteries) | set(pv_capacity))
    if uptake == "none":
        for region in uptake_regions:
            errors.append(f"uptake none forbids [battery {region}]/[pv {region}] sections")
    elif uptake is not _BAD and all_regions is not None:
        for region in demand_regions:
            for kind, specs in (("battery", batteries), ("pv", pv_capacity)):
                if region not in specs:
                    errors.append(f"uptake {uptake}: missing [{kind} {region}]")
        for region in uptake_regions:
            if region not in demand_regions:
                errors.append(f"battery/pv section names unknown region {region!r}")
    # The dispatched fleet: the [generator] units that stay, then the replacement's.
    fleet = dict(generators)
    added: list[Generator] = []
    if isinstance(replacement, ReplacementSpec):
        spec = replacement
        for unit in spec.remove:
            if unit not in generators:
                errors.append(f"[replacement] removes unknown unit {unit!r}")
            fleet.pop(unit, None)
        added = [Generator(spec.wind_name, "wind", spec.wind_zone, spec.wind_region,
                           spec.wind_capacity_mw, 0.0, 0.0)]
        added += [Generator(name, "csp", zone, spec.csp_region, spec.csp_capacity_mw, 0.0, 0.0)
                  for name, zone in zip(spec.csp_names, spec.csp_zones)]
        for g in added:
            if g.name in fleet:
                errors.append(f"[replacement] unit name {g.name!r} is already in the fleet")
            fleet[g.name] = g
    if not generators:
        errors.append("no [generator ...] sections found")
    units = [g for g in generators.values() if g is not _BAD]
    for g in units:
        if g.is_renewable:
            errors.append(f"[generator {g.name}] type {g.gtype!r}: renewable units have no "
                          f"availability series; they come only from [replacement]")
    if all_regions is not None:
        for g in units:
            if g.region not in all_regions:
                errors.append(f"[generator {g.name}] region {g.region!r} not in the region lists")
        outside: dict[str, list[str]] = {}
        for g in added:
            if g.region not in all_regions:
                outside.setdefault(g.region, []).append(g.name)
        for region, names in outside.items():
            errors.append(f"[replacement] {'/'.join(names)} region {region!r} "
                          f"not in the region lists")
        for line in lines.values():
            if line is _BAD:
                continue
            for end in (line.from_region, line.to_region):
                if end not in all_regions:
                    errors.append(f"[interconnector {line.name}] region {end!r} "
                                  f"not in the region lists")
        if load_opts is not _BAD and load_opts.region not in all_regions:
            errors.append(f"[loadability] region {load_opts.region!r} not in the region lists")
        required_files = ["bus", "branch"]
        for region in demand_regions:
            required_files += [f"demand.{region}", f"historical_demand.{region}",
                               f"historical_price.{region}"]
            if uptake not in ("none", _BAD):
                required_files.append(f"pv.{region}")
        if isinstance(replacement, ReplacementSpec):
            required_files.append(f"wind.{replacement.wind_zone}")
            required_files += [f"solar.{zone}" for zone in replacement.csp_zones]
        for key in required_files:
            if key not in data_files:
                errors.append(f"[data] missing file entry {key!r}")
        # an entry whose need rests on a value that failed to read is not judged
        undecided = ("pv.",) if uptake is _BAD else ()
        undecided += ("wind.", "solar.") if replacement is _BAD else ()
        for key in data_files:
            if key not in required_files and not key.startswith(undecided):
                errors.append(f"[data] unknown file entry {key!r}")

    if errors:
        raise ConfigError(f"{path}:\n  " + "\n  ".join(errors))
    return ScenarioConfig(
        scenario_id=scenario_id,
        uptake=uptake,
        demand_regions=demand_regions,
        transit_regions=transit_regions,
        data_files=data_files,
        batteries=batteries,
        pv_capacity_mw=pv_capacity,
        fleet=tuple(fleet.values()),
        interconnectors=tuple(lines.values()),
        replacement=replacement,
        loadability=load_opts,
        zone_weights=zone_weights,
        sha256=hashlib.sha256(data).hexdigest(),
    )
