"""Hourly zonal dispatch: merit-order commitment plus a transport-model LP.

Regions form a chain linked by interconnectors with asymmetric limits.
Renewables (wind, CSP, utility PV) are zero-cost must-run units; surplus
that no region can absorb is dumped, shortfall is unserved.  Each hour's
LP minimises ``srmc . generation + VoLL * unserved + eps * dumped`` and
regional marginal prices are read off the optimal basis duals.

Commitment is a priority list: renewables always on, dispatchables added
in ascending SRMC until capacity covers total demand.
``simulate_horizon`` repairs the rare hours where the priority list
strands demand by committing further dispatchables one at a time.  A
commitment is a tuple of the fleet's own units; each hour puts its unit
windows and demand on the commitment's LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from gridstudy.lp import INFINITE_BOUND, BasisHint, LinearProgram, solve_lp
from gridstudy.timeseries import HOURS_PER_DAY, TimeSeries

#: Penalty price for unserved energy ($/MWh).
VALUE_OF_LOST_LOAD = 10_000.0
#: Small penalty on dumped energy so the LP spills only what nothing can absorb.
DUMP_PENALTY = 0.01
#: Default CSP output delay (hours within the day) standing in for thermal storage.
DEFAULT_CSP_DELAY_HOURS = 12

_BALANCE_TOL = 1e-6

GENERATOR_TYPES = ("black_coal", "brown_coal", "gt", "biomass", "hydro", "wind", "csp", "utility_pv")
RENEWABLE_TYPES = ("wind", "csp", "utility_pv")


class DispatchError(ValueError):
    pass


@dataclass(frozen=True)
class Generator:
    """Dispatchable or must-run unit.  A renewable's per-unit-of-capacity hourly
    availability comes by unit name in ``simulate_horizon``'s ``availabilities``."""

    name: str
    gtype: str
    zone: str
    region: str
    capacity_mw: float
    min_stable_mw: float
    srmc: float

    def __post_init__(self):
        if self.gtype not in GENERATOR_TYPES:
            raise DispatchError(f"{self.name}: unknown generator type {self.gtype!r}")
        if not 0.0 <= self.min_stable_mw <= self.capacity_mw:
            raise DispatchError(
                f"{self.name}: min stable level {self.min_stable_mw} outside [0, {self.capacity_mw}]")
        if self.srmc < 0:
            raise DispatchError(f"{self.name}: srmc {self.srmc} must be >= 0")
        if self.is_renewable and self.srmc != 0.0:
            raise DispatchError(f"{self.name}: renewable srmc must be 0, got {self.srmc}")

    @property
    def is_renewable(self) -> bool:
        return self.gtype in RENEWABLE_TYPES


@dataclass(frozen=True)
class Interconnector:
    """Transfer corridor; positive flow runs from ``from_region`` to ``to_region``.

    ``reverse_limit_mw`` is stored as the (nonpositive) lower flow bound.
    """

    name: str
    from_region: str
    to_region: str
    forward_limit_mw: float
    reverse_limit_mw: float

    def __post_init__(self):
        if not self.reverse_limit_mw <= 0.0 <= self.forward_limit_mw:
            raise DispatchError(
                f"{self.name}: limits [{self.reverse_limit_mw}, {self.forward_limit_mw}] must straddle 0")


Commitment = tuple[Generator, ...]


@dataclass(frozen=True)
class HourDispatch:
    hour: int
    output_mw: Mapping[str, float]
    flow_mw: Mapping[str, float]
    unserved_mw: Mapping[str, float]
    dumped_mw: Mapping[str, float]
    price: Mapping[str, float]
    unserved_hour: bool
    dumped_hour: bool
    objective: float = 0.0

    def __post_init__(self):
        # A dispatch result may be served again to a later run in the same
        # process, so no holder may change its mappings in place.
        for key in ("output_mw", "flow_mw", "unserved_mw", "dumped_mw", "price"):
            object.__setattr__(self, key, MappingProxyType(getattr(self, key)))


@dataclass(frozen=True)
class DispatchResult:
    hours: tuple[HourDispatch, ...]
    spilled_energy_twh: float
    spilled_hours_pct: float
    gt_energy_twh: float
    unserved_energy_twh: float
    unserved_hours: int


def csp_profile_shift(csp_availability: TimeSeries,
                      delay_hours: int = DEFAULT_CSP_DELAY_HOURS) -> TimeSeries:
    """Delay CSP output within each day (thermal-storage proxy).

    Output at hour ``h`` equals availability at hour ``(h - delay) mod 24``
    of the same day, so every day's energy is conserved exactly.
    """
    if delay_hours < 0:
        raise DispatchError(f"delay must be >= 0, got {delay_hours}")
    n_days = csp_availability.n_days  # raises if not whole days
    shaped = csp_availability.values.reshape(n_days, HOURS_PER_DAY)
    shifted = np.roll(shaped, delay_hours % HOURS_PER_DAY, axis=1)
    return TimeSeries(csp_availability.start, shifted.reshape(-1),
                      label=csp_availability.label + f"+{delay_hours}h")


def _p_max(gen: Generator, availability: Mapping[str, float]) -> float:
    """A unit's maximum output this hour; a renewable is pinned at it."""
    return gen.capacity_mw * availability.get(gen.name, 0.0) if gen.is_renewable else gen.capacity_mw


def _merit_order(generators: Sequence[Generator]) -> list[Generator]:
    return sorted((g for g in generators if not g.is_renewable), key=lambda g: (g.srmc, g.name))


def commit_merit_order(generators: Sequence[Generator], demand: Mapping[str, float],
                       availability: Mapping[str, float], merit: Sequence[Generator]) -> Commitment:
    """Priority-list commitment for one hour.

    Renewables are always committed (must-run at availability).
    Dispatchables join in ascending SRMC until committed capacity, the
    renewables' at this hour's availability included, covers total demand;
    the list stops at the first unit that covers it, or commits the whole
    merit order.  ``merit`` is ``generators``' merit order (``_merit_order``).
    """
    total_demand = float(sum(demand.values()))
    renewables = [g for g in generators if g.is_renewable]
    capacity = sum(_p_max(g, availability) for g in renewables)
    committed: list[Generator] = []
    for g in merit:
        if capacity >= total_demand:
            break
        committed.append(g)
        capacity += g.capacity_mw
    return tuple(renewables + committed)


def dispatch_hour(committed: Commitment, demand: Mapping[str, float],
                  availability: Mapping[str, float], lines: Sequence[Interconnector], hour: int,
                  hints: dict[tuple, tuple[LinearProgram, BasisHint]]) -> HourDispatch:
    """LP dispatch of a committed fleet against per-region demand.

    A dispatchable runs from its minimum stable level to its capacity; a
    renewable is pinned at capacity times its ``availability`` (0 if absent).
    Regional balance: generation + imports - exports + unserved =
    demand + dumped.  Marginal price per region is the balance-row dual
    of the optimal basis.  ``hints`` is a cache keyed by
    commitment: each unit's name, region and SRMC, the region order and the
    lines.  It holds the commitment's validated program and the optimal
    basis of its last solve, from which a cached commitment is solved.  New
    or cached, the program gets this hour's unit bounds and demand put in.
    """
    regions = tuple(demand)
    key = (tuple((g.name, g.region, g.srmc) for g in committed), regions, tuple(lines))
    cached = hints.get(key)
    template, hint = (_dispatch_lp(committed, lines, regions), None) if cached is None else cached
    nu, nl, nr = len(committed), len(lines), len(regions)
    p_max = [_p_max(g, availability) for g in committed]
    lower, upper = template.lower.copy(), template.upper.copy()
    lower[:nu] = [p if g.is_renewable else g.min_stable_mw for g, p in zip(committed, p_max)]
    upper[:nu] = p_max
    lp = template.reinstance(lower=lower, upper=upper, b_eq=[demand[r] for r in regions])
    sol = solve_lp(lp, basis_hint=hint)
    if not sol.is_optimal:
        raise DispatchError(f"hour {hour}: dispatch LP failed with status {sol.status}")
    hints[key] = (lp, sol.basis_hint)
    x = sol.x.tolist()
    unserved = dict(zip(regions, x[nu + nl:nu + nl + nr]))
    dumped = dict(zip(regions, x[nu + nl + nr:]))
    return HourDispatch(
        hour=hour,
        output_mw={g.name: x[j] for j, g in enumerate(committed)},
        flow_mw={line.name: x[nu + j] for j, line in enumerate(lines)},
        unserved_mw=unserved,
        dumped_mw=dumped,
        price=dict(zip(regions, sol.duals_eq.tolist())),
        unserved_hour=any(v > _BALANCE_TOL for v in unserved.values()),
        dumped_hour=any(v > _BALANCE_TOL for v in dumped.values()),
        objective=float(sol.objective),
    )


def _dispatch_lp(committed: Commitment, lines: Sequence[Interconnector],
                 regions: Sequence[str]) -> LinearProgram:
    """The transport LP: unit outputs, line flows, then unserved and dumped per region;
    ``dispatch_hour`` puts in the unit bounds and demand."""
    for line in lines:
        for r in (line.from_region, line.to_region):
            if r not in regions:
                raise DispatchError(f"line {line.name} endpoint {r} has no demand entry")
    for g in committed:
        if g.region not in regions:
            raise DispatchError(f"unit {g.name} region {g.region} has no demand entry")
    nu, nl, nr = len(committed), len(lines), len(regions)
    ridx = {r: i for i, r in enumerate(regions)}
    n = nu + nl + 2 * nr
    cost = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, INFINITE_BOUND)
    a_eq = np.zeros((nr, n))
    for j, g in enumerate(committed):
        cost[j] = g.srmc
        a_eq[ridx[g.region], j] = 1.0
    for j, line in enumerate(lines):
        col = nu + j
        lower[col], upper[col] = line.reverse_limit_mw, line.forward_limit_mw
        a_eq[ridx[line.from_region], col] = -1.0
        a_eq[ridx[line.to_region], col] = 1.0
    for i in range(nr):
        cost[nu + nl + i] = VALUE_OF_LOST_LOAD
        a_eq[i, nu + nl + i] = 1.0
        cost[nu + nl + nr + i] = DUMP_PENALTY
        a_eq[i, nu + nl + nr + i] = -1.0
    return LinearProgram(cost, lower, upper, a_eq, np.zeros(nr))


def _regional_topup(merit: Sequence[Generator], demand: Mapping[str, float],
                    availability: Mapping[str, float], lines: Sequence[Interconnector],
                    base: Commitment) -> Commitment:
    """Commit extra in-region units where local capacity plus the import
    bound cannot cover regional demand.  The import bound sums line limits
    into the region, ignoring upstream availability, so this is a cheap
    sufficient top-up; the LP repair loop remains the backstop."""
    import_bound: dict[str, float] = {}
    for line in lines:
        import_bound[line.to_region] = import_bound.get(line.to_region, 0.0) + line.forward_limit_mw
        import_bound[line.from_region] = import_bound.get(line.from_region, 0.0) - line.reverse_limit_mw
    local = {r: 0.0 for r in demand}
    for g in base:
        local[g.region] += _p_max(g, availability)
    committed_names = {g.name for g in base}
    extra: list[Generator] = []
    for region, need in demand.items():
        cover = local[region] + import_bound.get(region, 0.0)
        if cover >= need:
            continue
        for g in merit:
            if g.region != region or g.name in committed_names:
                continue
            extra.append(g)
            committed_names.add(g.name)
            cover += g.capacity_mw
            if cover >= need:
                break
    return base + tuple(extra)


def choose_commitment(generators: Sequence[Generator], demand: Mapping[str, float],
                      availability: Mapping[str, float], lines: Sequence[Interconnector],
                      hour: int, hints: dict[tuple, tuple[LinearProgram, BasisHint]],
                      merit: Sequence[Generator]) -> tuple[Commitment, HourDispatch]:
    """Commitment used by the horizon simulation: priority list plus repair.

    The priority list is topped up for regional adequacy against the line
    limits; if the dispatch still leaves unserved demand, dispatchables
    are committed one by one (cheapest first, regions in shortfall
    preferred); a unit stays committed only if it lowers the objective.
    The outcome is not guaranteed least-cost, and an hour may still dump
    energy that another commitment would absorb.

    ``hints`` is a cross-call cache of each commitment's program and
    optimal basis (see ``dispatch_hour``); it only accelerates re-solves.
    ``merit`` is ``generators``' merit order (``_merit_order``).
    """
    base = _regional_topup(merit, demand, availability, lines,
                           commit_merit_order(generators, demand, availability, merit))
    dispatch = dispatch_hour(base, demand, availability, lines, hour, hints)
    if not dispatch.unserved_hour:
        return base, dispatch
    committed_names = {g.name for g in base}
    spare = [g for g in merit if g.name not in committed_names]
    while dispatch.unserved_hour and spare:
        short = {r for r, v in dispatch.unserved_mw.items() if v > _BALANCE_TOL}
        pick = next((g for g in spare if g.region in short), spare[0])
        spare.remove(pick)
        trial_commitment = base + (pick,)
        trial = dispatch_hour(trial_commitment, demand, availability, lines, hour, hints)
        if trial.objective < dispatch.objective:
            base, dispatch = trial_commitment, trial
    return base, dispatch


def simulate_horizon(generators: Sequence[Generator], nett_demand: Mapping[str, TimeSeries],
                     lines: Sequence[Interconnector],
                     availabilities: Mapping[str, TimeSeries]) -> DispatchResult:
    """Commit and dispatch every hour of the horizon, then aggregate totals.

    Every renewable needs an availability series of the horizon's length
    with values in [0, 1].  Spilled-hour percentages are taken over all
    hours of the horizon.
    """
    horizons = {r: len(ts) for r, ts in nett_demand.items()}
    if len(set(horizons.values())) != 1:
        raise DispatchError(f"demand horizon mismatch: {horizons}")
    n_hours = next(iter(horizons.values()))
    for g in generators:
        if g.is_renewable:
            ts = availabilities.get(g.name)
            if ts is None:
                raise DispatchError(f"renewable {g.name} has no availability series")
            if len(ts) != n_hours:
                raise DispatchError(f"{g.name} availability has {len(ts)} hours, horizon is {n_hours}")
            outside = np.flatnonzero(~((ts.values >= 0.0) & (ts.values <= 1.0)))
            if outside.size:
                h = int(outside[0])
                raise DispatchError(f"{g.name} availability {float(ts.values[h])!r} at hour {h} is outside [0, 1]")
    regions = list(nett_demand.keys())
    demand_arr = {r: nett_demand[r].values.tolist() for r in regions}
    avail_arr = {name: ts.values.tolist() for name, ts in availabilities.items()}
    hours: list[HourDispatch] = []
    hints: dict[tuple, tuple[LinearProgram, BasisHint]] = {}
    merit = _merit_order(generators)
    for h in range(n_hours):
        demand = {r: demand_arr[r][h] for r in regions}
        avail = {name: vals[h] for name, vals in avail_arr.items()}
        _, hd = choose_commitment(generators, demand, avail, lines, hour=h, hints=hints, merit=merit)
        hours.append(hd)
    return summarise(hours, generators)


def summarise(hours: Sequence[HourDispatch], generators: Sequence[Generator]) -> DispatchResult:
    """Aggregate hourly records into the horizon totals."""
    n = len(hours)
    if n == 0:
        raise DispatchError("no hours to summarise")
    gt_names = {g.name for g in generators if g.gtype == "gt"}
    spilled = unserved = gt_energy = 0.0
    spilled_hours = unserved_hours = 0
    for hd in hours:
        for name, mw in hd.output_mw.items():
            if name in gt_names:
                gt_energy += mw
        spilled += sum(hd.dumped_mw.values())
        unserved += sum(hd.unserved_mw.values())
        spilled_hours += hd.dumped_hour
        unserved_hours += hd.unserved_hour
    return DispatchResult(
        hours=tuple(hours),
        spilled_energy_twh=spilled / 1e6,
        spilled_hours_pct=100.0 * spilled_hours / n,
        gt_energy_twh=gt_energy / 1e6,
        unserved_energy_twh=unserved / 1e6,
        unserved_hours=unserved_hours,
    )
