"""Aggregate price-taker demand with PV and battery storage.

Each 24-hour window is scheduled by a cost-minimising LP in ``solve_days``,
the one day loop: each day's LP starts from the basis of the day before
(``lp.solve_lp`` retries from scratch a warm start that does not end
optimal).  Its variables are each hour's battery power and the energy
stored above the minimum SOC after it, linked by one equality row per hour
(each day starts at the minimum); grid power follows from the balance
``grid = load + efficiency * battery - pv``, so the grid window bounds
battery power.  The stored-energy window bounds every state including the
end-of-horizon one, so the final hour cannot discharge energy the battery
never held.

Sign conventions: grid power >= 0 imports, < 0 exports; battery power
>= 0 charges, < 0 discharges.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from gridstudy.lp import LinearProgram, solve_lp
from gridstudy.timeseries import HOURS_PER_DAY, TimeSeries

#: Round-trip battery efficiency applied to battery power in the balance
#: equation, symmetrically for charging and discharging.
DEFAULT_EFFICIENCY = 0.9

_BALANCE_TOL = 1e-9


class DemandModelError(ValueError):
    pass


@dataclass(frozen=True)
class DemandParams:
    """Bounds of the daily scheduling problem.

    grid_import_limit_mw  -- max power drawn from the grid (>= 0)
    grid_export_limit_mw  -- min grid power (<= 0; negative allows export)
    charge_rate_mw        -- max battery charging power (>= 0)
    discharge_rate_mw     -- min battery power (<= 0)
    soc_min_mwh/soc_max_mwh -- stored energy window (0 <= min < max)
    efficiency            -- dimensionless, in (0, 1]
    """

    grid_import_limit_mw: float
    grid_export_limit_mw: float
    charge_rate_mw: float
    discharge_rate_mw: float
    soc_min_mwh: float
    soc_max_mwh: float
    efficiency: float = DEFAULT_EFFICIENCY

    def __post_init__(self):
        if not self.grid_export_limit_mw <= 0.0 <= self.grid_import_limit_mw:
            raise DemandModelError(
                f"grid window [{self.grid_export_limit_mw}, {self.grid_import_limit_mw}] must straddle 0")
        if not self.discharge_rate_mw <= 0.0 <= self.charge_rate_mw:
            raise DemandModelError(
                f"battery rate window [{self.discharge_rate_mw}, {self.charge_rate_mw}] must straddle 0")
        if not 0.0 <= self.soc_min_mwh < self.soc_max_mwh:
            raise DemandModelError(
                f"SOC window [{self.soc_min_mwh}, {self.soc_max_mwh}] must satisfy 0 <= min < max")
        if not 0.0 < self.efficiency <= 1.0:
            raise DemandModelError(f"efficiency {self.efficiency} must be in (0, 1]")


def default_params(soc_min_mwh: float, soc_max_mwh: float, peak_load_mw: float,
                   pv_capacity_mw: float, charge_rate_mw: float | None = None,
                   discharge_rate_mw: float | None = None,
                   efficiency: float = DEFAULT_EFFICIENCY) -> DemandParams:
    """Fill unspecified bounds with the documented defaults.

    Rates default to half the SOC window per hour (a two-hour full cycle);
    the grid import limit to 1.5x the peak hourly load; the export limit
    to minus the installed PV capacity.
    """
    half_window = (soc_max_mwh - soc_min_mwh) / 2.0
    return DemandParams(
        grid_import_limit_mw=1.5 * peak_load_mw,
        grid_export_limit_mw=-pv_capacity_mw,
        charge_rate_mw=half_window if charge_rate_mw is None else charge_rate_mw,
        discharge_rate_mw=-half_window if discharge_rate_mw is None else discharge_rate_mw,
        soc_min_mwh=soc_min_mwh,
        soc_max_mwh=soc_max_mwh,
        efficiency=efficiency,
    )


@dataclass(frozen=True)
class DayInputs:
    """One scheduling window: price ($/MWh), load and PV power (MW), 24 values each."""

    price: np.ndarray
    load_mw: np.ndarray
    pv_mw: np.ndarray

    def __post_init__(self):
        for key in ("price", "load_mw", "pv_mw"):
            arr = np.asarray(getattr(self, key), dtype=float)
            if arr.shape != (HOURS_PER_DAY,):
                raise DemandModelError(f"{key} must have {HOURS_PER_DAY} hourly values, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DemandModelError(f"{key} contains non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)
        if np.any(self.load_mw < 0):
            raise DemandModelError("load must be nonnegative")
        if np.any(self.pv_mw < 0):
            raise DemandModelError("pv must be nonnegative")


@dataclass(frozen=True)
class DemandSchedule:
    """Optimal day trajectories.

    ``soc_mwh`` has 25 entries: state before each hour plus the
    end-of-horizon state.  ``cost`` is the grid energy bill in $.
    """

    grid_mw: np.ndarray
    battery_mw: np.ndarray
    soc_mwh: np.ndarray
    cost: float

    def __post_init__(self):
        for key, size in (("grid_mw", HOURS_PER_DAY), ("battery_mw", HOURS_PER_DAY),
                          ("soc_mwh", HOURS_PER_DAY + 1)):
            arr = np.asarray(getattr(self, key), dtype=float)
            if arr.shape != (size,):
                raise DemandModelError(f"{key} must have {size} values")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)


def schedule_violations(schedule: DemandSchedule, params: DemandParams, day: DayInputs,
                        tol: float = _BALANCE_TOL) -> list[str]:
    """All non-finite entries and broken schedule invariants (empty list when the schedule is clean)."""
    out = []
    s, p = schedule, params
    for key in ("grid_mw", "battery_mw", "soc_mwh"):
        values = getattr(s, key)
        out += [f"{key}[{i}] = {values[i]} is not finite" for i in np.flatnonzero(~np.isfinite(values))]
    if abs(s.soc_mwh[0] - p.soc_min_mwh) > tol:
        out.append(f"initial SOC {s.soc_mwh[0]} != minimum {p.soc_min_mwh}")
    recur = s.soc_mwh[:-1] + s.battery_mw - s.soc_mwh[1:]
    for h in np.flatnonzero(np.abs(recur) > tol):
        out.append(f"SOC recursion broken at hour {h}: residual {recur[h]:.3e}")
    for h in np.flatnonzero((s.soc_mwh < p.soc_min_mwh - 1e-7) | (s.soc_mwh > p.soc_max_mwh + 1e-7)):
        out.append(f"SOC state {h} = {s.soc_mwh[h]} outside [{p.soc_min_mwh}, {p.soc_max_mwh}]")
    balance = day.load_mw + p.efficiency * s.battery_mw - day.pv_mw - s.grid_mw
    for h in np.flatnonzero(np.abs(balance) > tol):
        out.append(f"balance broken at hour {h}: residual {balance[h]:.3e}")
    for h in np.flatnonzero((s.grid_mw < p.grid_export_limit_mw - 1e-7) |
                            (s.grid_mw > p.grid_import_limit_mw + 1e-7)):
        out.append(f"grid power at hour {h} = {s.grid_mw[h]} outside window")
    for h in np.flatnonzero((s.battery_mw < p.discharge_rate_mw - 1e-7) |
                            (s.battery_mw > p.charge_rate_mw + 1e-7)):
        out.append(f"battery power at hour {h} = {s.battery_mw[h]} outside rate window")
    return out


def build_lp(params: DemandParams, day: DayInputs) -> tuple[LinearProgram, float]:
    """Assemble the daily LP over battery power ``b_0..b_23``, then stored
    energy above the minimum SOC ``s_1..s_24``.

    24 equality rows ``s_t - s_(t-1) - b_(t-1) = 0`` (``s_0 = 0``) carry the
    state.  Grid power is eliminated by the balance, so each hour's grid
    window is a bound on its battery power beside the rate window; each state
    runs from 0 to the SOC window.  Returns the LP and the constant cost term
    ``sum(price * (load - pv))`` that the LP objective omits.
    """
    h = HOURS_PER_DAY
    rows = np.zeros((h, 2 * h))
    rows[np.arange(h), np.arange(h)] = -1.0
    rows[np.arange(h), h + np.arange(h)] = 1.0
    rows[np.arange(1, h), h + np.arange(h - 1)] = -1.0
    cost, lower, upper, base_cost = _day_vectors(params, day)
    return LinearProgram(cost=cost, lower=lower, upper=upper, a_eq=rows, b_eq=np.zeros(h)), base_cost


def _day_vectors(params: DemandParams, day: DayInputs) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """What ``build_lp``'s program changes from day to day: the cost, the
    bounds, and the constant cost term.  Raises the infeasible-day error when
    an hour's grid and rate windows do not meet."""
    h = HOURS_PER_DAY
    eta = params.efficiency
    resid = day.load_mw - day.pv_mw
    lower = np.zeros(2 * h)
    upper = np.full(2 * h, params.soc_max_mwh - params.soc_min_mwh)
    lower[:h] = np.maximum(params.discharge_rate_mw, (params.grid_export_limit_mw - resid) / eta)
    upper[:h] = np.minimum(params.charge_rate_mw, (params.grid_import_limit_mw - resid) / eta)
    if (lower > upper).any():
        raise _infeasible(params, day)
    cost = np.zeros(2 * h)
    cost[:h] = eta * day.price
    return cost, lower, upper, float(day.price @ resid)


def _infeasible(params: DemandParams, day: DayInputs) -> DemandModelError:
    resid = day.load_mw - day.pv_mw
    idx = np.flatnonzero((resid > params.grid_import_limit_mw + 1e-9) |
                         (resid < params.grid_export_limit_mw - 1e-9))
    detail = f"; no-action grid power first leaves the window at hour {idx[0]}" if idx.size else ""
    return DemandModelError(f"day schedule infeasible{detail}")


def solve_day(params: DemandParams, day: DayInputs) -> DemandSchedule:
    """Minimise the day's grid energy bill; returns the optimal schedule.

    Feasibility is guaranteed whenever doing nothing is admissible, i.e.
    the no-battery grid power ``load - pv`` stays inside the grid window
    every hour.
    """
    return solve_days(params, [day])[0]


def solve_days(params: DemandParams, days: Sequence[DayInputs]) -> list[DemandSchedule]:
    """``solve_day`` for consecutive days, each LP started from the previous day's basis.

    The constraint matrix is the same every day, so it is built and checked
    once; each later day puts in only its cost and bounds.
    """
    out = []
    hint = template = None
    for day in days:
        if template is None:
            template, base_cost = build_lp(params, day)
            lp = template
        else:
            cost, lower, upper, base_cost = _day_vectors(params, day)
            lp = template.reinstance(cost=cost, lower=lower, upper=upper)
        sol = solve_lp(lp, basis_hint=hint)
        if sol.status == "infeasible":
            raise _infeasible(params, day)
        if not sol.is_optimal:
            raise DemandModelError(f"day schedule solver failure: status {sol.status}")
        hint = sol.basis_hint
        battery = sol.x[:HOURS_PER_DAY]
        # SOC and grid power are reconstructed from battery power, so the
        # recursion and balance identities hold exactly; the bounds hold to
        # solver feasibility tolerance.
        soc = params.soc_min_mwh + np.concatenate([[0.0], np.cumsum(battery)])
        grid = day.load_mw + params.efficiency * battery - day.pv_mw
        schedule = DemandSchedule(grid, battery, soc, cost=base_cost + sol.objective)
        problems = schedule_violations(schedule, params, day, tol=1e-6)
        if problems:
            raise DemandModelError("solver returned an invalid schedule: " + "; ".join(problems))
        out.append(schedule)
    return out


def conventional_baseline(day: DayInputs) -> DemandSchedule:
    """Schedule of a load with no demand-side resources.

    The battery never moves and PV is absent, so grid power equals the
    raw load and the bill is ``sum(price * load)``.
    """
    zeros = np.zeros(HOURS_PER_DAY)
    return DemandSchedule(
        grid_mw=day.load_mw.copy(),
        battery_mw=zeros,
        soc_mwh=np.zeros(HOURS_PER_DAY + 1),
        cost=float(day.price @ day.load_mw),
    )


def aggregate_nett_demand(schedules: Mapping[str, Sequence[DemandSchedule]],
                          start: datetime) -> dict[str, TimeSeries]:
    """Concatenate daily grid power into one hourly nett-demand series per region."""
    counts = {region: len(days) for region, days in schedules.items()}
    if not counts:
        raise DemandModelError("no schedules to aggregate")
    if len(set(counts.values())) != 1:
        raise DemandModelError(f"day-count mismatch across regions: {counts}")
    out = {}
    for region, days in schedules.items():
        values = np.concatenate([d.grid_mw for d in days])
        out[region] = TimeSeries(start, values, label=f"nett_demand_{region}")
    return out
