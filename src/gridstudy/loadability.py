"""Loadability: uniform small-step load scaling until power flow diverges.

For each operating point (hour), every load bus in the target region is
scaled by a factor that grows from 1 in fixed steps at constant power
factor.  The active-power increment is picked up by the participating
generator buses according to their factors (the slack absorbs losses).
The loadability of the hour is the last factor at which the power flow
still converges, one step before divergence.

All hours advance through the factor grid in lockstep, so a year of
operating points is swept by batched Newton solves.  Scanning an hour on its
own solves the same equations, and its voltages differ from the batched
ones by about one ulp (see ``powerflow``); a convergence result near the
tolerance could in principle flip on that difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from gridstudy.powerflow import (
    BusNetwork,
    PowerFlowError,
    _Grid,
    _nr_batch,
    scale_loads,
    solve_power_flow,
)

#: Default scaling step: 0.5% of the base regional load per step.
DEFAULT_STEP = 0.005
#: Safety cap on the scaling factor so a lightly loaded case cannot scan forever.
DEFAULT_LAMBDA_MAX = 10.0


class LoadabilityError(ValueError):
    pass


@dataclass(frozen=True)
class OperatingPoint:
    """Bus loads and generator injections (MW / MVAr) for one hour.

    Buses absent from ``loads`` keep the network's base load; ``injections``
    add generation at (typically PV) buses.
    """

    loads: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    injections: Mapping[str, tuple[float, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class LoadabilityResult:
    """Per-hour maximum scaling factors and served loads.

    Hours whose base case (factor 1) fails to converge are degenerate:
    their entries are NaN and they are excluded from averages.
    """

    lambda_star: np.ndarray
    served_load_mw: np.ndarray
    region_load_mw: np.ndarray
    min_voltage_pu: np.ndarray
    base_min_voltage_pu: np.ndarray
    step: float
    region: str

    @property
    def degenerate(self) -> np.ndarray:
        return ~np.isfinite(self.lambda_star)

    def __len__(self) -> int:
        return int(self.lambda_star.size)


def _validate_participation(net: BusNetwork, participation: Mapping[str, float]) -> dict[str, float]:
    if not participation:
        raise LoadabilityError("participation factors must name at least one generator bus")
    index = {b.bus_id: b for b in net.buses}
    out = {}
    for bid, f in participation.items():
        if bid not in index:
            raise LoadabilityError(f"unknown participation bus {bid!r}")
        if index[bid].kind == "pq":
            raise LoadabilityError(f"participation bus {bid!r} is a load bus")
        if f < 0:
            raise LoadabilityError(f"participation factor for {bid!r} is negative")
        out[bid] = float(f)
    total = sum(out.values())
    if abs(total - 1.0) > 1e-9:
        raise LoadabilityError(f"participation factors sum to {total!r}, expected 1")
    return out


def compute_loadability(net: BusNetwork, region: str, participation: Mapping[str, float],
                        step: float = DEFAULT_STEP,
                        hours: Optional[Sequence[OperatingPoint]] = None,
                        lambda_max: float = DEFAULT_LAMBDA_MAX) -> LoadabilityResult:
    """Scan the scaling factor upward per hour until power flow diverges.

    ``hours`` supplies one operating point per hour; when omitted the
    network's base loads form a single hour.  The factor grid is
    ``1 + k * step``; increments to slack-bus participation are ignored
    (the slack balances by construction).
    """
    if step <= 0:
        raise LoadabilityError(f"step must be positive, got {step}")
    shares = _validate_participation(net, participation)
    region_bus_ids = [b.bus_id for b in net.region_buses(region)]
    if hours is None:
        hours = [OperatingPoint()]
    grid = _Grid(net)
    n = grid.n
    nh = len(hours)
    index = {b.bus_id: i for i, b in enumerate(net.buses)}
    base_p = np.tile([b.p_load_mw for b in net.buses], (nh, 1))
    base_q = np.tile([b.q_load_mvar for b in net.buses], (nh, 1))
    inj_p = np.zeros((nh, n))
    inj_q = np.zeros((nh, n))
    for h, op in enumerate(hours):
        for bid, (p, q) in op.loads.items():
            if bid not in index:
                raise PowerFlowError(f"hour {h}: unknown bus {bid!r} in loads")
            base_p[h, index[bid]] = p
            base_q[h, index[bid]] = q
        for bid, (p, q) in op.injections.items():
            if bid not in index:
                raise PowerFlowError(f"hour {h}: unknown bus {bid!r} in injections")
            inj_p[h, index[bid]] = p
            inj_q[h, index[bid]] = q
    region_mask = np.zeros(n, dtype=bool)
    for bid in region_bus_ids:
        region_mask[index[bid]] = True
    region_mask &= (base_p != 0).any(axis=0) | (base_q != 0).any(axis=0)
    pickup = np.zeros(n)
    for bid, f in shares.items():
        if index[bid] != grid.slack:
            pickup[index[bid]] = f

    lam_star = np.full(nh, np.nan)
    served = np.full(nh, np.nan)
    region_load = np.full(nh, np.nan)
    min_v = np.full(nh, np.nan)
    base_min_v = np.full(nh, np.nan)
    active = np.arange(nh)
    k = 0
    while active.size:
        lam = 1.0 + k * step
        if lam > lambda_max:
            break
        scale = np.ones(n)
        scale[region_mask] = lam
        p_load = base_p[active] * scale
        q_load = base_q[active] * scale
        increment = (lam - 1.0) * np.sum(base_p[active][:, region_mask], axis=1)
        p_inj = inj_p[active] + increment[:, None] * pickup
        p_sched, q_sched = grid.scheduled(p_load, q_load, p_inj, inj_q[active])
        vm, va, conv, _, _, _ = _nr_batch(grid, p_sched, q_sched)
        ok = conv
        idx_ok = active[ok]
        if idx_ok.size:
            lam_star[idx_ok] = lam
            served[idx_ok] = np.sum(p_load[ok], axis=1)
            region_load[idx_ok] = np.sum(p_load[ok][:, region_mask], axis=1)
            min_v[idx_ok] = np.min(vm[ok], axis=1)
            if k == 0:
                base_min_v[idx_ok] = np.min(vm[ok], axis=1)
        # Hours that fail stop scanning: at k = 0 they are degenerate
        # (lambda_star stays NaN), later their last converged factor stands.
        active = active[ok]
        k += 1
    return LoadabilityResult(
        lambda_star=lam_star,
        served_load_mw=served,
        region_load_mw=region_load,
        min_voltage_pu=min_v,
        base_min_voltage_pu=base_min_v,
        step=step,
        region=region,
    )


def stressed_network(net: BusNetwork, region: str, participation: Mapping[str, float],
                     op: OperatingPoint, lam: float) -> tuple[BusNetwork, dict[str, tuple[float, float]]]:
    """Network and injections for one hour at scaling factor ``lam``.

    Used to re-verify the bracketing invariant with the plain solver:
    power flow converges at the hour's loadability and fails one step above.
    """
    shares = _validate_participation(net, participation)
    scoped = net.with_loads(dict(op.loads)) if op.loads else net
    base_region = sum(b.p_load_mw for b in scoped.region_buses(region) if b.has_load)
    stressed = scale_loads(scoped, region, lam) if lam > 1.0 else scoped
    slack_id = next(b.bus_id for b in net.buses if b.kind == "slack")
    increment = (lam - 1.0) * base_region
    injections = {bid: (p, q) for bid, (p, q) in op.injections.items()}
    for bid, f in shares.items():
        if bid == slack_id:
            continue
        p0, q0 = injections.get(bid, (0.0, 0.0))
        injections[bid] = (p0 + f * increment, q0)
    return stressed, injections


def verify_bracket(net: BusNetwork, region: str, participation: Mapping[str, float],
                   op: OperatingPoint, lam_star: float, step: float) -> tuple[bool, bool]:
    """(converges at lam_star, converges at lam_star + step) via the plain solver."""
    at, inj_at = stressed_network(net, region, participation, op, lam_star)
    above, inj_above = stressed_network(net, region, participation, op, lam_star + step)
    return (solve_power_flow(at, inj_at).converged,
            solve_power_flow(above, inj_above).converged)


def average_loadability(result: LoadabilityResult) -> float:
    """Mean over defined hours of the maximum served system load, in GW."""
    good = ~result.degenerate
    if not np.any(good):
        raise LoadabilityError("every hour is degenerate; no loadability defined")
    return float(np.mean(result.served_load_mw[good]) / 1000.0)
