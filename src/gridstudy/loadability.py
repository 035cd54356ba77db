"""Loadability: uniform small-step load scaling until power flow diverges.

For each operating point (hour), every load bus in the target region is
scaled by a factor that grows from 1 in fixed steps at constant power
factor.  The active-power increment is picked up by the participating
generator buses according to their factors (the slack absorbs losses).
The loadability of the hour is the last factor at which the power flow
still converges, one step before divergence.

The hourly operating points come as (hours x buses) arrays of load MW,
load MVAr and injected MW, with columns in ``BusNetwork.buses`` order.
A year of operating points is swept by batched Newton solves, in blocks.
Each batch holds, for every hour still scanning, its next
``max(hours, MIN_BATCH_ROWS) // hours still scanning`` grid steps (at
least one), so no batch has more than ``max(hours, MIN_BATCH_ROWS)`` rows
and the batches fill up with later steps as hours stop.  A short horizon
scans several steps per hour from the first batch on; a horizon of
``MIN_BATCH_ROWS`` hours or more starts with step 0 alone.  An hour stops
at the first step of a block that fails to converge; its later rows in
that block are discarded.  An hour's results do not depend on the other
hours or on the block it was solved in: any split of the hours gives the
same bits, one-hour splits included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from gridstudy.powerflow import BusNetwork, _Grid, _nr_batch

#: Default scaling step: 0.5% of the base regional load per step.
DEFAULT_STEP = 0.005
#: Safety cap on the scaling factor so a lightly loaded case cannot scan forever.
DEFAULT_LAMBDA_MAX = 10.0
#: Fewest rows a scan block aims for.  A Newton iteration of ``_nr_batch`` has
#: a fixed cost of about 147 us whatever the batch width (2 and 8 rows both
#: cost about 148 us), and a call runs until its last row ends, often on the
#: 20-iteration cap.  One step per hour would leave a short horizon with calls
#: of a few rows each; at 256 rows the fixed cost is under a tenth of an
#: iteration.  Horizons of this many hours or more start with one step per hour.
MIN_BATCH_ROWS = 256

#: ``(load_mw, load_mvar, injection_mw)``: (hours x buses) arrays for a sweep.
Points = tuple[np.ndarray, np.ndarray, np.ndarray]


class LoadabilityError(ValueError):
    pass


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
    step: float
    region: str

    @property
    def degenerate(self) -> np.ndarray:
        return ~np.isfinite(self.lambda_star)

    def __len__(self) -> int:
        return int(self.lambda_star.size)


def validate_scan(step: float, lambda_max: float) -> None:
    """Fail unless the factor grid ``1 + k * step`` rises (step > 0) and ``lambda_max`` >= 1."""
    if not step > 0:  # nan too
        raise LoadabilityError(f"step must be positive, got {step}")
    if not lambda_max >= 1:  # nan too
        raise LoadabilityError(f"lambda_max must be >= 1, got {lambda_max}")


def validate_shares(participation: Mapping[str, float]) -> dict[str, float]:
    """The participation factors as floats, if each is >= 0 and they sum to 1."""
    out = {}
    for bid, f in participation.items():
        if f < 0:
            raise LoadabilityError(f"participation factor for {bid!r} is negative")
        out[bid] = float(f)
    total = sum(out.values())
    if not abs(total - 1.0) <= 1e-9:  # nan too
        raise LoadabilityError(f"participation factors sum to {total!r}, expected 1")
    return out


def validate_participation(net: BusNetwork, participation: Mapping[str, float]) -> dict[str, float]:
    """The shares as floats, if they name generator buses of ``net`` and pass ``validate_shares``."""
    if not participation:
        raise LoadabilityError("participation factors must name at least one generator bus")
    index = {b.bus_id: b for b in net.buses}
    for bid in participation:
        if bid not in index:
            raise LoadabilityError(f"unknown participation bus {bid!r}")
        if index[bid].kind == "pq":
            raise LoadabilityError(f"participation bus {bid!r} is a load bus")
    return validate_shares(participation)


def compute_loadability(net: BusNetwork, region: str, participation: Mapping[str, float],
                        step: float = DEFAULT_STEP,
                        hours: Optional[Points] = None,
                        lambda_max: float = DEFAULT_LAMBDA_MAX) -> LoadabilityResult:
    """Scan the scaling factor upward per hour until power flow diverges.

    ``hours`` holds the (hours x buses) load and injection arrays (see
    ``Points``); when omitted the network's base loads form a single hour
    with no injections.  The factor grid is ``1 + k * step``; increments to
    slack-bus participation are ignored (the slack balances by construction).
    """
    validate_scan(step, lambda_max)
    shares = validate_participation(net, participation)
    grid = _Grid(net)
    n = grid.n
    if hours is None:
        hours = (np.array([[b.p_load_mw for b in net.buses]]),
                 np.array([[b.q_load_mvar for b in net.buses]]), np.zeros((1, n)))
    base_p, base_q, inj_p = (np.asarray(a, dtype=float) for a in hours)
    if base_p.ndim != 2 or not base_p.shape == base_q.shape == inj_p.shape == (len(base_p), n):
        raise LoadabilityError(
            f"operating points need (hours, {n}) arrays, one column per bus; got shapes "
            f"{base_p.shape}, {base_q.shape} and {inj_p.shape}")
    nh = len(base_p)
    region_ids = {b.bus_id for b in net.region_buses(region)}
    region_mask = np.array([b.bus_id in region_ids for b in net.buses])
    region_mask &= (base_p != 0).any(axis=0) | (base_q != 0).any(axis=0)
    pickup = np.array([0.0 if b.kind == "slack" else shares.get(b.bus_id, 0.0) for b in net.buses])

    region_base = np.sum(base_p[:, region_mask], axis=1)
    lam_star = np.full(nh, np.nan)
    served = np.full(nh, np.nan)
    region_load = np.full(nh, np.nan)
    min_v = np.full(nh, np.nan)
    active = np.arange(nh)
    k = 0
    while active.size:
        # The block's grid steps k, k + 1, ...: as many as keep the batch within
        # max(nh, MIN_BATCH_ROWS) rows.  The floor counts rows, not grid steps,
        # so memory stays bounded however small ``step`` is.
        lams = 1.0 + (k + np.arange(max(nh, MIN_BATCH_ROWS) // active.size)) * step
        lams = lams[lams <= lambda_max]
        nk = lams.size
        if nk == 0:
            break
        scale = np.ones((nk, n))
        scale[:, region_mask] = lams[:, None]
        # Rows are hour-major: row i * nk + j is hour active[i] at factor lams[j].
        p_load = (base_p[active][:, None] * scale).reshape(-1, n)
        q_load = (base_q[active][:, None] * scale).reshape(-1, n)
        increment = (lams - 1.0) * region_base[active][:, None]
        p_inj = (inj_p[active][:, None] + increment[:, :, None] * pickup).reshape(-1, n)
        p_sched, q_sched = grid.scheduled(p_load, q_load, p_inj, 0.0)
        vm, _, ok, _, _, _ = _nr_batch(grid, p_sched, q_sched)
        # An hour stops at its first failure: at k = 0 it is degenerate
        # (lambda_star stays NaN), later its last converged factor stands.
        # ``run`` counts an hour's converged steps before its first failure;
        # its rows after that failure are discarded.
        run = np.logical_and.accumulate(ok.reshape(-1, nk), axis=1).sum(axis=1)
        moved = run > 0
        rows = np.flatnonzero(moved) * nk + run[moved] - 1
        hrs = active[moved]
        lam_star[hrs] = lams[run[moved] - 1]
        served[hrs] = np.sum(p_load[rows], axis=1)
        region_load[hrs] = np.sum(p_load[rows][:, region_mask], axis=1)
        min_v[hrs] = np.min(vm[rows], axis=1)
        active = active[run == nk]
        k += nk
    return LoadabilityResult(
        lambda_star=lam_star,
        served_load_mw=served,
        region_load_mw=region_load,
        min_voltage_pu=min_v,
        step=step,
        region=region,
    )


def average_loadability(result: LoadabilityResult) -> float:
    """Mean over defined hours of the maximum served system load, in GW."""
    good = ~result.degenerate
    if not np.any(good):
        raise LoadabilityError("every hour is degenerate; no loadability defined")
    return float(np.mean(result.served_load_mw[good]) / 1000.0)
