"""Loadability: uniform small-step load scaling until power flow diverges.

For each operating point (hour), every load bus in the target region is
scaled by a factor that grows from 1 in fixed steps at constant power
factor.  The active-power increment is picked up by the participating
generator buses according to their factors (the slack absorbs losses).
The loadability of the hour is the last factor at which the power flow
still converges, one step before divergence.

The hourly operating points come as (hours x buses) arrays of load MW,
load MVAr and injected MW, with columns in ``BusNetwork.buses`` order.
A year of operating points is swept through one Newton pool
(``powerflow._NewtonPool``) of ``max(hours, MIN_BATCH_ROWS)`` rows.  Each
hour issues its grid steps in order, at most ``max(1, rows //
hours still scanning)`` of them in the pool at once, and refills its share
as its points leave, so the pool stays full while the hours scan at their
own pace.  An hour's loadability is the step before its lowest failing
step; when a step fails, the hour's steps above it leave the pool at once.
The last converged point of each hour is then solved once more for its
voltages.  An hour's results do not depend on the other hours or on the
pool: any split of the hours gives the same bits, one-hour splits
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from gridstudy.powerflow import BusNetwork, _Grid, _NewtonPool, _nr_batch

#: Default scaling step: 0.5% of the base regional load per step.
DEFAULT_STEP = 0.005
#: Safety cap on the scaling factor so a lightly loaded case cannot scan forever.
DEFAULT_LAMBDA_MAX = 10.0
#: Fewest rows of the sweep's Newton pool; a horizon of more hours gets a row
#: per hour.  A pool iteration has a fixed cost of about 0.35 ms, some 90 rows'
#: worth, so 1,024 rows keep it under a tenth; the Newton step's temporaries
#: take about 2.3 kB per row, and 2,048 rows were no faster.
MIN_BATCH_ROWS = 1024

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
                        hours: Points, step: float = DEFAULT_STEP,
                        lambda_max: float = DEFAULT_LAMBDA_MAX) -> LoadabilityResult:
    """Scan the scaling factor upward per hour until power flow diverges.

    ``hours`` holds the (hours x buses) load and injection arrays (see
    ``Points``).  The factor grid is ``1 + k * step``; increments to
    slack-bus participation are ignored (the slack balances by construction).
    """
    validate_scan(step, lambda_max)
    shares = validate_participation(net, participation)
    grid = _Grid(net)
    n = grid.n
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

    def stressed(h, lam):
        """Load MW and scheduled injections (p.u.) of hours ``h`` at factors ``lam``."""
        scale = np.where(region_mask, lam[:, None], 1.0)
        p_load = base_p[h] * scale
        p_inj = inj_p[h] + ((lam - 1.0) * region_base[h])[:, None] * pickup
        return p_load, *grid.scheduled(p_load, base_q[h] * scale, p_inj, 0.0)

    # Per hour: the next grid step to issue, its steps in the pool, and its lowest
    # failing step (the first step above lambda_max counts as failing).  An hour
    # still scans while it has steps to issue or steps in the pool.
    width = max(nh, MIN_BATCH_ROWS)
    issued = np.zeros(nh, dtype=np.int64)
    in_pool = np.zeros(nh, dtype=np.int64)
    first_fail = np.full(nh, np.iinfo(np.int64).max)
    pool = _NewtonPool(grid)
    while scanning := np.count_nonzero((issued < first_fail) | (in_pool > 0)):
        share = max(1, width // scanning)
        more = np.maximum(np.minimum(share - in_pool, first_fail - issued), 0)
        hrs = np.flatnonzero(more)
        h = np.repeat(hrs, more[hrs])  # hour hrs[i] takes its next more[hrs[i]] steps
        k = issued[h] + np.arange(h.size) - np.repeat(np.cumsum(more[hrs]) - more[hrs], more[hrs])
        issued += more
        lam = 1.0 + k * step
        over = lam > lambda_max
        np.minimum.at(first_fail, h[over], k[over])
        h, k, lam = h[~over], k[~over], lam[~over]
        in_pool += np.bincount(h, minlength=nh)
        pool.add(k * nh + h, *stressed(h, lam)[1:])
        tag, _, _, converged = pool.iterate()[:4]
        in_pool -= np.bincount(tag % nh, minlength=nh)
        np.minimum.at(first_fail, tag[~converged] % nh, tag[~converged] // nh)
        # An hour's steps above its lowest failure leave the pool at once.
        above = pool.tag // nh > first_fail[pool.tag % nh]
        in_pool -= np.bincount(pool.tag[above] % nh, minlength=nh)
        pool.keep(~above)
    # Every step below an hour's first failure converged; lambda* is the last of
    # them, or NaN (degenerate) when the base case fails.  That point is solved
    # once more for its voltages, which come out as the same bits: a point's
    # results do not depend on the points solved with it.
    lam_star, served, region_load, min_v = np.full((4, nh), np.nan)
    ok = np.flatnonzero(first_fail > 0)
    lam_star[ok] = 1.0 + (first_fail[ok] - 1) * step
    p_load, p_sched, q_sched = stressed(ok, lam_star[ok])
    served[ok] = np.sum(p_load, axis=1)
    region_load[ok] = np.sum(p_load[:, region_mask], axis=1)
    min_v[ok] = np.min(_nr_batch(grid, p_sched, q_sched)[0], axis=1)
    return LoadabilityResult(
        lambda_star=lam_star,
        served_load_mw=served,
        region_load_mw=region_load,
        min_voltage_pu=min_v,
    )


def average_loadability(result: LoadabilityResult) -> float:
    """Mean over defined hours of the maximum served system load, in GW."""
    good = ~result.degenerate
    if not np.any(good):
        raise LoadabilityError("every hour is degenerate; no loadability defined")
    return float(np.mean(result.served_load_mw[good]) / 1000.0)
