"""Loadability: uniform small-step load scaling until power flow diverges.

For each operating point (hour), every load bus in the target region is
scaled by a factor on the grid ``1 + k * step`` at constant power factor.
The active-power increment is picked up by the participating generator
buses according to their factors (the slack absorbs losses).  The
loadability of the hour is the last factor at which the power flow still
converges, one step before divergence.

The hourly operating points come as (hours x buses) arrays of load MW,
load MVAr and injected MW, with columns in ``BusNetwork.buses`` order.
A year of operating points is swept through one Newton pool
(``powerflow._NewtonPool``) that holds one probe per hour still searching
its grid.  The base case starts flat and each later probe at the voltages
of the hour's highest converged index, as in a continuation power flow
(Ajjarapu & Christy, 1992).  The probes gallop (index 2 k + 4 after a
converged k, at most the last index under ``lambda_max``) until one fails,
then bisect until the highest converged and the lowest failing index are
adjacent (Bentley & Yao, 1976): under 2 log2(last index + 4) probes an
hour, where a flat scan solves every step.  The step below the lowest
failure, solved once more from a flat start, gives the flat scan's bits on
the study's hours; a re-solve that does not converge fails the sweep.  An
hour's results do not depend on the other hours or on the pool: any split
of the hours gives the same bits.

So a long horizon is split across processes: one per usable CPU while
each gets at least ``MIN_WORKER_HOURS`` hours.  Hour ``h`` goes to share
``h % workers``, so every share spans the whole horizon, whatever the
order of its seasons.  This process sweeps share 0 and each other share
runs in a child forked from it, which needs no re-import and no pickled
inputs: a fork took about 2 ms, while a fresh interpreter took 0.31-0.36 s
of CPU to import numpy and this module, about four times what its half
of a 336-hour sweep costs.  The children send back their results or their
exceptions through pipes and are reaped before the call returns, also when
it fails; on Linux a child also dies with the process that forked it.  With one
usable CPU, a short horizon or no ``os.fork`` the sweep runs here
alone.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from typing import Callable, Mapping, NoReturn

import numpy as np

from gridstudy.powerflow import BusNetwork, _Grid, _NewtonPool, _nr_batch

#: Default scaling step: 0.5% of the base regional load per step.
DEFAULT_STEP = 0.005
#: Safety cap on the scaling factor so a lightly loaded case cannot scan forever.
DEFAULT_LAMBDA_MAX = 10.0
#: Fewest hours per worker process of a sweep.  Each extra share costs 20-50 ms
#: more CPU, the fixed cost of its own pool's ~120 iterations at ~0.25 ms,
#: against 0.25 ms per hour swept: on a 2-vCPU Xeon, with scenario 5 year
#: hours, one process sweeping two interleaved shares of 48, 128 and 256 hours
#: took 1.78x, 1.39-1.52x and 1.13x the CPU of sweeping them as one (medians of
#: 11 rounds).  Forked in two, 2 x 128 hours took 0.94x the wall time and 1.7x
#: the CPU of one process, and the year's 2 x 4,380 hours 0.44x and 0.86x.
#: From 128 hours a share a fork no longer costs wall time.
MIN_WORKER_HOURS = 128

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
    """Fail unless the factor grid ``1 + k * step`` rises (1 + step > 1) to a
    finite ``lambda_max`` >= 1 in at most 2**62 steps: an infinite step makes
    every factor above 1 NaN, and an infinite ``lambda_max`` lets an hour that
    never collapses scan forever; the grid's indices are int64."""
    if not step > 0:  # nan too
        raise LoadabilityError(f"step must be positive, got {step}")
    if not lambda_max >= 1:  # nan too
        raise LoadabilityError(f"lambda_max must be >= 1, got {lambda_max}")
    if step == math.inf:
        raise LoadabilityError(f"step must be finite, got {step}")
    if lambda_max == math.inf:
        raise LoadabilityError(f"lambda_max must be finite, got {lambda_max}")
    if 1.0 + step == 1.0:
        raise LoadabilityError(f"step must be large enough that 1 + step > 1, got {step}")
    if not (lambda_max - 1.0) / step < 2.0**62:  # inf too; probes reach 2 * index + 4
        raise LoadabilityError(f"step must give at most 2**62 steps up to lambda_max "
                               f"{lambda_max}, got {step}")


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

    def sweep(rows):
        return _sweep(grid, region_mask, pickup, base_p[rows], base_q[rows], inj_p[rows],
                      step, lambda_max, np.arange(nh)[rows])

    workers = _worker_count(nh)
    out = sweep(slice(None)) if workers <= 1 else _sweep_forked(sweep, nh, workers)
    return LoadabilityResult(*out)


def _sweep(grid: _Grid, region_mask: np.ndarray, pickup: np.ndarray, base_p: np.ndarray,
           base_q: np.ndarray, inj_p: np.ndarray, step: float, lambda_max: float,
           hour_ids: np.ndarray) -> np.ndarray:
    """The scan of ``compute_loadability`` over the given hours (``hour_ids``
    in the horizon), in this process.

    Returns a (4 x hours) array: lambda*, served load, region load and minimum voltage.
    """
    nh = len(base_p)
    region_base = np.sum(base_p[:, region_mask], axis=1)

    def stressed(h, lam):
        """Load MW and scheduled injections (p.u.) of hours ``h`` at factors ``lam``."""
        scale = np.where(region_mask, lam[:, None], 1.0)
        p_load = base_p.take(h, axis=0) * scale
        p_inj = inj_p.take(h, axis=0) + ((lam - 1.0) * region_base[h])[:, None] * pickup
        return p_load, *grid.scheduled(p_load, base_q.take(h, axis=0) * scale, p_inj, 0.0)

    # Per hour: its highest converged grid index lo with that point's voltages,
    # and its lowest failing index hi (top + 1, the first index above lambda_max,
    # until a probe fails).  While hi - lo > 1 its probe in the pool is, from lo,
    # index 2 lo + 4 (at most top) until a probe fails and (lo + hi) // 2 after.
    top = int((lambda_max - 1.0) // step)
    while 1.0 + (top + 1) * step <= lambda_max:
        top += 1
    while 1.0 + top * step > lambda_max:
        top -= 1
    lo = np.full(nh, -1, dtype=np.int64)
    hi = np.full(nh, top + 1, dtype=np.int64)
    probe = np.zeros(nh, dtype=np.int64)
    vm_lo, va_lo = np.empty((2, nh, grid.n))
    pool = _NewtonPool(grid)
    pool.add(np.arange(nh), *stressed(np.arange(nh), np.ones(nh))[1:])
    while len(pool):
        h, vm, va, converged = pool.iterate()[:4]
        if not h.size:
            continue
        up, down = h[converged], h[~converged]
        at = converged.nonzero()[0]
        lo[up], vm_lo[up], va_lo[up] = probe[up], vm.take(at, axis=0), va.take(at, axis=0)
        hi[down] = probe[down]
        h = h[hi[h] - lo[h] > 1]
        if not h.size:
            continue
        probe[h] = np.where(hi[h] > top, np.minimum(2 * lo[h] + 4, top), (lo[h] + hi[h]) // 2)
        pool.add(h, *stressed(h, 1.0 + probe[h] * step)[1:],
                 start=(vm_lo.take(h, axis=0), va_lo.take(h, axis=0)))
    # lambda* is the factor at lo = hi - 1, or NaN (degenerate) when the base
    # case fails.  That point is solved once more from a flat start for its
    # voltages, as the flat scan solved it.
    out = np.full((4, nh), np.nan)
    lam_star, served, region_load, min_v = out
    ok = np.flatnonzero(hi > 0)
    lam_star[ok] = 1.0 + (hi[ok] - 1) * step
    p_load, p_sched, q_sched = stressed(ok, lam_star[ok])
    served[ok] = np.sum(p_load, axis=1)
    region_load[ok] = np.sum(p_load[:, region_mask], axis=1)
    vm, _, converged, _, _, cause = _nr_batch(grid, p_sched, q_sched)
    if not converged.all():
        k = int(np.argmin(converged))
        raise LoadabilityError(f"hour {hour_ids[ok[k]]}: the flat-start re-solve at lambda* "
                               f"{float(lam_star[ok[k]])!r} did not converge (cause {cause[k]})")
    min_v[ok] = np.min(vm, axis=1)
    return out


def _worker_count(hours: int) -> int:
    """Processes for a sweep of ``hours``: one per usable CPU while each gets at
    least ``MIN_WORKER_HOURS`` hours; one where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, hours // MIN_WORKER_HOURS))


#: ``prctl`` option that asks for a signal when the parent dies (linux/prctl.h).
_PR_SET_PDEATHSIG = 1


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker, as its text."""


def _sweep_forked(sweep: Callable[[slice], np.ndarray], nh: int, workers: int) -> np.ndarray:
    """``sweep`` over ``nh`` hours in ``workers`` processes, hour ``h`` in share ``h % workers``.

    This process sweeps share 0; each other share runs in a forked child that
    writes its (4 x share) float64 result, or its pickled exception, to a pipe.
    Every pipe is read to its end before any child is reaped: a year's share
    is larger than a pipe's buffer.  If this process fails first, the children
    are killed.  Either way every child is reaped before this returns.
    """
    out = np.empty((4, nh))
    fds, pids, messages = [], [], []
    parent = os.getpid()
    try:
        for i in range(1, workers):
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(sweep, slice(i, None, workers), write_fd, fds, parent)
                pids.append(pid)
            finally:
                os.close(write_fd)
        out[:, ::workers] = sweep(slice(0, None, workers))
        messages = [_read_to_end(fd) for fd in fds]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for i, (pid, status, message) in enumerate(zip(pids, statuses, messages), 1):
        share = out[:, i::workers]
        code = os.waitstatus_to_exitcode(status)
        if message[:1] == b"e" and code == 0:
            exc, text = pickle.loads(message[1:])
            raise exc from _WorkerTraceback(text)
        if message[:1] != b"r" or len(message) != 1 + share.nbytes or code != 0:
            raise RuntimeError(f"loadability worker {pid} exited with code {code} "
                               f"after writing {len(message)} of {1 + share.nbytes} bytes")
        share[:] = np.frombuffer(message, offset=1).reshape(share.shape)
    return out


def _worker(sweep: Callable[[slice], np.ndarray], rows: slice, write_fd: int,
            fds: list[int], parent: int) -> NoReturn:
    """In a child forked from ``parent``: write ``b"r"`` and the bytes of
    ``sweep(rows)``, or ``b"e"`` and the pickled exception with its traceback
    text, to ``write_fd``; then exit, with code 0 once the message is written.
    Never returns.

    Where the C library has ``prctl`` (Linux), the child is killed when the
    process that forked it dies, so a caller killed by a signal leaves no
    worker sweeping; elsewhere the worker runs until its share is done.
    """
    code = 1
    try:
        try:
            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        except AttributeError:
            pass
        if os.getppid() != parent:  # it died before the prctl
            return
        for fd in fds:
            os.close(fd)
        try:
            message = b"r" + sweep(rows).tobytes()
        except Exception as exc:
            message = b"e" + pickle.dumps((exc, traceback.format_exc()))
        with open(write_fd, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        os._exit(code)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def average_loadability(result: LoadabilityResult) -> float:
    """Mean over defined hours of the maximum served system load, in GW."""
    good = ~result.degenerate
    if not np.any(good):
        raise LoadabilityError("every hour is degenerate; no loadability defined")
    return float(np.mean(result.served_load_mw[good]) / 1000.0)
