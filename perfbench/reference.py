"""A fixed reference computation that measures how fast the host is right now.

The benchmark runs on a shared host whose speed drifts by up to 2x over
minutes.  Timing this computation next to each timed scenario, in the same
process, and dividing the scenario's time by it cancels most of that drift;
``scale`` then expresses the ratio in seconds on a host where one unit takes
``REF_UNIT_S``.  The computation mixes the kinds of work the pipeline does:
parsing ``timestamp,value`` CSV text, short numpy operations driven from a
Python loop (as the simplex pivots are) and batched linear solves (as the
Newton steps are, there on real Jacobians).  It depends on nothing in
``src/``, so a change to the program cannot change it.
"""

from __future__ import annotations

import csv
import io
import time
from datetime import datetime

import numpy as np

#: Seconds one unit took on the host the benchmark was defined on (2 vCPUs, Xeon).
REF_UNIT_S = 0.1
#: Units per measurement; their mean is reported.
UNITS = 3

_rng = np.random.default_rng(12345)
_CSV = "timestamp,value\n" + "".join(
    f"2021-01-{1 + h // 24 % 28:02d}T{h % 24:02d}:00:00,{v:.6f}\n"
    for h, v in enumerate(_rng.uniform(0.0, 1000.0, 24000)))
_A = _rng.standard_normal((40, 30))
_X = _rng.standard_normal(30)
_J = (_rng.standard_normal((48, 24, 24)) + 1j * _rng.standard_normal((48, 24, 24))
      + 24 * np.eye(24))
_F = _rng.standard_normal((48, 24, 1)) + 0j


def unit() -> float:
    """Run the reference computation once; return its wall seconds."""
    t0 = time.perf_counter()
    rows = csv.reader(io.StringIO(_CSV))
    next(rows)
    hours = total = 0
    for row in rows:
        hours += datetime.fromisoformat(row[0]).hour >= 0
        total += float(row[1])
    x = _X.copy()
    for k in range(3600):
        r = _A @ x
        x[k % 30] += 1e-3 * r[int(np.argmin(r))]
    for _ in range(50):
        np.linalg.solve(_J, _F)
    assert hours == 24000 and total > 0 and np.isfinite(x).all()
    return time.perf_counter() - t0


def measure() -> float:
    """Mean wall seconds of ``UNITS`` reference units."""
    return sum(unit() for _ in range(UNITS)) / UNITS


def scale(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while one unit took ``ref_s``, at ``REF_UNIT_S`` per unit."""
    return seconds * REF_UNIT_S / ref_s
