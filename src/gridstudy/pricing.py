"""Day-ahead price signal trained on historical plus simulated prices.

Features per hour (``feature_matrix``): the regional demand forecast,
hour-of-day, day-of-week, the limits of every interconnector, and the
available capacity of each (generator type, zone) group.  The price model
is ridge regression: regularised least squares on z-scored features,
normal equations with an unpenalised intercept, weight 1e-3.

Constant features carry no information and are dropped at training time
(recorded on the predictor).  Everything is deterministic for a fixed
training set.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from gridstudy.dispatch import Generator, Interconnector
from gridstudy.timeseries import TimeSeries

RIDGE_WEIGHT = 1e-3

_STD_FLOOR = 1e-12


class PricingError(ValueError):
    pass


def feature_matrix(fleet: Sequence[Generator], lines: Sequence[Interconnector],
                   availabilities: Mapping[str, TimeSeries],
                   demand: TimeSeries) -> tuple[tuple[str, ...], np.ndarray]:
    """Feature names and one row per hour of ``demand``.

    Calendar features follow the series' own start.  Line features carry
    both limits of every interconnector; capacity features are available MW
    summed per (type, zone), renewables derated by their availability
    series in ``availabilities``.
    """
    n = len(demand)
    hours = np.arange(n)
    start = demand.start
    hour_of_day = (hours + start.hour) % 24
    day_of_week = ((hours + start.hour) // 24 + start.weekday()) % 7
    names = ["demand_mw", "hour_of_day", "day_of_week"]
    cols = [demand.values, hour_of_day.astype(float), day_of_week.astype(float)]
    limits = {line.name: (line.forward_limit_mw, line.reverse_limit_mw) for line in lines}
    for line_name in sorted(limits):
        fwd, rev = limits[line_name]
        names += [f"line:{line_name}:forward", f"line:{line_name}:reverse"]
        cols += [np.full(n, fwd), np.full(n, rev)]
    groups: dict[tuple[str, str], np.ndarray] = {}
    for gen in fleet:
        if gen.is_renewable:
            contribution = gen.capacity_mw * availabilities[gen.name].values
        else:
            contribution = np.full(n, gen.capacity_mw)
        key = (gen.gtype, gen.zone)
        groups[key] = groups.get(key, 0.0) + contribution
    for gtype, zone in sorted(groups):
        names.append(f"capacity:{gtype}:{zone}")
        cols.append(groups[(gtype, zone)])
    return tuple(names), np.column_stack(cols)


@dataclass(frozen=True)
class TrainedPredictor:
    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray  # mask over feature_names; constant features dropped
    dropped: tuple[str, ...]
    coef: np.ndarray  # [weights of the kept features..., intercept]


def train_matrix(feature_names: tuple[str, ...], x: np.ndarray,
                 y: np.ndarray) -> TrainedPredictor:
    """Fit the ridge model on the rows of ``x`` and prices ``y``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise PricingError(f"features of shape {x.shape} need one price per row, "
                           f"got prices of shape {y.shape}")
    n = x.shape[0]
    if n == 0:
        raise PricingError("training set is empty")
    if x.shape[1] != len(feature_names):
        raise PricingError(f"{len(feature_names)} names for {x.shape[1]} feature columns")
    _require_finite(x, "training features")
    _require_finite(y, "training prices")
    if n < 24:
        raise PricingError(f"ridge needs at least 24 samples, got {n}")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    kept = std > _STD_FLOOR
    if not np.any(kept):
        raise PricingError("every feature is constant across the training set")
    feature_names = tuple(feature_names)
    dropped = tuple(name for name, k in zip(feature_names, kept) if not k)
    z = (x[:, kept] - mean[kept]) / std[kept]
    k = z.shape[1]
    a = np.hstack([z, np.ones((n, 1))])
    gram = a.T @ a
    gram[:k, :k] += RIDGE_WEIGHT * np.eye(k)  # intercept unpenalised
    coef = np.linalg.solve(gram, a.T @ y)
    return TrainedPredictor(feature_names, mean, std, kept, dropped, coef)


def _require_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN or infinite entries, naming the first row that has one."""
    finite = np.isfinite(values)
    if not finite.all():
        rows = finite.all(axis=1) if finite.ndim == 2 else finite
        raise PricingError(f"{what} are not finite at row {int(np.argmin(rows))}")


def predict_rows(predictor: TrainedPredictor, names: tuple[str, ...],
                 rows: np.ndarray) -> np.ndarray:
    """Predicted price for each row of ``rows``, whose columns are ``names``."""
    if names != predictor.feature_names:
        raise PricingError("feature names do not match the training features")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise PricingError(f"{len(names)} names for query rows of shape {rows.shape}")
    _require_finite(rows, "query rows")
    kept = predictor.kept
    z = (rows[:, kept] - predictor.mean[kept]) / predictor.std[kept]
    return z @ predictor.coef[:-1] + predictor.coef[-1]


# -- plain-text persistence -------------------------------------------------

_MAGIC = "gridstudy-predictor v2"
_KIND = "kind ridge-linear"  # kept so that files stay in the v2 format


def save_predictor(predictor: TrainedPredictor, path) -> None:
    lines = [_MAGIC, _KIND, f"features {len(predictor.feature_names)}"]
    for i, name in enumerate(predictor.feature_names):
        lines.append(f"f {name} {float(predictor.mean[i])!r} {float(predictor.std[i])!r} {int(predictor.kept[i])}")
    lines.append("coef " + " ".join(repr(float(c)) for c in predictor.coef))
    Path(path).write_text("\n".join(lines) + "\n")


def load_predictor(path) -> TrainedPredictor:
    """Read a file written by ``save_predictor``; a ``PricingError`` naming the
    file rejects anything else."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise PricingError(f"{path}: not a saved predictor")
    if lines[1:2] != [_KIND]:
        raise PricingError(f"{path}: line 2 is not {_KIND!r}")

    def fields(i: int, key: str, count: Optional[int] = None) -> list[str]:
        words = lines[i].split(" ") if 0 <= i < len(lines) else []
        if words[:1] != [key] or (count is not None and len(words) != count + 1):
            raise PricingError(f"{path}: line {i + 1} is not a {key!r} line")
        return words[1:]

    def number(text: str, kind=float):
        try:
            return kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise PricingError(f"{path}: not {what}: {text!r}") from None

    n_features = number(fields(2, "features", 1)[0], int)
    rows = [fields(3 + i, "f", 4) for i in range(n_features)]
    names = tuple(name for name, _, _, _ in rows)
    mean = np.array([number(m) for _, m, _, _ in rows])
    std = np.array([number(s) for _, _, s, _ in rows])
    kept = np.array([bool(number(k, int)) for _, _, _, k in rows], dtype=bool)
    coef = np.array([number(c) for c in fields(3 + n_features, "coef")])
    if len(coef) != int(kept.sum()) + 1:
        raise PricingError(f"{path}: {len(coef)} coefficients for {int(kept.sum())} kept features")
    dropped = tuple(n for n, k in zip(names, kept) if not k)
    return TrainedPredictor(names, mean, std, kept, dropped, coef)
