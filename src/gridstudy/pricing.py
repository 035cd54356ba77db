"""Day-ahead price signal baselines trained on historical plus simulated prices.

Features per hour (``feature_matrix``): the regional demand forecast,
hour-of-day, day-of-week, the limits of every interconnector, and the
available capacity of each (generator type, zone) group.  Two
interchangeable model kinds sit behind the same interface:

* ``ridge-linear``   -- regularised least squares on z-scored features,
  normal equations with an unpenalised intercept, weight 1e-3;
* ``nearest-neighbor`` -- the price of the closest stored exemplar in
  z-scored feature space (ties break to the earliest sample).

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
MODEL_KINDS = ("ridge-linear", "nearest-neighbor")

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
    kind: str
    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray  # mask over feature_names; constant features dropped
    dropped: tuple[str, ...]
    coef: Optional[np.ndarray] = None        # ridge: [weights..., intercept]
    exemplars: Optional[np.ndarray] = None   # nn: normalised rows
    prices: Optional[np.ndarray] = None      # nn: target per exemplar


def train_matrix(feature_names: tuple[str, ...], x: np.ndarray, y: np.ndarray,
                 kind: str = "ridge-linear") -> TrainedPredictor:
    """Fit a predictor of the requested kind on the rows of ``x`` and prices ``y``."""
    if kind not in MODEL_KINDS:
        raise PricingError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
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
    if kind == "ridge-linear" and n < 24:
        raise PricingError(f"ridge needs at least 24 samples, got {n}")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    kept = std > _STD_FLOOR
    if not np.any(kept) and kind == "ridge-linear":
        # Constant features carry nothing for a regression; the neighbour
        # model degenerates gracefully (all distances zero, earliest wins).
        raise PricingError("every feature is constant across the training set")
    feature_names = tuple(feature_names)
    dropped = tuple(name for name, k in zip(feature_names, kept) if not k)
    z = (x[:, kept] - mean[kept]) / std[kept]
    if kind == "ridge-linear":
        k = z.shape[1]
        a = np.hstack([z, np.ones((n, 1))])
        gram = a.T @ a
        gram[:k, :k] += RIDGE_WEIGHT * np.eye(k)  # intercept unpenalised
        coef = np.linalg.solve(gram, a.T @ y)
        return TrainedPredictor(kind, feature_names, mean, std, kept, dropped, coef=coef)
    return TrainedPredictor(kind, feature_names, mean, std, kept, dropped, exemplars=z, prices=y)


def _require_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN or infinite entries, naming the first row that has one."""
    finite = np.isfinite(values)
    if not finite.all():
        rows = finite.all(axis=1) if finite.ndim == 2 else finite
        raise PricingError(f"{what} are not finite at row {int(np.argmin(rows))}")


def _normalise(predictor: TrainedPredictor, rows: np.ndarray) -> np.ndarray:
    kept = predictor.kept
    return (rows[:, kept] - predictor.mean[kept]) / predictor.std[kept]


def predict_rows(predictor: TrainedPredictor, names: tuple[str, ...],
                 rows: np.ndarray) -> np.ndarray:
    """Predicted price for each row of ``rows``, whose columns are ``names``."""
    if names != predictor.feature_names:
        raise PricingError("feature names do not match the training features")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise PricingError(f"{len(names)} names for query rows of shape {rows.shape}")
    _require_finite(rows, "query rows")
    z = _normalise(predictor, rows)
    if predictor.kind == "ridge-linear":
        return z @ predictor.coef[:-1] + predictor.coef[-1]
    out = np.empty(z.shape[0])
    chunk = 512
    for i in range(0, z.shape[0], chunk):
        block = z[i:i + chunk]
        d2 = ((block[:, None, :] - predictor.exemplars[None, :, :]) ** 2).sum(axis=2)
        out[i:i + chunk] = predictor.prices[np.argmin(d2, axis=1)]
    return out


# -- plain-text persistence -------------------------------------------------

_MAGIC = "gridstudy-predictor v2"


def save_predictor(predictor: TrainedPredictor, path) -> None:
    lines = [_MAGIC, f"kind {predictor.kind}", f"features {len(predictor.feature_names)}"]
    for i, name in enumerate(predictor.feature_names):
        lines.append(f"f {name} {float(predictor.mean[i])!r} {float(predictor.std[i])!r} {int(predictor.kept[i])}")
    if predictor.kind == "ridge-linear":
        lines.append("coef " + " ".join(repr(float(c)) for c in predictor.coef))
    else:
        lines.append(f"exemplars {predictor.exemplars.shape[0]}")
        for row, price in zip(predictor.exemplars, predictor.prices):
            lines.append("e " + " ".join(repr(float(v)) for v in row) + f" -> {float(price)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_predictor(path) -> TrainedPredictor:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _MAGIC:
        raise PricingError(f"{path}: not a saved predictor")
    kind = lines[1].split(" ", 1)[1]
    n_features = int(lines[2].split(" ", 1)[1])
    names, mean, std, kept = [], [], [], []
    for line in lines[3:3 + n_features]:
        _, name, m, s, k = line.split(" ")
        names.append(name)
        mean.append(float(m))
        std.append(float(s))
        kept.append(bool(int(k)))
    rest = lines[3 + n_features:]
    mean, std, kept = np.array(mean), np.array(std), np.array(kept)
    dropped = tuple(n for n, k in zip(names, kept) if not k)
    if kind == "ridge-linear":
        coef = np.array([float(v) for v in rest[0].split(" ")[1:]])
        return TrainedPredictor(kind, tuple(names), mean, std, kept, dropped, coef=coef)
    count = int(rest[0].split(" ", 1)[1])
    exemplars, prices = [], []
    for line in rest[1:1 + count]:
        body = line[2:]
        feats, price = body.split(" -> ")
        exemplars.append([float(v) for v in feats.split(" ")])
        prices.append(float(price))
    return TrainedPredictor(kind, tuple(names), mean, std, kept, dropped,
                            exemplars=np.array(exemplars), prices=np.array(prices))
