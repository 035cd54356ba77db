"""Output checks on one scenario, run outside the timed pass.

The energy balance runs on the in-memory dispatch results (see
``dispatch_file_gap`` for why).  The other checks read the files a user
would read, so a change that keeps the in-memory result but breaks what is
written still fails them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24
#: Relative tolerance of the system energy balance, per hour.
ENERGY_TOL = 1e-6
#: Tolerance handed to ``demand.schedule_violations``.
SCHEDULE_TOL = 1e-6


def digest(out_dir: Path) -> str:
    """SHA-256 over every emitted file, by relative name and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _series(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)


def energy_balance(nett_demand, result) -> list[str]:
    """Generation + unserved = nett demand + dumped, summed over regions, every hour.

    Checked on the in-memory result of ``dispatch.simulate_horizon``.
    """
    out = []
    for hd in result.hours:
        use = sum(float(ts.values[hd.hour]) for ts in nett_demand.values()) + sum(hd.dumped_mw.values())
        supply = sum(hd.output_mw.values()) + sum(hd.unserved_mw.values())
        err = abs(supply - use) / max(1.0, abs(use))
        if err > ENERGY_TOL:
            out.append(f"energy balance off by {err:.3e} (relative) at hour {hd.hour}")
    return out[:5]


def dispatch_file_gap(out_dir: Path, regions) -> tuple[int, float]:
    """Hours and MWh by which ``dispatch_hourly.csv`` misses the energy balance.

    The file has a column only for units committed in the first hour, so
    the output of units committed later is missing from it.
    """
    header, rows = _table(out_dir / "dispatch_hourly.csv")

    def columns(names):
        return rows[:, [header.index(name) for name in names]].sum(axis=1)

    nett = sum(_series(out_dir / f"nett_demand_{r}.csv") for r in regions)
    supply = (columns([name for name in header if name.startswith("gen_")])
              + columns([f"unserved_{r}" for r in regions]))
    gap = nett + columns([f"dumped_{r}" for r in regions]) - supply
    short = np.abs(gap) > ENERGY_TOL * np.maximum(1.0, np.abs(nett))
    return int(short.sum()), float(np.abs(gap[short]).sum())


def schedules(out_dir: Path, config) -> list[str]:
    """Every price-responsive day against ``demand.schedule_violations``.

    The start-of-day state of charge is not emitted; it is the minimum by
    construction and enters the check as such.
    """
    from gridstudy.demand import DayInputs, DemandSchedule, default_params, schedule_violations

    out = []
    if not config.has_demand_response:
        return out
    for region in config.demand_regions:
        header, rows = _table(out_dir / f"demand_{region}.csv")
        col = {name: rows[:, i] for i, name in enumerate(header)}
        spec = config.batteries[region]
        params = default_params(
            soc_min_mwh=spec.soc_min_mwh, soc_max_mwh=spec.soc_max_mwh,
            peak_load_mw=float(np.max(col["load"])),
            pv_capacity_mw=config.pv_capacity_mw[region],
            charge_rate_mw=spec.charge_rate_mw, discharge_rate_mw=spec.discharge_rate_mw,
            efficiency=spec.efficiency)
        for d in range(rows.shape[0] // HOURS_PER_DAY):
            day = slice(d * HOURS_PER_DAY, (d + 1) * HOURS_PER_DAY)
            inputs = DayInputs(col["price"][day], col["load"][day], col["pv"][day])
            schedule = DemandSchedule(col["p_g"][day], col["p_b"][day],
                                      np.concatenate([[spec.soc_min_mwh], col["soc"][day]]), 0.0)
            out += [f"{region} day {d}: {p}"
                    for p in schedule_violations(schedule, params, inputs, tol=SCHEDULE_TOL)]
    return out


def loadability(out_dir: Path, config) -> list[str]:
    """Every lambda* is NaN (degenerate hour) or lies in [1, lambda_max]."""
    header, rows = _table(out_dir / "loadability_hourly.csv")
    lam = rows[:, header.index("lambda_star")]
    lam_max = config.loadability.lambda_max
    bad = np.flatnonzero(~np.isnan(lam) & ((lam < 1.0) | (lam > lam_max)))
    return [f"lambda* {lam[h]!r} outside [1, {lam_max}] at hour {h}" for h in bad[:5]]


def check_scenario(out_dir: Path, config) -> list[str]:
    """Every problem found in one scenario's emitted files; empty when they are sound."""
    return schedules(out_dir, config) + loadability(out_dir, config)
