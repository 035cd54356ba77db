"""Bundled synthetic study data: a documented, seeded generation recipe.

One non-leap year (8760 hours) of hourly data for four demand regions plus
a zero-demand transit region:

* demand      -- region base level x seasonal shape (summer peak, winter
  bump) x weekday factor x double-peaked daily shape, modulated by one
  shared AR(1) noise stream (regions peak together) plus a small
  region-local stream;
* rooftop PV  -- a daylight bell whose width follows the season, scaled by
  an AR(1) cloud factor per day;
* field solar -- the same family with a flat top (oversized collector);
* wind        -- a squashed AR(1) random walk, floored so output never
  quite dies;
* historical year -- the same recipes re-seeded and scaled slightly down,
  with prices from a documented stack-shaped function of system demand.

The companion network is a five-area chain (two generator buses in the
loadability target region) sized so the base case solves comfortably every
hour while the target region collapses within a small scaling factor.
Everything is deterministic in the seed.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from gridstudy.powerflow import Branch, Bus, BusNetwork, write_network
from gridstudy.timeseries import (
    HOURS_PER_YEAR,
    SYNTHETIC_YEAR_START,
    TimeSeries,
    write_timeseries_csv,
)

DEFAULT_SEED = 20210101

#: Mean regional demand levels (MW).
DEMAND_BASE_MW = {"QLD": 5200.0, "NSW": 8000.0, "VIC": 4300.0, "SA": 1700.0}
#: Load power factor used when splitting demand onto network buses.
LOAD_POWER_FACTOR = 0.95
#: tan(acos(pf)): reactive load accompanying each MW of active load.
LOAD_TAN_PHI = float(np.tan(np.arccos(LOAD_POWER_FACTOR)))

_HOURS = np.arange(HOURS_PER_YEAR)
_HOUR_OF_DAY = _HOURS % 24
_DAY = _HOURS // 24
_DOW = (_DAY + 4) % 7  # the synthetic year starts on a Friday


def _ar1(rng, n, rho, sigma):
    eps = rng.normal(0.0, sigma, n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = rho * acc + eps[i]
        out[i] = acc
    return out


def _seasonal():
    return 1.0 + 0.12 * np.cos(2 * np.pi * (_DAY - 22) / 365.0) \
               + 0.05 * np.cos(4 * np.pi * (_DAY - 10) / 365.0)


def _daily():
    # double peak: late-afternoon main peak, morning shoulder, night trough
    return 1.0 + 0.22 * np.cos(2 * np.pi * (_HOUR_OF_DAY - 17.5) / 24.0) \
               + 0.09 * np.cos(4 * np.pi * (_HOUR_OF_DAY - 8.5) / 24.0)


def _weekday():
    return np.where(_DOW >= 5, np.where(_DOW == 6, 0.90, 0.94), 1.0)


def demand_year(region: str, seed: int, scale: float = 1.0) -> TimeSeries:
    """Hourly demand for one region; the shared noise stream peaks regions together."""
    shared = np.clip(1.0 + _ar1(np.random.default_rng(seed), HOURS_PER_YEAR, 0.85, 0.006), 0.9, 1.1)
    local_rng = np.random.default_rng(seed + zlib.crc32(region.encode()) % 100000)
    local = np.clip(1.0 + _ar1(local_rng, HOURS_PER_YEAR, 0.7, 0.003), 0.95, 1.05)
    values = DEMAND_BASE_MW[region] * scale * _seasonal() * _daily() * _weekday() * shared * local
    return TimeSeries(SYNTHETIC_YEAR_START, values, label=f"demand_{region}")


def _daylight_bell(width_scale: float = 1.0, shape: float = 1.2) -> np.ndarray:
    width = (9.4 + 2.0 * np.cos(2 * np.pi * (_DAY - 10) / 365.0)) * width_scale
    phase = (_HOUR_OF_DAY - 12.5) / width
    bell = np.where(np.abs(phase) < 0.5, np.cos(np.pi * phase), 0.0)
    return np.maximum(bell, 0.0) ** shape


def _cloud_factor(seed: int, rho: float, sigma: float, lo: float, hi: float) -> np.ndarray:
    daily = np.clip(0.80 + _ar1(np.random.default_rng(seed), 365, rho, sigma), lo, hi)
    return np.repeat(daily, 24)


def pv_availability(region: str, seed: int) -> TimeSeries:
    """Rooftop PV output per unit of installed capacity."""
    cloud = _cloud_factor(seed + zlib.crc32(region.encode()) % 100000, 0.55, 0.16, 0.15, 0.98)
    values = np.clip(_daylight_bell() * cloud, 0.0, 1.0)
    return TimeSeries(SYNTHETIC_YEAR_START, values, label=f"pv_{region}")


def field_solar_availability(zone: str, seed: int) -> TimeSeries:
    """Solar-field availability (flat-topped; collector oversized by 1.9)."""
    cloud = np.clip(_cloud_factor(seed + zlib.crc32(zone.encode()) % 100000, 0.45, 0.12, 0.45, 1.0) + 0.06, 0.0, 1.0)
    values = np.clip(1.9 * _daylight_bell(1.2), 0.0, 1.0) * cloud
    return TimeSeries(SYNTHETIC_YEAR_START, values, label=f"solar_{zone}")


def wind_availability(zone: str, seed: int) -> TimeSeries:
    """Wind output per unit of capacity, floored at 0.15."""
    x = _ar1(np.random.default_rng(seed + zlib.crc32(zone.encode()) % 100000), HOURS_PER_YEAR, 0.97, 0.22)
    values = 0.15 + 0.81 / (1.0 + np.exp(-0.9 * (x - 1.05)))
    return TimeSeries(SYNTHETIC_YEAR_START, np.clip(values, 0.15, 0.96), label=f"wind_{zone}")


def historical_price(system_demand: np.ndarray, seed: int, offset: float) -> np.ndarray:
    """Stack-shaped price: demand quantile mapped onto typical marginal costs."""
    lo, hi = float(system_demand.min()), float(system_demand.max())
    frac = (system_demand - lo) / (hi - lo)
    price = np.interp(frac, [0.0, 0.35, 0.6, 0.8, 0.93, 1.0],
                      [21.0, 24.5, 27.5, 31.5, 45.0, 80.0])
    noise = _ar1(np.random.default_rng(seed), system_demand.size, 0.6, 1.2)
    return np.maximum(price + noise + offset, 5.0)


def study_network() -> BusNetwork:
    """Five-area chain network, per-unit on 10 GVA.

    The loadability target region (QLD) has two generator buses so
    participation factors are meaningful, and its branches are reactive
    enough that scaling its load collapses the power flow within a small
    factor while every base case stays healthy.
    """
    buses = (
        Bus("sh_gen", "slack", 0.0, 0.0, 1.03, "SH", ("SHPS_1",)),
        Bus("nsw_gen", "pv", 0.0, 0.0, 1.02, "NSW", ("BPS_2", "MPS_2", "VPS_2", "EPS_2")),
        Bus("nsw_load_n", "pq", 4400.0, 1446.2, 1.0, "NSW"),
        Bus("nsw_load_s", "pq", 3600.0, 1183.3, 1.0, "NSW"),
        Bus("vic_gen", "pv", 0.0, 0.0, 1.02, "VIC", ("YPS_3", "LPS_3")),
        Bus("vic_load", "pq", 4300.0, 1413.3, 1.0, "VIC"),
        Bus("qld_gen", "pv", 0.0, 0.0, 1.02, "QLD", ("CPS_4", "GPS_4", "SPS_4", "TPS_4")),
        Bus("qld_csp", "pv", 0.0, 0.0, 1.01, "QLD", ("CSP_4A", "CSP_4B")),
        Bus("qld_load", "pq", 5200.0, 1709.2, 1.0, "QLD"),
        Bus("sa_gen", "pv", 0.0, 0.0, 1.01, "SA", ("NPS_5", "PPS_5", "TPS_5", "WF_5")),
        Bus("sa_load", "pq", 1700.0, 558.8, 1.0, "SA"),
    )
    branches = (
        Branch("qld_gen", "qld_load", 0.03, 0.62, 0.02),
        Branch("qld_csp", "qld_load", 0.035, 0.74, 0.02),
        Branch("qld_load", "nsw_load_n", 0.04, 0.88, 0.02),
        Branch("nsw_gen", "nsw_load_n", 0.006, 0.11, 0.02),
        Branch("nsw_gen", "nsw_load_s", 0.007, 0.13, 0.02),
        Branch("nsw_load_n", "nsw_load_s", 0.004, 0.08, 0.02),
        Branch("nsw_load_s", "sh_gen", 0.01, 0.2, 0.02),
        Branch("sh_gen", "vic_load", 0.011, 0.21, 0.02),
        Branch("vic_gen", "vic_load", 0.007, 0.13, 0.02),
        Branch("vic_load", "sa_load", 0.016, 0.3, 0.02),
        Branch("sa_gen", "sa_load", 0.009, 0.17, 0.02),
    )
    return BusNetwork(buses, branches, base_mva=10000.0)


def generate_dataset(data_dir, seed: int = DEFAULT_SEED) -> dict[str, str]:
    """Write the whole bundled dataset into ``data_dir``; returns name->file map.

    The historical year reuses the recipes with shifted seeds and a 0.97
    demand scale, so the price model trains on two distinct years.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}

    def emit(key: str, series: TimeSeries):
        name = key.replace(".", "_") + ".csv"
        write_timeseries_csv(series, data_dir / name)
        files[key] = name

    study_demand = {}
    hist_demand = {}
    for region in DEMAND_BASE_MW:
        study_demand[region] = demand_year(region, seed)
        hist_demand[region] = demand_year(region, seed + 7919, scale=0.97)
        emit(f"demand.{region}", study_demand[region])
        emit(f"historical_demand.{region}",
             hist_demand[region].relabel(f"historical_demand_{region}"))
        emit(f"pv.{region}", pv_availability(region, seed + 104729))
    hist_system = np.sum([ts.values for ts in hist_demand.values()], axis=0)
    for i, region in enumerate(DEMAND_BASE_MW):
        price = historical_price(hist_system, seed + 15485863 + i, offset=(i - 1.5) * 0.8)
        emit(f"historical_price.{region}",
             TimeSeries(SYNTHETIC_YEAR_START, price, label=f"historical_price_{region}"))
    emit("wind.NSA", wind_availability("NSA", seed + 32452843))
    emit("solar.NQ", field_solar_availability("NQ", seed + 49979687))
    emit("solar.CQ", field_solar_availability("CQ", seed + 67867967))

    net = study_network()
    write_network(net, data_dir / "bus.csv", data_dir / "branch.csv")
    files["bus"] = "bus.csv"
    files["branch"] = "branch.csv"
    return files
