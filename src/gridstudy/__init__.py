"""Future-grid study pipeline.

Price-responsive aggregate demand (PV + battery scheduled by a daily
cost-minimising LP), day-ahead price baselines, zonal merit-order dispatch
with interconnector limits, AC power flow and loadability sweeps, wired
together by a five-scenario harness over a bundled synthetic year.

Units convention used across every module: power in MW, energy in MWh,
prices in $/MWh.  With one-hour steps MW and MWh/h are numerically
interchangeable.
"""

__version__ = "0.1.0"

from gridstudy.timeseries import TimeSeries, ZoneWeights, load_timeseries_csv

__all__ = [
    "TimeSeries",
    "ZoneWeights",
    "load_timeseries_csv",
    "__version__",
]
