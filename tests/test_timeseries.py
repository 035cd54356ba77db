"""Time-series ingestion, round trips and zone weights."""

import copy
import pickle
from datetime import datetime

import numpy as np
import pytest

from gridstudy.timeseries import (
    HOURS_PER_YEAR,
    SYNTHETIC_YEAR_START,
    TimeSeries,
    TimeSeriesError,
    ZoneWeights,
    load_timeseries_csv,
    write_timeseries_csv,
)


def write_rows(path, rows, header="timestamp,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def hourly_rows(start, values):
    from datetime import timedelta
    return [f"{(start + timedelta(hours=h)).isoformat()},{v}" for h, v in enumerate(values)]


class TestLoadCsv:
    def test_well_formed_24_rows(self, tmp_path):
        p = tmp_path / "day.csv"
        write_rows(p, hourly_rows(datetime(2021, 1, 1), range(24)))
        ts = load_timeseries_csv(p, expected_hours=24)
        assert len(ts) == 24
        assert ts.values[13] == 13.0
        assert ts.start == datetime(2021, 1, 1)

    def test_missing_hour_names_the_timestamp(self, tmp_path):
        p = tmp_path / "gap.csv"
        rows = hourly_rows(datetime(2021, 1, 1), range(24))
        del rows[13]
        write_rows(p, rows)
        with pytest.raises(TimeSeriesError, match="2021-01-01T13:00:00"):
            load_timeseries_csv(p, expected_hours=24)

    def test_duplicate_timestamp_reported_with_row(self, tmp_path):
        p = tmp_path / "dup.csv"
        rows = hourly_rows(datetime(2021, 1, 1), range(5))
        rows.insert(3, rows[2])
        write_rows(p, rows)
        with pytest.raises(TimeSeriesError, match="row 5.*duplicate"):
            load_timeseries_csv(p, expected_hours=6)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = hourly_rows(datetime(2021, 1, 1), range(4))
        rows[2] = rows[2].rsplit(",", 1)[0] + ",oops"
        write_rows(p, rows)
        with pytest.raises(TimeSeriesError, match="row 4.*non-numeric"):
            load_timeseries_csv(p, expected_hours=4)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_path_and_row(self, tmp_path, value):
        p = tmp_path / "nonfinite.csv"
        rows = hourly_rows(datetime(2021, 1, 1), range(6))
        rows[3] = rows[3].rsplit(",", 1)[0] + f",{value}"
        rows[5] = "2021-01-01T09:00:00,5"  # a later gap does not win
        write_rows(p, rows)
        with pytest.raises(TimeSeriesError) as err:
            load_timeseries_csv(p, expected_hours=7)
        assert str(err.value) == f"{p}: row 5: non-finite value {value!r}"

    def test_first_stamp_off_the_hour_names_path_and_row(self, tmp_path):
        p = tmp_path / "halfhour.csv"
        write_rows(p, ["", "2021-01-01T00:30:00,1", "2021-01-01T01:30:00,nope"])
        with pytest.raises(TimeSeriesError) as err:
            load_timeseries_csv(p, expected_hours=3)
        assert str(err.value) == (f"{p}: row 3: first timestamp '2021-01-01T00:30:00' "
                                  "is not on a whole hour")

    def test_length_mismatch(self, tmp_path):
        p = tmp_path / "short.csv"
        write_rows(p, hourly_rows(datetime(2021, 1, 1), range(10)))
        with pytest.raises(TimeSeriesError, match="expected 24 rows, found 10"):
            load_timeseries_csv(p, expected_hours=24)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TimeSeriesError, match="missing series file"):
            load_timeseries_csv(tmp_path / "nope.csv", expected_hours=24)

    def test_year_fixture_checksum(self, data_dir):
        """Sum of the loaded series equals an independent text-pass total."""
        path = data_dir / "demand_NSW.csv"
        ts = load_timeseries_csv(path, expected_hours=HOURS_PER_YEAR)
        total = 0.0
        with path.open() as fh:
            next(fh)
            for line in fh:
                total += float(line.rsplit(",", 1)[1])
        assert ts.values.sum() == pytest.approx(total, rel=1e-12)


class TestRoundTrip:
    def test_write_read_write_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        ts = TimeSeries(SYNTHETIC_YEAR_START, rng.uniform(0, 1e4, 240), "x")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeseries_csv(ts, p1)
        back = load_timeseries_csv(p1, expected_hours=240)
        assert np.array_equal(back.values, ts.values)  # bit-for-bit
        write_timeseries_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestInvariants:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(datetime(2021, 1, 1), [])
        with pytest.raises(TimeSeriesError, match="non-finite"):
            TimeSeries(datetime(2021, 1, 1), [1.0, np.nan])
        with pytest.raises(TimeSeriesError, match="whole hour"):
            TimeSeries(datetime(2021, 1, 1, 0, 30), [1.0])

    def test_values_are_immutable(self):
        ts = TimeSeries(datetime(2021, 1, 1), [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda ts: pickle.loads(pickle.dumps(ts, protocol=5))])
    def test_copies_keep_values_immutable(self, clone):
        ts = TimeSeries(datetime(2021, 1, 1), [1.0, 2.0], "x")
        twin = clone(ts)
        assert (twin.start, twin.values.tolist(), twin.label) == (ts.start, [1.0, 2.0], "x")
        with pytest.raises(ValueError):
            twin.values[0] = 5.0

    def test_day_slicing(self):
        ts = TimeSeries(datetime(2021, 1, 1), np.arange(48.0))
        assert ts.n_days == 2
        assert ts.day(1)[0] == 24.0
        with pytest.raises(TimeSeriesError, match="whole number of days"):
            TimeSeries(datetime(2021, 1, 1), np.arange(30.0)).n_days


class TestZoneSplit:
    def test_invalid_weights_rejected(self):
        with pytest.raises(TimeSeriesError, match="sum to"):
            ZoneWeights({"A": 0.4, "B": 0.5})
        with pytest.raises(TimeSeriesError, match=">= 0"):
            ZoneWeights({"A": 1.5, "B": -0.5})
        with pytest.raises(TimeSeriesError, match="at least one"):
            ZoneWeights({})
