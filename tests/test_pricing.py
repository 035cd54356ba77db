"""Feature matrix and the ridge price model."""

from dataclasses import fields
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstudy.dispatch import GENERATOR_TYPES, Generator, Interconnector
from gridstudy.pricing import (
    PricingError,
    feature_matrix,
    predict_rows,
    save_predictor,
    train_matrix,
)
from gridstudy.timeseries import TimeSeries
from oracles import load_predictor


def hour_features(timestamp, demand_mw, fleet, line_limits, availability):
    """Reference feature row for one hour, built entry by entry.

    ``line_limits`` maps a line name to its (forward, reverse) limits;
    ``availability`` maps a renewable unit to its availability this hour.
    """
    names = ["demand_mw", "hour_of_day", "day_of_week"]
    values = [demand_mw, float(timestamp.hour), float(timestamp.weekday())]
    for line_name in sorted(line_limits):
        fwd, rev = line_limits[line_name]
        names.append(f"line:{line_name}:forward")
        values.append(float(fwd))
        names.append(f"line:{line_name}:reverse")
        values.append(float(rev))
    groups = {}
    for gen in fleet:
        avail = availability[gen.name] if gen.is_renewable else 1.0
        key = (gen.gtype, gen.zone)
        groups[key] = groups.get(key, 0.0) + gen.capacity_mw * avail
    for gtype, zone in sorted(groups):
        names.append(f"capacity:{gtype}:{zone}")
        values.append(groups[(gtype, zone)])
    return tuple(names), np.array(values)


NAMES = ("demand", "hour")


def rows(demand, hour):
    """Two-column (demand, hour) feature rows."""
    return np.column_stack([np.atleast_1d(demand), np.atleast_1d(hour)]).astype(float)


def linear_set(rng, n=60, slope=2.0):
    d = rng.uniform(100, 200, n)
    return rows(d, np.arange(n) % 24), slope * d


def predict_one(predictor, demand, hour):
    return float(predict_rows(predictor, NAMES, rows(demand, hour))[0])


class TestFeatureMatrix:
    fleet = (Generator("U1", "black_coal", "CQ", "QLD", 500.0, 200.0, 26.14),
             Generator("W1", "wind", "NSA", "SA", 300.0, 0.0, 0.0))
    lines = (Interconnector("NSW-QLD", "NSW", "QLD", 600.0, -1000.0),)

    def row(self, start=datetime(2021, 1, 4, 0)):
        demand = TimeSeries(start, np.full(3, 5000.0), "demand_QLD")
        avail = {"W1": TimeSeries(start, np.full(3, 0.5), "wind_NSA")}
        names, x = feature_matrix(self.fleet, self.lines, avail, demand)
        return dict(zip(names, x[0]))

    def test_monday_midnight_calendar(self):
        row = self.row()
        assert row["hour_of_day"] == 0.0
        assert row["day_of_week"] == 0.0  # 2021-01-04 is a Monday

    def test_capacity_feature_direct_copy(self):
        row = self.row()
        assert row["capacity:black_coal:CQ"] == 500.0
        assert row["capacity:wind:NSA"] == 150.0  # derated by availability

    def test_hand_computed_row(self):
        expected = {
            "demand_mw": 5000.0, "hour_of_day": 15.0, "day_of_week": 2.0,
            "line:NSW-QLD:forward": 600.0, "line:NSW-QLD:reverse": -1000.0,
            "capacity:black_coal:CQ": 500.0, "capacity:wind:NSA": 150.0,
        }
        assert self.row(datetime(2021, 1, 6, 15)) == expected

    def test_deterministic(self):
        start = datetime(2021, 1, 4, 0)
        demand = TimeSeries(start, np.linspace(4000.0, 6000.0, 50))
        avail = {"W1": TimeSeries(start, np.linspace(0.0, 1.0, 50))}
        (na, a), (nb, b) = (feature_matrix(self.fleet, self.lines, avail, demand)
                            for _ in range(2))
        assert na == nb and np.array_equal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_hour_oracle(self, data):
        """Every row equals the entry-by-entry reference for that hour."""
        start = datetime(2021, 1, 1) + timedelta(hours=data.draw(st.integers(0, 24 * 7 * 53)))
        n = data.draw(st.integers(1, 100))
        finite = st.floats(-1e5, 1e5, allow_nan=False)
        demand = TimeSeries(start, np.array(data.draw(st.lists(finite, min_size=n, max_size=n))))
        zones = ("NQ", "CQ", "NSA")
        fleet = tuple(
            Generator(f"G{i}", gtype, data.draw(st.sampled_from(zones)), "QLD",
                      data.draw(st.floats(0.0, 5000.0)), 0.0, 0.0)
            for i, gtype in enumerate(data.draw(st.lists(st.sampled_from(GENERATOR_TYPES),
                                                         max_size=8))))
        line_names = data.draw(st.lists(st.sampled_from(("NSW-QLD", "VIC-NSW", "VIC-SA")),
                                        unique=True))
        lines = tuple(Interconnector(name, "A", "B", data.draw(st.floats(0.0, 2000.0)),
                                     -data.draw(st.floats(0.0, 2000.0)))
                      for name in line_names)
        avail = {g.name: TimeSeries(start, np.array(data.draw(
                     st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
                 for g in fleet if g.is_renewable}

        names, x = feature_matrix(fleet, lines, avail, demand)
        limits = {l.name: (l.forward_limit_mw, l.reverse_limit_mw) for l in lines}
        assert x.shape == (n, len(names))
        for hour in range(n):
            ref_names, ref = hour_features(
                demand.start + timedelta(hours=hour), float(demand.values[hour]), fleet, limits,
                {name: float(ts.values[hour]) for name, ts in avail.items()})
            assert ref_names == names
            assert np.array_equal(x[hour], ref)  # same operations in the same order


class TestTrain:
    def test_constant_target_ridge(self):
        rng = np.random.default_rng(0)
        x = rows(rng.uniform(100, 200, 48), np.arange(48) % 24)
        p = train_matrix(NAMES, x, np.full(48, 42.0))
        assert predict_one(p, 150.0, 5) == pytest.approx(42.0, abs=1e-6)

    def test_ridge_recovers_slope(self):
        rng = np.random.default_rng(1)
        p = train_matrix(NAMES, *linear_set(rng))
        assert predict_one(p, 170.0, 5) == pytest.approx(340.0, rel=1e-3)

    def test_ridge_requires_24_samples(self):
        x = rows(np.arange(10.0), np.arange(10))
        with pytest.raises(PricingError, match="at least 24"):
            train_matrix(NAMES, x, np.arange(10.0))

    def test_empty_set_rejected(self):
        with pytest.raises(PricingError, match="empty"):
            train_matrix(NAMES, np.empty((0, 2)), np.empty(0))

    def test_degenerate_features_reported(self):
        x, y = rows(np.full(30, 5.0), np.full(30, 5.0)), np.arange(30.0)
        with pytest.raises(PricingError, match="constant"):
            train_matrix(NAMES, x, y)

    def test_constant_feature_dropped_and_recorded(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.uniform(0, 1, 40), np.full(40, 7.0)])
        p = train_matrix(("demand", "fixed"), x, np.arange(40.0))
        assert p.feature_names == ("demand", "fixed")
        assert p.kept.tolist() == [True, False]


class TestRejectsBadInput:
    """Input that would otherwise pass through training or prediction silently."""

    def test_nan_feature(self):
        x, y = linear_set(np.random.default_rng(13))
        x[5, 1] = np.nan  # its NaN std would mark "hour" as constant and drop it
        with pytest.raises(PricingError, match="features are not finite at row 5"):
            train_matrix(NAMES, x, y)

    def test_infinite_price(self):
        x, y = linear_set(np.random.default_rng(14))
        y[3] = np.inf  # it would turn every prediction into NaN
        with pytest.raises(PricingError, match="prices are not finite at row 3"):
            train_matrix(NAMES, x, y)

    def test_prices_must_match_feature_rows(self):
        x, y = linear_set(np.random.default_rng(15))
        with pytest.raises(PricingError, match="one price per row"):
            train_matrix(NAMES, x, y[:-1])

    def test_nan_query_row(self):
        p = train_matrix(NAMES, *linear_set(np.random.default_rng(16)))
        query = rows([150.0, np.nan, 120.0], [1, 2, 3])
        with pytest.raises(PricingError, match="query rows are not finite at row 1"):
            predict_rows(p, NAMES, query)

    def test_query_width_must_match_names(self):
        p = train_matrix(NAMES, *linear_set(np.random.default_rng(17)))
        with pytest.raises(PricingError, match="2 names for query rows of shape"):
            predict_rows(p, NAMES, np.ones((4, 3)))


class TestPredict:
    def test_flat_day_from_constant_model(self):
        rng = np.random.default_rng(2)
        x = rows(rng.uniform(10, 20, 48), np.arange(48) % 24)
        p = train_matrix(NAMES, x, np.full(48, 9.5))
        out = predict_rows(p, NAMES, rows(np.full(24, 15.0), np.arange(24)))
        assert out.shape == (24,)
        assert np.allclose(out, 9.5, atol=1e-6)

    def test_golden_series_against_independent_formulas(self):
        """Ridge predictions match a from-scratch normal-equation solve."""
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 50, size=(200, 3))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + rng.normal(0, 0.5, 200) + 10
        names = ("a", "b", "c")
        p = train_matrix(names, x, y)
        # independent implementation of the documented formulas
        mean, std = x.mean(axis=0), x.std(axis=0)
        z = (x - mean) / std
        a = np.hstack([z, np.ones((200, 1))])
        reg = np.eye(4) * 1e-3
        reg[3, 3] = 0.0
        coef = np.linalg.solve(a.T @ a + reg, a.T @ y)
        queries = x[:24]
        golden = ((queries - mean) / std) @ coef[:3] + coef[3]
        got = predict_rows(p, names, queries)
        assert np.max(np.abs(got - golden)) < 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        p = train_matrix(NAMES, *linear_set(rng))
        with pytest.raises(PricingError, match="names do not match"):
            predict_rows(p, ("other", "hour"), rows(1.0, 2.0))


class TestProperties:
    def test_determinism_bitwise(self):
        rng = np.random.default_rng(8)
        x, y = linear_set(rng)
        p1, p2 = train_matrix(NAMES, x, y), train_matrix(NAMES, x, y)
        assert np.array_equal(p1.mean, p2.mean) and np.array_equal(p1.std, p2.std)
        assert np.array_equal(p1.coef, p2.coef)
        assert predict_one(p1, 137.0, 11) == predict_one(p2, 137.0, 11)

    def test_ridge_beats_constant_in_sample(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(30, 120))
            x = rng.uniform(0, 10, (n, 2))
            y = rng.normal(0, 1, n) + x[:, 0] * rng.uniform(-3, 3)
            p = train_matrix(("a", "b"), x, y)
            pred = predict_rows(p, ("a", "b"), x)
            rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
            rmse_const = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
            assert rmse <= rmse_const + 1e-12

    def test_scale_invariance(self):
        """Features are z-scored, so rescaling a column leaves predictions as
        they were, up to rounding."""
        rng = np.random.default_rng(11)
        x, y = linear_set(rng, n=50)
        scale = np.array([1000.0, 1.0])
        pa = train_matrix(NAMES, x, y)
        pb = train_matrix(NAMES, x * scale, y)
        q = x[13:14]
        assert predict_rows(pb, NAMES, q * scale)[0] == pytest.approx(
            predict_rows(pa, NAMES, q)[0], rel=1e-12)


class TestPersistence:
    def saved_lines(self, tmp_path):
        path = tmp_path / "model.txt"
        save_predictor(train_matrix(NAMES, *linear_set(np.random.default_rng(12))), path)
        return path, path.read_text().splitlines()

    def rejected(self, path, lines, match):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PricingError, match=match) as err:
            load_predictor(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        p = train_matrix(NAMES, *linear_set(rng))
        path = tmp_path / "model.txt"
        save_predictor(p, path)
        back = load_predictor(path)
        for field in fields(p):
            want, got = getattr(p, field.name), getattr(back, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
        assert predict_one(back, 123.4, 9) == predict_one(p, 123.4, 9)

    def test_file_layout(self, tmp_path):
        """Magic, kind, feature count, one ``f`` line per feature, then the
        coefficients of the kept features and the intercept."""
        _, lines = self.saved_lines(tmp_path)
        assert lines[:3] == ["gridstudy-predictor v2", "kind ridge-linear", "features 2"]
        assert [line.split(" ")[:2] for line in lines[3:5]] == [["f", "demand"], ["f", "hour"]]
        assert lines[5].startswith("coef ") and len(lines[5].split(" ")) == 4
        assert len(lines) == 6

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(PricingError, match="not a saved predictor"):
            load_predictor(path)

    def test_rejects_a_v1_file_with_a_seed_line(self, tmp_path):
        """The v1 format had a seed line, which v2 would read as the feature count."""
        path, lines = self.saved_lines(tmp_path)
        assert lines[0] == "gridstudy-predictor v2"
        path.write_text("\n".join(["gridstudy-predictor v1", lines[1], "seed 11", *lines[2:]]))
        with pytest.raises(PricingError, match="not a saved predictor"):
            load_predictor(path)

    def test_rejects_a_file_cut_after_the_magic_line(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        self.rejected(path, lines[:1], "line 2 is not 'kind ridge-linear'")

    def test_rejects_fewer_feature_lines_than_counted(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        self.rejected(path, lines[:4] + lines[5:], "line 5 is not a 'f' line")

    def test_rejects_a_file_cut_before_its_coefficients(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        self.rejected(path, lines[:5], "line 6 is not a 'coef' line")

    def test_rejects_a_non_integer_feature_count(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        self.rejected(path, [*lines[:2], "features 2.0", *lines[3:]], "not an integer: '2.0'")

    def test_rejects_a_neighbour_model_file(self, tmp_path):
        """The other model that v2 files once held: stored exemplars and prices."""
        path, lines = self.saved_lines(tmp_path)
        self.rejected(path, [lines[0], "kind nearest-neighbor", *lines[2:5], "exemplars 1",
                             "e 0.5 -0.25 -> 42.0"], "line 2 is not 'kind ridge-linear'")

    @pytest.mark.parametrize("count", [2, 4])
    def test_rejects_a_coefficient_count_that_does_not_fit(self, tmp_path, count):
        path, lines = self.saved_lines(tmp_path)
        self.rejected(path, [*lines[:5], "coef" + " 1.0" * count],
                      f"{count} coefficients for 2 kept features")
