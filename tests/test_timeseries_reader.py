"""Differential test of the series reader against its row-by-row original.

``reference_load`` is the reader as it was before the timestamp column was
checked as text: it parses and compares every row's stamp with ``datetime``
arithmetic.  It has since gained two row checks, a non-finite value and a
first stamp off the whole hour, which it used to leave to ``TimeSeries``.
The current reader must accept exactly the files it accepts, with
bit-identical values, and reject every other file with the same error type
and text, whether it takes the whole-file route for the writer's layout or
hands the file to its row loop.
"""

from __future__ import annotations

import csv
import math
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstudy import timeseries
from gridstudy.timeseries import (
    HOURS_PER_YEAR,
    SYNTHETIC_YEAR_START,
    TIMESTAMP_FORMAT,
    TimeSeries,
    TimeSeriesError,
    hour_stamps,
    load_timeseries_csv,
    write_timeseries_csv,
)


def reference_load(path, expected_hours: int) -> TimeSeries:
    """The row-by-row reader, kept verbatim but for the two row checks marked below."""
    path = Path(path)
    if not path.exists():
        raise TimeSeriesError(f"missing series file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TimeSeriesError(f"{path}: empty file") from None
        header = [col.strip() for col in header]
        if header[:2] != ["timestamp", "value"]:
            raise TimeSeriesError(f"{path}: row 1: header must be 'timestamp,value', got {header}")
        start = None
        values: list[float] = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise TimeSeriesError(f"{path}: row {rownum}: expected 2 columns")
            try:
                stamp = datetime.fromisoformat(row[0].strip())
            except ValueError:
                raise TimeSeriesError(f"{path}: row {rownum}: bad timestamp {row[0]!r}") from None
            if start is None:
                if stamp.minute or stamp.second or stamp.microsecond:  # added row check
                    raise TimeSeriesError(
                        f"{path}: row {rownum}: first timestamp {row[0]!r} is not on a whole hour")
                start = stamp
            expected = start + timedelta(hours=len(values))
            if stamp == expected - timedelta(hours=1):
                raise TimeSeriesError(f"{path}: row {rownum}: duplicate timestamp {row[0]}")
            if stamp != expected:
                raise TimeSeriesError(
                    f"{path}: row {rownum}: gap in series, missing "
                    f"{expected.strftime(TIMESTAMP_FORMAT)}"
                )
            try:
                values.append(float(row[1]))
            except ValueError:
                raise TimeSeriesError(f"{path}: row {rownum}: non-numeric value {row[1]!r}") from None
            if not math.isfinite(values[-1]):  # added row check
                raise TimeSeriesError(f"{path}: row {rownum}: non-finite value {row[1]!r}")
        if start is None:
            raise TimeSeriesError(f"{path}: no data rows")
        if len(values) != expected_hours:
            raise TimeSeriesError(
                f"{path}: expected {expected_hours} rows, found {len(values)}"
            )
    return TimeSeries(start, np.array(values), label=path.stem)


def outcome(reader, path, expected_hours):
    """What a reader does with a file: its series, or its error type and text."""
    try:
        ts = reader(path, expected_hours)
    except Exception as exc:  # the error itself is what is compared
        return ("error", type(exc).__name__, str(exc))
    return ("series", ts.start, ts.values.tobytes(), ts.label)


def assert_same_outcome(path, expected_hours):
    want = outcome(reference_load, path, expected_hours)
    assert outcome(load_timeseries_csv, path, expected_hours) == want


def takes_whole_file_route(path, expected_hours) -> bool:
    return timeseries._parse_writer_layout(Path(path), expected_hours) is not None


WRITER_START = datetime(2021, 3, 1, 5)


def writer_series(n_hours: int, start=WRITER_START) -> TimeSeries:
    """A series whose ``repr`` texts vary in length, sign and exponent form."""
    values = np.random.default_rng(11).normal(900.0, 400.0, n_hours)
    values[:6] = [0.0, -0.0, 1e-300, -5e+20, 0.1, 123456789.0]
    return TimeSeries(start, values, "writer")


def edit_row(k: int, edit):
    """A text edit applying ``edit(stamp, value) -> line`` to data row ``k`` (0-based)."""
    def apply(text):
        lines = text.split("\n")
        lines[k + 1] = edit(*lines[k + 1].split(","))
        return "\n".join(lines)
    return apply


def repeat_stamp(k: int):
    """A text edit giving data row ``k`` the stamp of row ``k - 1``."""
    def apply(text):
        lines = text.split("\n")
        lines[k + 1] = lines[k].split(",")[0] + "," + lines[k + 1].split(",")[1]
        return "\n".join(lines)
    return apply


def swap_separators(k: int):
    """Rows ``k`` and ``k + 1`` as ``s_k,v_k,s_k+1`` and ``v_k+1``: the right
    fields and counts of commas, newlines and fields, one comma on the wrong line."""
    def apply(text):
        lines = text.split("\n")
        stamp, value = lines[k + 2].split(",")
        lines[k + 1] += "," + stamp
        lines[k + 2] = value
        return "\n".join(lines)
    return apply


HEADER_LEN = len("timestamp,value\n")

#: Edits of a writer-format file, each with whether the result still takes the
#: whole-file route.  Every other edit is one of its hand-offs to the row loop.
WRITER_EDITS = {
    "unchanged": (lambda t: t, True),
    "crlf": (lambda t: t.replace("\n", "\r\n"), False),
    "crlf_after_header": (lambda t: t[:HEADER_LEN] + t[HEADER_LEN:].replace("\n", "\r\n"),
                          False),
    "carriage_return_in_value": (edit_row(20, lambda s, v: f"{s},\r{v}"), False),
    "no_final_newline": (lambda t: t[:-1], False),
    "trailing_blank_line": (lambda t: t + "\n", False),
    "blank_line_inside": (edit_row(30, lambda s, v: f"\n{s},{v}"), False),
    "header_spaced": (lambda t: " timestamp, value\n" + t[HEADER_LEN:], False),
    "header_extra_column": (lambda t: "timestamp,value,x\n" + t[HEADER_LEN:], False),
    "quoted_value": (edit_row(7, lambda s, v: f'{s},"{v}"'), False),
    "extra_column": (edit_row(7, lambda s, v: f"{s},{v},x"), False),
    "short_row": (edit_row(7, lambda s, v: s), False),
    "comma_on_the_wrong_line": (swap_separators(9), False),
    "next_stamp_as_extra_column": (
        lambda t: t[:-1] + "," + hour_stamps(WRITER_START, 241)[-1] + "\n", False),
    "value_at_field_limit": (
        edit_row(3, lambda s, v: s + ",0." + "0" * (csv.field_size_limit() - 3) + "1"), True),
    "value_over_field_limit": (edit_row(3, lambda s, v: s + ",0." + "0" * 200_000 + "1"), False),
    "padded_value": (edit_row(12, lambda s, v: f"{s}, {v} "), True),
    "underscore_value": (edit_row(12, lambda s, v: f"{s},1_000"), True),
    "word_value": (edit_row(12, lambda s, v: f"{s},oops"), False),
    "nan_value": (edit_row(12, lambda s, v: f"{s},nan"), False),
    "inf_value": (edit_row(12, lambda s, v: f"{s},-inf"), False),
    "space_stamp": (edit_row(12, lambda s, v: f"{s.replace('T', ' ')},{v}"), False),
    "duplicate_stamp": (repeat_stamp(100), False),
    "gap": (edit_row(50, lambda s, v: f"{s[:11]}23{s[13:]},{v}"), False),
    "offset_first_stamp": (edit_row(0, lambda s, v: f"{s}+10:00,{v}"), False),
    "half_hour_first_stamp": (edit_row(0, lambda s, v: f"{s[:14]}30:00,{v}"), False),
    "offset_every_stamp": (lambda t: t.replace(":00:00,", ":00:00+10:00,"), False),
}


# -- generated files ----------------------------------------------------------

STAMP_FORMS = {
    "canonical": lambda t: t.strftime(TIMESTAMP_FORMAT),
    "space": lambda t: t.isoformat(sep=" "),
    "padded": lambda t: f"  {t.strftime(TIMESTAMP_FORMAT)} ",
    "minutes": lambda t: t.strftime("%Y-%m-%dT%H:%M"),
    "micro": lambda t: t.isoformat(timespec="microseconds"),
    "utc": lambda t: t.strftime(TIMESTAMP_FORMAT) + "+00:00",
    "quoted": lambda t: f'"{t.strftime(TIMESTAMP_FORMAT)}"',
    "garbage": lambda t: "not-a-time",
}

VALUE_FORMS = {
    "repr": repr,
    "int": lambda v: str(int(v)),
    "exp": lambda v: f"{v:.6e}",
    "padded": lambda v: f" {v!r} ",
    "quoted": lambda v: f'"{v!r}"',
    "underscore": lambda v: f"1_{int(abs(v))}",
    "nan": lambda v: "nan",
    "empty": lambda v: "",
    "word": lambda v: "oops",
}

# One kind of defect per choice; "none" keeps the row as the series needs it.
ROW_DEFECTS = ("none", "blank_before", "extra_column", "short", "gap", "duplicate",
               "swap_next")


@st.composite
def series_files(draw):
    """File text for a mostly valid hourly series and the hours to expect."""
    start = draw(st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2040, 1, 1)))
    start = start.replace(minute=draw(st.sampled_from([0, 0, 0, 30])), second=0,
                          microsecond=0)
    n = draw(st.integers(1, 40))
    times = [start + timedelta(hours=k) for k in range(n)]
    values = draw(st.lists(st.floats(-1e5, 1e5, allow_nan=False), min_size=n, max_size=n))
    rare = st.integers(0, 9)  # most rows stay plain so later defects are reached

    def pick(table, plain):
        return plain if draw(rare) else draw(st.sampled_from(sorted(table)))

    rows = []
    k = 0
    while k < len(times):
        stamp = STAMP_FORMS[pick(STAMP_FORMS, "canonical")](times[k])
        value = VALUE_FORMS[pick(VALUE_FORMS, "repr")](values[k])
        defect = "none" if draw(rare) else draw(st.sampled_from(ROW_DEFECTS))
        row = f"{stamp},{value}"
        if defect == "blank_before":
            rows.append("")
        elif defect == "extra_column":
            row += ",extra"
        elif defect == "short":
            row = stamp
        elif defect == "gap":
            k += 1
            continue
        elif defect == "duplicate":
            rows.append(row)
        elif defect == "swap_next" and k + 1 < len(times):
            times[k], times[k + 1] = times[k + 1], times[k]
            continue
        rows.append(row)
        k += 1
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(["timestamp,value"] + rows)
    if draw(st.booleans()):
        text += ending
    if draw(st.booleans()):
        text += ending  # a trailing blank line
    expected = n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return text, expected


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d) / "series.csv"


class TestAgainstRowByRowReader:
    @settings(max_examples=400, deadline=None)
    @given(case=series_files())
    def test_same_series_or_same_error(self, scratch_file, case):
        text, expected_hours = case
        scratch_file.write_bytes(text.encode())
        assert_same_outcome(scratch_file, expected_hours)

    @pytest.mark.parametrize("text", [
        "",
        "timestamp,value",
        "timestamp,value\n\n\n",
        "time,value\n2021-01-01T00:00:00,1",
        " timestamp , value ,x\n2021-01-01T00:00:00,1,2\n",
        "timestamp,value\n2021-01-01T00:00:00,oops\n2021-01-01T05:00:00,1\n",
        "timestamp,value\n2021-01-01T00:00:00,1\n2021-01-01T01:00:00,x\n2021-01-01T01:00:00,1\n",
        "timestamp,value\n2021-01-01T00:00:00,1\n2021-01-01T01:00:00\n2021-01-01T09:00:00,1\n",
        "timestamp,value\n2021-01-01T00:00:00,1\n2021-01-01T03:00:00,nope\n",
        "timestamp,value\n2021-01-01T00:30:00,1\n2021-01-01T01:30:00,2\n",
        "timestamp,value\n2021-01-01T00:00:00+10:00,1\n2021-01-01T01:00:00+10:00,2\n",
        "timestamp,value\n2021-01-01T00:00:00+10:00,1\n2021-01-01T01:00:00,2\n",
        "timestamp,value\n2021-01-01,1\n2021-01-01T01:00:00,2\n",
        "timestamp,value\n0999-12-31T23:00:00,1\n1000-01-01T00:00:00,2\n",
        "timestamp,value\n0999-12-31T23:00:00,1\n999-12-31T23:00:00,2\n",
        "timestamp,value\n0001-01-01T00:00:00,1\n",
        "timestamp,value\n9999-12-31T23:00:00,1\n9999-12-31T23:00:00,2\n",
        "timestamp,value\n9999-12-31T22:00:00,1\n9999-12-31T23:00:00,2\n",
        "timestamp,value\n9999-12-31T23:00:00,1\nbad,2\n",
        'timestamp,value\n"2021-01-01T00:00:00","1.5"\n"2021-01-01T01:00\n:00:00",2\n',
        'timestamp,value\n2021-01-01T00:00:00,1\n2021-01-01T01:00:00,"2\n',
        "timestamp,value\n2021-01-01T00:00:00,inf\n2021-01-01T01:00:00,2\n",
        "timestamp,value\r\n2021-01-01T00:00:00,1\r\n\r\n2021-01-01T01:00:00,2\r\n",
    ])
    def test_edge_files(self, scratch_file, text):
        scratch_file.write_bytes(text.encode())
        for expected_hours in (1, 2):
            assert_same_outcome(scratch_file, expected_hours)

    @pytest.mark.parametrize("name", sorted(WRITER_EDITS))
    def test_writer_format_edits(self, scratch_file, name):
        """The whole-file route and each of its hand-offs give the row loop's outcome."""
        edit, whole_file = WRITER_EDITS[name]
        n = 240
        write_timeseries_csv(writer_series(n), scratch_file)
        scratch_file.write_bytes(edit(scratch_file.read_bytes().decode()).encode())
        for expected_hours in (n - 1, n, n + 1):
            assert (takes_whole_file_route(scratch_file, expected_hours)
                    == (whole_file and expected_hours == n))
            assert_same_outcome(scratch_file, expected_hours)

    def test_duplicate_stamp_before_undecodable_bytes(self, scratch_file):
        """Bytes past the first 8 KB that fail to decode hand the file to the row
        loop, which reports the earlier duplicate stamp first."""
        n = 600
        write_timeseries_csv(writer_series(n), scratch_file)
        text = scratch_file.read_text()
        for edit in (lambda t: t, repeat_stamp(100)):
            lines = edit(text).encode().split(b"\n")
            lines[500] += b"\xff"
            body = b"\n".join(lines)
            assert body.index(b"\xff") > 8192
            scratch_file.write_bytes(body)
            assert not takes_whole_file_route(scratch_file, n)
            assert_same_outcome(scratch_file, n)
        assert "row 102: duplicate timestamp" in outcome(load_timeseries_csv, scratch_file, n)[2]

    def test_field_too_large_after_a_bad_row(self, scratch_file):
        """A tokeniser error is raised only once the rows before it pass."""
        big = "9" * (csv.field_size_limit() + 1)
        head = "timestamp,value\n2021-01-01T00:00:00,1\n"
        for middle in ("2021-01-01T01:00:00,2\n", "2021-01-01T05:00:00,2\n"):
            scratch_file.write_text(head + middle + f"2021-01-01T02:00:00,{big}\n")
            assert_same_outcome(scratch_file, 3)

    def test_undecodable_bytes_after_a_bad_row(self, scratch_file):
        rows = [f"2021-01-01T00:00:00,{v}" for v in range(3)]
        body = ("timestamp,value\n" + "\n".join(rows) + "\n").encode()
        scratch_file.write_bytes(body + b"\xff\xfe\n")
        assert_same_outcome(scratch_file, 3)

    def test_missing_file(self, tmp_path):
        assert_same_outcome(tmp_path / "absent.csv", 24)

    def test_bundled_year_files(self, data_dir):
        for path in sorted(data_dir.glob("*_*.csv")):
            assert_same_outcome(path, 8760)


class TestWholeFileRoute:
    def test_writer_year_file_does_not_use_the_csv_reader(self, tmp_path, monkeypatch):
        """A year written by ``write_timeseries_csv`` loads without ``csv.reader``; a
        CRLF copy of it goes through the row loop and gives the same bits."""
        series = writer_series(HOURS_PER_YEAR, SYNTHETIC_YEAR_START)
        path, crlf = tmp_path / "year.csv", tmp_path / "year_crlf.csv"
        write_timeseries_csv(series, path)
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        want = ("series", series.start, series.values.tobytes(), "year")

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader used on a writer-format file")

        with monkeypatch.context() as patched:
            patched.setattr(timeseries.csv, "reader", refuse)
            assert outcome(load_timeseries_csv, path, HOURS_PER_YEAR) == want

        readers = []
        real_reader = csv.reader

        def counted_reader(*args, **kwargs):
            readers.append(args)
            return real_reader(*args, **kwargs)

        monkeypatch.setattr(timeseries.csv, "reader", counted_reader)
        assert outcome(load_timeseries_csv, crlf, HOURS_PER_YEAR) == want[:3] + ("year_crlf",)
        assert len(readers) == 1

    def test_stamp_text_is_computed_once_per_calendar(self, tmp_path, monkeypatch):
        calls = []
        real = timeseries.hour_stamps

        def counted(start, n_hours):
            calls.append((start, n_hours))
            return real(start, n_hours)

        monkeypatch.setattr(timeseries, "hour_stamps", counted)
        timeseries._shared_hour_stamps.cache_clear()
        start = datetime(2019, 6, 30, 23)
        for k in range(3):
            write_timeseries_csv(TimeSeries(start, np.full(72, float(k))), tmp_path / f"{k}.csv")
        calls.clear()
        for k in range(3):
            assert load_timeseries_csv(tmp_path / f"{k}.csv", 72).values[0] == k
        assert calls == [(start, 72)]


class TestHourStamps:
    @pytest.mark.parametrize("start", [
        datetime(2021, 1, 1), datetime(2020, 2, 28, 21), datetime(2021, 12, 31, 23),
        datetime(999, 12, 31, 22), datetime(1, 1, 1, 5),
    ])
    def test_equals_strftime_of_each_hour(self, start):
        n = 75
        want = [(start + timedelta(hours=k)).strftime(TIMESTAMP_FORMAT) for k in range(n)]
        assert hour_stamps(start, n) == want

    def test_empty(self):
        assert hour_stamps(datetime(2021, 1, 1, 7), 0) == []
