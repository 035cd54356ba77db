"""Hourly time-series model, CSV ingestion and the zone weights of a region.

The on-disk format is ``timestamp,value`` with ISO-8601 hourly timestamps,
one file per (region, quantity).  Values are written with ``repr`` so a
write/read round trip is exact, both as text and numerically.

A file in exactly the layout ``write_timeseries_csv`` emits is checked and
parsed as a whole text; every other layout, and every file that fails one of
those whole-file checks, goes through the row-by-row ``csv`` loop, which is
the only source of error texts.  Both routes give the same series.

The study calendar is a fixed non-leap synthetic year (8760 hours) starting
2021-01-01 00:00.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

HOURS_PER_DAY = 24
HOURS_PER_YEAR = 8760
SYNTHETIC_YEAR_START = datetime(2021, 1, 1)

#: Region identifiers used by the bundled study data.  Configs may narrow
#: this set but never extend it.
KNOWN_REGIONS = ("QLD", "NSW", "VIC", "SA", "SH")

_DATE_FORMAT = "%Y-%m-%d"
TIMESTAMP_FORMAT = _DATE_FORMAT + "T%H:%M:%S"
#: Time-of-day text of each whole hour in ``TIMESTAMP_FORMAT``.
_HOUR_TEXT = tuple(f"T{h:02d}:00:00" for h in range(HOURS_PER_DAY))
#: The header line ``write_timeseries_csv`` writes.
_WRITER_HEADER = "timestamp,value\n"


class TimeSeriesError(ValueError):
    """Malformed series data (gaps, duplicates, bad numbers, bad length)."""


@dataclass(frozen=True)
class TimeSeries:
    """Gap-free hourly series; index ``h`` is exactly ``start + h`` hours.

    ``values`` is an immutable float array (MW for power, $/MWh for price).
    """

    start: datetime
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise TimeSeriesError(f"series {self.label!r} must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise TimeSeriesError(f"series {self.label!r} has a non-finite value at hour {bad}")
        if self.start.minute or self.start.second or self.start.microsecond:
            raise TimeSeriesError(f"series {self.label!r} must start on a whole hour")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __reduce__(self):
        # copies and unpickled series go through the checks and stay read-only
        return TimeSeries, (self.start, self.values, self.label)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n_days(self) -> int:
        if len(self) % HOURS_PER_DAY:
            raise TimeSeriesError(f"series {self.label!r} is not a whole number of days")
        return len(self) // HOURS_PER_DAY

    def day(self, d: int) -> np.ndarray:
        """Values of day ``d`` (24 entries)."""
        n = self.n_days
        if not 0 <= d < n:
            raise IndexError(f"day {d} out of range 0..{n - 1}")
        return self.values[d * HOURS_PER_DAY:(d + 1) * HOURS_PER_DAY]

    def relabel(self, label: str) -> "TimeSeries":
        return TimeSeries(self.start, self.values, label)


def hour_stamps(start: datetime, n_hours: int) -> list[str]:
    """``TIMESTAMP_FORMAT`` text of ``start + k`` hours for ``k < n_hours``.

    ``start`` must fall on a whole hour.  Only the date goes through
    ``strftime``, once per day, so entry ``k`` is the text of
    ``(start + timedelta(hours=k)).strftime(TIMESTAMP_FORMAT)``.
    """
    first = start.hour
    n_days = -(-(first + n_hours) // HOURS_PER_DAY)
    day = start.date()
    dates = [(day + timedelta(days=d)).strftime(_DATE_FORMAT) for d in range(n_days)]
    return [date + hour for date in dates for hour in _HOUR_TEXT][first:first + n_hours]


@lru_cache(maxsize=8)
def _shared_hour_stamps(start: datetime, n_hours: int) -> tuple[str, ...]:
    """``hour_stamps`` as a tuple, computed once for the series files sharing a calendar."""
    return tuple(hour_stamps(start, n_hours))


def _parse_writer_layout(path: Path, expected_hours: int):
    """``(start, values)`` of a file in exactly ``write_timeseries_csv``'s layout.

    ``None`` for any other file: text that fails to decode, another header, a
    carriage return (a line end to the ``csv`` reader, whitespace to
    ``float``), no final newline, a line without exactly one comma, a stamp
    other than the ``hour_stamps`` text of its hour (so also a row count
    other than ``expected_hours``), a field longer than
    ``csv.field_size_limit()``, or a value that is not a finite float (so
    also a quoted one).  The row loop then reads the file and reports what
    it finds.
    """
    try:
        with path.open(newline="") as fh:  # decoded as the row loop decodes it
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if not text.startswith(_WRITER_HEADER) or not text.endswith("\n") or "\r" in text:
        return None
    body = text[len(_WRITER_HEADER):-1]
    del text
    lines = body.split("\n")
    # A comma on every line and no more commas than lines: exactly one on each.
    if body.count(",") != len(lines) or not all(map(operator.contains, lines, repeat(","))):
        return None
    del lines
    fields = body.replace("\n", ",").split(",")
    del body
    stamps, value_texts = tuple(fields[0::2]), fields[1::2]
    del fields
    try:
        start = datetime.fromisoformat(stamps[0])
        if (stamps != _shared_hour_stamps(start, expected_hours)
                or max(map(len, value_texts)) > csv.field_size_limit()):
            return None
        values = np.array(list(map(float, value_texts)))
    except (OverflowError, ValueError):  # a start near datetime.max; not a number
        return None
    if not np.isfinite(values).all():
        return None
    return start, values


def _checked_stamp(path, rownum: int, text: str, start, k: int) -> datetime:
    """Parse row ``rownum``'s stamp and require it to be ``start + k`` hours.

    ``start=None`` makes the stamp itself the start, which must be a whole hour.
    """
    try:
        stamp = datetime.fromisoformat(text.strip())
    except ValueError:
        raise TimeSeriesError(f"{path}: row {rownum}: bad timestamp {text!r}") from None
    if start is None:
        if stamp.minute or stamp.second or stamp.microsecond:
            raise TimeSeriesError(f"{path}: row {rownum}: first timestamp {text!r} is not on a whole hour")
        start = stamp
    expected = start + timedelta(hours=k)
    if stamp == expected - timedelta(hours=1):
        raise TimeSeriesError(f"{path}: row {rownum}: duplicate timestamp {text}")
    if stamp != expected:
        raise TimeSeriesError(
            f"{path}: row {rownum}: gap in series, missing "
            f"{expected.strftime(TIMESTAMP_FORMAT)}"
        )
    return stamp


def load_timeseries_csv(path, expected_hours: int) -> TimeSeries:
    """Read a ``timestamp,value`` CSV into a gap-free hourly series.

    A file in exactly ``write_timeseries_csv``'s layout with the expected
    number of rows is checked and parsed as one text
    (``_parse_writer_layout``).  Every other layout, and every file that
    fails one of those checks, is read by the row loop below, which gives
    the same series and is the only source of errors.

    The row loop checks rows one at a time in file order: the column count,
    then the stamp, then the value.  So the first bad row is the one
    reported, with its row number (1-based, counting the header as row 1),
    and a tokeniser or decoding error is raised only after the rows before
    it pass.
    """
    path = Path(path)
    if not path.exists():
        raise TimeSeriesError(f"missing series file: {path}")
    whole = _parse_writer_layout(path, expected_hours)
    if whole is not None:
        return TimeSeries(*whole, label=path.stem)
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
        for rownum, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) < 2:
                raise TimeSeriesError(f"{path}: row {rownum}: expected 2 columns")
            if start is None:
                start = _checked_stamp(path, rownum, row[0], None, 0)
            else:
                _checked_stamp(path, rownum, row[0], start, len(values))
            try:
                value = float(row[1])
            except ValueError:
                raise TimeSeriesError(f"{path}: row {rownum}: non-numeric value {row[1]!r}") from None
            if not math.isfinite(value):
                raise TimeSeriesError(f"{path}: row {rownum}: non-finite value {row[1]!r}")
            values.append(value)
        if start is None:
            raise TimeSeriesError(f"{path}: no data rows")
        if len(values) != expected_hours:
            raise TimeSeriesError(
                f"{path}: expected {expected_hours} rows, found {len(values)}"
            )
    return TimeSeries(start, np.array(values), label=path.stem)


def write_timeseries_csv(series: TimeSeries, path) -> None:
    """Write ``timestamp,value`` rows; floats via ``repr`` so re-reading is exact."""
    path = Path(path)
    stamps = hour_stamps(series.start, len(series))
    with path.open("w", newline="") as fh:
        fh.write("timestamp,value\n")
        fh.writelines(f"{stamp},{v!r}\n" for stamp, v in zip(stamps, series.values.tolist()))


@dataclass(frozen=True)
class ZoneWeights:
    """Nonnegative per-zone shares used to split a regional series; sum to 1."""

    weights: Mapping[str, float]

    def __post_init__(self):
        if not self.weights:
            raise TimeSeriesError("zone weights must name at least one zone")
        w = dict(self.weights)
        for zone, share in w.items():
            if not np.isfinite(share) or share < 0:
                raise TimeSeriesError(f"zone {zone!r} weight {share} must be finite and >= 0")
        total = float(sum(w.values()))
        if abs(total - 1.0) > 1e-9:
            raise TimeSeriesError(f"zone weights sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def equal(zones: Iterable[str]) -> "ZoneWeights":
        zones = list(zones)
        return ZoneWeights({z: 1.0 / len(zones) for z in zones})
