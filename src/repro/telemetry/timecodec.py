"""Fixed-format timestamp codec for console telemetry.

Console log lines carry one timestamp format, ever:
``%Y-%m-%dT%H:%M:%S.%f`` (e.g. ``2014-03-02T14:55:01.123456``).  The
generic :func:`datetime.datetime.strptime` / ``strftime`` pair costs
tens of microseconds per line — at fleet scale that is the single
largest term in the telemetry round trip — so this module provides a
hand-rolled codec for exactly that format:

* :func:`format_timestamp` — seconds-since-study-epoch → stamp text,
  byte-identical to
  ``timestamp_to_datetime(ts).strftime("%Y-%m-%dT%H:%M:%S.%f")``;
* :func:`parse_timestamp` — stamp text → seconds-since-study-epoch,
  value-identical (bit-for-bit ``float64``) to
  ``datetime_to_timestamp(datetime.strptime(stamp, ...))``, raising
  ``ValueError`` on exactly the stamps the reference path rejects
  (impossible months, days, hours, minutes or seconds) — plus any
  stamp that is not exactly :data:`TIMESTAMP_WIDTH` characters wide.
  ``strptime``'s ``%f`` is lax about fraction width (1–6 digits); the
  console format is not, and the parser's line regex has always
  required six digits, so the codec enforces the fixed width itself.

Both directions memoize the calendar work per *day*: the date prefix
(``YYYY-MM-DD``) is computed once per distinct day and reused for every
stamp on that day.  The vectorized side writes whole arrays of stamps
as one digit matrix; the console parser decodes its stamps the same
way, as columns, and takes only the per-day memo from here.  Microsecond rounding on the formatting side replicates
``datetime.timedelta(seconds=ts)`` exactly (``math.modf`` + round-half-
even); the parsing side uses pure integer arithmetic and one final
division, matching ``timedelta.total_seconds()`` bit for bit.  The
equivalence is locked by property tests against the stdlib reference
(``tests/test_timecodec.py``).
"""

from __future__ import annotations

import datetime as _dt
import math
from collections.abc import Iterable

import numpy as np

from repro.units import DAY, HOUR, MINUTE, STUDY_EPOCH

__all__ = [
    "TIMESTAMP_FORMAT",
    "TIMESTAMP_WIDTH",
    "format_timestamp",
    "format_timestamps",
    "parse_timestamp",
]

#: The one and only console timestamp format (reference codec).
TIMESTAMP_FORMAT: str = "%Y-%m-%dT%H:%M:%S.%f"

#: Rendered width of a stamp: ``len("2014-03-02T14:55:01.123456")``.
TIMESTAMP_WIDTH: int = 26

_US_PER_SECOND = 1_000_000
_US_PER_MINUTE = int(MINUTE) * _US_PER_SECOND
_US_PER_HOUR = int(HOUR) * _US_PER_SECOND
_US_PER_DAY = int(DAY) * _US_PER_SECOND
_SECONDS_PER_HOUR = int(HOUR)
_SECONDS_PER_MINUTE = int(MINUTE)

_EPOCH_ORDINAL = STUDY_EPOCH.toordinal()  # STUDY_EPOCH is midnight

#: Per-day memo tables.  A 21-month study touches ~640 distinct days;
#: hostile (chaos-corrupted) streams can mint more, so both tables are
#: bounded — on overflow they reset rather than grow without limit.
_DATE_OF_DAY: dict[int, str] = {}
_DAY_US_OF_DATE: dict[str, int] = {}
_MEMO_LIMIT = 16_384

#: ASCII digit pairs ``00`` … ``99``, one row per value.
_PAIRS = np.frombuffer(
    "".join(f"{i:02d}" for i in range(100)).encode("ascii"), dtype=np.uint8
).reshape(100, 2)


def _total_microseconds(ts: float) -> int:
    """Whole microseconds in ``ts`` seconds, rounded half-to-even.

    Replicates ``datetime.timedelta(seconds=ts)`` normalization: the
    integral part converts exactly, the fractional part rounds to the
    nearest microsecond with banker's rounding — so the formatted stamp
    is byte-identical to the ``timestamp_to_datetime`` + ``strftime``
    reference for every float.
    """
    frac, whole = math.modf(ts)
    return int(whole) * _US_PER_SECOND + round(frac * 1e6)


def _date_of_day(day: int) -> str:
    """Memoized ``YYYY-MM-DD`` prefix for a day offset from the epoch."""
    date = _DATE_OF_DAY.get(day)
    if date is None:
        if len(_DATE_OF_DAY) >= _MEMO_LIMIT:
            _DATE_OF_DAY.clear()
        date = _dt.date.fromordinal(_EPOCH_ORDINAL + day).strftime("%Y-%m-%d")
        _DATE_OF_DAY[day] = date
    return date


def format_timestamp(ts: float) -> str:
    """Render seconds-since-epoch as ``YYYY-MM-DDTHH:MM:SS.ffffff``."""
    day, us = divmod(_total_microseconds(float(ts)), _US_PER_DAY)
    second, us = divmod(us, _US_PER_SECOND)
    minute, second = divmod(second, _SECONDS_PER_MINUTE)
    hour, minute = divmod(minute, _SECONDS_PER_MINUTE)
    return f"{_date_of_day(day)}T{hour:02d}:{minute:02d}:{second:02d}.{us:06d}"


def _stamp_matrix(times: np.ndarray | Iterable[float]) -> np.ndarray:
    """The stamps of ``times`` as one ``(n, 26)`` uint8 ASCII matrix.

    Byte-identical, row for row, to :func:`format_timestamp`: the µs
    normalization maps ``math.modf`` + ``round`` (half-even) to
    ``np.modf`` + ``np.rint`` — the same IEEE-754 operations.  Each
    distinct day's date is formatted once; clock fields are written as
    two-digit pairs.  Timestamps must stay within int64 µs range and
    render four-digit years (1000–9999, as every simulated stream
    does); the scalar codec has no such bound.
    """
    frac, whole = np.modf(np.asarray(times, dtype=np.float64))
    total_us = whole.astype(np.int64) * _US_PER_SECOND + np.rint(
        frac * 1e6
    ).astype(np.int64)
    day, us = np.divmod(total_us, _US_PER_DAY)
    second, us = np.divmod(us, _US_PER_SECOND)
    minute, second = np.divmod(second, _SECONDS_PER_MINUTE)
    hour, minute = np.divmod(minute, _SECONDS_PER_MINUTE)
    days, inverse = np.unique(day, return_inverse=True)
    dates = "".join(map(_date_of_day, days.tolist())).encode("ascii")
    stamps = np.empty((len(day), TIMESTAMP_WIDTH), dtype=np.uint8)
    stamps[:, :10] = np.frombuffer(dates, dtype=np.uint8).reshape(-1, 10)[inverse]
    stamps[:, 10:20] = np.frombuffer(b"T00:00:00.", dtype=np.uint8)
    for col, value in (
        (11, hour), (14, minute), (17, second),
        (20, us // 10_000), (22, us // 100 % 100), (24, us % 100),
    ):
        stamps[:, col : col + 2] = _PAIRS[value]
    return stamps


def format_timestamps(times: np.ndarray | Iterable[float]) -> list[str]:
    """Vectorized :func:`format_timestamp` over an array of timestamps.

    Element for element byte-identical to the scalar codec for stamps
    with four-digit years (the digit matrix of :func:`_stamp_matrix`).
    """
    rows = _stamp_matrix(times).view(f"S{TIMESTAMP_WIDTH}").ravel()
    return list(map(bytes.decode, rows.tolist()))


def _day_us(date: str) -> int:
    """µs from the epoch to midnight of a ``YYYY-MM-DD`` date.

    Memoized per distinct date; raises ``ValueError`` on exactly the
    dates ``strptime`` rejects (bad separators, non-digits, month 13,
    day 32, …).
    """
    day_us = _DAY_US_OF_DATE.get(date)
    if day_us is None:
        if len(date) != 10 or date[4] != "-" or date[7] != "-":
            raise ValueError(f"malformed date: {date!r}")
        if not (date[0:4].isdigit() and date[5:7].isdigit() and date[8:10].isdigit()):
            raise ValueError(f"malformed date: {date!r}")
        # datetime.date validates month/day ranges exactly like strptime.
        ordinal = _dt.date(int(date[0:4]), int(date[5:7]), int(date[8:10])).toordinal()
        day_us = (ordinal - _EPOCH_ORDINAL) * _US_PER_DAY
        if len(_DAY_US_OF_DATE) >= _MEMO_LIMIT:
            _DAY_US_OF_DATE.clear()
        _DAY_US_OF_DATE[date] = day_us
    return day_us


def parse_timestamp(stamp: str) -> float:
    """Decode ``YYYY-MM-DDTHH:MM:SS.ffffff`` to seconds since epoch.

    Raises ``ValueError`` for anything that is not a valid stamp of
    exactly that shape — the same inputs ``datetime.strptime`` rejects
    (bad separators, month 13, day 32, hour 24, minute/second 60, …).
    """
    if len(stamp) != TIMESTAMP_WIDTH or stamp[10] != "T":
        raise ValueError(f"malformed timestamp: {stamp!r}")
    day_us = _day_us(stamp[:10])
    if stamp[13] != ":" or stamp[16] != ":" or stamp[19] != ".":
        raise ValueError(f"malformed timestamp: {stamp!r}")
    # int() alone would admit signs and padding ("+1", " 1") that the
    # strptime reference rejects; require digit-only fields (isdigit
    # also keeps the non-ASCII decimal digits strptime's \d matches).
    fields = (stamp[11:13], stamp[14:16], stamp[17:19], stamp[20:26])
    if not all(f.isdigit() for f in fields):
        raise ValueError(f"malformed timestamp: {stamp!r}")
    hour, minute, second, us = map(int, fields)
    if hour > 23 or minute > 59 or second > 59:
        raise ValueError(f"time field out of range: {stamp!r}")
    total_us = (
        day_us
        + (hour * _SECONDS_PER_HOUR + minute * _SECONDS_PER_MINUTE + second)
        * _US_PER_SECOND
        + us
    )
    # One exact integer, one division: bit-identical to
    # (datetime - STUDY_EPOCH).total_seconds().
    return total_us / _US_PER_SECOND
