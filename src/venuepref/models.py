"""Domain types and ingestion for check-in data and external index tables."""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import itertools
import json
import os
import pickle
import stat
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from importlib import resources
from typing import BinaryIO, NamedTuple, Optional, Sequence

import numpy as np


class DataError(Exception):
    """Raised when input data violates a structural invariant."""


class Granularity(str, Enum):
    COUNTRY = "country"
    CITY = "city"


CSV_FIELDS = [
    "user_id",
    "gender",
    "venue_id",
    "category",
    "subcategory",
    "latitude",
    "longitude",
    "country",
    "city",
    "timestamp",
]


_TS_UNIT = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
NO_TIME = np.iinfo(np.int64).max  # the ts of a check-in with no timestamp: after every time


# coded string fields, the name of each one's value table, and the
# CSV_FIELDS field it holds
_CODED = {"user": ("users", "user_id"), "venue": ("venues", "venue_id"),
          "category": ("categories", "category"),
          "venue_subcategory": ("subcategories", "subcategory"),
          "country": ("countries", "country"), "city": ("cities", "city")}
# the fields with one entry per row
_COLUMNS = ("user", "venue", "category", "country", "city", "gender", "ts")


@dataclass(frozen=True, eq=False)
class CheckinTable:
    """Check-ins as columns, one row per check-in, in input order.

    Each string field is an int32 code into a sorted table of its distinct
    values (``users``, ``venues``, ``categories``, ``subcategories``,
    ``countries``, ``cities``), so code order is string order; a missing
    city is -1. A venue has one subcategory, whose code is its entry of
    ``venue_subcategory``. ``gender`` is int8, 1 = male and 0 = female.
    ``ts`` is the timestamp in microseconds since the epoch, or ``NO_TIME``
    where there is none. A subset (``take``) shares the value tables and
    ``venue_subcategory`` of its table.
    """

    user: np.ndarray
    venue: np.ndarray
    category: np.ndarray
    venue_subcategory: np.ndarray
    country: np.ndarray
    city: np.ndarray
    gender: np.ndarray
    ts: np.ndarray
    users: list[str]
    venues: list[str]
    categories: list[str]
    subcategories: list[str]
    countries: list[str]
    cities: list[str]

    def __len__(self) -> int:
        return len(self.user)

    def take(self, rows) -> "CheckinTable":
        """The rows ``rows`` (indices or a mask), in that order."""
        return replace(self, **{c: getattr(self, c)[rows] for c in _COLUMNS})


def rows_with(codes: np.ndarray, names: list[str], name: str) -> np.ndarray:
    """Indices of the rows whose code is that of ``name`` in the sorted
    value table ``names``."""
    i = bisect.bisect_left(names, name)
    if i == len(names) or names[i] != name:
        return np.empty(0, np.intp)
    return np.flatnonzero(codes == i)


def group_codes(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` (ints below ``size``) in ascending order and the
    position of each key among them, as ``np.unique(keys,
    return_inverse=True)`` gives them: by a lookup table where ``size`` is a
    few entries per key, else by that sort."""
    if size > 4 * len(keys):
        return np.unique(keys, return_inverse=True)
    used = np.bincount(keys, minlength=size) > 0
    return np.flatnonzero(used), (np.cumsum(used) - 1)[keys]


def pair_codes(a: np.ndarray, a_size: int, b: np.ndarray, b_size: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """``group_codes`` of the pairs (a, b) of codes below ``a_size`` and
    ``b_size``, numbered in (a, b) order; pair (a, b) is a * b_size + b."""
    return group_codes(a.astype(np.int64) * b_size + b, a_size * b_size)


def first_rows(codes: np.ndarray, size: int) -> np.ndarray:
    """Per code below ``size``, the index of its first entry in ``codes``,
    or ``len(codes)`` where it has none."""
    first = np.full(size, len(codes), np.intp)
    np.minimum.at(first, codes, np.arange(len(codes)))
    return first


def _assemble(coded: dict, **columns) -> CheckinTable:
    """A table from ``{column: (codes, value table)}`` of every coded column
    and the other columns."""
    return CheckinTable(**{column: codes for column, (codes, _) in coded.items()},
                        **{_CODED[column][0]: names
                           for column, (_, names) in coded.items()},
                        **columns)


@dataclass
class IndexTable:
    index_name: str
    entries: dict[str, float]


@dataclass
class IngestReport:
    """Lines read and accepted, then one count per reject reason."""

    total_lines: int = 0
    accepted: int = 0
    rejected_gender: int = 0
    bad_coordinates: int = 0
    missing_field: int = 0
    venue_conflict: int = 0
    unparseable: int = 0

    def reasons(self) -> dict[str, int]:
        """The count of each reject reason, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}

    @property
    def rejected(self) -> int:
        return sum(self.reasons().values())

    def as_dict(self) -> dict:
        return {"total_lines": self.total_lines, "accepted": self.accepted,
                "rejected": self.rejected, **self.reasons()}


_CHUNK_ROWS = 4096  # rows read by csv.reader or from jsonl, or written, at once
# bytes of csv lines cut at commas at once: a block costs ~3x its bytes while
# it is read (README, "Performance"); the file is never held whole
_BLOCK_BYTES = 3 << 19
_RAW_FIELDS = frozenset({"latitude", "longitude", "timestamp"})
_VENUE_RUN = slice(2, 9)  # the CSV_FIELDS that describe a venue, venue_id to city
_GENDERS = {"male": 1, "female": 0}


def _blank(value) -> bool:
    return value is None or not value.strip()


def _gender_flag(value) -> int:
    """1 male, 0 female, -1 another value, -2 blank; case and surrounding
    whitespace do not matter."""
    if _blank(value):
        return -2
    return _GENDERS.get(value.strip().lower(), -1)


def _city(value) -> Optional[str]:
    return (value or "").strip() or None


class _Strings:
    """Interned values of one string column: a code per distinct value, in
    the order the values are first met, and a flag per distinct value
    (``flag(value)``; by default whether it is blank)."""

    def __init__(self, flag=_blank):
        self.code: dict = {}
        self.flag = flag
        self.flags = np.zeros(0, np.int8)

    def __call__(self, values) -> np.ndarray:
        """The codes of ``values``, each a str or None."""
        code = self.code
        new = list(set(values).difference(code))
        if new:
            code.update(zip(new, range(len(code), len(code) + len(new))))
            self.flags = np.concatenate(
                [self.flags, np.array([self.flag(v) for v in new], np.int8)])
        return np.fromiter(map(code.__getitem__, values), np.int32, len(values))

    def finish(self, codes: np.ndarray, key=None) -> tuple[np.ndarray, list[str]]:
        """``_value_table`` of the values that ``codes`` use, after ``key`` if
        given: -1 for a value unused, or that is or becomes None."""
        values = list(self.code) if key is None else list(map(key, self.code))
        used = np.bincount(codes, minlength=len(values)).tolist()
        return _value_table([v if n else None for v, n in zip(values, used)])


def _value_table(values: list) -> tuple[np.ndarray, list[str]]:
    """Positions of ``values`` in their sorted table without None (-1 for None), and the table."""
    position = {name: i for i, name in enumerate(sorted(set(values) - {None}))}
    return np.array([position.get(v, -1) for v in values], np.int32), list(position)


def _or_none(parse, value):
    """``parse(value)``, or None where it refuses the value."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge jsonl int
        return None


def _floats(values) -> tuple[np.ndarray, np.ndarray]:
    """The floats of a column, nan where ``float`` refuses a value, and the
    mask of blank values (None or only whitespace)."""
    n = len(values)
    try:
        return np.fromiter(map(float, values), float, n), np.zeros(n, bool)
    except (TypeError, ValueError, OverflowError):
        return (np.array([_or_none(float, v) for v in values], float),  # None -> nan
                np.array([v is None or (isinstance(v, str) and not v.strip())
                          for v in values], bool))


# The one timestamp form read as an array, as ``datetime.isoformat`` writes
# whole seconds with an offset in minutes; every "0" stands for a digit.
_ISO_FORM = b"0000-00-00T00:00:00+00:00"
_ISO_DIGITS = [i for i, c in enumerate(_ISO_FORM) if c == ord("0")]
_ISO_SIGN = _ISO_FORM.index(b"+")
_ISO_MARKS = [i for i, c in enumerate(_ISO_FORM) if c not in b"0+"]
_ISO_MARK_BYTES = np.frombuffer(_ISO_FORM, np.uint8)[_ISO_MARKS]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], np.int32)


def _fixed_width_micros(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch of the timestamps of ``_ISO_FORM``, one
    per row of an (n, 25) uint8 matrix, and the mask of the rows in that
    form with every field in range, the day within its month; the
    microseconds of any other row are meaningless."""
    digits = chars[:, _ISO_DIGITS] - np.uint8(ord("0"))  # a non-digit wraps past 9
    sign = chars[:, _ISO_SIGN]
    fits = ((digits <= 9).all(1) & (chars[:, _ISO_MARKS] == _ISO_MARK_BYTES).all(1)
            & ((sign == ord("+")) | (sign == ord("-"))))
    pairs = (digits[:, 0::2] * np.uint8(10) + digits[:, 1::2]).astype(np.int32)
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second, offset_hour, offset_minute = pairs[:, 2:].T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    # a month past 12 fails the range check; np.minimum keeps it in the table
    month_days = _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2))
    fits &= ((year >= 1) & (month >= 1) & (month <= 12)
             & (day >= 1) & (day <= month_days)
             & (hour <= 23) & (minute <= 59) & (second <= 59)
             & (offset_hour <= 23) & (offset_minute <= 59))
    # days since 1970-01-01 from the civil date, in years that start in March
    march_year = year - (month <= 2)
    era = march_year // 400
    year_of_era = march_year - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100
            + day_of_year - 719468)
    offset = (offset_hour * 60 + offset_minute) * np.where(sign == ord("-"), -60, 60)
    seconds = days.astype(np.int64) * 86400 + (hour * 3600 + minute * 60 + second - offset)
    return seconds * 1_000_000, fits


def _timestamps(values, chars=None) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch of a column of ISO 8601 timestamps,
    ``NO_TIME`` where there is none (None or "") or it does not parse, and
    the mask of the values that do not parse.

    A column of ASCII strings all as wide as ``_ISO_FORM`` is read as one
    byte matrix, ``chars`` if given (then ``values`` is not read); its rows
    not in that form, or with a field out of range, are decoded and parsed
    one by one as any other column is."""
    if chars is None:
        try:
            blob = "".join(values)
        except TypeError:  # a None, or a jsonl value that is not a str
            return _parsed_timestamps(values)
        if not blob.isascii() or set(map(len, values)) != {len(_ISO_FORM)}:
            return _parsed_timestamps(values)
        chars = np.frombuffer(blob.encode("ascii"), np.uint8).reshape(-1, len(_ISO_FORM))
    micros, fits = _fixed_width_micros(chars)
    bad = np.zeros(len(chars), bool)
    rows = np.flatnonzero(~fits)
    if len(rows):
        micros[rows], bad[rows] = _parsed_timestamps(
            [row.tobytes().decode() for row in chars[rows]])
    return micros, bad


def _fromisoformat(value: str) -> datetime:
    """``datetime.fromisoformat`` of a str longer than a date only if it is a
    ``YYYY-MM-DD`` date, then ``T``, ``t`` or a space and a time, then at
    most a UTC offset, ``Z`` or ``±HH:MM`` with minutes below 60; else a
    ValueError. So Python 3.10 and later read the same values."""
    if isinstance(value, str) and len(value) > 10:
        if value[10] not in "Tt " or value[7] != "-":
            raise ValueError(f"no YYYY-MM-DD date and T, t or space: {value!r}")
        value = value.replace("Z", "+00:00")  # 3.10 reads no Z; a Z mid-value fails
        stamp = datetime.fromisoformat(value)
        # fromisoformat has checked that an offset's fields are ASCII digits
        if stamp.tzinfo is not None and not (
                value[-6] in "+-" and value[-3] == ":" and value[-2] < "6"):
            raise ValueError(f"UTC offset not Z or ±HH:MM: {value!r}")
        return stamp
    return datetime.fromisoformat(value)


def _parsed_timestamps(values) -> tuple[np.ndarray, np.ndarray]:
    """``_timestamps``, each value parsed by ``_fromisoformat``; a naive
    time is read as UTC."""
    stamps = [_or_none(_fromisoformat, v) for v in values]
    micros = [NO_TIME if ts is None else
              ((ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)) - _EPOCH) // _TS_UNIT
              for ts in stamps]
    bad = [ts is None and v is not None and v != "" for ts, v in zip(stamps, values)]
    return np.array(micros, np.int64), np.array(bad, bool)


class _Column(NamedTuple):
    """One field of a chunk of rows: the value of row i is ``values[i]``, or
    ``values[rows[i]]`` if ``rows`` is given. ``chars`` is the (n, 25) byte
    matrix of a timestamp column whose every value is as wide as
    ``_ISO_FORM``, if the reader has it; it holds the values then."""

    values: Sequence
    rows: Optional[np.ndarray] = None
    chars: Optional[np.ndarray] = None

    def per_row(self, per_value: np.ndarray) -> np.ndarray:
        """An array of one entry per value in ``values`` as one per row."""
        return per_value if self.rows is None else per_value[self.rows]


class _AcceptedRows:
    """The accepted rows of a check-in file, validated a chunk of rows at a
    time. A row is rejected for the first rule it breaks, in this order:
    a blank required field, gender, coordinates (unparseable or out of
    range), an unparseable timestamp (counted as a missing field), and a
    subcategory other than the one its venue already has. Only a row that
    breaks none of the other rules claims its venue's subcategory."""

    def __init__(self, report: IngestReport):
        self.report = report
        self.strings = {column: _Strings() for column in _CODED}
        self.gender = _Strings(_gender_flag)
        self.claims = np.zeros(0, np.int32)  # per venue code: subcategory code, or -1
        self.parts = {column: [] for column in _COLUMNS}

    def add(self, chunk) -> None:
        """Keep the rows of one chunk that break no rule: what ``validate``
        reads, or a worker's ``_RangeRows``, claimed a block at a time."""
        if isinstance(chunk, _RangeRows):
            blocks = self.merge(chunk)
            while blocks:  # popped: a copy without its conflicts replaces a block
                self.claim(blocks.pop(0))
        else:
            self.claim(self.validate(chunk))

    def validate(self, columns) -> dict:
        """Check one chunk, given as a ``_Column`` per CSV_FIELDS field in
        that order, each read before the next is taken: the string fields
        hold str or None, the coordinates and timestamp raw values. Counts
        the rows that break a rule other than the venue's subcategory, and
        returns the columns of codes, gender and ts of the other rows."""
        coded = {field: column for column, (_, field) in _CODED.items()}
        codes, blank_coordinate, in_range = {}, False, True
        for field, column in zip(CSV_FIELDS, columns):
            if field in coded:
                codes[coded[field]] = column.per_row(self.strings[coded[field]](column.values))
            elif field == "gender":
                gender = column.per_row(self.gender(column.values))
                gender = self.gender.flags[gender]  # interned first: flags grow with it
            elif field == "timestamp":
                ts, ts_bad = map(column.per_row, _timestamps(column.values, column.chars))
            else:  # latitude, then longitude: checked per value, not kept
                value, blank = _floats(column.values)
                limit = 90.0 if field == "latitude" else 180.0  # nan is not in range
                blank_coordinate = blank_coordinate | column.per_row(blank)
                in_range = in_range & column.per_row((-limit <= value) & (value <= limit))

        missing = blank_coordinate | (gender == -2)  # -2: a blank gender
        for column in ("user", "venue", "category", "venue_subcategory", "country"):
            missing |= self.strings[column].flags[codes[column]].astype(bool)
        bad_gender = ~missing & (gender == -1)  # neither male nor female
        ok = ~missing & ~bad_gender
        bad_coordinates = ok & ~in_range
        ok &= in_range
        bad_ts = ok & ts_bad
        ok &= ~ts_bad

        report = self.report
        report.missing_field += int(missing.sum() + bad_ts.sum())
        report.rejected_gender += int(bad_gender.sum())
        report.bad_coordinates += int(bad_coordinates.sum())
        rows = np.flatnonzero(ok)
        return {column: values[rows]
                for column, values in dict(codes, gender=gender, ts=ts).items()}

    def merge(self, chunk: "_RangeRows") -> list[dict]:
        """The ``validate`` columns of each block of a range that a worker
        checked: its counts are added, and its codes become, in place, codes
        of this file's values."""
        for field in fields(chunk.report):
            setattr(self.report, field.name,
                    getattr(self.report, field.name) + getattr(chunk.report, field.name))
        for column, values in chunk.values.items():
            recode = self.strings[column](values)
            for kept in chunk.blocks:
                np.take(recode, kept[column], out=kept[column])
        return chunk.blocks

    def claim(self, kept: dict) -> None:
        """Keep the rows of the columns ``kept`` whose subcategory is that
        of their venue; a venue's first such row, in file order, claims it."""
        venue, subcategory = kept["venue"], kept["venue_subcategory"]
        grown = len(self.strings["venue"].code) - len(self.claims)
        self.claims = np.concatenate([self.claims, np.full(grown, -1, np.int32)])
        first = first_rows(venue, len(self.claims))
        claim = (first < len(venue)) & (self.claims == -1)
        self.claims[claim] = subcategory[first[claim]]
        conflict = self.claims[venue] != subcategory
        if conflict.any():
            kept = {column: values[~conflict] for column, values in kept.items()}

        self.report.venue_conflict += int(conflict.sum())
        self.report.accepted += len(kept["venue"])
        for column in _COLUMNS:
            self.parts[column].append(kept[column])

    def table(self) -> CheckinTable:
        """The accepted rows; each column's chunks are dropped once joined.
        Each venue gets the subcategory that its first accepted row claimed."""
        dtypes = dict.fromkeys(_COLUMNS, np.int32)
        dtypes.update(gender=np.int8, ts=np.int64)
        columns = {column: np.concatenate([np.empty(0, dtype), *self.parts.pop(column)])
                   for column, dtype in dtypes.items()}
        recoded = {column: self.strings[column].finish(
                       columns[column], _city if column == "city" else None)
                   for column in _CODED if column in columns}
        coded = {column: (recode[columns.pop(column)], names)
                 for column, (recode, names) in recoded.items()}
        venue = recoded["venue"][0]  # per interned venue: its code, or -1 if unused
        claims, venue = self.claims[venue >= 0], venue[venue >= 0]
        recode, names = self.strings["venue_subcategory"].finish(claims)
        venue_subcategory = np.empty(len(venue), np.int32)
        venue_subcategory[venue] = recode[claims]
        coded["venue_subcategory"] = venue_subcategory, names
        return _assemble(coded, **columns)


@contextlib.contextmanager
def csv_reader(source: BinaryIO, head=b"", lines_before: int = 0, offset: int = 0):
    """A ``csv.reader`` of the bytes ``head`` and then of ``source``, decoded
    by ``_text_lines``; ``head`` starts at byte ``offset`` of the file, after
    ``lines_before`` lines. It refuses a line holding a NUL, as the csv
    module does only before Python 3.11. Its errors, say a field past the
    csv module's size limit, are DataErrors naming the line, counted from
    the start of the file."""
    def lines():
        text = _text_lines(source, "csv", head, lines_before, offset)
        for number, line in enumerate(text, lines_before + 1):
            if "\0" in line:
                raise DataError(f"csv line {number}: line contains NUL")
            yield line

    reader = csv.reader(lines())
    try:
        yield reader
    except csv.Error as exc:
        raise DataError(f"csv line {lines_before + reader.line_num}: {exc}") from exc


def _cut(chunk, end: int, min_fields: int):
    """The end offsets of the fields of the csv lines ``chunk[:end]``, each
    ending in a newline, as a (lines, fields) int32 array, and those of the
    newlines; or None unless the csv dialect reads every line as a split at
    each comma: UTF-8 with no quote or NUL, a CR only in a CRLF line end,
    the same number of fields on every line, at least ``min_fields``, and no
    line, line end included, longer than the csv field size limit."""
    crlf = chunk.find(b"\r", 0, end) >= 0  # a lone one ends a line of text, and is not read here
    if (chunk.find(b'"', 0, end) >= 0 or chunk.find(b"\0", 0, end) >= 0
            or crlf and chunk.count(b"\r", 0, end) != chunk.count(b"\r\n", 0, end)):
        return None
    try:
        str(memoryview(chunk)[:end], "utf-8")  # only checked, and freed at once
    except UnicodeDecodeError:
        return None  # the csv.reader path reads the lines as text, and fails
    data = np.frombuffer(chunk, np.uint8, end)
    ends = data == ord(",")  # a field ends at a comma or a newline
    ends |= data == ord("\n")
    ends = np.flatnonzero(ends)
    line_ends = ends[data[ends] == ord("\n")]
    per_line, odd = divmod(len(ends), len(line_ends))
    # every per_line-th end is a newline, and there are no others
    if (odd or per_line < min_fields or (ends[per_line - 1::per_line] != line_ends).any()
            or np.diff(line_ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    ends = ends.astype(np.int32).reshape(-1, per_line)
    if crlf:  # a line's last field ends before its CR
        ends[:, -1] -= data[line_ends - 1] == ord("\r")
    return ends, line_ends


# the low r bytes of a word, by r; and the odd factor of the field hash
_WORD_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)
_HASH_FACTOR = np.uint64(0x9E3779B97F4A7C15)
# the bytes of a field read as words; past them, a field is hashed and
# compared as bytes, so a long field costs no numpy pass per word. A span of
# venue fields with a 24-hex venue id, full-precision coordinates and
# Foursquare category names fits (README, "Performance")
_WORD_BYTES = 160
_ISO_WORDS = np.arange(0, len(_ISO_FORM), 8)  # byte offsets of the words of a timestamp


def _groups(chunk, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of one column of a byte chunk (bytes or a bytearray) grouped
    by their bytes: a row of each group, and each row's group. Rows of one
    group hold the same bytes; rows with the same bytes share a group unless
    their hash is shared by other bytes, which at most repeats a value.

    ``words[i]`` is the little-endian 8-byte word at byte i of ``chunk``. A
    field's first ``_WORD_BYTES`` are read as words, zero past its end: with
    no NUL in the chunk, its length and words tell those bytes apart from
    any other field's. The rest of a longer field is hashed by ``hash``.
    The rows are sorted by a hash of all that, and a group is a run of rows
    with the same hash, length, words and rest."""
    def word(rows, k):
        value = words[starts[rows] + 8 * k]
        if shortest < 8 * k + 8:  # some field ends within it
            value &= _WORD_MASKS[np.minimum(lengths[rows] - 8 * k, 8)]
        return value

    n, shortest = len(starts), lengths.min()
    head = word(slice(None), 0)
    keys = head.copy()  # a field of up to 8 bytes is its own key
    tail = []  # per word after the first: the rows that have it, and it
    k = 1
    while 8 * k < _WORD_BYTES and len(rows := np.flatnonzero(lengths > 8 * k)):
        if len(rows) == n:
            rows = slice(None)  # a view, not a copy
        tail.append((rows, word(rows, k)))
        keys[rows] = keys[rows] * _HASH_FACTOR + tail[-1][1]
        k += 1
    long = np.flatnonzero(lengths > _WORD_BYTES)
    rests = {row: bytes(chunk[start + _WORD_BYTES:start + length]) for row, start, length
             in zip(long.tolist(), starts[long].tolist(), lengths[long].tolist())}
    keys[long] = keys[long] * _HASH_FACTOR + np.array(
        list(map(hash, rests.values())), np.int64).view(np.uint64)
    order = np.argsort(keys)
    twin = np.ones(n - 1, bool)  # per sorted row but the first: same bytes as the last
    checks = [(slice(None), keys)]
    if tail:  # a hash of more than one word may be shared
        checks += [(slice(None), lengths), (slice(None), head), *tail]
    for rows, values in checks:
        if not isinstance(rows, slice):  # zero where a row has no such word
            values, by_row = np.zeros(n, values.dtype), values
            values[rows] = by_row
        ordered = values[order]
        twin &= ordered[1:] == ordered[:-1]
    for i in np.flatnonzero(twin & (lengths[order[1:]] > _WORD_BYTES)).tolist():
        twin[i] = rests[int(order[i])] == rests[int(order[i + 1])]
    new = np.concatenate([[True], ~twin])
    group = np.empty(n, np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _decoded(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> str:
    """The fields ``data[start:start + length]`` of the csv bytes ``data``,
    decoded at once, each followed by a comma in place of its delimiter."""
    ends = np.cumsum(lengths + 1, dtype=np.int32)  # past each field's delimiter
    # the offset in data of each byte taken: steps of 1, and a jump to each field
    index = np.ones(ends[-1], np.int32)
    index[0] = starts[0]
    index[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1]
    buffer = data[np.cumsum(index, dtype=np.int32, out=index)]
    del index
    buffer[ends - 1] = ord(",")
    return str(buffer.data, "utf-8")


def _byte_columns(chunk: bytearray, end: int, ends, line_ends, positions: list[int]):
    """The ``_Column``s at ``positions`` of the csv lines ``chunk[:end]``,
    one at a time, from their ``_cut`` (``ends``, ``line_ends``); the last
    word read ends 7 bytes past ``end``. A column holds a field's distinct
    values and each row's index among them, or, for timestamps as wide as
    ``_ISO_FORM``, their byte matrix. Where the venue fields are side by
    side and every line's span of them fits in ``_WORD_BYTES``, each span
    is grouped once, and each of their columns holds its field of every
    distinct span. None refers to ``chunk``."""
    words = np.ndarray((end,), "<u8", chunk, 0, (1,))  # unaligned, one per byte
    data = np.frombuffer(chunk, np.uint8, end)
    line_starts = np.concatenate([[0], line_ends[:-1] + 1])

    def starts(position):
        return ends[:, position - 1] + 1 if position else line_starts

    fields = list(zip(CSV_FIELDS, positions, positions))  # a field, its first and last column
    run = positions[_VENUE_RUN]
    # a longer span's rest is hashed and compared per row, which is slower
    # than grouping its fields one at a time
    if (run == list(range(run[0], run[0] + len(run)))
            and (ends[:, run[-1]] - starts(run[0])).max() <= _WORD_BYTES):
        fields[_VENUE_RUN] = [("venue span", run[0], run[-1])]
    for field, position, last in fields:
        start = starts(position)
        lengths = ends[:, last] - start
        if field == "timestamp" and (lengths == len(_ISO_FORM)).all():
            # the words that cover each timestamp, as bytes
            chars = words[start[:, None] + _ISO_WORDS].view(np.uint8)[:, :len(_ISO_FORM)]
            yield _Column(None, chars=chars)
            continue
        first, rows = _groups(chunk, words, start, lengths)
        # no field holds a comma, so a span's text splits into its fields too
        values = _decoded(data, start[first], lengths[first]).split(",")
        values.pop()  # the empty rest after the last comma
        width = last - position + 1  # a column per field of a span
        for j in range(width):
            yield _Column(values[j::width] if width > 1 else values, rows)
        del values  # freed before the next field is grouped


def _positions(header: list[str]) -> list[int]:
    """The column of each CSV_FIELDS field in ``header``, the last of a
    repeated name."""
    if missing := [f for f in CSV_FIELDS if f not in header]:
        raise DataError(f"csv header missing columns: {missing}")
    last = {name: i for i, name in enumerate(header)}
    return [last[f] for f in CSV_FIELDS]


def _row_columns(rows, positions, report: IngestReport):
    """The ``_Column``s at ``positions`` of successive chunks of
    ``_CHUNK_ROWS`` rows, each a list of values, counted as lines read; a
    row shorter than the last position reads None past its end."""
    width = max(positions) + 1
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        report.total_lines += len(chunk)
        if min(map(len, chunk)) < width:
            chunk = [row + [None] * (width - len(row)) for row in chunk]
        columns = list(zip(*chunk))
        yield [_Column(columns[p]) for p in positions]
        del chunk, columns  # freed before the next chunk is read


def _blocks(readinto, positions: list[int], report: IngestReport, lines_read: int,
            offset: int):
    """The ``_byte_columns`` of successive blocks of whole csv lines of up to
    ``_BLOCK_BYTES``, read by ``readinto`` into one buffer once the last
    block's columns are freed; the first starts at byte ``offset`` of the
    file, after ``lines_read`` lines. Returns None when the bytes run out,
    or at the first block that cannot be cut, say one line longer than a
    block, csv_reader's first bytes, the lines before them and their offset."""
    block = bytearray(_BLOCK_BYTES + 8)  # the last word read may pass a full block
    filled = 0  # bytes in the block
    while True:
        while filled < _BLOCK_BYTES and (n := readinto(memoryview(block)[filled:_BLOCK_BYTES])):
            filled += n
        if not filled:
            return None
        end = block.rfind(b"\n", 0, filled) + 1
        if filled < _BLOCK_BYTES and end < filled:  # the file's last line has no line end
            block[filled] = ord("\n")
            end = filled + 1
        cut = _cut(block, end, max(positions) + 1) if end else None
        if cut is None:
            return block[:filled], lines_read, offset
        lines_read += len(cut[1])
        report.total_lines += len(cut[1])
        yield _byte_columns(block, end, *cut, positions)
        del cut  # freed, as the columns are, before the next block is read
        end = min(end, filled)
        block[:filled - end] = block[end:filled]  # the start of a line, for the next block
        filled -= end
        offset += end


def _limited(readinto, size: int):
    """``readinto`` that reads at most ``size`` bytes in all."""
    def read(view) -> int:
        nonlocal size
        n = readinto(view[:size])
        size -= n
        return n
    return read


def _pread_from(fd: int, offset: int):
    """A ``readinto`` of the file ``fd`` from byte ``offset`` on, by
    ``os.preadv``, which leaves the file's position as it is."""
    def read(view) -> int:
        nonlocal offset
        n = os.preadv(fd, [view], offset)
        offset += n
        return n
    return read


# the bytes each of the two ranges of a split file holds at least: one
# block as set here, whatever _BLOCK_BYTES is set to later
_RANGE_BYTES = _BLOCK_BYTES


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _other_cpus() -> set[int]:
    """The CPUs this process may run on but the one the calling thread runs
    on; all of them where /proc does not say which. A forked process starts
    on its parent's CPU, and the kernel may leave it there while another
    CPU idles (README, "Performance")."""
    usable = os.sched_getaffinity(0)
    with contextlib.suppress(OSError), open("/proc/thread-self/stat", "rb") as stat_file:
        usable.discard(int(stat_file.read().rsplit(b")", 1)[1].split()[36]))  # field 39
    return usable


def _split(source: BinaryIO) -> Optional[int]:
    """The line start that splits the rest of ``source`` into two ranges of
    at least ``_RANGE_BYTES``: the first for the stream, the second for a
    worker. None where ``source`` is no regular file of a Linux process
    that can fork and may run on two CPUs, or the rest is shorter."""
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")):
        return None
    try:
        fd = source.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation: in memory
        return None
    info, start = os.fstat(fd), source.tell()
    if (not stat.S_ISREG(info.st_mode) or info.st_size - start < 2 * _RANGE_BYTES
            or _usable_cpus() < 2):
        return None
    at = start + (info.st_size - start) // 2
    # the first line start at or past ``at``: the byte after a newline
    while (chunk := os.pread(fd, 1 << 16, at - 1)) and (newline := chunk.find(b"\n")) < 0:
        at += len(chunk)
    return at + newline if chunk and at + newline < info.st_size else None


class _RangeRows(NamedTuple):
    """What a worker sends of its range: its report (the lines read and the
    rows rejected by ``validate``), the ``validate`` columns of the rows of
    each block that pass, and per coded column its interned values in code
    order."""

    report: IngestReport
    blocks: list
    values: dict


def _range_rows(fd: int, start: int, positions: list[int]) -> Optional[_RangeRows]:
    """The rows of the csv lines of the file ``fd`` from byte ``start`` on,
    or None if a block of them cannot be cut at commas."""
    accepted = _AcceptedRows(IngestReport())
    blocks = _blocks(_pread_from(fd, start), positions, accepted.report, 0, start)
    kept = []
    try:
        while True:
            kept.append(accepted.validate(next(blocks)))
    except StopIteration as end:
        if end.value is not None:
            return None
    return _RangeRows(accepted.report, kept,
                      {column: list(strings.code) for column, strings in accepted.strings.items()})


class _Worker(NamedTuple):
    pid: int
    pipe: BinaryIO  # the read end of the pipe it sends its rows through


def _fork(fd: int, start: int, positions: list[int]) -> _Worker:
    """A forked process, on the usable CPUs but the caller's, that sends the
    pickled ``_range_rows`` of the file ``fd`` from byte ``start`` on. It
    runs the block functions only, never BLAS, and leaves by ``os._exit``:
    it never unwinds into the caller nor flushes the stdio it inherits."""
    import fcntl

    cpus = _other_cpus()
    read, write = os.pipe()
    with contextlib.suppress(OSError):  # a pipe that holds the rows spares round trips
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 20)
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if not pid:
        status = 1
        try:
            import gc

            gc.disable()  # no finalizer of an object of the parent runs here
            os.close(read)
            with open(write, "wb") as sink:
                pickle.dump(_range_rows(fd, start, positions), sink, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with contextlib.suppress(OSError):  # before it first runs, as a rule; one CPU: no set
        os.sched_setaffinity(pid, cpus)
    return _Worker(pid, open(read, "rb"))


def _collect(worker: _Worker) -> Optional[_RangeRows]:
    """The rows of ``worker``, read to the end of its pipe, once it is
    reaped; None if it failed or its range needs csv.reader."""
    with worker.pipe:
        try:
            rows = pickle.load(worker.pipe)
        except (EOFError, pickle.UnpicklingError):  # it ended before it sent all
            rows = None
        worker.pipe.read()
    status = os.waitpid(worker.pid, 0)[1]
    return rows if status == 0 else None


def _end(worker: _Worker) -> None:
    """Kill and reap ``worker``."""
    import signal

    os.kill(worker.pid, signal.SIGKILL)
    worker.pipe.close()
    os.waitpid(worker.pid, 0)


def _csv_columns(source: BinaryIO, report: IngestReport):
    """The CSV_FIELDS columns of successive chunks of csv rows, read as
    ``csv.DictReader`` reads them: empty rows are skipped, a repeated header
    name reads its last column, and a short row reads None past its end.

    The header line, then ``_blocks`` of the lines after it, are cut at
    commas until the first block that cannot be; it and the rest of the file
    go through ``csv_reader``. Where ``_split`` splits the file, the stream
    reads the first range and a forked worker reads and validates the
    second: its ``_RangeRows`` follow the stream's columns. Where the worker
    fails or its range needs csv.reader, the stream reads that range too, as
    it reads the rest of an unsplit file."""
    head = source.readline()
    if not head:
        return
    # rest: csv_reader's first bytes, the lines before them and their offset
    if _cut(line := head.rstrip(b"\n") + b"\n", len(line), 1) is None:
        rest, positions = (head, 0, 0), None
    else:
        positions = _positions(head.decode().rstrip("\r\n").split(","))
        split, worker, read = _split(source), None, source.readinto
        try:
            if split is not None:
                with contextlib.suppress(OSError):  # say, no process left: one reads all
                    worker = _fork(source.fileno(), split, positions)
                    read = _limited(read, split - source.tell())
            rest = yield from _blocks(read, positions, report, 1, len(head))
            if worker is not None and rest is None:
                rows, worker = _collect(worker), None
                if rows is not None:
                    yield rows
                    return
                # the stream is at the split, after every line the report counts
                rest = yield from _blocks(source.readinto, positions, report,
                                          1 + report.total_lines, split)
        finally:
            if worker is not None:  # its rows are not read
                _end(worker)
        if rest is None:
            return
    with csv_reader(source, *rest) as reader:
        if positions is None:
            positions = _positions(next(reader, []))
        yield from _row_columns(filter(None, reader), positions, report)


def _text_lines(source: BinaryIO, kind: str, head=b"", number: int = 0, offset: int = 0):
    """The lines of the bytes ``head`` and then of ``source``, decoded, as a
    text stream with universal newlines reads them; ``head`` starts at byte
    ``offset`` of the file, after ``number`` lines. A byte that is not UTF-8
    is a DataError naming its ``kind`` line and its offset in the file."""
    for line in itertools.chain(io.BytesIO(head + source.readline()), source):
        try:
            text = line.decode()
        except UnicodeDecodeError as exc:
            before = line[:exc.start]  # a lone CR in it ends a line of text
            number += 1 + before.count(b"\r") - before.count(b"\r\n")
            raise DataError(f"{kind} line {number}: input is not valid UTF-8: byte "
                            f"0x{line[exc.start]:02x} at offset {offset + exc.start} "
                            f"of the file ({exc.reason})") from exc
        offset += len(line)
        if "\r" in text:  # CRLF and lone CR line ends read as LF
            *ended, text = text.replace("\r\n", "\n").split("\r")
            number += len(ended)
            yield from (part + "\n" for part in ended)
        if text:  # not a lone CR's empty rest
            number += 1
            yield text


def _jsonl_rows(source: BinaryIO, report: IngestReport):
    """The CSV_FIELDS values of each JSON object line of ``source``, in the
    form the csv reader gives them: a string field is made ``str`` unless
    it is None (a falsy city is None); coordinates and timestamp stay as
    they are, but a boolean becomes its JSON text, which is neither a number
    nor a time. A non-blank line that is not a JSON object, or nests too
    deeply to parse, is counted as unparseable."""
    for line in _text_lines(source, "jsonl"):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            row = None
        if not isinstance(row, dict):
            report.total_lines += 1
            report.unparseable += 1
            continue
        values = []
        for field in CSV_FIELDS:
            value = row.get(field)
            if field == "city":
                value = value or None
            if field not in _RAW_FIELDS and value is not None:
                value = str(value)
            elif isinstance(value, bool):  # float(True) is 1.0
                value = json.dumps(value)
            values.append(value)
        yield values


def ingest_checkins(source: BinaryIO, fmt: str) -> tuple[CheckinTable, IngestReport]:
    """Read the check-ins of a UTF-8 byte stream in csv or jsonl format into
    a CheckinTable, a chunk of rows at a time.

    Malformed lines are dropped and counted by reason in the report; more
    than 50% rejected lines aborts with DataError.
    """
    if fmt not in ("csv", "jsonl"):
        raise DataError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")
    report = IngestReport()
    accepted = _AcceptedRows(report)
    chunks = (_csv_columns(source, report) if fmt == "csv" else _row_columns(
        _jsonl_rows(source, report), range(len(CSV_FIELDS)), report))
    with contextlib.closing(chunks):  # which ends any worker left
        for chunk in chunks:
            accepted.add(chunk)
            del chunk  # freed before the next block is read
    if report.total_lines > 0 and report.rejected > report.total_lines / 2:
        raise DataError(
            f"{report.rejected} of {report.total_lines} lines rejected "
            f"(>50%); refusing to continue: {report.as_dict()}"
        )
    return accepted.table(), report


def _field_values(table: CheckinTable, rows: slice, coordinates: tuple) -> list[list]:
    """The CSV_FIELDS values of ``rows`` of ``table``, a list per field: str,
    but a coordinate is the value of ``coordinates`` (the latitude and the
    longitude column) at its row; a missing city or timestamp is empty and a
    timestamp is ISO 8601 in UTC."""
    def strings(codes, names):
        return list(map(names.__getitem__, codes.tolist()))

    venue = table.venue[rows]
    stamps = ["" if ts == NO_TIME else (_EPOCH + ts * _TS_UNIT).isoformat()
              for ts in table.ts[rows].tolist()]
    return [strings(table.user[rows], table.users),
            strings(table.gender[rows], ("female", "male")),
            strings(venue, table.venues), strings(table.category[rows], table.categories),
            strings(table.venue_subcategory[venue], table.subcategories),
            coordinates[0][rows].tolist(), coordinates[1][rows].tolist(),
            strings(table.country[rows], table.countries),
            strings(table.city[rows], [*table.cities, ""]),  # code -1, no city, reads ""
            stamps]


def _reprs(values: np.ndarray) -> np.ndarray:
    """The repr of each float of ``values``, as an object array; each
    distinct value (by its bits) is formatted once."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(value) for value in bits.view(float).tolist()], object)[index]


def write_checkins(table: CheckinTable, coordinates: tuple, sink, fmt: str = "csv") -> None:
    """Write the check-ins of ``table`` and their ``coordinates`` (a float array
    of latitudes and one of longitudes) in the ingest schema to a text sink,
    a chunk of rows at a time; a coordinate is the repr of its float."""
    if fmt not in ("csv", "jsonl"):
        raise DataError(f"unknown format {fmt!r}")
    if [len(values) for values in coordinates] != [len(table)] * 2:
        raise ValueError("write_checkins needs one latitude and one longitude per row")
    if fmt == "csv":  # jsonl keeps the floats, which json.dumps would quote as str
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        coordinates = tuple(map(_reprs, coordinates))
    for start in range(0, len(table), _CHUNK_ROWS):
        rows = zip(*_field_values(table, slice(start, start + _CHUNK_ROWS), coordinates))
        if fmt == "csv":
            writer.writerows(rows)
        else:
            sink.write("".join(json.dumps(dict(zip(CSV_FIELDS, row))) + "\n"
                               for row in rows))


def ingest_index_table(source: BinaryIO, index_name: str = "INDEX") -> IndexTable:
    """Parse a two-column country,value CSV into an IndexTable."""
    with csv_reader(source) as lines:
        reader = iter(list(lines))
    header = next(reader, None)
    if header is None:
        raise DataError("index table is empty")
    entries: dict[str, float] = {}
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise DataError(f"index row has fewer than two columns: {row}")
        country = row[0].strip()
        try:
            value = float(row[1])
        except ValueError as exc:
            raise DataError(f"index value for {country!r} not a number: {row[1]!r}") from exc
        if country in entries:
            raise DataError(f"duplicate country in index table: {country!r}")
        if not (0.0 <= value <= 1.0):
            raise DataError(f"index value for {country!r} out of [0, 1]: {value}")
        entries[country] = value
    return IndexTable(index_name=index_name, entries=entries)


def load_bundled_index(name: str) -> IndexTable:
    """Load a packaged reference index table ('GII' or 'HDI', 2014 values)."""
    files = {"GII": "gii_2014.csv", "HDI": "hdi_2014.csv"}
    if name not in files:
        raise DataError(f"no bundled index named {name!r}; choose from {sorted(files)}")
    data = resources.files("venuepref.data").joinpath(files[name]).read_bytes()
    return ingest_index_table(io.BytesIO(data), index_name=name)
