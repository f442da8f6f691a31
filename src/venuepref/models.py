"""Domain types and ingestion for check-in data and external index tables."""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import itertools
import json
import operator
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from importlib import resources
from typing import BinaryIO, Optional

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


@dataclass(frozen=True)
class RegionSelector:
    granularity: Granularity
    name: str


_TS_UNIT = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_DAY = _EPOCH.toordinal()


def _micros(stamps: list[datetime]) -> np.ndarray:
    """Microseconds since the epoch of each datetime, exact at any date
    (float seconds are not); a naive datetime is read as UTC."""
    def field(get, values=stamps):
        return np.fromiter(map(get, values), np.int64, len(values))

    offsets = list(map(datetime.utcoffset, stamps))
    offset_micros = {offset: 0 if offset is None else offset // _TS_UNIT
                     for offset in set(offsets)}
    seconds = ((field(datetime.toordinal) - _EPOCH_DAY) * 86400
               + field(operator.attrgetter("hour")) * 3600
               + field(operator.attrgetter("minute")) * 60 + field(operator.attrgetter("second")))
    return (seconds * 1_000_000 + field(operator.attrgetter("microsecond"))
            - field(offset_micros.__getitem__, offsets))


# coded string columns, the name of each one's value table, and the
# CSV_FIELDS field it holds
_CODED = {"user": ("users", "user_id"), "venue": ("venues", "venue_id"),
          "category": ("categories", "category"),
          "subcategory": ("subcategories", "subcategory"),
          "country": ("countries", "country"), "city": ("cities", "city")}
_COLUMNS = (*_CODED, "gender", "latitude", "longitude", "ts", "ts_missing")


@dataclass(frozen=True, eq=False)
class CheckinTable:
    """Check-ins as columns, one row per check-in, in input order.

    Each string field is an int32 code into a sorted table of its distinct
    values (``users``, ``venues``, ``categories``, ``subcategories``,
    ``countries``, ``cities``), so code order is string order; a missing
    city is -1. ``gender`` is int8, 1 = male and 0 = female. ``ts`` is the
    timestamp in microseconds since the epoch, unless ``ts_missing``. A
    subset (``take``) shares the string tables of its table.
    """

    user: np.ndarray
    venue: np.ndarray
    category: np.ndarray
    subcategory: np.ndarray
    country: np.ndarray
    city: np.ndarray
    gender: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    ts: np.ndarray
    ts_missing: np.ndarray
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
    total_lines: int = 0
    accepted: int = 0
    rejected_gender: int = 0
    bad_coordinates: int = 0
    missing_field: int = 0
    venue_conflict: int = 0
    unparseable: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_gender
            + self.bad_coordinates
            + self.missing_field
            + self.venue_conflict
            + self.unparseable
        )

    def as_dict(self) -> dict:
        return {
            "total_lines": self.total_lines,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "rejected_gender": self.rejected_gender,
            "bad_coordinates": self.bad_coordinates,
            "missing_field": self.missing_field,
            "venue_conflict": self.venue_conflict,
            "unparseable": self.unparseable,
        }


_CHUNK_ROWS = 4096  # rows validated at once; the file is never held whole
_RAW_FIELDS = frozenset({"latitude", "longitude", "timestamp"})
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
        """``codes`` recoded into the sorted table of the values they use,
        after ``key`` if given; a value that is or becomes None gets -1."""
        values = list(self.code) if key is None else list(map(key, self.code))
        names = sorted({values[c] for c in np.unique(codes).tolist()} - {None})
        position = {name: i for i, name in enumerate(names)}
        recode = np.array([position.get(v, -1) for v in values], np.int32)
        return recode[codes], names


def _coded(values) -> tuple[np.ndarray, list[str]]:
    """Codes of ``values`` (each a str or None) into the sorted table of
    their distinct strings; None gets -1."""
    strings = _Strings()
    return strings.finish(strings(values))


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


def _timestamps(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Microseconds since the epoch of a column of ISO 8601 timestamps (0
    where there is none), the mask of missing (falsy) values and the mask
    of values that do not parse.

    A column of ASCII strings all as wide as ``_ISO_FORM`` is read as one
    byte matrix; its rows not in that form, or with a field out of range,
    are parsed one by one as any other column is."""
    try:
        blob = "".join(values)
    except TypeError:  # a None, or a jsonl value that is not a str
        return _parsed_timestamps(values)
    if not blob.isascii() or set(map(len, values)) != {len(_ISO_FORM)}:
        return _parsed_timestamps(values)
    chars = np.frombuffer(blob.encode("ascii"), np.uint8).reshape(-1, len(_ISO_FORM))
    micros, fits = _fixed_width_micros(chars)
    bad = np.zeros(len(values), bool)
    rows = np.flatnonzero(~fits)
    if len(rows):
        micros[rows], _, bad[rows] = _parsed_timestamps([values[i] for i in rows])
    return micros, np.zeros(len(values), bool), bad


def _fromisoformat(value: str) -> datetime:
    """``datetime.fromisoformat``, but a UTC offset whose minutes or seconds
    are 60 or more is a ValueError: Python 3.11 carries them over, reading
    ``+00:99`` as ``+01:39``."""
    stamp = datetime.fromisoformat(value)
    if stamp.tzinfo is None or (value[-6] in "+-" and value[-2] < "6"):
        return stamp  # no offset, or the common +HH:MM with minutes below 60
    # the offset follows the last + or -, and fromisoformat has checked that
    # its fields are pairs of ASCII digits, which compare as strings
    offset = value[max(value.rfind("+"), value.rfind("-")) + 1:]
    digits = offset.partition(".")[0].replace(":", "")
    if not value.endswith("Z") and (digits[2:4] >= "60" or digits[4:6] >= "60"):
        raise ValueError(f"UTC offset out of range: {value!r}")
    return stamp


def _parsed_timestamps(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_timestamps``, each value parsed by ``_fromisoformat``."""
    try:
        stamps = [_fromisoformat(v) if v else None for v in values]
    except (TypeError, ValueError):
        stamps = [_or_none(_fromisoformat, v) if v else None for v in values]
    missing = np.fromiter(map(operator.not_, values), bool, len(values))
    parsed = np.fromiter((ts is not None for ts in stamps), bool, len(stamps))
    micros = np.zeros(len(values), np.int64)
    micros[parsed] = _micros([ts for ts in stamps if ts is not None])
    return micros, missing, ~missing & ~parsed


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

    def add(self, columns: list) -> None:
        """Validate one chunk, given as its CSV_FIELDS columns: the string
        fields hold str or None, the coordinates and timestamp raw values."""
        fields = dict(zip(CSV_FIELDS, columns))
        codes = {column: self.strings[column](fields[field])
                 for column, (_, field) in _CODED.items()}
        gender = self.gender(fields["gender"])
        gender = self.gender.flags[gender]  # interned first: flags grow with it
        latitude, lat_blank = _floats(fields["latitude"])
        longitude, lon_blank = _floats(fields["longitude"])
        ts, ts_missing, ts_bad = _timestamps(fields["timestamp"])

        missing = lat_blank | lon_blank | (gender == -2)  # -2: a blank gender
        for column in ("user", "venue", "category", "subcategory", "country"):
            missing |= self.strings[column].flags[codes[column]].astype(bool)
        bad_gender = ~missing & (gender == -1)  # neither male nor female
        ok = ~missing & ~bad_gender
        in_range = ((-90.0 <= latitude) & (latitude <= 90.0)
                    & (-180.0 <= longitude) & (longitude <= 180.0))
        bad_coordinates = ok & ~in_range
        ok &= in_range
        bad_ts = ok & ts_bad
        ok &= ~ts_bad

        rows = np.flatnonzero(ok)
        venue, subcategory = codes["venue"][rows], codes["subcategory"][rows]
        grown = len(self.strings["venue"].code) - len(self.claims)
        self.claims = np.concatenate([self.claims, np.full(grown, -1, np.int32)])
        venues, first = np.unique(venue, return_index=True)
        unclaimed = self.claims[venues] == -1
        self.claims[venues[unclaimed]] = subcategory[first[unclaimed]]
        conflict = self.claims[venue] != subcategory
        rows = rows[~conflict]

        report = self.report
        report.missing_field += int(missing.sum() + bad_ts.sum())
        report.rejected_gender += int(bad_gender.sum())
        report.bad_coordinates += int(bad_coordinates.sum())
        report.venue_conflict += int(conflict.sum())
        report.accepted += len(rows)
        kept = dict(codes, gender=gender, latitude=latitude, longitude=longitude,
                    ts=ts, ts_missing=ts_missing)
        for column, values in kept.items():
            self.parts[column].append(values[rows])

    def table(self) -> CheckinTable:
        dtypes = dict.fromkeys(_CODED, np.int32)
        dtypes.update(gender=np.int8, latitude=float, longitude=float,
                      ts=np.int64, ts_missing=bool)
        columns = {column: np.concatenate([np.empty(0, dtypes[column]), *parts])
                   for column, parts in self.parts.items()}
        coded = {column: self.strings[column].finish(
                     columns.pop(column), _city if column == "city" else None)
                 for column in _CODED}
        return _assemble(coded, **columns)


@contextlib.contextmanager
def csv_reader(text, lines_before: int = 0):
    """A ``csv.reader`` of ``text`` whose errors (say, a field past the csv
    module's size limit) are raised as a DataError naming the line, counted
    from the start of a file whose first ``lines_before`` lines were read
    before ``text``."""
    reader = csv.reader(text)
    try:
        yield reader
    except csv.Error as exc:
        raise DataError(f"csv line {lines_before + reader.line_num}: {exc}") from exc


def _row_columns(rows: list, positions: list[int], width: int) -> list:
    """The columns at ``positions`` of non-empty rows; a row shorter than
    ``width`` reads None past its end."""
    if min(map(len, rows)) < width:
        rows = [row + [None] * (width - len(row)) for row in rows]
    columns = list(zip(*rows))
    return [columns[p] for p in positions]


def _split_columns(lines: list[str], positions: list[int], width: int):
    """The columns at ``positions`` of csv lines that all have the same
    field count, at least ``width``, and no quote, NUL or line longer
    than the csv field size limit: there the csv dialect reads a line as a
    split at every comma. Any other lines give None; so does an empty line,
    whose one field is fewer than the ten CSV_FIELDS need.

    The joined lines are one ``str.split``, and each column a stride slice
    of it."""
    blob = "".join(lines)
    if '"' in blob or "\0" in blob or max(map(len, lines)) > csv.field_size_limit():
        return None
    commas = set(map(str.count, lines, itertools.repeat(",")))
    fields_per_row = commas.pop() + 1
    if commas or fields_per_row < width:
        return None
    fields = blob.replace("\n", ",").split(",")
    end = len(lines) * fields_per_row
    return [fields[p:end:fields_per_row] for p in positions]


def _csv_columns(text, report: IngestReport):
    """The CSV_FIELDS columns of successive chunks of csv rows, read as
    ``csv.DictReader`` reads them: empty rows are skipped, a repeated header
    name reads its last column, and a short row reads None past its end.

    Chunks of lines are split at commas (``_split_columns``) until the first
    one that cannot be read that way; from that chunk on, the rest of the
    file goes through ``csv.reader``."""
    with csv_reader(text) as reader:
        header = next(reader, None)
    if header is None:
        return
    missing = [f for f in CSV_FIELDS if f not in header]
    if missing:
        raise DataError(f"csv header missing columns: {missing}")
    last = {name: i for i, name in enumerate(header)}
    positions = [last[f] for f in CSV_FIELDS]
    width = max(positions) + 1
    lines_read = reader.line_num
    while lines := list(itertools.islice(text, _CHUNK_ROWS)):
        columns = _split_columns(lines, positions, width)
        if columns is None:
            yield from _reader_columns(itertools.chain(lines, text), lines_read,
                                       report, positions, width)
            return
        lines_read += len(lines)
        report.total_lines += len(lines)
        yield columns


def _reader_columns(text, lines_before: int, report: IngestReport,
                    positions: list[int], width: int):
    """``_csv_columns`` through ``csv.reader``, for the lines of a file
    after its first ``lines_before``."""
    with csv_reader(text, lines_before) as reader:
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            rows = [row for row in chunk if row]
            if rows:
                report.total_lines += len(rows)
                yield _row_columns(rows, positions, width)


def _jsonl_row(row: dict) -> list:
    """A JSON object's CSV_FIELDS values in the form the csv reader gives
    them: a string field is made ``str`` unless it is None (a falsy city
    is None); coordinates and timestamp stay as they are."""
    values = []
    for field in CSV_FIELDS:
        value = row.get(field)
        if field == "city":
            value = value or None
        if field not in _RAW_FIELDS and value is not None:
            value = str(value)
        values.append(value)
    return values


def _jsonl_columns(text, report: IngestReport):
    """The CSV_FIELDS columns of successive chunks of jsonl lines; a line
    that is not a JSON object, or nests too deeply to parse, is counted as
    unparseable."""
    rows = []
    for line in text:
        if not line.strip():
            continue
        report.total_lines += 1
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            row = None
        if not isinstance(row, dict):
            report.unparseable += 1
            continue
        rows.append(_jsonl_row(row))
        if len(rows) == _CHUNK_ROWS:
            yield list(zip(*rows))
            rows = []
    if rows:
        yield list(zip(*rows))


def ingest_checkins(source: BinaryIO, fmt: str) -> tuple[CheckinTable, IngestReport]:
    """Read the check-ins of a UTF-8 byte stream in csv or jsonl format into
    a CheckinTable, a chunk of rows at a time.

    Malformed lines are dropped and counted by reason in the report; more
    than 50% rejected lines aborts with DataError.
    """
    if fmt not in ("csv", "jsonl"):
        raise DataError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")
    text = io.TextIOWrapper(source, encoding="utf-8")
    report = IngestReport()
    accepted = _AcceptedRows(report)
    try:
        chunks = (_csv_columns if fmt == "csv" else _jsonl_columns)(text, report)
        for columns in chunks:
            accepted.add(columns)
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from exc
    finally:
        text.detach()  # a collected wrapper would close the caller's stream
    if report.total_lines > 0 and report.rejected > report.total_lines / 2:
        raise DataError(
            f"{report.rejected} of {report.total_lines} lines rejected "
            f"(>50%); refusing to continue: {report.as_dict()}"
        )
    return accepted.table(), report


def _field_values(table: CheckinTable, rows: slice) -> list[list]:
    """The CSV_FIELDS values of ``rows`` of ``table``, a list per field: str,
    but a float per coordinate; a missing city or timestamp is empty and a
    timestamp is ISO 8601 in UTC."""
    def strings(codes, names):
        return list(map(names.__getitem__, codes[rows].tolist()))

    stamps = ["" if missing else (_EPOCH + ts * _TS_UNIT).isoformat() for ts, missing
              in zip(table.ts[rows].tolist(), table.ts_missing[rows].tolist())]
    return [strings(table.user, table.users), strings(table.gender, ("female", "male")),
            strings(table.venue, table.venues), strings(table.category, table.categories),
            strings(table.subcategory, table.subcategories),
            table.latitude[rows].tolist(), table.longitude[rows].tolist(),
            strings(table.country, table.countries),
            strings(table.city, [*table.cities, ""]),  # code -1, no city, reads ""
            stamps]


def write_checkins(table: CheckinTable, sink, fmt: str = "csv") -> None:
    """Write the check-ins of ``table`` in the ingest schema to a text sink,
    a chunk of rows at a time; a coordinate is the repr of its float."""
    if fmt not in ("csv", "jsonl"):
        raise DataError(f"unknown format {fmt!r}")
    if fmt == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
    for start in range(0, len(table), _CHUNK_ROWS):
        rows = zip(*_field_values(table, slice(start, start + _CHUNK_ROWS)))
        if fmt == "csv":
            writer.writerows(rows)
        else:
            sink.write("".join(json.dumps(dict(zip(CSV_FIELDS, row))) + "\n"
                               for row in rows))


def ingest_index_table(source: BinaryIO, index_name: str = "INDEX") -> IndexTable:
    """Parse a two-column country,value CSV into an IndexTable."""
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        with csv_reader(text) as lines:
            reader = iter(list(lines))
    finally:
        text.detach()  # a collected wrapper would close the caller's stream
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
