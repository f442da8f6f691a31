"""Domain types and ingestion for check-in data and external index tables."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib import resources
from typing import BinaryIO, Iterable, Optional


class DataError(Exception):
    """Raised when input data violates a structural invariant."""


class Gender(str, Enum):
    MALE = "male"
    FEMALE = "female"


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
class CheckInRecord:
    user_id: str
    gender: Gender
    venue_id: str
    category: str
    subcategory: str
    latitude: float
    longitude: float
    country: str
    city: Optional[str] = None
    timestamp: Optional[datetime] = None


@dataclass(frozen=True)
class RegionSelector:
    granularity: Granularity
    name: str

    def matches(self, record: CheckInRecord) -> bool:
        return region_name(record, self.granularity) == self.name


def region_name(record: CheckInRecord, granularity: Granularity) -> Optional[str]:
    """The record's country or city, by granularity."""
    return record.country if granularity is Granularity.COUNTRY else record.city


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


_REQUIRED = ("user_id", "gender", "venue_id", "category", "subcategory",
             "latitude", "longitude", "country")


def _parse_gender(raw: str) -> Optional[Gender]:
    low = raw.strip().lower()
    if low == "male":
        return Gender.MALE
    if low == "female":
        return Gender.FEMALE
    return None


def _parse_timestamp(raw: Optional[str]) -> Optional[datetime]:
    """ISO 8601; a timestamp without a UTC offset is read as UTC, so that
    any two timestamps of one input compare."""
    if not raw:
        return None
    ts = datetime.fromisoformat(raw)
    return ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)


def _record_from_mapping(row: dict, report: IngestReport,
                         venue_subcats: dict[str, str]) -> Optional[CheckInRecord]:
    for key in _REQUIRED:
        value = row.get(key)
        if value is None or str(value).strip() == "":
            report.missing_field += 1
            return None
    gender = _parse_gender(str(row["gender"]))
    if gender is None:
        report.rejected_gender += 1
        return None
    try:
        lat = float(row["latitude"])
        lon = float(row["longitude"])
    except (TypeError, ValueError):
        report.bad_coordinates += 1
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        report.bad_coordinates += 1
        return None
    try:
        ts = _parse_timestamp(row.get("timestamp") or None)
    except (TypeError, ValueError):  # TypeError: a jsonl timestamp that is no string
        report.missing_field += 1
        return None
    # only a row that is otherwise accepted may decide its venue's subcategory
    venue_id = str(row["venue_id"])
    subcategory = str(row["subcategory"])
    known = venue_subcats.get(venue_id)
    if known is None:
        venue_subcats[venue_id] = subcategory
    elif known != subcategory:
        report.venue_conflict += 1
        return None
    city = row.get("city") or None
    if city is not None:
        city = str(city).strip() or None
    return CheckInRecord(
        user_id=str(row["user_id"]),
        gender=gender,
        venue_id=venue_id,
        category=str(row["category"]),
        subcategory=subcategory,
        latitude=lat,
        longitude=lon,
        country=str(row["country"]),
        city=city,
        timestamp=ts,
    )


def ingest_checkins(source: BinaryIO, fmt: str) -> tuple[list[CheckInRecord], IngestReport]:
    """Read check-in records from a UTF-8 byte stream in csv or jsonl format.

    Malformed lines are dropped and counted by reason in the report; more
    than 50% rejected lines aborts with DataError.
    """
    if fmt not in ("csv", "jsonl"):
        raise DataError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        report = IngestReport()
        records: list[CheckInRecord] = []
        venue_subcats: dict[str, str] = {}
        if fmt == "csv":
            reader = csv.DictReader(text)
            if reader.fieldnames is not None:
                missing = [f for f in CSV_FIELDS if f not in reader.fieldnames]
                if missing:
                    raise DataError(f"csv header missing columns: {missing}")
            for row in reader:
                report.total_lines += 1
                rec = _record_from_mapping(row, report, venue_subcats)
                if rec is not None:
                    records.append(rec)
                    report.accepted += 1
        else:
            for line in text:
                if not line.strip():
                    continue
                report.total_lines += 1
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    report.unparseable += 1
                    continue
                if not isinstance(row, dict):
                    report.unparseable += 1
                    continue
                rec = _record_from_mapping(row, report, venue_subcats)
                if rec is not None:
                    records.append(rec)
                    report.accepted += 1
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from exc
    finally:
        text.detach()  # a collected wrapper would close the caller's stream
    if report.total_lines > 0 and report.rejected > report.total_lines / 2:
        raise DataError(
            f"{report.rejected} of {report.total_lines} lines rejected "
            f"(>50%); refusing to continue: {report.as_dict()}"
        )
    return records, report


def record_to_row(rec: CheckInRecord) -> dict[str, str]:
    return {
        "user_id": rec.user_id,
        "gender": rec.gender.value,
        "venue_id": rec.venue_id,
        "category": rec.category,
        "subcategory": rec.subcategory,
        "latitude": repr(rec.latitude),
        "longitude": repr(rec.longitude),
        "country": rec.country,
        "city": rec.city or "",
        "timestamp": rec.timestamp.isoformat() if rec.timestamp else "",
    }


def write_checkins(records: Iterable[CheckInRecord], sink, fmt: str = "csv") -> None:
    """Serialize records back to the ingest schema (text sink)."""
    if fmt == "csv":
        writer = csv.DictWriter(sink, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(record_to_row(rec))
    elif fmt == "jsonl":
        for rec in records:
            row = record_to_row(rec)
            row["latitude"] = rec.latitude
            row["longitude"] = rec.longitude
            sink.write(json.dumps(row) + "\n")
    else:
        raise DataError(f"unknown format {fmt!r}")


def ingest_index_table(source: BinaryIO, index_name: str = "INDEX") -> IndexTable:
    """Parse a two-column country,value CSV into an IndexTable."""
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        reader = iter(list(csv.reader(text)))
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
