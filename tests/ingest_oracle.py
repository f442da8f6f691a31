"""Per-row reference implementation of check-in ingest.

This is the loop ``venuepref.models.ingest_checkins`` replaced: every row
becomes a dict (``csv.DictReader`` or ``json.loads``) and then one frozen
``CheckInRecord``, or a counted rejection. It is kept only so tests can
require the columnar ingest to give the same report and the same accepted
rows.
"""

import csv
import io
import json
import re
from datetime import datetime, timezone

from checkin_records import CheckInRecord, Gender
from venuepref.models import CSV_FIELDS, DataError, IngestReport

_REQUIRED = ("user_id", "gender", "venue_id", "category", "subcategory",
             "latitude", "longitude", "country")


def _parse_gender(raw):
    low = raw.strip().lower()
    if low == "male":
        return Gender.MALE
    if low == "female":
        return Gender.FEMALE
    return None


# the UTC offset that may end an ISO timestamp: hours, then minutes and
# seconds, each with or without a colon
_OFFSET = re.compile(r"[+-]\d\d(?::?(\d\d)(?::?(\d\d)(\.\d+)?)?)?$")


def parse_timestamp(raw):
    """The datetime of an ISO timestamp, in UTC if it has no offset; a
    ValueError if fromisoformat refuses it, its offset has minutes or
    seconds past 59 (which Python 3.11's fromisoformat carries over) or its
    offset has a fraction of a second (which it drops from a zero offset)."""
    if not raw:
        return None
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    offset = _OFFSET.search(raw)
    if offset:
        minutes, seconds, fraction = offset.groups()
        if fraction or any(f and int(f) >= 60 for f in (minutes, seconds)):
            raise ValueError(f"UTC offset out of range: {raw!r}")
    return ts


def _record_from_mapping(row, report, venue_subcats):
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
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge jsonl int
        report.bad_coordinates += 1
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        report.bad_coordinates += 1
        return None
    try:
        ts = parse_timestamp(row.get("timestamp") or None)
    except (TypeError, ValueError):
        report.missing_field += 1
        return None
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
        user_id=str(row["user_id"]), gender=gender, venue_id=venue_id,
        category=str(row["category"]), subcategory=subcategory,
        latitude=lat, longitude=lon, country=str(row["country"]), city=city,
        timestamp=ts)


def ingest(source, fmt):
    """(records, report), or DataError, as ``ingest_checkins`` defines them."""
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        report = IngestReport()
        records = []
        venue_subcats = {}
        if fmt == "csv":
            reader = csv.DictReader(text)
            if reader.fieldnames is not None:
                missing = [f for f in CSV_FIELDS if f not in reader.fieldnames]
                if missing:
                    raise DataError(f"csv header missing columns: {missing}")
            rows = reader
        else:
            rows = []
            for line in text:
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except (json.JSONDecodeError, RecursionError):
                    row = None
                rows.append(row if isinstance(row, dict) else None)
        for row in rows:
            report.total_lines += 1
            if row is None:
                report.unparseable += 1
                continue
            rec = _record_from_mapping(row, report, venue_subcats)
            if rec is not None:
                records.append(rec)
                report.accepted += 1
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from exc
    finally:
        text.detach()
    if report.total_lines > 0 and report.rejected > report.total_lines / 2:
        raise DataError(
            f"{report.rejected} of {report.total_lines} lines rejected "
            f"(>50%); refusing to continue: {report.as_dict()}"
        )
    return records, report
