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
from datetime import datetime, timedelta, timezone

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


# the one form of a timestamp longer than a date that every supported
# Python reads alike: a YYYY-MM-DD date, T, t or a space, a time with no
# sign or Z in it, and at most a UTC offset, Z or ±HH:MM with minutes
# below 60
_TIMESTAMP = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt ]([^+\-Z]*)"
                        r"(Z|[+-][0-9]{2}:[0-5][0-9])?")


def parse_timestamp(raw):
    """The datetime of an ISO timestamp, in UTC if it has no offset; a
    ValueError if it is longer than a date and not of the one form above,
    or if fromisoformat refuses its date and time."""
    if not raw:
        return None
    if len(raw) <= 10:
        ts = datetime.fromisoformat(raw)
    else:
        match = _TIMESTAMP.match(raw)
        if match is None:
            raise ValueError(f"no YYYY-MM-DD date and T, t or space: {raw!r}")
        if match.end() < len(raw):
            raise ValueError(f"UTC offset not Z or ±HH:MM: {raw!r}")
        date, time, offset = match.groups()
        ts = datetime.fromisoformat(f"{date}T{time}")
        if offset and offset != "Z":
            sign = -1 if offset[0] == "-" else 1
            ts = ts.replace(tzinfo=timezone(sign * timedelta(
                hours=int(offset[1:3]), minutes=int(offset[4:]))))
    return ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)


def _refuse_nul(text):
    """The lines of ``text``, but a DataError at the first that holds a
    NUL: ingest refuses it on every Python, as 3.10's csv module does."""
    for number, line in enumerate(text, 1):
        if "\0" in line:
            raise DataError(f"csv line {number}: line contains NUL")
        yield line


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
            reader = csv.DictReader(_refuse_nul(text))
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
    except csv.Error as exc:  # a field past the csv module's size limit
        raise DataError(f"csv line {reader.reader.line_num}: {exc}") from exc
    finally:
        text.detach()
    if report.total_lines > 0 and report.rejected > report.total_lines / 2:
        raise DataError(
            f"{report.rejected} of {report.total_lines} lines rejected "
            f"(>50%); refusing to continue: {report.as_dict()}"
        )
    return records, report
