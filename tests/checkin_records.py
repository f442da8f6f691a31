"""Check-ins as one frozen record each, for tests that build check-ins by
hand, read them one by one, or feed the per-record oracles.

The library takes and returns ``CheckinTable``s only. ``to_table`` and
``to_records`` convert between the two forms; a record's timestamp comes
back from a table in UTC.
"""

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Optional

import numpy as np

from venuepref.models import CheckinTable

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)


class Gender(str, Enum):
    MALE = "male"
    FEMALE = "female"


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


# each coded column of a table, its value table, and the record field it holds
CODED = [("user", "users", "user_id"), ("venue", "venues", "venue_id"),
         ("category", "categories", "category"),
         ("subcategory", "subcategories", "subcategory"),
         ("country", "countries", "country"), ("city", "cities", "city")]


def _micros(ts: datetime) -> int:
    """Microseconds since the epoch; a naive datetime is read as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - EPOCH) // MICROSECOND


def to_table(records) -> CheckinTable:
    """The CheckinTable of ``records``, row by row in their order."""
    records = list(records)
    columns = {}
    for column, names, field in CODED:
        values = [getattr(rec, field) for rec in records]
        columns[names] = sorted(set(values) - {None})
        position = {value: i for i, value in enumerate(columns[names])}
        columns[column] = np.array([position.get(v, -1) for v in values], np.int32)
    stamps = [rec.timestamp for rec in records]
    return CheckinTable(
        **columns,
        gender=np.array([rec.gender == Gender.MALE for rec in records], np.int8),
        latitude=np.array([rec.latitude for rec in records], float),
        longitude=np.array([rec.longitude for rec in records], float),
        ts=np.array([0 if ts is None else _micros(ts) for ts in stamps], np.int64),
        ts_missing=np.array([ts is None for ts in stamps], bool))


def to_records(table: CheckinTable) -> list[CheckInRecord]:
    """The rows of ``table`` as records, for comparing check-ins one by one."""
    def strings(codes, names):
        return [names[c] if c >= 0 else None for c in codes.tolist()]

    columns = {field: strings(getattr(table, column), getattr(table, names))
               for column, names, field in CODED}
    columns.update(
        gender=[Gender.MALE if g == 1 else Gender.FEMALE for g in table.gender.tolist()],
        latitude=table.latitude.tolist(), longitude=table.longitude.tolist(),
        timestamp=[None if missing else EPOCH + ts * MICROSECOND for ts, missing
                   in zip(table.ts.tolist(), table.ts_missing.tolist())])
    return [CheckInRecord(**dict(zip(columns, row))) for row in zip(*columns.values())]
