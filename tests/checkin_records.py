"""Check-ins as one frozen record each, for tests that build check-ins by
hand, read them one by one, or feed the per-record oracles.

The library takes and returns ``CheckinTable``s only. ``to_table`` and
``to_records`` convert between the two forms; a record's timestamp comes
back from a table in UTC. A table holds no coordinates, so a record's are
not compared: they are what ``write_records`` writes.
"""

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Optional

import numpy as np

from venuepref.models import NO_TIME, CheckinTable, write_checkins

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
    country: str
    city: Optional[str] = None
    timestamp: Optional[datetime] = None
    latitude: Optional[float] = field(default=None, compare=False)
    longitude: Optional[float] = field(default=None, compare=False)


# each coded column of a table, its value table, and the record field it
# holds; a venue's subcategory is coded per venue, in venue_subcategory
CODED = [("user", "users", "user_id"), ("venue", "venues", "venue_id"),
         ("category", "categories", "category"),
         ("country", "countries", "country"), ("city", "cities", "city")]


def _micros(ts: datetime) -> int:
    """Microseconds since the epoch; a naive datetime is read as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - EPOCH) // MICROSECOND


def _codes(values):
    """The sorted table of the distinct ``values`` but None, and the code of
    each value in it (-1 for None)."""
    names = sorted(set(values) - {None})
    position = {value: i for i, value in enumerate(names)}
    return names, np.array([position.get(v, -1) for v in values], np.int32)


def to_table(records) -> CheckinTable:
    """The CheckinTable of ``records``, row by row in their order; a
    ValueError if two records give one venue two subcategories."""
    records = list(records)
    columns = {}
    for column, names, field in CODED:
        columns[names], columns[column] = _codes([getattr(rec, field) for rec in records])
    venue_subcategory = {}
    for rec in records:
        known = venue_subcategory.setdefault(rec.venue_id, rec.subcategory)
        if known != rec.subcategory:
            raise ValueError(f"venue {rec.venue_id!r} has two subcategories, "
                             f"{known!r} and {rec.subcategory!r}")
    columns["subcategories"], columns["venue_subcategory"] = _codes(
        [venue_subcategory[venue] for venue in columns["venues"]])
    return CheckinTable(
        **columns,
        gender=np.array([rec.gender == Gender.MALE for rec in records], np.int8),
        ts=np.array([NO_TIME if rec.timestamp is None else _micros(rec.timestamp)
                     for rec in records], np.int64))


def to_records(table: CheckinTable, coordinates=None) -> list[CheckInRecord]:
    """The rows of ``table`` as records, for comparing check-ins one by one;
    with ``coordinates`` (a latitude and a longitude array, as ``generate``
    returns them beside its table), each record holds its row's."""
    def strings(codes, names):
        return [names[c] if c >= 0 else None for c in codes.tolist()]

    columns = {field: strings(getattr(table, column), getattr(table, names))
               for column, names, field in CODED}
    columns["subcategory"] = strings(table.venue_subcategory[table.venue], table.subcategories)
    columns.update(
        gender=[Gender.MALE if g == 1 else Gender.FEMALE for g in table.gender.tolist()],
        timestamp=[None if ts == NO_TIME else EPOCH + ts * MICROSECOND
                   for ts in table.ts.tolist()])
    if coordinates is not None:
        columns.update(latitude=coordinates[0].tolist(), longitude=coordinates[1].tolist())
    return [CheckInRecord(**dict(zip(columns, row))) for row in zip(*columns.values())]


def write_records(records, sink, fmt="csv") -> None:
    """``write_checkins`` of the table of ``records`` and their own
    coordinates."""
    records = list(records)
    write_checkins(to_table(records), tuple(
        np.array([float(getattr(rec, name)) for rec in records])  # None: TypeError
        for name in ("latitude", "longitude")), sink, fmt)
