from datetime import datetime

import pytest
from hypothesis import settings

from checkin_records import CheckInRecord, Gender

# fixed example sequences keep the suite deterministic; no per-example timing
settings.register_profile("venuepref", derandomize=True, deadline=None)
settings.load_profile("venuepref")


def make_record(user="u1", gender="male", venue="v1", subcat="Café",
                category="Food", country="BR", city=None, lat=0.0, lon=0.0,
                ts=None):
    if isinstance(ts, str):
        ts = datetime.fromisoformat(ts)
    return CheckInRecord(
        user_id=user,
        gender=Gender(gender),
        venue_id=venue,
        category=category,
        subcategory=subcat,
        latitude=lat,
        longitude=lon,
        country=country,
        city=city,
        timestamp=ts,
    )


def by_key(results, key):
    """The entry of a batch of popularity points or null-model verdicts for
    one unit key."""
    return {result.unit.key: result for result in results}[key]


@pytest.fixture
def mk():
    return make_record
