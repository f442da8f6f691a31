from datetime import datetime
from types import SimpleNamespace

import pytest
from hypothesis import settings

from checkin_records import CheckInRecord, Gender
from venuepref.nullmodel import DIRECTIONS
from venuepref.popularity import PopularityTable

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


def units(result):
    """A namespace per unit of a ``PopularityTable`` or a ``Significance``,
    in its order: the unit's ``key`` and its value in every per-unit column,
    as Python values. A verdict's ``direction`` is a ``Direction`` and its
    ``null_distribution`` is its column of the null matrix (a view)."""
    if isinstance(result, PopularityTable):
        names = ["p_male", "p_female", "d", "n_checkins"]
        columns = {name: getattr(result, name).tolist() for name in names}
    else:
        names = ["observed_d", "delta_min", "delta_max", "significant"]
        columns = {name: getattr(result, name).tolist() for name in names}
        columns["direction"] = [DIRECTIONS[code] for code in result.direction.tolist()]
        columns["null_distribution"] = list(result.null.T)
    return [SimpleNamespace(key=key, **{name: column[j] for name, column in columns.items()})
            for j, key in enumerate(result.keys)]


def by_key(result, key):
    """The namespace of ``units`` for one unit key."""
    return units(result)[result.keys.index(key)]


@pytest.fixture
def mk():
    return make_record
