"""Differential and property tests of the integer-coded scope kernel.

Every fast path must give the same floats (compared with ==) as the
per-record oracle in popularity_oracle.py, over small random check-in sets,
all three analysis modes and random scopes. The fast paths take one
region's records, as apply_filters returns them; the oracle takes the
records of every region and selects the scope's itself.
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import popularity_oracle as oracle
from conftest import make_record
from venuepref.models import DataError, Gender, Granularity, RegionSelector
from venuepref.nullmodel import NullMethod, NullModelConfig, run_null_model_batch
from venuepref.popularity import AnalysisMode, AnalysisUnit, popularity, popularity_table
from venuepref.preference import build_preference_vector

SUBCATS = ["Bar", "Café", "Gym"]
COUNTRIES = ["A", "B"]


@st.composite
def checkins(draw):
    n_venues = draw(st.integers(1, 6))
    # every venue has one subcategory, as ingest guarantees
    venue_subcat = draw(st.lists(st.sampled_from(SUBCATS), min_size=n_venues,
                                 max_size=n_venues))
    rows = draw(st.lists(st.tuples(st.integers(0, n_venues - 1), st.booleans(),
                                   st.sampled_from(COUNTRIES), st.integers(0, 4)),
                         min_size=1, max_size=40))
    return [make_record(user=f"u{user}", gender="male" if male else "female",
                        venue=f"v{venue}", subcat=venue_subcat[venue],
                        country=country)
            for venue, male, country, user in rows]


@st.composite
def scopes(draw):
    mode = draw(st.sampled_from(list(AnalysisMode)))
    subcat = (draw(st.sampled_from(SUBCATS))
              if mode is AnalysisMode.VENUE_WITHIN_SUBCATEGORY else None)
    region = RegionSelector(Granularity.COUNTRY, draw(st.sampled_from(COUNTRIES)))
    return mode, region, subcat


def outcome(fn, *args):
    """The result of fn, or DataError when it refuses the input."""
    try:
        return fn(*args)
    except DataError:
        return DataError


def swap_genders(records):
    return [r.__class__(**{**r.__dict__,
                           "gender": Gender.FEMALE if r.gender is Gender.MALE
                           else Gender.MALE})
            for r in records]


def rows_as_tuples(rows):
    return [(r.point.unit.key, r.point.p_male, r.point.p_female, r.p_male_norm,
             r.p_female_norm, r.point.d, r.point.n_checkins) for r in rows]


@given(checkins(), scopes())
def test_popularity_table_equals_oracle(records, scope):
    fast = outcome(popularity_table, oracle.scope_records(records, scope[1]), *scope)
    expected = outcome(oracle.table, records, *scope)
    assert (fast if fast is DataError else rows_as_tuples(fast)) == expected


@given(checkins(), scopes())
def test_single_unit_popularity_equals_oracle(records, scope):
    mode, region, subcat = scope
    for key in oracle.unit_keys(records, mode, region, subcat):
        unit = AnalysisUnit(mode=mode, key=key, scope=region,
                            scope_subcategory=subcat)
        assert outcome(popularity, oracle.scope_records(records, region), unit) == \
            outcome(oracle.popularity, records, unit)


@given(checkins(), scopes())
def test_observed_d_equals_oracle(records, scope):
    mode, region, subcat = scope
    config = NullModelConfig(k=2, method=NullMethod.GENDER_SHUFFLE)
    fast = outcome(run_null_model_batch, oracle.scope_records(records, region),
                   mode, region, config, subcat)
    expected = outcome(oracle.points, records, mode, region, subcat)
    if fast is DataError:
        assert expected is DataError or expected == []
    else:
        assert [(r.unit.key, r.observed_d) for r in fast] == \
            [(p.unit.key, p.d) for p in expected]


@given(checkins(), scopes(), st.integers(0, 3))
def test_shuffle_null_distribution_equals_oracle(records, scope, seed):
    mode, region, subcat = scope
    config = NullModelConfig(k=5, method=NullMethod.GENDER_SHUFFLE, rng_seed=seed)
    fast = outcome(run_null_model_batch, oracle.scope_records(records, region),
                   mode, region, config, subcat)
    assume(fast is not DataError)
    assert [r.null_distribution.tolist() for r in fast] == \
        oracle.shuffle_replicates(records, mode, region, subcat, 5, seed)


@given(checkins(), st.sampled_from(COUNTRIES))
def test_preference_vector_equals_oracle(records, country):
    region = RegionSelector(Granularity.COUNTRY, country)
    dims = SUBCATS + ["Zoo"]
    vec = build_preference_vector(oracle.scope_records(records, region), region, dims)
    assert vec.values.tolist() == oracle.preference_values(records, region, dims)


@given(checkins(), scopes())
def test_gender_swap_negates_d(records, scope):
    rows = outcome(popularity_table, records, *scope)
    assume(rows is not DataError)
    swapped = {r.point.unit.key: r.point
               for r in popularity_table(swap_genders(records), *scope)}
    for row in rows:
        other = swapped[row.point.unit.key]
        assert other.d == -row.point.d
        assert (other.p_male, other.p_female) == (row.point.p_female, row.point.p_male)


@given(checkins(), st.sampled_from(COUNTRIES))
def test_popularity_sums_to_one_per_gender(records, country):
    region = RegionSelector(Granularity.COUNTRY, country)
    rows = outcome(popularity_table, records, AnalysisMode.SUBCATEGORY, region)
    assume(rows is not DataError)
    assert math.fsum(r.point.p_male for r in rows) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(r.point.p_female for r in rows) == pytest.approx(1.0, abs=1e-12)
