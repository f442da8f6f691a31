"""Differential and property tests of the integer-coded scope kernel.

Every fast path must give the same floats (compared with ==) as the
per-record oracle in popularity_oracle.py, over small random check-in sets,
all three analysis modes and random scopes. The fast paths take one
region's records, as apply_filters returns them; the oracle takes the
records of every region and selects the scope's itself.

The null replicates draw per-unit counts where the oracle draws one value
per check-in, so their streams differ: they are checked for exact count
invariants, against the moments of the exact laws and, in distribution,
against the oracle.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import popularity_oracle as oracle
from checkin_records import Gender, to_table
from conftest import make_record, units
from one_region import (
    RegionSelector,
    build_preference_vector,
    popularity_table,
    run_null_model_batch,
)
from venuepref.models import DataError, Granularity
from venuepref.nullmodel import (
    NullMethod,
    NullModelConfig,
    _generative_cells,
    _generative_counts,
    _shuffle_counts,
)
from venuepref.popularity import (
    AnalysisMode,
    ScopeIndex,
    write_popularity_csv,
)

SUBCATS = ["Bar", "Café", "Gym"]
COUNTRIES = ["A", "B"]
REGION = RegionSelector(Granularity.COUNTRY, "BR")


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


def scoped(records, region):
    """The table of the records of one region, as apply_filters hands it on."""
    return to_table(oracle.scope_records(records, region))


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


def rows_as_tuples(points):
    """The points as oracle.table rows; the normalized pair is the text of
    write_popularity_csv."""
    sink = io.StringIO()
    write_popularity_csv(points, sink)
    norms = [(row["p_male_norm"], row["p_female_norm"])
             for row in csv.DictReader(io.StringIO(sink.getvalue()))]
    return [(p.key, p.p_male, p.p_female, male_norm, female_norm, p.d,
             p.n_checkins)
            for p, (male_norm, female_norm) in zip(units(points), norms, strict=True)]


@given(checkins(), scopes())
def test_popularity_table_equals_oracle(records, scope):
    mode, region, subcat = scope
    fast = outcome(popularity_table, scoped(records, region), mode,
                   region.name, subcat)
    expected = outcome(oracle.table, records, *scope)
    assert (fast if fast is DataError else rows_as_tuples(fast)) == expected


@given(checkins(), scopes())
def test_observed_d_equals_oracle(records, scope):
    mode, region, subcat = scope
    config = NullModelConfig(k=2, method=NullMethod.GENDER_SHUFFLE)
    fast = outcome(run_null_model_batch, scoped(records, region),
                   mode, region.name, config, subcat)
    expected = outcome(oracle.points, records, mode, region, subcat)
    if fast is DataError:
        assert expected is DataError or expected == []
    else:
        assert [(r.key, r.observed_d) for r in units(fast)] == \
            [(p.unit.key, p.d) for p in expected]


@given(checkins(), scopes(), st.integers(0, 3))
def test_null_replicate_counts_keep_their_totals(records, scope, seed):
    mode, region, subcat = scope
    index = outcome(ScopeIndex, scoped(records, region), mode,
                    region.name, subcat)
    assume(index is not DataError)
    rng = np.random.default_rng(seed)
    cells = _generative_cells(index)
    for _ in range(5):
        male, female = _shuffle_counts(index, rng)
        assert male.sum() == index.male_total
        assert (male >= 0).all() and (male <= index.unit_total).all()
        assert (female == index.unit_total - male).all()
        if index.c == 1:  # one check-in always has a single gender
            with pytest.raises(DataError, match="single-gender"):
                _generative_counts(index, cells, rng)
            continue
        male, female = _generative_counts(index, cells, rng)
        assert male.sum() + female.sum() == index.c
        assert male.min() >= 0 and female.min() >= 0
        assert male.sum() > 0 and female.sum() > 0


def law_records():
    """115 check-ins of one country: 10 venues with 5-16 check-ins each, in
    four subcategories of 1-4 venues, both genders at every venue."""
    records = []
    for v in range(10):
        subcat = "Bar" if v < 1 else "Café" if v < 3 else "Gym" if v < 6 else "Zoo"
        for i in range(2 + v):
            records.append(make_record(user=f"m{i}", gender="male",
                                       venue=f"v{v}", subcat=subcat))
        for i in range(3 + 7 * v % 5):
            records.append(make_record(user=f"f{i}", gender="female",
                                       venue=f"v{v}", subcat=subcat))
    return records


LAW_MODES = [AnalysisMode.SUBCATEGORY, AnalysisMode.VENUE]


@pytest.mark.parametrize("mode", LAW_MODES)
def test_null_count_moments_match_the_exact_laws(mode):
    """Per-unit sample mean and variance of the counts over k replicates
    against the exact laws: hypergeometric (the shuffle's male counts) and
    binomial(c, venues / (2 venues)) (each generative cell; the redraw of a
    single-gender sample, probability 2^(1-c) = 4e-35 here, is ignored).
    Both statistics are near normal at this k, so a bound of z = 5 standard
    errors fails a correct sampler with probability about 6e-7 per check;
    with at most 60 checks per mode the false-alarm rate is below 4e-5. The
    variance's standard error, var * sqrt((2 + excess kurtosis) / k), takes
    the excess kurtosis as at most 1: these laws have |excess kurtosis| at
    most about 1 / var, and every var here is above 1."""
    k = 4000
    index = ScopeIndex(to_table(law_records()), mode, REGION.name)
    rng = np.random.default_rng(20)
    shuffle = np.array([_shuffle_counts(index, rng)[0] for _ in range(k)])
    cells = _generative_cells(index)
    generative = np.array([np.concatenate(_generative_counts(index, cells, rng))
                           for _ in range(k)])
    t, c, m = index.unit_total, index.c, index.male_total
    q = np.bincount(index.venue_unit) / (2 * len(index.venue_ids))
    for counts, mean, var in (
            (shuffle, m * t / c, m * (t / c) * (1 - t / c) * (c - m) / (c - 1)),
            (generative, np.tile(c * q, 2), np.tile(c * q * (1 - q), 2))):
        assert (var > 1).all()
        z_mean = np.abs(counts.mean(axis=0) - mean) / np.sqrt(var / k)
        z_var = np.abs(counts.var(axis=0, ddof=1) / var - 1) / np.sqrt(3 / k)
        assert z_mean.max() < 5 and z_var.max() < 5


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic; ties are handled exactly."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, at, side="right") / a.size
                  - np.searchsorted(b, at, side="right") / b.size).max()


@pytest.mark.parametrize("method", list(NullMethod))
@pytest.mark.parametrize("mode", LAW_MODES)
def test_null_distribution_matches_the_per_record_oracle(method, mode):
    """Per unit, the k replicate differences of the count sampler and of the
    per-record oracle come from the same law: a two-sample KS test at level
    1e-5 per unit. Its asymptotic critical value is conservative for these
    discrete laws, so over the 14 units of both modes the false-alarm rate
    of each method is below 1.4e-4. The two sides use unrelated seeds."""
    k = 2000
    records = law_records()
    fast = run_null_model_batch(to_table(records), mode, REGION.name,
                                NullModelConfig(k=k, method=method, rng_seed=1))
    replay = (oracle.generative_replicates if method is NullMethod.GENERATIVE
              else oracle.shuffle_replicates)
    expected = replay(records, mode, REGION, None, k, 2)
    critical = np.sqrt(-np.log(1e-5 / 2) / 2) * np.sqrt(2 / k)
    for result, reference in zip(units(fast), expected, strict=True):
        assert ks_distance(result.null_distribution, reference) < critical, result.key


@given(checkins(), st.sampled_from(COUNTRIES))
def test_preference_vector_equals_oracle(records, country):
    region = RegionSelector(Granularity.COUNTRY, country)
    dims = SUBCATS + ["Zoo"]
    vec = build_preference_vector(scoped(records, region), country,
                                  dims)
    assert vec.values.tolist() == oracle.preference_values(records, region, dims)


@given(checkins(), scopes())
def test_gender_swap_negates_d(records, scope):
    mode, region, subcat = scope
    points = outcome(popularity_table, to_table(records), mode, region.name, subcat)
    assume(points is not DataError)
    swapped = {p.key: p for p in units(popularity_table(
        to_table(swap_genders(records)), mode, region.name, subcat))}
    for point in units(points):
        other = swapped[point.key]
        assert other.d == -point.d
        assert (other.p_male, other.p_female) == (point.p_female, point.p_male)


@given(checkins(), st.sampled_from(COUNTRIES))
def test_popularity_sums_to_one_per_gender(records, country):
    points = outcome(popularity_table, to_table(records), AnalysisMode.SUBCATEGORY,
                     country)
    assume(points is not DataError)
    assert math.fsum(points.p_male.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(points.p_female.tolist()) == pytest.approx(1.0, abs=1e-12)
