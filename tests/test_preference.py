import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from venuepref.filtering import FilterConfig, filter_regions
from venuepref.models import Granularity, rows_with
from venuepref.preference import (
    PreferenceVector,
    build_preference_vectors,
    collect_global_dims,
    gini,
)
from venuepref.synth import SubcategorySpec, SynthSpec, generate

from checkin_records import to_records, to_table
from conftest import make_record
from one_region import RegionSelector, apply_filters, build_preference_vector

BR = RegionSelector(Granularity.COUNTRY, "BR")


def lorenz_gini(x):
    """Independent oracle: trapezoid area under the empirical Lorenz curve,
    g = 1 - 2B with A + B = 1/2."""
    arr = np.sort(np.asarray(x, dtype=float))
    cum = np.insert(np.cumsum(arr), 0, 0.0) / arr.sum()
    # trapezoid quadrature over n equal-width slices of the population axis
    b_area = np.trapezoid(cum, dx=1.0 / arr.size)
    return 1.0 - 2.0 * b_area


def test_perfect_equality():
    for c in (0.3, 1.0, 7.5):
        assert gini([c] * 6) == pytest.approx(0.0, abs=1e-15)
    # rounding once gave +2.2e-16 and -2.2e-16 here
    assert gini([0.1] * 3) == gini([1e-3] * 7) == 0.0


def test_zero_one_pair():
    assert gini([0.0, 1.0]) == pytest.approx(0.5)


def test_one_two_three():
    assert gini([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 9.0)


def test_matches_lorenz_oracle():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        x = rng.random(n) * rng.choice([0.1, 1.0, 100.0])
        if x.sum() == 0:
            continue
        assert gini(x) == pytest.approx(lorenz_gini(x), abs=1e-9)


def test_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.random(int(rng.integers(2, 30)))
        for c in (1e-6, 3.0, 1e6):
            assert gini(c * x) == pytest.approx(gini(x), abs=1e-12)


def test_permutation_invariance():
    x = [5.0, 1.0, 3.0, 3.0, 0.5]
    assert gini(x) == gini(sorted(x)) == gini(sorted(x, reverse=True))


def test_range_bound():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(1, 25))
        x = rng.random(n)
        g = gini(x)
        assert 0.0 <= g <= 1.0 - 1.0 / n + 1e-12
    # one-point-takes-all approaches the bound
    assert gini([0, 0, 0, 1]) == pytest.approx(0.75)


@given(st.one_of(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
    st.builds(lambda v, n: [v] * n, st.floats(1e-9, 1e6), st.integers(1, 40))))
def test_range_property(x):
    assume(any(x))
    assert 0.0 <= gini(x) <= 1.0 - 1.0 / len(x)


def test_all_zero_returns_zero_with_warning():
    with pytest.warns(UserWarning, match="all-zero"):
        assert gini([0.0, 0.0]) == 0.0


def test_invalid_input():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([-1.0, 2.0])


def two_region_records():
    records = []
    # BR: Café with venues of unequal |d|, Bar with identical venues
    for venue, males, females in (("c1", 4, 0), ("c2", 1, 1), ("c3", 0, 4)):
        for i in range(males):
            records.append(make_record(user=f"m-{venue}-{i}", gender="male",
                                       venue=venue, subcat="Café"))
        for i in range(females):
            records.append(make_record(user=f"f-{venue}-{i}", gender="female",
                                       venue=venue, subcat="Café"))
    for venue in ("b1", "b2"):
        records.append(make_record(user=f"m-{venue}", gender="male",
                                   venue=venue, subcat="Bar"))
        records.append(make_record(user=f"f-{venue}", gender="female",
                                   venue=venue, subcat="Bar"))
    # US: only Bar
    for venue in ("ub1", "ub2"):
        records.append(make_record(user=f"um-{venue}", gender="male",
                                   venue=venue, subcat="Bar", country="US"))
        records.append(make_record(user=f"uf-{venue}", gender="female",
                                   venue=venue, subcat="Bar", country="US"))
    return records


def region_records(name):
    """One country's share of two_region_records, unfiltered, sharing the
    value tables of both countries."""
    table = to_table(two_region_records())
    return table.take(rows_with(table.country, table.countries, name))


def test_global_dims_union_is_sorted():
    dims = collect_global_dims(to_table(two_region_records()))
    assert dims == ["Bar", "Café"]


def test_global_dims_of_a_subset_are_those_of_its_rows():
    # US's rows share the venue subcategories of BR's Café venues, and use none
    assert collect_global_dims(region_records("US")) == ["Bar"]
    assert collect_global_dims(region_records("BR")) == ["Bar", "Café"]


def test_identical_venue_differences_give_zero():
    records = region_records("BR")
    vec = build_preference_vector(records, BR.name, ["Bar", "Café"])
    bar = vec.values[vec.dims.index("Bar")]
    cafe = vec.values[vec.dims.index("Café")]
    assert bar == pytest.approx(0.0)
    assert cafe > 0.0


def test_absent_dimension_is_zero():
    records = region_records("US")
    vec = build_preference_vector(records, "US", ["Bar", "Café", "Zoo"])
    assert vec.values[vec.dims.index("Café")] == 0.0
    assert vec.values[vec.dims.index("Zoo")] == 0.0


def test_single_gender_subcategory_is_zero():
    # Bar has male check-ins only, so its venue-level differences are undefined
    records = [r for r in two_region_records()
               if r.country == "BR" and r.subcategory == "Café"]
    records += [make_record(user=f"m{v}", gender="male", venue=f"b{v}", subcat="Bar")
                for v in range(2)]
    vec = build_preference_vector(to_table(records), BR.name, ["Bar", "Café"])
    assert vec.values[vec.dims.index("Bar")] == 0.0
    assert vec.values[vec.dims.index("Café")] > 0.0


def test_vector_build_is_deterministic():
    records = region_records("BR")
    a = build_preference_vector(records, BR.name, ["Bar", "Café"])
    b = build_preference_vector(records, BR.name, ["Bar", "Café"])
    assert np.array_equal(a.values, b.values)


def test_values_in_unit_interval():
    records = region_records("BR")
    vec = build_preference_vector(records, BR.name, ["Bar", "Café"])
    assert np.all(vec.values >= 0.0)
    assert np.all(vec.values <= 1.0)


def test_vector_length_checked():
    with pytest.raises(ValueError):
        PreferenceVector(region="BR", dims=["a", "b"], values=np.zeros(3))


REGIONS = [BR, RegionSelector(Granularity.COUNTRY, "US")]


@st.composite
def two_region_checkins(draw):
    """Synthetic check-ins of BR and US: three subcategories of 1-4 venues
    each, with drawn gender skews, users, sizes and seeds."""
    records = []
    for region in REGIONS:
        subcats = [SubcategorySpec(name=name, category="Food",
                                   n_venues=draw(st.integers(1, 4)), base_weight=1.0,
                                   gender_skew=draw(st.floats(-0.9, 0.9)))
                   for name in ("Bar", "Café", "Gym")]
        records += to_records(*generate(SynthSpec(
            n_users=draw(st.integers(1, 20)), female_fraction=0.5,
            subcategories=subcats, n_checkins=draw(st.integers(1, 80)),
            region_name=region.name, rng_seed=draw(st.integers(0, 2**16)))))
    return records


def region_vectors(records, config):
    """The vectors command's pipeline: filter every region, take the global
    dims of all of them, build one vector per region."""
    names = [region.name for region in REGIONS]
    kept, region, _ = filter_regions(to_table(records), Granularity.COUNTRY, names,
                                     config)
    return build_preference_vectors(kept, region, names, collect_global_dims(kept))


@given(records=two_region_checkins(), data=st.data(), config=st.builds(
    FilterConfig, min_checkins_per_venue=st.integers(1, 3),
    dedupe_user_venue=st.just(False), min_venues_per_subcategory=st.integers(1, 3),
    max_checkins_per_region=st.integers(1, 60) | st.none(),
    rng_seed=st.integers(0, 3)))
def test_vectors_do_not_depend_on_row_order(records, data, config):
    shuffled = data.draw(st.permutations(records))
    for a, b in zip(region_vectors(records, config),
                    region_vectors(shuffled, config)):
        assert a.region == b.region and a.dims == b.dims
        assert np.array_equal(a.values, b.values)


def uniform_segments(country):
    """Three subcategories of two venues each in ``country``: one with male
    check-ins only, one whose venues all have |d| = 0 and one whose venues
    all have the same |d| > 0."""
    visits = {"Solo": [(2, 0), (2, 0)], "Even": [(1, 1), (1, 1)],
              "Same": [(2, 0), (0, 2)]}
    return [make_record(user=f"{country}-{subcat}-{v}-{gender}{i}", gender=gender,
                        venue=f"{country}-{subcat}-{v}", subcat=subcat,
                        country=country)
            for subcat, venues in visits.items()
            for v, (males, females) in enumerate(venues)
            for gender, n in (("male", males), ("female", females))
            for i in range(n)]


@given(records=two_region_checkins(), config=st.builds(
    FilterConfig, min_checkins_per_venue=st.integers(1, 2),
    dedupe_user_venue=st.booleans(), min_venues_per_subcategory=st.integers(1, 2),
    max_checkins_per_region=st.integers(20, 80) | st.none(),
    rng_seed=st.integers(0, 3)))
def test_grouped_vectors_equal_each_region_alone(records, config):
    records += uniform_segments("BR") + uniform_segments("US")
    table = to_table(records)
    names = [region.name for region in REGIONS]
    kept, region, _ = filter_regions(table, Granularity.COUNTRY, names, config)
    dims = collect_global_dims(kept)
    grouped = build_preference_vectors(kept, region, names, dims)
    for selector, vec in zip(REGIONS, grouped):
        alone = build_preference_vector(apply_filters(table, selector, config)[0],
                                        selector.name, dims)
        assert vec.region == alone.region and vec.dims == alone.dims
        assert vec.values.view(np.int64).tolist() == alone.values.view(np.int64).tolist()


def test_a_venue_has_one_subcategory_within_each_region():
    # a table gives a venue one subcategory in every region: v1 is a Bar in
    # US and in BR, and a record that makes it a Café is refused
    records = [make_record(user=f"u{i}", gender=g, venue=v, subcat=s, country=c)
               for i, (g, v, s, c) in enumerate([
                   ("male", "v1", "Bar", "US"), ("female", "v1", "Bar", "US"),
                   ("male", "v1", "Bar", "BR"), ("female", "v2", "Bar", "BR"),
                   ("male", "v2", "Bar", "BR"), ("female", "v4", "Bar", "BR"),
                   ("female", "v4", "Bar", "BR"), ("female", "v3", "Gym", "BR")])]
    with pytest.raises(ValueError, match="^venue 'v1' has two subcategories, "
                                         "'Bar' and 'Café'$"):
        to_table(records + [make_record(venue="v1", subcat="Café", country="BR")])
    table = to_table(records)
    region = (table.country == table.countries.index("US")).astype(np.intp)
    vectors = build_preference_vectors(table, region, ["BR", "US"], ["Bar", "Gym"])
    assert [v.region for v in vectors] == ["BR", "US"]
    # BR's Bar venues v1, v2 and v4 have |d| of 1/2, 1/6 and 2/3 (over
    # sqrt 2); its Gym lacks a male check-in, so it is absent. US's one
    # venue has d = 0.
    assert vectors[0].values.tolist() == [pytest.approx(gini([3, 1, 4])), 0.0]
    assert vectors[1].values.tolist() == [0.0, 0.0]