import contextlib
from collections import Counter, defaultdict
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from venuepref.filtering import FilterConfig, filter_regions
from venuepref.models import CheckinTable, DataError, Granularity, group_codes

import filter_oracle
from checkin_records import to_records, to_table
from conftest import make_record
from one_region import RegionSelector, apply_filters

BR = RegionSelector(Granularity.COUNTRY, "BR")


def filtered(records, region, config):
    """``apply_filters`` over the table of ``records``; the kept rows as records."""
    kept, report = apply_filters(to_table(records), region, config)
    return to_records(kept), report


def loose(**kwargs):
    defaults = dict(min_checkins_per_venue=1, min_venues_per_subcategory=1,
                    rng_seed=0)
    defaults.update(kwargs)
    return FilterConfig(**defaults)


def test_region_selection_and_error():
    records = [make_record(country="BR"), make_record(country="US")]
    out, _ = filtered(records, BR, loose())
    assert all(r.country == "BR" for r in out)
    with pytest.raises(DataError, match="zero records"):
        filtered(records, RegionSelector(Granularity.COUNTRY, "FR"), loose())


def test_city_granularity():
    records = [make_record(user=f"u{i}", city="Sao Paulo") for i in range(3)]
    records.append(make_record(user="x", city="Rio"))
    out, _ = filtered(records, RegionSelector(Granularity.CITY, "Sao Paulo"),
                           loose())
    assert len(out) == 3


def test_category_whitelist():
    records = [make_record(user="u1", category="Food"),
               make_record(user="u2", category="Travel")]
    out, _ = filtered(records, BR, loose())
    assert [r.category for r in out] == ["Food"]


def test_dedupe_keeps_one_per_user_venue():
    records = [make_record(user="u1", venue="v1") for _ in range(3)]
    out, _ = filtered(records, BR, loose())
    assert len(out) == 1


def test_dedupe_keeps_earliest_by_timestamp():
    records = [
        make_record(user="u1", venue="v1", ts="2014-04-27T10:00:00"),
        make_record(user="u1", venue="v1", ts="2014-04-25T10:00:00"),
        make_record(user="u1", venue="v1", ts="2014-04-26T10:00:00"),
    ]
    out, _ = filtered(records, BR, loose())
    assert len(out) == 1
    assert out[0].timestamp.day == 25


def test_venue_threshold_removes_small_venues():
    records = [make_record(user=f"u{i}", venue="small") for i in range(4)]
    records += [make_record(user=f"w{i}", venue="big") for i in range(5)]
    out, _ = filtered(records, BR, loose(min_checkins_per_venue=5))
    assert {r.venue_id for r in out} == {"big"}


def test_subcategory_needs_two_venues():
    records = [make_record(user=f"u{i}", venue="only", subcat="Lonely")
               for i in range(5)]
    records += [make_record(user=f"a{i}", venue="v1", subcat="Café") for i in range(5)]
    records += [make_record(user=f"b{i}", venue="v2", subcat="Café") for i in range(5)]
    out, _ = filtered(records, BR, FilterConfig())
    assert {r.subcategory for r in out} == {"Café"}


def test_monotonicity_output_subset_of_input():
    records = [make_record(user=f"u{i % 7}", venue=f"v{i % 5}") for i in range(40)]
    out, _ = filtered(records, BR, FilterConfig())
    assert all(r in records for r in out)


def test_idempotence():
    records = []
    rng = np.random.default_rng(5)
    for i in range(300):
        records.append(make_record(
            user=f"u{rng.integers(60)}",
            venue=f"v{rng.integers(20)}",
            subcat=f"S{rng.integers(4)}",
            gender="male" if rng.integers(2) else "female",
        ))
    config = FilterConfig(max_checkins_per_region=120, rng_seed=9)
    once, _ = filtered(records, BR, config)
    twice, _ = filtered(once, BR, config)
    assert once == twice


def test_post_state_thresholds_hold():
    rng = np.random.default_rng(2)
    records = [make_record(user=f"u{rng.integers(50)}",
                           venue=f"v{rng.integers(30)}",
                           subcat=f"S{rng.integers(6)}")
               for _ in range(400)]
    config = FilterConfig(max_checkins_per_region=100, rng_seed=3)
    out, _ = filtered(records, BR, config)
    venue_counts = {}
    subcat_venues = {}
    seen_pairs = set()
    for rec in out:
        venue_counts[rec.venue_id] = venue_counts.get(rec.venue_id, 0) + 1
        subcat_venues.setdefault(rec.subcategory, set()).add(rec.venue_id)
        pair = (rec.user_id, rec.venue_id)
        assert pair not in seen_pairs
        seen_pairs.add(pair)
    assert all(v >= config.min_checkins_per_venue for v in venue_counts.values())
    assert all(len(v) >= config.min_venues_per_subcategory
               for v in subcat_venues.values())
    assert len(out) <= 100


def test_cap_keeps_whole_venues():
    rng = np.random.default_rng(11)
    records = []
    for v in range(80):
        for i in range(rng.integers(5, 15)):
            records.append(make_record(user=f"u{v}_{i}", venue=f"v{v}",
                                       subcat=f"S{v % 10}"))
    total = len(records)
    assert total > 500
    config = loose(max_checkins_per_region=500, rng_seed=1)
    out, _ = filtered(records, BR, config)
    assert len(out) <= 500
    in_counts = {}
    for rec in records:
        in_counts[rec.venue_id] = in_counts.get(rec.venue_id, 0) + 1
    out_counts = {}
    for rec in out:
        out_counts[rec.venue_id] = out_counts.get(rec.venue_id, 0) + 1
    # every retained venue keeps all of its check-ins
    for vid, n in out_counts.items():
        assert n == in_counts[vid]


def test_cap_is_deterministic_under_seed():
    records = [make_record(user=f"u{i}", venue=f"v{i % 40}") for i in range(400)]
    config = loose(max_checkins_per_region=150, rng_seed=77)
    first, _ = filtered(records, BR, config)
    second, _ = filtered(records, BR, config)
    assert first == second


def test_report_counts_per_stage():
    records = [make_record(user="u1", category="Travel"),
               make_record(user="u2")]
    out, report = filtered(records, BR, loose())
    stages = {s["stage"]: s for s in report.as_dict()["stages"]}
    assert stages["region"]["in"] == 2
    assert stages["category"]["out"] == 1


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(min_checkins_per_venue=0)
    with pytest.raises(ValueError):
        FilterConfig(max_checkins_per_region=0)
    with pytest.raises(ValueError, match="rng_seed"):  # not numpy's, at the first draw
        FilterConfig(rng_seed=-1)


@st.composite
def checkin_sets(draw):
    """Up to 8 venues, each with one subcategory, country (BR or US) and
    category (Food, or Shops outside the default whitelist), and 1-8 visits
    by 10 users; repeated (user, venue) pairs have missing or tied days."""
    venues = draw(st.lists(st.tuples(
        st.sampled_from(["Bar", "Café", "Gym"]), st.sampled_from(["BR", "BR", "US"]),
        st.sampled_from(["Food", "Food", "Shops"]),
        st.lists(st.tuples(st.integers(0, 9), st.booleans(),
                           st.none() | st.integers(0, 3)), min_size=1, max_size=8)),
        min_size=1, max_size=8))
    start = datetime(2014, 4, 1)
    return [make_record(user=f"u{user}", gender="male" if male else "female",
                        venue=f"v{v}", subcat=subcat, category=category,
                        country=country,
                        ts=None if day is None else start + timedelta(days=day))
            for v, (subcat, country, category, visits) in enumerate(venues)
            for user, male, day in visits]


@given(records=checkin_sets(), config=st.builds(
    FilterConfig, min_checkins_per_venue=st.integers(1, 3),
    dedupe_user_venue=st.booleans(), min_venues_per_subcategory=st.integers(1, 3),
    max_checkins_per_region=st.integers(1, 30) | st.none(),
    rng_seed=st.integers(0, 3)))
def test_filters_are_idempotent_and_meet_every_threshold(records, config):
    assume(any(rec.country == BR.name for rec in records))
    out, _ = filtered(records, BR, config)
    assert all(rec.country == BR.name and rec.category in config.allowed_categories
               for rec in out)
    assert all(n >= config.min_checkins_per_venue
               for n in Counter(rec.venue_id for rec in out).values())
    venues = defaultdict(set)
    for rec in out:
        venues[rec.subcategory].add(rec.venue_id)
    assert all(len(v) >= config.min_venues_per_subcategory for v in venues.values())
    if config.max_checkins_per_region is not None:
        assert len(out) <= config.max_checkins_per_region
    if config.dedupe_user_venue:
        assert len({(rec.user_id, rec.venue_id) for rec in out}) == len(out)
    if out:
        assert filtered(out, BR, config)[0] == out


# Differential tests: the columnar filters against the per-record oracle in
# filter_oracle.py. The rows the filters keep are named by the indices they
# hand CheckinTable.take, the oracle's by its records' input positions.


@contextlib.contextmanager
def taken_rows():
    """A list that gets the rows (as a list of indices) of each
    ``CheckinTable.take`` call made inside the block."""
    taken = []
    take = CheckinTable.take

    def spy(table, rows):
        taken.append(np.arange(len(table))[rows].tolist())
        return take(table, rows)

    with mock.patch.object(CheckinTable, "take", spy):
        yield taken


def kept_rows(records, config, region=BR):
    """The input positions of the records ``apply_filters`` keeps."""
    with taken_rows() as taken:
        kept, _ = apply_filters(to_table(records), region, config)
    (rows,) = taken
    assert len(rows) == len(kept)
    return rows


def positions(records, kept):
    """The input positions of the records ``kept``, which are ``records``
    themselves, told apart by identity."""
    position = {id(rec): i for i, rec in enumerate(records)}
    assert len(position) == len(records)
    return [position[id(rec)] for rec in kept]

UTC = timezone.utc
OFFSETS = [timezone.utc, timezone(timedelta(hours=2)),
           timezone(timedelta(hours=-3, minutes=-30))]
START = datetime(2014, 4, 25, 12, tzinfo=UTC)


def filter_outcome(filters, *args):
    try:
        return filters(*args)
    except DataError as exc:
        return str(exc)


def assert_same_filters(records, config, region=BR):
    expected = filter_outcome(filter_oracle.apply_filters, records, region, config)
    with taken_rows() as taken:
        outcome = filter_outcome(apply_filters, to_table(records), region, config)
    if isinstance(expected, str):
        assert outcome == expected
        return
    (kept, report), (oracle_kept, stages) = outcome, expected
    assert report.stages == stages
    assert taken == [positions(records, oracle_kept)]
    assert len(kept) == len(oracle_kept)


@st.composite
def timed_checkins(draw):
    """Up to 40 check-ins at 6 venues by 5 users, with timestamps that are
    missing, tie, differ by 1 µs or name one instant with other offsets."""
    venue_subcat = draw(st.lists(st.sampled_from(["Bar", "Café", "Gym"]),
                                 min_size=6, max_size=6))
    rows = draw(st.lists(st.tuples(
        st.integers(0, 4), st.integers(0, 5), st.booleans(),
        st.sampled_from(["BR", "BR", "US"]), st.sampled_from(["Food", "Food", "Shops"]),
        st.none() | st.sampled_from([0, 1, 2, 3_600_000_000]),
        st.sampled_from(OFFSETS)), max_size=40))
    return [make_record(user=f"u{user}", gender="male" if male else "female",
                        venue=f"v{venue}", subcat=venue_subcat[venue],
                        category=category, country=country,
                        ts=None if micros is None else
                        (START + timedelta(microseconds=micros)).astimezone(offset))
            for user, venue, male, country, category, micros, offset in rows]


@given(records=timed_checkins(), config=st.builds(
    FilterConfig, min_checkins_per_venue=st.integers(1, 3),
    dedupe_user_venue=st.booleans(), min_venues_per_subcategory=st.integers(1, 3),
    max_checkins_per_region=st.integers(1, 30) | st.none(),
    rng_seed=st.integers(0, 3)))
def test_filters_equal_oracle(records, config):
    assert_same_filters(records, config)


@given(checkin_sets(), st.booleans(), st.integers(1, 30) | st.none())
def test_loose_filters_equal_oracle(records, dedupe, cap):
    assert_same_filters(records, loose(dedupe_user_venue=dedupe,
                                       max_checkins_per_region=cap))


def test_dedupe_tells_apart_timestamps_one_microsecond_apart():
    # float epoch seconds cannot tell these apart: they would tie, and the
    # first row would win
    late = datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=UTC)
    records = [make_record(ts=late), make_record(ts=late - timedelta(microseconds=1))]
    assert kept_rows(records, loose()) == [1]
    assert_same_filters(records, loose())


def test_dedupe_ties_on_one_instant_go_to_input_order():
    noon = datetime(2014, 4, 25, 12, tzinfo=UTC)
    for offset in OFFSETS[1:]:
        records = [make_record(ts=noon.astimezone(offset)), make_record(ts=noon)]
        assert kept_rows(records, loose()) == [0]
        assert_same_filters(records, loose())
        assert kept_rows(records[::-1], loose()) == [0]


# filter_regions filters every named region in one pass; each region's kept
# rows and funnel must be those of the per-record oracle for that region.

COUNTRIES = ["AR", "BR", "US"]
CITIES = ["Lima", "Rio", None]


@st.composite
def multi_region_checkins(draw):
    """20-60 check-ins at 8 venues by 5 users in three countries and
    three cities (one of them no city), with timestamps that are missing,
    tie, differ by 1 µs or name one instant with other offsets. Now and then
    a check-in gives its venue a second subcategory, which the filters count
    as one more venue of that subcategory."""
    venue_subcat = draw(st.lists(st.sampled_from(["Bar", "Café", "Gym"]),
                                 min_size=8, max_size=8))
    rows = draw(st.lists(st.tuples(
        st.integers(0, 4), st.integers(0, 7), st.booleans(),
        st.sampled_from(COUNTRIES), st.sampled_from(CITIES),
        st.sampled_from(["Food", "Food", "Food", "Shops"]),
        st.none() | st.sampled_from([0, 1, 2, 3_600_000_000]),
        st.sampled_from(OFFSETS), st.sampled_from([False] * 9 + [True])),
        min_size=20, max_size=60))
    return [make_record(user=f"u{user}", gender="male" if male else "female",
                        venue=f"v{venue}", subcat="Zoo" if odd else venue_subcat[venue],
                        category=category, country=country, city=city,
                        ts=None if micros is None else
                        (START + timedelta(microseconds=micros)).astimezone(offset))
            for user, venue, male, country, city, category, micros, offset, odd in rows]


@given(records=multi_region_checkins(), data=st.data(), config=st.builds(
    FilterConfig, min_checkins_per_venue=st.integers(1, 3),
    dedupe_user_venue=st.booleans(), min_venues_per_subcategory=st.integers(1, 3),
    max_checkins_per_region=st.integers(1, 20) | st.none(),
    rng_seed=st.integers(0, 3)))
def test_filter_regions_equals_oracle_per_region(records, data, config):
    granularity = data.draw(st.sampled_from(list(Granularity)))
    known = COUNTRIES if granularity is Granularity.COUNTRY else CITIES[:2]
    names = data.draw(st.permutations(known))[:data.draw(st.integers(1, len(known)))]
    if data.draw(st.integers(0, 9)) == 0:  # now and then a region of no record
        names.insert(data.draw(st.integers(0, len(names))), "Nowhere")
    expected = [filter_outcome(filter_oracle.apply_filters, records,
                               RegionSelector(granularity, name), config)
                for name in names]
    with taken_rows() as taken:
        outcome = filter_outcome(filter_regions, to_table(records), granularity,
                                 names, config)
    errors = [e for e in expected if isinstance(e, str)]
    if errors:  # the first region that matches no record is named
        assert outcome == errors[0]
        return
    kept, region, reports = outcome
    (rows,) = taken
    rows = np.array(rows, np.intp)
    assert len(region) == len(kept) == len(rows)
    for i, (oracle_kept, stages) in enumerate(expected):
        assert reports[i].stages == stages
        assert rows[region == i].tolist() == positions(records, oracle_kept)
    # one table in input order
    assert (np.diff(rows) > 0).all()


def test_filter_regions_caps_each_region_with_the_same_seed():
    # the second region is over the cap, the first under it
    records = [make_record(user=f"u{i}", venue=f"b{i % 3}", country="BR")
               for i in range(10)]
    records += [make_record(user=f"u{i}", venue=f"a{i % 12}", country="AR")
                for i in range(90)]
    config = loose(max_checkins_per_region=40, rng_seed=5)
    with taken_rows() as taken:
        _, region, reports = filter_regions(to_table(records), Granularity.COUNTRY,
                                            ["BR", "AR"], config)
    (rows,) = taken
    for i, name in enumerate(["BR", "AR"]):
        oracle_kept, stages = filter_oracle.apply_filters(
            records, RegionSelector(Granularity.COUNTRY, name), config)
        assert reports[i].stages == stages
        assert np.array(rows)[region == i].tolist() == positions(records, oracle_kept)
    caps = [{s["stage"]: s for s in report.stages}["region_cap"] for report in reports]
    assert caps[0] == {"stage": "region_cap", "in": 10, "out": 10}
    assert caps[1]["in"] == 90 and caps[1]["out"] <= 40


def test_filter_regions_names_the_first_region_without_rows():
    table = to_table([make_record(country="BR"), make_record(country="US")])
    with pytest.raises(DataError, match=r"^region 'FR' \(country\) matches zero records$"):
        filter_regions(table, Granularity.COUNTRY, ["BR", "FR", "DE"], loose())
    with pytest.raises(ValueError, match="distinct"):
        filter_regions(table, Granularity.COUNTRY, ["BR", "BR"], loose())


@given(st.lists(st.integers(0, 50), max_size=40), st.integers(0, 400))
def test_group_codes_equal_a_sort(keys, extra):
    keys = np.array(keys, np.int64)
    size = int(keys.max(initial=-1)) + 1 + extra  # both the lookup and the sort
    values, codes = group_codes(keys, size)
    expected_values, expected_codes = np.unique(keys, return_inverse=True)
    assert values.tolist() == expected_values.tolist()
    assert codes.tolist() == expected_codes.tolist()
