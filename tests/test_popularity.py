import math

import numpy as np
import pytest

from venuepref.models import DataError, Gender, Granularity, RegionSelector
from venuepref.popularity import (
    AnalysisMode,
    AnalysisUnit,
    popularity,
    popularity_table,
    signed_difference,
)

from conftest import make_record

BR = RegionSelector(Granularity.COUNTRY, "BR")


def point_to_diagonal_distance(p_male, p_female):
    # distance from (x0, y0) to the line x - y = 0 via the projection formula
    return abs(p_male - p_female) / math.hypot(1.0, -1.0)


def two_subcat_scope():
    records = []
    for i in range(5):
        records.append(make_record(user=f"f{i}", gender="female", venue="cafe1",
                                   subcat="Café"))
    for i in range(5):
        records.append(make_record(user=f"f5{i}", gender="female", venue="bar1",
                                   subcat="Bar"))
    for i in range(2):
        records.append(make_record(user=f"m{i}", gender="male", venue="cafe1",
                                   subcat="Café"))
    for i in range(8):
        records.append(make_record(user=f"m5{i}", gender="male", venue="bar1",
                                   subcat="Bar"))
    return records


def test_hand_counted_example():
    # 10 female check-ins (5 in Café), 10 male (2 in Café)
    records = two_subcat_scope()
    unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, "Café", BR)
    point = popularity(records, unit)
    assert point.p_female == 0.5
    assert point.p_male == 0.2
    assert point.d == pytest.approx((0.2 - 0.5) / math.sqrt(2))
    assert point.d == pytest.approx(-0.2121, abs=1e-4)
    assert point.n_checkins == 7


def test_equal_popularity_on_diagonal():
    records = [make_record(user="m1", gender="male", subcat="Café"),
               make_record(user="f1", gender="female", subcat="Café"),
               make_record(user="m2", gender="male", subcat="Bar", venue="v2"),
               make_record(user="f2", gender="female", subcat="Bar", venue="v2")]
    point = popularity(records, AnalysisUnit(AnalysisMode.SUBCATEGORY, "Café", BR))
    assert point.d == 0.0


def test_female_only_unit_is_negative():
    records = [make_record(user="f1", gender="female", subcat="Café"),
               make_record(user="m1", gender="male", subcat="Bar", venue="v2")]
    point = popularity(records, AnalysisUnit(AnalysisMode.SUBCATEGORY, "Café", BR))
    assert point.p_male == 0.0
    assert point.d == pytest.approx(-point.p_female / math.sqrt(2))
    assert point.d < 0


def test_single_gender_scope_errors():
    records = [make_record(user="m1", gender="male")]
    with pytest.raises(DataError, match="lacks check-ins"):
        popularity(records, AnalysisUnit(AnalysisMode.SUBCATEGORY, "Café", BR))


def test_abs_d_matches_point_to_line_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        pm, pf = rng.random(2)
        assert abs(signed_difference(pm, pf)) == pytest.approx(
            point_to_diagonal_distance(pm, pf), abs=1e-12)


def test_antisymmetry_under_gender_swap():
    records = two_subcat_scope()
    swapped = [
        r.__class__(**{**r.__dict__,
                       "gender": Gender.FEMALE if r.gender is Gender.MALE
                       else Gender.MALE})
        for r in records
    ]
    unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, "Café", BR)
    assert popularity(records, unit).d == pytest.approx(
        -popularity(swapped, unit).d)


def test_numerators_partition_scope_totals():
    records = two_subcat_scope()
    rows = popularity_table(records, AnalysisMode.SUBCATEGORY, BR)
    assert sum(row.point.p_male for row in rows) == pytest.approx(1.0)
    assert sum(row.point.p_female for row in rows) == pytest.approx(1.0)
    assert sum(row.point.n_checkins for row in rows) == len(records)


def test_table_sorted_by_abs_d_then_key():
    records = two_subcat_scope()
    rows = popularity_table(records, AnalysisMode.SUBCATEGORY, BR)
    mags = [abs(row.point.d) for row in rows]
    assert mags == sorted(mags, reverse=True)


def test_tie_sorted_by_key():
    records = [
        make_record(user="m1", gender="male", subcat="Beta", venue="b"),
        make_record(user="f1", gender="female", subcat="Beta", venue="b"),
        make_record(user="m2", gender="male", subcat="Alpha", venue="a"),
        make_record(user="f2", gender="female", subcat="Alpha", venue="a"),
    ]
    rows = popularity_table(records, AnalysisMode.SUBCATEGORY, BR)
    assert [row.point.unit.key for row in rows] == ["Alpha", "Beta"]


def test_normalization_max_is_one_and_preserves_order():
    records = two_subcat_scope()
    rows = popularity_table(records, AnalysisMode.SUBCATEGORY, BR)
    top = max(max(row.p_male_norm, row.p_female_norm) for row in rows)
    assert top == pytest.approx(1.0)
    raw_order = sorted(rows, key=lambda r: r.point.p_male)
    norm_order = sorted(rows, key=lambda r: r.p_male_norm)
    assert [r.point.unit.key for r in raw_order] == \
        [r.point.unit.key for r in norm_order]


def test_single_unit_table():
    records = [make_record(user="m1", gender="male"),
               make_record(user="f1", gender="female")]
    rows = popularity_table(records, AnalysisMode.SUBCATEGORY, BR)
    assert len(rows) == 1
    assert rows[0].p_male_norm == 1.0


def test_planted_male_subcategory_has_largest_d():
    rng = np.random.default_rng(0)
    records = []
    for i in range(200):
        sub = f"S{rng.integers(4)}"
        gender = "male" if rng.integers(2) else "female"
        records.append(make_record(user=f"u{i}", gender=gender,
                                   venue=f"{sub}-v{rng.integers(3)}", subcat=sub))
    for i in range(80):
        records.append(make_record(user=f"p{i}", gender="male",
                                   venue=f"Planted-v{i % 3}", subcat="Planted"))
    rows = popularity_table(records, AnalysisMode.SUBCATEGORY, BR)
    best = max(rows, key=lambda r: r.point.d)
    assert best.point.unit.key == "Planted"
    assert best.point.d > 0


def test_venue_within_subcategory_scope_denominators():
    # denominators are the subcategory's per-gender totals, not the region's
    records = [
        make_record(user="m1", gender="male", venue="n1", subcat="Nightclub"),
        make_record(user="f1", gender="female", venue="n1", subcat="Nightclub"),
        make_record(user="f2", gender="female", venue="n2", subcat="Nightclub"),
        make_record(user="m2", gender="male", venue="c1", subcat="Café"),
        make_record(user="f3", gender="female", venue="c1", subcat="Café"),
    ]
    unit = AnalysisUnit(AnalysisMode.VENUE_WITHIN_SUBCATEGORY, "n2", BR,
                        scope_subcategory="Nightclub")
    point = popularity(records, unit)
    assert point.p_female == 0.5  # 1 of the 2 female Nightclub check-ins
    assert point.p_male == 0.0


def test_venue_with_two_subcategories_is_rejected():
    # a venue has one subcategory; ingest keeps the first and rejects the rest
    records = [make_record(user="m1", gender="male", venue="v1", subcat="Café"),
               make_record(user="f1", gender="female", venue="v1", subcat="Bar")]
    with pytest.raises(DataError, match="conflicting subcategories"):
        popularity_table(records, AnalysisMode.VENUE, BR)


def test_unit_validation():
    with pytest.raises(ValueError):
        AnalysisUnit(AnalysisMode.VENUE_WITHIN_SUBCATEGORY, "v1", BR)
    with pytest.raises(ValueError):
        AnalysisUnit(AnalysisMode.SUBCATEGORY, "Café", BR,
                     scope_subcategory="Café")
