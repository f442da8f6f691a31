import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from venuepref.models import DataError, rows_with
from venuepref.nullmodel import NullModelConfig, run_null_model_batch
from venuepref.popularity import (
    AnalysisMode,
    ScopeIndex,
    popularity_table,
    signed_difference,
    write_popularity_csv,
)

from checkin_records import Gender, to_table
from conftest import by_key, make_record

BR = "BR"


def csv_rows(points):
    """The rows write_popularity_csv writes for ``points``, as dicts."""
    sink = io.StringIO()
    write_popularity_csv(points, sink)
    return list(csv.DictReader(io.StringIO(sink.getvalue())))


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
    point = by_key(popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR),
                   "Café")
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
    point = by_key(popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR),
                   "Café")
    assert point.d == 0.0


def test_female_only_unit_is_negative():
    records = [make_record(user="f1", gender="female", subcat="Café"),
               make_record(user="m1", gender="male", subcat="Bar", venue="v2")]
    point = by_key(popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR),
                   "Café")
    assert point.p_male == 0.0
    assert point.d == pytest.approx(-point.p_female / math.sqrt(2))
    assert point.d < 0


def test_single_gender_scope_errors():
    records = [make_record(user="m1", gender="male")]
    with pytest.raises(DataError, match="lacks check-ins"):
        popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR)


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
    def cafe_d(records):
        return by_key(popularity_table(to_table(records), AnalysisMode.SUBCATEGORY,
                                       BR), "Café").d

    assert cafe_d(records) == pytest.approx(-cafe_d(swapped))


def test_numerators_partition_scope_totals():
    records = two_subcat_scope()
    points = popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR)
    assert sum(p.p_male for p in points) == pytest.approx(1.0)
    assert sum(p.p_female for p in points) == pytest.approx(1.0)
    assert sum(p.n_checkins for p in points) == len(records)


def test_table_sorted_by_abs_d_then_key():
    records = two_subcat_scope()
    points = popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR)
    mags = [abs(p.d) for p in points]
    assert mags == sorted(mags, reverse=True)


def test_tie_sorted_by_key():
    records = [
        make_record(user="m1", gender="male", subcat="Beta", venue="b"),
        make_record(user="f1", gender="female", subcat="Beta", venue="b"),
        make_record(user="m2", gender="male", subcat="Alpha", venue="a"),
        make_record(user="f2", gender="female", subcat="Alpha", venue="a"),
    ]
    points = popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR)
    assert [p.unit.key for p in points] == ["Alpha", "Beta"]


def test_normalization_max_is_one_and_preserves_order():
    records = two_subcat_scope()
    points = popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR)
    rows = csv_rows(points)
    top = max(max(float(r["p_male_norm"]), float(r["p_female_norm"])) for r in rows)
    assert top == pytest.approx(1.0)
    raw_order = sorted(points, key=lambda p: p.p_male)
    norm_order = sorted(rows, key=lambda r: float(r["p_male_norm"]))
    assert [p.unit.key for p in raw_order] == [r["unit_key"] for r in norm_order]


def test_single_unit_table():
    records = [make_record(user="m1", gender="male"),
               make_record(user="f1", gender="female")]
    points = popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR)
    assert len(points) == 1
    assert csv_rows(points)[0]["p_male_norm"] == "1"


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
    points = popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, BR)
    best = max(points, key=lambda p: p.d)
    assert best.unit.key == "Planted"
    assert best.d > 0


def test_venue_within_subcategory_scope_denominators():
    # denominators are the subcategory's per-gender totals, not the region's
    records = [
        make_record(user="m1", gender="male", venue="n1", subcat="Nightclub"),
        make_record(user="f1", gender="female", venue="n1", subcat="Nightclub"),
        make_record(user="f2", gender="female", venue="n2", subcat="Nightclub"),
        make_record(user="m2", gender="male", venue="c1", subcat="Café"),
        make_record(user="f3", gender="female", venue="c1", subcat="Café"),
    ]
    point = by_key(popularity_table(to_table(records),
                                    AnalysisMode.VENUE_WITHIN_SUBCATEGORY, BR,
                                    "Nightclub"), "n2")
    assert point.p_female == 0.5  # 1 of the 2 female Nightclub check-ins
    assert point.p_male == 0.0


def test_empty_scope_names_what_is_empty():
    # the region was selected upstream; the scope names what left it empty
    records = [make_record(gender="male"), make_record(user="f", gender="female")]
    with pytest.raises(DataError, match="'BR' subcategory 'Bar' has no records"):
        popularity_table(to_table(records), AnalysisMode.VENUE_WITHIN_SUBCATEGORY,
                         BR, "Bar")
    with pytest.raises(DataError, match="'BR' has no records"):
        popularity_table(to_table([]), AnalysisMode.SUBCATEGORY, BR)


def test_venue_with_two_subcategories_is_rejected():
    # a venue has one subcategory; ingest keeps the first and rejects the rest
    records = [make_record(user="m1", gender="male", venue="v1", subcat="Café"),
               make_record(user="f1", gender="female", venue="v1", subcat="Bar")]
    with pytest.raises(DataError, match="conflicting subcategories"):
        popularity_table(to_table(records), AnalysisMode.VENUE, BR)


def scope_outcome(table, mode, subcat):
    """What a ScopeIndex of BR's rows of ``table`` holds, or its error."""
    try:
        index = ScopeIndex(table.take(rows_with(table.country, table.countries, BR)),
                           mode, BR, subcat)
    except DataError as exc:
        return str(exc)
    return (index.venue_ids, index.subcategories, index.keys,
            *(a.tolist() for a in (index.venue_subcat, index.venue_unit,
                                   index.unit_total, index.male, index.female)))


@pytest.mark.parametrize("conflict", [False, True])
def test_scope_index_ignores_venues_absent_from_the_scope(conflict):
    # BR's venues sit among 40 US venues, of other subcategories too; the
    # scope's codes, counts and errors are those of BR's check-ins alone
    scope = [make_record(user=f"u{i}", gender=("male", "female")[i % 2],
                         venue=f"v{i % 3}", subcat=("Bar", "Café")[i % 3 > 0])
             for i in range(7)]
    if conflict:
        scope.append(make_record(user="x", venue="v2", subcat="Bar"))
    others = [make_record(user=f"w{v}", venue=f"{name}{v}", subcat=f"S{v % 4}",
                          country="US")
              for v in range(20) for name in ("a", "w")]
    for mode, subcat in [(AnalysisMode.SUBCATEGORY, None), (AnalysisMode.VENUE, None),
                         (AnalysisMode.VENUE_WITHIN_SUBCATEGORY, "Café")]:
        alone = scope_outcome(to_table(scope), mode, subcat)
        assert scope_outcome(to_table(others + scope), mode, subcat) == alone
        assert scope_outcome(to_table(scope + others[::-1]), mode, subcat) == alone
        if conflict and subcat is None:
            assert alone == "venue 'v2' has conflicting subcategories 'Café' and 'Bar'"


def test_unit_validation():
    # venue_within_subcategory mode needs a non-empty subcategory, and the
    # other modes take None; both statistics refuse a mismatch
    table = to_table(two_subcat_scope())
    for mode, subcat in [(AnalysisMode.VENUE_WITHIN_SUBCATEGORY, None),
                         (AnalysisMode.VENUE_WITHIN_SUBCATEGORY, ""),
                         (AnalysisMode.SUBCATEGORY, "Café"),
                         (AnalysisMode.VENUE, "")]:
        with pytest.raises(ValueError, match="scope_subcategory"):
            popularity_table(table, mode, BR, subcat)
        with pytest.raises(ValueError, match="scope_subcategory"):
            run_null_model_batch(table, mode, BR, NullModelConfig(k=2), subcat)


def test_popularity_csv_bytes_match_a_row_per_point_writer():
    """The csv, written a column at a time, quotes awkward keys and formats
    every float as a csv.writer row per point does."""
    keys = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " padded ", "", "é"]
    records = [make_record(user=f"{gender}{v}-{i}", gender=gender, venue=f"v{v}")
               for v in range(len(keys))
               for gender, n in (("male", v + 1), ("female", 2 * (len(keys) - v)))
               for i in range(n)]
    points = popularity_table(to_table(records), AnalysisMode.VENUE, BR)
    points = [replace(p, unit=replace(p.unit, key=key)) for p, key in zip(points, keys, strict=True)]
    sink = io.StringIO()
    write_popularity_csv(points, sink)

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["unit_key", "mode", "p_male", "p_female",
                     "p_male_norm", "p_female_norm", "d_s", "n_checkins"])
    p_max = max(max(p.p_male, p.p_female) for p in points)
    for p in points:
        writer.writerow([p.unit.key, p.unit.mode.value, f"{p.p_male:.10g}",
                         f"{p.p_female:.10g}", f"{p.p_male / p_max:.10g}",
                         f"{p.p_female / p_max:.10g}", f"{p.d:.10g}", p.n_checkins])
    assert sink.getvalue() == expected.getvalue()
    assert '"a,b"' in sink.getvalue() and '"say ""hi"""' in sink.getvalue()
