import hashlib
import io
import json
from dataclasses import fields

import numpy as np
import pytest

from venuepref.cli import main
from venuepref.models import CheckinTable, ingest_checkins, write_checkins
from venuepref.synth import SubcategorySpec, SynthSpec, generate

from checkin_records import Gender, to_records


def records_of(s):
    return to_records(*generate(s))


def spec(skews=(0.0, 0.0, 0.0), n_checkins=3000, n_users=500,
         female_fraction=0.5, seed=0):
    subcats = [SubcategorySpec(name=f"S{i}", category="Food", n_venues=3,
                               base_weight=1.0, gender_skew=s)
               for i, s in enumerate(skews)]
    return SynthSpec(n_users=n_users, female_fraction=female_fraction,
                     subcategories=subcats, n_checkins=n_checkins,
                     region_name="Synthland", rng_seed=seed)


def test_record_count_and_region():
    records = records_of(spec(n_checkins=100))
    assert len(records) == 100
    assert all(r.country == "Synthland" for r in records)


def test_same_seed_identical_output():
    first, second = records_of(spec(seed=5)), records_of(spec(seed=5))
    assert first == second
    # a record's coordinates take no part in its equality
    assert [(r.latitude, r.longitude) for r in first] == \
        [(r.latitude, r.longitude) for r in second]


def test_different_seed_differs():
    assert records_of(spec(seed=1)) != records_of(spec(seed=2))


def test_output_passes_ingest_validation():
    buf = io.StringIO()
    write_checkins(*generate(spec(n_checkins=200)), buf, fmt="csv")
    again, report = ingest_checkins(io.BytesIO(buf.getvalue().encode()), "csv")
    assert report.rejected == 0
    assert len(again) == 200


def test_gender_marginals_match_female_fraction():
    s = spec(n_users=1000, female_fraction=0.3, n_checkins=0)
    records = records_of(s)
    assert records == []
    # check the user-level assignment through a big draw instead
    records = records_of(spec(n_users=1000, female_fraction=0.3,
                            n_checkins=20000, seed=3))
    users = {}
    for r in records:
        users[r.user_id] = r.gender
    observed = sum(1 for g in users.values() if g is Gender.FEMALE) / len(users)
    assert observed == pytest.approx(0.3, abs=0.05)


def test_skew_plus_one_excludes_female():
    records = records_of(spec(skews=(1.0, 0.0), n_checkins=2000, seed=4))
    planted = [r for r in records if r.subcategory == "S0"]
    assert planted
    assert all(r.gender is Gender.MALE for r in planted)


def test_skew_minus_one_excludes_male():
    records = records_of(spec(skews=(-1.0, 0.0), n_checkins=2000, seed=4))
    planted = [r for r in records if r.subcategory == "S0"]
    assert planted
    assert all(r.gender is Gender.FEMALE for r in planted)


def test_zero_skew_shares_within_three_sigma():
    # with skew 0 everywhere the per-gender subcategory share is binomial
    records = records_of(spec(skews=(0.0,) * 4, n_checkins=40000, n_users=4000,
                            seed=6))
    for gender in Gender:
        mine = [r for r in records if r.gender is gender]
        n = len(mine)
        p = 1.0 / 4
        sigma = np.sqrt(p * (1 - p) / n)
        for s in range(4):
            share = sum(1 for r in mine if r.subcategory == f"S{s}") / n
            assert abs(share - p) <= 3 * sigma + 1e-9, (gender, s)


def test_impossible_spec_rejected():
    bad = spec(skews=(-1.0, 0.0), female_fraction=0.0)
    with pytest.raises(ValueError, match="female-only"):
        records_of(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(skews=(1.5,))
    with pytest.raises(ValueError):
        SynthSpec(n_users=0, female_fraction=0.5,
                  subcategories=[SubcategorySpec("a", "Food", 1, 1.0)],
                  n_checkins=10, region_name="X")


def test_from_json_round_trip():
    text = """{
      "n_users": 50, "female_fraction": 0.5, "n_checkins": 20,
      "region_name": "Synthland", "rng_seed": 9,
      "subcategories": [
        {"name": "S0", "category": "Food", "n_venues": 2, "base_weight": 1.0},
        {"name": "S1", "category": "Arts", "n_venues": 2, "base_weight": 2.0,
         "gender_skew": 0.5}
      ]
    }"""
    s = SynthSpec.from_json(text)
    assert s.subcategories[1].gender_skew == 0.5
    records = records_of(s)
    assert len(records) == 20


SPEC_JSON = {"n_users": 50, "female_fraction": 0.5, "n_checkins": 50,
             "region_name": "Synthland",
             "subcategories": [{"name": "S0", "category": "Food", "n_venues": 2,
                                "base_weight": 1.0}]}


@pytest.mark.parametrize("key, value", [
    ("bbox", [100, 200, 0, 1]),
    ("bbox", [0, 1, -181, 0]),
    ("bbox", [1, 2]),
    ("bbox", [0, 1, 0, float("nan")]),
    ("bbox", [0, 1, 0, float("inf")]),
    ("bbox", [0, 1, 0, True]),
    ("bbox", "0123"),
    ("bbox", 5),
    ("city", 5),
    ("city", ["Rio"]),
], ids=["latitude-range", "longitude-range", "two-values", "nan", "inf", "bool",
        "string", "number", "city-number", "city-list"])
def test_bad_bbox_or_city_names_the_field(key, value, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SPEC_JSON, key: value}))
    assert main(["synth", "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.startswith(f"error: SynthSpec.{key} ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("field, value", [
    ("region_name", ""),
    ("region_name", "  "),
    ("name", ""),
    ("name", " \t"),
    ("category", ""),
    ("category", " "),
], ids=["region-empty", "region-space", "name-empty", "name-space",
        "category-empty", "category-space"])
def test_blank_name_names_the_field(field, value, tmp_path, capsys):
    if field == "region_name":
        bad, owner = {**SPEC_JSON, field: value}, "SynthSpec"
    else:
        subcategory = {**SPEC_JSON["subcategories"][0], field: value}
        bad, owner = {**SPEC_JSON, "subcategories": [subcategory]}, "SubcategorySpec"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(bad))
    assert main(["synth", "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {owner}.{field} must not be blank")
    assert not (tmp_path / "s").exists()


def test_bbox_and_city_are_written_out():
    s = SynthSpec.from_json(json.dumps({**SPEC_JSON, "city": "Rio",
                                        "bbox": [-10, 10.5, 170, 180]}))
    table, (latitude, longitude) = generate(s)
    assert all(r.city == "Rio" for r in to_records(table))
    assert len(latitude) == len(longitude) == len(table)
    assert ((-10 <= latitude) & (latitude <= 10.5)).all()
    assert ((170 <= longitude) & (longitude <= 180)).all()


def _awkward_spec(seed):
    """Names that csv has to quote: a comma, a double quote and a newline."""
    return SynthSpec(
        n_users=40, female_fraction=0.4, n_checkins=300, rng_seed=seed,
        region_name='Land, "North"\nside', city='Rio, "RJ"',
        subcategories=[
            SubcategorySpec('Café, "Bar"', "Food\nand drink", 3, 1.0, 0.5),
            SubcategorySpec("Zoo", 'Arts, "Fine"', 2, 2.0, -0.25),
            SubcategorySpec("Aquarium", "Arts", 4, 0.5),
        ])


def _wide_spec(seed):
    """More venues and users than the zero-padded ids have digits for."""
    return SynthSpec(
        n_users=1_000_001, female_fraction=0.5, n_checkins=3000, rng_seed=seed,
        region_name="Wideland",
        subcategories=[SubcategorySpec("Many", "Food", 10001, 1.0, 0.1),
                       SubcategorySpec("Few", "Food", 2, 1.0)])


def _synth_bytes(s, fmt):
    buf = io.StringIO()
    write_checkins(*generate(s), buf, fmt=fmt)
    return buf.getvalue().encode()


# sha256 of the csv and jsonl that synth writes for each spec and seed
GOLDEN_SYNTH = {
    ("awkward", 1, "csv"):
        "1fe8a90394988be28e133e3408a38655fc37c85811720fc627bc6560e69a70ba",
    ("awkward", 1, "jsonl"):
        "6697ea79c5fe98bdd329e09b260d926706416ac7a35489739ab799e19cf5caf3",
    ("awkward", 2, "csv"):
        "097244f9442d0c4e5e71ae557a87b74c8b57678e70e19c6cfe42ad116ce73c78",
    ("awkward", 2, "jsonl"):
        "89380f98814b996da1f0baecf601e8cdd0cd19654344fa7e5f29a942923e9047",
    ("wide", 1, "csv"):
        "0f750b2924df5ad091830241387d2cc0adbd13ec2faab3309a2ec1195a06493c",
    ("wide", 1, "jsonl"):
        "447713729e5fb408c6f2726d81bc88282804d27869749bc3855f727abfe9afd3",
    ("wide", 2, "csv"):
        "7f544d16e7e968502e283d9d7d3ad630634c6a9ca80e49a9fcf08ec40702c98d",
    ("wide", 2, "jsonl"):
        "a4a923f296ad849f021c1d31a2444ae8e72a0e97b3cc50a696636600590e3a99",
}


@pytest.mark.parametrize("name, seed, fmt", list(GOLDEN_SYNTH),
                         ids=["-".join(map(str, key)) for key in GOLDEN_SYNTH])
def test_synth_output_bytes_are_pinned(name, seed, fmt):
    s = {"awkward": _awkward_spec, "wide": _wide_spec}[name](seed)
    data = _synth_bytes(s, fmt)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SYNTH[name, seed, fmt]
    table, report = ingest_checkins(io.BytesIO(data), fmt)
    assert report.accepted == report.total_lines == s.n_checkins


def test_generated_table_is_the_table_ingest_reads_back():
    """Each value table holds the sorted distinct names, also where ids
    outgrow their zero padding or two subcategories share a name."""
    wide = _wide_spec(814)
    repeated = SynthSpec(
        n_users=30, female_fraction=0.5, n_checkins=200, region_name="Twice", city="",
        subcategories=[SubcategorySpec("Zoo", "Arts", 2, 1.0),
                       SubcategorySpec("Bar", "Food", 2, 1.0),
                       SubcategorySpec("Zoo", "Arts", 3, 1.0)])
    # "u-1000000" sorts before "u-999999", "v-000-10000" before "v-000-9999"
    drawn, _ = generate(wide)
    assert "u-1000000" in drawn.users and "v-000-10000" in drawn.venues
    for s in (wide, repeated):
        table, _ = generate(s)
        again, _ = ingest_checkins(io.BytesIO(_synth_bytes(s, "csv")), "csv")
        for column in fields(CheckinTable):
            assert np.array_equal(getattr(table, column.name),
                                  getattr(again, column.name)), column.name
