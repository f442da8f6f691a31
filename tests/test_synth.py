import io
import json

import numpy as np
import pytest

from venuepref.cli import main
from venuepref.models import Gender, ingest_checkins, write_checkins
from venuepref.synth import SubcategorySpec, SynthSpec, generate


def spec(skews=(0.0, 0.0, 0.0), n_checkins=3000, n_users=500,
         female_fraction=0.5, seed=0):
    subcats = [SubcategorySpec(name=f"S{i}", category="Food", n_venues=3,
                               base_weight=1.0, gender_skew=s)
               for i, s in enumerate(skews)]
    return SynthSpec(n_users=n_users, female_fraction=female_fraction,
                     subcategories=subcats, n_checkins=n_checkins,
                     region_name="Synthland", rng_seed=seed)


def test_record_count_and_region():
    records = generate(spec(n_checkins=100))
    assert len(records) == 100
    assert all(r.country == "Synthland" for r in records)


def test_same_seed_identical_output():
    assert generate(spec(seed=5)) == generate(spec(seed=5))


def test_different_seed_differs():
    assert generate(spec(seed=1)) != generate(spec(seed=2))


def test_output_passes_ingest_validation():
    records = generate(spec(n_checkins=200))
    buf = io.StringIO()
    write_checkins(records, buf, fmt="csv")
    again, report = ingest_checkins(io.BytesIO(buf.getvalue().encode()), "csv")
    assert report.rejected == 0
    assert len(again) == 200


def test_gender_marginals_match_female_fraction():
    s = spec(n_users=1000, female_fraction=0.3, n_checkins=0)
    records = generate(s)
    assert records == []
    # check the user-level assignment through a big draw instead
    records = generate(spec(n_users=1000, female_fraction=0.3,
                            n_checkins=20000, seed=3))
    users = {}
    for r in records:
        users[r.user_id] = r.gender
    observed = sum(1 for g in users.values() if g is Gender.FEMALE) / len(users)
    assert observed == pytest.approx(0.3, abs=0.05)


def test_skew_plus_one_excludes_female():
    records = generate(spec(skews=(1.0, 0.0), n_checkins=2000, seed=4))
    planted = [r for r in records if r.subcategory == "S0"]
    assert planted
    assert all(r.gender is Gender.MALE for r in planted)


def test_skew_minus_one_excludes_male():
    records = generate(spec(skews=(-1.0, 0.0), n_checkins=2000, seed=4))
    planted = [r for r in records if r.subcategory == "S0"]
    assert planted
    assert all(r.gender is Gender.FEMALE for r in planted)


def test_zero_skew_shares_within_three_sigma():
    # with skew 0 everywhere the per-gender subcategory share is binomial
    records = generate(spec(skews=(0.0,) * 4, n_checkins=40000, n_users=4000,
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
        generate(bad)


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
    records = generate(s)
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
    records = generate(s)
    assert all(r.city == "Rio" for r in records)
    assert all(-10 <= r.latitude <= 10.5 and 170 <= r.longitude <= 180
               for r in records)
