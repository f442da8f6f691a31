import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
from argparse import Namespace
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from venuepref import models, nullmodel
from venuepref.cli import Manifest, main
from venuepref.filtering import FilterConfig
from venuepref.models import (CSV_FIELDS, DataError, Granularity,
                              ingest_checkins, ingest_index_table, write_checkins)
from venuepref.popularity import ScopeIndex
from venuepref.preference import read_vectors_csv
from venuepref.synth import SubcategorySpec, SynthSpec, generate

from checkin_records import to_records, write_records
from one_region import RegionSelector, apply_filters

SPEC_JSON = {
    "n_users": 300,
    "female_fraction": 0.5,
    "n_checkins": 2000,
    "region_name": "Synthland",
    "rng_seed": 11,
    "subcategories": [
        {"name": f"S{i}", "category": "Food", "n_venues": 4, "base_weight": 1.0,
         "gender_skew": 0.0}
        for i in range(4)
    ],
}


def write_dataset(path, countries=("Synthland",), seed=11):
    records = []
    for i, country in enumerate(countries):
        spec = SynthSpec(**{**SPEC_JSON, "region_name": country,
                            "rng_seed": seed + i})
        records.extend(to_records(*generate(spec)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_records(records, fh, fmt="csv")
    return path


@pytest.fixture
def dataset(tmp_path):
    return write_dataset(tmp_path / "data.csv")


def test_ingest_check(dataset, capsys):
    assert main(["ingest-check", "--input", str(dataset)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted"] == 2000
    assert report["rejected"] == 0


def test_missing_input_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def usage_cases():
    """The cases of cli_help.txt: a command line, then all that it printed
    and its exit status, as a parser with every command's arguments gave."""
    text = (Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")
    for case in re.split(r"^\$ venuepref ?", text, flags=re.M)[1:]:
        argv, _, rest = case.partition("\n")
        output, code = re.fullmatch(r"(.*)\[exit (\d+)\]\n", rest, re.S).groups()
        yield pytest.param(argv.split(), output, int(code), id=argv or "nothing")


def without_version_wording(text):
    # 3.10 heads the options "optional arguments:"; later versions list an
    # invalid choice's alternatives without quotes
    text = text.replace("optional arguments:", "options:")
    return re.sub(r"\(choose from .*\)", lambda m: m[0].replace("'", ""), text)


@pytest.mark.parametrize("argv, output, code", list(usage_cases()))
def test_help_and_usage_errors_keep_their_text(argv, output, code, monkeypatch, capsys):
    """Only the command argv names gets its arguments, yet every help text
    and usage error reads as when every command had them."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == code
    assert without_version_wording(out + err) == without_version_wording(output)


@pytest.mark.parametrize("argv", [
    ["ingest-check", "--input", "{missing}"],
    ["analyze", "--input", "{missing}", "--country", "Synthland", "--out-dir", "{out}"],
    ["vectors", "--input", "{missing}", "--out-dir", "{out}"],
    ["cluster", "--vectors", "{missing}", "--k", "2", "--out-dir", "{out}"],
    ["compare", "--vectors", "{missing}", "--index", "GII", "--all-anchors",
     "--out-dir", "{out}"],
    ["compare", "--vectors", "{vectors}", "--index", "{missing}", "--all-anchors",
     "--out-dir", "{out}"],
    ["synth", "--spec", "{missing}", "--out-dir", "{out}"],
], ids=["ingest-check", "analyze", "vectors", "cluster", "compare-vectors",
        "compare-index", "synth"])
def test_unreadable_input_is_runtime_error(argv, tmp_path, capsys):
    """A missing input file is one error line naming the path as it was given."""
    paths = {"missing": str(tmp_path / "nope.csv"), "out": str(tmp_path / "out"),
             "vectors": str(write_vectors(tmp_path / "vectors.csv", FIVE_VECTORS))}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno 2] No such file or directory: '{paths['missing']}'\n"
    assert not (tmp_path / "out").exists()


def test_analyze_writes_artifacts(dataset, tmp_path):
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 "--mode", "subcategory", "--seed", "7", "--k", "20",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "popularity.csv").exists()
    assert (out / "filter_report.json").exists()
    sig = json.loads((out / "significance.json").read_text())
    assert sig and all("observed_d" in row for row in sig)
    nulls = (out / "null_distribution.csv").read_text().splitlines()
    assert nulls[0] == "unit_key,replicate,d"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["seeds"]["null_model"] == 7
    assert str(out / "popularity.csv") in manifest["artifacts"]
    assert manifest["inputs"]


def test_analyze_reruns_byte_identical(dataset, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["analyze", "--input", str(dataset), "--country", "Synthland",
              "--seed", "3", "--k", "10", "--out-dir", str(out)])
        outs.append(out)
    for artifact in ("popularity.csv", "significance.json",
                     "null_distribution.csv"):
        assert (outs[0] / artifact).read_bytes() == \
            (outs[1] / artifact).read_bytes()


def test_analyze_venue_within_subcategory(dataset, tmp_path):
    out = tmp_path / "o"
    code = main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 "--mode", "venue_within_subcategory", "--subcategory", "S0",
                 "--seed", "1", "--k", "10", "--out-dir", str(out)])
    assert code == 0
    with open(out / "popularity.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(r["mode"] == "venue_within_subcategory" for r in rows)


@pytest.mark.parametrize("flags", [
    ["--mode", "subcategory"],
    ["--mode", "venue"],
    ["--mode", "venue_within_subcategory", "--subcategory", "S0"],
], ids=["subcategory", "venue", "venue_within_subcategory"])
def test_analyze_codes_its_scope_once(flags, dataset, tmp_path, monkeypatch):
    # the popularity table and the null model read one ScopeIndex
    builds = []
    init = ScopeIndex.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScopeIndex, "__init__", counted)
    assert main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 *flags, "--k", "5", "--out-dir", str(tmp_path / "o")]) == 0
    assert len(builds) == 1


def test_vectors_cluster_compare_pipeline(tmp_path):
    data = write_dataset(tmp_path / "multi.csv",
                         countries=[f"Land{i}" for i in range(5)])
    vec_dir = tmp_path / "v"
    assert main(["vectors", "--input", str(data), "--granularity", "country",
                 "--seed", "2", "--out-dir", str(vec_dir)]) == 0
    assert (vec_dir / "vectors.csv").exists()
    meta = json.loads((vec_dir / "vectors_manifest.json").read_text())
    assert len(meta["regions"]) == 5

    cl_dir = tmp_path / "c"
    assert main(["cluster", "--vectors", str(vec_dir), "--k", "2",
                 "--seed", "3", "--out-dir", str(cl_dir)]) == 0
    clusters = json.loads((cl_dir / "clusters.json").read_text())
    assert clusters["k"] == 2
    assert all(c["members"] for c in clusters["clusters"])

    index = tmp_path / "idx.csv"
    index.write_text("country,value\n" + "".join(
        f"Land{i},{0.1 * (i + 1):.2f}\n" for i in range(5)))
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", "--vectors", str(vec_dir), "--index", str(index),
                 "--all-anchors", "--permutations", "50", "--seed", "4",
                 "--out-dir", str(cmp_dir)]) == 0
    with open(cmp_dir / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert {r["country"] for r in rows} == {f"Land{i}" for i in range(5)}


def test_repeated_region_name_is_one_region(tmp_path):
    data = write_dataset(tmp_path / "multi.csv", countries=["Land0", "Land1"])
    out = tmp_path / "v"
    assert main(["vectors", "--input", str(data), "--regions",
                 "Land0,Land1,Land0", "--out-dir", str(out)]) == 0
    meta = json.loads((out / "vectors_manifest.json").read_text())
    assert meta["regions"] == ["Land0", "Land1"]
    with open(out / "vectors.csv", newline="") as fh:
        assert [row["region"] for row in csv.DictReader(fh)] == meta["regions"]


@pytest.mark.parametrize("flags", [[], ["--regions", "Land2,Land0"],
                                   ["--max-checkins-per-region", "1500", "--seed", "3"]],
                         ids=["all", "some", "capped"])
def test_vectors_manifest_holds_each_regions_filter_funnel(flags, tmp_path):
    data = write_dataset(tmp_path / "multi.csv",
                         countries=[f"Land{i}" for i in range(3)])
    out = tmp_path / "v"
    assert main(["vectors", "--input", str(data), *flags, "--out-dir", str(out)]) == 0
    funnels = json.loads((out / "run_manifest.json").read_text())["filter_reports"]
    regions = json.loads((out / "vectors_manifest.json").read_text())["regions"]
    assert list(funnels) == regions
    with open(data, "rb") as fh:
        table, _ = ingest_checkins(fh, "csv")
    args = dict(zip(flags[::2], flags[1::2]))
    config = FilterConfig(max_checkins_per_region=int(args.get("--max-checkins-per-region", 0))
                          or None, rng_seed=int(args.get("--seed", 0)))
    for name, stages in funnels.items():
        report = apply_filters(table, RegionSelector(Granularity.COUNTRY, name), config)[1]
        assert stages == report.stages
    if "--max-checkins-per-region" in args:  # every region is over the cap
        caps = [stages[-2] for stages in funnels.values()]
        assert all(cap["stage"] == "region_cap" and cap["out"] <= 1500 < cap["in"]
                   for cap in caps)


@pytest.mark.parametrize("regions, missing", [("Land0,Nowhere", "Nowhere"),
                                               (",", "")],
                         ids=["absent", "blank"])
def test_vectors_region_absent_from_input_is_runtime_error(regions, missing,
                                                           tmp_path, capsys):
    data = write_dataset(tmp_path / "multi.csv", countries=["Land0"])
    out = tmp_path / "v"
    assert main(["vectors", "--input", str(data), "--regions", regions,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: region {missing!r} (country) matches zero records\n"
    assert not out.exists()


@pytest.mark.parametrize("field, old, what", [("country", "Land0", "region"),
                                              ("subcategory", "S0", "dimension")])
def test_vectors_refuses_a_name_holding_a_carriage_return(field, old, what,
                                                          tmp_path, capsys):
    # a quoted CR reads back from vectors.csv as LF, and a lone one unquoted
    # ends the row; an LF round-trips
    records = []
    for i in range(4):
        spec = SynthSpec(**{**SPEC_JSON, "region_name": f"Land{i}", "rng_seed": 11 + i})
        records.extend(replace(r, **{field: "A\rB"}) if getattr(r, field) == old else r
                       for r in to_records(*generate(spec)))
    path = tmp_path / "data.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_records(records, fh, fmt="jsonl")
    out = tmp_path / "v"
    assert main(["vectors", "--input", str(path), "--format", "jsonl",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {what} 'A\\rB' holds a CR, which vectors.csv does not read back\n"
    assert not (out / "vectors.csv").exists()


def test_other_regions_do_not_change_a_regions_artifacts(tmp_path):
    # apply_filters selects the region; every later stage counts only what
    # it returns, so the other regions of an input change no artifact
    lands = [f"Land{i}" for i in range(3)]
    data = {n: write_dataset(tmp_path / f"{n}.csv", countries=lands[:n])
            for n in (1, 2, 3)}
    with open(data[3], "a", encoding="utf-8") as fh:  # a subcategory only Land2 has
        fh.writelines(f"z{i},{('male', 'female')[i % 2]},zoo{v},Food,Zoo,1.0,2.0,"
                      f"Land2,,\n" for v in range(2) for i in range(6))

    def run(command, n, *flags):
        out = tmp_path / f"{command}-{n}"
        assert main([command, "--input", str(data[n]), *flags, "--seed", "5",
                     "--out-dir", str(out)]) == 0
        return out

    one, three = (run("analyze", n, "--country", "Land0", "--k", "10")
                  for n in (1, 3))
    for artifact in ("popularity.csv", "significance.json",
                     "null_distribution.csv"):
        assert (one / artifact).read_bytes() == (three / artifact).read_bytes()
    stages = [json.loads((out / "filter_report.json").read_text())["stages"]
              for out in (one, three)]
    assert (stages[0][0]["in"], stages[1][0]["in"]) == (2000, 6012)
    stages[1][0]["in"] = 2000
    assert stages[0] == stages[1]

    two, three = (run("vectors", n, "--regions", "Land0,Land1") for n in (2, 3))
    assert (two / "vectors.csv").read_bytes() == \
        (three / "vectors.csv").read_bytes()


def test_failed_run_rewrites_the_manifest_of_its_artifacts(dataset, tmp_path,
                                                            capsys):
    out = tmp_path / "o"
    assert main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 "--seed", "3", "--k", "10", "--out-dir", str(out)]) == 0
    first = json.loads((out / "run_manifest.json").read_text())
    assert first["status"] == "ok"
    assert "error" not in first
    assert set(first["versions"]) == {"python", "numpy", "venuepref"}
    capsys.readouterr()
    # the filter report is written, then no venue is left to analyze
    assert main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 "--min-checkins-per-venue", "100000", "--seed", "5",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] and f"error: {manifest['error']}" in err
    assert manifest["seeds"]["null_model"] == 5
    assert manifest["artifacts"] == [str(out / "filter_report.json")]


def test_a_null_matrix_too_large_for_memory_is_runtime_error(dataset, tmp_path,
                                                              capsys, monkeypatch):
    # a huge --k asks numpy for more memory than the machine has; the matrix
    # is never allocated here, as under overcommit the allocation can succeed
    def refuse(index, config):
        raise MemoryError(f"Unable to allocate the {config.k} x {index.n_units} null matrix")

    monkeypatch.setattr(nullmodel, "_null_matrix", refuse)
    out = tmp_path / "o"
    assert main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 "--k", "1000000000", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: Unable to allocate the 1000000000 x 4 null matrix"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["artifacts"] == [str(out / name)
                                     for name in ("filter_report.json", "popularity.csv")]


def test_mixed_naive_and_aware_timestamps(tmp_path):
    # one (user, venue) pair checked in without and with a UTC offset; dedupe
    # compares the two, so a naive timestamp must be read as UTC
    rows = [f"u{i},{'male' if i % 2 else 'female'},v{v},Food,S{v // 2},"
            f"1.0,2.0,Synthland,,2014-04-2{i}T10:00:00+00:00"
            for v in range(4) for i in range(7)]
    rows += ["u0,female,v0,Food,S0,1.0,2.0,Synthland,,2014-04-19T10:00:00",
             "u1,male,v0,Food,S0,1.0,2.0,Synthland,,2014-04-19T10:00:00"]
    data = tmp_path / "mixed.csv"
    data.write_text(",".join(CSV_FIELDS) + "\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert main(["analyze", "--input", str(data), "--country", "Synthland",
                 "--k", "10", "--out-dir", str(out)]) == 0
    stages = json.loads((out / "filter_report.json").read_text())["stages"]
    assert {"stage": "dedupe", "in": 30, "out": 28} in stages


def test_dedupe_keeps_the_earliest_instant_of_mixed_timestamp_forms(tmp_path):
    # one (user, venue) pair checked in with no time, a naive (UTC) time, a
    # +02:00 time and a Z time: the +02:00 one is the earliest instant,
    # though its clock reads latest, and the only female one; so the pair
    # gives the artifacts of that one check-in alone
    rows = [f"u{i},{'male' if i % 2 else 'female'},v{v},Food,S{v // 2},"
            f"1.0,2.0,Synthland,,2014-04-2{i}T10:00:00+00:00"
            for v in range(4) for i in range(7)]
    pair = "u7,{},v0,Food,S0,1.0,2.0,Synthland,,{}".format
    mixed = [pair("male", ""), pair("male", "2014-04-19T12:00:00"),
             pair("female", "2014-04-19T12:30:00+02:00"), pair("male", "2014-04-19T11:00:00Z")]
    artifacts = []
    for name, pair_rows in (("mixed", mixed), ("earliest", mixed[2:3])):
        data = tmp_path / f"{name}.csv"
        data.write_text(",".join(CSV_FIELDS) + "\n" + "\n".join(rows + pair_rows) + "\n")
        out = tmp_path / name
        assert main(["analyze", "--input", str(data), "--country", "Synthland",
                     "--k", "10", "--out-dir", str(out)]) == 0
        artifacts.append([(out / artifact).read_bytes() for artifact in (
            "popularity.csv", "significance.json", "null_distribution.csv")])
    stages = json.loads((tmp_path / "mixed" / "filter_report.json").read_text())["stages"]
    assert {"stage": "dedupe", "in": 32, "out": 29} in stages
    assert artifacts[0] == artifacts[1]


def test_timestamps_read_as_an_array_or_one_by_one_give_the_same_artifacts(
        tmp_path, capsys):
    # the "T" form is read as a byte array, the space form by fromisoformat;
    # 2000 check-ins of 300 users at 16 venues repeat (user, venue) pairs, so
    # dedupe keeps the earliest of each by its timestamp
    rng = random.Random(5)
    with open(write_dataset(tmp_path / "plain.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        moment = datetime(2014, 1, 1) + timedelta(seconds=rng.randrange(86400 * 365))
        offset = timedelta(minutes=rng.choice([-1, 1]) * rng.randrange(0, 24 * 60, 15))
        row["timestamp"] = moment.replace(tzinfo=timezone(offset)).isoformat()
    inputs = {}
    for name, separator in (("array", "T"), ("one-by-one", " ")):
        inputs[name] = tmp_path / f"{name}.csv"
        with open(inputs[name], "w", newline="") as fh:
            writer = csv.DictWriter(fh, CSV_FIELDS, lineterminator="\n")
            writer.writeheader()
            writer.writerows({**row, "timestamp": row["timestamp"].replace("T", separator)}
                             for row in rows)
    reports, tables = [], []
    for path in inputs.values():
        assert main(["ingest-check", "--input", str(path)]) == 0
        reports.append(capsys.readouterr().out)
        with open(path, "rb") as fh:
            tables.append(models.ingest_checkins(fh, "csv")[0])
        assert main(["analyze", "--input", str(path), "--country", "Synthland",
                     "--seed", "3", "--k", "10", "--out-dir", str(path.with_suffix(""))]) == 0
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["accepted"] == 2000
    assert (tables[0].ts != models.NO_TIME).all()
    assert tables[0].ts.tolist() == tables[1].ts.tolist()
    stages = json.loads((tmp_path / "array" / "filter_report.json").read_text())["stages"]
    assert any(s["stage"] == "dedupe" and s["out"] < s["in"] for s in stages)
    for name in ("filter_report.json", "popularity.csv", "significance.json",
                 "null_distribution.csv"):
        assert ((tmp_path / "array" / name).read_bytes()
                == (tmp_path / "one-by-one" / name).read_bytes())


@pytest.mark.parametrize("spec", [
    {**SPEC_JSON, "bogus": 1},
    [1, 2],
    {**SPEC_JSON, "n_users": "5"},
], ids=["unknown-key", "not-an-object", "wrong-type"])
def test_bad_synth_spec_is_runtime_error(spec, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("skews, female_fraction, message", [
    ([-1.0] * 4, 0.5, "no subcategory is reachable for male users"),
    ([1.0, 0.0, 0.0, 0.0], 1.0,
     "subcategory 'S0' is male-only but there are no male users"),
], ids=["no-male-subcategory", "no-male-users"])
def test_unreachable_synth_subcategory_is_runtime_error(
        skews, female_fraction, message, tmp_path, capsys):
    spec = {**SPEC_JSON, "female_fraction": female_fraction,
            "subcategories": [{**sub, "gender_skew": skew} for sub, skew
                              in zip(SPEC_JSON["subcategories"], skews, strict=True)]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path),
                 "--out-dir", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s").exists()


def test_synth_roundtrip(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_JSON))
    out = tmp_path / "s"
    assert main(["synth", "--spec", str(spec_path), "--out", "data.csv",
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["artifacts"] == [str(out / "data.csv")]
    assert main(["ingest-check", "--input", str(out / "data.csv")]) == 0


def test_out_dir_defaults_to_the_current_directory(tmp_path, monkeypatch):
    # an environment variable does not stand in for --out-dir
    (tmp_path / "spec.json").write_text(json.dumps(SPEC_JSON))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("VENUEPREF_OUT_DIR", str(tmp_path / "env"))
    assert main(["synth", "--spec", "spec.json", "--out", "data.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.csv", "run_manifest.json", "spec.json"]


@pytest.mark.parametrize("name", ["absolute", "../x.csv", "sub/x.csv",
                                  "run_manifest.json", ""],
                         ids=["absolute", "parent", "subdirectory", "manifest", "empty"])
def test_synth_out_is_a_file_name_within_the_out_dir(name, tmp_path, capsys):
    # a path would write outside --out-dir, and the manifest's name would
    # have the manifest overwrite the check-ins
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_JSON))
    if name == "absolute":
        name = str(tmp_path / "x.csv")
    assert_usage_error(["synth", "--spec", str(spec_path), "--out", name,
                        "--out-dir", str(tmp_path / "s")], capsys,
                       f"argument --out: must be a plain file name other than "
                       f"run_manifest.json, got {name!r}")
    assert [p.name for p in tmp_path.rglob("*")] == ["spec.json"]


@pytest.mark.parametrize("flags", [["--categories", "Nope"],
                                   ["--max-checkins-per-region", "1"]],
                         ids=["no-category", "cap-1"])
def test_vectors_of_regions_that_keep_no_checkin_is_runtime_error(
        flags, tmp_path, capsys):
    data = write_dataset(tmp_path / "multi.csv", countries=["Land0", "Land1"])
    out = tmp_path / "v"
    assert main(["vectors", "--input", str(data), *flags,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: no region keeps a check-in after filtering, so the vectors "
        "would have no dimension\n")
    assert not out.exists()


def test_vectors_of_a_region_left_empty_by_filtering_is_runtime_error(
        tmp_path, capsys):
    # Land1 and Land2 hold only Arts check-ins, which --categories drops
    data = write_dataset(tmp_path / "multi.csv", countries=["Land0", "Land1", "Land2"])
    text = data.read_text()
    for land in ("Land1", "Land2"):
        text = "\n".join(line.replace(",Food,", ",Arts,") if f",{land}," in line
                         else line for line in text.split("\n"))
    data.write_text(text)
    out = tmp_path / "v"
    assert main(["vectors", "--input", str(data), "--categories", "Food",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 2 of 3 regions are left with no check-in after filtering, so "
        "their vectors would be all zero: ['Land1', 'Land2']\n")
    assert not out.exists()


def test_many_regions_left_empty_are_counted_in_one_error_line(tmp_path, capsys):
    # Land1-Land7 hold only Arts check-ins, which --categories drops; the
    # line names the first 5 in --regions order and counts the rest
    lands = [f"Land{i}" for i in range(8)]
    data = write_dataset(tmp_path / "multi.csv", countries=lands)
    data.write_text("\n".join(line.replace(",Food,", ",Arts,")
                              if ",Land0," not in line else line
                              for line in data.read_text().split("\n")))
    out = tmp_path / "v"
    assert main(["vectors", "--input", str(data), "--categories", "Food",
                 "--regions", ",".join(reversed(lands)),
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 7 of 8 regions are left with no check-in after filtering, so "
        "their vectors would be all zero: ['Land7', 'Land6', 'Land5', "
        "'Land4', 'Land3'] and 2 more\n")
    assert not out.exists()


def test_a_writer_that_fails_partway_leaves_no_artifact(tmp_path):
    out = tmp_path / "o"
    manifest = Manifest(Namespace(subcommand="synth"), out)
    manifest.write_artifact("kept.csv", lambda sink: sink.write("a,b\n"))

    def write(sink):
        sink.write("c,d\n")
        sink.flush()
        # the writer streams into a temporary file beside the artifact
        assert sorted(p.read_text() for p in out.iterdir()) == ["a,b\n", "c,d\n"]
        raise RuntimeError("writer failed")

    for name in ("kept.csv", "failed.csv"):
        with pytest.raises(RuntimeError, match="writer failed"):
            manifest.write_artifact(name, write)
    assert [p.name for p in out.iterdir()] == ["kept.csv"]
    assert (out / "kept.csv").read_text() == "a,b\n"
    assert manifest.data["artifacts"] == [str(out / "kept.csv")]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_artifacts_and_manifest_get_the_mode_of_a_plain_open(umask, mode, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_JSON))
    old = os.umask(umask)
    try:
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "s")]) == 0
    finally:
        os.umask(old)
    for name in ("synth.csv", "run_manifest.json"):
        assert stat.S_IMODE((tmp_path / "s" / name).stat().st_mode) == mode, name


def test_config_file_supplies_defaults(dataset, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"k": 5, "seed": 9}))
    out = tmp_path / "o"
    assert main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 "--config", str(config), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["k"] == 5
    assert manifest["seeds"]["null_model"] == 9
    sig = json.loads((out / "significance.json").read_text())
    assert sig


def test_flags_beat_config_file(dataset, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"k": 5}))
    out = tmp_path / "o"
    assert main(["analyze", "--input", str(dataset), "--country", "Synthland",
                 "--config", str(config), "--k", "7",
                 "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["k"] == 7


def test_config_true_is_the_bare_flag(dataset, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text('{"no_dedupe": true}')  # as in the README
    argv = ["analyze", "--input", str(dataset), "--country", "Synthland", "--k", "5"]
    assert main([*argv, "--config", str(config), "--out-dir", str(tmp_path / "c")]) == 0
    assert main([*argv, "--no-dedupe", "--out-dir", str(tmp_path / "f")]) == 0
    stages = json.loads((tmp_path / "f" / "filter_report.json").read_text())["stages"]
    assert "dedupe" not in [s["stage"] for s in stages]
    for name in ("filter_report.json", "popularity.csv", "significance.json",
                 "null_distribution.csv"):
        assert ((tmp_path / "c" / name).read_bytes()
                == (tmp_path / "f" / name).read_bytes())


@pytest.mark.parametrize("content, text", [
    (b'{"k": [5]}', "config key 'k' must be a string, number or boolean"),
    (b"k", "config file {config} is not valid UTF-8 JSON: "
           "Expecting value: line 1 column 1 (char 0)"),
    (b'\xff{"k": 5}', "config file {config} is not valid UTF-8 JSON: "
                     "'utf-8' codec can't decode byte 0xff in position 0"),
    (None, "config file {config} cannot be read: No such file or directory"),
], ids=["list-value", "not-json", "not-utf8", "no-file"])
def test_unreadable_config_is_usage_error(content, text, dataset, tmp_path, capsys):
    config = tmp_path / "conf.json"
    if content is not None:
        config.write_bytes(content)
    assert_usage_error(["analyze", "--input", str(dataset), "--country",
                        "Synthland", "--config", str(config),
                        "--out-dir", str(tmp_path / "o")], capsys,
                       text.format(config=config))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    ([], "a region is required: pass --country or --city"),
    (["--country", "Synthland", "--city", "Rio"],
     "pass either --country or --city, not both"),
    (["--country", "Synthland", "--mode", "venue_within_subcategory"],
     "--subcategory is required for mode venue_within_subcategory"),
    (["--country", "Synthland", "--subcategory", "S0"],
     "--subcategory is only valid for mode venue_within_subcategory, not subcategory"),
    (["--country", "Synthland", "--mode", "venue", "--subcategory", "S0"],
     "--subcategory is only valid for mode venue_within_subcategory, not venue"),
], ids=["no-region", "two-regions", "no-subcategory", "stray-subcategory",
        "stray-subcategory-venue"])
@pytest.mark.parametrize("exists", [False, True], ids=["no-input", "input"])
def test_analyze_checks_its_flags_before_reading_the_input(flags, message, exists,
                                                          tmp_path, capsys):
    data = write_dataset(tmp_path / "data.csv") if exists else tmp_path / "nope.csv"
    assert main(["analyze", "--input", str(data), *flags,
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_city_scope_is_the_city_name(tmp_path):
    """Two cities of one country plus check-ins without a city: analyze
    --city counts and names only that city, and vectors --granularity city
    has one row per city and none for the check-ins without a city."""
    records = []
    for i, city in enumerate(["Recife", "Rio", None]):
        spec = SynthSpec(**{**SPEC_JSON, "region_name": "Brazil", "city": city,
                            "rng_seed": 11 + i})
        records += [replace(r, venue_id=f"{city}-{r.venue_id}")
                    for r in to_records(*generate(spec))]
    data = tmp_path / "cities.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        write_records(records, fh, fmt="csv")

    out = tmp_path / "a"
    assert main(["analyze", "--input", str(data), "--city", "Rio", "--k", "5",
                 "--out-dir", str(out)]) == 0
    stages = json.loads((out / "filter_report.json").read_text())["stages"]
    assert stages[0] == {"stage": "region", "in": 6000, "out": 2000}
    sig = json.loads((out / "significance.json").read_text())
    assert sig and all(row["scope"] == "Rio" for row in sig)

    out = tmp_path / "v"
    assert main(["vectors", "--input", str(data), "--granularity", "city",
                 "--out-dir", str(out)]) == 0
    with open(out / "vectors.csv", newline="") as fh:
        assert [row["region"] for row in csv.DictReader(fh)] == ["Recife", "Rio"]
    meta = json.loads((out / "vectors_manifest.json").read_text())
    assert (meta["granularity"], meta["regions"]) == ("city", ["Recife", "Rio"])


def test_bad_region_is_runtime_error(dataset, tmp_path, capsys):
    code = main(["analyze", "--input", str(dataset), "--country", "Atlantis",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "zero records" in capsys.readouterr().err


def test_bundled_index_by_name(tmp_path):
    # vectors for the 15 bundled countries, then compare against bundled GII
    data = write_dataset(tmp_path / "w.csv",
                         countries=["Brazil", "France", "Germany", "Japan",
                                    "Kuwait"])
    vec_dir = tmp_path / "v"
    assert main(["vectors", "--input", str(data),
                 "--out-dir", str(vec_dir)]) == 0
    cmp_dir = tmp_path / "c"
    assert main(["compare", "--vectors", str(vec_dir), "--index", "GII",
                 "--anchor", "Brazil", "--permutations", "20",
                 "--out-dir", str(cmp_dir)]) == 0
    with open(cmp_dir / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["index"] == "GII"


def assert_usage_error(argv, capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert text in err


def test_null_model_k_below_two_is_usage_error(dataset, tmp_path, capsys):
    assert_usage_error(["analyze", "--input", str(dataset), "--country",
                        "Synthland", "--k", "1", "--out-dir", str(tmp_path)],
                       capsys, "--k")


def test_confidence_outside_unit_interval_is_usage_error(dataset, tmp_path, capsys):
    assert_usage_error(["analyze", "--input", str(dataset), "--country",
                        "Synthland", "--confidence", "1.5",
                        "--out-dir", str(tmp_path)], capsys, "--confidence")


def test_zero_min_checkins_per_venue_is_usage_error(dataset, tmp_path, capsys):
    assert_usage_error(["analyze", "--input", str(dataset), "--country",
                        "Synthland", "--min-checkins-per-venue", "0",
                        "--out-dir", str(tmp_path)], capsys,
                       "--min-checkins-per-venue")


def test_zero_region_cap_is_usage_error(dataset, tmp_path, capsys):
    assert_usage_error(["vectors", "--input", str(dataset),
                        "--max-checkins-per-region", "0",
                        "--out-dir", str(tmp_path)], capsys,
                       "--max-checkins-per-region")


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{missing}", "--country", "Synthland"],
    ["vectors", "--input", "{missing}"],
    ["cluster", "--vectors", "{missing}", "--k", "2"],
    ["compare", "--vectors", "{missing}", "--index", "GII", "--all-anchors"],
], ids=["analyze", "vectors", "cluster", "compare"])
@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-5"], ["--config", "{config}"]],
                         ids=["flag", "equals", "config"])
def test_negative_seed_is_usage_error_before_any_input_is_read(argv, seed, tmp_path,
                                                               capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": -1}))
    paths = {"missing": str(tmp_path / "nope"), "config": str(config)}
    out = tmp_path / "o"
    assert_usage_error([arg.format(**paths) for arg in [*argv, *seed]]
                       + ["--out-dir", str(out)], capsys, "--seed: must be >= 0")
    assert not out.exists()


def test_unknown_config_key_is_usage_error(dataset, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"k": 5, "replicates": 9}))
    assert_usage_error(["analyze", "--input", str(dataset), "--country",
                        "Synthland", "--config", str(config),
                        "--out-dir", str(tmp_path)], capsys, "'replicates'")


def test_out_of_range_config_value_is_usage_error(dataset, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"confidence": 1.5}))
    assert_usage_error(["analyze", "--input", str(dataset), "--country",
                        "Synthland", "--config", str(config),
                        "--out-dir", str(tmp_path)], capsys, "--confidence")


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--spec", "{spec}", "--out-dir", "{out}"], "--seed"),
    (["ingest-check", "--input", "{data}"], "--seed"),
    (["ingest-check", "--input", "{data}"], "--out-dir"),
], ids=["synth-seed", "ingest-check-seed", "ingest-check-out-dir"])
def test_a_flag_of_no_effect_is_a_usage_error(argv, flag, dataset, tmp_path, capsys):
    # synth takes its seed from the spec, and ingest-check writes no artifact
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_JSON))
    paths = {"spec": str(spec), "out": str(tmp_path / "s"), "data": str(dataset)}
    assert_usage_error([arg.format(**paths) for arg in argv] + [flag, "5"], capsys,
                       f"unrecognized arguments: {flag} 5")
    assert not (tmp_path / "s").exists() and not (tmp_path / "5").exists()


def test_config_key_of_a_removed_flag_is_usage_error(tmp_path, capsys):
    spec, config = tmp_path / "spec.json", tmp_path / "conf.json"
    spec.write_text(json.dumps(SPEC_JSON))
    config.write_text(json.dumps({"seed": 5}))
    assert_usage_error(["synth", "--spec", str(spec), "--config", str(config),
                        "--out-dir", str(tmp_path / "s")], capsys,
                       f"unknown key 'seed' in config file {config} for synth")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("custom", [True, False], ids=["file", "bundled"])
def test_compare_records_an_index_file_as_an_input(custom, tmp_path):
    vectors = write_vectors(tmp_path / "vectors.csv",
                            [f"{c},{i + 1},{5 - i}" for i, c in enumerate(
                                ["Brazil", "France", "Germany", "Japan", "Kuwait"])])
    index = tmp_path / "idx.csv"
    index.write_text("country,value\n" + "".join(
        f"{c},0.{i + 1}\n" for i, c in enumerate(
            ["Brazil", "France", "Germany", "Japan", "Kuwait"])))
    out = tmp_path / "cmp"
    assert main(["compare", "--vectors", str(vectors), "--index",
                 str(index) if custom else "GII", "--anchor", "Brazil",
                 "--permutations", "10", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    expected = {str(vectors): hashlib.sha256(vectors.read_bytes()).hexdigest()}
    if custom:
        expected[str(index)] = hashlib.sha256(index.read_bytes()).hexdigest()
    assert manifest["inputs"] == expected
    assert manifest["config"]["index"] == (str(index) if custom else "GII")


@pytest.mark.parametrize("argv, flag", [
    (["cluster", "--vectors", "v", "--k", "0"], "--k"),
    (["cluster", "--vectors", "v", "--k", "2", "--restarts", "0"], "--restarts"),
    (["compare", "--vectors", "v", "--index", "GII", "--permutations", "1"],
     "--permutations"),
])
def test_out_of_range_cluster_and_compare_flags_are_usage_errors(argv, flag, capsys):
    assert_usage_error(argv, capsys, flag)


def write_vectors(path, rows):
    path.write_text("region,a,b\n" + "".join(f"{r}\n" for r in rows))
    return path


FIVE_INDEX = "country,value\n" + "".join(f"R{i},0.{i + 1}\n" for i in range(5))
FIVE_VECTORS = [f"R{i},{i + 1},{5 - i}" for i in range(5)]
HUGE_FIELD = "9" * 200_000  # past the csv module's 131072-character limit


def huge_field_run(tmp_path, command):
    """A command whose csv input has one 200,000-character field on line 3."""
    data = write_dataset(tmp_path / "data.csv")
    lines = data.read_text().splitlines(keepends=True)
    row = lines[1].rstrip("\n").split(",")
    row[CSV_FIELDS.index("timestamp")] = HUGE_FIELD
    huge = tmp_path / "huge.csv"
    huge.write_text("".join(lines[:2]) + ",".join(row) + "\n" + "".join(lines[2:]))
    index = tmp_path / "index.csv"
    index.write_text(FIVE_INDEX)
    vectors = write_vectors(tmp_path / "vectors.csv", FIVE_VECTORS)
    out = ["--out-dir", str(tmp_path / "out")]
    if command == "ingest-check":
        return ["ingest-check", "--input", str(huge)]
    if command == "analyze":
        return ["analyze", "--input", str(huge), "--country", "Synthland", *out]
    if command == "vectors":
        return ["vectors", "--input", str(huge), *out]
    if command == "cluster":
        write_vectors(vectors, [FIVE_VECTORS[0], f"R9,1,{HUGE_FIELD}"])
        return ["cluster", "--vectors", str(vectors), "--k", "2", *out]
    index.write_text(FIVE_INDEX.replace("0.2\n", f"0.2{HUGE_FIELD}\n"))
    return ["compare", "--vectors", str(vectors), "--index", str(index),
            "--all-anchors", *out]


@pytest.mark.parametrize("command", ["ingest-check", "analyze", "vectors",
                                     "cluster", "compare"])
def test_csv_field_past_the_size_limit_is_runtime_error(command, tmp_path, capsys):
    assert main(huge_field_run(tmp_path, command)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: csv line 3: field larger than field limit")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, cell, message", [
    ("timestamp", HUGE_FIELD, "field larger than field limit (131072)"),
    ("user_id", "u\0", "line contains NUL"),
], ids=["huge-field", "nul"])
def test_csv_reader_after_split_chunks_counts_lines_from_the_start(
        field, cell, message, tmp_path, capsys, monkeypatch):
    """Blocks of two lines or so: the lines before line 7's block are split
    at commas, and line 7 makes csv.reader read on from its block; it
    refuses line 7 and names it by the file's line number, on every
    Python."""
    lines = write_dataset(tmp_path / "data.csv").read_text().splitlines(keepends=True)
    monkeypatch.setattr(models, "_BLOCK_BYTES", 2 * len(lines[1].encode()))
    row = lines[6].rstrip("\n").split(",")
    row[CSV_FIELDS.index(field)] = cell
    lines[6] = ",".join(row) + "\n"
    path = tmp_path / "odd.csv"
    path.write_text("".join(lines))
    assert main(["ingest-check", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: csv line 7: {message}\n"


def test_deeply_nested_jsonl_line_is_unparseable(tmp_path, capsys):
    records, coordinates = generate(SynthSpec(**SPEC_JSON))
    path = tmp_path / "data.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_checkins(records, coordinates, fh, fmt="jsonl")
        fh.write("[" * 100_000 + "\n")
    assert main(["ingest-check", "--input", str(path), "--format", "jsonl"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unparseable"] == 1
    assert report["accepted"] == len(records)


@pytest.mark.parametrize("rows, message", [
    ([*FIVE_VECTORS, "R1,7,7"], "vectors csv repeats region 'R1'"),
    ([*FIVE_VECTORS[:4], "R4,nan,1"],
     "vectors csv has a non-finite value for region 'R4'"),
    ([*FIVE_VECTORS[:4], "R4,1,inf"],
     "vectors csv has a non-finite value for region 'R4'"),
    ([], "vectors csv has no region rows"),
], ids=["repeated", "nan", "inf", "no-rows"])
@pytest.mark.parametrize("command", ["cluster", "compare"])
def test_repeated_or_non_finite_vectors_row_is_runtime_error(
        command, rows, message, tmp_path, capsys):
    vectors = write_vectors(tmp_path / "vectors.csv", rows)
    index = tmp_path / "index.csv"
    index.write_text(FIVE_INDEX)
    argv = {"cluster": ["cluster", "--vectors", str(vectors), "--k", "2"],
            "compare": ["compare", "--vectors", str(vectors), "--index",
                        str(index), "--all-anchors"]}[command]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cluster_of_identical_vectors_is_runtime_error(tmp_path, capsys):
    # k-means++ has no distance to weight its second pick by, and the cluster
    # left empty is reseeded with a point equal to the other centroid
    vectors = write_vectors(tmp_path / "vectors.csv",
                            [f"R{i},1,0" for i in range(4)])
    argv = ["cluster", "--vectors", str(vectors), "--k", "2"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: clustering converged with an "
                                       "empty cluster; try a different seed "
                                       "or smaller k\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, message", [
    ("R1,abc,1", "region 'R1' has a value that is not a number "
                 "(could not convert string to float: 'abc')"),
    ("R1,1", "region 'R1' has 1 value(s) for 2 dims"),
    ("R1,1,2,3", "region 'R1' has 3 value(s) for 2 dims"),
], ids=["not-a-number", "short", "long"])
def test_malformed_vectors_row_names_its_line(row, message, tmp_path, capsys):
    vectors = write_vectors(tmp_path / "vectors.csv",
                            [FIVE_VECTORS[0], row, *FIVE_VECTORS[2:]])
    argv = ["cluster", "--vectors", str(vectors), "--k", "2"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: vectors csv line 3: {message}\n"


@pytest.mark.parametrize("header, row, message", [
    ("region,a,a", FIVE_VECTORS[1], "vectors csv line 1: dimension 'a' is repeated"),
    ("region,,b", FIVE_VECTORS[1], "vectors csv line 1: dimension '' is blank"),
    ("region, ,b", FIVE_VECTORS[1], "vectors csv line 1: dimension ' ' is blank"),
    ("region,a,b", ",2,4", "vectors csv line 3: region '' has a blank name"),
], ids=["repeated-dimension", "blank-dimension", "space-dimension", "blank-region"])
@pytest.mark.parametrize("command", ["cluster", "compare"])
def test_repeated_or_blank_vectors_name_is_runtime_error(command, header, row, message,
                                                         tmp_path, capsys):
    vectors = tmp_path / "vectors.csv"
    vectors.write_text("".join(f"{line}\n" for line in [
        header, FIVE_VECTORS[0], row, *FIVE_VECTORS[2:]]))
    index = tmp_path / "index.csv"
    index.write_text(FIVE_INDEX)
    argv = {"cluster": ["cluster", "--vectors", str(vectors), "--k", "2"],
            "compare": ["compare", "--vectors", str(vectors), "--index",
                        str(index), "--all-anchors"]}[command]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("vectors_text, index_text, anchor, message", [
    ("region,a,b\n", FIVE_INDEX.replace("R2,0.3", "R2"), "R0",
     "index row has fewer than two columns: ['R2']"),
    ("region,a,b\n", FIVE_INDEX.replace("R2,0.3", "R2,abc"), "R0",
     "index value for 'R2' not a number: 'abc'"),
    ("region,a,b\n", FIVE_INDEX, "Nowhere", "anchor 'Nowhere' has no preference vector"),
    ("region,a,b\n", FIVE_INDEX.replace("R4,0.5\n", ""), "R4",
     "anchor 'R4' missing from index 'INDEX'"),
    ("name,a,b\n", FIVE_INDEX, "R0",
     "vectors csv must start with a 'region' header column"),
    ("region,a,b\n", FIVE_INDEX.replace("R2,", "R2\0,"), "R0",
     "csv line 4: line contains NUL"),
    ("region,a,b\nR9\0,1,1\n", FIVE_INDEX, "R0", "csv line 2: line contains NUL"),
], ids=["short-index-row", "index-not-a-number", "anchor-without-vector",
        "anchor-not-in-index", "no-region-header", "nul-in-index", "nul-in-vectors"])
def test_bad_compare_input_is_runtime_error(vectors_text, index_text, anchor, message,
                                            tmp_path, capsys):
    vectors = tmp_path / "vectors.csv"
    vectors.write_text(vectors_text + "".join(f"{r}\n" for r in FIVE_VECTORS))
    index = tmp_path / "index.csv"
    index.write_text(index_text)
    argv = ["compare", "--vectors", str(vectors), "--index", str(index),
            "--anchor", anchor, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["jsonl", "index", "vectors"])
def test_a_byte_that_is_not_utf8_is_named_in_every_text_input(kind, tmp_path, capsys):
    """A 0xff on line 4 of a jsonl check-in file, an index table (with CRLF
    line ends) or a vectors.csv: the library and the command name that line
    and the byte's offset in the file, and the command exits 1 with that one
    line on stderr."""
    vectors = write_vectors(tmp_path / "vectors.csv", FIVE_VECTORS)
    index = tmp_path / "index.csv"
    index.write_bytes(FIVE_INDEX.replace("\n", "\r\n").encode())
    argv = ["compare", "--vectors", str(vectors), "--index", str(index),
            "--all-anchors", "--out-dir", str(tmp_path / "out")]
    if kind == "jsonl":
        path = tmp_path / "data.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_checkins(*generate(SynthSpec(**SPEC_JSON)), fh, fmt="jsonl")
        argv = ["ingest-check", "--input", str(path), "--format", "jsonl"]
        read = partial(ingest_checkins, fmt="jsonl")
    else:
        path, read = (index, ingest_index_table) if kind == "index" \
            else (vectors, read_vectors_csv)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
    path.write_bytes(data := b"".join(lines))
    offset = data.index(b"\xff")
    message = (f"{'jsonl' if kind == 'jsonl' else 'csv'} line 4: input is not valid "
               f"UTF-8: byte 0xff at offset {offset} of the file (invalid start byte)")
    with pytest.raises(DataError) as exc:
        read(io.BytesIO(data))
    assert str(exc.value) == message
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--index", "index.csv", "--anchor", "R0", "--all-anchors"],
     "pass either --anchor NAME or --all-anchors, not both"),
    (["--index", "index.csv"], "pass --anchor NAME or --all-anchors"),
    (["--index", "index.csv", "--anchor", ""], "pass --anchor NAME or --all-anchors"),
    (["--index", "GII", "--index-name", "X", "--anchor", "R0"],
     "--index-name is only valid for an index file, not the bundled GII"),
    (["--index", "HDI", "--index-name", "X", "--all-anchors"],
     "--index-name is only valid for an index file, not the bundled HDI"),
], ids=["both-anchor-flags", "no-anchor-flag", "empty-anchor", "named-gii",
        "named-hdi"])
@pytest.mark.parametrize("exists", [False, True], ids=["no-input", "input"])
def test_compare_checks_its_flags_before_reading_the_input(flags, message, exists,
                                                          tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    if exists:
        write_vectors(tmp_path / "vectors.csv", FIVE_VECTORS)
        (tmp_path / "index.csv").write_text(FIVE_INDEX)
    assert main(["compare", "--vectors", "vectors.csv", *flags,
                 "--out-dir", "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# 14 regions whose index takes four values, so index distances tie, and
# whose vectors repeat entries, so cosine distances come close
TIED_VECTORS = [f"R{i:02d},{(i * 7) % 5 + 1},{(i * 3) % 4 + 1},{(i * 5) % 7}"
                for i in range(14)]
TIED_INDEX = "country,value\n" + "".join(
    f"R{i:02d},{(0.2, 0.35, 0.5, 0.65)[(i * 5) % 4]}\n" for i in range(14))
# sha256 of its comparison.csv from --all-anchors --permutations 40 --seed 7,
# as the per-anchor comparison and baseline calls wrote it
TIED_COMPARISON_SHA256 = \
    "d3b1dcbabdf7f2f186d18adea23f7ef4fe4847852b9ead9896ab15ea2d108824"


def compare_tied_world(tmp_path, out, *flags):
    vectors = tmp_path / "vectors.csv"
    vectors.write_text("region,a,b,c\n" + "".join(f"{r}\n" for r in TIED_VECTORS))
    index = tmp_path / "index.csv"
    index.write_text(TIED_INDEX)
    assert main(["compare", "--vectors", str(vectors), "--index", str(index),
                 *flags, "--permutations", "40", "--seed", "7",
                 "--out-dir", str(tmp_path / out)]) == 0
    return (tmp_path / out / "comparison.csv").read_bytes()


def test_all_anchor_comparison_is_pinned(tmp_path):
    data = compare_tied_world(tmp_path, "all", "--all-anchors")
    assert hashlib.sha256(data).hexdigest() == TIED_COMPARISON_SHA256


def test_one_anchor_run_writes_its_row_of_the_all_anchor_run(tmp_path):
    header, *rows = compare_tied_world(tmp_path, "all", "--all-anchors") \
        .decode().splitlines(keepends=True)
    assert len(rows) == 14
    for row in rows:
        anchor = row.split(",")[0]
        one = compare_tied_world(tmp_path, anchor, "--anchor", anchor)
        assert one.decode() == header + row


def command_inputs(tmp_path):
    """The input files of every command, in ``tmp_path``: a check-in file of
    five countries, a vectors.csv, an index file and a synth spec."""
    write_dataset(tmp_path / "data.csv", countries=[f"R{i}" for i in range(5)])
    write_vectors(tmp_path / "vectors.csv", FIVE_VECTORS)
    (tmp_path / "index.csv").write_text(FIVE_INDEX)
    (tmp_path / "spec.json").write_text(json.dumps(SPEC_JSON))


# each command's flags, by config key; the first is a required one
COMMAND_FLAGS = {
    "ingest-check": {"input": "data.csv"},
    "analyze": {"input": "data.csv", "country": "R0", "k": 5},
    "vectors": {"input": "data.csv", "max_checkins_per_region": 900},
    "cluster": {"vectors": "vectors.csv", "k": 2, "restarts": 2},
    "compare": {"vectors": "vectors.csv", "index": "index.csv", "all_anchors": True,
                "permutations": 10},
    "synth": {"spec": "spec.json", "out": "data.csv"},
}


def flag_argv(flags):
    """The command-line flags of config keys and values."""
    argv = []
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
    return argv


def run_command(argv, capsys):
    """The exit status of a run, what it printed, and the files it wrote to
    --out-dir, by name, which it then removes; the manifest without its
    times and the config file's name."""
    code = main(argv)
    out = Path(argv[argv.index("--out-dir") + 1]) if "--out-dir" in argv else None
    files = {path.name: path.read_bytes() for path in out.iterdir()} if out else {}
    if out:
        shutil.rmtree(out)
    manifest = json.loads(files.pop("run_manifest.json", b"{}"))
    for key in ("started_at", "finished_at"):
        manifest.pop(key, None)
    manifest.get("config", {}).pop("config", None)
    return code, capsys.readouterr().out, files, manifest


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_a_config_file_may_give_every_flag(command, tmp_path, capsys, monkeypatch):
    """A run from a config file alone, required flags and all, is the run of
    the same flags; and a flag on the command line beats a config value, a
    required one too."""
    monkeypatch.chdir(tmp_path)
    command_inputs(tmp_path)
    flags = COMMAND_FLAGS[command]
    first = next(iter(flags))
    Path("all.json").write_text(json.dumps(flags))
    Path("wrong.json").write_text(json.dumps({**flags, first: "nope"}))
    out = [] if command == "ingest-check" else ["--out-dir", "out"]
    by_flags = run_command([command, *flag_argv(flags), *out], capsys)
    assert by_flags[0] == 0
    assert by_flags[1] or by_flags[2]
    assert run_command([command, "--config", "all.json", *out], capsys) == by_flags
    assert run_command([command, "--config", "wrong.json",
                        *flag_argv({first: flags[first]}), *out], capsys) == by_flags


@pytest.mark.parametrize("command, key, value", [
    ("analyze", "k", False), ("analyze", "country", False), ("analyze", "k", True),
    ("vectors", "max_checkins_per_region", False), ("compare", "index", False),
    ("synth", "out", True),
], ids=["k-false", "country-false", "k-true", "cap-false", "index-false", "out-true"])
def test_a_config_boolean_for_a_flag_with_a_value_is_usage_error(
        command, key, value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command_inputs(tmp_path)
    Path("conf.json").write_text(json.dumps({key: value}))
    flags = {k: v for k, v in COMMAND_FLAGS[command].items() if k != key}
    with pytest.raises(SystemExit) as exc:
        main([command, *flag_argv(flags), "--config", "conf.json", "--out-dir", "out"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and [line for line in err.splitlines() if "error:" in line] == [
        f"venuepref: error: config key {key!r} takes a value, not "
        f"{json.dumps(value)}"]
    assert not Path("out").exists()


def test_a_config_false_or_null_is_a_flag_left_off(tmp_path, capsys, monkeypatch):
    """false for a store_true flag leaves it off, and null leaves any flag
    as it is: the run is that of the command line alone."""
    monkeypatch.chdir(tmp_path)
    command_inputs(tmp_path)
    Path("conf.json").write_text(json.dumps({"no_dedupe": False, "k": None, "city": None}))
    argv = [*flag_argv(COMMAND_FLAGS["analyze"]), "--out-dir", "out"]
    alone = run_command(["analyze", *argv], capsys)
    assert alone[0] == 0
    assert run_command(["analyze", "--config", "conf.json", *argv], capsys) == alone


@pytest.mark.parametrize("argv, inputs", [
    (["analyze", "--input", "data.csv", "--country", "R0", "--k", "5"], ["data.csv"]),
    (["vectors", "--input", "data.csv"], ["data.csv"]),
    (["cluster", "--vectors", ".", "--k", "2"], ["vectors.csv"]),
    (["compare", "--vectors", "vectors.csv", "--index", "index.csv", "--all-anchors",
      "--permutations", "10"], ["vectors.csv", "index.csv"]),
    (["synth", "--spec", "spec.json"], ["spec.json"]),
], ids=["analyze", "vectors", "cluster", "compare", "synth"])
def test_every_input_file_is_opened_once_and_recorded_by_its_sha256(
        argv, inputs, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command_inputs(tmp_path)
    with recording_opens() as opened:
        assert main([*argv, "--out-dir", "out"]) == 0
    assert {name: opened.count(str(tmp_path / name)) for name in inputs} \
        == dict.fromkeys(inputs, 1)
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["inputs"] == {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in inputs}


@pytest.mark.parametrize("parse", [
    lambda fh: fh.read(), lambda fh: fh.read(10), lambda fh: fh.readline(),
    lambda fh: list(fh), lambda fh: None,
], ids=["read-all", "read-some", "one-line", "every-line", "nothing"])
def test_an_input_is_recorded_by_the_sha256_of_the_whole_file(parse, tmp_path):
    """Whatever ``parse`` reads, and however, the digest covers every byte."""
    path = tmp_path / "input"
    path.write_bytes(b"".join(b"line %d\n" % i for i in range(20000)))
    manifest = Manifest(Namespace(subcommand="synth"), None)
    manifest.read_input(str(path), parse)
    assert manifest.data["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


_open_logs: list[list[str]] = []  # those of the recording_opens now running


def _log_open(event, args):
    if event == "open" and _open_logs and isinstance(args[0], (str, bytes, os.PathLike)):
        _open_logs[-1].append(os.path.abspath(os.fsdecode(args[0])))


@contextmanager
def recording_opens():
    """A list of the absolute path of every file opened in the block, taken
    from the interpreter's "open" audit event: it sees every way of opening a
    file. An audit hook cannot be removed, so one hook serves every block."""
    if not hasattr(_log_open, "installed"):
        sys.addaudithook(_log_open)
        _log_open.installed = True
    _open_logs.append(opened := [])
    try:
        yield opened
    finally:
        _open_logs.remove(opened)


USABLE_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


@pytest.mark.skipif(len(USABLE_CPUS) < 2, reason="needs two usable CPUs")
def test_one_cpu_and_every_cpu_write_the_same_bytes(tmp_path):
    """An input of more than two ranges is split in two, the second read by
    a forked worker, where the command may use every CPU, and read by one
    process where it is pinned to one: the artifacts and the input's sha256
    are the same."""
    spec = SynthSpec(n_users=3000, female_fraction=0.5, n_checkins=50_000,
                     region_name="Land0", rng_seed=5, city="Rio",
                     subcategories=[SubcategorySpec(f"S{i}", "Food", 20, 1.0, 0.1 * i)
                                    for i in range(10)])
    data = tmp_path / "big.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        write_checkins(*generate(spec), fh)
    assert data.stat().st_size > 2 * models._RANGE_BYTES
    env = {**os.environ, "PYTHONPATH": str(Path(models.__file__).parents[1])}
    one_cpu = min(USABLE_CPUS)
    for argv in (["analyze", "--country", "Land0", "--method", "gender_shuffle", "--k", "20"],
                 ["vectors"]):
        outs = []
        for pin in (True, False):
            out = tmp_path / f"{argv[0]}-{'one' if pin else 'all'}"
            result = subprocess.run(
                [sys.executable, "-m", "venuepref.cli", *argv, "--input", str(data),
                 "--out-dir", str(out)], env=env, capture_output=True, text=True,
                preexec_fn=(lambda: os.sched_setaffinity(0, {one_cpu})) if pin else None)
            assert (result.returncode, result.stderr) == (0, "")
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name != "run_manifest.json":
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        inputs = [json.loads((out / "run_manifest.json").read_text())["inputs"] for out in outs]
        assert inputs[0] == inputs[1] == {str(data): hashlib.sha256(data.read_bytes()).hexdigest()}
