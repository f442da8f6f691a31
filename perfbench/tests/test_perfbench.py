"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402


def test_benchmark_json_is_generated_from_workloads():
    assert (ROOT / "BENCHMARK.json").read_text() == benchmark_json()


def test_quick_mode_runs_every_workload_with_checks_and_trace():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * sum(len(w.commands)
                                          for w in WORKLOADS.values())
    for name in WORKLOADS:
        for metric in END_TO_END + PER_LAYER:
            entry = result["metrics"][f"{name}.{metric.name}"]
            assert entry["unit"] == metric.unit
        for metric in END_TO_END:
            assert result["metrics"][f"{name}.{metric.name}"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "venue-800",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generator_is_seeded_and_realistic(tmp_path):
    scale = gen.Scale(regions=2, checkins_per_region=2000, subcategories=5,
                      venues_per_subcategory=6, users_per_region=100)
    a = gen.write_checkins(tmp_path / "a.csv", scale, seed=3)
    b = gen.write_checkins(tmp_path / "b.csv", scale, seed=3)
    c = gen.write_checkins(tmp_path / "c.csv", scale, seed=4)
    assert a == b and a["sha256"] != c["sha256"]
    assert a["rows"] == 4000
    assert 0.03 < a["repeated_rows"] / a["rows"] < 0.07
    assert 0.005 < a["rejected_rows"] / a["rows"] < 0.02
    with open(tmp_path / "a.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4000
    # every timestamp carries an explicit UTC offset, never a naive one
    assert all(r["timestamp"][-6] in "+-" and r["timestamp"][-3] == ":"
               for r in rows)
    shares = []
    for sub in sorted({r["subcategory"] for r in rows}):
        genders = [r["gender"] for r in rows if r["subcategory"] == sub
                   and r["gender"] in ("male", "female")]
        shares.append(genders.count("female") / len(genders))
    assert max(shares) - min(shares) > 0.2


def _write_analyze(out: Path, d_scale=1.0, flip=False):
    out.mkdir()
    counts = {"A": (3, 1), "B": (1, 3)}  # male, female check-ins per unit
    (out / "filter_report.json").write_text(json.dumps(
        {"stages": [{"stage": "region", "in": 9, "out": 8}]}))
    male, female = (sum(v[i] for v in counts.values()) for i in (0, 1))
    verdicts = []
    with open(out / "popularity.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit_key", "mode", "p_male", "p_female", "p_male_norm",
                    "p_female_norm", "d_s", "n_checkins"])
        for key, (m, f) in counts.items():
            d = (m / male - f / female) / math.sqrt(2)
            w.writerow([key, "venue", m / male, f / female, 1, 1,
                        d * d_scale, m + f])
            verdicts.append({"unit_key": key, "observed_d": d,
                             "delta_min": -0.1, "delta_max": 0.1,
                             "significant": not flip})
    (out / "significance.json").write_text(json.dumps(verdicts))
    with open(out / "null_distribution.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit_key", "replicate", "d"])
        for key in counts:
            for i in range(3):
                w.writerow([key, i, 0.0])


@pytest.mark.parametrize("kwargs, problem", [
    ({}, None),
    ({"d_scale": 1.01}, "d_s"),
    ({"flip": True}, "verdict"),
])
def test_analyze_check(tmp_path, kwargs, problem):
    _write_analyze(tmp_path / "out", **kwargs)
    errors = checks.check("analyze", tmp_path / "out", {"k": 3}, [])
    if problem is None:
        assert errors == []
    else:
        assert any(problem in e for e in errors)
    assert checks.check("analyze", tmp_path / "out", {"k": 4}, [])


def test_vectors_check_reports_rounding_and_fails_range(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "vectors.csv").write_text(
        "region,S1,S2\nRegion-01,0.5,-2.22044604925e-16\nRegion-02,0.2,0\n")
    notes = []
    assert checks.check("vectors", out, {"regions": 2}, notes) == []
    assert len(notes) == 1
    (out / "vectors.csv").write_text("region,S1\nRegion-01,1.0\n"
                                     "Region-02,0.1\n")
    assert checks.check("vectors", out, {"regions": 2}, [])
    assert checks.check("vectors", tmp_path / "missing", {"regions": 2}, [])


def test_self_times_partition_the_traced_run():
    # main [0, 10] -> ingest [1, 3], filter [4, 8] -> nested [5, 6]
    spans = [["main", "cli", 0.0, 10.0, -1, {}],
             ["ingest_checkins", "models", 1.0, 3.0, 0,
              {"rows": 100, "accepted": 99}],
             ["apply_filters", "filtering", 4.0, 8.0, 0,
              {"scanned": 99, "kept": 90}],
             ["helper", "popularity", 5.0, 6.0, 2, {}]]
    chain = {"cmds": [{"spans": spans, "artifact_bytes": 7}], "run": 10.0}
    layers, self_by_layer = run.layer_metrics(chain)
    assert self_by_layer == {"cli": 4.0, "models": 2.0, "filtering": 3.0,
                             "popularity": 1.0}
    assert layers["cli.self_s"] == 4.0
    assert layers["models.ingest_s"] == 2.0
    assert layers["filtering.busy_s"] == 3.0
    assert layers["popularity.busy_s"] == 1.0
    assert layers["models.accept_ratio"] == 0.99
    assert layers["filtering.keep_ratio"] == 90 / 99
    assert layers["preference.busy_s"] == 0


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    def chain(run_s, setup_s, slowdown):
        cpu = run.REFERENCE_CPU_S * slowdown
        return {"run": run_s, "setup": setup_s, "rss_mb": 100.0,
                "cmds": [{"cpu_probe": [cpu, cpu]}]}
    # a machine at the reference speed reports wall times
    e2e = run.end_to_end([chain(2.0, 1.0, 1.0), chain(4.0, 3.0, 1.0)])
    assert e2e == {"run_s": 3.0, "setup_s": 2.0, "total_s": 5.0,
                   "peak_rss_mb": 100.0}
    # the same program on a machine twice as slow reports the same times
    assert run.end_to_end([chain(4.0, 2.0, 2.0), chain(8.0, 6.0, 2.0)]) == e2e
