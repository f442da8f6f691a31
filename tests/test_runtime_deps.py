"""venuepref runs on numpy and the standard library alone: scipy is a test
dependency (the oracle of test_comparison.py), never imported by the CLI
(synth, vectors, compare and analyze with both null models are run).
Each check runs in a fresh interpreter, since this test session has scipy
loaded already."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run one CLI command with every import of scipy failing
BLOCKED_SCIPY_MAIN = ("import sys; sys.modules['scipy'] = None; "
                      "from venuepref.cli import main; sys.exit(main(sys.argv[1:]))")


def python(code: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy(tmp_path):
    result = python("import sys, venuepref.cli; print(sorted(m for m in "
                    "sys.modules if m == 'scipy' or m.startswith('scipy.')))",
                    cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_synth_vectors_compare_run_with_scipy_blocked(tmp_path):
    def venuepref(*argv):
        result = python(BLOCKED_SCIPY_MAIN, *argv, "--out-dir", str(tmp_path),
                        cwd=tmp_path)
        assert result.returncode == 0, result.stderr

    regions = [f"Land{i}" for i in range(5)]
    rows = []
    for i, region in enumerate(regions):
        spec = tmp_path / f"{region}.json"
        spec.write_text(json.dumps({
            "n_users": 300, "female_fraction": 0.5, "n_checkins": 2000,
            "region_name": region, "rng_seed": 11 + i,
            "subcategories": [{"name": f"S{j}", "category": "Food",
                               "n_venues": 4, "base_weight": 1.0,
                               "gender_skew": 0.2 * i} for j in range(4)],
        }))
        venuepref("synth", "--spec", str(spec), "--out", f"{region}.csv")
        with open(tmp_path / f"{region}.csv", newline="") as fh:
            header, *body = csv.reader(fh)
        rows += body
    with open(tmp_path / "all.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    (tmp_path / "index.csv").write_text("country,value\n" + "".join(
        f"{region},{0.1 * (i + 1):.1f}\n" for i, region in enumerate(regions)))

    venuepref("vectors", "--input", str(tmp_path / "all.csv"))
    venuepref("compare", "--vectors", str(tmp_path), "--index",
              str(tmp_path / "index.csv"), "--all-anchors")
    with open(tmp_path / "comparison.csv", newline="") as fh:
        assert [row["country"] for row in csv.DictReader(fh)] == regions

    for method in ("generative", "gender_shuffle"):
        venuepref("analyze", "--input", str(tmp_path / "Land0.csv"), "--country",
                  "Land0", "--method", method, "--k", "7")
        with open(tmp_path / "popularity.csv", newline="") as fh:
            units = len(fh.readlines()) - 1
        with open(tmp_path / "null_distribution.csv", newline="") as fh:
            assert units > 0 and len(fh.readlines()) == units * 7 + 1


def test_analyze_and_vectors_load_no_masked_arrays(tmp_path):
    """A bare ``np.unique`` imports numpy.ma where numpy loads it lazily
    (2.4 does), which costs a fresh process 10-20 ms of its run; no command
    path calls one. Where ``import numpy`` loads it, there is nothing to
    check."""
    check = ("import sys; from venuepref.cli import main; "
             "before = 'numpy.ma' in sys.modules; code = main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules and not before); sys.exit(code)")

    def loads_masked_arrays(*argv):
        result = python(check, *argv, "--out-dir", str(tmp_path), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        return result.stdout.split()[-1]

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_users": 300, "female_fraction": 0.5, "n_checkins": 2000,
        "region_name": "Land0", "rng_seed": 11,
        "subcategories": [{"name": f"S{j}", "category": "Food", "n_venues": 4,
                           "base_weight": 1.0, "gender_skew": 0.2} for j in range(4)],
    }))
    loads_masked_arrays("synth", "--spec", str(spec), "--out", "land0.csv")
    data = str(tmp_path / "land0.csv")
    for mode in ("subcategory", "venue"):
        assert loads_masked_arrays("analyze", "--input", data, "--country", "Land0",
                                   "--mode", mode, "--k", "7") == "False"
    assert loads_masked_arrays("vectors", "--input", data) == "False"
