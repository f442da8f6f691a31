"""venuepref runs on numpy and the standard library alone: scipy is a test
dependency (the oracle of test_comparison.py), never imported by the CLI.
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
