"""venuepref runs on numpy and the standard library alone: scipy is a test
dependency (the oracle of test_comparison.py), never imported by the CLI:
tests/e2e_cli.py runs every command with each import of scipy failing.
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


def python(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy(tmp_path):
    result = python("-c", "import sys, venuepref.cli; print(sorted(m for m in "
                    "sys.modules if m == 'scipy' or m.startswith('scipy.')))",
                    cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_end_to_end_checks_pass_with_scipy_blocked(tmp_path):
    """tests/e2e_cli.py, each CLI run a fresh interpreter in which every
    import of scipy fails."""
    result = python(str(Path(__file__).with_name("e2e_cli.py")), str(tmp_path),
                    sys.executable, "-c", BLOCKED_SCIPY_MAIN, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_analyze_and_vectors_load_no_masked_arrays(tmp_path):
    """A bare ``np.unique`` imports numpy.ma where numpy loads it lazily
    (2.4 does), which costs a fresh process 10-20 ms of its run; no command
    path calls one. Where ``import numpy`` loads it, there is nothing to
    check."""
    check = ("import sys; from venuepref.cli import main; "
             "before = 'numpy.ma' in sys.modules; code = main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules and not before); sys.exit(code)")

    def loads_masked_arrays(*argv):
        result = python("-c", check, *argv, "--out-dir", str(tmp_path), cwd=tmp_path)
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
    # the grouped filters, with and without the per-region cap, by country
    # and by three cities, each over the cap
    assert loads_masked_arrays("vectors", "--input", data) == "False"
    assert loads_masked_arrays("vectors", "--input", data,
                               "--max-checkins-per-region", "500") == "False"
    city = tmp_path / "land0-city.csv"
    with open(data, newline="") as src, open(city, "w", newline="") as out:
        rows = list(csv.DictReader(src))
        writer = csv.DictWriter(out, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({**row, "city": f"Town{i % 3}"} for i, row in enumerate(rows))
    assert loads_masked_arrays("vectors", "--input", str(city), "--granularity",
                               "city", "--max-checkins-per-region", "300") == "False"
