"""Artifact checks, written from the paper's definitions and independent of
the code under test. Each check returns a list of error strings; an empty
list means the command's outputs are correct. Findings that are not
failures go to the ``notes`` list the caller passes in.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from gen import region_name

TOL = 1e-9

# Artifacts each command writes, besides run_manifest.json (which holds
# wall-clock timestamps and so is neither checked for determinism nor
# digested).
ARTIFACTS = {
    "analyze": ("filter_report.json", "popularity.csv", "significance.json",
                "null_distribution.csv"),
    "vectors": ("vectors.csv", "vectors_manifest.json"),
    "cluster": ("clusters.json",),
    "compare": ("comparison.csv",),
}


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_analyze(out: Path, expect: dict, notes: list) -> list[str]:
    errors = []
    stages = json.loads((out / "filter_report.json").read_text())["stages"]
    kept = stages[-1]["out"]
    popularity = _rows(out / "popularity.csv")
    for column in ("p_male", "p_female"):
        total = math.fsum(float(r[column]) for r in popularity)
        if abs(total - 1.0) > TOL:
            errors.append(f"popularity.csv: {column} sums to {total!r}, not 1")
    bad_d = [r["unit_key"] for r in popularity
             if abs((float(r["p_male"]) - float(r["p_female"])) / math.sqrt(2)
                    - float(r["d_s"])) > TOL]
    if bad_d:
        errors.append(f"popularity.csv: d_s != (p_m - p_f)/sqrt(2) for "
                      f"{len(bad_d)} units, e.g. {bad_d[0]!r}")
    n_checkins = sum(int(r["n_checkins"]) for r in popularity)
    if n_checkins != kept:
        errors.append(f"popularity.csv: n_checkins sum {n_checkins} != "
                      f"filtered records {kept}")

    units = [r["unit_key"] for r in popularity]
    verdicts = json.loads((out / "significance.json").read_text())
    if sorted(v["unit_key"] for v in verdicts) != sorted(units):
        errors.append("significance.json: units differ from popularity.csv")
    for v in verdicts:
        if not v["delta_min"] <= v["delta_max"]:
            errors.append(f"significance.json: {v['unit_key']!r} has "
                          "delta_min > delta_max")
        outside = (v["observed_d"] < v["delta_min"]
                   or v["observed_d"] > v["delta_max"])
        if v["significant"] != outside:
            errors.append(f"significance.json: {v['unit_key']!r} verdict "
                          "disagrees with its acceptance range")

    null_rows = len(_rows(out / "null_distribution.csv"))
    if null_rows != len(units) * expect["k"]:
        errors.append(f"null_distribution.csv: {null_rows} rows, expected "
                      f"{len(units)} units x k={expect['k']}")
    return errors


def check_vectors(out: Path, expect: dict, notes: list) -> list[str]:
    errors = []
    with open(out / "vectors.csv", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if len(rows) != expect["regions"]:
        errors.append(f"vectors.csv: {len(rows)} rows, expected "
                      f"{expect['regions']}")
    for row in rows:
        if len(row) != len(header):
            errors.append(f"vectors.csv: row {row[0]!r} has {len(row)} "
                          f"fields, header has {len(header)}")
            continue
        values = [float(v) for v in row[1:]]
        if not all(-TOL <= v < 1.0 for v in values):
            errors.append(f"vectors.csv: row {row[0]!r} has a value "
                          "outside [0, 1)")
        # The Gini of equal values is 0, but the program's formula can round
        # it to -2.2e-16 (two venues in a subcategory always have equal |d|).
        # That is a rounding defect of the program, reported, not failed.
        negative = [v for v in values if -TOL <= v < 0.0]
        if negative:
            notes.append(f"vectors.csv: row {row[0]!r} has Gini values "
                         f"{negative} below 0 by rounding")
    return errors


def check_cluster(out: Path, expect: dict, notes: list) -> list[str]:
    errors = []
    clusters = json.loads((out / "clusters.json").read_text())["clusters"]
    if len(clusters) != expect["clusters"]:
        errors.append(f"clusters.json: {len(clusters)} clusters, expected "
                      f"{expect['clusters']}")
    if any(not c["members"] for c in clusters):
        errors.append("clusters.json: a cluster is empty")
    members = [m for c in clusters for m in c["members"]]
    regions = sorted(region_name(i) for i in range(expect["regions"]))
    if sorted(members) != regions:
        errors.append("clusters.json: clusters do not partition the regions")
    return errors


def check_compare(out: Path, expect: dict, notes: list) -> list[str]:
    errors = []
    rows = _rows(out / "comparison.csv")
    regions = expect["regions"]
    if len(rows) != regions:
        errors.append(f"comparison.csv: {len(rows)} anchors, expected "
                      f"{regions}")
    for r in rows:
        if not -1.0 <= float(r["rho"]) <= 1.0:
            errors.append(f"comparison.csv: rho {r['rho']} for "
                          f"{r['country']!r} outside [-1, 1]")
        if int(r["n"]) != regions - 1:
            errors.append(f"comparison.csv: n={r['n']} for {r['country']!r},"
                          f" expected {regions - 1}")
    return errors


CHECKS = {
    "analyze": check_analyze,
    "vectors": check_vectors,
    "cluster": check_cluster,
    "compare": check_compare,
}


def check(command: str, out: Path, expect: dict, notes: list) -> list[str]:
    """Errors in the artifacts ``command`` wrote to ``out``; a missing or
    unreadable artifact is an error, not an exception."""
    try:
        return CHECKS[command](out, expect, notes)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command}: unreadable artifacts: {exc!r}"]
