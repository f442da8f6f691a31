"""Gini coefficient of venue-level differences and regional preference vectors.

Each region is summarized by a vector with one dimension per subcategory in
a fixed global ordering; the value is the Gini coefficient of the absolute
venue-level cross-gender differences within that subcategory (0 when the
subcategory is absent from the region).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .models import CheckinTable, DataError, RegionSelector, csv_reader
from .popularity import AnalysisMode, ScopeIndex, signed_difference


@dataclass
class PreferenceVector:
    region: str  # the region's name
    dims: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.dims) != self.values.size:
            raise ValueError("dims and values must have the same length")


def gini(x) -> float:
    """Gini coefficient of non-negative values, via the discrete Lorenz
    formula g = (n+1)/n - 2*sum((n+1-i)*x_i) / (n*sum(x)) with x ascending.

    Equal values give exactly 0, and the result is clamped to the exact range
    [0, 1 - 1/n]. An all-zero input is perfect equality; it returns 0 with a
    warning (the sum in the denominator would vanish).
    """
    arr = np.sort(np.asarray(x, dtype=float))
    if arr.size == 0:
        raise ValueError("gini of an empty sequence is undefined")
    if np.any(arr < 0):
        raise ValueError("gini requires non-negative values")
    n = arr.size
    total = arr.sum()
    if total == 0:
        warnings.warn("gini of all-zero values: returning 0 (perfect equality)",
                      stacklevel=2)
        return 0.0
    if arr[0] == arr[-1]:
        return 0.0  # equal values; the formula would round to about ±2e-16
    weights = np.arange(n, 0, -1)  # n+1-i for i = 1..n
    g = float((n + 1) / n - 2.0 * np.dot(weights, arr) / (n * total))
    return min(max(0.0, g), 1.0 - 1.0 / n)  # the exact range, despite rounding


def collect_global_dims(*regions) -> list[str]:
    """Lexicographic union of the subcategories of the given check-ins: each
    argument is a CheckinTable or a list of records, such as the
    ``apply_filters`` output of one region, or the pooled output of all."""
    dims = set()
    for records in regions:
        table = CheckinTable.from_records(records)
        dims.update(table.subcategories[s] for s in np.unique(table.subcategory).tolist())
    return sorted(dims)


def build_preference_vector(records, region: RegionSelector,
                            global_dims: list[str]) -> PreferenceVector:
    """Gini-per-subcategory vector for one region, over the global dims.

    ``records`` are the region's ``apply_filters`` output, a CheckinTable or
    a list of records (none gives the zero vector). One venue-mode index of them gives every venue's counts; a
    subcategory's venues are scored against that subcategory's gender
    totals, as in venue_within_subcategory mode. A subcategory whose scope
    lacks one gender entirely has undefined venue-level differences; it is
    treated as absent (value 0).
    """
    values = np.zeros(len(global_dims))
    if not len(records):
        return PreferenceVector(region=region.name, dims=list(global_dims),
                                values=values)
    index = ScopeIndex(records, AnalysisMode.VENUE, region)
    dim_pos = {subcat: i for i, subcat in enumerate(global_dims)}
    # venues grouped by subcategory, each group in venue-key order
    order = np.argsort(index.venue_subcat, kind="stable")
    bounds = np.searchsorted(index.venue_subcat[order],
                             np.arange(len(index.subcategories) + 1))
    for s, subcat in enumerate(index.subcategories):
        if subcat not in dim_pos:
            continue
        venues = order[bounds[s]:bounds[s + 1]]
        male, female = index.male[venues], index.female[venues]
        male_total, female_total = int(male.sum()), int(female.sum())
        if male_total == 0 or female_total == 0:
            continue
        diffs = np.abs(signed_difference(male / male_total, female / female_total))
        # all-zero differences are perfect equality; skip the gini warning
        values[dim_pos[subcat]] = gini(diffs) if diffs.any() else 0.0
    return PreferenceVector(region=region.name, dims=list(global_dims), values=values)


def write_vectors_csv(vectors: list[PreferenceVector], sink) -> None:
    import csv

    if not vectors:
        raise ValueError("no vectors to write")
    dims = vectors[0].dims
    for vec in vectors:
        if vec.dims != dims:
            raise ValueError("vectors have mismatched dims")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["region"] + dims)
    for vec in vectors:
        writer.writerow([vec.region] + [f"{v:.12g}" for v in vec.values])


def read_vectors_csv(source) -> dict[str, PreferenceVector]:
    with csv_reader(source) as reader:
        rows = [(reader.line_num, row) for row in reader]
    if not rows or rows[0][1][:1] != ["region"]:
        raise DataError("vectors csv must start with a 'region' header column")
    dims = rows[0][1][1:]
    out: dict[str, PreferenceVector] = {}
    for line, row in rows[1:]:
        if not row:
            continue
        name = row[0]
        where = f"vectors csv line {line}: region {name!r}"
        if len(row) != len(dims) + 1:
            raise DataError(f"{where} has {len(row) - 1} value(s) for {len(dims)} dims")
        try:
            values = np.array([float(v) for v in row[1:]])
        except ValueError as exc:
            raise DataError(f"{where} has a value that is not a number ({exc})") from None
        if name in out:
            raise DataError(f"vectors csv repeats region {name!r}")
        if not np.isfinite(values).all():
            raise DataError(f"vectors csv has a non-finite value for region {name!r}")
        out[name] = PreferenceVector(region=name, dims=dims, values=values)
    return out
