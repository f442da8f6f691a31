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

from .models import CheckinTable, DataError, csv_reader, pair_codes
from .popularity import signed_difference


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
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("gini of an empty sequence is undefined")
    if np.any(arr < 0):
        raise ValueError("gini requires non-negative values")
    if not arr.any():
        warnings.warn("gini of all-zero values: returning 0 (perfect equality)",
                      stacklevel=2)
        return 0.0
    # equal values give 0, which the formula would round to about ±2e-16
    return 0.0 if arr.min() == arr.max() else _lorenz_gini(arr)


def _lorenz_gini(x: np.ndarray) -> float:
    """``gini`` of non-negative floats that are not all equal."""
    arr, n = np.sort(x), len(x)
    weights = np.arange(n, 0, -1)  # n+1-i for i = 1..n
    g = float((n + 1) / n - 2.0 * np.dot(weights, arr) / (n * arr.sum()))
    return min(max(0.0, g), 1.0 - 1.0 / n)  # the exact range, despite rounding


def collect_global_dims(table: CheckinTable) -> list[str]:
    """The subcategories of ``table``, such as the ``filter_regions`` output
    of all regions, in lexicographic order."""
    used = np.bincount(table.venue_subcategory[table.venue], minlength=len(table.subcategories))
    return [table.subcategories[s] for s in np.flatnonzero(used).tolist()]


def build_preference_vectors(table: CheckinTable, region: np.ndarray,
                             names: list[str], global_dims: list[str]
                             ) -> list[PreferenceVector]:
    """Gini-per-subcategory vector of each region, over the global dims.

    ``table`` holds the kept rows of every region and ``region`` the
    position in ``names`` of each row's region, as ``filter_regions``
    returns them; a region without rows gets the zero vector. A (region,
    subcategory) segment's venues are scored against that segment's gender
    totals, as in venue_within_subcategory mode. A segment that lacks one
    gender entirely has undefined venue-level differences; it is treated as
    absent (value 0).
    """
    n_subcats = len(table.subcategories)
    # (region, venue) codes, in region and then venue-id order
    venues, venue = pair_codes(region, len(names), table.venue, len(table.venues))
    venue_subcat = table.venue_subcategory[venues % len(table.venues)]
    total = np.bincount(venue, minlength=len(venues))
    male = np.bincount(venue[table.gender == 1], minlength=len(venues))
    female = total - male

    segments, segment = pair_codes(venues // len(table.venues), len(names),
                                   venue_subcat, n_subcats)
    male_total = np.bincount(segment, male, len(segments)).astype(np.int64)
    female_total = np.bincount(segment, female, len(segments)).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):  # one-gender segments
        diffs = np.abs(signed_difference(male / male_total[segment],
                                         female / female_total[segment]))

    dim_pos = {subcat: i for i, subcat in enumerate(global_dims)}
    dim = np.array([dim_pos.get(s, -1) for s in table.subcategories], np.intp)
    segment_dim = dim[segments % n_subcats]
    order = np.argsort(segment, kind="stable")  # venues grouped by segment
    grouped = diffs[order]
    bounds = np.searchsorted(segment[order], np.arange(len(segments) + 1))
    # a one-gender segment is absent, and equal differences (all zero among
    # them) are perfect equality: both keep 0, without the gini warning
    starts = bounds[:-1]
    low, high = np.minimum.reduceat(grouped, starts), np.maximum.reduceat(grouped, starts)
    scored = np.flatnonzero((segment_dim >= 0) & (male_total > 0) & (female_total > 0)
                            & (low != high))
    values = np.zeros((len(names), len(global_dims)))
    values[segments[scored] // n_subcats, segment_dim[scored]] = [
        _lorenz_gini(grouped[lo:hi])
        for lo, hi in zip(bounds[scored].tolist(), bounds[scored + 1].tolist())]
    return [PreferenceVector(region=name, dims=list(global_dims), values=row)
            for name, row in zip(names, values)]


def write_vectors_csv(vectors: list[PreferenceVector], sink) -> None:
    import csv

    if not vectors:
        raise ValueError("no vectors to write")
    dims = vectors[0].dims
    for vec in vectors:
        if vec.dims != dims:
            raise ValueError("vectors have mismatched dims")
    # a quoted CR reads back as LF, and csv.writer leaves a lone one unquoted
    for what, names in (("dimension", dims), ("region", [v.region for v in vectors])):
        for name in names:
            if "\r" in name:
                raise DataError(f"{what} {name!r} holds a CR, which vectors.csv does not read back")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["region"] + dims)
    for vec in vectors:
        writer.writerow([vec.region] + [f"{v:.12g}" for v in vec.values])


def read_vectors_csv(source) -> dict[str, PreferenceVector]:
    """The preference vectors of a ``vectors.csv`` byte stream, by region."""
    with csv_reader(source) as reader:
        rows = [(reader.line_num, row) for row in reader]
    if not rows or rows[0][1][:1] != ["region"]:
        raise DataError("vectors csv must start with a 'region' header column")
    dims = rows[0][1][1:]
    for i, dim in enumerate(dims):
        if not dim.strip() or dim in dims[:i]:
            raise DataError(f"vectors csv line {rows[0][0]}: dimension {dim!r} is "
                            + ("blank" if not dim.strip() else "repeated"))
    out: dict[str, PreferenceVector] = {}
    for line, row in rows[1:]:
        if not row:
            continue
        name = row[0]
        where = f"vectors csv line {line}: region {name!r}"
        if not name.strip():
            raise DataError(f"{where} has a blank name")
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
    if not out:
        raise DataError("vectors csv has no region rows")
    return out
