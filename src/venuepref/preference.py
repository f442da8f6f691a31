"""Gini coefficient of venue-level differences and regional preference vectors.

Each region is summarized by a vector with one dimension per subcategory
that the regions' rows use, in sorted order; the value is the Gini
coefficient of the absolute venue-level cross-gender differences within
that subcategory (0 when the subcategory is absent from the region).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .models import CheckinTable, DataError, csv_reader, group_codes, pair_codes
from .popularity import signed_difference


@dataclass(frozen=True)
class PreferenceVectors:
    """The preference vectors of distinct regions, one matrix: row i of
    ``values`` is ``regions[i]``'s vector over ``dims``."""

    regions: list[str]
    dims: list[str]
    values: np.ndarray  # regions x dims

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.regions), len(self.dims)):
            raise ValueError(f"values must be {len(self.regions)} regions x "
                             f"{len(self.dims)} dims, not of shape {values.shape}")
        if len(set(self.regions)) != len(self.regions):
            raise ValueError("region names must be distinct")
        object.__setattr__(self, "values", values)


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


def build_preference_vectors(table: CheckinTable, region: np.ndarray,
                             names: list[str]) -> PreferenceVectors:
    """Gini-per-subcategory vector of each region, over the dims of the
    whole call: a dim per subcategory that the rows use, in the order of
    the table's sorted value table.

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

    used, segment_dim = group_codes(segments % n_subcats, n_subcats)
    order = np.argsort(segment, kind="stable")  # venues grouped by segment
    grouped = diffs[order]
    bounds = np.searchsorted(segment[order], np.arange(len(segments) + 1))
    # a one-gender segment is absent, and equal differences (all zero among
    # them) are perfect equality: both keep 0, without the gini warning
    starts = bounds[:-1]
    low, high = np.minimum.reduceat(grouped, starts), np.maximum.reduceat(grouped, starts)
    scored = np.flatnonzero((male_total > 0) & (female_total > 0) & (low != high))
    values = np.zeros((len(names), len(used)))
    values[segments[scored] // n_subcats, segment_dim[scored]] = [
        _lorenz_gini(grouped[lo:hi])
        for lo, hi in zip(bounds[scored].tolist(), bounds[scored + 1].tolist())]
    return PreferenceVectors(list(names), [table.subcategories[s] for s in used.tolist()],
                             values)


def write_vectors_csv(vectors: PreferenceVectors, sink) -> None:
    import csv

    if not vectors.regions:
        raise ValueError("no vectors to write")
    # a quoted CR reads back as LF, and csv.writer leaves a lone one unquoted
    for what, names in (("dimension", vectors.dims), ("region", vectors.regions)):
        for name in names:
            if "\r" in name:
                raise DataError(f"{what} {name!r} holds a CR, which vectors.csv does not read back")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["region", *vectors.dims])
    writer.writerows([name, *(f"{v:.12g}" for v in row)]
                     for name, row in zip(vectors.regions, vectors.values.tolist()))


def read_vectors_csv(source) -> PreferenceVectors:
    """The preference vectors of a ``vectors.csv`` byte stream, in file order."""
    with csv_reader(source) as reader:
        rows = [(reader.line_num, row) for row in reader]
    if not rows or rows[0][1][:1] != ["region"]:
        raise DataError("vectors csv must start with a 'region' header column")
    dims = rows[0][1][1:]
    for i, dim in enumerate(dims):
        if not dim.strip() or dim in dims[:i]:
            raise DataError(f"vectors csv line {rows[0][0]}: dimension {dim!r} is "
                            + ("blank" if not dim.strip() else "repeated"))
    out: dict[str, np.ndarray] = {}
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
        out[name] = values
    if not out:
        raise DataError("vectors csv has no region rows")
    return PreferenceVectors(list(out), dims, np.array(list(out.values())))
