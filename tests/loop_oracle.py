"""The per-item loops that array passes replaced in the library, kept as
the oracles of tests/test_array_passes.py: one ``gini`` call per (region,
subcategory) segment, one seeded draw per capped region, and one mean per
k-means cluster. Each must give the floats of its array pass exactly."""

import warnings

import numpy as np

from venuepref.models import pair_codes
from venuepref.popularity import signed_difference


def gini(x) -> float:
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
        return 0.0
    weights = np.arange(n, 0, -1)
    g = float((n + 1) / n - 2.0 * np.dot(weights, arr) / (n * total))
    return min(max(0.0, g), 1.0 - 1.0 / n)


def preference_values(table, region, names) -> tuple[list[str], np.ndarray]:
    """The dims and the (regions, dims) values of ``build_preference_vectors``:
    the sorted subcategories of the rows, and one ``gini`` call per scored
    segment."""
    n_subcats = len(table.subcategories)
    venues, venue = pair_codes(region, len(names), table.venue, len(table.venues))
    venue_subcat = table.venue_subcategory[venues % len(table.venues)]
    total = np.bincount(venue, minlength=len(venues))
    male = np.bincount(venue[table.gender == 1], minlength=len(venues))
    female = total - male
    segments, segment = pair_codes(venues // len(table.venues), len(names),
                                   venue_subcat, n_subcats)
    male_total = np.bincount(segment, male, len(segments)).astype(np.int64)
    female_total = np.bincount(segment, female, len(segments)).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        diffs = np.abs(signed_difference(male / male_total[segment],
                                         female / female_total[segment]))
    dims = sorted({table.subcategories[table.venue_subcategory[v]]
                   for v in table.venue.tolist()})
    dim_pos = {subcat: i for i, subcat in enumerate(dims)}
    segment_dim = [dim_pos[table.subcategories[s % n_subcats]] for s in segments.tolist()]
    scored = ((male_total > 0) & (female_total > 0)
              & (np.bincount(segment, diffs > 0, len(segments)) > 0))
    values = np.zeros((len(names), len(dims)))
    order = np.argsort(segment, kind="stable")
    bounds = np.searchsorted(segment[order], np.arange(len(segments) + 1))
    for s in np.flatnonzero(scored).tolist():
        values[segments[s] // n_subcats, segment_dim[s]] = gini(
            diffs[order[bounds[s]:bounds[s + 1]]])
    return dims, values


def cap_by_venue_sampling(venue, venue_region, region_rows, cap, seed) -> np.ndarray:
    """``filtering._cap_by_venue_sampling``, one draw per capped region."""
    per_venue = np.bincount(venue, minlength=len(venue_region))
    kept = np.ones(len(venue_region), bool)
    bounds = np.searchsorted(venue_region, np.arange(len(region_rows) + 1))
    for region, n in enumerate(region_rows):
        if n <= cap:
            continue
        lo, hi = bounds[region], bounds[region + 1]
        venues = lo + np.flatnonzero(per_venue[lo:hi])
        visits = venues[np.random.default_rng(seed).permutation(len(venues))]
        kept[lo:hi] = False
        budget = cap
        for code, size in zip(visits.tolist(), per_venue[visits].tolist()):
            if size <= budget:
                kept[code] = True
                budget -= size
    return kept[venue]


def update_centroids(unit, labels, dists, old) -> np.ndarray:
    """``clustering._update_centroids``, one mean per cluster."""
    centroids = old.copy()
    point_dist = dists[np.arange(unit.shape[0]), labels]
    for j in range(len(old)):
        members = unit[labels == j]
        if members.shape[0] == 0:
            far = int(np.argmax(point_dist))
            centroids[j] = unit[far]
            point_dist[far] = -1.0
            continue
        mean = members.mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm > 0:
            centroids[j] = mean / norm
    return centroids
