"""Dataset filtering: region selection, category whitelist, per-user dedup,
venue and subcategory thresholds, and the optional per-region check-in cap."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not mid-run

from .models import (
    NO_TIME,
    CheckinTable,
    DataError,
    Granularity,
    first_rows,
    pair_codes,
)

DEFAULT_CATEGORIES = frozenset({"Arts", "Education", "Food", "Nightlife", "Work"})


@dataclass
class FilterConfig:
    min_checkins_per_venue: int = 5
    dedupe_user_venue: bool = True
    allowed_categories: frozenset[str] = DEFAULT_CATEGORIES
    min_venues_per_subcategory: int = 2
    max_checkins_per_region: Optional[int] = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.min_checkins_per_venue < 1:
            raise ValueError("min_checkins_per_venue must be >= 1")
        if self.min_venues_per_subcategory < 1:
            raise ValueError("min_venues_per_subcategory must be >= 1")
        if self.max_checkins_per_region is not None and self.max_checkins_per_region < 1:
            raise ValueError("max_checkins_per_region must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        self.allowed_categories = frozenset(self.allowed_categories)


@dataclass
class FilterReport:
    stages: list[dict] = field(default_factory=list)

    def add(self, stage: str, n_in: int, n_out: int) -> None:
        self.stages.append({"stage": stage, "in": n_in, "out": n_out})

    def as_dict(self) -> dict:
        return {"stages": self.stages}


def region_column(t: CheckinTable, granularity: Granularity):
    """Codes and value table of the country or the city column: the value
    table of an ingested table holds the regions its rows use."""
    if granularity is Granularity.COUNTRY:
        return t.country, t.countries
    return t.city, t.cities


def _earliest_per_pair(t: CheckinTable, rows: np.ndarray, venue: np.ndarray,
                       n_venues: int) -> np.ndarray:
    # Keep the earliest check-in per (region, user, venue), ``venue`` coding
    # the (region, venue) of each row; a missing timestamp, NO_TIME, comes
    # last, and ties fall back to input order.
    pairs, pair = pair_codes(venue, n_venues, t.user[rows], len(t.users))
    ts = t.ts[rows]
    earliest = np.full(len(pairs), NO_TIME)
    np.minimum.at(earliest, pair, ts)
    at_earliest = np.flatnonzero(ts == earliest[pair])
    keep = np.zeros(len(rows), bool)
    keep[at_earliest[first_rows(pair[at_earliest], len(pairs))]] = True
    return keep


def _subcategories_with_venues(venue: np.ndarray, segment: np.ndarray,
                               n_segments: int, minimum: int) -> np.ndarray:
    # Whether each row's (region, subcategory) segment holds ``minimum``
    # distinct venues; ``venue`` codes the (region, venue) of each row and
    # ``segment`` maps that code to its segment.
    present = np.flatnonzero(np.bincount(venue, minlength=len(segment)))
    venues = np.bincount(segment[present], minlength=n_segments)
    return venues[segment[venue]] >= minimum


def _cap_by_venue_sampling(venue: np.ndarray, venue_region: np.ndarray,
                           region_rows: list[int], cap: int, seed: int
                           ) -> np.ndarray:
    # Down-sample each region over the cap by randomly keeping whole venues
    # until the cap is met: its venues are visited in a seeded random order
    # of their sorted ids and kept when they still fit in the remaining
    # budget. ``venue`` codes the (region, venue) of each row, in region and
    # then venue-id order, and ``venue_region`` is each code's region.
    per_venue = np.bincount(venue, minlength=len(venue_region))
    kept = np.ones(len(venue_region), bool)
    bounds = np.searchsorted(venue_region, np.arange(len(region_rows) + 1))
    orders = {}  # venue count -> visiting order: every region draws with one seed
    for region, n in enumerate(region_rows):
        if n <= cap:
            continue
        lo, hi = bounds[region], bounds[region + 1]
        venues = lo + np.flatnonzero(per_venue[lo:hi])
        if len(venues) not in orders:
            orders[len(venues)] = np.random.default_rng(seed).permutation(len(venues))
        visits = venues[orders[len(venues)]]
        kept[lo:hi] = False
        budget = cap
        for code, size in zip(visits.tolist(), per_venue[visits].tolist()):
            if size <= budget:
                kept[code] = True
                budget -= size
    return kept[venue]


def filter_regions(table: CheckinTable, granularity: Granularity, names: list[str],
                   config: FilterConfig
                   ) -> tuple[CheckinTable, np.ndarray, list[FilterReport]]:
    """Run the full filter protocol for each of the distinct region
    ``names`` over the check-ins of ``table``, each stage once for all of
    them. Return the kept rows of every region as one table, in input order;
    the position in ``names`` of each kept row's region; and the report of
    each region. A region's kept rows and report are those it would get
    alone, so one name filters one region.

    Stage order: region -> category -> dedupe -> venue threshold ->
    subcategory threshold -> cap. The subcategory threshold is re-checked
    after the cap so the output always satisfies every threshold.
    """
    if len(set(names)) != len(names):
        raise ValueError("region names must be distinct")
    codes, values = region_column(table, granularity)
    position = dict(zip(names, range(len(names))))
    # each row's position in names, or -1; the last entry is for no city (-1)
    region = np.array([position.get(v, -1) for v in values] + [-1])[codes]
    rows = np.flatnonzero(region >= 0)
    region = region[rows]

    reports = [FilterReport() for _ in names]
    region_rows = [len(table)] * len(names)

    def stage(name: str, keep=None) -> None:
        nonlocal rows, region, region_rows, venue
        if keep is not None:
            rows, region, venue = rows[keep], region[keep], venue[keep]
        n_in, region_rows = region_rows, np.bincount(
            region, minlength=len(names)).tolist()
        for report, n, out in zip(reports, n_in, region_rows):
            report.add(name, n, out)

    stage("region")
    if 0 in region_rows:
        name = names[region_rows.index(0)]
        raise DataError(f"region {name!r} ({granularity.value}) "
                        "matches zero records")

    allowed = np.array([c in config.allowed_categories for c in table.categories],
                       bool)
    keep = allowed[table.category[rows]]
    rows, region = rows[keep], region[keep]
    # (region, venue) codes, in region and then venue-id order, and the
    # (region, subcategory) segment of each
    venues, venue = pair_codes(region, len(names), table.venue[rows], len(table.venues))
    venue_region = venues // len(table.venues)
    segments, segment = pair_codes(
        venue_region, len(names), table.venue_subcategory[venues % len(table.venues)],
        len(table.subcategories))
    stage("category")

    if config.dedupe_user_venue:
        stage("dedupe", _earliest_per_pair(table, rows, venue, len(venues)))

    per_venue = np.bincount(venue, minlength=len(venues))
    stage("venue_threshold", per_venue[venue] >= config.min_checkins_per_venue)

    minimum = config.min_venues_per_subcategory
    stage("subcategory_threshold", _subcategories_with_venues(
        venue, segment, len(segments), minimum))

    if config.max_checkins_per_region is not None:
        stage("region_cap", _cap_by_venue_sampling(
            venue, venue_region, region_rows, config.max_checkins_per_region,
            config.rng_seed))
        # removing whole venues can leave a subcategory below its threshold
        stage("subcategory_threshold_recheck", _subcategories_with_venues(
            venue, segment, len(segments), minimum))

    return table.take(rows), region, reports

