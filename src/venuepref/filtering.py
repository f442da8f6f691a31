"""Dataset filtering: region selection, category whitelist, per-user dedup,
venue and subcategory thresholds, and the optional per-region check-in cap."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not mid-run

from .models import CheckinTable, DataError, Granularity, RegionSelector, rows_with

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
        self.allowed_categories = frozenset(self.allowed_categories)


@dataclass
class FilterReport:
    stages: list[dict] = field(default_factory=list)

    def add(self, stage: str, n_in: int, n_out: int) -> None:
        self.stages.append({"stage": stage, "in": n_in, "out": n_out})

    def as_dict(self) -> dict:
        return {"stages": self.stages}


def _region_column(t: CheckinTable, granularity: Granularity):
    """Codes and value table of the country or the city column."""
    if granularity is Granularity.COUNTRY:
        return t.country, t.countries
    return t.city, t.cities


def _earliest_per_pair(t: CheckinTable, rows: np.ndarray) -> np.ndarray:
    # Keep the earliest check-in per (user, venue); ties and missing
    # timestamps fall back to input order.
    order = np.lexsort((rows, t.ts[rows], t.ts_missing[rows],
                        t.venue[rows], t.user[rows]))
    user, venue = t.user[rows[order]], t.venue[rows[order]]
    first = np.ones(len(order), bool)
    first[1:] = (user[1:] != user[:-1]) | (venue[1:] != venue[:-1])
    return np.sort(rows[order[first]])


def _venues_with_checkins(t: CheckinTable, rows: np.ndarray, minimum: int) -> np.ndarray:
    counts = np.bincount(t.venue[rows], minlength=len(t.venues))
    return rows[counts[t.venue[rows]] >= minimum]


def _subcategories_with_venues(t: CheckinTable, rows: np.ndarray,
                               minimum: int) -> np.ndarray:
    pairs = np.unique(t.subcategory[rows].astype(np.int64) * len(t.venues)
                      + t.venue[rows])
    venues = np.bincount(pairs // len(t.venues), minlength=len(t.subcategories))
    return rows[venues[t.subcategory[rows]] >= minimum]


def _cap_by_venue_sampling(t: CheckinTable, rows: np.ndarray, cap: int,
                           seed: int) -> np.ndarray:
    # Down-sample by randomly keeping whole venues until the cap is met:
    # venues are visited in a seeded random order of their sorted ids and
    # kept when they still fit in the remaining budget.
    if len(rows) <= cap:
        return rows
    per_venue = np.bincount(t.venue[rows], minlength=len(t.venues))
    venues = np.flatnonzero(per_venue)  # codes in venue-id order
    visits = venues[np.random.default_rng(seed).permutation(len(venues))]
    kept = np.zeros(len(t.venues), bool)
    budget = cap
    for venue, n in zip(visits.tolist(), per_venue[visits].tolist()):
        if n <= budget:
            kept[venue] = True
            budget -= n
    return rows[kept[t.venue[rows]]]


def partition_by_region(table: CheckinTable, granularity: Granularity
                        ) -> dict[Optional[str], CheckinTable]:
    """The check-ins of ``table`` grouped by region name with one stable
    sort; each group keeps input order, so filtering a group equals
    filtering all check-ins for that region. Check-ins without a city are
    grouped under None."""
    codes, names = _region_column(table, granularity)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.diff(sorted_codes, prepend=-2))
    ends = [*starts[1:].tolist(), len(order)]
    return {(names[code] if code >= 0 else None): table.take(order[start:end])
            for code, start, end in zip(sorted_codes[starts].tolist(),
                                        starts.tolist(), ends)}


def apply_filters(table: CheckinTable, region: RegionSelector, config: FilterConfig
                  ) -> tuple[CheckinTable, FilterReport]:
    """Run the full filter protocol for one region over the check-ins of
    ``table``; return the kept rows as a table.

    Stage order: region -> category -> dedupe -> venue threshold ->
    subcategory threshold -> cap. The subcategory threshold is re-checked
    after the cap so the output always satisfies every threshold.
    """
    report = FilterReport()

    rows = rows_with(*_region_column(table, region.granularity), region.name)
    report.add("region", len(table), len(rows))
    if not len(rows):
        raise DataError(f"region {region.name!r} ({region.granularity.value}) "
                        "matches zero records")

    n_in = len(rows)
    allowed = np.array([c in config.allowed_categories for c in table.categories],
                       bool)
    rows = rows[allowed[table.category[rows]]]
    report.add("category", n_in, len(rows))

    if config.dedupe_user_venue:
        n_in = len(rows)
        rows = _earliest_per_pair(table, rows)
        report.add("dedupe", n_in, len(rows))

    n_in = len(rows)
    rows = _venues_with_checkins(table, rows, config.min_checkins_per_venue)
    report.add("venue_threshold", n_in, len(rows))

    n_in = len(rows)
    rows = _subcategories_with_venues(table, rows, config.min_venues_per_subcategory)
    report.add("subcategory_threshold", n_in, len(rows))

    if config.max_checkins_per_region is not None:
        n_in = len(rows)
        rows = _cap_by_venue_sampling(table, rows, config.max_checkins_per_region,
                                      config.rng_seed)
        report.add("region_cap", n_in, len(rows))
        # removing whole venues can leave a subcategory below its threshold
        n_in = len(rows)
        rows = _subcategories_with_venues(table, rows,
                                          config.min_venues_per_subcategory)
        report.add("subcategory_threshold_recheck", n_in, len(rows))

    return table.take(rows), report
