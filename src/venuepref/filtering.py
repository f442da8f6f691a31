"""Dataset filtering: region selection, category whitelist, per-user dedup,
venue and subcategory thresholds, and the optional per-region check-in cap."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not mid-run

from .models import CheckInRecord, DataError, Granularity, RegionSelector, region_name

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


def _dedupe(records: list[CheckInRecord]) -> list[CheckInRecord]:
    # Keep the earliest check-in per (user, venue); ties and missing
    # timestamps fall back to input order.
    best: dict[tuple[str, str], tuple] = {}
    for idx, rec in enumerate(records):
        key = (rec.user_id, rec.venue_id)
        ts = rec.timestamp
        cur = best.get(key)
        if cur is None:
            best[key] = (ts, idx, rec)
            continue
        cur_ts = cur[0]
        if ts is not None and (cur_ts is None or ts < cur_ts):
            best[key] = (ts, idx, rec)
    keep = sorted(best.values(), key=lambda t: t[1])
    return [rec for _, _, rec in keep]


def _venue_threshold(records: list[CheckInRecord], minimum: int) -> list[CheckInRecord]:
    counts = Counter(rec.venue_id for rec in records)
    return [rec for rec in records if counts[rec.venue_id] >= minimum]


def _subcategory_threshold(records: list[CheckInRecord], minimum: int) -> list[CheckInRecord]:
    venues_per_subcat: dict[str, set[str]] = defaultdict(set)
    for rec in records:
        venues_per_subcat[rec.subcategory].add(rec.venue_id)
    return [rec for rec in records
            if len(venues_per_subcat[rec.subcategory]) >= minimum]


def _cap_by_venue_sampling(records: list[CheckInRecord], cap: int,
                           seed: int) -> list[CheckInRecord]:
    # Down-sample by randomly keeping whole venues until the cap is met:
    # venues are visited in a seeded random order and kept when they still
    # fit in the remaining budget.
    if len(records) <= cap:
        return records
    per_venue = Counter(rec.venue_id for rec in records)
    venue_ids = sorted(per_venue)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(venue_ids))
    kept: set[str] = set()
    budget = cap
    for i in order:
        vid = venue_ids[i]
        n = per_venue[vid]
        if n <= budget:
            kept.add(vid)
            budget -= n
    return [rec for rec in records if rec.venue_id in kept]


def partition_by_region(records: list[CheckInRecord], granularity: Granularity
                        ) -> dict[Optional[str], list[CheckInRecord]]:
    """Records grouped by region name in one pass; each group keeps input
    order, so filtering a group equals filtering all records for that region."""
    groups: dict[Optional[str], list[CheckInRecord]] = defaultdict(list)
    for rec in records:
        groups[region_name(rec, granularity)].append(rec)
    return groups


def apply_filters(records: list[CheckInRecord], region: RegionSelector,
                  config: FilterConfig) -> tuple[list[CheckInRecord], FilterReport]:
    """Run the full filter protocol for one region.

    Stage order: region -> category -> dedupe -> venue threshold ->
    subcategory threshold -> cap. The subcategory threshold is re-checked
    after the cap so the output always satisfies every threshold.
    """
    report = FilterReport()

    n_in = len(records)
    out = [rec for rec in records if region.matches(rec)]
    report.add("region", n_in, len(out))
    if not out:
        raise DataError(f"region {region.name!r} ({region.granularity.value}) "
                        "matches zero records")

    n_in = len(out)
    out = [rec for rec in out if rec.category in config.allowed_categories]
    report.add("category", n_in, len(out))

    if config.dedupe_user_venue:
        n_in = len(out)
        out = _dedupe(out)
        report.add("dedupe", n_in, len(out))

    n_in = len(out)
    out = _venue_threshold(out, config.min_checkins_per_venue)
    report.add("venue_threshold", n_in, len(out))

    n_in = len(out)
    out = _subcategory_threshold(out, config.min_venues_per_subcategory)
    report.add("subcategory_threshold", n_in, len(out))

    if config.max_checkins_per_region is not None:
        n_in = len(out)
        out = _cap_by_venue_sampling(out, config.max_checkins_per_region,
                                     config.rng_seed)
        report.add("region_cap", n_in, len(out))
        # removing whole venues can leave a subcategory below its threshold
        n_in = len(out)
        out = _subcategory_threshold(out, config.min_venues_per_subcategory)
        report.add("subcategory_threshold_recheck", n_in, len(out))

    return out, report
