"""Per-record reference implementation of the filter protocol.

These are the record loops ``venuepref.filtering.filter_regions`` replaced
with masks and group counts over a ``CheckinTable``. They are kept only so
tests can require the columnar filters to give the same stage counts and
keep the same rows.
"""

from collections import Counter, defaultdict

import numpy as np

from venuepref.models import DataError, Granularity


def region_name(rec, granularity):
    return rec.country if granularity is Granularity.COUNTRY else rec.city


def _dedupe(records):
    # Keep the earliest check-in per (user, venue); ties and missing
    # timestamps fall back to input order.
    best = {}
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


def _venue_threshold(records, minimum):
    counts = Counter(rec.venue_id for rec in records)
    return [rec for rec in records if counts[rec.venue_id] >= minimum]


def _subcategory_threshold(records, minimum):
    venues_per_subcat = defaultdict(set)
    for rec in records:
        venues_per_subcat[rec.subcategory].add(rec.venue_id)
    return [rec for rec in records
            if len(venues_per_subcat[rec.subcategory]) >= minimum]


def _cap_by_venue_sampling(records, cap, seed):
    if len(records) <= cap:
        return records
    per_venue = Counter(rec.venue_id for rec in records)
    venue_ids = sorted(per_venue)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(venue_ids))
    kept = set()
    budget = cap
    for i in order:
        vid = venue_ids[i]
        n = per_venue[vid]
        if n <= budget:
            kept.add(vid)
            budget -= n
    return [rec for rec in records if rec.venue_id in kept]


def apply_filters(records, region, config):
    """(kept records, stages) of the filter protocol for one region."""
    stages = []

    def add(stage, n_in, out):
        stages.append({"stage": stage, "in": n_in, "out": len(out)})
        return out

    out = add("region", len(records), [
        rec for rec in records
        if region_name(rec, region.granularity) == region.name])
    if not out:
        raise DataError(f"region {region.name!r} ({region.granularity.value}) "
                        "matches zero records")
    out = add("category", len(out),
              [rec for rec in out if rec.category in config.allowed_categories])
    if config.dedupe_user_venue:
        out = add("dedupe", len(out), _dedupe(out))
    out = add("venue_threshold", len(out),
              _venue_threshold(out, config.min_checkins_per_venue))
    out = add("subcategory_threshold", len(out),
              _subcategory_threshold(out, config.min_venues_per_subcategory))
    if config.max_checkins_per_region is not None:
        out = add("region_cap", len(out), _cap_by_venue_sampling(
            out, config.max_checkins_per_region, config.rng_seed))
        out = add("subcategory_threshold_recheck", len(out),
                  _subcategory_threshold(out, config.min_venues_per_subcategory))
    return out, stages
