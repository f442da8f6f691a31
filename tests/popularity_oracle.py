"""Per-record reference implementations of the popularity statistics.

This is the straightforward counting loop the integer-coded kernel in
``venuepref.popularity`` replaced: every unit rescans its whole scope. It is
slow (units x records) and kept only so tests can require the fast paths
to give the very same floats. It selects each scope's records itself, by
the ``RegionSelector`` it is given, so it takes records of any number of
regions; the units it builds carry the region's name, as the library's do.

The null-model samplers here draw one value per check-in, as the library
did before it drew per-unit counts; tests compare the two in distribution.
"""

from collections import Counter

import numpy as np

from filter_oracle import region_name
from checkin_records import Gender
from venuepref.models import DataError
from venuepref.popularity import (
    AnalysisMode,
    AnalysisUnit,
    PopularityPoint,
    signed_difference,
)
from venuepref.preference import gini


def scope_records(records, scope, scope_subcategory=None):
    """The denominator population for a unit: the region, optionally
    narrowed to one subcategory."""
    out = [rec for rec in records
           if region_name(rec, scope.granularity) == scope.name]
    if scope_subcategory is not None:
        out = [rec for rec in out if rec.subcategory == scope_subcategory]
    return out


def _in_unit(rec, unit):
    if unit.mode is AnalysisMode.SUBCATEGORY:
        return rec.subcategory == unit.key
    return rec.venue_id == unit.key


def popularity(records, region, unit):
    scoped = scope_records(records, region, unit.scope_subcategory)
    male_total = sum(1 for r in scoped if r.gender is Gender.MALE)
    female_total = len(scoped) - male_total
    male_in = 0
    female_in = 0
    for rec in scoped:
        if _in_unit(rec, unit):
            if rec.gender is Gender.MALE:
                male_in += 1
            else:
                female_in += 1
    if male_in + female_in == 0:
        raise DataError(f"unit {unit.key!r} has no check-ins")
    if male_total == 0 or female_total == 0:
        raise DataError("scope lacks check-ins for one gender")
    p_male = male_in / male_total
    p_female = female_in / female_total
    return PopularityPoint(unit=unit, p_male=p_male, p_female=p_female,
                           d=signed_difference(p_male, p_female),
                           n_checkins=male_in + female_in)


def unit_keys(records, mode, scope, scope_subcategory=None):
    scoped = scope_records(records, scope, scope_subcategory)
    if mode is AnalysisMode.SUBCATEGORY:
        return sorted({rec.subcategory for rec in scoped})
    return sorted({rec.venue_id for rec in scoped})


def points(records, mode, scope, scope_subcategory=None):
    """One point per unit of the scope, in key order."""
    return [popularity(records, scope,
                       AnalysisUnit(mode=mode, key=key, scope=scope.name,
                                    scope_subcategory=scope_subcategory))
            for key in unit_keys(records, mode, scope, scope_subcategory)]


def preference_values(records, region, global_dims):
    """Gini of venue-level |d| per subcategory, one popularity() per venue."""
    values = []
    for subcat in global_dims:
        scoped = scope_records(records, region, subcat)
        genders = {r.gender for r in scoped}
        if len(genders) < 2:
            values.append(0.0)
            continue
        diffs = [abs(p.d) for p in points(records, AnalysisMode.VENUE_WITHIN_SUBCATEGORY,
                                          region, subcat)]
        values.append(gini(diffs) if any(diffs) else 0.0)
    return values


def table(records, mode, scope, scope_subcategory=None):
    """popularity_table points as (key, p_male, p_female, p_male_norm,
    p_female_norm, d, n_checkins), sorted by |d| descending, then key. The
    normalized pair divides by the joint maximum popularity and is given as
    popularity.csv writes it."""
    pts = points(records, mode, scope, scope_subcategory)
    if not pts:
        raise DataError("no analysis units in scope")
    pts.sort(key=lambda p: (-abs(p.d), p.unit.key))
    p_max = max(max(p.p_male, p.p_female) for p in pts)
    return [(p.unit.key, p.p_male, p.p_female, f"{p.p_male / p_max:.10g}",
             f"{p.p_female / p_max:.10g}", p.d, p.n_checkins) for p in pts]


def _unit_of(scoped, mode):
    return [r.subcategory if mode is AnalysisMode.SUBCATEGORY else r.venue_id
            for r in scoped]


def _replicate_d(keys, genders, units):
    """d of every unit, in key order, from one replicate's per-record gender
    (1 = male) and unit."""
    counts = {1: Counter(), 0: Counter()}
    for male, unit in zip(genders, units):
        counts[male][unit] += 1
    male_total = sum(counts[1].values())
    female_total = sum(counts[0].values())
    return [signed_difference(counts[1][key] / male_total,
                              counts[0][key] / female_total) for key in keys]


def shuffle_replicates(records, mode, scope, scope_subcategory, k, seed):
    """Gender-shuffle null model replayed record by record: replicate i
    permutes the scope's gender column with the rng seeded by (seed, i).
    Returns one list of d per unit, in key order."""
    scoped = scope_records(records, scope, scope_subcategory)
    keys = unit_keys(records, mode, scope, scope_subcategory)
    genders = np.array([r.gender is Gender.MALE for r in scoped], dtype=np.int8)
    units = _unit_of(scoped, mode)
    rows = [_replicate_d(keys, np.random.default_rng([seed, i]).permutation(genders)
                         .tolist(), units) for i in range(k)]
    return [list(col) for col in zip(*rows)]


def generative_replicates(records, mode, scope, scope_subcategory, k, seed):
    """Generative null model replayed record by record: replicate i redraws
    every check-in of the scope with a uniform gender, venue and user, with
    the rng seeded by (seed, i), and draws again while one gender has no
    check-ins. Returns one list of d per unit, in key order."""
    scoped = scope_records(records, scope, scope_subcategory)
    keys = unit_keys(records, mode, scope, scope_subcategory)
    venue_ids = sorted({r.venue_id for r in scoped})
    unit_of_venue = dict(zip([r.venue_id for r in scoped], _unit_of(scoped, mode)))
    n_users = len({r.user_id for r in scoped})
    c = len(scoped)
    rows = []
    for i in range(k):
        rng = np.random.default_rng([seed, i])
        for _ in range(100):
            genders = rng.integers(0, 2, size=c).tolist()
            venues = rng.integers(0, len(venue_ids), size=c).tolist()
            rng.integers(0, n_users, size=c)  # the user draw; d never reads it
            if 0 < sum(genders) < c:
                break
        else:
            raise DataError("replicate drew a single-gender sample 100 times")
        rows.append(_replicate_d(keys, genders,
                                 [unit_of_venue[venue_ids[v]] for v in venues]))
    return [list(col) for col in zip(*rows)]
