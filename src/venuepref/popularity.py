"""Per-gender popularity and the signed cross-gender popularity difference.

The difference for a unit is the signed shortest euclidean distance from its
(male, female) popularity point to the equal-popularity diagonal:
d = (p_male - p_female) / sqrt(2). Negative values mean the unit is more
popular among female users.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .models import CheckinTable, DataError, first_rows, group_codes, rows_with

SQRT2 = math.sqrt(2.0)


class AnalysisMode(str, Enum):
    SUBCATEGORY = "subcategory"
    VENUE = "venue"
    VENUE_WITHIN_SUBCATEGORY = "venue_within_subcategory"


@dataclass(frozen=True)
class AnalysisUnit:
    """The label of one unit's result: its key, mode and scope."""

    mode: AnalysisMode
    key: str
    scope: str  # the region's name
    scope_subcategory: Optional[str] = None


@dataclass(frozen=True)
class PopularityPoint:
    unit: AnalysisUnit
    p_male: float
    p_female: float
    d: float
    n_checkins: int


def signed_difference(p_male, p_female):
    """d for scalars or, elementwise, for arrays of popularities."""
    return (p_male - p_female) / SQRT2


def venue_subcategories(table: CheckinTable, venue: np.ndarray, n_venues: int
                        ) -> np.ndarray:
    """The subcategory code of each of the ``n_venues`` venue codes that
    ``venue`` gives the rows of ``table``: that of the venue's first row. A
    row of another subcategory than its venue's is a DataError (the first
    such row is named)."""
    venue_subcat = table.subcategory[first_rows(venue, n_venues)]
    clash = np.flatnonzero(table.subcategory != venue_subcat[venue])
    if clash.size:
        row = clash[0]
        raise DataError(
            f"venue {table.venues[table.venue[row]]!r} has conflicting "
            f"subcategories {table.subcategories[venue_subcat[venue[row]]]!r}"
            f" and {table.subcategories[table.subcategory[row]]!r}")
    return venue_subcat


class ScopeIndex:
    """Integer-coded view of one scope, the input of every statistic.

    It counts all of ``table``, one region's ``apply_filters`` output;
    ``scope`` is that region's name. venue_within_subcategory mode narrows
    them to ``scope_subcategory``, as that mode's units are defined; that
    mode needs a non-empty one and the other modes take None (else a
    ValueError, before any counting). Venues and subcategories get codes in
    sorted key order, and each venue maps to its subcategory's code. The
    table's gender (1 = male) and unit codes give the per-unit male/female
    counts and the gender totals by ``np.bincount``. Counts are exact
    integers, so p = count / total and d are the same floats a per-record
    count would give.
    """

    def __init__(self, table: CheckinTable, mode: AnalysisMode, scope: str,
                 scope_subcategory: Optional[str] = None):
        if mode is AnalysisMode.VENUE_WITHIN_SUBCATEGORY:
            if not scope_subcategory:
                raise ValueError("venue_within_subcategory mode requires scope_subcategory")
            table = table.take(rows_with(table.subcategory, table.subcategories,
                                         scope_subcategory))
        elif scope_subcategory is not None:
            raise ValueError(f"scope_subcategory only valid in "
                             f"venue_within_subcategory mode, not {mode.value}")
        if not len(table):
            what = f" subcategory {scope_subcategory!r}" if scope_subcategory else ""
            raise DataError(f"scope {scope!r}{what} has no records to analyze")
        self.mode = mode
        self.scope = scope
        self.scope_subcategory = scope_subcategory
        self.c = len(table)

        # table codes are in sorted key order, so sorted codes give sorted keys
        venues, record_venue = group_codes(table.venue, len(table.venues))
        venue_subcat = venue_subcategories(table, record_venue, len(venues))
        self.venue_ids = [table.venues[v] for v in venues.tolist()]
        subcats, self.venue_subcat = group_codes(venue_subcat, len(table.subcategories))
        self.subcategories = [table.subcategories[s] for s in subcats.tolist()]

        if mode is AnalysisMode.SUBCATEGORY:
            self.keys = self.subcategories
            self.venue_unit = self.venue_subcat
        else:
            self.keys = self.venue_ids
            self.venue_unit = np.arange(len(self.venue_ids))
        self.n_units = len(self.keys)
        record_unit = self.venue_unit[record_venue]
        self.unit_total = np.bincount(record_unit, minlength=self.n_units)
        self.male = np.bincount(record_unit[table.gender == 1], minlength=self.n_units)
        self.female = self.unit_total - self.male
        self.male_total = int(self.male.sum())
        self.female_total = self.c - self.male_total

    def unit(self, j: int) -> AnalysisUnit:
        return AnalysisUnit(mode=self.mode, key=self.keys[j], scope=self.scope,
                            scope_subcategory=self.scope_subcategory)

    def popularity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p_male, p_female and d of every unit."""
        if self.male_total == 0 or self.female_total == 0:
            raise DataError(
                f"scope {self.scope!r} lacks check-ins for one gender "
                f"(male={self.male_total}, female={self.female_total}); "
                f"difference undefined")
        p_male = self.male / self.male_total
        p_female = self.female / self.female_total
        return p_male, p_female, signed_difference(p_male, p_female)


def popularity_table(table: CheckinTable, mode: AnalysisMode, scope: str,
                     scope_subcategory: Optional[str] = None
                     ) -> list[PopularityPoint]:
    """One PopularityPoint per unit of one region's ``apply_filters`` output,
    sorted by |d| descending (ties by key ascending); ``scope`` is the
    region's name."""
    index = ScopeIndex(table, mode, scope, scope_subcategory)
    columns = [a.tolist() for a in index.popularity()]
    points = [PopularityPoint(unit=index.unit(j), p_male=pm, p_female=pf, d=d,
                              n_checkins=n)
              for j, (pm, pf, d, n) in enumerate(
                  zip(*columns, index.unit_total.tolist()))]
    points.sort(key=lambda p: (-abs(p.d), p.unit.key))
    return points


def write_popularity_csv(points: list[PopularityPoint], sink) -> None:
    """The popularity table as csv, a column at a time. The normalized pair
    divides both axes by the joint maximum popularity over the table, for
    plotting only; it never feeds any statistic."""
    p_max = max(max(p.p_male, p.p_female) for p in points)
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["unit_key", "mode", "p_male", "p_female",
                     "p_male_norm", "p_female_norm", "d_s", "n_checkins"])
    writer.writerows(zip(
        [p.unit.key for p in points], [p.unit.mode.value for p in points],
        [f"{p.p_male:.10g}" for p in points], [f"{p.p_female:.10g}" for p in points],
        [f"{p.p_male / p_max:.10g}" for p in points],
        [f"{p.p_female / p_max:.10g}" for p in points],
        [f"{p.d:.10g}" for p in points], [p.n_checkins for p in points]))
