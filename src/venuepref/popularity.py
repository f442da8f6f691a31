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
from itertools import repeat
from typing import Optional

import numpy as np

from .models import CheckinTable, DataError, group_codes, rows_with

SQRT2 = math.sqrt(2.0)


class AnalysisMode(str, Enum):
    SUBCATEGORY = "subcategory"
    VENUE = "venue"
    VENUE_WITHIN_SUBCATEGORY = "venue_within_subcategory"


@dataclass(frozen=True)
class PopularityTable:
    """Every unit's popularity, one column a field, in table order: |d|
    descending, ties by key ascending. Row i is ``keys[i]``'s."""

    mode: AnalysisMode
    keys: list[str]
    p_male: np.ndarray
    p_female: np.ndarray
    d: np.ndarray
    n_checkins: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


def signed_difference(p_male, p_female):
    """d for scalars or, elementwise, for arrays of popularities."""
    return (p_male - p_female) / SQRT2


class ScopeIndex:
    """Integer-coded view of one scope, the input of every statistic:
    ``popularity_table`` and ``nullmodel.significance`` read it and leave it
    as it is, so one index serves both.

    It counts all of ``table``, one region's kept rows as ``filter_regions``
    gives them; ``scope`` is that region's name. venue_within_subcategory
    mode narrows them to ``scope_subcategory``, as that mode's units are
    defined; that mode needs a non-empty one and the other modes take None
    (else a ValueError, before any counting). Venues and subcategories get
    codes in sorted key order, and each venue maps to its subcategory's
    code. The table's gender (1 = male) and unit codes give the per-unit
    male/female counts and the gender totals by ``np.bincount``. Counts are
    exact integers, so p = count / total and d are the same floats a
    per-record count would give.
    """

    def __init__(self, table: CheckinTable, mode: AnalysisMode, scope: str,
                 scope_subcategory: Optional[str] = None):
        if mode is AnalysisMode.VENUE_WITHIN_SUBCATEGORY:
            if not scope_subcategory:
                raise ValueError("venue_within_subcategory mode requires scope_subcategory")
            table = table.take(rows_with(table.venue_subcategory[table.venue],
                                         table.subcategories, scope_subcategory))
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
        self.venue_ids = [table.venues[v] for v in venues.tolist()]
        subcats, self.venue_subcat = group_codes(table.venue_subcategory[venues],
                                                 len(table.subcategories))
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


def popularity_table(index: ScopeIndex) -> PopularityTable:
    """The popularity of every unit of ``index``, in table order. The index's
    keys are sorted and -0.0 == 0.0, so a stable sort by -|d| breaks ties by
    key."""
    p_male, p_female, d = index.popularity()
    order = np.argsort(-np.abs(d), kind="stable")
    return PopularityTable(index.mode, [index.keys[j] for j in order.tolist()],
                           p_male[order], p_female[order], d[order],
                           index.unit_total[order])


def write_popularity_csv(table: PopularityTable, sink) -> None:
    """The popularity table as csv, a column at a time. The normalized pair
    divides both axes by the joint maximum popularity over the table, for
    plotting only; it never feeds any statistic."""
    def text(column):
        return [f"{v:.10g}" for v in column.tolist()]

    p_max = max(table.p_male.max(), table.p_female.max())
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["unit_key", "mode", "p_male", "p_female",
                     "p_male_norm", "p_female_norm", "d_s", "n_checkins"])
    writer.writerows(zip(
        table.keys, repeat(table.mode.value), text(table.p_male), text(table.p_female),
        text(table.p_male / p_max), text(table.p_female / p_max), text(table.d),
        table.n_checkins.tolist()))
