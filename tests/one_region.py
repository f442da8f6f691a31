"""One-region forms of the library's grouped and index-based calls.

The library filters and scores regions in grouped passes
(``filter_regions``, ``build_preference_vectors``) and computes both
statistics from one ``ScopeIndex``. Many tests state a property of one
region and its table; these adapters give them the one-region signatures,
each a thin call of the library, so a test reads as the property it checks.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from venuepref import filtering, nullmodel, popularity, preference
from venuepref.models import CheckinTable, Granularity


@dataclass(frozen=True)
class RegionSelector:
    granularity: Granularity
    name: str


def apply_filters(table: CheckinTable, region: RegionSelector,
                  config: filtering.FilterConfig):
    """The kept rows and the report of ``filter_regions`` for one region."""
    kept, _, (report,) = filtering.filter_regions(table, region.granularity,
                                                  [region.name], config)
    return kept, report


def build_preference_vector(table: CheckinTable, region: str,
                            global_dims: list[str]) -> preference.PreferenceVector:
    """``build_preference_vectors`` of one region's kept rows alone (an empty
    table gives the zero vector)."""
    return preference.build_preference_vectors(
        table, np.zeros(len(table), np.intp), [region], global_dims)[0]


def popularity_table(table: CheckinTable, mode: popularity.AnalysisMode,
                     scope: str, scope_subcategory: Optional[str] = None):
    """``popularity_table`` of the ``ScopeIndex`` of one region's kept rows."""
    return popularity.popularity_table(
        popularity.ScopeIndex(table, mode, scope, scope_subcategory))


def run_null_model_batch(table: CheckinTable, mode: popularity.AnalysisMode,
                         scope: str, config: nullmodel.NullModelConfig,
                         scope_subcategory: Optional[str] = None):
    """``significance`` of the ``ScopeIndex`` of one region's kept rows."""
    return nullmodel.significance(
        popularity.ScopeIndex(table, mode, scope, scope_subcategory), config)
