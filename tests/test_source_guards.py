"""Names that must not come back to the library: each pattern is searched
for in every .py file under src/venuepref/."""

import re
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "venuepref"

GUARDS = {
    # The library takes a CheckinTable, never per-check-in records: the
    # record type and its table conversions live in tests/ only.
    "record path": r'CheckInRecord|from_records|record_to_row',
    # Every statistic and filter has one entry point. compare_regions serves
    # one anchor or all of them; popularity_table and significance serve
    # every unit of one ScopeIndex, and a unit's result is looked up by its
    # key; filter_regions and build_preference_vectors serve any number of
    # regions. The per-anchor comparison, baseline and distance functions,
    # the per-unit popularity, null model and lookup, the table-taking null
    # model and the one-region filter, vector and selector stay out of the
    # library (tests/one_region.py keeps the one-region forms). A venue's
    # subcategory is read from the table's venue_subcategory, so no per-row
    # subcategory column or per-stage venue-subcategory check comes back; a
    # missing timestamp is NO_TIME in ts, so no missing mask or second
    # datetime-to-microseconds converter comes back. Both statistics return
    # their columns (PopularityTable, Significance) and the writers format
    # those arrays, so no per-unit result or label object, nor a ScopeIndex
    # method that builds one, comes back.
    "per-anchor, per-unit or one-region entry point, a per-row subcategory, "
    "a timestamp mask or a per-unit result object":
        r'\b(compare_with_index|random_baseline|_distances|run_null_model|run_null_model_batch|find_unit|apply_filters|build_preference_vector|RegionSelector|venue_subcategories|ts_missing|_micros|PopularityPoint|NullModelResult|AnalysisUnit)\b|\btable\.subcategory\b|^def popularity\(|def unit\(',
    # The regions chain passes one matrix and one columnar result:
    # build_preference_vectors returns one PreferenceVectors over the dims
    # its rows use, cluster_regions and compare_regions take it, and
    # compare_regions returns one Comparison, a column per statistic. So no
    # per-region vector object, no dims list handed in beside the rows, and
    # no per-anchor comparison and baseline pair comes back.
    "per-region vector, caller-given dims or per-anchor result pair":
        r'\bPreferenceVector\b|\b(collect_global_dims|global_dims|RankComparison|RandomBaseline)\b',
    # Every region is filtered in one grouped pass, without multi-key sorts:
    # filter_regions runs each filter stage once for all regions, and groups
    # are found by code lookups or one np.unique; the per-region split and
    # np.lexsort stay out of the library.
    "per-region split or lexsort": r'\b(partition_by_region|lexsort)\b',
}


def test_the_library_names_no_removed_path():
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(LIBRARY.rglob("*.py"))}
    leaks = {what: [str(path.relative_to(LIBRARY)) for path, text in sources.items()
                    if re.search(pattern, text, re.M)]
             for what, pattern in GUARDS.items()}
    assert {what: paths for what, paths in leaks.items() if paths} == {}
