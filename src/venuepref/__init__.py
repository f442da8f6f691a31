"""Cross-gender venue-preference analytics for location-based check-in data."""

from .models import (
    CheckInRecord,
    CheckinTable,
    DataError,
    Gender,
    Granularity,
    IndexTable,
    RegionSelector,
    ingest_checkins,
    ingest_index_table,
    load_bundled_index,
)
from .filtering import FilterConfig, apply_filters
from .popularity import (
    AnalysisMode,
    AnalysisUnit,
    PopularityPoint,
    popularity,
    popularity_table,
)
from .nullmodel import (
    Direction,
    NullMethod,
    NullModelConfig,
    NullModelResult,
    run_null_model,
    run_null_model_batch,
)
from .preference import PreferenceVector, build_preference_vector, collect_global_dims, gini
from .clustering import ClusteringResult, cluster_regions
from .comparison import (
    RandomBaseline,
    RankComparison,
    compare_with_index,
    random_baseline,
    spearman,
)
from .synth import SubcategorySpec, SynthSpec, generate

__version__ = "0.1.0"
