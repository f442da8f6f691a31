"""Cross-gender venue-preference analytics for location-based check-in data."""

from .models import (
    CheckinTable,
    DataError,
    Granularity,
    IndexTable,
    ingest_checkins,
    ingest_index_table,
    load_bundled_index,
)
from .filtering import FilterConfig, filter_regions
from .popularity import (
    AnalysisMode,
    PopularityTable,
    ScopeIndex,
    popularity_table,
)
from .nullmodel import (
    Direction,
    NullMethod,
    NullModelConfig,
    Significance,
    significance,
)
from .preference import (
    PreferenceVector,
    build_preference_vectors,
    collect_global_dims,
    gini,
)
from .clustering import ClusteringResult, cluster_regions
from .comparison import (
    RandomBaseline,
    RankComparison,
    compare_regions,
    spearman,
)
from .synth import SubcategorySpec, SynthSpec, generate

__version__ = "0.1.0"
