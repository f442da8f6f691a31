"""Randomization null model, acceptance range, and significance verdicts.

Two randomizations are supported: a generative model that redraws every
check-in in the scope (gender, venue, user all sampled independently with
replacement), and a gender shuffle that permutes only the gender column.
Each replicate recomputes the cross-gender difference; the acceptance range
is the central empirical quantile interval of the resulting distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not mid-run

from .models import CheckInRecord, DataError, RegionSelector
from .popularity import AnalysisMode, AnalysisUnit, ScopeIndex, signed_difference

_MAX_REDRAWS = 100


class NullMethod(str, Enum):
    GENERATIVE = "generative"
    GENDER_SHUFFLE = "gender_shuffle"


@dataclass
class NullModelConfig:
    k: int = 100
    confidence: float = 0.99
    method: NullMethod = NullMethod.GENERATIVE
    rng_seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must be in (0, 1)")
        self.method = NullMethod(self.method)


class Direction(str, Enum):
    MALE = "male"
    FEMALE = "female"
    NONE = "none"


@dataclass
class NullModelResult:
    unit: AnalysisUnit
    observed_d: float
    null_distribution: np.ndarray
    delta_min: float
    delta_max: float
    significant: bool
    direction: Direction

    def as_dict(self) -> dict:
        return {
            "unit_key": self.unit.key,
            "mode": self.unit.mode.value,
            "scope": self.unit.scope.name,
            "scope_subcategory": self.unit.scope_subcategory,
            "observed_d": self.observed_d,
            "delta_min": self.delta_min,
            "delta_max": self.delta_max,
            "significant": self.significant,
            "direction": self.direction.value,
        }


def _replicate_generative(index: ScopeIndex, rng: np.random.Generator) -> np.ndarray:
    c = index.c
    for _ in range(_MAX_REDRAWS):
        genders = rng.integers(0, 2, size=c)
        venues = rng.integers(0, len(index.venue_ids), size=c)
        rng.integers(0, index.n_users, size=c)  # user draw per protocol; d ignores it
        male_total = int(genders.sum())
        female_total = c - male_total
        if male_total == 0 or female_total == 0:
            continue
        units = index.venue_unit[venues]
        male = np.bincount(units[genders == 1], minlength=index.n_units)
        female = np.bincount(units[genders == 0], minlength=index.n_units)
        return signed_difference(male / male_total, female / female_total)
    raise DataError(f"replicate produced a single-gender sample "
                    f"{_MAX_REDRAWS} times in a row (scope too small)")


def _replicate_shuffle(index: ScopeIndex, rng: np.random.Generator) -> np.ndarray:
    # a shuffle keeps every unit's total, so female = total - male exactly
    genders = rng.permutation(index.genders)
    male = np.bincount(index.record_unit[genders == 1], minlength=index.n_units)
    return signed_difference(male / index.male_total,
                             (index.unit_total - male) / index.female_total)


def _null_matrix(index: ScopeIndex, config: NullModelConfig) -> np.ndarray:
    """k x n_units matrix of replicate differences. Replicate i draws from
    its own rng seeded by (rng_seed, i) so results do not depend on
    execution order."""
    rows = np.empty((config.k, index.n_units))
    for i in range(config.k):
        rng = np.random.default_rng([config.rng_seed, i])
        if config.method is NullMethod.GENERATIVE:
            rows[i] = _replicate_generative(index, rng)
        else:
            rows[i] = _replicate_shuffle(index, rng)
    return rows


def _verdict(unit: AnalysisUnit, observed: float, null: np.ndarray,
             confidence: float) -> NullModelResult:
    alpha = 1.0 - confidence
    # Weibull positions (n+1)q with linear interpolation: at q = 0.005 and
    # k = 100 the range spans the sample extremes, matching min/max usage.
    delta_min, delta_max = np.quantile(null, [alpha / 2, 1.0 - alpha / 2],
                                       method="weibull")
    significant = observed < delta_min or observed > delta_max
    if not significant:
        direction = Direction.NONE
    elif observed > delta_max:
        direction = Direction.MALE
    else:
        direction = Direction.FEMALE
    return NullModelResult(
        unit=unit,
        observed_d=float(observed),
        null_distribution=null.copy(),
        delta_min=float(delta_min),
        delta_max=float(delta_max),
        significant=bool(significant),
        direction=direction,
    )


def run_null_model_batch(records: list[CheckInRecord], mode: AnalysisMode,
                         scope: RegionSelector, config: NullModelConfig,
                         scope_subcategory: Optional[str] = None
                         ) -> list[NullModelResult]:
    """Null-model verdicts for every unit of one region's ``apply_filters``
    output; the k replicates are drawn once and scored against all units."""
    index = ScopeIndex(records, mode, scope, scope_subcategory)
    observed = index.popularity()[2]
    null = _null_matrix(index, config)
    return [_verdict(index.unit(j), observed[j], null[:, j], config.confidence)
            for j in range(index.n_units)]


def run_null_model(records: list[CheckInRecord], unit: AnalysisUnit,
                   config: NullModelConfig) -> NullModelResult:
    """Null-model verdict for one unit of a region's ``apply_filters`` output:
    its row of the batch."""
    results = run_null_model_batch(records, unit.mode, unit.scope, config,
                                   unit.scope_subcategory)
    for result in results:
        if result.unit.key == unit.key:
            return result
    raise DataError(f"unit {unit.key!r} not present in scope "
                    f"{unit.scope.name!r}")


def write_null_distribution_csv(results: list[NullModelResult], sink) -> None:
    import csv

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["unit_key", "replicate", "d"])
    for res in results:
        for i, value in enumerate(res.null_distribution):
            writer.writerow([res.unit.key, i, f"{value:.10g}"])
