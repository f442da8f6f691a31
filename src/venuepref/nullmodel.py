"""Randomization null model, acceptance range, and significance verdicts.

Two randomizations are supported, each drawn as per-unit counts, so a
replicate costs O(units), not O(check-ins):

- generative: every check-in of the scope is redrawn with a uniform gender
  and a uniform venue, independently and with replacement. The (gender,
  unit) counts are then multinomial over 2 x units cells with n = the
  scope's check-ins and p = the unit's venues / (2 x venues); a draw with
  no check-ins of one gender is redrawn.
- gender shuffle: the gender column is permuted. Each unit keeps its total,
  and its male count is multivariate hypergeometric, with the units' totals
  as colours and the scope's male total as the number of draws.

Each replicate recomputes the cross-gender difference; the acceptance range
is the central empirical quantile interval of the resulting distribution.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not mid-run

from .models import CheckinTable, DataError
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
            "scope": self.unit.scope,
            "scope_subcategory": self.unit.scope_subcategory,
            "observed_d": self.observed_d,
            "delta_min": self.delta_min,
            "delta_max": self.delta_max,
            "significant": self.significant,
            "direction": self.direction.value,
        }


def _generative_cells(index: ScopeIndex) -> np.ndarray:
    """The probabilities of a generative draw's 2 x n_units (gender, unit)
    cells: the male units, then the female ones."""
    venues = np.bincount(index.venue_unit, minlength=index.n_units)
    return np.tile(venues / (2 * venues.sum()), 2)


def _generative_counts(index: ScopeIndex, cells: np.ndarray,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Male and female counts per unit of one generative replicate, drawn
    over ``_generative_cells(index)``."""
    for _ in range(_MAX_REDRAWS):
        male, female = rng.multinomial(index.c, cells).reshape(2, index.n_units)
        if male.any() and female.any():
            return male, female
    raise DataError(f"replicate produced a single-gender sample "
                    f"{_MAX_REDRAWS} times in a row (scope too small)")


def _shuffle_counts(index: ScopeIndex, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Male and female counts per unit of one gender-shuffle replicate."""
    male = rng.multivariate_hypergeometric(index.unit_total, index.male_total)
    return male, index.unit_total - male  # a shuffle keeps every unit's total


def _null_matrix(index: ScopeIndex, config: NullModelConfig) -> np.ndarray:
    """k x n_units matrix of replicate differences. Replicate i draws from
    its own rng seeded by (rng_seed, i) so results do not depend on
    execution order."""
    counts = (partial(_generative_counts, index, _generative_cells(index))
              if config.method is NullMethod.GENERATIVE
              else partial(_shuffle_counts, index))
    rows = np.empty((config.k, index.n_units))
    for i in range(config.k):
        male, female = counts(np.random.default_rng([config.rng_seed, i]))
        rows[i] = signed_difference(male / male.sum(), female / female.sum())
    return rows


def _weibull_quantiles(null: np.ndarray, qs: list[float]) -> list[np.ndarray]:
    """The ``qs`` quantiles of each column, at Weibull positions (n + 1)q
    with linear interpolation: at q = 0.005 and k = 100 the range spans the
    sample extremes, matching min/max usage. The arithmetic is that of
    ``np.quantile(null, qs, axis=0, method="weibull")``, which calls a bare
    ``np.unique`` and so imports numpy.ma (10-20 ms of a command's run)."""
    n, positions, kth = len(null), [], {0, -1}
    for q in qs:
        index = n * q + q - 1  # past either end, both neighbours are the end value
        lower = -1 if index >= n - 1 else 0 if index < 0 else math.floor(index)
        upper = lower if index >= n - 1 or index < 0 else lower + 1
        positions.append((index, lower, upper))
        kth |= {lower, upper}
    ordered = null.copy()
    ordered.partition(sorted(kth), axis=0)  # as numpy partitions its copy: ties keep their bits
    values = []
    for index, lower, upper in positions:
        a, b, gamma = ordered[lower], ordered[upper], index - lower
        value = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
        np.copyto(value, ordered[-1], where=np.isnan(ordered[-1]))  # NaN sorts last
        values.append(value)
    return values


def run_null_model_batch(table: CheckinTable, mode: AnalysisMode, scope: str,
                         config: NullModelConfig,
                         scope_subcategory: Optional[str] = None
                         ) -> list[NullModelResult]:
    """Null-model verdicts for every unit of one region's ``apply_filters``
    output; the k replicates are drawn once and scored against all units."""
    index = ScopeIndex(table, mode, scope, scope_subcategory)
    observed = index.popularity()[2]
    null = _null_matrix(index, config)
    alpha = 1.0 - config.confidence
    delta_min, delta_max = _weibull_quantiles(null, [alpha / 2, 1.0 - alpha / 2])
    above = observed > delta_max
    significant = above | (observed < delta_min)
    directions = (Direction.MALE, Direction.FEMALE, Direction.NONE)
    direction = np.where(above, 0, np.where(significant, 1, 2))
    columns = null.T.copy()  # one contiguous null distribution per unit
    return [NullModelResult(unit=index.unit(j), observed_d=d,
                            null_distribution=columns[j], delta_min=lo,
                            delta_max=hi, significant=sig,
                            direction=directions[code])
            for j, (d, lo, hi, sig, code) in enumerate(zip(
                observed.tolist(), delta_min.tolist(), delta_max.tolist(),
                significant.tolist(), direction.tolist()))]


def write_null_distribution_csv(results: list[NullModelResult], sink) -> None:
    """One line per unit and replicate: unit key, replicate, d. Each distinct
    d (by its bits) is formatted once."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["unit_key", "replicate", "d"])
    null = [res.null_distribution for res in results]
    bits, index = np.unique(np.concatenate([np.empty(0), *null]).view(np.int64),
                            return_inverse=True)
    texts = [f"{value:.10g}\n" for value in bits.view(float).tolist()]
    ends = np.cumsum([len(values) for values in null], dtype=int).tolist()
    replicates = [f"{i}," for i in range(max(map(len, null), default=0))]
    for res, start, end in zip(results, [0, *ends], ends):
        # the csv writer quotes the key once; the empty field leaves "key,"
        quoted = io.StringIO()
        csv.writer(quoted, lineterminator="\n").writerow([res.unit.key, ""])
        prefix = quoted.getvalue()[:-1]
        cells = index[start:end].tolist()
        if cells:  # itemgetter gives a bare item, not a tuple, for one index
            values = operator.itemgetter(*cells)(texts) if len(cells) > 1 else [texts[cells[0]]]
            sink.write(prefix + prefix.join(map(operator.add, replicates, values)))
