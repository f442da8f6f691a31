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
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from types import SimpleNamespace

import numpy as np
import numpy.random  # numpy loads it lazily; load it at import, not mid-run

from .models import DataError
from .popularity import AnalysisUnit, ScopeIndex, signed_difference

_MAX_REDRAWS = 100
_BLOCK_CELLS = 1 << 12  # null csv lines joined per write: bounds the text held at once


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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
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
    drawn = np.empty((2, config.k, index.n_units))  # male, female counts: exact as floats
    for i in range(config.k):
        drawn[0, i], drawn[1, i] = counts(np.random.default_rng([config.rng_seed, i]))
    drawn /= drawn.sum(axis=2, keepdims=True)  # in place: no k x n_units temporaries
    return signed_difference(*drawn)


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


def significance(index: ScopeIndex, config: NullModelConfig
                 ) -> list[NullModelResult]:
    """Null-model verdicts for every unit of ``index``; the k replicates are
    drawn once and scored against all units."""
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


def write_significance_json(results: list[NullModelResult], sink) -> None:
    """significance.json: the ``as_dict`` rows as ``json.dumps(rows, indent=2)``
    and a newline give them, encoded by the C encoder (CPython's only without
    an indent) with an indented field's separator. Strings hold no raw newline
    and the rows are flat, so '},<newline>    {' only ever joins two rows."""
    text = json.dumps([res.as_dict() for res in results], separators=(",\n    ", ": "))
    if results:
        text = "[\n  {\n    " + text[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]"
    sink.write(text + "\n")


def write_null_distribution_csv(results: list[NullModelResult], sink) -> None:
    """One line per unit and replicate: unit key, replicate, d. Each key is
    quoted and each distinct d (by its bits) formatted once, and the lines are
    gathered from those texts in blocks of ``_BLOCK_CELLS``, one write each,
    holding ~20 bytes a cell beside the texts (np.unique alone takes 41)."""
    sink.write("unit_key,replicate,d\n")
    null = [res.null_distribution for res in results]
    sizes = np.array([len(values) for values in null], dtype=np.int32)
    values = np.concatenate([np.empty(0), *null]).view(np.int64)
    order = values.argsort().astype(np.int32)  # 2**31 cells would be 60+ GB of csv
    values.sort()  # a run of equal bits per distinct d
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    texts = np.array([f"{v:.10g}\n" for v in values[first].view(float).tolist()], dtype=object)
    del values
    value = np.empty(len(order), dtype=np.int32)  # each cell's text
    value[order] = np.cumsum(first, dtype=np.int32) - 1
    del order, first
    lines = []  # the csv writer quotes each key; the empty field leaves "key,"
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n"
               ).writerows([res.unit.key, ""] for res in results)
    prefixes = np.array([line[:-1] for line in lines], dtype=object)
    labels = np.array([f"{i}," for i in range(sizes.max(initial=0))], dtype=object)
    unit = np.repeat(np.arange(len(null), dtype=np.int32), sizes)
    replicate = np.arange(len(unit), dtype=np.int32) - np.repeat(
        np.cumsum(sizes, dtype=np.int32) - sizes, sizes)
    for start in range(0, len(unit), _BLOCK_CELLS):
        cells = slice(start, start + _BLOCK_CELLS)
        parts = (prefixes[unit[cells]], labels[replicate[cells]], texts[value[cells]])
        sink.write("".join(np.stack(parts, axis=1).ravel().tolist()))
