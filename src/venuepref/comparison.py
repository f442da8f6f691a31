"""Rank comparison of preference vectors against scalar country indices.

For an anchor region, all other regions are ranked twice: by euclidean
distance of the scalar index values and by cosine distance of the
preference vectors. Agreement between the two rankings is measured with
Spearman's rho (tie-averaged ranks, two-sided t-approximation p-value),
and judged against a random-permutation baseline.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import DataError, IndexTable
from .preference import PreferenceVector


@dataclass
class RankComparison:
    anchor_region: str
    index_name: str
    rho: float
    p_value: float
    n: int


@dataclass
class RandomBaseline:
    n_permutations: int
    rho_samples: np.ndarray
    ci_low: float
    ci_high: float
    seed: int


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n along the last axis, ties given the mean of the ranks they
    span (``scipy.stats.rankdata(method="average")``'s half-integers). Rows
    are ranked end to end, each then shifted back by its flat offset."""
    n = x.shape[-1]
    order = np.argsort(x, axis=-1, kind="mergesort")
    ordered = np.take_along_axis(x, order, axis=-1)
    starts = np.empty(x.shape, dtype=bool)
    starts[..., 0] = True
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    dense = np.cumsum(starts).reshape(x.shape)
    count = np.append(np.flatnonzero(starts), x.size)
    offset = np.arange(0, x.size, n).reshape(x.shape[:-1] + (1,))
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, 0.5 * (count[dense] + count[dense - 1]
                                           + 1 - 2 * offset), axis=-1)
    return ranks


def _rank_rho(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Pearson correlation of rank rows (last axis) by np.corrcoef's steps,
    clamped to [-1, 1] and snapped to +-1 within 1e-12 of it. Centred ranks
    are half-integers, so the dots are exact and rho is corrcoef's float."""
    ca = ra - ra.mean(axis=-1, keepdims=True)
    cb = rb - rb.mean(axis=-1, keepdims=True)
    scale = 1.0 / (ra.shape[-1] - 1)
    ab, aa, bb = ((u * v).sum(axis=-1) * scale
                  for u, v in ((ca, cb), (ca, ca), (cb, cb)))
    rho = np.clip(ab / np.sqrt(aa) / np.sqrt(bb), -1.0, 1.0)
    return np.where(np.abs(rho) >= 1.0 - 1e-12, np.sign(rho), rho)


def _spearman_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spearman's rho of each row of ``a`` against ``b``, once every row of
    ``a`` and then ``b`` is found to hold 3 or more finite values, not all
    equal; ``b`` is ranked once for all rows."""
    for x in (a, b):
        if x.shape[-1] < 3:
            raise DataError(f"spearman needs n >= 3, got {x.shape[-1]}")
        if not np.isfinite(x).all():
            raise DataError("spearman undefined for a non-finite input value")
        if (x == x[..., :1]).all(axis=-1).any():
            raise DataError("spearman undefined for a constant input list")
    return _rank_rho(average_ranks(a), average_ranks(b))


def _p_value(rho: float, n: int) -> float:
    """Two-sided p-value of rho over n pairs by the t-approximation with n-2
    degrees of freedom; 0 at |rho| = 1."""
    if abs(rho) == 1.0:
        return 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return min(t_two_sided_p(abs(t), n - 2), 1.0)


def spearman(a, b) -> tuple[float, float]:
    """Spearman rank correlation with average-rank ties and a two-sided
    p-value from the t-approximation with n-2 degrees of freedom."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d and of equal length")
    rho = float(_spearman_rows(a[None], b)[0])
    return rho, _p_value(rho, a.size)


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with an integer ``df`` >= 1.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df+t^2); 1 - x is taken as t^2/(df+t^2), since 1.0 - x loses
    the digits of a p-value near 1. A p-value below the smallest normal
    float is returned as 0.0."""
    t2 = float(t) * float(t)
    if t2 == 0.0:
        return 1.0
    a = df / 2
    x = df / (df + t2)
    y = t2 / (df + t2)
    # x^a (1-x)^(1/2) / B(a, 1/2), the common factor of both expansions
    front = (math.exp(-a * math.log1p(t2 / df)) * math.sqrt(y)
             * _half_gamma_ratio(df) / math.sqrt(math.pi))
    if x < (a + 1.0) / (a + 2.5):
        p = front * _beta_fraction(a, 0.5, x) / a
    else:
        p = 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)
    return p if p >= sys.float_info.min else 0.0


def _half_gamma_ratio(df: int) -> float:
    """Gamma(a + 1/2) / Gamma(a) for a = df/2, by the recurrence
    r(a + 1) = r(a) (a + 1/2) / a: a math.lgamma difference instead puts
    errors of up to ~3e-12 relative into the p-value at df ~ 500."""
    if df % 2:
        a, r = 0.5, 1.0 / math.sqrt(math.pi)
    else:
        a, r = 1.0, math.sqrt(math.pi) / 2
    while a < df / 2:
        r *= (a + 0.5) / a
        a += 1.0
    return r


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (modified Lentz); it converges fast
    for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) >= tiny else tiny

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge "
                          f"(a={a}, b={b}, x={x})")


def _check_regions(vectors: dict[str, PreferenceVector], index: IndexTable,
                   anchors: list[str]) -> list[str]:
    """The sorted regions, once every anchor has a vector, the first anchor
    and then every region has an index value, and there are at least 4. (An
    anchor past the first that has no value is among the missing regions.)"""
    for anchor in anchors:
        if anchor not in vectors:
            raise DataError(f"anchor {anchor!r} has no preference vector")
    if anchors and anchors[0] not in index.entries:
        raise DataError(f"anchor {anchors[0]!r} missing from index "
                        f"{index.index_name!r}")
    missing = sorted(set(vectors) - set(index.entries))
    if missing:
        raise DataError(f"regions missing from index {index.index_name!r}: "
                        f"{missing}")
    if len(vectors) < 4:
        raise DataError(f"need at least 4 regions, got {len(vectors)}")
    return sorted(vectors)


def compare_regions(vectors: dict[str, PreferenceVector], index: IndexTable,
                    anchors: list[str], n_permutations: int = 100,
                    seed: int = 0) -> list[tuple[RankComparison, RandomBaseline]]:
    """For each anchor, in order: the Spearman agreement between the
    index-distance and vector-distance rankings of the other regions, and
    its permutation baseline, which shuffles the index's values across the
    regions and recomputes rho against the fixed vector distances (99% CI:
    mean +- 2.576 standard errors of the rho samples).

    The checks, the vector norms and the P permutations (one
    ``default_rng(seed)`` over the sorted regions) are shared, so every
    anchor scores the same draw, and a one-anchor call gives that anchor's
    pair of an all-anchor call. The index values are row 0 above the
    permutations, so each anchor ranks its (P+1, R-1) index distances in one
    call, and their row 0 gives the observed rho."""
    if n_permutations < 2:
        raise DataError("random baseline needs n_permutations >= 2")
    regions = _check_regions(vectors, index, anchors)
    at = {r: i for i, r in enumerate(regions)}
    values = np.array([index.entries[r] for r in regions])
    m = np.stack([vectors[r].values for r in regions])
    # stacked 1xD @ Dx1 products give the floats of a per-pair np.dot and
    # np.linalg.norm; m @ m[i] and np.linalg.norm(m, axis=1) sum otherwise
    rows = m[:, None, :]
    norms = np.sqrt(rows @ m[:, :, None])[:, 0, 0]
    if not norms.all():
        raise DataError("cosine distance undefined for a zero vector")
    rng = np.random.default_rng(seed)
    stacked = np.stack([values, *(rng.permutation(values)
                                  for _ in range(n_permutations))])

    results = []
    for anchor in anchors:
        i = at[anchor]
        d1 = np.abs(stacked[:, [i]] - np.delete(stacked, i, axis=1))
        d2 = 1.0 - (np.delete(rows @ m[i, :, None], i)
                    / (norms[i] * np.delete(norms, i)))
        rhos = _spearman_rows(d1, d2)  # row 0: the observed rho
        rho, samples = float(rhos[0]), rhos[1:]
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(n_permutations)
        results.append((
            RankComparison(anchor_region=anchor, index_name=index.index_name,
                           rho=rho, p_value=_p_value(rho, len(d2)), n=len(d2)),
            RandomBaseline(n_permutations=n_permutations, rho_samples=samples,
                           ci_low=float(mean - 2.576 * stderr),
                           ci_high=float(mean + 2.576 * stderr), seed=seed)))
    return results


def write_comparison_csv(rows: list[tuple[RankComparison, RandomBaseline]],
                         sink) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["country", "index", "rho", "p_value",
                     "baseline_ci_low", "baseline_ci_high", "n"])
    for comp, base in rows:
        writer.writerow([comp.anchor_region, comp.index_name,
                         f"{comp.rho:.6g}", f"{comp.p_value:.6g}",
                         f"{base.ci_low:.6g}", f"{base.ci_high:.6g}", comp.n])
