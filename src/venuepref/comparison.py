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


def _check_spearman_input(x: np.ndarray) -> None:
    """Refuse an input, or a matrix with any row, that rho is undefined for."""
    if x.shape[-1] < 3:
        raise DataError(f"spearman needs n >= 3, got {x.shape[-1]}")
    if not np.isfinite(x).all():
        raise DataError("spearman undefined for a non-finite input value")
    if (x == x[..., :1]).all(axis=-1).any():
        raise DataError("spearman undefined for a constant input list")


def spearman(a, b) -> tuple[float, float]:
    """Spearman rank correlation with average-rank ties and a two-sided
    p-value from the t-approximation with n-2 degrees of freedom."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d and of equal length")
    _check_spearman_input(a)
    _check_spearman_input(b)
    rho = float(_rank_rho(average_ranks(a), average_ranks(b)))
    if abs(rho) == 1.0:
        return rho, 0.0
    n = a.size
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, min(t_two_sided_p(abs(t), n - 2), 1.0)


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
                   anchor: str) -> list[str]:
    if anchor not in vectors:
        raise DataError(f"anchor {anchor!r} has no preference vector")
    if anchor not in index.entries:
        raise DataError(f"anchor {anchor!r} missing from index "
                        f"{index.index_name!r}")
    missing = sorted(set(vectors) - set(index.entries))
    if missing:
        raise DataError(f"regions missing from index {index.index_name!r}: "
                        f"{missing}")
    if len(vectors) < 4:
        raise DataError(f"need at least 4 regions, got {len(vectors)}")
    return sorted(r for r in vectors if r != anchor)


def _distances(vectors: dict[str, PreferenceVector], values: dict[str, float],
               anchor: str, others: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The |index difference| and the cosine distance of each of ``others``
    (in that order) to the anchor."""
    d1 = np.abs(values[anchor] - np.array([values[r] for r in others]))
    m = np.stack([vectors[r].values for r in [anchor, *others]])
    # stacked 1xD @ Dx1 products give the floats of a per-pair np.dot and
    # np.linalg.norm; m @ m[0] and np.linalg.norm(m, axis=1) sum otherwise
    rows = m[:, None, :]
    norms = np.sqrt(rows @ m[:, :, None])[:, 0, 0]
    if not norms.all():
        raise DataError("cosine distance undefined for a zero vector")
    dots = (rows[1:] @ m[0, :, None])[:, 0, 0]
    return d1, 1.0 - dots / (norms[0] * norms[1:])


def compare_with_index(vectors: dict[str, PreferenceVector], index: IndexTable,
                       anchor: str) -> RankComparison:
    """Spearman agreement between index-distance and vector-distance
    rankings around one anchor region (anchor excluded from the ranks)."""
    others = _check_regions(vectors, index, anchor)
    rho, p = spearman(*_distances(vectors, index.entries, anchor, others))
    return RankComparison(anchor_region=anchor, index_name=index.index_name,
                          rho=rho, p_value=p, n=len(others))


def random_baseline(vectors: dict[str, PreferenceVector], index: IndexTable,
                    anchor: str, n_permutations: int = 100,
                    seed: int = 0) -> RandomBaseline:
    """Permutation baseline: shuffle the index's value assignment across
    regions and recompute rho against the fixed vector-distance ranking.
    All permutations are ranked and scored together, one row each.
    The 99% CI is mean +- 2.576 standard errors of the rho samples."""
    if n_permutations < 2:
        raise DataError("random baseline needs n_permutations >= 2")
    others = _check_regions(vectors, index, anchor)
    _, d2 = _distances(vectors, index.entries, anchor, others)
    _check_spearman_input(d2)
    regions = sorted(vectors)  # others, with the anchor at position `at`
    at = regions.index(anchor)
    base_values = np.array([index.entries[r] for r in regions])
    rng = np.random.default_rng(seed)
    shuffled = np.stack([rng.permutation(base_values)
                         for _ in range(n_permutations)])
    d1 = np.abs(shuffled[:, [at]] - np.delete(shuffled, at, axis=1))
    _check_spearman_input(d1)
    samples = _rank_rho(average_ranks(d1), average_ranks(d2))
    mean = samples.mean()
    stderr = samples.std(ddof=1) / np.sqrt(n_permutations)
    return RandomBaseline(n_permutations=n_permutations, rho_samples=samples,
                          ci_low=float(mean - 2.576 * stderr),
                          ci_high=float(mean + 2.576 * stderr), seed=seed)


def write_comparison_csv(rows: list[tuple[RankComparison, RandomBaseline]],
                         sink) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["country", "index", "rho", "p_value",
                     "baseline_ci_low", "baseline_ci_high", "n"])
    for comp, base in rows:
        writer.writerow([comp.anchor_region, comp.index_name,
                         f"{comp.rho:.6g}", f"{comp.p_value:.6g}",
                         f"{base.ci_low:.6g}", f"{base.ci_high:.6g}", comp.n])
