"""Rank comparison of preference vectors against scalar country indices.

For an anchor region, all other regions are ranked twice: by euclidean
distance of the scalar index values and by cosine distance of the
preference vectors. Agreement between the two rankings is measured with
Spearman's rho (tie-averaged ranks, two-sided t-approximation p-value),
and judged against a random-permutation baseline.

Every permutation of the index shuffles the same R values, so one R x R
table of index-distance ranks, ranked once, serves every anchor and every
permutation: a row's ranks are gathered from it, never sorted again. For A
anchors and P permutations a comparison takes O(R^2 log R + A P R) time and
O(R^2 + A P + block P R) memory, anchors being scored a bounded block at a
time.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .models import DataError, IndexTable
from .preference import PreferenceVectors


@dataclass(frozen=True)
class Comparison:
    """``compare_regions``' result, one column a field: entry i is
    ``anchors[i]``'s, ranked against the ``n`` other regions. Its baseline's
    rho samples are row i of the anchors x permutations ``rho_samples``,
    and ``ci_low`` and ``ci_high`` bound their 99% CI."""

    index_name: str
    anchors: list[str]
    n: int
    rho: np.ndarray
    p_value: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    rho_samples: np.ndarray


_NON_FINITE = "spearman undefined for a non-finite input value"
_CONSTANT = "spearman undefined for a constant input list"
# index distances that compare_regions ranks at once, and (anchor, row,
# region) ranks it gathers and scores at once (one anchor's at least): up to
# ~80 bytes each while in use, so a block stays near 1 MB
_BLOCK_CELLS = 1 << 14


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
            raise DataError(_NON_FINITE)
        if (x == x[..., :1]).all(axis=-1).any():
            raise DataError(_CONSTANT)
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


@lru_cache(maxsize=256)  # every anchor of a comparison has the same df
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


def _check_regions(vectors: PreferenceVectors, index: IndexTable,
                   anchors: list[str]) -> list[str]:
    """The sorted regions, once every anchor has a vector, the first anchor
    and then every region has an index value, and there are at least 4. (An
    anchor past the first that has no value is among the missing regions.)"""
    regions = set(vectors.regions)
    for anchor in anchors:
        if anchor not in regions:
            raise DataError(f"anchor {anchor!r} has no preference vector")
    if anchors and anchors[0] not in index.entries:
        raise DataError(f"anchor {anchors[0]!r} missing from index "
                        f"{index.index_name!r}")
    missing = sorted(regions - set(index.entries))
    if missing:
        raise DataError(f"regions missing from index {index.index_name!r}: "
                        f"{missing}")
    if len(regions) < 4:
        raise DataError(f"need at least 4 regions, got {len(regions)}")
    return sorted(regions)


def _rank_table(values: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The R x R table whose row k holds the average ranks of |v_k - v_j|
    over j != k (its diagonal is unused), and for each row whether those
    distances are not all finite, and whether they are all equal. Rows are
    ranked ``_BLOCK_CELLS`` distances at a time."""
    n = len(values)
    table = np.zeros((n, n))
    non_finite, constant = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    step = max(1, _BLOCK_CELLS // (n - 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        off = np.arange(n) != np.arange(n)[rows, None]
        d1 = np.abs(values[rows, None] - values)[off].reshape(-1, n - 1)
        non_finite[rows] = ~np.isfinite(d1).all(axis=1)
        constant[rows] = (d1 == d1[:, :1]).all(axis=1)
        table[rows][off] = average_ranks(d1).ravel()
    return table, (non_finite, constant)


def compare_regions(vectors: PreferenceVectors, index: IndexTable,
                    anchors: list[str], n_permutations: int = 100,
                    seed: int = 0) -> Comparison:
    """For each anchor, in order: the Spearman agreement between the
    index-distance and vector-distance rankings of the other regions, and
    its permutation baseline, which shuffles the index's values across the
    regions and recomputes rho against the fixed vector distances (99% CI:
    mean +- 2.576 standard errors of the rho samples).

    The checks, the vector norms and the P permutations (one
    ``default_rng(seed)`` over the sorted regions) are shared, so every
    anchor scores the same draw, and a one-anchor call gives that anchor's
    row of an all-anchor call. The index values are row 0 above the
    permutations, and row 0's rho is the observed one. Every row is a
    permutation of the same R values, so the ranks of the index distances
    around an anchor depend only on the value the row gives it: one R x R
    table of ranks (``_rank_table``) serves every anchor and row, and a
    row's ranks are a gather from it. Anchors are scored in blocks of about
    ``_BLOCK_CELLS`` (anchor, row, region) cells; a block ranks its cosine
    rows in one call and scores all its rows in another, into its rows of
    one anchors x (P+1) rho matrix."""
    if n_permutations < 2:
        raise DataError("random baseline needs n_permutations >= 2")
    regions = _check_regions(vectors, index, anchors)
    n = len(regions)
    at = {r: i for i, r in enumerate(regions)}
    values = np.array([index.entries[r] for r in regions])
    row_of = dict(zip(vectors.regions, range(n)))
    m = vectors.values[[row_of[r] for r in regions]]
    # stacked 1xD @ Dx1 products give the floats of a per-pair np.dot and
    # np.linalg.norm; m @ m[i] and np.linalg.norm(m, axis=1) sum otherwise
    rows = m[:, None, :]
    norms = np.sqrt(rows @ m[:, :, None])[:, 0, 0]
    if not norms.all():
        raise DataError("cosine distance undefined for a zero vector")
    rng = np.random.default_rng(seed)
    # values[rng.permutation(n)] is rng.permutation(values): the same draw
    perms = np.stack([np.arange(n), *(rng.permutation(n)
                                      for _ in range(n_permutations))])
    table, value_checks = _rank_table(values)

    at_anchors = np.array([at[a] for a in anchors], dtype=np.intp)
    others = np.arange(n - 1)
    row_at = np.arange(n_permutations + 1)[:, None]
    step = max(1, _BLOCK_CELLS // ((n_permutations + 1) * (n - 1)))
    rho = np.empty((len(anchors), n_permutations + 1))
    for start in range(0, len(anchors), step):
        block = at_anchors[start:start + step]
        cols = others + (others >= block[:, None])  # each anchor's others
        dots = (rows @ m[block, :, None][:, None])[..., 0, 0]
        d2 = np.take_along_axis(1.0 - dots / (norms[block, None] * norms),
                                cols, axis=1)
        held = perms[:, block].T  # the value index each row gives each anchor
        failed = np.stack([*(check[held].any(axis=1)
                             for check in value_checks),
                           ~np.isfinite(d2).all(axis=1),
                           (d2 == d2[:, :1]).all(axis=1)])
        if failed.any():  # the first anchor's first failed check
            check = failed[:, failed.any(axis=0).argmax()].argmax()
            raise DataError((_NON_FINITE, _CONSTANT)[check % 2])
        ranks = table[held[:, :, None], perms[row_at, cols[:, None, :]]]
        rho[start:start + step] = _rank_rho(ranks, average_ranks(d2)[:, None, :])
    samples = rho[:, 1:]
    # row by row, the floats of one anchor's samples.mean() and .std()
    mean = samples.mean(axis=1)
    stderr = samples.std(axis=1, ddof=1) / np.sqrt(n_permutations)
    half = 2.576 * stderr
    return Comparison(
        index_name=index.index_name, anchors=list(anchors), n=n - 1,
        rho=rho[:, 0], p_value=np.array([_p_value(r, n - 1) for r in rho[:, 0].tolist()]),
        ci_low=mean - half, ci_high=mean + half, rho_samples=samples)


def write_comparison_csv(comparison: Comparison, sink) -> None:
    """comparison.csv, a row per anchor, written a column at a time."""
    def text(column):
        return [f"{v:.6g}" for v in column.tolist()]

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["country", "index", "rho", "p_value",
                     "baseline_ci_low", "baseline_ci_high", "n"])
    writer.writerows(zip(
        comparison.anchors, repeat(comparison.index_name), text(comparison.rho),
        text(comparison.p_value), text(comparison.ci_low), text(comparison.ci_high),
        repeat(comparison.n)))
