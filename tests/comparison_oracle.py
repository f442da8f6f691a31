"""The scipy-based, per-pair Spearman statistics that ``venuepref.comparison``
replaced.

``scipy.stats.rankdata`` and ``scipy.stats.t.sf`` did the ranking and the
p-value, one cosine distance and one permutation at a time; the array
versions in ``venuepref.comparison`` must give the same distances, ranks,
rho and reported p-value. scipy is a test dependency only, so this module
is imported by tests alone.
"""

import numpy as np
from scipy import stats

from venuepref.comparison import _check_regions as check_all_regions
from venuepref.models import DataError


def _check_regions(vectors, index, anchor):
    """The sorted regions other than ``anchor``, once the library's region
    checks pass for it."""
    return [r for r in check_all_regions(vectors, index, [anchor]) if r != anchor]


def spearman(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d and of equal length")
    n = a.size
    if n < 3:
        raise DataError(f"spearman needs n >= 3, got {n}")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DataError("spearman undefined for a constant input list")
    ra = stats.rankdata(a, method="average")
    rb = stats.rankdata(b, method="average")
    rho = float(np.corrcoef(ra, rb)[0, 1])
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) >= 1.0 - 1e-12:
        return (1.0 if rho > 0 else -1.0), 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    p = float(2.0 * stats.t.sf(abs(t), df=n - 2))
    return rho, min(p, 1.0)


def cosine_distance(u, v):
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise DataError("cosine distance undefined for a zero vector")
    return float(1.0 - np.dot(u, v) / (nu * nv))


def distances(vectors, values, anchor, others):
    """region -> |index difference| and region -> cosine distance to the
    anchor, one pair at a time."""
    anchor_vec = vectors[anchor].values
    d1 = {r: abs(values[anchor] - values[r]) for r in others}
    d2 = {r: cosine_distance(anchor_vec, vectors[r].values) for r in others}
    return d1, d2


def rank_comparison(vectors, index, anchor):
    """(rho, p) of ``compare_regions`` for one anchor, from the per-pair
    distances."""
    others = _check_regions(vectors, index, anchor)
    d1, d2 = distances(vectors, index.entries, anchor, others)
    return spearman([d1[r] for r in others], [d2[r] for r in others])


def baseline_samples(vectors, index, anchor, n_permutations, seed):
    """The rho samples of one anchor's baseline, one full ``spearman`` call
    (p-value included) per permutation."""
    others = _check_regions(vectors, index, anchor)
    regions = sorted(vectors)
    base_values = np.array([index.entries[r] for r in regions])
    _, d2 = distances(vectors, index.entries, anchor, others)
    d2_list = [d2[r] for r in others]
    rng = np.random.default_rng(seed)
    samples = np.empty(n_permutations)
    for i in range(n_permutations):
        shuffled = dict(zip(regions, rng.permutation(base_values)))
        d1 = {r: abs(shuffled[anchor] - shuffled[r]) for r in others}
        samples[i], _ = spearman([d1[r] for r in others], d2_list)
    return samples
