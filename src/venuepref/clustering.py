"""Spherical k-means: k-means with cosine distance over preference vectors.

Vectors are L2-normalized, centroids are renormalized means, and the
cosine distance between unit vectors is 1 - dot product. Initialization is
k-means++ under cosine distance; an emptied cluster is reseeded with the
point farthest from its assigned centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import DataError
from .preference import PreferenceVector


@dataclass
class ClusteringResult:
    k: int
    assignments: dict[str, int]  # region name -> cluster id in 1..k
    centroids: np.ndarray  # k x dim, unit rows
    inertia: float
    iterations: int
    seed: int

    def clusters(self) -> list[dict]:
        members: dict[int, list[str]] = {i: [] for i in range(1, self.k + 1)}
        for region, cid in self.assignments.items():
            members[cid].append(region)
        return [{"id": cid, "members": sorted(names)}
                for cid, names in sorted(members.items())]

    def as_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "inertia": self.inertia,
                "iterations": self.iterations, "clusters": self.clusters()}


def _normalize_rows(matrix: np.ndarray, names: list[str]) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise DataError("all-zero preference vector(s): "
                        + ", ".join(names[i] for i in zero))
    return matrix / norms[:, None]


def _kmeanspp_init(unit: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = unit.shape[0]
    centroids = np.empty((k, unit.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = unit[first]
    dist = 1.0 - unit @ centroids[0]
    np.maximum(dist, 0.0, out=dist)
    for j in range(1, k):
        weights = dist ** 2
        total = weights.sum()
        if total == 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centroids[j] = unit[idx]
        np.minimum(dist, np.maximum(1.0 - unit @ centroids[j], 0.0), out=dist)
    return centroids


def _update_centroids(unit: np.ndarray, labels: np.ndarray, k: int,
                      old: np.ndarray) -> np.ndarray:
    centroids = old.copy()
    dists = np.maximum(1.0 - unit @ old.T, 0.0)
    point_dist = dists[np.arange(unit.shape[0]), labels]
    for j in range(k):
        members = unit[labels == j]
        if members.shape[0] == 0:
            # reseed with the point currently worst served
            far = int(np.argmax(point_dist))
            centroids[j] = unit[far]
            point_dist[far] = -1.0
            continue
        mean = members.mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm > 0:
            centroids[j] = mean / norm
    return centroids


def cluster_vectors(matrix: np.ndarray, names: list[str], k: int, seed: int,
                    max_iter: int = 100) -> ClusteringResult:
    n = matrix.shape[0]
    if not (1 <= k <= n):
        raise DataError(f"k must be in [1, {n}], got {k}")
    unit = _normalize_rows(np.asarray(matrix, dtype=float), names)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(unit, k, rng)
    labels = np.full(n, -1)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dists = np.maximum(1.0 - unit @ centroids.T, 0.0)
        new_labels = np.argmin(dists, axis=1)
        centroids = _update_centroids(unit, new_labels, k, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    dists = np.maximum(1.0 - unit @ centroids.T, 0.0)
    labels = np.argmin(dists, axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    assignments = {name: int(label) + 1 for name, label in zip(names, labels)}
    if len(set(assignments.values())) < k:
        raise DataError("clustering converged with an empty cluster; "
                        "try a different seed or smaller k")
    return ClusteringResult(k=k, assignments=assignments, centroids=centroids,
                            inertia=inertia, iterations=iterations, seed=seed)


def cluster_regions(vectors: list[PreferenceVector], k: int, seed: int,
                    max_iter: int = 100, restarts: int = 1) -> ClusteringResult:
    """Cluster regions by their preference vectors; with restarts > 1 the
    best-inertia run wins (restart r uses seed derived from (seed, r))."""
    if not vectors:
        raise DataError("no vectors to cluster")
    dims = vectors[0].dims
    for vec in vectors:
        if vec.dims != dims:
            raise DataError("vectors have mismatched dims")
    names = [vec.region for vec in vectors]
    matrix = np.vstack([vec.values for vec in vectors])
    best = None
    for r in range(restarts):
        sub_seed = seed if restarts == 1 else int(
            np.random.SeedSequence([seed, r]).generate_state(1)[0])
        result = cluster_vectors(matrix, names, k, sub_seed, max_iter)
        if best is None or result.inertia < best.inertia:
            best = result
    return best
