from itertools import combinations

import numpy as np
import pytest

from venuepref.clustering import cluster_regions, cluster_vectors
from venuepref.models import DataError
from venuepref.preference import PreferenceVectors


def vecs(rows: dict) -> PreferenceVectors:
    """The vectors of ``{region: values}``, over dims d0, d1, ..."""
    values = np.array(list(rows.values()), dtype=float)
    return PreferenceVectors(list(rows), [f"d{i}" for i in range(values.shape[1])], values)


def brute_force_best_2partition(matrix):
    """Exhaustive minimum-inertia 2-partition under cosine distance with
    renormalized mean centroids."""
    unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    n = unit.shape[0]
    best = None
    best_parts = None
    indices = set(range(n))
    for size in range(1, n // 2 + 1):
        for group in combinations(range(n), size):
            parts = [list(group), sorted(indices - set(group))]
            inertia = 0.0
            for part in parts:
                mean = unit[part].mean(axis=0)
                mean = mean / np.linalg.norm(mean)
                inertia += float(np.sum(1.0 - unit[part] @ mean))
            if best is None or inertia < best:
                best = inertia
                best_parts = parts
    return best, best_parts


def test_orthogonal_axes_recovered():
    vectors = vecs({"a1": [1, 0], "a2": [2, 0], "b1": [0, 1], "b2": [0, 3]})
    result = cluster_regions(vectors, k=2, seed=0)
    assert result.assignments["a1"] == result.assignments["a2"]
    assert result.assignments["b1"] == result.assignments["b2"]
    assert result.assignments["a1"] != result.assignments["b1"]
    best_inertia, best_parts = brute_force_best_2partition(vectors.values)
    assert result.inertia == pytest.approx(best_inertia, abs=1e-12)
    assert sorted(map(sorted, best_parts)) == [[0, 1], [2, 3]]


def test_duplicates_always_co_clustered():
    vectors = vecs({"x1": [1, 2, 3], "x2": [1, 2, 3], "y1": [3, 0, 1], "y2": [3, 0, 1],
                    "z": [0, 5, 0]})
    for seed in range(5):
        result = cluster_regions(vectors, k=3, seed=seed)
        assert result.assignments["x1"] == result.assignments["x2"]
        assert result.assignments["y1"] == result.assignments["y2"]


def test_k_equals_n_singletons():
    vectors = vecs({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
    result = cluster_regions(vectors, k=3, seed=1)
    assert len(set(result.assignments.values())) == 3
    assert result.inertia == pytest.approx(0.0, abs=1e-12)


def test_scale_invariance_of_assignments():
    rng = np.random.default_rng(17)
    vectors = vecs({f"r{i}": rng.random(6) + 0.01 for i in range(10)})
    result = cluster_regions(vectors, k=3, seed=5)
    scaled = PreferenceVectors(vectors.regions, vectors.dims,
                               vectors.values * rng.uniform(0.1, 50.0, size=10)[:, None])
    result_scaled = cluster_regions(scaled, k=3, seed=5)
    assert result.assignments == result_scaled.assignments


def test_fixed_seed_reproducible():
    rng = np.random.default_rng(3)
    vectors = vecs({f"r{i}": rng.random(4) + 0.01 for i in range(12)})
    a = cluster_regions(vectors, k=4, seed=42)
    b = cluster_regions(vectors, k=4, seed=42)
    assert a.assignments == b.assignments
    assert np.array_equal(a.centroids, b.centroids)


def test_k1_centroid_is_normalized_mean_direction():
    vectors = vecs({"a": [1, 0], "b": [0, 1]})
    result = cluster_regions(vectors, k=1, seed=0)
    expected = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(result.centroids[0], expected)


def test_centroids_unit_norm():
    rng = np.random.default_rng(8)
    vectors = vecs({f"r{i}": rng.random(5) + 0.01 for i in range(9)})
    result = cluster_regions(vectors, k=3, seed=2)
    assert np.allclose(np.linalg.norm(result.centroids, axis=1), 1.0)


def test_zero_vector_rejected_with_region_name():
    vectors = vecs({"good": [1, 0], "empty": [0, 0], "g2": [0, 1], "g3": [1, 1]})
    with pytest.raises(DataError, match="empty"):
        cluster_regions(vectors, k=2, seed=0)


def test_k_out_of_range():
    vectors = vecs({"a": [1, 0], "b": [0, 1]})
    with pytest.raises(DataError):
        cluster_regions(vectors, k=3, seed=0)
    with pytest.raises(DataError):
        cluster_regions(vectors, k=0, seed=0)


def test_result_json_shape():
    vectors = vecs({"a": [1, 0], "b": [1, 0.1], "c": [0, 1]})
    result = cluster_regions(vectors, k=2, seed=0)
    payload = result.as_dict()
    assert payload["k"] == 2
    assert sorted(m for c in payload["clusters"] for m in c["members"]) == \
        ["a", "b", "c"]
    assert all(c["members"] for c in payload["clusters"])


def test_restarts_pick_best_inertia():
    rng = np.random.default_rng(23)
    vectors = vecs({f"r{i}": rng.random(8) + 0.01 for i in range(20)})
    single = cluster_regions(vectors, k=5, seed=1)
    multi = cluster_regions(vectors, k=5, seed=1, restarts=8)
    assert multi.inertia <= single.inertia + 1e-12
