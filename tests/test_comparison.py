import numpy as np
import pytest

from venuepref.comparison import (
    compare_with_index,
    cosine_distance,
    random_baseline,
    spearman,
)
from venuepref.models import (
    DataError,
    IndexTable,
    load_bundled_index,
)
from venuepref.preference import PreferenceVector

COUNTRY_ORDER = [
    "Brazil", "France", "Germany", "Japan", "Kuwait", "Malaysia", "Mexico",
    "Saudi Arabia", "South Korea", "Spain", "Thailand", "Turkey",
    "United Arab Emirates", "United Kingdom", "United States",
]

# cosine distances from the Brazil preference vector, in COUNTRY_ORDER
D2_BRAZIL = [0, 0.754, 0.757, 0.414, 0.556, 0.328, 0.249, 0.563, 0.795,
             0.73, 0.324, 0.379, 0.795, 0.601, 0.378]


def pv(name, values):
    return PreferenceVector(region=name,
                            dims=[f"d{i}" for i in range(len(values))],
                            values=np.asarray(values, dtype=float))


def test_identity_gives_rho_one():
    a = [3.0, 1.0, 4.0, 1.5, 9.0]
    rho, p = spearman(a, a)
    assert rho == 1.0
    assert p == 0.0


def test_reversal_gives_rho_minus_one():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    rho, _ = spearman(a, list(reversed(a)))
    assert rho == -1.0


def test_published_brazil_correlation():
    gii = load_bundled_index("GII")
    d1 = [abs(gii.entries["Brazil"] - gii.entries[c]) for c in COUNTRY_ORDER]
    rho, p = spearman(d1[1:], D2_BRAZIL[1:])
    assert rho == pytest.approx(0.665, abs=0.02)
    assert p == pytest.approx(0.011, abs=0.005)


def test_tie_corrected_matches_shortcut_on_tie_free_input():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        a = rng.permutation(n).astype(float)
        b = rng.permutation(n).astype(float)
        rho, _ = spearman(a, b)
        d = np.argsort(np.argsort(a)) - np.argsort(np.argsort(b))
        shortcut = 1.0 - 6.0 * np.sum(d.astype(float) ** 2) / (n * (n * n - 1))
        assert rho == pytest.approx(shortcut, abs=1e-12)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    a = rng.random(12)
    b = rng.random(12)
    rho, _ = spearman(a, b)
    rho2, _ = spearman(np.exp(3 * a), b ** 3 + 5)
    assert rho2 == pytest.approx(rho, abs=1e-12)


def test_constant_input_rejected():
    with pytest.raises(DataError, match="constant"):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_short_input_rejected():
    with pytest.raises(DataError, match="n >= 3"):
        spearman([1.0, 2.0], [2.0, 1.0])


def make_world(n=6, seed=0):
    """Synthetic world: index value is a monotone function of dimension 0
    and vectors differ only in that dimension."""
    rng = np.random.default_rng(seed)
    base = rng.random(4) + 0.5
    vectors = {}
    entries = {}
    for i in range(n):
        values = base.copy()
        values[0] = 0.05 + 0.9 * i / (n - 1)
        name = f"C{i}"
        vectors[name] = pv(name, values)
        entries[name] = values[0]
    return vectors, IndexTable("TEST", entries)


def test_appendix_style_distance():
    vectors, _ = make_world()
    index = IndexTable("GII", {f"C{i}": v for i, v in
                               enumerate([0.457, 0.088, 0.3, 0.2, 0.5, 0.6])})
    comp = compare_with_index(vectors, index, "C0")
    assert comp.d1["C1"] == pytest.approx(0.369)
    assert "C0" not in comp.d1
    assert comp.n == 5


def test_monotone_world_gives_rho_one():
    vectors, index = make_world()
    comp = compare_with_index(vectors, index, "C0")
    assert comp.rho == pytest.approx(1.0)


def test_identical_vectors_degenerate():
    values = [1.0, 2.0, 3.0]
    vectors = {f"C{i}": pv(f"C{i}", values) for i in range(5)}
    index = IndexTable("X", {f"C{i}": 0.1 * (i + 1) for i in range(5)})
    with pytest.raises(DataError, match="constant"):
        compare_with_index(vectors, index, "C0")


def test_missing_region_reported():
    vectors, index = make_world()
    del index.entries["C3"]
    with pytest.raises(DataError, match="C3"):
        compare_with_index(vectors, index, "C0")


def test_affine_rescaling_invariance():
    vectors, index = make_world()
    comp = compare_with_index(vectors, index, "C2")
    # slope 0.25 is a power of two, so tied distances stay exactly tied
    rescaled = IndexTable("T2", {c: 0.25 * v
                                 for c, v in index.entries.items()})
    comp2 = compare_with_index(vectors, rescaled, "C2")
    assert comp2.rho == pytest.approx(comp.rho)


def test_baseline_near_zero_and_deterministic():
    vectors, index = make_world(n=10, seed=2)
    base = random_baseline(vectors, index, "C0", n_permutations=100, seed=1)
    assert base.ci_low <= base.ci_high
    mean = base.rho_samples.mean()
    assert abs(mean) < 0.2
    again = random_baseline(vectors, index, "C0", n_permutations=100, seed=1)
    assert np.array_equal(base.rho_samples, again.rho_samples)


def test_baseline_needs_two_permutations():
    vectors, index = make_world()
    with pytest.raises(DataError, match=">= 2"):
        random_baseline(vectors, index, "C0", n_permutations=1, seed=0)


def test_cosine_distance_zero_vector():
    with pytest.raises(DataError):
        cosine_distance(np.zeros(3), np.ones(3))


def test_too_few_regions():
    vectors = {f"C{i}": pv(f"C{i}", [1.0, float(i)]) for i in range(3)}
    index = IndexTable("X", {f"C{i}": 0.2 * i for i in range(3)})
    with pytest.raises(DataError, match="at least 4"):
        compare_with_index(vectors, index, "C0")
