import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import comparison_oracle as oracle
from venuepref.comparison import (
    average_ranks,
    compare_regions,
    spearman,
    t_two_sided_p,
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


def compare_one(vectors, index, anchor, n_permutations=100, seed=0):
    """The comparison and the baseline of one anchor."""
    [(comp, base)] = compare_regions(vectors, index, [anchor], n_permutations,
                                     seed)
    return comp, base


def test_appendix_style_distance():
    vectors, _ = make_world()
    gii = [0.457, 0.088, 0.3, 0.2, 0.5, 0.6]
    index = IndexTable("GII", {f"C{i}": v for i, v in enumerate(gii)})
    comp, _ = compare_one(vectors, index, "C0")
    # the appendix's index distance |GII(C0) - GII(C)|, 0.369 for C1
    d1 = [abs(gii[0] - g) for g in gii[1:]]
    assert d1[0] == pytest.approx(0.369)
    u = vectors["C0"].values
    d2 = [1.0 - sum(u * v) / math.sqrt(sum(u * u) * sum(v * v))
          for v in (vectors[f"C{i}"].values for i in range(1, 6))]
    assert (comp.rho, comp.p_value) == pytest.approx(spearman(d1, d2))
    assert comp.n == 5


def test_monotone_world_gives_rho_one():
    vectors, index = make_world()
    comp, _ = compare_one(vectors, index, "C0")
    assert comp.rho == pytest.approx(1.0)


def test_identical_vectors_degenerate():
    values = [1.0, 2.0, 3.0]
    vectors = {f"C{i}": pv(f"C{i}", values) for i in range(5)}
    index = IndexTable("X", {f"C{i}": 0.1 * (i + 1) for i in range(5)})
    with pytest.raises(DataError, match="constant"):
        compare_one(vectors, index, "C0")


def test_missing_region_reported():
    vectors, index = make_world()
    del index.entries["C3"]
    with pytest.raises(DataError, match="C3"):
        compare_one(vectors, index, "C0")


def test_affine_rescaling_invariance():
    vectors, index = make_world()
    comp, _ = compare_one(vectors, index, "C2")
    # slope 0.25 is a power of two, so tied distances stay exactly tied
    rescaled = IndexTable("T2", {c: 0.25 * v
                                 for c, v in index.entries.items()})
    comp2, _ = compare_one(vectors, rescaled, "C2")
    assert comp2.rho == pytest.approx(comp.rho)


def test_baseline_near_zero_and_deterministic():
    vectors, index = make_world(n=10, seed=2)
    _, base = compare_one(vectors, index, "C0", n_permutations=100, seed=1)
    assert base.ci_low <= base.ci_high
    mean = base.rho_samples.mean()
    assert abs(mean) < 0.2
    _, again = compare_one(vectors, index, "C0", n_permutations=100, seed=1)
    assert np.array_equal(base.rho_samples, again.rho_samples)


def test_baseline_needs_two_permutations():
    vectors, index = make_world()
    with pytest.raises(DataError, match=">= 2"):
        compare_one(vectors, index, "C0", n_permutations=1, seed=0)


@pytest.mark.parametrize("zero", ["C0", "C3"])  # the anchor's, another's
@pytest.mark.parametrize("run", [
    lambda vectors, index, anchor: compare_regions(vectors, index, [anchor]),
    lambda vectors, index, anchor: compare_regions(vectors, index,
                                                   sorted(vectors), 5),
], ids=["compare_with_index", "random_baseline"])
def test_zero_preference_vector_rejected(run, zero):
    vectors, index = make_world()
    vectors[zero] = pv(zero, np.zeros(4))
    with pytest.raises(DataError, match="cosine distance undefined for a zero vector"):
        run(vectors, index, "C0")


def test_too_few_regions():
    vectors = {f"C{i}": pv(f"C{i}", [1.0, float(i)]) for i in range(3)}
    index = IndexTable("X", {f"C{i}": 0.2 * i for i in range(3)})
    with pytest.raises(DataError, match="at least 4"):
        compare_one(vectors, index, "C0")


# Differential tests against the scipy calls the module used to make
# (kept in comparison_oracle.py). Small integer pools give heavy ties.
tied_floats = st.one_of(st.integers(-2, 2).map(float),
                        st.floats(allow_nan=False, width=32))


@given(st.lists(tied_floats, min_size=1, max_size=40))
def test_average_ranks_equal_scipy_rankdata(values):
    x = np.array(values)
    expected = stats.rankdata(x, method="average")
    ranks = average_ranks(x)
    assert ranks.dtype == expected.dtype
    assert np.array_equal(ranks, expected)


@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(tied_floats, min_size=n, max_size=n), min_size=1, max_size=8)))
def test_average_ranks_rows_equal_scipy_rankdata(rows):
    x = np.array(rows)
    expected = stats.rankdata(x, method="average", axis=-1)
    ranks = average_ranks(x)
    assert ranks.dtype == expected.dtype
    assert np.array_equal(ranks, expected)


def scipy_two_sided_p(t, df):
    if df == 1:
        # Cauchy: scipy's own value is off by up to 4e-11 here for
        # |t| < 1e-4 (checked against 50-digit mpmath); the closed form is not
        return 2.0 / math.pi * math.atan(1.0 / abs(t))
    return 2.0 * float(stats.t.sf(abs(t), df))


@given(st.integers(1, 500), st.floats(-6.0, 3.0), st.booleans())
@example(df=500, exponent=3.0, negative=False)    # underflows to 0.0
@example(df=162, exponent=math.log10(900.0), negative=True)  # ~1e-301
@example(df=48, exponent=-6.0, negative=False)    # p ~ 1
def test_t_tail_matches_scipy(df, exponent, negative):
    t = -(10.0 ** exponent) if negative else 10.0 ** exponent
    expected = scipy_two_sided_p(t, df)
    p = t_two_sided_p(t, df)
    if expected < sys.float_info.min:
        # below the smallest normal float scipy returns 0.0 or a subnormal
        # whose digits depend on its internals; this module returns 0.0
        assert p == 0.0
    else:
        assert p == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert f"{p:.6g}" == f"{expected:.6g}"


def test_t_tail_matches_scipy_on_a_grid():
    # every df, and |t| dense around the switch between the two expansions
    # (t^2 ~ 3), where an error in the common factor is amplified most
    ts = np.geomspace(1e-6, 1e3, 101)
    for df in range(2, 501):
        expected = 2.0 * stats.t.sf(ts, df)
        p = np.array([t_two_sided_p(t, df) for t in ts])
        normal = expected >= sys.float_info.min
        assert np.all(p[~normal] == 0.0), df
        rel = np.abs(p[normal] - expected[normal]) / expected[normal]
        assert rel.max() <= 1e-12, (df, ts[normal][rel.argmax()])


def test_t_tail_at_zero_is_one():
    assert t_two_sided_p(0.0, 5) == 1.0


def outcome(fn, *args):
    """The result of fn, or the DataError message when it refuses the input."""
    try:
        return fn(*args)
    except DataError as exc:
        return str(exc)


@st.composite
def rank_pairs(draw):
    n = draw(st.integers(2, 30))
    values = st.lists(tied_floats.filter(math.isfinite), min_size=n, max_size=n)
    return draw(values), draw(values)


@given(rank_pairs())
def test_spearman_equals_scipy_version(pair):
    a, b = pair
    got = outcome(spearman, a, b)
    expected = outcome(oracle.spearman, a, b)
    if isinstance(expected, str):
        assert got == expected
        return
    rho, p = got
    assert rho == expected[0]
    assert p == pytest.approx(expected[1], rel=1e-12, abs=0.0)
    assert f"{p:.6g}" == f"{expected[1]:.6g}"


def oracle_rows(vectors, index, n_permutations, seed):
    """The per-pair oracle's (rho, p) and rho samples for every anchor in
    turn, as ``compare_regions`` runs them over ``sorted(vectors)``, or the
    message of the first DataError."""
    try:
        return [(oracle.rank_comparison(vectors, index, anchor),
                 oracle.baseline_samples(vectors, index, anchor,
                                         n_permutations, seed))
                for anchor in sorted(vectors)]
    except DataError as exc:
        return str(exc)


@given(st.lists(st.sampled_from([0.1, 0.2, 0.4]), min_size=4, max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_baseline_samples_equal_scipy_version(values, seed):
    # a three-valued index: permutations tie, and some give a constant d1
    vectors, _ = make_world(n=len(values), seed=seed % 7)
    index = IndexTable("C", {f"C{i}": v for i, v in enumerate(values)})
    got = outcome(compare_regions, vectors, index, sorted(vectors), 20, seed)
    expected = oracle_rows(vectors, index, 20, seed)
    if isinstance(expected, str):
        assert got == expected
        return
    for (_, base), (_, samples) in zip(got, expected, strict=True):
        assert np.array_equal(base.rho_samples, samples)


def test_non_finite_input_rejected():
    with pytest.raises(DataError, match="non-finite"):
        spearman([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])


@st.composite
def tied_worlds(draw):
    """Regions whose vectors and index values are drawn from small pools,
    so cosine distances repeat and index distances tie."""
    n = draw(st.integers(4, 12))
    dim = draw(st.integers(1, 5))
    entry = st.integers(0, 3).map(float) | st.floats(0.0, 1.0)
    pool = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim).filter(any),
                         min_size=1, max_size=n))
    value = st.sampled_from([0.1, 0.25, 0.4]) | st.floats(0.0, 1.0)
    names = [f"C{i}" for i in range(n)]
    vectors = {r: pv(r, draw(st.sampled_from(pool))) for r in names}
    index = IndexTable("W", {r: draw(value) for r in names})
    return vectors, index


@given(tied_worlds(), st.integers(0, 2 ** 32 - 1))
def test_comparison_equals_per_pair_version(world, seed):
    vectors, index = world
    got = outcome(compare_regions, vectors, index, sorted(vectors), 10, seed)
    expected = oracle_rows(vectors, index, 10, seed)
    if isinstance(expected, str):
        assert got == expected
        return
    for (comp, base), ((rho, p), samples) in zip(got, expected, strict=True):
        assert comp.rho == rho
        assert comp.p_value == pytest.approx(p, rel=1e-12, abs=0.0)
        assert f"{comp.p_value:.6g}" == f"{p:.6g}"
        assert np.array_equal(base.rho_samples, samples)
