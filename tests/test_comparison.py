import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import comparison_oracle as oracle
from venuepref import comparison
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
from venuepref.preference import PreferenceVectors

COUNTRY_ORDER = [
    "Brazil", "France", "Germany", "Japan", "Kuwait", "Malaysia", "Mexico",
    "Saudi Arabia", "South Korea", "Spain", "Thailand", "Turkey",
    "United Arab Emirates", "United Kingdom", "United States",
]

# cosine distances from the Brazil preference vector, in COUNTRY_ORDER
D2_BRAZIL = [0, 0.754, 0.757, 0.414, 0.556, 0.328, 0.249, 0.563, 0.795,
             0.73, 0.324, 0.379, 0.795, 0.601, 0.378]


def vectors_of(rows: dict) -> PreferenceVectors:
    """The vectors of ``{region: values}``, over dims d0, d1, ..."""
    values = np.array(list(rows.values()), dtype=float)
    return PreferenceVectors(list(rows), [f"d{i}" for i in range(values.shape[1])], values)


def row(vectors, region):
    return vectors.values[vectors.regions.index(region)]


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
    rows = {}
    entries = {}
    for i in range(n):
        values = base.copy()
        values[0] = 0.05 + 0.9 * i / (n - 1)
        name = f"C{i}"
        rows[name] = values
        entries[name] = values[0]
    return vectors_of(rows), IndexTable("TEST", entries)


def compare_one(vectors, index, anchor, n_permutations=100, seed=0):
    """The comparison of one anchor, and its columns' single entries:
    rho, the p-value and the baseline's CI."""
    comp = compare_regions(vectors, index, [anchor], n_permutations, seed)
    assert comp.anchors == [anchor] and comp.rho_samples.shape == (1, n_permutations)
    return comp, (comp.rho[0], comp.p_value[0], comp.ci_low[0], comp.ci_high[0])


def test_appendix_style_distance():
    vectors, _ = make_world()
    gii = [0.457, 0.088, 0.3, 0.2, 0.5, 0.6]
    index = IndexTable("GII", {f"C{i}": v for i, v in enumerate(gii)})
    comp, (rho, p, _, _) = compare_one(vectors, index, "C0")
    # the appendix's index distance |GII(C0) - GII(C)|, 0.369 for C1
    d1 = [abs(gii[0] - g) for g in gii[1:]]
    assert d1[0] == pytest.approx(0.369)
    u = row(vectors, "C0")
    d2 = [1.0 - sum(u * v) / math.sqrt(sum(u * u) * sum(v * v))
          for v in (row(vectors, f"C{i}") for i in range(1, 6))]
    assert (rho, p) == pytest.approx(spearman(d1, d2))
    assert comp.n == 5 and comp.index_name == "GII"


def test_monotone_world_gives_rho_one():
    vectors, index = make_world()
    _, (rho, _, _, _) = compare_one(vectors, index, "C0")
    assert rho == pytest.approx(1.0)


def test_identical_vectors_degenerate():
    values = [1.0, 2.0, 3.0]
    vectors = vectors_of({f"C{i}": values for i in range(5)})
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
    _, (rho, _, _, _) = compare_one(vectors, index, "C2")
    # slope 0.25 is a power of two, so tied distances stay exactly tied
    rescaled = IndexTable("T2", {c: 0.25 * v
                                 for c, v in index.entries.items()})
    _, (rho2, _, _, _) = compare_one(vectors, rescaled, "C2")
    assert rho2 == pytest.approx(rho)


def test_baseline_near_zero_and_deterministic():
    vectors, index = make_world(n=10, seed=2)
    base, (_, _, ci_low, ci_high) = compare_one(vectors, index, "C0",
                                                n_permutations=100, seed=1)
    assert ci_low <= ci_high
    mean = base.rho_samples[0].mean()
    assert abs(mean) < 0.2
    again, _ = compare_one(vectors, index, "C0", n_permutations=100, seed=1)
    assert np.array_equal(base.rho_samples, again.rho_samples)


def test_baseline_needs_two_permutations():
    vectors, index = make_world()
    with pytest.raises(DataError, match=">= 2"):
        compare_one(vectors, index, "C0", n_permutations=1, seed=0)


@pytest.mark.parametrize("zero", ["C0", "C3"])  # the anchor's, another's
@pytest.mark.parametrize("run", [
    lambda vectors, index, anchor: compare_regions(vectors, index, [anchor]),
    lambda vectors, index, anchor: compare_regions(vectors, index,
                                                   sorted(vectors.regions), 5),
], ids=["compare_with_index", "random_baseline"])
def test_zero_preference_vector_rejected(run, zero):
    vectors, index = make_world()
    vectors.values[vectors.regions.index(zero)] = 0.0
    with pytest.raises(DataError, match="cosine distance undefined for a zero vector"):
        run(vectors, index, "C0")


def test_too_few_regions():
    vectors = vectors_of({f"C{i}": [1.0, float(i)] for i in range(3)})
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
    turn, as ``compare_regions`` runs them over the sorted regions, or the
    message of the first DataError."""
    try:
        return [(oracle.rank_comparison(vectors, index, anchor),
                 oracle.baseline_samples(vectors, index, anchor,
                                         n_permutations, seed))
                for anchor in sorted(vectors.regions)]
    except DataError as exc:
        return str(exc)


@given(st.lists(st.sampled_from([0.1, 0.2, 0.4]), min_size=4, max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_baseline_samples_equal_scipy_version(values, seed):
    # a three-valued index: permutations tie, and some give a constant d1
    vectors, _ = make_world(n=len(values), seed=seed % 7)
    index = IndexTable("C", {f"C{i}": v for i, v in enumerate(values)})
    got = outcome(compare_regions, vectors, index, sorted(vectors.regions), 20, seed)
    expected = oracle_rows(vectors, index, 20, seed)
    if isinstance(expected, str):
        assert got == expected
        return
    for got_samples, (_, samples) in zip(got.rho_samples, expected, strict=True):
        assert np.array_equal(got_samples, samples)


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
    vectors = vectors_of({r: draw(st.sampled_from(pool)) for r in names})
    index = IndexTable("W", {r: draw(value) for r in names})
    return vectors, index


# 1: every block holds one anchor, and the rank table is ranked a row at a time
@pytest.mark.parametrize("cells", [comparison._BLOCK_CELLS, 1],
                         ids=["default-blocks", "one-anchor-blocks"])
@given(world=tied_worlds(), seed=st.integers(0, 2 ** 32 - 1))
def test_comparison_equals_per_pair_version(cells, world, seed):
    vectors, index = world
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comparison, "_BLOCK_CELLS", cells)
        got = outcome(compare_regions, vectors, index, sorted(vectors.regions), 10, seed)
    expected = oracle_rows(vectors, index, 10, seed)
    if isinstance(expected, str):
        assert got == expected
        return
    assert got.anchors == sorted(vectors.regions) and got.n == len(got.anchors) - 1
    assert got.index_name == "W" and len(expected) == len(got.anchors)
    for i, ((rho, p), samples) in enumerate(expected):
        assert got.rho[i] == rho
        assert got.p_value[i] == pytest.approx(p, rel=1e-12, abs=0.0)
        assert f"{got.p_value[i]:.6g}" == f"{p:.6g}"
        assert np.array_equal(got.rho_samples[i], samples)
        # the 99% CI of one anchor's samples, as a per-anchor loop takes it
        mean, stderr = samples.mean(), samples.std(ddof=1) / np.sqrt(10)
        assert (got.ci_low[i], got.ci_high[i]) == (mean - 2.576 * stderr,
                                                   mean + 2.576 * stderr)


def anchor_row(comparison, i):
    """Anchor i's entry of every column of ``comparison``."""
    return (comparison.anchors[i], comparison.index_name, comparison.n,
            comparison.rho[i], comparison.p_value[i], comparison.ci_low[i],
            comparison.ci_high[i], comparison.rho_samples[i].tolist())


@pytest.mark.parametrize("cells", [comparison._BLOCK_CELLS, 2 * 11 * 8],
                         ids=["one-block", "two-anchor-blocks"])
def test_unsorted_and_repeated_anchors_get_their_all_anchor_pairs(cells,
                                                                  monkeypatch):
    vectors, _ = make_world(n=9, seed=3)
    # three values, so index values and their distances tie
    index = IndexTable("T", {r: (0.1, 0.4, 0.25)[i % 3]
                             for i, r in enumerate(sorted(vectors.regions))})
    monkeypatch.setattr(comparison, "_BLOCK_CELLS", cells)
    every = compare_regions(vectors, index, sorted(vectors.regions), 10, 4)
    anchors = ["C5", "C1", "C5", "C8", "C0", "C1", "C7"]
    got = compare_regions(vectors, index, anchors, 10, 4)
    assert got.anchors == anchors
    assert all(anchor_row(got, i) == anchor_row(every, every.anchors.index(anchor))
               for i, anchor in enumerate(anchors))


def second_block_world(failure):
    """Six regions whose index distances never all tie; C3 alone fails a
    Spearman check on its cosine distances."""
    names = [f"C{i}" for i in range(6)]
    rows = [[1.0, 0.2 * i, 1.0] for i in range(6)]
    if failure == "constant":  # every other region has one vector
        rows = [[1.0, 2.0, 3.0]] * 6
        rows[3] = [3.0, 1.0, 0.5]
    else:  # C3 and C4 overflow: their pair's cosine is inf / inf
        rows[3], rows[4] = [1e200, 1.0, 1.0], [2e200, 1.0, 1.0]
    vectors = vectors_of(dict(zip(names, rows)))
    return vectors, IndexTable("T", {r: 0.1 * (i + 1) for i, r in enumerate(names)})


@pytest.mark.parametrize("failure", ["constant", "non-finite"])
def test_a_failing_anchor_in_the_second_block_raises_the_oracles_message(
        failure, monkeypatch):
    vectors, index = second_block_world(failure)
    monkeypatch.setattr(comparison, "_BLOCK_CELLS", 2 * 6 * 5)  # 2 anchors
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(compare_regions, vectors, index, sorted(vectors.regions), 5, 0)
        if failure == "constant":
            expected = oracle_rows(vectors, index, 5, 0)
        else:  # the oracle ranks a NaN; the library refuses it as spearman does
            expected = outcome(spearman, [1.0, np.nan, 3.0], [1.0, 2.0, 3.0])
    assert got == expected
    assert expected.startswith(f"spearman undefined for a {failure} input")


def test_ranking_calls_do_not_grow_with_the_anchors(monkeypatch):
    vectors, index = make_world(n=8, seed=1)
    default = comparison._BLOCK_CELLS
    calls = []

    def counted(x):
        calls.append(x.shape)
        return average_ranks(x)

    def ranking_calls(anchors, cells):
        calls.clear()
        monkeypatch.setattr(comparison, "_BLOCK_CELLS", cells)
        compare_regions(vectors, index, anchors, 10, 0)
        return len(calls)

    monkeypatch.setattr(comparison, "average_ranks", counted)
    # (10 + 1) rows x 7 other regions: one anchor per block, and one table call
    assert ranking_calls(sorted(vectors.regions), 11 * 7) <= 1 + 2 * 8
    assert ranking_calls(sorted(vectors.regions), default) \
        == ranking_calls(["C4"], default) <= 1 + 2 * 1
