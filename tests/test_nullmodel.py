import copy
import csv
import io
import tracemalloc
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from venuepref import nullmodel
from venuepref.models import DataError
from venuepref.nullmodel import (
    Direction,
    NullMethod,
    NullModelConfig,
    _generative_cells,
    _generative_counts,
    _null_matrix,
    _shuffle_counts,
    _weibull_quantiles,
    write_null_distribution_csv,
    write_significance_json,
)
from venuepref.popularity import (
    AnalysisMode,
    ScopeIndex,
    popularity_table,
    signed_difference,
)
from venuepref.synth import SubcategorySpec, SynthSpec, generate

from conftest import by_key, units
from one_region import run_null_model_batch

REGION = "Synthland"


def synth_scope(skews, n_checkins=2000, seed=0, n_subcats=None):
    if isinstance(skews, (int, float)):
        skews = [skews] * (n_subcats or 5)
    subcats = [
        SubcategorySpec(name=f"S{i:02d}", category="Food", n_venues=4,
                        base_weight=1.0, gender_skew=s)
        for i, s in enumerate(skews)
    ]
    spec = SynthSpec(n_users=max(50, n_checkins // 4), female_fraction=0.5,
                     subcategories=subcats, n_checkins=n_checkins,
                     region_name="Synthland", rng_seed=seed)
    return generate(spec)[0]


def test_k2_acceptance_range_is_min_max():
    records = synth_scope(0.0, n_checkins=400)
    config = NullModelConfig(k=2, rng_seed=1)
    result = by_key(run_null_model_batch(records, AnalysisMode.SUBCATEGORY,
                                         REGION, config), "S00")
    assert result.delta_min == min(result.null_distribution)
    assert result.delta_max == max(result.null_distribution)


def test_planted_female_bias_detected():
    # one subcategory receives ~90% of female, ~10% of male check-ins
    records = synth_scope([-0.8, 0, 0, 0, 0], n_checkins=4000, seed=3)
    config = NullModelConfig(k=100, rng_seed=7)
    result = by_key(run_null_model_batch(records, AnalysisMode.SUBCATEGORY,
                                         REGION, config), "S00")
    assert result.significant
    assert result.direction is Direction.FEMALE


@pytest.mark.parametrize("method", [NullMethod.GENERATIVE,
                                    NullMethod.GENDER_SHUFFLE])
def test_determinism_under_seed(method):
    records = synth_scope(0.0, n_checkins=500)
    config = NullModelConfig(k=20, method=method, rng_seed=11)
    first, second = (by_key(run_null_model_batch(
        records, AnalysisMode.SUBCATEGORY, REGION, config), "S01") for _ in range(2))
    assert np.array_equal(first.null_distribution, second.null_distribution)
    assert first.delta_min == second.delta_min


def test_null_distribution_centered_near_zero():
    records = synth_scope(0.0, n_checkins=3000, seed=5)
    config = NullModelConfig(k=100, rng_seed=2)
    result = by_key(run_null_model_batch(records, AnalysisMode.SUBCATEGORY,
                                         REGION, config), "S02")
    null = result.null_distribution
    stderr = null.std(ddof=1) / np.sqrt(null.size)
    assert abs(null.mean()) <= 3 * stderr


def test_confidence_monotonicity():
    records = synth_scope(0.0, n_checkins=800)
    narrow, wide = (by_key(run_null_model_batch(
        records, AnalysisMode.SUBCATEGORY, REGION,
        NullModelConfig(k=50, confidence=confidence, rng_seed=6)), "S03")
        for confidence in (0.8, 0.99))
    assert wide.delta_min <= narrow.delta_min
    assert wide.delta_max >= narrow.delta_max


def test_methods_agree_on_planted_bias():
    records = synth_scope([0.8, 0, 0, 0, 0], n_checkins=3000, seed=9)
    for method in NullMethod:
        result = by_key(run_null_model_batch(
            records, AnalysisMode.SUBCATEGORY, REGION,
            NullModelConfig(k=100, method=method, rng_seed=13)), "S00")
        assert result.significant, method
        assert result.direction is Direction.MALE, method


def test_single_gender_scope_errors():
    table = synth_scope(0.0, n_checkins=300)
    male_only = table.take(table.gender == 1)
    with pytest.raises(DataError, match="one gender"):
        run_null_model_batch(male_only, AnalysisMode.SUBCATEGORY, REGION,
                             NullModelConfig(k=5, rng_seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        NullModelConfig(k=1)
    with pytest.raises(ValueError):
        NullModelConfig(confidence=1.0)
    with pytest.raises(ValueError, match="rng_seed"):
        NullModelConfig(rng_seed=-1)


def test_venue_mode_null_model():
    records = synth_scope(0.0, n_checkins=600, seed=21)
    config = NullModelConfig(k=30, rng_seed=8)
    results = run_null_model_batch(records, AnalysisMode.VENUE, REGION, config)
    assert len(results) == len(np.unique(records.venue))
    assert (results.delta_min <= results.delta_max).all()


def test_null_distribution_csv_bytes_match_a_row_per_cell_writer():
    records = synth_scope(0.0, n_checkins=300, n_subcats=6)
    results = run_null_model_batch(records, AnalysisMode.SUBCATEGORY, REGION,
                                   NullModelConfig(k=4, rng_seed=3))
    keys = ["plain", "a,b", 'say "hi"', "two\nlines", " padded ", ""]
    assert len(results) == len(keys)
    results = replace(results, keys=keys)
    results.null[:3, 0] = [0.0, -0.0, 1e-300]
    sink = io.StringIO()
    write_null_distribution_csv(results, sink)
    assert sink.getvalue() == row_per_cell_csv(results)


def test_null_distribution_csv_of_a_venue_batch_matches_a_row_per_cell_writer():
    # venue units of one subcategory draw from few counts, so many cells
    # share a value, which is formatted once
    records = synth_scope(0.0, n_checkins=200, n_subcats=6)
    results = run_null_model_batch(records, AnalysisMode.VENUE, REGION,
                                   NullModelConfig(k=50, rng_seed=3))
    cells = results.null.ravel()
    assert len(results) == 24
    assert len(np.unique(cells)) < len(cells) * 0.6
    sink = io.StringIO()
    write_null_distribution_csv(results, sink)
    assert sink.getvalue() == row_per_cell_csv(results)


def row_per_cell_csv(results):
    """The null distribution csv as a csv.writer row per cell writes it."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["unit_key", "replicate", "d"])
    for res in units(results):
        for i, value in enumerate(res.null_distribution):
            writer.writerow([res.key, i, f"{value:.10g}"])
    return expected.getvalue()


@given(k=st.integers(2, 120), n_subcats=st.integers(1, 8),
       confidence=st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]),
       method=st.sampled_from(list(NullMethod)), seed=st.integers(0, 5))
def test_batch_acceptance_range_is_each_units_quantile(k, n_subcats, confidence,
                                                       method, seed):
    # the batch takes every unit's quantiles in one call; they must be the
    # very floats of one call per unit
    records = synth_scope(0.0, n_checkins=300, seed=seed, n_subcats=n_subcats)
    config = NullModelConfig(k=k, confidence=confidence, method=method,
                             rng_seed=seed)
    alpha = 1.0 - confidence
    for res in units(run_null_model_batch(records, AnalysisMode.SUBCATEGORY, REGION,
                                          config)):
        delta_min, delta_max = np.quantile(
            res.null_distribution, [alpha / 2, 1.0 - alpha / 2], method="weibull")
        assert (res.delta_min, res.delta_max) == (delta_min, delta_max)


@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.25, -1.5, 1e-300, 3.0, np.nan]),
                         min_size=3, max_size=3), min_size=2, max_size=40),
       st.lists(st.sampled_from([0.0, 1e-9, 0.0005, 0.005, 0.025, 0.05, 0.25, 0.5,
                                 0.75, 0.975, 0.995, 0.9995, 1.0]), min_size=1, max_size=3))
def test_weibull_quantiles_are_numpys_bit_for_bit(rows, qs):
    """The acceptance range's quantiles, which keep numpy.ma unloaded, give
    the bits of ``np.quantile`` on ties, signed zeros and NaN columns."""
    null = np.array(rows)
    expected = np.quantile(null, qs, axis=0, method="weibull")
    assert np.array_equal(np.array(_weibull_quantiles(null, qs)).view(np.int64),
                          expected.view(np.int64))


def test_null_distribution_csv_of_two_replicates_and_one_unit():
    """The fewest replicates a config allows, over three units and over a
    scope of one unit, whose k x 1 matrix is laid out as its transpose: a
    line per replicate, and the writer leaves the matrix as it was."""
    for n_subcats in (3, 1):
        results = run_null_model_batch(synth_scope(0.0, n_checkins=300, n_subcats=n_subcats),
                                       AnalysisMode.SUBCATEGORY, REGION,
                                       NullModelConfig(k=2, rng_seed=3))
        assert results.null.shape == (2, n_subcats)
        results.null[:, 0] = [0.25, -0.0]
        before = results.null.copy()
        sink = io.StringIO()
        write_null_distribution_csv(results, sink)
        assert sink.getvalue() == row_per_cell_csv(results)
        assert len(sink.getvalue().splitlines()) == 1 + 2 * n_subcats
        assert np.array_equal(results.null.view(np.int64), before.view(np.int64))


def test_null_distribution_csv_at_venue_scale_is_written_in_bounded_blocks():
    """~800 venue units x 100 replicates span many write blocks; the writer
    never holds as much as the text it writes."""
    subcats = [SubcategorySpec(name=f"S{i:02d}", category="Food", n_venues=40,
                               base_weight=1.0, gender_skew=0.0) for i in range(20)]
    records, _ = generate(SynthSpec(n_users=1000, female_fraction=0.5, subcategories=subcats,
                                    n_checkins=5000, region_name=REGION, rng_seed=1))
    results = run_null_model_batch(records, AnalysisMode.VENUE, REGION,
                                   NullModelConfig(k=100, rng_seed=1))
    assert len(results) >= 700
    sink = io.StringIO()
    write_null_distribution_csv(results, sink)
    text = sink.getvalue()
    assert text == row_per_cell_csv(results)

    writes = []  # (characters, lines) of each write
    tracemalloc.start()
    try:
        write_null_distribution_csv(results, SimpleNamespace(
            write=lambda block: writes.append((len(block), block.count("\n")))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(chars for chars, _ in writes) == len(text)
    assert len(writes) > 5 and max(lines for _, lines in writes) <= nullmodel._BLOCK_CELLS
    assert peak < len(text)


@pytest.mark.parametrize("method", list(NullMethod))
@pytest.mark.parametrize("mode", [AnalysisMode.SUBCATEGORY, AnalysisMode.VENUE])
def test_null_matrix_is_a_per_replicate_loop_bit_for_bit(method, mode):
    records = synth_scope([0.4, 0.0, -0.3, 0.1, 0.0, -0.6], n_checkins=800, seed=4)
    index = ScopeIndex(records, mode, REGION)
    config = NullModelConfig(k=60, method=method, rng_seed=9)
    expected = np.empty((config.k, index.n_units))
    for i in range(config.k):
        rng = np.random.default_rng([config.rng_seed, i])
        male, female = (_generative_counts(index, _generative_cells(index), rng)
                        if method is NullMethod.GENERATIVE else _shuffle_counts(index, rng))
        expected[i] = signed_difference(male / male.sum(), female / female.sum())
    assert np.array_equal(_null_matrix(index, config).view(np.int64),
                          expected.view(np.int64))


@pytest.mark.parametrize("method", list(NullMethod))
@pytest.mark.parametrize("mode", [AnalysisMode.SUBCATEGORY, AnalysisMode.VENUE])
def test_both_statistics_leave_the_shared_index_as_it_was(method, mode):
    # analyze hands one ScopeIndex to both, and a shuffle passes the index's
    # own unit totals to numpy: neither call may change what the other reads
    index = ScopeIndex(synth_scope([0.4, 0.0, -0.3], n_checkins=600, seed=2),
                       mode, REGION)
    before = copy.deepcopy(vars(index))
    config = NullModelConfig(k=20, method=method, rng_seed=3)
    for statistic in (popularity_table, partial(nullmodel.significance, config=config)):
        statistic(index)
        assert vars(index).keys() == before.keys()
        for name, value in before.items():
            now = vars(index)[name]
            if isinstance(value, np.ndarray):
                assert now.dtype == value.dtype and np.array_equal(now, value), name
            else:
                assert now == value, name
