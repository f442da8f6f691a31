import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from venuepref.models import DataError
from venuepref.nullmodel import (
    Direction,
    NullMethod,
    NullModelConfig,
    _weibull_quantiles,
    run_null_model,
    run_null_model_batch,
    write_null_distribution_csv,
)
from venuepref.popularity import AnalysisMode, AnalysisUnit
from venuepref.synth import SubcategorySpec, SynthSpec, generate

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
    return generate(spec)


def test_k2_acceptance_range_is_min_max():
    records = synth_scope(0.0, n_checkins=400)
    config = NullModelConfig(k=2, rng_seed=1)
    result = run_null_model(
        records, AnalysisUnit(AnalysisMode.SUBCATEGORY, "S00", REGION), config)
    assert result.delta_min == min(result.null_distribution)
    assert result.delta_max == max(result.null_distribution)


def test_planted_female_bias_detected():
    # one subcategory receives ~90% of female, ~10% of male check-ins
    records = synth_scope([-0.8, 0, 0, 0, 0], n_checkins=4000, seed=3)
    config = NullModelConfig(k=100, rng_seed=7)
    result = run_null_model(
        records, AnalysisUnit(AnalysisMode.SUBCATEGORY, "S00", REGION), config)
    assert result.significant
    assert result.direction is Direction.FEMALE


@pytest.mark.parametrize("method", [NullMethod.GENERATIVE,
                                    NullMethod.GENDER_SHUFFLE])
def test_determinism_under_seed(method):
    records = synth_scope(0.0, n_checkins=500)
    config = NullModelConfig(k=20, method=method, rng_seed=11)
    unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, "S01", REGION)
    first = run_null_model(records, unit, config)
    second = run_null_model(records, unit, config)
    assert np.array_equal(first.null_distribution, second.null_distribution)
    assert first.delta_min == second.delta_min


def test_batch_matches_single_unit():
    records = synth_scope(0.0, n_checkins=500)
    config = NullModelConfig(k=15, rng_seed=4)
    batch = run_null_model_batch(records, AnalysisMode.SUBCATEGORY, REGION, config)
    for res in batch:
        single = run_null_model(records, res.unit, config)
        assert np.array_equal(single.null_distribution, res.null_distribution)
        assert single.significant == res.significant


def test_null_distribution_centered_near_zero():
    records = synth_scope(0.0, n_checkins=3000, seed=5)
    config = NullModelConfig(k=100, rng_seed=2)
    result = run_null_model(
        records, AnalysisUnit(AnalysisMode.SUBCATEGORY, "S02", REGION), config)
    null = result.null_distribution
    stderr = null.std(ddof=1) / np.sqrt(null.size)
    assert abs(null.mean()) <= 3 * stderr


def test_confidence_monotonicity():
    records = synth_scope(0.0, n_checkins=800)
    unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, "S03", REGION)
    narrow = run_null_model(records, unit,
                            NullModelConfig(k=50, confidence=0.8, rng_seed=6))
    wide = run_null_model(records, unit,
                          NullModelConfig(k=50, confidence=0.99, rng_seed=6))
    assert wide.delta_min <= narrow.delta_min
    assert wide.delta_max >= narrow.delta_max


def test_methods_agree_on_planted_bias():
    records = synth_scope([0.8, 0, 0, 0, 0], n_checkins=3000, seed=9)
    unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, "S00", REGION)
    for method in NullMethod:
        result = run_null_model(
            records, unit, NullModelConfig(k=100, method=method, rng_seed=13))
        assert result.significant, method
        assert result.direction is Direction.MALE, method


def test_single_gender_scope_errors():
    table = synth_scope(0.0, n_checkins=300)
    male_only = table.take(table.gender == 1)
    unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, "S00", REGION)
    with pytest.raises(DataError, match="one gender"):
        run_null_model(male_only, unit, NullModelConfig(k=5, rng_seed=0))


def test_unknown_unit_errors():
    records = synth_scope(0.0, n_checkins=300)
    unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, "Nonexistent", REGION)
    with pytest.raises(DataError, match="not present"):
        run_null_model(records, unit, NullModelConfig(k=5, rng_seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        NullModelConfig(k=1)
    with pytest.raises(ValueError):
        NullModelConfig(confidence=1.0)


def test_venue_mode_null_model():
    records = synth_scope(0.0, n_checkins=600, seed=21)
    config = NullModelConfig(k=30, rng_seed=8)
    results = run_null_model_batch(records, AnalysisMode.VENUE, REGION, config)
    assert len(results) == len(np.unique(records.venue))
    assert all(res.delta_min <= res.delta_max for res in results)


def test_null_distribution_csv_bytes_match_a_row_per_cell_writer():
    records = synth_scope(0.0, n_checkins=300, n_subcats=6)
    results = run_null_model_batch(records, AnalysisMode.SUBCATEGORY, REGION,
                                   NullModelConfig(k=4, rng_seed=3))
    keys = ["plain", "a,b", 'say "hi"', "two\nlines", " padded ", ""]
    for res, key in zip(results, keys, strict=True):
        res.unit = AnalysisUnit(AnalysisMode.SUBCATEGORY, key, REGION)
    results[0].null_distribution[:3] = [0.0, -0.0, 1e-300]
    sink = io.StringIO()
    write_null_distribution_csv(results, sink)
    assert sink.getvalue() == row_per_cell_csv(results)


def test_null_distribution_csv_of_a_venue_batch_matches_a_row_per_cell_writer():
    # venue units of one subcategory draw from few counts, so many cells
    # share a value, which is formatted once
    records = synth_scope(0.0, n_checkins=200, n_subcats=6)
    results = run_null_model_batch(records, AnalysisMode.VENUE, REGION,
                                   NullModelConfig(k=50, rng_seed=3))
    cells = np.concatenate([res.null_distribution for res in results])
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
    for res in results:
        for i, value in enumerate(res.null_distribution):
            writer.writerow([res.unit.key, i, f"{value:.10g}"])
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
    for res in run_null_model_batch(records, AnalysisMode.SUBCATEGORY, REGION,
                                    config):
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


def test_null_distribution_csv_of_one_replicate_or_none():
    """A unit of one replicate is one line (one index, which itemgetter
    would not give as a tuple); a unit of none writes no line."""
    records = synth_scope(0.0, n_checkins=300, n_subcats=3)
    results = run_null_model_batch(records, AnalysisMode.SUBCATEGORY, REGION,
                                   NullModelConfig(k=4, rng_seed=3))
    for res, size in zip(results, [1, 0, 2], strict=True):
        res.null_distribution = res.null_distribution[:size]
    sink = io.StringIO()
    write_null_distribution_csv(results, sink)
    assert sink.getvalue() == row_per_cell_csv(results)
    assert len(sink.getvalue().splitlines()) == 1 + 1 + 2
