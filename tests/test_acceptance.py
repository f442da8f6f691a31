"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import io
import math
import time

import numpy as np
import pytest

from venuepref.clustering import cluster_regions
from venuepref.comparison import compare_regions, spearman
from venuepref.filtering import FilterConfig
from venuepref.models import (
    Granularity,
    IndexTable,
    load_bundled_index,
    write_checkins,
)
from venuepref.nullmodel import (
    Direction,
    NullMethod,
    NullModelConfig,
)
from venuepref.popularity import AnalysisMode, signed_difference
from venuepref.preference import PreferenceVector, gini
from venuepref.synth import SubcategorySpec, SynthSpec, generate

from checkin_records import to_records, to_table
from conftest import by_key, make_record
from one_region import (
    RegionSelector,
    apply_filters,
    popularity_table,
    run_null_model_batch,
)

COUNTRY_ORDER = [
    "Brazil", "France", "Germany", "Japan", "Kuwait", "Malaysia", "Mexico",
    "Saudi Arabia", "South Korea", "Spain", "Thailand", "Turkey",
    "United Arab Emirates", "United Kingdom", "United States",
]

# published distance vectors for the Brazil anchor (Brazil itself first)
D1_BRAZIL = [0, 0.369, 0.416, 0.324, 0.070, 0.248, 0.084, 0.173, 0.332,
             0.362, 0.077, 0.098, 0.225, 0.280, 0.177]
D2_BRAZIL = [0, 0.754, 0.757, 0.414, 0.556, 0.328, 0.249, 0.563, 0.795,
             0.73, 0.324, 0.379, 0.795, 0.601, 0.378]

REGION = RegionSelector(Granularity.COUNTRY, "Synthland")


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def synth_records(skews, n_checkins, seed, n_venues=4, n_users=None):
    subcats = [
        SubcategorySpec(name=f"S{i:02d}", category="Food", n_venues=n_venues,
                        base_weight=1.0, gender_skew=s)
        for i, s in enumerate(skews)
    ]
    spec = SynthSpec(n_users=n_users or max(100, n_checkins // 4),
                     female_fraction=0.5, subcategories=subcats,
                     n_checkins=n_checkins, region_name="Synthland",
                     rng_seed=seed)
    return generate(spec)


def test_criterion_1_appendix_a_distances():
    start = time.perf_counter()
    gii = load_bundled_index("GII")
    d1 = [abs(gii.entries["Brazil"] - gii.entries[c]) for c in COUNTRY_ORDER]
    elapsed = time.perf_counter() - start
    exact = all(round(a, 3) == round(b, 3) for a, b in zip(d1, D1_BRAZIL))
    report(1, exact and elapsed < 1.0,
           f"D1_Brazil matches at 3 decimals, {elapsed:.3f}s")


def test_criterion_2_table4_spot_check():
    start = time.perf_counter()
    rho, p = spearman(D1_BRAZIL[1:], D2_BRAZIL[1:])
    elapsed = time.perf_counter() - start
    ok = abs(rho - 0.665) <= 0.02 and abs(p - 0.011) <= 0.005 and elapsed < 1.0
    report(2, ok, f"rho={rho:.4f} p={p:.4f} ({elapsed:.3f}s)")


def test_criterion_3_gini_exactness():
    def lorenz_gini(x):
        arr = np.sort(np.asarray(x, dtype=float))
        cum = np.insert(np.cumsum(arr), 0, 0.0) / arr.sum()
        return 1.0 - 2.0 * np.trapezoid(cum, dx=1.0 / arr.size)

    ok = (gini([3.0] * 7) == pytest.approx(0.0, abs=1e-15)
          and gini([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)
          and gini([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 9.0, abs=1e-15))
    rng = np.random.default_rng(314)
    worst_oracle = 0.0
    worst_scale = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        x = rng.random(n) * rng.choice([0.01, 1.0, 1e4])
        if x.sum() == 0:
            continue
        g = gini(x)
        worst_oracle = max(worst_oracle, abs(g - lorenz_gini(x)))
        for c in (1e-3, 7.0, 1e5):
            worst_scale = max(worst_scale, abs(gini(c * x) - g))
    ok = ok and worst_oracle <= 1e-9 and worst_scale <= 1e-12
    report(3, ok, f"max oracle dev {worst_oracle:.2e}, "
                  f"max scale dev {worst_scale:.2e}")


def test_criterion_4_null_model_calibration():
    start = time.perf_counter()
    flagged = 0
    total = 0
    for ds in range(10):
        records, _ = synth_records([0.0] * 50, n_checkins=20000, seed=2000 + ds)
        results = run_null_model_batch(records, AnalysisMode.SUBCATEGORY,
                                       REGION.name,
                                       NullModelConfig(k=100, confidence=0.99,
                                                       rng_seed=1000 + ds))
        flagged += int(results.significant.sum())
        total += len(results)
    elapsed = time.perf_counter() - start
    rate = flagged / total
    report(4, total >= 500 and rate <= 0.03 and elapsed < 120.0,
           f"false-positive rate {rate:.3f} over {total} units "
           f"({elapsed:.1f}s)")


def test_criterion_5_null_model_power():
    detected = 0
    agree = 0
    planted_sizes = []
    for trial in range(100):
        records, _ = synth_records([0.8, 0, 0, 0, 0], n_checkins=2500,
                                   seed=5000 + trial)
        planted_sizes.append(
            sum(1 for r in to_records(records) if r.subcategory == "S00"))
        verdicts = {}
        for method in NullMethod:
            config = NullModelConfig(k=100, method=method,
                                     rng_seed=6000 + trial)
            res = by_key(run_null_model_batch(records, AnalysisMode.SUBCATEGORY,
                                              REGION.name, config), "S00")
            verdicts[method] = (res.significant, res.direction)
        gen = verdicts[NullMethod.GENERATIVE]
        if gen == (True, Direction.MALE):
            detected += 1
        if verdicts[NullMethod.GENERATIVE] == verdicts[NullMethod.GENDER_SHUFFLE]:
            agree += 1
    ok = (min(planted_sizes) >= 200 and detected >= 95 and agree >= 95)
    report(5, ok, f"detected {detected}/100, methods agree {agree}/100, "
                  f"planted size >= {min(planted_sizes)}")


def test_criterion_6_difference_metric_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        pm, pf = rng.random(2)
        d = signed_difference(pm, pf)
        oracle = abs(pm - pf) / math.hypot(1.0, -1.0)
        worst = max(worst, abs(abs(d) - oracle))
    # sign convention: female-heavy units are negative, male-heavy positive
    records = ([make_record(user=f"f{i}", gender="female", venue="v1",
                            subcat="FemSpot") for i in range(6)]
               + [make_record(user=f"m{i}", gender="male", venue="v2",
                              subcat="MaleSpot") for i in range(6)])
    points = popularity_table(to_table(records), AnalysisMode.SUBCATEGORY, "BR")
    fem, mal = by_key(points, "FemSpot"), by_key(points, "MaleSpot")
    ok = worst <= 1e-12 and fem.d < 0 < mal.d
    report(6, ok, f"max |d| deviation {worst:.2e}; signs "
                  f"fem={fem.d:.3f} male={mal.d:.3f}")


def adjusted_rand_index(labels_a, labels_b):
    """Contingency-table ARI, computed from pair counts."""
    pairs = lambda n: n * (n - 1) // 2
    a_groups = {}
    b_groups = {}
    joint = {}
    for x, y in zip(labels_a, labels_b):
        a_groups[x] = a_groups.get(x, 0) + 1
        b_groups[y] = b_groups.get(y, 0) + 1
        joint[(x, y)] = joint.get((x, y), 0) + 1
    n = len(labels_a)
    sum_ab = sum(pairs(c) for c in joint.values())
    sum_a = sum(pairs(c) for c in a_groups.values())
    sum_b = sum(pairs(c) for c in b_groups.values())
    expected = sum_a * sum_b / pairs(n)
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ab - expected) / (max_index - expected)


def test_criterion_7_clustering_recovery():
    rng = np.random.default_rng(2024)
    vectors = []
    truth = []
    for i in range(6):
        values = np.concatenate([[1.0], rng.random(5) * 0.05])
        vectors.append(PreferenceVector(
            region=f"A{i}",
            dims=[f"d{j}" for j in range(6)], values=values))
        truth.append(0)
    for i in range(6):
        values = np.concatenate([[0.02, 1.0], rng.random(4) * 0.05])
        vectors.append(PreferenceVector(
            region=f"B{i}",
            dims=[f"d{j}" for j in range(6)], values=values))
        truth.append(1)
    names = [v.region for v in vectors]
    all_ari_one = True
    scale_ok = True
    for seed in range(20):
        result = cluster_regions(vectors, k=2, seed=seed)
        labels = [result.assignments[n] for n in names]
        if adjusted_rand_index(labels, truth) != 1.0:
            all_ari_one = False
        scales = np.random.default_rng(seed).uniform(0.5, 20.0, len(vectors))
        scaled = [PreferenceVector(region=v.region, dims=v.dims,
                                   values=v.values * s)
                  for v, s in zip(vectors, scales)]
        if cluster_regions(scaled, k=2, seed=seed).assignments != \
                result.assignments:
            scale_ok = False
    report(7, all_ari_one and scale_ok,
           "ARI = 1 and scale-invariant across 20 seeds")


def test_criterion_8_filter_protocol():
    records = []
    # venue below the five-check-in threshold
    records += [make_record(user=f"u{i}", venue="tiny", subcat="Café")
                for i in range(4)]
    # duplicate user at one venue
    records += [make_record(user="dup", venue="v1", subcat="Café")
                for _ in range(3)]
    records += [make_record(user=f"a{i}", venue="v1", subcat="Café")
                for i in range(4)]
    records += [make_record(user=f"b{i}", venue="v2", subcat="Café")
                for i in range(5)]
    # subcategory with a single qualifying venue
    records += [make_record(user=f"c{i}", venue="solo", subcat="Lonely")
                for i in range(6)]
    # disallowed category
    records += [make_record(user=f"t{i}", venue="tv", subcat="Hotel",
                            category="Travel") for i in range(6)]
    region = RegionSelector(Granularity.COUNTRY, "BR")
    config = FilterConfig()
    out, _ = apply_filters(to_table(records), region, config)

    venue_counts = {}
    subcat_venues = {}
    pairs = set()
    ok = True
    for rec in to_records(out):
        venue_counts[rec.venue_id] = venue_counts.get(rec.venue_id, 0) + 1
        subcat_venues.setdefault(rec.subcategory, set()).add(rec.venue_id)
        ok = ok and rec.category in config.allowed_categories
        pair = (rec.user_id, rec.venue_id)
        ok = ok and pair not in pairs
        pairs.add(pair)
    ok = ok and all(v >= 5 for v in venue_counts.values())
    ok = ok and all(len(v) >= 2 for v in subcat_venues.values())
    ok = ok and "tiny" not in venue_counts and "Lonely" not in subcat_venues
    twice, _ = apply_filters(out, region, config)
    ok = ok and to_records(twice) == to_records(out)
    report(8, ok, f"{len(out)} records satisfy all thresholds; idempotent")


def test_criterion_9_determinism():
    details = []
    ok = True

    # synth + serialization
    records_a, coordinates_a = synth_records([0.0] * 5, 1500, seed=31)
    records_b, coordinates_b = synth_records([0.0] * 5, 1500, seed=31)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_checkins(records_a, coordinates_a, buf_a)
    write_checkins(records_b, coordinates_b, buf_b)
    same = buf_a.getvalue() == buf_b.getvalue()
    ok &= same
    details.append(f"synth={same}")

    # down-sampling cap
    region = RegionSelector(Granularity.COUNTRY, "Synthland")
    config = FilterConfig(min_checkins_per_venue=1,
                          min_venues_per_subcategory=1,
                          max_checkins_per_region=800, rng_seed=7)
    cap_a, _ = apply_filters(records_a, region, config)
    cap_b, _ = apply_filters(records_b, region, config)
    same = to_records(cap_a) == to_records(cap_b)
    ok &= same
    details.append(f"cap={same}")

    # null model, both methods
    for method in NullMethod:
        nm_config = NullModelConfig(k=40, method=method, rng_seed=13)
        res_a = run_null_model_batch(records_a, AnalysisMode.SUBCATEGORY,
                                     region.name, nm_config)
        res_b = run_null_model_batch(records_b, AnalysisMode.SUBCATEGORY,
                                     region.name, nm_config)
        same = np.array_equal(res_a.null, res_b.null)
        ok &= same
        details.append(f"null[{method.value}]={same}")

    # clustering
    rng = np.random.default_rng(3)
    vectors = [PreferenceVector(
        region=f"r{i}",
        dims=[f"d{j}" for j in range(4)], values=rng.random(4) + 0.01)
        for i in range(10)]
    cl_a = cluster_regions(vectors, k=3, seed=21)
    cl_b = cluster_regions(vectors, k=3, seed=21)
    same = (cl_a.assignments == cl_b.assignments
            and np.array_equal(cl_a.centroids, cl_b.centroids))
    ok &= same
    details.append(f"cluster={same}")

    # baseline permutations
    index = IndexTable("T", {f"r{i}": (i + 1) / 12 for i in range(10)})
    vec_map = {v.region: v for v in vectors}
    [(_, base_a)] = compare_regions(vec_map, index, ["r0"], n_permutations=60,
                                    seed=5)
    [(_, base_b)] = compare_regions(vec_map, index, ["r0"], n_permutations=60,
                                    seed=5)
    same = np.array_equal(base_a.rho_samples, base_b.rho_samples)
    ok &= same
    details.append(f"baseline={same}")

    report(9, ok, " ".join(details))
