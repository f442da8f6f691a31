"""Workloads and metrics of the venuepref benchmark.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``); the benchmark's
tests check that the committed file matches it.

Each workload is a chain of ``venuepref`` CLI commands over generated
inputs. The two ``analyze`` workloads use the same layers in opposite
proportions: many units over few records (generative null model) against
few units over many records (gender-shuffle null model), so a gain for one
that costs the other shows up. ``regions-50`` has many small scopes and
never calls the null model; it carries the per-region costs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from gen import Scale

_CLI_SEED = "1"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: Scale
    quick_scale: Scale
    params: dict
    quick_params: dict
    commands: tuple  # argv templates; {field} comes from params and paths
    layers: tuple  # layers every run of the chain must reach

    def argvs(self, quick: bool) -> list[list[str]]:
        fields = dict(self.quick_params if quick else self.params,
                      checkins="checkins.csv", index="index.csv", out="out")
        return [[arg.format(**fields) for arg in cmd] for cmd in self.commands]

    def expect(self, quick: bool) -> dict:
        """What the artifact checks expect of this chain's outputs."""
        params = self.quick_params if quick else self.params
        return dict(params, regions=(self.quick_scale if quick
                                     else self.scale).regions)


def _analyze(mode: str, method: str, *flags: str) -> tuple:
    return ("analyze", "--input", "{checkins}", "--country", "Region-01",
            "--mode", mode, "--method", method, "--k", "{k}", *flags,
            "--seed", _CLI_SEED, "--out-dir", "{out}")


_ANALYZE_LAYERS = ("cli", "models", "filtering", "popularity", "nullmodel")

WORKLOADS = {w.name: w for w in [
    Workload(
        name="venue-800",
        why="800 venue units over 5k check-ins, generative null model: "
            "the per-unit popularity loop and the wide null matrix dominate",
        scale=Scale(regions=1, checkins_per_region=5_000, subcategories=20,
                    venues_per_subcategory=40, users_per_region=1_000),
        quick_scale=Scale(regions=1, checkins_per_region=2_000,
                          subcategories=5, venues_per_subcategory=8,
                          users_per_region=300),
        params={"k": 100}, quick_params={"k": 20},
        # about 6 check-ins per venue on skewed venue weights: without the
        # venue threshold nearly all 800 venues stay units
        commands=(_analyze("venue", "generative",
                           "--min-checkins-per-venue", "1"),),
        layers=_ANALYZE_LAYERS,
    ),
    Workload(
        name="bulk-50k",
        why="20 subcategory units over 50k check-ins, gender-shuffle null "
            "model: ingest, dedupe and per-record replicate cost dominate",
        scale=Scale(regions=1, checkins_per_region=50_000, subcategories=20,
                    venues_per_subcategory=50, users_per_region=2_500),
        quick_scale=Scale(regions=1, checkins_per_region=4_000,
                          subcategories=5, venues_per_subcategory=10,
                          users_per_region=400),
        params={"k": 500}, quick_params={"k": 50},
        commands=(_analyze("subcategory", "gender_shuffle"),),
        layers=_ANALYZE_LAYERS,
    ),
    Workload(
        name="regions-50",
        why="50 small regions through vectors, cluster and compare: "
            "per-region filter rescans, per-venue Gini inputs and the "
            "permutation baseline grow with region count",
        scale=Scale(regions=50, checkins_per_region=800, subcategories=10,
                    venues_per_subcategory=6, users_per_region=80),
        quick_scale=Scale(regions=6, checkins_per_region=400,
                          subcategories=5, venues_per_subcategory=6,
                          users_per_region=60),
        params={"cap": 600, "clusters": 4, "restarts": 10,
                "permutations": 20},
        quick_params={"cap": 300, "clusters": 2, "restarts": 2,
                      "permutations": 20},
        commands=(
            ("vectors", "--input", "{checkins}",
             "--max-checkins-per-region", "{cap}", "--seed", _CLI_SEED,
             "--out-dir", "{out}"),
            ("cluster", "--vectors", "{out}", "--k", "{clusters}",
             "--restarts", "{restarts}", "--seed", _CLI_SEED,
             "--out-dir", "{out}"),
            ("compare", "--vectors", "{out}", "--index", "{index}",
             "--all-anchors", "--permutations", "{permutations}",
             "--seed", _CLI_SEED, "--out-dir", "{out}"),
        ),
        layers=("cli", "models", "filtering", "preference", "clustering",
                "comparison"),
    ),
]}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


# Scaled to a reference speed (README.md has the spreads measured), the
# timings spread far less than their bounds; the bounds stay at the largest
# share the benchmark contract allows, because a host's speed can also
# change faster than the probes follow.
END_TO_END = [
    Metric("run_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("total_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
]

PER_LAYER = [
    Metric("cli.self_s", "s", "lower"),
    Metric("cli.artifact_bytes", "bytes", "lower"),
    Metric("models.ingest_s", "s", "lower"),
    Metric("models.rows", "count", "higher"),
    Metric("models.accept_ratio", "ratio", "higher"),
    Metric("models.us_per_row", "us", "lower"),
    Metric("filtering.busy_s", "s", "lower"),
    Metric("filtering.calls", "count", "lower"),
    Metric("filtering.records_scanned", "count", "lower"),
    Metric("filtering.keep_ratio", "ratio", "higher"),
    Metric("popularity.busy_s", "s", "lower"),
    Metric("popularity.units", "count", "higher"),
    Metric("popularity.us_per_unit", "us", "lower"),
    Metric("nullmodel.busy_s", "s", "lower"),
    Metric("nullmodel.write_s", "s", "lower"),
    Metric("nullmodel.cells", "count", "higher"),
    Metric("nullmodel.ns_per_record_replicate", "ns", "lower"),
    Metric("preference.busy_s", "s", "lower"),
    Metric("preference.vectors", "count", "higher"),
    Metric("preference.dims", "count", "higher"),
    Metric("comparison.busy_s", "s", "lower"),
    Metric("comparison.spearman_calls", "count", "higher"),
    Metric("comparison.us_per_spearman", "us", "lower"),
    Metric("clustering.busy_s", "s", "lower"),
    Metric("clustering.iterations", "count", "lower"),
    Metric("setup.import_numpy_s", "s", "lower"),
    Metric("setup.import_scipy_stats_s", "s", "lower"),
    Metric("setup.import_venuepref_s", "s", "lower"),
    Metric("trace.run_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
]

RUN_SECONDS = 40


def benchmark_json() -> str:
    """The text of BENCHMARK.json."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
