"""venuepref benchmark: run one workload through the real CLI and report it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick
    python3 perfbench/run.py --write-benchmark-json

Load model: closed loop, one client, nothing concurrent. A user runs one
CLI command at a time and every command is a fresh Python process, so each
command of a workload's chain runs in its own child process (child.py) and
pays the import cost as a real invocation does. Inputs are generated from
``--seed`` before any timing starts. Chains repeat while another chain of
the usual length still fits in ``--seconds`` (at least one runs).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced chains alternate, neither with speed
probes, and the last line reports the per-layer metrics, from the traced
chains and from an ``-X importtime`` probe. ``--quick`` runs every workload
once at a tiny scale, traced and untraced, with all checks and no timing
gate.

The speed of a shared host drifts, by up to 2x over minutes, so the
timings are brought to a reference speed with a probe that runs no
``venuepref`` code (probe.py): in every untraced command a fixed piece of
CPU work is timed right before and right after ``main``, outside the timed
interval. ``run_s`` and ``setup_s`` are the mean wall times of the run's
chains times the reference CPU-work time over the mean CPU-work time of
the run's probes. A change to the program moves these times as much as the
wall times; a slower machine moves neither. The wall times of every chain
are printed too. Means of whole runs, not medians of chains: each probe
samples the speed for a fraction of a second, and only their total over
the run tracks the chains' total well. README.md has the measurements
behind this.

Every command's artifacts are checked (checks.py) and digested; a digest
that differs between chains of one run is a failed operation. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted`` (commands run), ``failed`` (commands that exited non-zero or
failed a check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import checks
import gen
from workloads import (END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
                       benchmark_json)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench"
# A run must end within 180 s; commands still running at this point are
# killed and counted as failed.
HARD_LIMIT_S = 165.0
IMPORT_PROBES = 3
# probe.cpu_seconds() at the reference speed, the usual speed of a 2.1 GHz
# Xeon core of a 2-core VM
REFERENCE_CPU_S = 0.2
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so readings taken here and in
    # the child processes can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Runs one workload's command chain, checks every command's artifacts
    and keeps one record per command attempted."""

    def __init__(self, workload, workdir: Path, quick: bool, env: dict,
                 deadline: float):
        self.workload = workload
        self.dir = workdir
        self.argvs = workload.argvs(quick)
        self.expect = workload.expect(quick)
        self.env = env
        self.deadline = deadline
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}
        self.notes: list[str] = []

    def chain(self, mode: str) -> dict | None:
        """Run the chain once with child.py's ``mode`` and return its
        measurements, or None when a command failed (later commands read
        its outputs, so they are not attempted)."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        cmds = []
        for i, argv in enumerate(self.argvs):
            rec = self._command(i, argv, mode)
            cmds.append(rec)
            if rec["errors"]:
                return None
        chain = {"cmds": cmds, "run": sum(c["run"] for c in cmds),
                 "setup": sum(c["setup"] for c in cmds),
                 "rss_mb": max(c["rss_mb"] for c in cmds)}
        if mode == "trace":
            chain["layers"], self_by_layer = layer_metrics(chain)
            cmds[-1]["errors"] += self._trace_errors(chain, self_by_layer)
            if cmds[-1]["errors"]:
                return None
        return chain

    def _command(self, i: int, argv: list[str], mode: str) -> dict:
        stats_path = self.dir / f"stats{i}.json"
        stats_path.unlink(missing_ok=True)
        log_path = self.dir / f"cmd{i}.log"
        rec = {"command": argv[0], "errors": []}
        self.records.append(rec)
        with open(log_path, "wb") as log:
            t_spawn = now()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(stats_path),
                 mode, "--", *argv],
                cwd=self.dir, env=self.env, stdout=log,
                stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - now()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rec["errors"].append("killed at the benchmark's time limit")
                return rec
        if rc != 0 or not stats_path.exists():
            tail = log_path.read_text(errors="replace").strip()[-400:]
            rec["errors"].append(f"exit code {rc}: {tail}")
            return rec
        stats = json.loads(stats_path.read_text())
        if not Path(stats["venuepref_file"]).resolve().is_relative_to(SRC):
            rec["errors"].append(
                f"imported venuepref from {stats['venuepref_file']}")
        out = self.dir / "out"
        rec["errors"] += checks.check(argv[0], out, self.expect, self.notes)
        names = checks.ARTIFACTS[argv[0]]
        rec["errors"] += self._determinism(out, names)
        rec.update(
            setup=stats["imported"] - t_spawn,
            run=stats["end"] - stats["start"],
            rss_mb=stats["maxrss_kb"] / 1024,
            cpu_probe=stats["cpu_probe"],
            spans=stats["spans"],
            artifact_bytes=sum((out / n).stat().st_size
                               for n in names + ("run_manifest.json",)
                               if (out / n).exists()))
        return rec

    def _determinism(self, out: Path, names) -> list[str]:
        errors = []
        for name in names:
            if not (out / name).exists():
                continue  # reported by the artifact check
            digest = gen.sha256_file(out / name)
            if self.digests.setdefault(name, digest) != digest:
                errors.append(f"{name}: digest differs from an earlier "
                              "chain of this run")
        return errors

    def _trace_errors(self, chain: dict, self_by_layer: Counter) -> list[str]:
        errors = []
        missing = set(self.workload.layers) - set(self_by_layer)
        if missing:
            errors.append(f"trace: no span for layers {sorted(missing)}")
        covered = sum(self_by_layer.values())
        if abs(covered - chain["run"]) > 0.02 * chain["run"]:
            errors.append(f"trace: layer self times sum to {covered:.4f} s, "
                          f"traced run_s is {chain['run']:.4f} s")
        return errors

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["errors"])


def layer_metrics(chain: dict) -> tuple[dict, Counter]:
    """Per-layer metrics of one traced chain, and the self time of each
    layer that has spans. A span's self time is its duration minus its
    direct children's durations; spans come from one thread's call stack,
    so children never overlap."""
    self_layer: Counter = Counter()
    self_name: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for cmd in chain["cmds"]:
        spans = cmd["spans"]
        covered = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, layer, start, end, _, cnt), cov in zip(spans, covered):
            self_layer[layer] += end - start - cov
            self_name[name] += end - start - cov
            calls[name] += 1
            counts.update(cnt)

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    metrics = {
        "cli.self_s": self_layer["cli"],
        "cli.artifact_bytes": sum(c["artifact_bytes"] for c in chain["cmds"]),
        "models.ingest_s": self_name["ingest_checkins"],
        "models.rows": counts["rows"],
        "models.accept_ratio": per(counts["accepted"], counts["rows"]),
        "models.us_per_row": per(self_name["ingest_checkins"],
                                 counts["rows"], 1e6),
        "filtering.busy_s": self_layer["filtering"],
        "filtering.calls": calls["apply_filters"],
        "filtering.records_scanned": counts["scanned"],
        "filtering.keep_ratio": per(counts["kept"], counts["scanned"]),
        "popularity.busy_s": self_layer["popularity"],
        "popularity.units": counts["units"],
        "popularity.us_per_unit": per(self_layer["popularity"],
                                      counts["units"], 1e6),
        "nullmodel.busy_s": self_layer["nullmodel"],
        "nullmodel.write_s": self_name["write_null_distribution_csv"],
        "nullmodel.cells": counts["cells"],
        "nullmodel.ns_per_record_replicate": per(
            self_name["run_null_model_batch"], counts["record_replicates"],
            1e9),
        "preference.busy_s": self_layer["preference"],
        "preference.vectors": counts["vectors"],
        "preference.dims": per(counts["dim_total"], counts["vectors"]),
        "comparison.busy_s": self_layer["comparison"],
        "comparison.spearman_calls": counts["spearman_calls"],
        "comparison.us_per_spearman": per(self_layer["comparison"],
                                          counts["spearman_calls"], 1e6),
        "clustering.busy_s": self_layer["clustering"],
        "clustering.iterations": counts["iterations"],
        "trace.run_s": chain["run"],
    }
    return metrics, self_layer


def import_breakdown(env: dict, cwd: Path, timeout: float) -> dict:
    """Import numpy, then scipy.stats, then venuepref.cli in one fresh
    process under ``-X importtime``. Each value is the cumulative time of
    that top-level import, so scipy.stats excludes numpy and venuepref
    excludes both. (Imported the way venuepref.comparison does it, through
    ``from scipy import stats``, scipy.stats gets no line of its own.)"""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import numpy; import scipy.stats; import venuepref.cli"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
        check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <name>", where nested
        # imports indent the name by two more spaces per level
        parts = line.split("|")
        if (len(parts) == 3 and parts[1].strip().isdigit()
                and parts[2][:1] == " " and parts[2][1:2] != " "):
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {"setup.import_numpy_s": cumulative["numpy"],
            "setup.import_scipy_stats_s": cumulative["scipy.stats"],
            "setup.import_venuepref_s": cumulative["venuepref.cli"]}


def median_of(dicts: list[dict], names) -> dict:
    return {n: statistics.median(d[n] for d in dicts) for n in names}


def speed_scale(chains: list[dict]) -> float:
    """The factor that brings the run's wall times to the reference speed."""
    cpu = [t for c in chains for cmd in c["cmds"] for t in cmd["cpu_probe"]]
    return REFERENCE_CPU_S / statistics.fmean(cpu)


def end_to_end(chains: list[dict]) -> dict:
    scale = speed_scale(chains)
    setup = statistics.fmean(c["setup"] for c in chains) * scale
    run = statistics.fmean(c["run"] for c in chains) * scale
    return {"run_s": run, "setup_s": setup, "total_s": setup + run,
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in chains)}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "venuepref").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> str:
    versions = " ".join(f"{pkg} {metadata.version(pkg)}"
                        for pkg in ("numpy", "scipy"))
    return (f"python {platform.python_version()} {versions} "
            f"nproc {os.cpu_count()} commit {git_commit()} "
            f"src_sha256 {source_digest()}")


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 quick: bool, deadline: float) -> dict:
    """Generate the inputs, run the chain until the time is used, and
    return the measurements. Nothing before the first chain is timed."""
    workdir = WORK / (f"quick-{workload.name}" if quick
                      else f"{workload.name}-s{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scale = workload.quick_scale if quick else workload.scale
    inputs = {"checkins.csv": gen.write_checkins(workdir / "checkins.csv",
                                                 scale, seed)}
    if any("{index}" in arg for cmd in workload.commands for arg in cmd):
        inputs["index.csv"] = gen.write_index(workdir / "index.csv",
                                              scale.regions, seed)
    env = child_env()
    # Compile the program's bytecode once, as any earlier invocation would.
    subprocess.run([sys.executable, "-c", "import venuepref.cli"], cwd=workdir,
                   env=env, check=True, capture_output=True,
                   timeout=max(1.0, deadline - now()))

    runner = Runner(workload, workdir, quick, env, deadline)
    untraced, traced = [], []
    start, durations = now(), []
    # Speed probes serve the end-to-end metrics; a --trace 1 run leaves them
    # out, so its untraced and traced commands differ only by the tracing.
    mode = "plain" if trace and not quick else "probe"
    while True:
        t0 = now()
        chain = runner.chain(mode)
        if chain is not None:
            untraced.append(chain)
        if trace:
            chain = runner.chain("trace")
            if chain is not None:
                traced.append(chain)
        durations.append(now() - t0)
        # stop before a chain of the usual length would overrun the time
        typical = statistics.fmean(durations)
        if quick or now() - start + typical > seconds or now() > deadline:
            break
    imports = [import_breakdown(env, workdir, max(1.0, deadline - now()))
               for _ in range(1 if quick or not trace else IMPORT_PROBES)]
    result = {"inputs": inputs, "runner": runner, "untraced": untraced,
              "traced": traced, "imports": imports}
    if runner.failed == 0:
        shutil.rmtree(workdir)
    return result


def layer_summary(result: dict) -> dict:
    names = [m.name for m in PER_LAYER]
    layers = median_of([c["layers"] for c in result["traced"]],
                       [n for n in names if n in result["traced"][0]["layers"]])
    layers.update(median_of(result["imports"], result["imports"][0]))
    untraced_run = statistics.median(c["run"] for c in result["untraced"])
    layers["trace.overhead_s"] = layers["trace.run_s"] - untraced_run
    return {n: layers[n] for n in names}


def report(name: str, result: dict) -> dict:
    """Print the run's inputs, digests, failures and metrics; return the
    metrics by name."""
    runner = result["runner"]
    for fname, info in result["inputs"].items():
        extra = " ".join(f"{k} {v}" for k, v in info.items()
                         if k not in ("rows", "sha256"))
        print(f"# input {fname} rows {info['rows']} sha256 {info['sha256']}"
              + (f" {extra}" if extra else ""))
    for artifact, digest in runner.digests.items():
        print(f"# artifact {artifact} sha256 {digest}")
    for note in dict.fromkeys(runner.notes):
        print(f"# NOTE {name}: {note}")
    for rec in runner.records:
        for err in rec["errors"]:
            print(f"# FAILED {name} {rec['command']}: {err}")
    metrics = {}
    chains = result["untraced"]
    for key in ("run", "setup"):
        print(f"# {name}: wall {key}_s per untraced chain "
              + " ".join(f"{c[key]:.3f}" for c in chains))
    if chains and chains[0]["cmds"][0]["cpu_probe"]:
        print(f"# {name}: end-to-end, {len(chains)} untraced chains")
        metrics.update(end_to_end(chains))
        print(f"# {name}: cpu probes per chain " + " ".join(
            "/".join(f"{t:.3f}" for cmd in c["cmds"] for t in cmd["cpu_probe"])
            for c in chains))
        print(f"# {name}: speed scale {speed_scale(chains):.3f}")
    if result["traced"] and result["untraced"]:
        print(f"# {name}: per-layer, median of {len(result['traced'])} traced"
              f" chains and {len(result['imports'])} import probes")
        metrics.update(layer_summary(result))
    for metric, value in metrics.items():
        print(f"{name}.{metric:<36} {value:>14.6f} {UNITS[metric]}")
    print(f"{name}.failed_ops {runner.failed}/{runner.attempted} commands")
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="every workload once at tiny scale, no timing gate")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the repository root")
    args = p.parse_args(argv)
    if not (args.quick or args.write_benchmark_json or args.workload):
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(benchmark_json())
        return 0
    if not (SRC / "venuepref" / "cli.py").is_file():
        print(f"error: no venuepref sources at {SRC}", file=sys.stderr)
        return 2
    deadline = now() + HARD_LIMIT_S
    print(f"# env {environment()}")
    if args.quick:
        names, trace = list(WORKLOADS), True
    else:
        names, trace = [args.workload], bool(args.trace)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        print(f"# workload {name} seed {args.seed} trace {int(trace)}"
              f"{' quick' if args.quick else ''}")
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  trace, args.quick, deadline)
        except subprocess.SubprocessError as exc:
            stderr = getattr(exc, "stderr", None) or b""
            if isinstance(stderr, bytes):
                stderr = stderr.decode(errors="replace")
            print(f"error: {exc}\n{stderr[-2000:]}", file=sys.stderr)
            return 1
        measured = report(name, result)
        if args.quick:
            metrics.update({f"{name}.{m}": {"value": v, "unit": UNITS[m]}
                            for m, v in measured.items()})
        else:
            wanted = PER_LAYER if trace else END_TO_END
            metrics = {m.name: {"value": measured.get(m.name, 0.0),
                                "unit": m.unit} for m in wanted}
        attempted += result["runner"].attempted
        failed += result["runner"].failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
