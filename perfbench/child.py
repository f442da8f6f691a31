"""Run one ``venuepref`` CLI command in a fresh process and record its timing.

Usage: child.py STATS_JSON MODE(plain|probe|trace) -- CLI_ARGS...

The parent notes CLOCK_MONOTONIC just before it spawns this process; this
process notes the same clock right after ``venuepref.cli`` is imported and
around ``venuepref.cli.main(argv)``. CLOCK_MONOTONIC is one system-wide
clock on Linux, so the parent can subtract the readings of both processes.

With MODE=probe the machine-speed probe (``probe.cpu_seconds``) runs right
before and right after ``main``, outside the timed interval, so the parent
can bring the command's time to a reference speed.

With MODE=trace every function that ``venuepref.cli`` imports from another
``venuepref`` module is rebound, in the ``venuepref.cli`` namespace only, to
a wrapper that records a span (name, layer, start, end, parent) and a few
counts taken from the call's arguments and result. The command path is
otherwise the one users run, and no source file changes. Spans stay in
memory and are written with the stats when the command ends.
"""

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _counts(name, args, result) -> dict:
    """Work counts for the calls whose size the per-layer metrics divide by."""
    if name == "ingest_checkins":
        report = result[1]
        return {"rows": report.total_lines, "accepted": report.accepted}
    if name == "apply_filters":
        stages = result[1].stages
        return {"scanned": stages[0]["in"], "kept": stages[-1]["out"]}
    if name == "popularity_table":
        return {"units": len(result)}
    if name == "run_null_model_batch":
        k = args[3].k
        return {"cells": k * len(result), "record_replicates": k * len(args[0])}
    if name == "build_preference_vector":
        return {"vectors": 1, "dim_total": len(result.values)}
    if name == "compare_with_index":
        return {"spearman_calls": 1}
    if name == "random_baseline":
        return {"spearman_calls": result.n_permutations}
    if name == "cluster_regions":
        return {"iterations": result.iterations}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, counts]
        self._stack = []

    def run(self, name, layer, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, _now(), None, parent, {}]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = _now()
            self._stack.pop()
        span[5] = _counts(name, args, result)
        return result

    def wrap(self, name, layer, fn):
        def traced(*args, **kwargs):
            return self.run(name, layer, fn, *args, **kwargs)
        return traced

    def install(self, cli) -> None:
        for name, obj in list(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if (callable(obj) and not isinstance(obj, type)
                    and module.startswith("venuepref.")
                    and module != cli.__name__):
                setattr(cli, name, self.wrap(name, module.split(".")[-1], obj))


def main() -> int:
    stats_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "probe", "trace"):
        print("usage: child.py STATS_JSON MODE(plain|probe|trace) -- "
              "CLI_ARGS...", file=sys.stderr)
        return 2
    import venuepref.cli as cli
    t_imported = _now()
    tracer = Tracer() if mode == "trace" else None
    cpu_probe = []
    if tracer is not None:
        tracer.install(cli)
        t_start = _now()
        rc = tracer.run("main", "cli", cli.main, argv)
        t_end = _now()
    elif mode == "probe":
        import probe
        cpu_probe.append(probe.cpu_seconds())
        t_start = _now()
        rc = cli.main(argv)
        t_end = _now()
        cpu_probe.append(probe.cpu_seconds())
    else:
        t_start = _now()
        rc = cli.main(argv)
        t_end = _now()
    stats = {
        "rc": rc,
        "imported": t_imported,
        "start": t_start,
        "end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cpu_probe": cpu_probe,
        "venuepref_file": cli.__file__,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
