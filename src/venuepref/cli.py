"""Command-line pipeline orchestration.

Commands: ingest-check, analyze, vectors, cluster, compare, synth.
``main`` hands every command one ``Manifest``, which writes its artifacts
atomically and then a run_manifest.json recording inputs, seeds, outputs,
versions and whether the run succeeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import secrets
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .models import (
    DataError,
    Granularity,
    ingest_checkins,
    ingest_index_table,
    load_bundled_index,
    write_checkins,
)
from .filtering import FilterConfig, filter_regions
from .popularity import AnalysisMode, ScopeIndex, popularity_table, write_popularity_csv
from .nullmodel import (
    NullMethod,
    NullModelConfig,
    significance,
    write_null_distribution_csv,
    write_significance_json,
)
from .preference import (
    build_preference_vectors,
    collect_global_dims,
    read_vectors_csv,
    write_vectors_csv,
)
from .clustering import cluster_regions
from .comparison import compare_regions, write_comparison_csv
from .synth import SynthSpec, generate


def _atomic_write(path: Path, write) -> None:
    """Call ``write`` with a new text file, which then replaces ``path`` whole;
    if ``write`` raises, the file is removed and ``path`` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fh = open(tmp, "x", encoding="utf-8", newline="")  # new; mode 0o666 less the umask
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_text(value, **options):
    """A writer of ``value`` as indented JSON and a final newline."""
    return lambda sink: sink.write(json.dumps(value, indent=2, **options) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, args: argparse.Namespace, out_dir: Path | None):
        self.out_dir = out_dir
        self.data = {
            "command": args.subcommand,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k != "func" and not k.startswith("_")},
            "inputs": {},
            "seeds": {},
            "artifacts": [],
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__, "venuepref": __version__},
            "started_at": datetime.now(timezone.utc).isoformat(),
        }

    def add_input(self, path: Path) -> str:
        """Record an input file by its sha256, which it returns."""
        digest = self.data["inputs"][str(path)] = _sha256(path)
        return digest

    def add_seed(self, stage: str, seed: int) -> None:
        self.data["seeds"][stage] = seed

    def write_artifact(self, name: str, content) -> None:
        """Write ``content`` atomically as artifact ``name``: a function that
        writes text to a sink, which it is handed the open file as, or a
        JSON value (written indented)."""
        path = self.out_dir / name
        _atomic_write(path, content if callable(content) else _json_text(content))
        self.data["artifacts"].append(str(path))

    def finish(self, error: Exception | None = None) -> None:
        """Write run_manifest.json, if the run wrote any artifact. A run that
        failed after writing some is recorded with its error, so the manifest
        never describes artifacts of an earlier run."""
        if not self.data["artifacts"]:
            return
        self.data["status"] = "ok" if error is None else "failed"
        if error is not None:
            self.data["error"] = str(error)
        self.data["finished_at"] = datetime.now(timezone.utc).isoformat()
        _atomic_write(self.out_dir / "run_manifest.json",
                      _json_text(self.data, default=str))


def _out_dir(args) -> Path | None:
    """--out-dir, else the current directory; None for ingest-check, which
    writes no artifact."""
    if "out_dir" in vars(args):
        return Path(args.out_dir or ".")
    return None


def _config_argv(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list[str]) -> list[str]:
    """argv with the --config file's settings put in front of the flags, so
    the same parser converts and checks them and the flags win."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        parser.error(f"config file {args.config} cannot be read: {exc.strerror}")
    except ValueError as exc:  # a JSON or a UTF-8 decoding error
        parser.error(f"config file {args.config} is not valid UTF-8 JSON: {exc}")
    if not isinstance(config, dict):
        parser.error(f"config file {args.config} must hold a JSON object")
    tokens = []
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr in ("func", "subcommand", "config") or not hasattr(args, attr):
            parser.error(f"unknown key {key!r} in config file {args.config} "
                         f"for {args.subcommand}")
        if isinstance(value, (list, dict)):
            parser.error(f"config key {key!r} must be a string, number or boolean")
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return [argv[0], *tokens, *argv[1:]]


def _at_least(minimum: int):
    """argparse type: an int no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _probability(text: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _file_name(text: str) -> str:
    """argparse type: a file name with no directory part, other than the
    run_manifest.json that every run writes beside its artifacts."""
    if text in ("", ".", "..", "run_manifest.json") or os.path.basename(text) != text:
        raise argparse.ArgumentTypeError(
            f"must be a plain file name other than run_manifest.json, got {text!r}")
    return text


def _filter_config(args) -> FilterConfig:
    categories = frozenset(c.strip() for c in args.categories.split(",")) \
        if args.categories else FilterConfig().allowed_categories
    return FilterConfig(
        min_checkins_per_venue=args.min_checkins_per_venue,
        dedupe_user_venue=not args.no_dedupe,
        allowed_categories=categories,
        min_venues_per_subcategory=args.min_venues_per_subcategory,
        max_checkins_per_region=args.max_checkins_per_region,
        rng_seed=args.seed,
    )


def _region_from_args(args) -> tuple[Granularity, str]:
    if args.country and args.city:
        raise DataError("pass either --country or --city, not both")
    if args.country:
        return Granularity.COUNTRY, args.country
    if args.city:
        return Granularity.CITY, args.city
    raise DataError("a region is required: pass --country or --city")


def _read_input(args):
    path = Path(args.input)
    with open(path, "rb") as fh:
        table, report = ingest_checkins(fh, args.format)
    return path, table, report


def cmd_ingest_check(args, manifest: Manifest) -> None:
    _, _, report = _read_input(args)
    json.dump(report.as_dict(), sys.stdout, indent=2)
    print()


def cmd_analyze(args, manifest: Manifest) -> None:
    granularity, name = _region_from_args(args)
    mode = AnalysisMode(args.mode)
    within = mode is AnalysisMode.VENUE_WITHIN_SUBCATEGORY
    if within and not args.subcategory:
        raise DataError("--subcategory is required for mode venue_within_subcategory")
    if not within and args.subcategory is not None:
        raise DataError(f"--subcategory is only valid for mode "
                        f"venue_within_subcategory, not {mode.value}")

    path, table, _ = _read_input(args)
    manifest.add_input(path)
    manifest.add_seed("filter", args.seed)
    manifest.add_seed("null_model", args.seed)

    filtered, _, (filter_report,) = filter_regions(table, granularity, [name],
                                                   _filter_config(args))
    manifest.write_artifact("filter_report.json", filter_report.as_dict())

    index = ScopeIndex(filtered, mode, name, args.subcategory)
    manifest.write_artifact("popularity.csv",
                            partial(write_popularity_csv, popularity_table(index)))

    config = NullModelConfig(k=args.k, confidence=args.confidence,
                             method=NullMethod(args.method), rng_seed=args.seed)
    verdicts = significance(index, config)
    manifest.write_artifact("significance.json",
                            partial(write_significance_json, verdicts))
    manifest.write_artifact("null_distribution.csv",
                            partial(write_null_distribution_csv, verdicts))


def cmd_vectors(args, manifest: Manifest) -> None:
    path, table, _ = _read_input(args)
    source_sha256 = manifest.add_input(path)
    manifest.add_seed("filter", args.seed)

    granularity = Granularity(args.granularity)
    if args.regions:
        # a repeated name is one region, in vectors.csv and in the manifest
        names = list(dict.fromkeys(n.strip() for n in args.regions.split(",")))
    else:  # an ingested table's value tables hold the values its rows use
        names = table.countries if granularity is Granularity.COUNTRY else table.cities
    if not names:
        raise DataError("no regions found in the input")

    # a name the input lacks matches none of its rows, and filter_regions says so
    kept, region, reports = filter_regions(table, granularity, names,
                                           _filter_config(args))
    manifest.data["filter_reports"] = {name: report.stages
                                       for name, report in zip(names, reports)}

    dims = collect_global_dims(kept)
    if not dims:
        raise DataError("no region keeps a check-in after filtering, so the "
                        "vectors would have no dimension")
    empty = [name for name, report in zip(names, reports)
             if not report.stages[-1]["out"]]
    if empty:  # cluster and compare refuse an all-zero vector
        more = f" and {len(empty) - 5} more" if len(empty) > 5 else ""
        raise DataError(f"{len(empty)} of {len(names)} regions are left with "
                        f"no check-in after filtering, so their vectors would "
                        f"be all zero: {empty[:5]}{more}")
    vectors = build_preference_vectors(kept, region, names, dims)

    manifest.write_artifact("vectors.csv", partial(write_vectors_csv, vectors))
    manifest.write_artifact("vectors_manifest.json", {
        "granularity": granularity.value,
        "regions": names,
        "dims": dims,
        "source": str(path),
        "source_sha256": source_sha256,
        "filter_seed": args.seed,
    })


def _load_vectors(path_arg: str):
    path = Path(path_arg)
    if path.is_dir():
        path = path / "vectors.csv"
    with open(path, "rb") as fh:
        return path, read_vectors_csv(fh)


def cmd_cluster(args, manifest: Manifest) -> None:
    path, vectors = _load_vectors(args.vectors)
    manifest.add_input(path)
    manifest.add_seed("kmeans", args.seed)
    result = cluster_regions(list(vectors.values()), k=args.k, seed=args.seed,
                             max_iter=args.max_iter, restarts=args.restarts)
    manifest.write_artifact("clusters.json", result.as_dict())


def _load_index(args, manifest: Manifest):
    """The bundled index named, or the index file, recorded as an input."""
    if args.index in ("GII", "HDI"):
        return load_bundled_index(args.index)
    path = Path(args.index)
    name = args.index_name or path.stem.upper()
    with open(path, "rb") as fh:
        index = ingest_index_table(fh, index_name=name)
    manifest.add_input(path)
    return index


def cmd_compare(args, manifest: Manifest) -> None:
    if args.anchor is not None and args.all_anchors:
        raise DataError("pass either --anchor NAME or --all-anchors, not both")
    if not (args.anchor or args.all_anchors):
        raise DataError("pass --anchor NAME or --all-anchors")
    if args.index_name is not None and args.index in ("GII", "HDI"):
        raise DataError(f"--index-name is only valid for an index file, "
                        f"not the bundled {args.index}")

    path, vectors = _load_vectors(args.vectors)
    manifest.add_input(path)
    manifest.add_seed("baseline", args.seed)
    index = _load_index(args, manifest)
    anchors = sorted(vectors) if args.all_anchors else [args.anchor]
    rows = compare_regions(vectors, index, anchors,
                           n_permutations=args.permutations, seed=args.seed)
    manifest.write_artifact("comparison.csv", partial(write_comparison_csv, rows))


def cmd_synth(args, manifest: Manifest) -> None:
    spec_path = Path(args.spec)
    manifest.add_input(spec_path)
    spec = SynthSpec.from_json(spec_path.read_text(encoding="utf-8"))
    manifest.add_seed("synth", spec.rng_seed)
    table, coordinates = generate(spec)
    manifest.write_artifact(args.out or f"synth.{args.format}",
                            partial(write_checkins, table, coordinates, fmt=args.format))


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    """--seed if the command draws random numbers, --config, --out-dir if it writes files."""
    if command not in ("ingest-check", "synth"):
        parser.add_argument("--seed", type=_at_least(0), default=0,
                            help="seed for every stochastic stage")
    parser.add_argument("--config", help="JSON config file; flags win on conflict")
    if command != "ingest-check":
        parser.add_argument("--out-dir", default=None,
                            help="output directory (default: the current directory)")


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="check-in data file")
    parser.add_argument("--format", choices=["csv", "jsonl"], default="csv")


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-checkins-per-venue", type=_at_least(1), default=5)
    parser.add_argument("--no-dedupe", action="store_true",
                        help="keep multiple check-ins per user per venue")
    parser.add_argument("--categories", default=None,
                        help="comma-separated category whitelist")
    parser.add_argument("--min-venues-per-subcategory", type=_at_least(1), default=2)
    parser.add_argument("--max-checkins-per-region", type=_at_least(1), default=None)


def build_parser(argv: list[str] = ()) -> argparse.ArgumentParser:
    """Every command's name and help, and the arguments of only the one that
    ``argv`` names first (the top level takes no option but --help)."""
    parser = argparse.ArgumentParser(
        prog="venuepref",
        description="Cross-gender venue-preference analytics for check-in data")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = next((token for token in argv if not token.startswith("-")), None)

    def command(name: str, help_line: str, func):
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=func)
        return p if name == named else None

    if p := command("ingest-check", "validate an input file and print the "
                                    "ingest report", cmd_ingest_check):
        _add_input(p)
    if p := command("analyze", "popularity table and null-model significance "
                               "for one region", cmd_analyze):
        _add_input(p)
        p.add_argument("--country")
        p.add_argument("--city")
        p.add_argument("--mode", choices=[m.value for m in AnalysisMode],
                       default="subcategory")
        p.add_argument("--subcategory", help="scope subcategory for "
                                             "venue_within_subcategory mode")
        p.add_argument("--k", type=_at_least(2), default=100,
                       help="null-model replicates")
        p.add_argument("--confidence", type=_probability, default=0.99)
        p.add_argument("--method", choices=[m.value for m in NullMethod],
                       default="generative")
        _add_filter_flags(p)
    if p := command("vectors", "build per-region preference vectors", cmd_vectors):
        _add_input(p)
        p.add_argument("--granularity", choices=["country", "city"],
                       default="country")
        p.add_argument("--regions", help="comma-separated region names "
                                         "(default: all in the input)")
        _add_filter_flags(p)
    if p := command("cluster", "spherical k-means over preference vectors", cmd_cluster):
        p.add_argument("--vectors", required=True,
                       help="vectors.csv or a directory containing it")
        p.add_argument("--k", type=_at_least(1), required=True)
        p.add_argument("--max-iter", type=_at_least(1), default=100)
        p.add_argument("--restarts", type=_at_least(1), default=1,
                       help="restarts; best inertia wins")
    if p := command("compare", "rank comparison against a scalar index", cmd_compare):
        p.add_argument("--vectors", required=True)
        p.add_argument("--index", required=True,
                       help="'GII', 'HDI' (bundled 2014 tables) or a "
                            "country,value CSV path")
        p.add_argument("--index-name", help="name for a custom index file")
        p.add_argument("--anchor", help="anchor region")
        p.add_argument("--all-anchors", action="store_true")
        p.add_argument("--permutations", type=_at_least(2), default=100)
    if p := command("synth", "generate a synthetic check-in dataset", cmd_synth):
        p.add_argument("--spec", required=True, help="SynthSpec JSON file")
        p.add_argument("--out", type=_file_name,
                       help="output file name (within --out-dir)")
        p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    if named in sub.choices:  # every command's flags end with the common ones
        _add_common(sub.choices[named], named)
    return parser


def main(argv=None) -> int:
    """Run one command: exit 0, 1 on a data, file or memory error, 2 on a
    usage error."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    manifest = None
    try:
        if args.config:
            args = parser.parse_args(_config_argv(parser, args, argv))
        manifest = Manifest(args, _out_dir(args))
        args.func(args, manifest)
        manifest.finish()
    except (DataError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if manifest is not None:
            try:
                manifest.finish(error=exc)
            except OSError as write_exc:
                print(f"error: {write_exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
