"""End-to-end checks of the venuepref command line, on the standard library
alone. A check-in file gives one ingest report and the same analyze
artifacts whatever its form: csv or jsonl, quoted with CRLF line ends or
not, with its venue fields side by side or split, in one block or several,
with 24-hex venue ids and a city past ASCII, and with any timestamp form.
Usage:

    python tests/e2e_cli.py WORK_DIR COMMAND...

Every CLI run is COMMAND and its arguments, in WORK_DIR (made if missing):
``venuepref``, ``python -m venuepref.cli`` or any other prefix that runs
``venuepref.cli.main``. The script exits 1 naming the first failed check.
A check that a tier-1 test already makes is left to that test: in
tests/test_cli.py, a missing input's error line, a region the input lacks,
one anchor's row of the all-anchor run, the artifacts' file mode, a byte
that is not UTF-8, and the sha256 of each command's input."""

import csv
import glob
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone

ARTIFACTS = ["filter_report.json", "popularity.csv", "significance.json",
             "null_distribution.csv"]
LANDS = [f"Land{i}" for i in range(5)]
COMMAND: list[str] = []


class Failed(Exception):
    """A check that does not hold; its message names the check."""


def check(ok, name, detail=None):
    if not ok:
        raise Failed(name if detail is None else f"{name}: {detail}")


def run(*argv, status=0):
    """The finished run of ``venuepref argv``, which must exit ``status``."""
    result = subprocess.run([*COMMAND, *argv], capture_output=True, text=True)
    check(result.returncode == status, f"venuepref {' '.join(argv)} exits {status}",
          f"it exited {result.returncode}: {result.stderr}")
    return result


def report(path, *flags):
    """The ingest-check report of a check-in file, as printed."""
    return run("ingest-check", "--input", path, *flags).stdout


def analyze(path, out, *flags, country="Land0"):
    run("analyze", "--input", path, "--country", country, *flags, "--k", "7",
        "--out-dir", out)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def same_artifacts(first, second):
    for name in ARTIFACTS:
        check(read(f"{first}/{name}") == read(f"{second}/{name}"),
              f"{second}/{name} equals {first}/{name}")


def same_reports(expected, source, *paths):
    """Check that every file of ``paths`` gives ``expected``, the ingest
    report of ``source``."""
    for path in paths:
        check(report(path) == expected, f"{path} gives the ingest report of {source}")


def sha256(path):
    return hashlib.sha256(read(path)).hexdigest()


def rows_of(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def write_rows(path, rows, columns=None, quoting=csv.QUOTE_MINIMAL):
    with open(path, "w", encoding="utf-8", newline="") as out:
        writer = csv.DictWriter(out, columns or list(rows[0]), quoting=quoting,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def quoted_crlf_copy(src, dst):
    """A copy of ``src`` with every field quoted and CRLF line ends, which
    csv.reader reads, where the original is cut at its commas."""
    with open(src, encoding="utf-8", newline="") as fh, \
            open(dst, "w", encoding="utf-8", newline="") as out:
        csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(fh))


def write_spec(path, region, seed, n_users, n_checkins, n_venues, skews):
    with open(path, "w") as fh:
        json.dump({"n_users": n_users, "female_fraction": 0.5, "n_checkins": n_checkins,
                   "region_name": region, "rng_seed": seed,
                   "subcategories": [{"name": f"S{j}", "category": "Food",
                                      "n_venues": n_venues, "base_weight": 1.0,
                                      "gender_skew": skew} for j, skew in enumerate(skews)]},
                  fh)


def checks():
    for i, land in enumerate(LANDS):
        write_spec(f"spec{i}.json", land, 11 + i, 300, 2000, 4, [0.2 * i] * 4)
        run("synth", "--spec", f"spec{i}.json", "--out", f"land{i}.csv", "--out-dir", "synth")
    run("synth", "--spec", "spec0.json", "--format", "jsonl", "--out", "land0.jsonl",
        "--out-dir", "synth")
    land0 = rows_of("synth/land0.csv")
    # both row sources of the columnar ingest give one report
    clean = report("synth/land0.csv")
    check(report("synth/land0.jsonl", "--format", "jsonl") == clean,
          "synth/land0.jsonl gives the report of synth/land0.csv")
    # coordinates are range-checked and counted, not kept: a latitude of 91
    # and a longitude of x are two bad coordinates, and every other line is
    # accepted
    odd = [dict(row) for row in land0]
    odd[10]["latitude"], odd[20]["longitude"] = "91", "x"
    write_rows("land0-coords.csv", odd)
    counts = json.loads(clean)
    check(counts["accepted"] == counts["total_lines"], "synth/land0.csv is all accepted", counts)
    odd_counts = json.loads(report("land0-coords.csv"))
    check(odd_counts == {**counts, "accepted": counts["accepted"] - 2, "rejected": 2,
                         "bad_coordinates": 2},
          "land0-coords.csv has two bad coordinates", odd_counts)

    with open("all.csv", "wb") as out:
        for i in range(5):
            lines = read(f"synth/land{i}.csv").splitlines(keepends=True)
            out.writelines(lines if i == 0 else lines[1:])
    with open("index.csv", "w") as fh:
        fh.write("country,value\n" + "".join(f"{land},0.{i + 1}\n"
                                              for i, land in enumerate(LANDS)))
    run("vectors", "--input", "all.csv", "--out-dir", "vec")
    run("compare", "--vectors", "vec", "--index", "index.csv", "--all-anchors",
        "--out-dir", "cmp")
    countries = [row["country"] for row in rows_of("cmp/comparison.csv")]
    check(len(read("cmp/comparison.csv").splitlines()) == 6 and countries == LANDS,
          "cmp/comparison.csv has a row per region, in order", countries)
    run("cluster", "--vectors", "vec", "--k", "2", "--out-dir", "clu")
    for method in ("generative", "gender_shuffle"):
        analyze("synth/land0.csv", f"an-{method}", "--method", method)
        units = len(read(f"an-{method}/popularity.csv").splitlines()) - 1
        nulls = len(read(f"an-{method}/null_distribution.csv").splitlines())
        check(units > 0 and nulls == units * 7 + 1,
              f"an-{method}/null_distribution.csv has 7 rows per unit and a header",
              f"{units} units, {nulls} lines")

    # a quoted CRLF copy goes through csv.reader, the original is cut at
    # commas, and the jsonl copy is read as JSON: one report, same artifacts
    quoted_crlf_copy("synth/land0.csv", "land0-quoted.csv")
    same_reports(clean, "synth/land0.csv", "land0-quoted.csv")
    analyze("land0-quoted.csv", "an-quoted", "--method", "gender_shuffle")
    same_artifacts("an-gender_shuffle", "an-quoted")
    check(len(os.listdir("an-quoted")) == 5, "an-quoted holds 5 files", os.listdir("an-quoted"))
    analyze("synth/land0.jsonl", "an-jsonl", "--format", "jsonl", "--method", "gender_shuffle")
    same_artifacts("an-gender_shuffle", "an-jsonl")
    # a manifest records each input by the sha256 that the reads which parse
    # it give, through csv.reader and from jsonl: it is the file's
    for out, path in (("an-quoted", "land0-quoted.csv"), ("an-jsonl", "synth/land0.jsonl")):
        inputs = json.loads(read(f"{out}/run_manifest.json"))["inputs"]
        check(inputs == {path: sha256(path)}, f"{out} records {path} by its sha256", inputs)
    source = json.loads(read("vec/vectors_manifest.json"))["source_sha256"]
    check(source == sha256("all.csv"), "vec/vectors_manifest.json records all.csv's sha256")

    # the venue fields, venue_id to city, sit side by side in the original
    # and are grouped as one span per line; a copy whose columns split that
    # run is grouped column by column: one report, same artifacts
    write_rows("land0-split.csv", land0, ["city", "user_id", "gender", "venue_id", "category",
                                          "timestamp", "subcategory", "latitude",
                                          "longitude", "country"])
    check(read("land0-split.csv").split(b"\n")[0] != read("synth/land0.csv").split(b"\n")[0],
          "land0-split.csv has another header")
    same_reports(clean, "synth/land0.csv", "land0-split.csv")
    analyze("land0-split.csv", "an-split", "--method", "gender_shuffle")
    same_artifacts("an-gender_shuffle", "an-split")

    # a file of several of the byte path's blocks (cut at their last newline),
    # whose second half a forked worker reads where two CPUs are usable, and
    # its quoted CRLF copy, which csv.reader reads in one process: one
    # report, the same analyze artifacts and the same vectors
    write_spec("spec-big.json", "Big0", 5, 3000, 80000, 40, [0.1 * j for j in range(10)])
    run("synth", "--spec", "spec-big.json", "--out", "big.csv", "--out-dir", "synth")
    block = int(subprocess.run([sys.executable, "-c", "from venuepref.models import "
                                "_BLOCK_BYTES; print(_BLOCK_BYTES)"], check=True,
                               capture_output=True, text=True).stdout)
    size = os.path.getsize("synth/big.csv")
    check(size > 3 * block, "synth/big.csv is over three blocks", f"{size} bytes")
    quoted_crlf_copy("synth/big.csv", "big-quoted.csv")
    same_reports(report("synth/big.csv"), "synth/big.csv", "big-quoted.csv")
    for path, out in (("synth/big.csv", "an-big"), ("big-quoted.csv", "an-big-quoted")):
        analyze(path, out, "--method", "gender_shuffle", country="Big0")
        run("vectors", "--input", path, "--out-dir", out.replace("an-", "vec-"))
    same_artifacts("an-big", "an-big-quoted")
    check(read("vec-big/vectors.csv") == read("vec-big-quoted/vectors.csv"),
          "vec-big-quoted/vectors.csv equals vec-big/vectors.csv")

    # 24-hex venue ids and a city past ASCII, as real exports have: the byte
    # path and csv.reader (on a fully quoted copy) read them alike
    hexed = [{**row, "venue_id": hashlib.sha256(row["venue_id"].encode()).hexdigest()[:24],
              "city": "São Paulo"} for row in land0]
    write_rows("land0-hex.csv", hexed)
    write_rows("land0-hex-quoted.csv", hexed, quoting=csv.QUOTE_ALL)
    same_reports(clean, "synth/land0.csv", "land0-hex.csv", "land0-hex-quoted.csv")
    for copy in ("land0-hex", "land0-hex-quoted"):
        analyze(f"{copy}.csv", f"an-{copy}", "--mode", "venue")
    same_artifacts("an-land0-hex", "an-land0-hex-quoted")
    check(re.search(rb"^[0-9a-f]{24},", read("an-land0-hex/popularity.csv"), re.M),
          "an-land0-hex/popularity.csv names a 24-hex venue")

    # timestamps as YYYY-MM-DDTHH:MM:SS+HH:MM are read as one byte array per
    # block; with a space for the T, each goes through this Python's
    # fromisoformat; the same moments in UTC are written with Z (which 3.10's
    # fromisoformat does not read) and with +00:00: each pair gives one
    # report and the same artifacts
    rng = random.Random(7)
    stamps = []
    for _ in land0:
        moment = datetime(2014, 1, 1) + timedelta(seconds=rng.randrange(365 * 86400))
        minutes = rng.choice([-1, 1]) * rng.randrange(0, 24 * 60, 15)
        stamps.append(moment.replace(tzinfo=timezone(timedelta(minutes=minutes))))
    forms = {"land0-ts": lambda t: t.isoformat(), "land0-ts-space": lambda t: t.isoformat(" "),
             "land0-z": lambda t: t.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
             "land0-utc": lambda t: t.astimezone(timezone.utc).isoformat()}
    for copy, form in forms.items():
        write_rows(f"{copy}.csv", [{**row, "timestamp": form(t)} for row, t in zip(land0, stamps)])
    for first, second in (("land0-ts", "land0-ts-space"), ("land0-z", "land0-utc")):
        same_reports(clean, "synth/land0.csv", f"{first}.csv", f"{second}.csv")
        for copy in (first, second):
            analyze(f"{copy}.csv", f"an-{copy}", "--method", "gender_shuffle")
        same_artifacts(f"an-{first}", f"an-{second}")

    # a NUL at the end of the user_id on line 101, written as text so that no
    # csv writer decides how a NUL is written, is an error naming its line on
    # every Python (3.11+'s csv module reads it); the whole of stderr is that
    # line, no traceback
    lines = read("land0-ts.csv").splitlines(keepends=True)
    lines[100] = lines[100].replace(b",", b"\0,", 1)
    with open("land0-nul.csv", "wb") as out:
        out.writelines(lines)
    err = run("ingest-check", "--input", "land0-nul.csv", status=1).stderr
    check(err == "error: csv line 101: line contains NUL\n",
          "land0-nul.csv's whole stderr is the NUL's error line", repr(err))

    # every JSON artifact of the runs above is json.dumps(value, indent=2) and
    # a newline: significance.json is rendered from its columns, each float
    # and bool column's tokens from one C-encoder dump of its list
    paths = glob.glob("*/*.json")
    significance = sum(path.endswith("significance.json") for path in paths)
    check(len(paths) == 49 and significance == 13,
          "the runs wrote 49 JSON artifacts, 13 of them significance.json", sorted(paths))
    for path in paths:
        text = read(path).decode("utf-8")
        check(text == json.dumps(json.loads(text), indent=2) + "\n", f"{path} is indented JSON")


def main():
    if len(sys.argv) < 3:
        print("usage: python tests/e2e_cli.py WORK_DIR COMMAND...", file=sys.stderr)
        return 2
    os.makedirs(sys.argv[1], exist_ok=True)
    os.chdir(sys.argv[1])
    COMMAND[:] = sys.argv[2:]
    try:
        checks()
    except Failed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("every end-to-end check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
