"""Bit-for-bit differential tests of the array passes against the per-item
loops they replaced (loop_oracle.py): segment Gini, the region cap's draws
and the k-means centroid update; and of the manifest's input digest, taken
from ingest's own reads, against a sha256 of the file."""

import argparse
import csv
import hashlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracle as oracle
from venuepref import cli, models
from venuepref.clustering import _update_centroids
from venuepref.filtering import _cap_by_venue_sampling
from venuepref.models import NO_TIME, CheckinTable, ingest_checkins, write_checkins
from venuepref.preference import build_preference_vectors, gini
from venuepref.synth import SubcategorySpec, SynthSpec, generate

POOL = 300  # venues per subcategory, shared by every region


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(x)
        except ValueError as exc:
            value = str(exc)
    return np.float64(value).tobytes() if isinstance(value, float) else value, \
        [str(w.message) for w in caught]


@given(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                          st.floats(0, 1e6), st.floats(-1, 0)),
                min_size=0, max_size=300))
def test_gini_equals_the_old_gini(x):
    assert outcome(gini, x) == outcome(oracle.gini, x)


@st.composite
def segment_tables(draw):
    """A table of check-ins over (region, subcategory) segments of 1-300
    venues each: tied, all-zero, one-gender or random differences."""
    n_regions, n_subcats = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    venue, gender, region = [], [], []
    for r in range(n_regions):
        for s in range(n_subcats):
            kind = draw(st.sampled_from(["absent", "tied", "zero", "one-gender",
                                         "small", "wide"]))
            if kind == "absent":
                continue
            n = draw(st.integers(1, POOL))
            high = {"wide": 50}.get(kind, 4)
            male = rng.integers(0 if n > 1 else 1, high, n)
            female = {"tied": np.full(n, 2), "zero": male, "one-gender": np.zeros(n, int)
                      }.get(kind, rng.integers(0, high, n))
            if kind == "tied":
                male = np.full(n, 3)
            sizes = male + female
            venue.append(np.repeat(s * POOL + np.arange(n), sizes))
            gender.append(np.concatenate([np.repeat([1, 0], [m, f])
                                          for m, f in zip(male, female)]))
            region.append(np.full(sizes.sum(), r))
    venue, gender, region = (np.concatenate([np.empty(0, int), *parts])
                             for parts in (venue, gender, region))
    order = rng.permutation(len(venue))
    n = len(venue)
    subcategories = [f"S{s}" for s in range(n_subcats)]
    table = CheckinTable(
        user=np.zeros(n, np.int32), venue=venue[order].astype(np.int32),
        category=np.zeros(n, np.int32),
        venue_subcategory=np.repeat(np.arange(n_subcats, dtype=np.int32), POOL),
        country=np.zeros(n, np.int32), city=np.full(n, -1, np.int32),
        gender=gender[order].astype(np.int8), ts=np.full(n, NO_TIME),
        users=["u"], venues=[f"v{i:04d}" for i in range(n_subcats * POOL)],
        categories=["Food"], subcategories=subcategories, countries=["C"], cities=[])
    names = [f"R{r}" for r in range(n_regions + draw(st.integers(0, 1)))]
    return table, region[order], names


@settings(max_examples=200)
@given(segment_tables())
def test_segment_gini_equals_one_gini_call_per_segment(case):
    vectors = build_preference_vectors(*case)
    dims, values = oracle.preference_values(*case)
    assert vectors.regions == case[2] and vectors.dims == dims
    assert same_bits(vectors.values, values)


@settings(max_examples=200)
@given(st.lists(st.lists(st.integers(0, 6), max_size=10), min_size=1, max_size=8),
       st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**16))
def test_cap_draws_once_per_venue_count(regions, cap, seed, shuffle):
    # per region, the row count of each of its (region, venue) codes
    sizes = [size for venues in regions for size in venues]
    venue_region = np.repeat(np.arange(len(regions)), [len(v) for v in regions])
    venue = np.random.default_rng(shuffle).permutation(
        np.repeat(np.arange(len(sizes)), sizes))
    region_rows = np.bincount(venue_region[venue], minlength=len(regions)).tolist()
    args = venue, venue_region, region_rows, cap, seed
    assert np.array_equal(_cap_by_venue_sampling(*args),
                          oracle.cap_by_venue_sampling(*args))


@settings(max_examples=500)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(["small ints", "floats"]), st.integers(0, 2**16))
def test_centroid_update_equals_one_mean_per_cluster(n, k, d, kind, seed):
    rng = np.random.default_rng(seed)
    # small ints make exactly cancelling (zero-norm) means, and signs -0.0
    points = (rng.integers(-1, 2, (n, d)) if kind == "small ints"
              else rng.random((n, d))) * rng.choice([-1.0, 1.0], (n, d))
    points[~points.any(axis=1), 0] = 1.0
    unit = points / np.linalg.norm(points, axis=1)[:, None]
    labels = rng.integers(0, k, n)  # a cluster may be left empty
    dists = rng.random((n, k))
    old = rng.random((k, d))
    old /= np.linalg.norm(old, axis=1)[:, None]
    assert same_bits(_update_centroids(unit, labels, dists, old),
                     oracle.update_centroids(unit, labels, dists, old))


def variants(text: str, jsonl: str):
    """The files whose digest is checked: each a name, its bytes, its format
    and the block size its ingest reads with."""
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(
        csv.reader(io.StringIO(text)))
    lines = text.splitlines(keepends=True)
    midway = "".join(lines[:-1] + ['"' + lines[-1].replace(",", '",', 1)])
    return [("bytes", text, "csv", models._BLOCK_BYTES),
            ("quoted CRLF", quoted.getvalue(), "csv", models._BLOCK_BYTES),
            ("jsonl", jsonl, "jsonl", models._BLOCK_BYTES),
            ("no final newline", text.rstrip("\n"), "csv", models._BLOCK_BYTES),
            ("a quote after some blocks", midway, "csv", 1024)]


def read_input(path: Path, fmt: str):
    manifest = cli.Manifest(argparse.Namespace(subcommand="analyze"), None)
    _, report, digest = cli._read_input(
        argparse.Namespace(input=str(path), format=fmt), manifest)
    assert manifest.data["inputs"] == {str(path): digest}
    return report, digest


@settings(max_examples=25)
@given(st.integers(1, 400), st.integers(0, 100))
def test_the_input_digest_is_the_sha256_of_the_file(n_checkins, seed):
    spec = SynthSpec(n_users=30, female_fraction=0.5, n_checkins=n_checkins,
                     region_name="Land0", rng_seed=seed,
                     subcategories=[SubcategorySpec(f"S{i}", "Food", 3, 1.0)
                                    for i in range(3)])
    text, jsonl = io.StringIO(), io.StringIO()
    write_checkins(*generate(spec), text)
    write_checkins(*generate(spec), jsonl, fmt="jsonl")
    with tempfile.TemporaryDirectory() as tmp:
        for name, data, fmt, block in variants(text.getvalue(), jsonl.getvalue()):
            path = Path(tmp) / "input"
            path.write_bytes(data.encode())
            with mock.patch.object(models, "_BLOCK_BYTES", block):
                report, digest = read_input(path, fmt)
                with open(path, "rb") as fh:
                    assert report == ingest_checkins(fh, fmt)[1], name
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), name


def test_bytes_that_ingest_leaves_unread_are_hashed_too(tmp_path, monkeypatch):
    path = tmp_path / "input.csv"
    path.write_bytes(b"header\n" + b"x" * (3 << 20) + b"\n")

    def first_line(source, fmt):
        source.readline()
        return None, None

    monkeypatch.setattr(cli, "ingest_checkins", first_line)
    assert read_input(path, "csv")[1] == hashlib.sha256(path.read_bytes()).hexdigest()
