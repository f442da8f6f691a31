"""Seeded check-in generator owned by the benchmark.

It does not use ``venuepref.synth``: a change to the program under test
must not be able to change the benchmark's inputs. Only the standard
library is used, so the same seed gives the same bytes on any interpreter
whose ``random.Random`` stream is unchanged (the Mersenne Twister stream has
been stable across CPython releases).

The rows aim to look like a real check-in export:

- every timestamp is an ISO timestamp with an explicit ``+HH:MM``/``-HH:MM``
  offset (one fixed offset per region). Mixing naive and offset-aware
  timestamps for one (user, venue) pair crashes the program's dedupe stage
  today; that defect is for the correctness tests, not for a timing
  workload, so the benchmark never produces it;
- each subcategory has its own female share, drawn per region around a
  global per-subcategory value, so the cross-gender differences are skewed;
- about 5% of the rows repeat an earlier (user, venue) pair with another
  timestamp, so dedupe has real work;
- about 1% of the rows carry a gender the program rejects or an
  out-of-range coordinate, so the ingest reject counters move.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import itertools
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from random import Random

FIELDS = ["user_id", "gender", "venue_id", "category", "subcategory",
          "latitude", "longitude", "country", "city", "timestamp"]
# The program's default category whitelist; every generated venue passes it.
CATEGORIES = ("Arts", "Education", "Food", "Nightlife", "Work")
DUPLICATE_SHARE = 0.05
REJECT_SHARE = 0.01
_EPOCH = datetime(2014, 1, 1)
_YEAR_S = 365 * 24 * 3600


@dataclass(frozen=True)
class Scale:
    """Shape of one generated check-in file."""
    regions: int
    checkins_per_region: int
    subcategories: int
    venues_per_subcategory: int
    users_per_region: int


def region_name(i: int) -> str:
    return f"Region-{i + 1:02d}"


def _cumulative(weights: list[float]) -> list[float]:
    return list(itertools.accumulate(weights))


def _pick(rng: Random, cum: list[float]) -> int:
    return bisect.bisect_right(cum, rng.random() * cum[-1])


def _timestamp(rng: Random, tz: timezone) -> str:
    moment = _EPOCH + timedelta(seconds=rng.randrange(_YEAR_S))
    return moment.replace(tzinfo=tz).isoformat()


def write_checkins(path: Path, scale: Scale, seed: int) -> dict:
    """Write a seeded check-in CSV to ``path``; return its row count,
    sha256 and the number of deliberately repeated and rejected rows."""
    rng = Random(seed)
    n_sub = scale.subcategories
    subcats = [f"Sub{s:02d}" for s in range(n_sub)]
    sub_category = [CATEGORIES[s % len(CATEGORIES)] for s in range(n_sub)]
    base_female = [0.15 + 0.7 * rng.random() for _ in range(n_sub)]
    repeats = rejects = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELDS)
        for r in range(scale.regions):
            country = region_name(r)
            city = f"City-{r + 1:02d}"
            tz = timezone(timedelta(hours=rng.randrange(-8, 10)))
            lat0 = rng.uniform(-50.0, 60.0)
            lon0 = rng.uniform(-120.0, 140.0)
            female_share = [min(0.95, max(0.05, b + rng.uniform(-0.1, 0.1)))
                            for b in base_female]
            sub_cum = _cumulative([rng.lognormvariate(0.0, 0.4)
                                   for _ in range(n_sub)])
            venues = []  # per subcategory: (ids, coords, cumulative weights)
            for s in range(n_sub):
                ids = [f"V{r + 1:02d}-{s:02d}-{j:03d}"
                       for j in range(scale.venues_per_subcategory)]
                coords = [(f"{lat0 + rng.uniform(-0.5, 0.5):.6f}",
                           f"{lon0 + rng.uniform(-0.5, 0.5):.6f}") for _ in ids]
                cum = _cumulative([rng.lognormvariate(0.0, 0.6) for _ in ids])
                venues.append((ids, coords, cum))
            n_users = scale.users_per_region
            male_users = [f"U{r + 1:02d}-{u:05d}" for u in range(0, n_users, 2)]
            female_users = [f"U{r + 1:02d}-{u:05d}" for u in range(1, n_users, 2)]
            emitted: list[list[str]] = []
            for _ in range(scale.checkins_per_region):
                if emitted and rng.random() < DUPLICATE_SHARE:
                    row = list(emitted[rng.randrange(len(emitted))])
                    row[9] = _timestamp(rng, tz)
                    repeats += 1
                else:
                    s = _pick(rng, sub_cum)
                    female = rng.random() < female_share[s]
                    users = female_users if female else male_users
                    ids, coords, cum = venues[s]
                    v = _pick(rng, cum)
                    row = [users[rng.randrange(len(users))],
                           "female" if female else "male", ids[v],
                           sub_category[s], subcats[s], coords[v][0],
                           coords[v][1], country, city, _timestamp(rng, tz)]
                    emitted.append(row)
                if rng.random() < REJECT_SHARE:
                    row = list(row)
                    if rng.random() < 0.5:
                        row[1] = "unknown"
                    else:
                        row[5] = "123.456789"
                    rejects += 1
                writer.writerow(row)
    return {"rows": scale.regions * scale.checkins_per_region,
            "sha256": sha256_file(path), "repeated_rows": repeats,
            "rejected_rows": rejects}


def write_index(path: Path, regions: int, seed: int) -> dict:
    """Write a ``country,value`` index table with one value in [0, 1] per
    generated region."""
    rng = Random(seed ^ 0x5EED)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["country", "value"])
        for r in range(regions):
            writer.writerow([region_name(r), f"{rng.uniform(0.05, 0.95):.4f}"])
    return {"rows": regions, "sha256": sha256_file(path)}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
