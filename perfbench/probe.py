"""Machine-speed probe: ``cpu_seconds()`` times a fixed piece of CPU work
that does not touch ``venuepref``, so a change to the program cannot move
it; it moves only with the speed of the machine.

child.py calls it right before and right after ``venuepref.cli.main(argv)``
in untraced commands, so the probe sees the machine at the moments the
command's set-up ends, its run starts and its run ends. The work mixes what
the program's commands spend their time on: CSV parsing, ISO timestamp
parsing, counting in dicts, sorting and numpy array operations.
"""

import csv
import io
import time
from datetime import datetime

_ROWS = 1_000
_ROUNDS = 12


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _text() -> str:
    lines = [f"U{i % 397:05d},{'female' if i % 3 else 'male'},V{i % 211:03d},"
             f"Sub{i % 17:02d},2014-{1 + i % 12:02d}-{1 + i % 28:02d}T"
             f"{i % 24:02d}:{i % 60:02d}:{(7 * i) % 60:02d}+02:00"
             for i in range(_ROWS)]
    return "\n".join(lines) + "\n"


def _work(np, text: str) -> int:
    pairs: dict = {}
    first: dict = {}
    for user, gender, venue, sub, stamp in csv.reader(io.StringIO(text)):
        moment = datetime.fromisoformat(stamp)
        key = (user, venue)
        if key not in first or moment < first[key]:
            first[key] = moment
        pairs[(sub, gender)] = pairs.get((sub, gender), 0) + 1
    order = sorted(first.items(), key=lambda kv: (kv[1], kv[0]))
    rng = np.random.default_rng(7)
    x = rng.random((100, 300))
    for _ in range(4):
        rng.permuted(x, axis=1, out=x)
        np.sort(x, axis=1)
    return len(order) + len(pairs)


def cpu_seconds() -> float:
    """Time of a fixed piece of CPU work (after one untimed round)."""
    import numpy as np
    text = _text()
    _work(np, text)
    start = _now()
    for _ in range(_ROUNDS):
        _work(np, text)
    return _now() - start
