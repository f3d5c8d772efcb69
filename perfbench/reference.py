"""A fixed pure-Python reference loop that measures how fast the host runs now.

On a shared host the same work takes up to 1.7× longer for minutes at a
time.  A loop that never touches the program slows down with it, so a
run times this loop beside its iterations and rescales its wall times to
what they would have been on a host that runs the loop in
:data:`REFERENCE_S`.  A change to the program cannot move the loop, so a
slower or faster program still shows in full.

The loop does what the program spends its time on: building tuples and
small objects, hashing and grouping them in dicts, sorting, and encoding
JSON.  It runs in a child process (``python3 perfbench/reference.py``
prints its time), so the memory it leaves behind never counts towards
the benchmark's peak resident set.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

#: The loop's time on the nominal host; timings are scaled to this.
REFERENCE_S = 0.1
#: Timings per child process, after one untimed warm-up; the fastest
#: one is kept, so a moment's interruption does not count.
REPEATS = 4


class _Row:
    __slots__ = ("key", "group")

    def __init__(self, key: int, group: int) -> None:
        self.key = key
        self.group = group


def _loop() -> int:
    rng = random.Random(7)
    rows = [(rng.randrange(1000), rng.randrange(7), str(i)) for i in range(60_000)]
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[1], []).append(row)
    total = 0
    for group in sorted(groups):
        for row in groups[group]:
            total += hash(row) & 7
    total += len(json.dumps([list(row) for row in rows[:20_000]], sort_keys=True))
    objects = [_Row(row[0], row[1]) for row in rows]
    return total + sum(item.key for item in objects)


def _fastest() -> float:
    _loop()
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - started)
    return best


def reference_seconds() -> float:
    """The loop's fastest time, in seconds, measured in a child process."""
    done = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


if __name__ == "__main__":
    print(repr(_fastest()))
