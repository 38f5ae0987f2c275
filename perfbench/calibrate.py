"""Reference process: a fixed workload that measures how fast this machine runs now.

    python3 perfbench/calibrate.py [JOBS]

The speed of a shared machine drifts by tens of percent within a minute,
and fresh processes feel it more than a long-running one.  The runner
spawns this program next to every timed invocation and divides by the
median of its wall times, so every run lands on one scale.  Like the
CLI it starts a fresh interpreter and imports numpy; then it does the
kinds of work the program does, n-gram counting with clipping, float
multiply-adds and tuple sorting.  It uses no ``rotamert`` code, so no
change to the program changes it.
"""

from __future__ import annotations

import multiprocessing
import random
import sys
from collections import Counter

KERNELS = 12


def kernel(rng: random.Random) -> int:
    """One fixed unit of work; returns a checksum so none of it is skipped."""
    checksum = 0
    for _ in range(60):
        hyp, *refs = [tuple(f"w{rng.randrange(40)}" for _ in range(rng.randrange(6, 13))) for _ in range(5)]
        for n in range(1, 5):
            grams = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
            ceiling: Counter = Counter()
            for ref in refs:
                ceiling |= Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
            checksum += sum(min(c, ceiling[g]) for g, c in grams.items())
    values = [(rng.random(), rng.random()) for _ in range(6000)]
    for w in (0.5, -1.25, 2.0):
        lines = []
        for a, b in values:
            total = 0.0
            total += a * w
            total += b * (1.0 - w)
            lines.append((total, a - b))
        lines.sort()
        checksum += len(lines)
    return checksum


def kernels(count: int) -> int:
    rng = random.Random(20140512)
    return sum(kernel(rng) for _ in range(count))


def main(argv: list[str]) -> int:
    import numpy  # noqa: F401  (the CLI imports it too)

    jobs = int(argv[0]) if argv else 1
    half = KERNELS // 2
    total = kernels(half)
    if jobs == 1:
        total += kernels(half)
    else:
        # Fork, as the program's process pool does on Linux.
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            total += sum(pool.map(kernels, [half] * jobs))
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
