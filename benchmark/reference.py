"""The reference kernel: a fixed piece of work whose time measures how fast
the machine runs at the moment, so that run.py can scale its timings to a
steady machine speed.

    python3 benchmark/reference.py

Runs the kernel once per line read from standard input and writes its wall
seconds, one line each, until standard input closes.  It imports no
dickesim module, so no change to the program can change its time.  The mix
follows the program's: dictionary and complex arithmetic in Python (the
generating polynomial), float formatting (CSV output), and NumPy masks and
gathers on 512 KiB arrays (the dense engine).
"""
from __future__ import annotations

import sys
import time

import numpy as np


def kernel() -> None:
    terms: dict[tuple[int, int], complex] = {}
    for i in range(60_000):
        key = (i % 97, i % 13)
        terms[key] = terms.get(key, 0) + complex(i, 1) * 0.5
    "".join(f"{x * 0.1:.6g}," for x in range(20_000))
    idx = np.arange(1 << 16)
    for bit in range(8):
        idx[(idx & (1 << bit)) != 0].sum()


def main() -> int:
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
