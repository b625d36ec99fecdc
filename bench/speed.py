"""The host-speed calibration that timings are scaled by.

The CPU speed a process gets on a shared host can change by up to 1.9x
between runs minutes apart, and within a run, with every piece of
pure-Python work slowing alike.  So the child times a fixed piece of
work right before each query, and run.py reports each query's time
scaled to a host on which that work takes REFERENCE_S:

    scaled = measured * REFERENCE_S / calibration

The work is the benchmark's own, never symci's, and is of the same kind
as symci's: integer polynomial products and quotients over lists
(a Molien expansion), and fraction-free elimination of sparse integer
rows held in dicts.  A change to symci cannot change it.
"""

from __future__ import annotations

import random
import time
from math import gcd

import checks

# seconds the calibration takes on a 2-vCPU Xeon (Sapphire Rapids) KVM
# guest with Python 3.11, in its faster state
REFERENCE_S = 0.0033

_rng = random.Random(0)
_ROWS = [
    {c: _rng.randint(-9, 9) or 1 for c in _rng.sample(range(36), 5)}
    for _ in range(36)
]


def _eliminate(rows: list[dict[int, int]]) -> int:
    """Rank of the rows by fraction-free elimination; pivots on the lowest column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            a, b = piv[col], row[col]
            new = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                else:
                    new.pop(c, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            row = {c: v // g for c, v in new.items()} if g > 1 else new
    return len(pivots)


def calibrate() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    for _ in range(4):
        checks.Expected("III", 2, (3,), 6)
    _eliminate(_ROWS)
    return time.perf_counter() - start
