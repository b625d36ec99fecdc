"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping a column index to a nonzero coefficient.  The
elimination core is fraction-free: denominators are cleared up front and
each combined row is divided by its integer content, so entries stay
integral until a unit pivot is actually needed.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm


def _as_int_row(row: dict) -> dict[int, int]:
    """Clear denominators and divide out the content of a sparse row.

    A row of nonzero ints with content 1 is returned as it is, not
    copied: no code here modifies a row in place.
    """
    if not row:
        return {}
    vals = row.values()
    if all(type(v) is int and v for v in vals):
        g = gcd(*vals)
        return {c: v // g for c, v in row.items()} if g > 1 else row
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    ints: dict[int, int] = {}
    for c, v in row.items():
        iv = int(v * denom)
        if iv:
            ints[c] = iv
    if not ints:
        return {}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _combine(row: dict[int, int], piv: dict[int, int], col: int) -> dict[int, int]:
    """a*row - b*piv with the entry at col eliminated, content divided out."""
    a = piv[col]
    b = row[col]
    if a < 0:
        a, b = -a, -b
    new = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in piv.items():
        w = new.get(c, 0) - b * v
        if w:
            new[c] = w
        elif c in new:
            del new[c]
    if not new:
        return new
    g = gcd(*new.values())
    if g > 1:
        new = {c: v // g for c, v in new.items()}
    return new


class Echelon:
    """Row echelon data for a sparse matrix with a fixed column order."""

    __slots__ = ("pivot_rows", "_reduced")

    def __init__(self, pivot_rows: dict[int, dict[int, int]], reduced: bool):
        self.pivot_rows = pivot_rows
        # the pivots whose rows are back-eliminated
        self._reduced: set[int] = set(pivot_rows) if reduced else set()

    @property
    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def ensure_reduced(self, pivots=None) -> "Echelon":
        """Back-eliminate so that no row holds another row's pivot column:
        every row, or only the rows at `pivots` and the rows they read.

        Rows are finished in decreasing pivot order, so every pivot row a
        row meets is already reduced: eliminating one of its pivot columns
        brings in no other, and the pivot columns of the row's own
        support, largest first, are all the eliminations it needs.  So a
        row reads exactly the rows at the pivot columns of its support,
        and reducing only those, transitively, gives each of them the
        same entries as reducing every row.  The work is proportional to
        the entries, not to rank squared.  Rows are replaced, never
        modified in place, and `_combine` scales each by a positive
        factor, so every lead keeps its sign.
        """
        rows = self.pivot_rows
        done = self._reduced
        if len(done) == len(rows):
            return self
        if pivots is None:
            todo = set(rows) - done
        else:
            todo = set()
            stack = [p for p in pivots if p in rows and p not in done]
            while stack:
                p = stack.pop()
                if p not in todo:
                    todo.add(p)
                    stack.extend(c for c in rows[p] if c in rows and c not in done)
        for p in sorted(todo, reverse=True):
            row = rows[p]
            for c in sorted((c for c in row if c != p and c in rows), reverse=True):
                row = _combine(row, rows[c], c)
            rows[p] = row
        done |= todo
        return self

    def reduce(self, row: dict) -> dict[int, Fraction]:
        """Normal form of a row modulo the row span (no pivot support left)."""
        out = {c: Fraction(v) for c, v in row.items() if v}
        for p in self.pivots:
            if p not in out:
                continue
            prow = self.pivot_rows[p]
            coef = out[p] / prow[p]
            for c, v in prow.items():
                w = out.get(c, 0) - coef * v
                if w:
                    out[c] = w
                elif c in out:
                    del out[c]
        return out

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def echelon(rows) -> Echelon:
    """Echelonize sparse rows, picking pivots left to right in column order."""
    buckets: dict[int, list[dict[int, int]]] = {}
    heap: list[int] = []

    def push(r: dict[int, int]) -> None:
        lead = min(r)
        if lead not in buckets:
            buckets[lead] = []
            heappush(heap, lead)
        buckets[lead].append(r)

    for raw in rows:
        r = _as_int_row(raw)
        if r:
            push(r)

    pivot_rows: dict[int, dict[int, int]] = {}
    while heap:
        col = heappop(heap)
        here = buckets.pop(col, [])
        if not here:
            continue
        here.sort(key=len)
        piv = here[0]
        pivot_rows[col] = piv
        for r in here[1:]:
            nr = _combine(r, piv, col)
            if nr:
                push(nr)
    return Echelon(pivot_rows, reduced=False)

