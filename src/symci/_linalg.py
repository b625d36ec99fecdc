"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping a column key to a nonzero coefficient.  The
elimination core is fraction-free: denominators are cleared up front, and
every step goes through one in-place kernel, `_eliminate`.  The integer
content of a row is taken once per finished row and after each step whose
pivot entry is not a unit, so entries stay integral and small.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm


def _as_int_row(row: dict) -> dict[int, int]:
    """Clear denominators and divide out the content of a sparse row.

    A row of nonzero ints with content 1 is returned as it is, not
    copied, so it must be copied before `_eliminate` first steps on it.
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
    return _primitive({c: iv for c, v in row.items() if (iv := int(v * denom))})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide the integer content out of a row, in place."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _eliminate(row: dict[int, int], piv: dict[int, int], col: int, t: int = 0) -> None:
    """row <- a*row - b*(t*piv), in place: column col of a row the caller
    owns is cleared by the reducer piv shifted by t, whose pivot entry a
    (made positive, with b the row's entry) sits at col - t.

    Only the reducer's entries are touched, unless a is not 1: then the row
    is scaled first and its content taken after the step.  Keys keep their
    order, so a chain of steps and then `_primitive` gives the rows, order
    and signs of a chain that takes the content after every step.
    """
    a = piv[col - t]
    b = row[col]
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for c in row:
            row[c] *= a
    get = row.get
    for c, v in zip([c + t for c in piv], piv.values()) if t else piv.items():
        w = get(c, 0) - b * v
        if w:
            row[c] = w
        else:
            del row[c]
    if a != 1 and row:
        _primitive(row)


class Echelon:
    """Row echelon data for a sparse matrix with a fixed column order."""

    __slots__ = ("pivot_rows", "_reduced")

    def __init__(self, pivot_rows: dict[int, dict[int, int]]):
        self.pivot_rows = pivot_rows
        # the pivots whose rows are back-eliminated
        self._reduced: set[int] = set()

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
        the entries, not to rank squared.  A row is copied before its first
        step and the copy replaces it, so no caller's row is modified, and
        each step scales by a positive factor, so every lead keeps its sign.
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
            cols = sorted((c for c in rows[p] if c != p and c in rows), reverse=True)
            if cols:
                row = dict(rows[p])
                for c in cols:
                    _eliminate(row, rows[c], c)
                rows[p] = _primitive(row)
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
        """Whether the row lies in the row span: its lead stays a pivot
        column until every entry is eliminated."""
        row = dict(_as_int_row(row))
        rows = self.pivot_rows
        while row:
            lead = min(row)
            if lead not in rows:
                return False
            _eliminate(row, rows[lead], lead)
        return True


def echelon(rows) -> Echelon:
    """Echelonize sparse rows, picking pivots left to right in column order.
    A row is copied before its first step and made primitive as a pivot."""
    # lead -> [(row, whether the row is a copy made here)]
    buckets: dict[int, list[tuple[dict[int, int], bool]]] = {}
    heap: list[int] = []

    def push(r: dict[int, int], mine: bool) -> None:
        lead = min(r)
        if lead not in buckets:
            buckets[lead] = []
            heappush(heap, lead)
        buckets[lead].append((r, mine))

    for raw in rows:
        r = _as_int_row(raw)
        if r:
            push(r, r is not raw)

    pivot_rows: dict[int, dict[int, int]] = {}
    while heap:
        col = heappop(heap)
        here = buckets.pop(col)
        here.sort(key=lambda entry: len(entry[0]))
        piv, mine = here[0]
        pivot_rows[col] = _primitive(piv) if mine else piv
        for r, mine in here[1:]:
            if not mine:
                r = dict(r)
            _eliminate(r, piv, col)
            if r:
                push(r, True)
    return Echelon(pivot_rows)
