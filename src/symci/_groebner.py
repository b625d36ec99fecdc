"""Truncated grevlex Groebner bases over packed monomials, and the Hilbert
series of their leading monomials.

A monomial is packed into one int: the exponent of x_i fills bits
[FIELD * (i - 1), FIELD * i), so x_n is the most significant field.
Within a degree the integer order is then the grevlex column order of
`oracle.monomials` (the largest monomial is the smallest int), x_i * m is
m + 2^(FIELD * (i - 1)), and l divides m exactly when m - l borrows into
no field's top bit: that guard bit stays clear while every exponent is at
most MAX_PACKED_DEGREE.  Rows are sparse dicts from packed monomials to
integer coefficients, reduced fraction-free in place by
`_linalg._eliminate`, which takes the shift of the reducer.

The module shares no code with the closed character formulas.
"""

from __future__ import annotations

from functools import cache
from math import comb

from ._linalg import _eliminate, _primitive

_FIELD = 10
_MASK = (1 << _FIELD) - 1
MAX_PACKED_DEGREE = (1 << (_FIELD - 1)) - 1


def check_packable(d: int) -> None:
    if d > MAX_PACKED_DEGREE:
        raise ValueError(f"degree {d} is above the packed-monomial ceiling {MAX_PACKED_DEGREE}")


def _pack(exps) -> int:
    out = 0
    for e in reversed(exps):
        out = out << _FIELD | e
    return out


def _unpack(m: int, n: int) -> tuple[int, ...]:
    return tuple(m >> (_FIELD * i) & _MASK for i in range(n))


@cache
def _guard(n: int) -> int:
    """The top bit of each of the n fields."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))


@cache
def _units(n: int) -> tuple[int, ...]:
    """The packed variables x_1, ..., x_n."""
    return tuple(1 << _FIELD * i for i in range(n))


def _permute(m: int, perm) -> int:
    """sigma . m for the 0-based variable map perm: the exponent of x_k
    moves to x_perm[k]."""
    out = 0
    for p in perm:
        out |= (m & _MASK) << _FIELD * p
        m >>= _FIELD
    return out


class TruncatedBasis:
    """The grevlex Groebner basis G of the ideal of homogeneous generators,
    truncated at the highest degree grown so far.

    `gens` are (degree, packed row) pairs: each generator as a primitive
    integral row {packed monomial: coefficient}, which is copied before it
    is reduced, so the caller's rows are never modified.  Each element of
    G is kept as (packed lead, {packed monomial: integer coefficient}), in
    increasing degree; ends[d] is the number of elements of degree <= d.
    `complete` is the first degree d with every generator of degree <= d
    and no critical pair waiting past d: from there on G is a full
    Groebner basis.
    """

    def __init__(self, n: int, gens):
        self.n = n
        self.gens = tuple(gens)
        self.elements: list[tuple[int, dict[int, int]]] = []
        self.ends: list[int] = []
        # critical pairs (i, j, packed lcm of the leads) by lcm degree
        self.pairs: dict[int, list[tuple[int, int, int]]] = {}
        self.complete: int | None = None

    def grow(self, d: int) -> None:
        """Extend G through degree d by Buchberger reduction.

        In each degree e, the generators of degree e and the S-pair rows
        the criteria keep are top-reduced against G, always by the earliest
        element whose lead divides the current lead; a nonzero remainder
        joins G.  Pairs with coprime leads are never formed (Buchberger's
        product criterion).  The pair (g_i, g_j), i < j, with lcm T is kept
        only if g_i is the earliest element whose lead divides T: otherwise
        some g_k, k < i, divides T, and the pairs (g_k, g_i) and (g_k, g_j),
        whose lcms divide T, stand in for it (the chain criterion).  Its row
        is (T / LM(g_j)) * g_j, whose first reduction step, by g_i, gives
        the S-polynomial.  Two leads of one degree never divide each other,
        so every new pair has a higher degree, and the elements of degree e
        join G in increasing column order once the degree is done.
        """
        check_packable(d)
        n, elements, guard = self.n, self.elements, _guard(self.n)
        top = max(degree for degree, _ in self.gens)
        while len(self.ends) <= d:
            e = len(self.ends)
            leads = [lead for lead, _ in elements]

            def earliest(m: int) -> int:
                """The earliest element of degree < e whose lead divides m, or -1."""
                return next((k for k, lead in enumerate(leads) if not m - lead & guard), -1)

            def rows():
                """The rows of degree e, each a new dict, built as they are reduced."""
                for degree, row in self.gens:
                    if degree == e:
                        yield dict(row)
                for i, j, m in self.pairs.pop(e, ()):
                    if earliest(m) == i:
                        t = m - leads[j]
                        yield {c + t: v for c, v in elements[j][1].items()}

            # the earliest element dividing each lead met in this degree, and
            # the new elements of G; multiples are not kept, as a degree can
            # meet many leads with long multiples
            divisors: dict[int, int] = {}
            new: dict[int, dict[int, int]] = {}
            for row in rows():
                while row:
                    lead = min(row)
                    k = divisors.get(lead)
                    if k is None:
                        k = divisors[lead] = earliest(lead)
                    if k >= 0:
                        _eliminate(row, elements[k][1], lead, lead - leads[k])
                    elif lead in new:
                        _eliminate(row, new[lead], lead)
                    else:
                        new[lead] = _primitive(row)
                        break
            if new:
                exps = [_unpack(lead, n) for lead in leads]
                for lead in sorted(new):
                    mine = _unpack(lead, n)
                    for i, other in enumerate(exps):
                        if any(a and b for a, b in zip(mine, other)):
                            m = tuple(max(a, b) for a, b in zip(mine, other))
                            self.pairs.setdefault(sum(m), []).append((i, len(exps), _pack(m)))
                    exps.append(mine)
                    elements.append((lead, new[lead]))
            self.ends.append(len(elements))
            if self.complete is None and e >= top and not self.pairs:
                self.complete = e

    def numerator(self) -> list[int]:
        """The Hilbert-series numerator of R / <LM(G)>, for G as grown so far.

        Its series gives the quotient dimensions of the ideal itself
        through the degree G is grown to, and in every degree once G is a
        full Groebner basis (Macaulay's theorem).  The leads are already
        the minimal generators of <LM(G)>: each is irreducible by the
        earlier ones, and none divides an earlier one of lower or equal
        degree.
        """
        return _monomial_numerator([_unpack(lead, self.n) for lead, _ in self.elements])


def series_dim(num: list[int], n: int, d: int) -> int:
    """The coefficient of t^d in num(t) / (1 - t)^n."""
    return sum(num[k] * comb(n - 1 + d - k, d - k) for k in range(min(d, len(num) - 1) + 1))


def series_dims(num: list[int], n: int, bound: int) -> list[int]:
    """Coefficients of num(t) / (1 - t)^n through the bound."""
    return [series_dim(num, n, d) for d in range(bound + 1)]


def times_one_minus_power(num: list[int], c: int) -> list[int]:
    """num(t) * (1 - t^c)."""
    out = num + [0] * c
    for k, v in enumerate(num):
        out[k + c] -= v
    return out


def _minimal_monomials(mons) -> list[tuple[int, ...]]:
    """The minimal generators of the monomial ideal the exponent vectors span."""
    out: list[tuple[int, ...]] = []
    for m in sorted(set(mons), key=sum):
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return out


def _monomial_numerator(gens: list[tuple[int, ...]]) -> list[int]:
    """Numerator N(t) of the Hilbert series N(t) / (1 - t)^n of R / J, for
    the monomial ideal J these exponent vectors generate (Bayer and
    Stillman 1992).

    Pairwise coprime generators give prod (1 - t^deg).  Otherwise the
    pivot p = x_i^e, with x_i the variable in most generators and e its
    least positive exponent among them, splits the series along the exact
    sequence 0 -> R/(J : p)(-e) -> R/J -> R/(J + p) -> 0:
    N(J) = N(J + p) + t^e N(J : p).  J + p has fewer generators, J : p
    lower degrees.
    """
    n = len(gens[0]) if gens else 0
    uses = [sum(1 for g in gens if g[i]) for i in range(n)]
    if all(u <= 1 for u in uses):
        num = [1]
        for g in gens:
            num = times_one_minus_power(num, sum(g))
        return num
    i = max(range(n), key=uses.__getitem__)
    e = min(g[i] for g in gens if g[i])
    pivot = tuple(e if k == i else 0 for k in range(n))
    plus = _monomial_numerator([g for g in gens if not g[i]] + [pivot])
    colon = _monomial_numerator(
        _minimal_monomials(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens)
    )
    out = plus + [0] * max(0, len(colon) + e - len(plus))
    for k, v in enumerate(colon):
        out[k + e] += v
    return out
