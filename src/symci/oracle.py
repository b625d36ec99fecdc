"""Brute-force ground truth on explicit polynomials.

Everything here works in exact rational arithmetic on sparse exponent
dictionaries, over the graded reverse lexicographic monomial basis:
ideal degree slices, permutation traces on quotient slices, and the
Hilbert-series regular sequence criterion.

A truncated grevlex Groebner basis G of the ideal is built one degree
at a time by Buchberger reduction on packed monomials
(`_groebner.TruncatedBasis`).  Once every generator is in and no
critical pair waits, G is a full Groebner basis.  The regular-sequence
test builds no slice: it reads each quotient dimension off the Hilbert
series of <LM(G)>.  Slices, standard monomials and normal forms are
keyed by the same packed monomials as G.  A degree slice is built on the
slice below (`_build_slice`): its rows times each variable, plus the
elements of G of that degree, whose leads are all distinct.  The standard
monomials of each degree grow from the previous degree, less that
degree's new leads.  A trace reads the normal form of each image
(`_normal_form`): a reduced slice row through the completion degree, and
past it the multiplication tables on the standard monomials, as in FGLM
(Faugere, Gianni, Lazard and Mora 1993), with no slice.

The module shares no code with the closed character formulas it is used
to check.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial, prod

from ._groebner import (
    TruncatedBasis,
    _guard,
    _pack,
    _permute,
    _units,
    _unpack,
    check_packable,
    series_dim,
    series_dims,
    times_one_minus_power,
)
from ._linalg import Echelon, _as_int_row, echelon
from .characters import ClassFunction
from .graded import GradedCharacter
from .partitions import Partition, partitions_of, require_int


def _ratio(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    raise TypeError(f"coefficients must be exact integers or fractions, got {c!r}")


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if require_int(n, "n") < 1:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[tuple[int, ...], object] = {}
        for exps, c in dict(terms or {}).items():
            exps = tuple(require_int(e, "exponent") for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for n = {n}")
            c = _ratio(c)
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _of(cls, n: int, terms: dict) -> "MultiPoly":
        """A polynomial from terms arithmetic has already checked: exponent
        tuples of length n and exact coefficients.  Zero coefficients are
        dropped and integral fractions become ints, as in `__init__`."""
        out = object.__new__(cls)
        out.n = n
        out.terms = {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in terms.items()
            if c
        }
        return out

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def constant(cls, value, n: int) -> "MultiPoly":
        return cls(n, {(0,) * require_int(n, "n"): value})

    @classmethod
    def variable(cls, i: int, n: int) -> "MultiPoly":
        if not 1 <= require_int(i, "i") <= require_int(n, "n"):
            raise ValueError(f"variable index {i} outside 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> object:
        return self.terms.get(tuple(exps), 0)

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        return max(sum(e) for e in self.terms) if self.terms else None

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _check_same_ring(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError("mismatched variable counts")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly._of(self.n, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, Fraction):
                require_int(other, "factor")
            return MultiPoly._of(self.n, {e: c * other for e, c in self.terms.items()})
        self._check_same_ring(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly._of(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if require_int(k, "power") < 0:
            raise ValueError("negative powers are not supported")
        out = MultiPoly.constant(1, self.n)
        for _ in range(k):
            out = out * self
        return out

    def apply_permutation(self, perm: tuple[int, ...]) -> "MultiPoly":
        """Relabel variables: position k maps to position perm[k] (0-based)."""
        out: dict[tuple[int, ...], object] = {}
        for exps, c in self.terms.items():
            new = [0] * self.n
            for k, e in enumerate(exps):
                new[perm[k]] = e
            out[tuple(new)] = c
        return MultiPoly._of(self.n, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda tc: (sum(tc[0]), tuple(reversed(tc[0]))))
        parts: list[str] = []
        for exps, c in items:
            vars_ = "*".join(
                f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}"
                for k, e in enumerate(exps)
                if e
            )
            if not vars_:
                term = str(abs(c))
            elif abs(c) == 1:
                term = vars_
            else:
                term = f"{abs(c)}*{vars_}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


@cache
def monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of total degree d, graded reverse lexicographic,
    largest monomial first."""
    if d < 0:
        return ()
    vecs: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            vecs.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, n)
    vecs.sort(key=lambda e: tuple(reversed(e)))
    return tuple(vecs)


def elementary_symmetric(k: int, n: int) -> MultiPoly:
    """The k-th elementary symmetric polynomial in n variables."""
    if not 1 <= require_int(k, "k") <= require_int(n, "n"):
        raise ValueError(f"need 1 <= k <= n, got k = {k}, n = {n}")
    terms = {}
    for subset in combinations(range(n), k):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return MultiPoly._of(n, terms)


def vandermonde(n: int) -> MultiPoly:
    """Product of (x_i - x_j) over i < j; alternating of degree n(n-1)/2."""
    if require_int(n, "n") < 2:
        raise ValueError("need n >= 2")
    out = MultiPoly.constant(1, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (MultiPoly.variable(i, n) - MultiPoly.variable(j, n))
    return out


def representative_permutation(mu) -> tuple[int, ...]:
    """Canonical permutation with the given cycle type, as a 0-based map.

    Cycles are filled with consecutive integers from the left: (2,1,1)
    yields the map of (1 2), (2,2) the map of (1 2)(3 4).
    """
    mu = Partition(mu)
    perm: list[int] = []
    start = 0
    for p in mu:
        perm.extend(start + (k + 1) % p for k in range(p))
        start += p
    return tuple(perm)


def _trace_permutation(mu, n: int) -> tuple[int, ...]:
    """`representative_permutation(mu)` conjugated by the reversal k -> n-1-k:
    its cycles sit on the x_n side, each moving x_k's exponent to x_{k-1}."""
    perm = representative_permutation(mu)
    return tuple(n - 1 - perm[n - 1 - k] for k in range(n))


def _check_permutation(perm, n: int) -> None:
    ints = all(isinstance(k, int) and not isinstance(k, bool) for k in perm)
    if not ints or sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {perm!r}")


def permutation_cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of length >= 2, 1-based, each starting at its minimum."""
    _check_permutation(perm, len(perm))
    seen = [False] * len(perm)
    cycles = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        k = perm[s]
        while k != s:
            cyc.append(k)
            seen[k] = True
            k = perm[k]
        if len(cyc) > 1:
            cycles.append(tuple(v + 1 for v in cyc))
    return cycles


class GeneratorSet:
    """Homogeneous generators with the truncated Groebner basis of their
    ideal and cached degree slices.

    Each generator is packed once, into a primitive integral row
    {packed monomial: coefficient} (`_rows`, (degree, row) pairs in the
    order given); the basis, the stability test and the span character all
    read these rows and never modify them.  The basis is kept through the
    highest degree any query needed, with the critical pairs waiting for
    their lcm degree (`TruncatedBasis`).  Slices, each built on the one
    below, are kept for every degree from 0 up to the highest one asked
    for.  Traces keep the standard monomials of each degree and the normal
    forms they read from the completion degree on, past which they keep
    nothing else.  Monomials are packed as in G.
    """

    def __init__(self, gens, n: int | None = None):
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        # read no attribute of a generator before its type is checked
        n = getattr(gens[0], "n", None) if n is None else require_int(n, "n")
        for g in gens:
            if not isinstance(g, MultiPoly) or g.n != n:
                raise ValueError("generators must be polynomials in one common ring")
            if g.is_zero() or not g.is_homogeneous() or g.degree() == 0:
                raise ValueError("generators must be nonzero homogeneous of degree >= 1")
        self.gens = gens
        self.n = n
        self.degrees = tuple(g.degree() for g in gens)
        self._rows = tuple(
            (d, _as_int_row({_pack(e): c for e, c in g.terms.items()}))
            for d, g in zip(self.degrees, gens)
        )
        self._slices: dict[int, DegreeSlice] = {}
        # The truncated Groebner basis, grown as far as any query needed.
        self._basis = TruncatedBasis(n, self._rows)
        # The standard monomials of each degree from 0 up, and the memoized
        # normal forms {standard monomial: coefficient} from the completion
        # degree D on: those of degree D a trace or the border at D + 1
        # read, and the border and the forms a trace has read past D.
        self._standard: list[frozenset[int]] = []
        self._forms: dict[int, dict[int, object]] = {}
        self._stable: bool | None = None

    def __repr__(self) -> str:
        return f"GeneratorSet(n={self.n}, degrees={self.degrees})"

    def is_stable(self) -> bool:
        """Whether the spanned vector space is closed under all adjacent
        transpositions of the variables (hence under the whole group)."""
        if self._stable is None:
            self._stable = self._check_stability()
        return self._stable

    def _span_echelons(self) -> Iterator[tuple[list[dict[int, int]], Echelon]]:
        """(the rows of the degree-d generators, the echelon of their span)
        for each generator degree d, in increasing order."""
        by_degree: dict[int, list[dict[int, int]]] = {}
        for d, row in self._rows:
            by_degree.setdefault(d, []).append(row)
        for _, rows in sorted(by_degree.items()):
            yield rows, echelon(rows)

    def _check_stability(self) -> bool:
        for rows, ech in self._span_echelons():
            for k in range(self.n - 1):
                perm = list(range(self.n))
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
                for row in rows:
                    if not ech.contains({_permute(m, perm): c for m, c in row.items()}):
                        return False
        return True


@dataclass
class DegreeSlice:
    """Echelonized degree-d piece of an ideal, its columns the packed
    degree-d monomials in grevlex order."""

    n: int
    degree: int
    dimension: int
    echelon: Echelon

    def basis(self) -> list[MultiPoly]:
        """Reduced echelon basis polynomials, unit leading coefficients,
        ordered by leading monomial."""
        self.echelon.ensure_reduced()
        out = []
        for p in self.echelon.pivots:
            row = self.echelon.pivot_rows[p]
            lead = row[p]
            out.append(
                MultiPoly(self.n, {_unpack(c, self.n): Fraction(v, lead) for c, v in row.items()})
            )
        return out

    def standard_monomials(self) -> list[tuple[int, ...]]:
        """Monomials spanning the quotient slice (non-pivot columns)."""
        pivots = self.echelon.pivot_rows
        return [m for m in monomials(self.n, self.degree) if _pack(m) not in pivots]


def ideal_degree_slice(gs: GeneratorSet, d: int) -> DegreeSlice:
    """Row-reduced basis of the degree-d piece of the generated ideal.

    Slices are built in increasing degree, so asking for degree d first
    builds every lower degree that is not cached yet.
    """
    if require_int(d, "d") < 0:
        raise ValueError("degree must be nonnegative")
    check_packable(d)
    for e in range(len(gs._slices), d + 1):
        _build_slice(gs, e)
    return gs._slices[d]


def _build_slice(gs: GeneratorSet, d: int) -> None:
    """The degree-d slice, built on the slice below.

    Its rows are the degree d - 1 pivot rows times each variable (one row
    for each monomial of <LM(G_<d)>_d, from the first pivot row that
    reaches it) and the degree-d elements of G, as stored.  A row of
    I_(d-1) with lead p times x_k is a row of I_d with lead p * x_k, so the
    leads are distinct, and as G is a d-truncated Groebner basis there is
    one per pivot of I_d: the echelon eliminates nothing.  The rows below
    may already be back-reduced by a trace; the reduced rows, hence every
    trace, are the same either way.
    """
    basis = gs._basis
    basis.grow(d)
    rows: dict[int, dict[int, int]] = {}
    if d:
        for p, row in gs._slices[d - 1].echelon.pivot_rows.items():
            for u in _units(gs.n):
                if p + u not in rows:
                    rows[p + u] = {c + u: v for c, v in row.items()}
    for lead, row in basis.elements[basis.ends[d - 1] if d else 0 : basis.ends[d]]:
        rows[lead] = row
    ech = echelon(list(rows.values()))
    gs._slices[d] = DegreeSlice(gs.n, d, ech.rank, ech)


def _standard_monomials(gs: GeneratorSet, d: int) -> frozenset[int]:
    """The packed degree-d monomials outside the leading ideal of I.

    They grow from degree d - 1 (`_grow_standard`).  Once a degree has
    none, no higher degree has any.
    """
    std = gs._standard
    while len(std) <= d:
        e = len(std)
        if not e:
            std.append(frozenset((0,)))
        elif not std[-1]:
            std.append(frozenset())
        else:
            std.append(_grow_standard(gs, std[-1], e))
    return std[d]


def _grow_standard(gs: GeneratorSet, prev: frozenset, d: int) -> frozenset:
    """Standard monomials of degree d from those of degree d - 1, and past
    the completion degree D the normal forms of the border: the other
    products x_k * s with s standard of degree d - 1.

    G grows through d first, so a degree-d monomial is standard exactly
    when all its degree d - 1 divisors are standard and it is not the lead
    of a degree-d element of G.  Past D there are no such leads.  A border
    monomial b has a divisor b / x_k outside the standard monomials, so
    NF(b) = NF(x_k * NF(b / x_k)): a sum of normal forms of products
    x_k * r with r < b / x_k standard, each below b.  The border is
    therefore filled in increasing order (decreasing packed ints), and
    every entry it reads is ready: these are the multiplication tables by
    each variable on the standard monomials, keyed by the product.
    """
    basis, units, guard = gs._basis, _units(gs.n), _guard(gs.n)
    basis.grow(d)
    leads = {lead for lead, _ in basis.elements[basis.ends[d - 1] : basis.ends[d]]}
    std: set[int] = set()
    border: set[int] = set()
    for s in prev:
        for u in units:
            m = s + u
            if m in std or m in border:
                continue
            if m not in leads and all(m - v & guard or m - v in prev for v in units):
                std.add(m)
            else:
                border.add(m)
    if basis.complete is not None and d > basis.complete:
        for b in sorted(border, reverse=True):
            u = next(u for u in units if not b - u & guard and b - u not in prev)
            gs._forms[b] = _times_variable(gs._forms, _normal_form(gs, b - u, d - 1), u, std)
    return frozenset(std)


def _times_variable(forms: dict, form: dict, u: int, std) -> dict:
    """NF(u * f) for the packed variable u and f in normal form, from the
    degree's border forms."""
    out: dict[int, object] = {}
    get = out.get
    for r, c in form.items():
        m = r + u
        if m in std:
            out[m] = get(m, 0) + c
        else:
            for t, v in forms[m].items():
                out[t] = get(t, 0) + c * v
    return {
        t: v.numerator if type(v) is Fraction and v.denominator == 1 else v
        for t, v in out.items()
        if v
    }


def _normal_form(gs: GeneratorSet, m: int, d: int) -> dict:
    """NF(m) modulo I, for a packed monomial m of degree d, as
    {standard monomial: coefficient}.

    Through the completion degree D of G (in every degree, if G never
    completes) it is minus the reduced slice row at m over its lead, which
    back-reduces only that row and the rows it reads; it is memoized only
    at D, where the border at D + 1 reads it.  Past D no slice is built: a
    monomial off the border has no standard divisor of degree d - 1, and
    NF(m) = NF(x_k * NF(m / x_k)) for any x_k dividing m, the divisor
    already known, if any, taken; each form found on the way is memoized.
    """
    forms, units, guard = gs._forms, _units(gs.n), _guard(gs.n)
    chain: list[tuple[int, int, frozenset]] = []
    while True:
        if m in forms:
            form = forms[m]
            break
        std = _standard_monomials(gs, d)
        if m in std:
            form = {m: 1}
            break
        complete = gs._basis.complete
        if complete is None or d <= complete:
            sl = gs._slices[d] if d in gs._slices else ideal_degree_slice(gs, d)
            row = sl.echelon.ensure_reduced((m,)).pivot_rows[m]
            lead = row[m]
            form = {
                c: -v // lead if v % lead == 0 else Fraction(-v, lead)
                for c, v in row.items()
                if c != m
            }
            if d == complete:
                forms[m] = form
            break
        ks = [u for u in units if not m - u & guard]
        u = next((u for u in ks if m - u in forms), ks[0])
        chain.append((m, u, std))
        m, d = m - u, d - 1
    for m, u, std in reversed(chain):
        form = forms[m] = _times_variable(forms, form, u, std)
    return form


def quotient_trace(gs: GeneratorSet, d: int, perm: tuple[int, ...]) -> int:
    """Trace of a variable permutation on the degree-d quotient slice.

    The quotient is identified with the span of the standard monomials,
    so the trace is the sum over standard s of the coefficient of s in
    NF(sigma . s): 1 if sigma . s is s, 0 if it is another standard
    monomial, and otherwise read off `_normal_form`.  With fewer
    generators than variables the quotient never vanishes, so a degree
    past the packed-monomial ceiling is refused before any work.  `perm`
    must be a permutation of range(n), as a sequence of ints.
    """
    _check_permutation(perm, gs.n)
    if require_int(d, "d") < 0:
        raise ValueError("degree must be nonnegative")
    if len(gs.gens) < gs.n:
        check_packable(d)
    std = _standard_monomials(gs, d)
    total = 0  # an int while every coefficient read is one
    for s in std:
        m = _permute(s, perm)
        if m not in std:
            total += _normal_form(gs, m, d).get(s, 0)
        elif m == s:
            total += 1
    if type(total) is Fraction:
        if total.denominator != 1:
            raise ArithmeticError(f"non-integral trace {total} at degree {d}")
        total = total.numerator
    return total


def quotient_graded_character(gs: GeneratorSet, bound: int) -> GradedCharacter:
    """Exact graded character of the quotient by the generated ideal.

    Each coefficient is assembled from one permutation per cycle type
    (`quotient_trace`), the conjugate `_trace_permutation` of the
    representative, at which most ideals back-reduce fewer slice rows.
    The first degree with no standard monomial makes the quotient zero
    from there on, so the series is flagged exact.  With fewer generators
    than variables there is no such degree, and a bound past the
    packed-monomial ceiling is refused before any work.
    """
    require_int(bound, "bound")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if len(gs.gens) < gs.n:
        check_packable(bound)
    if not gs.is_stable():
        raise ValueError("generator span is not stable under the variable permutations")
    n = gs.n
    coeffs: list[ClassFunction] = []
    exact = False
    for d in range(bound + 1):
        if exact or not _standard_monomials(gs, d):
            exact = True
            coeffs.append(ClassFunction(n, {}))
            continue
        values = {mu: quotient_trace(gs, d, _trace_permutation(mu, n)) for mu in partitions_of(n)}
        coeffs.append(ClassFunction(n, values))
    return GradedCharacter(n, coeffs, exact=exact)


def span_character(gs: GeneratorSet) -> ClassFunction:
    """Character of the vector space spanned by the generators themselves."""
    if not gs.is_stable():
        raise ValueError("generator span is not stable under the variable permutations")
    n = gs.n
    echelons = [ech.ensure_reduced() for _, ech in gs._span_echelons()]
    values = {}
    for mu in partitions_of(n):
        perm = representative_permutation(mu)
        inverse = sorted(range(n), key=perm.__getitem__)
        total = Fraction(0)
        for ech in echelons:
            for p, row in ech.pivot_rows.items():
                # (sigma . row) at column p equals row at sigma^{-1} . p
                v = row.get(_permute(p, inverse))
                if v:
                    total += Fraction(v, row[p])
        if total.denominator != 1:
            raise ArithmeticError(f"non-integral trace {total} on the span")
        if total:
            values[mu] = int(total)
    return ClassFunction(n, values)


def specht_square_generators() -> GeneratorSet:
    """The two degree-2 products spanning the exceptional two-dimensional
    representation inside four variables."""
    n = 4
    x = [MultiPoly.variable(i, n) for i in range(1, n + 1)]
    g1 = (x[0] - x[1]) * (x[2] - x[3])
    g2 = (x[0] - x[2]) * (x[1] - x[3])
    return GeneratorSet((g1, g2))


def standard_rep_lift(d: int, n: int) -> tuple[GeneratorSet, GeneratorSet]:
    """The span of the d-th variable powers, and its difference subspan.

    The full span carries the permutation action (trivial plus standard
    summands); the consecutive differences span just the standard summand.
    """
    if require_int(d, "d") < 1 or require_int(n, "n") < 2:
        raise ValueError("need d >= 1 and n >= 2")
    powers = []
    for i in range(1, n + 1):
        exps = [0] * n
        exps[i - 1] = d
        powers.append(MultiPoly(n, {tuple(exps): 1}))
    diffs = [powers[i] - powers[i + 1] for i in range(n - 1)]
    return GeneratorSet(tuple(powers)), GeneratorSet(tuple(diffs))


@dataclass
class RegularSequenceReport:
    """Outcome of the Hilbert-series regular sequence test."""

    ok: bool
    conclusive: bool
    horizon: int
    expected: tuple[int, ...]
    actual: tuple[int, ...]
    first_failure: int | None
    message: str

    def __bool__(self) -> bool:
        return self.ok


def _expected_quotient_dims(degrees, n: int, bound: int) -> list[int]:
    """Coefficients of prod (1 - t^c_i) / (1 - t)^n through the bound."""
    num = [1]
    for c in degrees:
        num = times_one_minus_power(num, c)
    return series_dims(num, n, bound)


def is_regular_sequence(gs: GeneratorSet, bound: int | None = None) -> RegularSequenceReport:
    """Hilbert-series criterion: quotient dimensions against the product formula.

    The true quotient dimension can only exceed the product-formula value,
    and equality in every degree characterizes regular sequences, so one
    deficit disproves regularity.  With as many generators as variables,
    agreement through degree sum(degrees) - n + 1 together with the total
    dimension count prod(degrees) is conclusive; with fewer generators the
    verdict only covers degrees up to the reported horizon.

    No slice is built.  The basis G grows one degree at a time, and the
    dimension in degree d is read off its leading monomials, which is
    exact because G is then a d-truncated Groebner basis.  G stops at the
    first degree where it is a full Groebner basis (every generator in, no
    critical pair waiting), whose leads give every later dimension, or
    where the quotient vanishes.
    """
    if bound is not None and require_int(bound, "bound") < 0:
        raise ValueError("bound must be nonnegative")
    r, n = len(gs.gens), gs.n
    if r > n:
        raise ValueError("more generators than variables can never be regular")
    total_deg = sum(gs.degrees)
    if r == n:
        horizon = max(total_deg - n + 1, 0)
        conclusive = True
    else:
        horizon = bound if bound is not None else total_deg
        conclusive = False
    check_packable(horizon)
    expected = _expected_quotient_dims(gs.degrees, n, horizon)
    actual: list[int] = []
    first_failure = None
    tail: list[int] | None = None
    basis, size = gs._basis, -1
    for d in range(horizon + 1):
        if tail is None:
            basis.grow(d)
            if len(basis.elements) != size:
                size, num = len(basis.elements), basis.numerator()
            dim = series_dim(num, n, d)
            if not dim:
                tail = [0] * (horizon + 1)
            elif basis.complete is not None and basis.complete <= d:
                tail = series_dims(num, n, horizon)
        else:
            dim = tail[d]
        actual.append(dim)
        if dim != expected[d]:
            first_failure = d
            break
    ok = first_failure is None
    message = ""
    if not ok:
        message = (
            f"failed at degree {first_failure}: quotient dimension "
            f"{actual[-1]} != expected {expected[first_failure]}"
        )
    elif r == n:
        volume = prod(gs.degrees)
        if sum(actual) != volume:
            ok = False
            message = f"total dimension {sum(actual)} != {volume}"
        else:
            message = (
                f"regular sequence (conclusive): artinian quotient of "
                f"dimension {volume}"
            )
    else:
        message = f"no deficit found; verified up to degree {horizon} (not conclusive)"
    return RegularSequenceReport(
        ok=ok,
        conclusive=conclusive and ok,
        horizon=horizon,
        expected=tuple(expected),
        actual=tuple(actual),
        first_failure=first_failure,
        message=message,
    )


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z]+\d*)|([-+*^()]))")
# A generator of degree d puts the degree-d slice, of C(n + d - 1, d)
# columns, on every oracle path, and `^` multiplies one factor at a time,
# so the parser refuses any degree above this before computing it.
MAX_GENERATOR_DEGREE = 100
# Each level of parentheses costs the recursive descent four stack frames.
MAX_NESTING = 50
# The parser refuses a result that could have more terms than this before
# computing it: C(n, k) for e_k, n! for vdm, and for * and ^ the product of
# the factors' term counts, capped by the number of monomials of that
# degree or less.  e8 in 16 variables has 12870 terms; vdm in 8 variables
# has 40320 and is refused (it took 2.4 s and 61 MB to expand).
MAX_TERMS = 20_000


class _PolyParser:
    """Recursive descent for '+ - * ^' expressions over x1..xn, e1..en, vdm."""

    def __init__(self, text: str, n: int):
        self.n = n
        self.depth = 0
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"bad character at {text[pos:pos + 10]!r}")
                break
            self.tokens.append(m.group(0).strip())
            pos = m.end()
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        out = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return out

    def expr(self) -> MultiPoly:
        sign = 1
        if self.peek() in {"+", "-"}:
            sign = -1 if self.take() == "-" else 1
        out = self.term() * sign
        while self.peek() in {"+", "-"}:
            op = self.take()
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            right = self.factor()
            degree = (out.degree() or 0) + (right.degree() or 0)
            _check_degree(degree)
            _check_terms(min(len(out.terms) * len(right.terms), comb(self.n + degree, self.n)))
            out = out * right
        return out

    def factor(self) -> MultiPoly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"exponent must be a nonnegative integer, got {tok!r}")
            if not base.degree():
                raise ValueError("the base of a power must have positive degree")
            k = int(tok)
            _check_degree(base.degree() * k)
            _check_terms(min(len(base.terms) ** k, comb(self.n + base.degree() * k, self.n)))
            return base**k
        return base

    def atom(self) -> MultiPoly:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING}")
            out = self.expr()
            if self.take() != ")":
                raise ValueError("missing closing parenthesis")
            self.depth -= 1
            return out
        if tok.isdigit():
            return MultiPoly.constant(int(tok), self.n)
        m = re.fullmatch(r"([a-zA-Z]+)(\d*)", tok)
        if not m:
            raise ValueError(f"unexpected token {tok!r}")
        name, idx = m.group(1), m.group(2)
        if name == "vdm" and not idx:
            _check_degree(self.n * (self.n - 1) // 2)
            _check_terms(factorial(self.n))
            return vandermonde(self.n)
        if name in {"x", "e"} and idx:
            k = int(idx)
            if not 1 <= k <= self.n:
                raise ValueError(f"index {k} outside 1..{self.n} in {tok!r}")
            if name == "x":
                return MultiPoly.variable(k, self.n)
            _check_terms(comb(self.n, k))
            return elementary_symmetric(k, self.n)
        raise ValueError(f"unknown name {tok!r} (expected x<k>, e<k> or vdm)")


def _check_degree(d: int) -> None:
    if d > MAX_GENERATOR_DEGREE:
        raise ValueError(f"degree {d} is above the ceiling {MAX_GENERATOR_DEGREE}")


def _check_terms(count: int) -> None:
    if count > MAX_TERMS:
        raise ValueError(f"up to {count} terms is above the ceiling {MAX_TERMS}")


def parse_poly(text: str, n: int) -> MultiPoly:
    """Parse one polynomial expression in variables x1..xn.

    Grammar: integers, x<k>, e<k> (elementary symmetric), vdm (the
    alternating product of all differences), with + - * ^ and parentheses.
    The base of a power must have positive degree.  A degree above
    MAX_GENERATOR_DEGREE, a result that could have more than MAX_TERMS
    terms, or parentheses nested deeper than MAX_NESTING, raise ValueError
    before any of that arithmetic is done.
    """
    return _PolyParser(text, n).parse()


def parse_generator_file(text: str, n: int) -> GeneratorSet:
    """One generator per line; blank lines and '#' comments are skipped."""
    gens = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            gens.append(parse_poly(body, n))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if not gens:
        raise ValueError("no generators found")
    return GeneratorSet(tuple(gens))
