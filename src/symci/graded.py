"""Graded characters: truncated power series in t with class function
coefficients, the coinvariant algebra and full polynomial ring characters,
and the closed quotient-character formulas for the four admissible
generating types.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from ._tpoly import divmod_poly, product_one_minus, series_quotient, times_one_minus
from .characters import (
    ClassFunction,
    decompose,
    irreducible_character,
    sign_character,
    trivial_character,
)
from .classify import RepresentationType, validate_representation_type
from .partitions import Partition, partitions_of, require_int

__all__ = [
    "GradedCharacter",
    "SocleReport",
    "coinvariant_character",
    "polynomial_ring_character",
    "scale_by_cyclotomic",
    "quotient_character",
    "hilbert_series",
    "socle_analysis",
]


class GradedCharacter:
    """Truncated series sum of chi_d * t^d with ClassFunction coefficients.

    Stored as one integer polynomial per cycle type mu, the series of
    class-mu values, without trailing zeros; `coefficient` and `coeffs`
    read the per-degree class functions off these.  `bound` is the
    inclusive truncation degree.  With exact=True the series is a
    polynomial entirely inside the bound, so degrees past the bound read
    as zero; otherwise reading past the bound raises, so silent precision
    loss cannot happen.
    """

    __slots__ = ("n", "_polys", "bound", "exact")

    def __init__(self, n: int, coeffs, exact: bool = False):
        require_int(n, "n")
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        for c in coeffs:
            if not isinstance(c, ClassFunction) or c.n != n:
                raise ValueError("coefficients must be class functions on the same group")
        if not isinstance(exact, bool):
            raise ValueError(f"exact must be a bool, got {exact!r}")
        polys = {mu: [c.values.get(mu, 0) for c in coeffs] for mu in partitions_of(n)}
        self._store(n, polys, len(coeffs) - 1, exact)

    def _store(self, n: int, polys: dict, bound: int, exact: bool) -> "GradedCharacter":
        """Keep polys[mu] (every cycle type of n a key) through bound."""
        self.n, self.bound, self.exact = n, bound, exact
        self._polys = {mu: _trim(p[: bound + 1]) for mu, p in polys.items()}
        return self

    def coefficient(self, d: int) -> ClassFunction:
        if require_int(d, "degree") > self.bound and not self.exact:
            raise ValueError(f"degree {d} is beyond the truncation bound {self.bound}")
        return ClassFunction._from_clean(
            self.n, {mu: p[d] for mu, p in self._polys.items() if 0 <= d < len(p) and p[d]}
        )

    @property
    def coeffs(self) -> tuple[ClassFunction, ...]:
        """The coefficients of degrees 0 through the bound."""
        return tuple(self.coefficient(d) for d in range(self.bound + 1))

    def top_degree(self) -> int | None:
        """Largest degree with a nonzero coefficient; None for the zero series."""
        if not self.exact:
            raise ValueError("top degree is only known for exact series")
        top = max(len(p) for p in self._polys.values()) - 1
        return None if top < 0 else top

    def truncate(self, bound: int) -> "GradedCharacter":
        if require_int(bound, "bound") < 0:
            raise ValueError("bound must be nonnegative")
        if bound > self.bound and not self.exact:
            raise ValueError(f"cannot extend a truncated series past {self.bound}")
        exact = self.exact and all(len(p) <= bound + 1 for p in self._polys.values())
        return _graded(self.n, self._polys, bound, exact)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedCharacter)
            and self.n == other.n
            and self.exact == other.exact
            and (self.exact or self.bound == other.bound)
            and self._polys == other._polys
        )

    def __add__(self, other: "GradedCharacter") -> "GradedCharacter":
        return self._combine(other, 1)

    def __sub__(self, other: "GradedCharacter") -> "GradedCharacter":
        return self._combine(other, -1)

    def _joint_bound(self, other: "GradedCharacter") -> tuple[int, bool]:
        """Bound and exactness of a sum or product: the least bound of the
        truncated operands, or the larger bound when both are exact."""
        if self.n != other.n:
            raise ValueError("mismatched symmetric groups")
        cuts = [g.bound for g in (self, other) if not g.exact]
        return (min(cuts), False) if cuts else (max(self.bound, other.bound), True)

    def _combine(self, other: "GradedCharacter", sign: int) -> "GradedCharacter":
        bound, exact = self._joint_bound(other)
        polys = {
            mu: [x + sign * y for x, y in zip_longest(p, other._polys[mu], fillvalue=0)]
            for mu, p in self._polys.items()
        }
        return _graded(self.n, polys, bound, exact)

    def scale(self, factor) -> "GradedCharacter":
        """Multiply every coefficient by an integer (not a bool) or a class function."""
        if isinstance(factor, ClassFunction):
            if factor.n != self.n:
                raise ValueError("mismatched symmetric groups")
            at = factor.values
        else:
            at = dict.fromkeys(self._polys, require_int(factor, "factor"))
        polys = {mu: [v * at.get(mu, 0) for v in p] for mu, p in self._polys.items()}
        return _graded(self.n, polys, self.bound, self.exact)

    def __mul__(self, other):
        if isinstance(other, (int, ClassFunction)):
            return self.scale(other)
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        bound, exact = self._joint_bound(other)
        if exact:
            ta, tb = self.top_degree(), other.top_degree()
            bound = 0 if ta is None or tb is None else ta + tb
        polys = {}
        for mu, a in self._polys.items():
            b = other._polys[mu]
            out = [0] * (bound + 1)
            for i, x in enumerate(a[: bound + 1]):
                if x:
                    for j, y in enumerate(b[: bound + 1 - i], i):
                        out[j] += x * y
            polys[mu] = out
        return _graded(self.n, polys, bound, exact)

    __rmul__ = __mul__

    def pretty(self) -> str:
        """Render as "χ[4] + (χ[4]+χ[3,1])·t + ..." with decomposed coefficients."""
        pieces = []
        for d, cf in enumerate(self.coeffs):
            if cf.is_zero():
                continue
            mults = decompose(cf)
            body = _sum_str(self.n, mults)
            if len(mults) > 1 or body.startswith("-"):
                body = f"({body})"
            if d == 0:
                pieces.append(body)
            elif d == 1:
                pieces.append(f"{body}·t")
            else:
                pieces.append(f"{body}·t^{d}")
        if not pieces:
            pieces = ["0"]
        out = " + ".join(pieces)
        if not self.exact:
            out += " + ..."
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "bound": self.bound,
            "exact": self.exact,
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    def __repr__(self) -> str:
        flavor = "exact" if self.exact else "truncated"
        return f"GradedCharacter(n={self.n}, bound={self.bound}, {flavor})"


def _trim(p: list[int]) -> list[int]:
    """p without its trailing zeros."""
    end = len(p)
    while end and not p[end - 1]:
        end -= 1
    return p[:end]


def _graded(n: int, polys: dict[Partition, list[int]], bound: int, exact: bool) -> GradedCharacter:
    """The graded character whose class-mu values are polys[mu] through
    bound (a missing degree reads as zero)."""
    return GradedCharacter.__new__(GradedCharacter)._store(n, polys, bound, exact)


def _chi_str(lam: Partition) -> str:
    return "χ[" + ",".join(str(p) for p in lam) + "]"


def _sum_str(n: int, mults: dict[Partition, int]) -> str:
    parts: list[str] = []
    for lam in partitions_of(n):
        m = mults.get(lam, 0)
        if not m:
            continue
        term = _chi_str(lam) if abs(m) == 1 else f"{abs(m)}{_chi_str(lam)}"
        if not parts:
            parts.append(term if m > 0 else f"-{term}")
        else:
            parts.append(("+" if m > 0 else "-") + term)
    return "".join(parts) or "0"


def _molien(n: int, numerator, bound: int) -> GradedCharacter:
    """Molien's formula, one conjugacy class at a time.

    At cycle type mu the value series is numerator(mu) / D_mu with
    D_mu = prod_j (1 - t^mu_j).  The graded character is a polynomial
    precisely when D_mu divides the numerator over Z for every mu; the
    quotients are then the whole answer, whatever the bound.  Otherwise
    every class is expanded as a power series through bound.
    """
    fractions = [(mu, numerator(mu), product_one_minus(mu)) for mu in partitions_of(n)]
    polys: dict[Partition, list[int]] = {}
    for mu, num, den in fractions:
        quot, rem = divmod_poly(num, den)
        if any(rem):
            series = {mu: series_quotient(num, den, bound + 1) for mu, num, den in fractions}
            return _graded(n, series, bound, False)
        polys[mu] = quot
    return _graded(n, polys, max(len(p) for p in polys.values()) - 1, True)


def coinvariant_character(n: int, bound: int | None = None) -> GradedCharacter:
    """Graded character of the quotient by the elementary symmetric ideal.

    A polynomial of top degree n(n-1)/2; the default bound covers it, so
    the result is exact unless a smaller bound is forced.
    """
    if require_int(n, "n") < 1:
        raise ValueError("need n >= 1")
    num = product_one_minus(range(1, n + 1))
    full = _molien(n, lambda mu: num, 0)
    return full if bound is None else full.truncate(require_int(bound, "bound"))


def polynomial_ring_character(n: int, bound: int) -> GradedCharacter:
    """Graded character of the full polynomial ring, truncated at bound.

    This is an honestly infinite series, so the result is never exact.
    """
    if require_int(n, "n") < 1 or require_int(bound, "bound") < 0:
        raise ValueError("need n >= 1 and bound >= 0")
    return _molien(n, lambda mu: [1], bound)


def scale_by_cyclotomic(g: GradedCharacter, c: int) -> GradedCharacter:
    """Multiply by (1 - t^c), preserving the truncation bound."""
    if require_int(c, "c") < 1:
        raise ValueError("need c >= 1")
    top = g.top_degree() if g.exact else None
    exact = g.exact and (top is None or top + c <= g.bound)
    polys = {mu: times_one_minus(p, c) for mu, p in g._polys.items()}
    return _graded(g.n, polys, g.bound, exact)


def _case_numerator(rt: RepresentationType, mu: Partition) -> list[int]:
    """det(1 - t^d sigma | W) at cycle type mu, for the non-trivial summand
    W of degree d; just 1 in case I."""
    d = rt.special_degree
    sign = (-1) ** (mu.n - len(mu))
    if rt.case_tag == "I":
        return [1]
    if rt.case_tag == "II":
        return [1] + [0] * (d - 1) + [-sign]
    if rt.case_tag == "III":
        # W is the permutation representation, det prod_j (1 - t^(d mu_j)),
        # minus the trivial one, det 1 - t^d
        return divmod_poly(product_one_minus(d * m for m in mu), product_one_minus([d]))[0]
    chi = irreducible_character(Partition([2, 2])).value(mu)
    return [1] + [0] * (d - 1) + [-chi] + [0] * (d - 1) + [sign]


def quotient_character(rt: RepresentationType, n: int, bound: int = 10) -> GradedCharacter:
    """Graded character of the quotient by an ideal of the given type.

    At cycle type mu the value series is the case numerator at mu times
    prod_i (1 - t^c_i), over Molien's prod_j (1 - t^mu_j).  The result is
    exact (a polynomial with known top degree) precisely when every one
    of these divisions is exact over Z; otherwise it is truncated at
    bound.  Exactness does not mean some regular sequence has the type:
    a type that passes the shape gate but that no regular sequence
    realizes can still come back exact, with a negative irreducible
    multiplicity in some degree.  Case I with c = 1, 1, 4, 6 at n = 4 is
    exact of top degree 8, and its degree-1 piece is -chi[4] + chi[3,1].
    """
    validate_representation_type(rt, n)
    if require_int(bound, "bound") < 0:
        raise ValueError("bound must be nonnegative")

    def numerator(mu: Partition) -> list[int]:
        num = _case_numerator(rt, mu)
        for c in rt.trivial_degrees:
            num = times_one_minus(num, c)
        return num

    return _molien(n, numerator, bound)


def hilbert_series(g: GradedCharacter) -> list[int]:
    """Per-degree dimensions (coefficient values at the identity class).

    Exact series are trimmed at their top degree; truncated series report
    every degree through the bound.
    """
    dims = g._polys[(1,) * g.n]
    if g.exact:
        return list(dims) or [0]
    return dims + [0] * (g.bound + 1 - len(dims))


@dataclass(frozen=True)
class SocleReport:
    """What sits in the top graded piece of an artinian quotient."""

    top_degree: int
    top_is_trivial: bool
    top_is_alternating: bool


def socle_analysis(g: GradedCharacter) -> SocleReport:
    """Inspect the one-dimensional top piece of a finished (exact) series."""
    if not g.exact:
        raise ValueError("socle analysis needs an exact series")
    top = g.top_degree()
    if top is None:
        raise ValueError("the zero series has no socle")
    cf = g.coefficient(top)
    if cf.dimension() != 1:
        raise ValueError(
            f"top coefficient has dimension {cf.dimension()}, not 1; "
            "not an artinian Gorenstein top piece"
        )
    return SocleReport(
        top_degree=top,
        top_is_trivial=cf == trivial_character(g.n),
        top_is_alternating=cf == sign_character(g.n),
    )
