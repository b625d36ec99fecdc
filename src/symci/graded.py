"""Graded characters: truncated power series in t with class function
coefficients, the coinvariant algebra and full polynomial ring characters,
and the closed quotient-character formulas for the four admissible
generating types.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    `bound` is the inclusive truncation degree.  With exact=True the
    series is a polynomial entirely inside the bound, so degrees past the
    bound read as zero; otherwise reading past the bound raises, so
    silent precision loss cannot happen.
    """

    __slots__ = ("n", "coeffs", "exact")

    def __init__(self, n: int, coeffs, exact: bool = False):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        for c in coeffs:
            if not isinstance(c, ClassFunction) or c.n != n:
                raise ValueError("coefficients must be class functions on the same group")
        self.n = n
        self.coeffs = coeffs
        self.exact = exact

    @property
    def bound(self) -> int:
        return len(self.coeffs) - 1

    def _zero(self) -> ClassFunction:
        return ClassFunction(self.n, {})

    def coefficient(self, d: int) -> ClassFunction:
        if d < 0:
            return self._zero()
        if d <= self.bound:
            return self.coeffs[d]
        if self.exact:
            return self._zero()
        raise ValueError(f"degree {d} is beyond the truncation bound {self.bound}")

    def top_degree(self) -> int | None:
        """Largest degree with a nonzero coefficient; None for the zero series."""
        if not self.exact:
            raise ValueError("top degree is only known for exact series")
        for d in range(self.bound, -1, -1):
            if not self.coeffs[d].is_zero():
                return d
        return None

    def truncate(self, bound: int) -> "GradedCharacter":
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if bound <= self.bound:
            exact = self.exact and all(c.is_zero() for c in self.coeffs[bound + 1 :])
            return GradedCharacter(self.n, self.coeffs[: bound + 1], exact)
        if not self.exact:
            raise ValueError(f"cannot extend a truncated series past {self.bound}")
        pad = (bound - self.bound) * (self._zero(),)
        return GradedCharacter(self.n, self.coeffs + pad, True)

    def _trimmed(self) -> tuple[ClassFunction, ...]:
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        return tuple(coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedCharacter) or self.n != other.n:
            return False
        if self.exact != other.exact:
            return False
        if self.exact:
            return self._trimmed() == other._trimmed()
        return self.coeffs == other.coeffs

    def __add__(self, other: "GradedCharacter") -> "GradedCharacter":
        return self._combine(other, 1)

    def __sub__(self, other: "GradedCharacter") -> "GradedCharacter":
        return self._combine(other, -1)

    def _combine(self, other: "GradedCharacter", sign: int) -> "GradedCharacter":
        if self.n != other.n:
            raise ValueError("mismatched symmetric groups")
        if self.exact and other.exact:
            bound, exact = max(self.bound, other.bound), True
        elif self.exact:
            bound, exact = other.bound, False
        elif other.exact:
            bound, exact = self.bound, False
        else:
            bound, exact = min(self.bound, other.bound), False
        coeffs = [
            self.coefficient(d) + sign * other.coefficient(d) for d in range(bound + 1)
        ]
        return GradedCharacter(self.n, coeffs, exact)

    def scale(self, factor) -> "GradedCharacter":
        """Multiply every coefficient by an integer or a class function."""
        return GradedCharacter(
            self.n, [c * factor for c in self.coeffs], self.exact
        )

    def __mul__(self, other):
        if isinstance(other, (int, ClassFunction)):
            return self.scale(other)
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("mismatched symmetric groups")
        if self.exact and other.exact:
            ta, tb = self.top_degree(), other.top_degree()
            if ta is None or tb is None:
                return GradedCharacter(self.n, (self._zero(),), True)
            bound, exact = ta + tb, True
        elif self.exact:
            bound, exact = other.bound, False
        elif other.exact:
            bound, exact = self.bound, False
        else:
            bound, exact = min(self.bound, other.bound), False
        coeffs = []
        for d in range(bound + 1):
            acc = self._zero()
            for i in range(d + 1):
                a = self.coefficient(i)
                if a.is_zero():
                    continue
                b = other.coefficient(d - i)
                if b.is_zero():
                    continue
                acc = acc + a * b
            coeffs.append(acc)
        return GradedCharacter(self.n, coeffs, exact)

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


def _assemble(
    n: int, polys: dict[Partition, list[int]], length: int, exact: bool
) -> GradedCharacter:
    """The graded character whose class-mu values are polys[mu], through
    degree length - 1 (a missing degree reads as zero)."""
    coeffs = [
        ClassFunction._from_clean(
            n, {mu: p[d] for mu, p in polys.items() if d < len(p) and p[d]}
        )
        for d in range(length)
    ]
    return GradedCharacter(n, coeffs, exact)


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
            return _assemble(n, series, bound + 1, False)
        polys[mu] = quot
    return _assemble(n, polys, max(len(p) for p in polys.values()), True)


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
    if c < 1:
        raise ValueError("need c >= 1")
    zero = ClassFunction(g.n, {})
    coeffs = [
        g.coeffs[d] - (g.coeffs[d - c] if d >= c else zero) for d in range(g.bound + 1)
    ]
    exact = False
    if g.exact:
        top = g.top_degree()
        exact = top is None or top + c <= g.bound
    return GradedCharacter(g.n, coeffs, exact)


def _case_factor(rt: RepresentationType, n: int) -> tuple[ClassFunction, ...]:
    """Coefficients of det(1 - t^d sigma | W) for the non-trivial summand W,
    the alternating sum of its exterior powers; just 1 in case I."""
    if rt.case_tag == "I":
        return (trivial_character(n),)
    d = rt.special_degree
    zero = ClassFunction(n, {})
    if rt.case_tag == "II":
        coeffs = [zero] * (d + 1)
        coeffs[0] = trivial_character(n)
        coeffs[d] = -sign_character(n)
    elif rt.case_tag == "III":
        coeffs = [zero] * ((n - 1) * d + 1)
        for u in range(n):
            lam = Partition([n - u] + [1] * u)
            coeffs[u * d] = (-1) ** u * irreducible_character(lam)
    else:
        coeffs = [zero] * (2 * d + 1)
        coeffs[0] = trivial_character(n)
        coeffs[d] = -irreducible_character(Partition([2, 2]))
        coeffs[2 * d] = sign_character(n)
    return tuple(coeffs)


def quotient_character(rt: RepresentationType, n: int, bound: int = 10) -> GradedCharacter:
    """Graded character of the quotient by an ideal of the given type.

    At cycle type mu the value series is the case factor at mu times
    prod_i (1 - t^c_i), over Molien's prod_j (1 - t^mu_j).  The result is
    exact (a polynomial with known top degree) precisely when every one
    of these divisions is exact over Z; otherwise it is truncated at
    bound.  Inputs that pass the shape gate but are not realizable by an
    actual regular sequence simply come back inexact.
    """
    validate_representation_type(rt, n)
    if require_int(bound, "bound") < 0:
        raise ValueError("bound must be nonnegative")
    factor = _case_factor(rt, n)

    def numerator(mu: Partition) -> list[int]:
        num = [cf.values.get(mu, 0) for cf in factor]
        for c in rt.trivial_degrees:
            num = times_one_minus(num, c)
        return num

    return _molien(n, numerator, bound)


def hilbert_series(g: GradedCharacter) -> list[int]:
    """Per-degree dimensions (coefficient values at the identity class).

    Exact series are trimmed at their top degree; truncated series report
    every degree through the bound.
    """
    dims = [c.dimension() for c in g.coeffs]
    if g.exact:
        while len(dims) > 1 and dims[-1] == 0:
            dims.pop()
    return dims


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
