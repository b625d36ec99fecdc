"""Exact class functions on the symmetric group.

Irreducible character values come from the Murnaghan-Nakayama border-strip
recursion, phrased on beta numbers (first-column hook lengths); everything
downstream is plain integer and rational arithmetic, with no floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from operator import mul

from .partitions import Partition, class_size, parse_partition, partitions_of, require_int


class ClassFunction:
    """Integer-valued function on the conjugacy classes of S_n.

    Values are stored sparsely by cycle type; a missing cycle type reads
    as 0.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values=None):
        if require_int(n, "n") < 1:
            raise ValueError("class functions need n >= 1")
        self.n = n
        vals: dict[Partition, int] = {}
        for mu, v in dict(values or {}).items():
            mu = Partition(mu)
            if mu.n != n:
                raise ValueError(f"{mu} is not a cycle type for n = {n}")
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise TypeError(f"class function values must be integers, got {v}")
                v = int(v)
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"class function values must be integers, got {v!r}")
            if v:
                vals[mu] = v
        self.values = vals

    @classmethod
    def _from_clean(cls, n: int, values: dict[Partition, int]) -> "ClassFunction":
        """Wrap values already keyed by Partition, with nonzero int values."""
        self = cls.__new__(cls)
        self.n = n
        self.values = values
        return self

    def value(self, mu) -> int:
        return self.values.get(Partition(mu), 0)

    def dimension(self) -> int:
        """Value at the identity class."""
        return self.value((1,) * self.n)

    def is_zero(self) -> bool:
        return not self.values

    def _check_same_group(self, other: "ClassFunction") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched symmetric groups: n = {self.n} vs {other.n}")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_same_group(other)
        out = dict(self.values)
        for mu, v in other.values.items():
            out[mu] = out.get(mu, 0) + v
        return ClassFunction(self.n, out)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + (-other)

    def __neg__(self) -> "ClassFunction":
        return ClassFunction(self.n, {mu: -v for mu, v in self.values.items()})

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return ClassFunction(self.n, {mu: v * other for mu, v in self.values.items()})
        if not isinstance(other, ClassFunction):
            return NotImplemented
        self._check_same_group(other)
        return ClassFunction(
            self.n,
            {mu: v * other.values[mu] for mu, v in self.values.items() if mu in other.values},
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.n == other.n
            and self.values == other.values
        )

    def __repr__(self) -> str:
        body = {repr(mu): v for mu in partitions_of(self.n) if (v := self.values.get(mu))}
        return f"ClassFunction({self.n}, {body})"

    def to_json(self) -> dict[str, int]:
        return {key: v for mu, key in _json_keys(self.n) if (v := self.values.get(mu))}

    @classmethod
    def from_json(cls, n: int, obj: dict) -> "ClassFunction":
        return cls(n, {parse_partition(k): v for k, v in obj.items()})


@cache
def _json_keys(n: int) -> tuple[tuple[Partition, str], ...]:
    """Each partition of n with its JSON key ("2,1,1"), in listing order."""
    return tuple((mu, ",".join(str(p) for p in mu)) for mu in partitions_of(n))


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, {mu: 1 for mu in partitions_of(n)})


def sign_character(n: int) -> ClassFunction:
    return ClassFunction(n, {mu: (-1) ** (n - len(mu)) for mu in partitions_of(n)})


@cache
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Character value by removing one border strip per cycle length."""
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], rho[1:]
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        nbeta = sorted((nb if c == b else c for c in beta), reverse=True)
        nlam = tuple(v - (ell - 1 - idx) for idx, v in enumerate(nbeta))
        while nlam and nlam[-1] == 0:
            nlam = nlam[:-1]
        total += (-1) ** height * _mn(nlam, rest)
    return total


def irreducible_character(lam) -> ClassFunction:
    """The irreducible character indexed by lam, on all cycle types."""
    return _irreducible_character(Partition(lam))


@cache
def _irreducible_character(lam: Partition) -> ClassFunction:
    n = lam.n
    if n < 1:
        raise ValueError("need a partition of n >= 1")
    return ClassFunction(n, {mu: _mn(tuple(lam), tuple(mu)) for mu in partitions_of(n)})


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    """Standard class function pairing, exact rational."""
    a._check_same_group(b)
    n = a.n
    total = sum(class_size(mu) * a.value(mu) * b.value(mu) for mu in partitions_of(n))
    return Fraction(total, factorial(n))


def decompose(a: ClassFunction, require_nonnegative: bool = False) -> dict[Partition, int]:
    """Multiplicities of the irreducibles in a virtual character.

    Raises when an inner product is not an integer (the input is not a
    virtual character), and on negative multiplicities when the caller
    asserts the input is the character of an actual representation.
    """
    order = factorial(a.n)
    values = [a.values.get(mu, 0) for mu in partitions_of(a.n)]
    out: dict[Partition, int] = {}
    for lam, row in _weighted_table(a.n):
        total = sum(map(mul, row, values))
        m, r = divmod(total, order)
        if r:
            raise ValueError(f"not a virtual character: <a, chi^{lam}> = {Fraction(total, order)}")
        if m:
            out[lam] = m
    # signs only once every inner product is known to be an integer, so an
    # input that is not a virtual character is always reported as such
    if require_nonnegative:
        for lam, m in out.items():
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at {lam}")
    return out


@cache
def _weighted_table(n: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """(lam, row) for each irreducible, with row[i] = |class mu_i| * chi^lam(mu_i)
    over mu_i in partitions_of(n): the inner product with a class function
    is then one dot product with its value vector."""
    classes = partitions_of(n)
    sizes = [class_size(mu) for mu in classes]
    return tuple(
        (lam, tuple(s * _mn(lam, mu) for s, mu in zip(sizes, classes))) for lam in classes
    )
