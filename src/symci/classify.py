"""The admissibility gate for isomorphism types of minimal generating spaces.

Decides whether a multiset of irreducible summands (with degrees) has one
of the four shapes a stable complete intersection allows, and otherwise
names the first structural rule it violates.  Rule labels follow the
classification chain: "Corollary 1" (a non-hook label other than the
exceptional (2,2) at n = 4), "Corollary 2" (a hook strictly between the
one-row and one-column shapes other than (n-1,1)), "Corollary 3" (two
non-trivial summands), and "length bound" (more generators than
variables).
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, is_hook, require_int

CASE_TAGS = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class RepresentationType:
    """Shape of a minimal generating space, one of the four admissible cases.

    Case I is a sum of trivial summands only; case II adds one alternating
    summand, case III one copy of the standard (n-1,1) summand, and case
    IV (n = 4 only) one copy of the two-dimensional (2,2) summand.
    special_degree is the degree of the non-trivial summand (None for
    case I); trivial_degrees are the degrees of the trivial summands,
    kept sorted.
    """

    case_tag: str
    special_degree: int | None
    trivial_degrees: tuple[int, ...]

    def __post_init__(self):
        if self.case_tag not in CASE_TAGS:
            raise ValueError(f"unknown case tag {self.case_tag!r}")
        if (self.special_degree is None) != (self.case_tag == "I"):
            raise ValueError("special_degree is required exactly for cases II-IV")
        if self.special_degree is not None and require_int(self.special_degree, "d") < 1:
            raise ValueError("degrees must be >= 1")
        degrees = tuple(sorted(require_int(c, "trivial degree") for c in self.trivial_degrees))
        if any(c < 1 for c in degrees):
            raise ValueError("degrees must be >= 1")
        object.__setattr__(self, "trivial_degrees", degrees)

    def to_json(self) -> dict:
        return {
            "case": self.case_tag,
            "d": self.special_degree,
            "c": list(self.trivial_degrees),
        }


@dataclass(frozen=True)
class Rejection:
    """Structured refusal, naming the first violated rule."""

    rule: str
    witness: tuple
    message: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "witness": [{"partition": list(lam), "degree": d} for lam, d in self.witness],
            "message": self.message,
        }


@dataclass(frozen=True)
class IrredMultiset:
    """A multiset of (irreducible label, degree) pairs for S_n."""

    n: int
    summands: tuple

    def __post_init__(self):
        if require_int(self.n, "n") < 1:
            raise ValueError("need n >= 1")
        clean = []
        for lam, deg in self.summands:
            lam = Partition(lam)
            if lam.n != self.n:
                raise ValueError(f"{lam} is not a partition of {self.n}")
            if require_int(deg, "degree") < 1:
                raise ValueError("degrees must be >= 1")
            clean.append((lam, deg))
        object.__setattr__(self, "summands", tuple(clean))


def admissible_irreducibles(n: int) -> tuple[Partition, ...]:
    """Irreducible labels that can appear at all, in listing order.

    For n <= 3 some of the labels coincide and are listed once.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    labels = [Partition([n]), Partition([n - 1, 1])]
    if n == 4:
        labels.append(Partition([2, 2]))
    labels.append(Partition([1] * n))
    return tuple(dict.fromkeys(labels))


def _summand_dimension(lam: Partition, n: int) -> int:
    if lam == (n,) or lam == (1,) * n:
        return 1
    if lam == (n - 1, 1):
        return n - 1
    if n == 4 and lam == (2, 2):
        return 2
    raise ValueError(f"{lam} is not an admissible label")


def classify(ms: IrredMultiset):
    """Assign one of the four cases, or reject naming the first violated rule."""
    n = ms.n
    if not ms.summands:
        return Rejection("empty", (), "no summands: nothing generates a nonzero ideal")
    trivial = Partition([n])
    alternating = Partition([1] * n)
    standard = Partition([n - 1, 1]) if n >= 2 else trivial
    trivial_degrees: list[int] = []
    nontrivial: list[tuple[Partition, int]] = []
    for lam, deg in ms.summands:
        if lam == trivial:
            trivial_degrees.append(deg)
            continue
        if not is_hook(lam):
            if not (n == 4 and lam == (2, 2)):
                return Rejection(
                    "Corollary 1", ((lam, deg),), f"{lam} contains (2,2)"
                )
        elif lam not in (alternating, standard):
            return Rejection(
                "Corollary 2", ((lam, deg),), f"hook {lam} contains (2,1,1)"
            )
        nontrivial.append((lam, deg))
    if len(nontrivial) >= 2:
        return Rejection(
            "Corollary 3",
            tuple(nontrivial[:2]),
            "two non-trivial irreducible summands",
        )
    total = len(trivial_degrees) + sum(_summand_dimension(lam, n) for lam, _ in nontrivial)
    if total > n:
        return Rejection(
            "length bound",
            ms.summands,
            f"{total} generators exceed the maximal regular sequence length {n}",
        )
    degrees = tuple(sorted(trivial_degrees))
    if not nontrivial:
        return RepresentationType("I", None, degrees)
    lam, d = nontrivial[0]
    if lam == alternating:
        tag = "II"
    elif lam == standard:
        tag = "III"
    else:
        tag = "IV"
    return RepresentationType(tag, d, degrees)


def multiset_of(rt: RepresentationType, n: int) -> IrredMultiset:
    """The summand multiset a representation type describes for this n."""
    summands: list[tuple[Partition, int]] = []
    if rt.case_tag == "II":
        summands.append((Partition([1] * n), rt.special_degree))
    elif rt.case_tag == "III":
        if n < 2:
            raise ValueError("case III needs n >= 2")
        summands.append((Partition([n - 1, 1]), rt.special_degree))
    elif rt.case_tag == "IV":
        if n != 4:
            raise ValueError("case IV exists only for n = 4")
        summands.append((Partition([2, 2]), rt.special_degree))
    for c in rt.trivial_degrees:
        summands.append((Partition([n]), c))
    return IrredMultiset(n, tuple(summands))


def validate_representation_type(rt: RepresentationType, n: int) -> None:
    """Raise ValueError naming the violated rule when rt is inadmissible for n."""
    result = classify(multiset_of(rt, n))
    if isinstance(result, Rejection):
        raise ValueError(f"{result.rule}: {result.message}")
    if result != rt:
        raise ValueError(f"type {rt} degenerates to {result} for n = {n}")
