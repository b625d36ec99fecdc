"""Integer partitions and the combinatorial predicates built on them.

Partitions index both the irreducible representations of the symmetric
group and its conjugacy classes (cycle types), so everything else in the
package speaks this vocabulary.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cache
from math import factorial


def require_int(value, field: str) -> int:
    """Return value when it is an int, not a bool; otherwise raise naming field.

    Floats, bools and other numbers are refused rather than coerced, so
    2.9 never silently becomes 2 and True never becomes 1.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    The empty partition is the unique partition of 0.  Input that is not
    weakly decreasing is rejected rather than sorted: silently sorting
    would mask transposed-argument bugs in callers.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive integers: {parts!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def __repr__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"

    def to_json(self) -> list[int]:
        return list(self)


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse-lexicographic order starting from (n)."""
    if require_int(n, "n") < 0:
        raise ValueError("n must be nonnegative")

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in rec(n, n))


def contains(lam, mu) -> bool:
    """Whether lam has at least as many parts as mu and covers it entrywise."""
    lam, mu = Partition(lam), Partition(mu)
    return len(lam) >= len(mu) and all(lam[i] >= mu[i] for i in range(len(mu)))


def is_hook(lam) -> bool:
    """Whether lam has shape (a, 1, ..., 1)."""
    lam = Partition(lam)
    if not lam:
        raise ValueError("the hook test needs a nonempty partition")
    return all(p == 1 for p in lam[1:])


def n_stat(mu) -> int:
    """The statistic sum of (i - 1) * mu_i over rows i (1-based)."""
    return sum(i * p for i, p in enumerate(Partition(mu)))


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram: column lengths become parts."""
    lam = Partition(lam)
    if not lam:
        return lam
    return Partition(sum(1 for p in lam if p > j) for j in range(lam[0]))


def class_size(lam) -> int:
    """Size of the conjugacy class of S_n with cycle type lam."""
    lam = Partition(lam)
    n = lam.n
    if n < 1:
        raise ValueError("cycle types need n >= 1")
    z = 1
    for part, mult in Counter(lam).items():
        z *= part**mult * factorial(mult)
    return factorial(n) // z


_ITEM = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str) -> Partition:
    """Parse "(3,1)", "[3,1]", "3,1", or exponent shorthand "(2^2,1^3)"."""
    body = text.strip()
    if body and body[0] in "([":
        if (body[0], body[-1]) not in {("(", ")"), ("[", "]")}:
            raise ValueError(f"unbalanced brackets in partition {text!r}")
        body = body[1:-1].strip()
    if not body:
        return Partition()
    parts: list[int] = []
    for item in body.split(","):
        m = _ITEM.match(item.strip())
        if not m:
            raise ValueError(f"bad partition item {item.strip()!r} in {text!r}")
        part, mult = int(m.group(1)), int(m.group(2) or 1)
        parts.extend([part] * mult)
    return Partition(parts)


def format_partition(lam, shorthand: bool = False) -> str:
    """Render "(3,1)", or "(2^2,1^3)" when shorthand is requested."""
    lam = Partition(lam)
    if not shorthand:
        return repr(lam)
    items = []
    for part, mult in Counter(lam).items():
        items.append(str(part) if mult == 1 else f"{part}^{mult}")
    return "(" + ",".join(items) + ")"
