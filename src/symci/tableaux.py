"""Young tableaux, the charge statistic, Kostka-Foulkes polynomials, and a
small straightening engine for transposition actions on standard tableaux.

Two word conventions coexist on purpose.  The charge statistic reads a
tableau row by row starting from the bottom row; the convention is pinned
by the single-row and single-column shapes (the word 1..n has charge
n(n-1)/2, its reversal has charge 0).  Tableau listings sort by the
top-first row word, which keeps bases in the familiar order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from ._linalg import echelon
from ._tpoly import divmod_poly, product_one_minus
from .partitions import Partition, conjugate, n_stat, require_int


class Tableau:
    """A left-justified filling of a Young diagram with positive integers."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(require_int(v, "entry") for v in row) for row in rows)
        if any(not row for row in rows):
            raise ValueError("empty rows are not allowed")
        if any(len(rows[i]) < len(rows[i + 1]) for i in range(len(rows) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing: {rows!r}")
        if any(v < 1 for row in rows for v in row):
            raise ValueError("entries must be positive integers")
        self.rows = rows

    @property
    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.rows if len(row) > c)

    def is_standard(self) -> bool:
        """Bijective filling by 1..n, strictly increasing along rows and columns."""
        n = self.size
        entries = [v for row in self.rows for v in row]
        if sorted(entries) != list(range(1, n + 1)):
            return False
        return self.is_semistandard() and all(
            row[i] < row[i + 1] for row in self.rows for i in range(len(row) - 1)
        )

    def is_semistandard(self) -> bool:
        """Weakly increasing rows, strictly increasing columns."""
        for row in self.rows:
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                return False
        for r in range(len(self.rows) - 1):
            upper, lower = self.rows[r], self.rows[r + 1]
            if any(upper[c] >= lower[c] for c in range(len(lower))):
                return False
        return True

    def weight(self) -> tuple[int, ...]:
        """Multiplicities of the entries 1..max."""
        if not self.rows:
            return ()
        counts = Counter(v for row in self.rows for v in row)
        return tuple(counts.get(k, 0) for k in range(1, max(counts) + 1))

    def reading_word(self) -> tuple[int, ...]:
        """Row word, bottom row first, left to right inside each row."""
        word: list[int] = []
        for row in reversed(self.rows):
            word.extend(row)
        return tuple(word)

    def cell_of(self, value: int) -> tuple[int, int]:
        for r, row in enumerate(self.rows):
            for c, v in enumerate(row):
                if v == value:
                    return r, c
        raise ValueError(f"{value} does not appear in the tableau")

    def with_swapped(self, i: int, j: int) -> "Tableau":
        sub = {i: j, j: i}
        return Tableau(tuple(sub.get(v, v) for v in row) for row in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __lt__(self, other: "Tableau") -> bool:
        return self.rows < other.rows

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self.rows]})"

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def standard_tableaux(shape) -> tuple[Tableau, ...]:
    """All standard tableaux of the given shape, sorted by top-first row word."""
    return _standard_tableaux(Partition(shape))


@cache
def _standard_tableaux(shape: Partition) -> tuple[Tableau, ...]:
    if not shape:
        raise ValueError("need a nonempty shape")
    n = shape.n
    rows: list[list[int]] = [[] for _ in shape]
    out: list[Tableau] = []

    def place(v: int) -> None:
        if v > n:
            out.append(Tableau(tuple(tuple(r) for r in rows)))
            return
        for r in range(len(shape)):
            if len(rows[r]) < shape[r] and (r == 0 or len(rows[r]) < len(rows[r - 1])):
                rows[r].append(v)
                place(v + 1)
                rows[r].pop()

    place(1)
    return tuple(sorted(out, key=lambda t: t.rows))


def semistandard_tableaux(shape, weight) -> tuple[Tableau, ...]:
    """All semistandard tableaux of the given shape and content."""
    shape, weight = Partition(shape), Partition(weight)
    if shape.n != weight.n:
        raise ValueError(f"shape {shape} and weight {weight} have different sizes")
    if not shape:
        return (Tableau(()),)
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    grid = [[0] * ln for ln in shape]
    remaining = list(weight)
    out: list[Tableau] = []

    def fill(idx: int) -> None:
        if idx == len(cells):
            out.append(Tableau(tuple(tuple(r) for r in grid)))
            return
        r, c = cells[idx]
        lo = 1
        if c:
            lo = grid[r][c - 1]
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                grid[r][c] = v
                fill(idx + 1)
                remaining[v - 1] += 1
        grid[r][c] = 0

    fill(0)
    return tuple(sorted(out, key=lambda t: t.rows))


def _standard_word_charge(seq: list[int]) -> int:
    pos = {letter: i for i, letter in enumerate(seq)}
    idx = total = 0
    for letter in range(2, len(seq) + 1):
        if pos[letter] > pos[letter - 1]:
            idx += 1
        total += idx
    return total


def charge(t: Tableau) -> int:
    """Charge of a semistandard tableau with partition content.

    For a standard reading word the letter 1 gets index 0 and letter k+1
    gets the index of letter k, plus one exactly when k+1 sits strictly to
    the right of k; charge is the sum of the indices.  Words with repeated
    letters split into standard subwords first: scan from the right for a
    1, then keep scanning leftwards (wrapping around) for a 2, a 3, and so
    on; the selected letters form one subword and the split repeats on
    whatever is left.
    """
    if not t.is_semistandard():
        raise ValueError("charge is defined for semistandard tableaux")
    w = t.weight()
    if 0 in w or any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise ValueError("charge needs weakly decreasing content without gaps")
    word = list(t.reading_word())
    alive = [True] * len(word)
    left = len(word)
    total = 0
    while left:
        maxletter = max(word[i] for i in range(len(word)) if alive[i])
        pos = next(i for i in range(len(word) - 1, -1, -1) if alive[i] and word[i] == 1)
        picks = [pos]
        for letter in range(2, maxletter + 1):
            j = (pos - 1) % len(word)
            while not (alive[j] and word[j] == letter):
                j = (j - 1) % len(word)
            picks.append(j)
            pos = j
        picks.sort()
        total += _standard_word_charge([word[i] for i in picks])
        for i in picks:
            alive[i] = False
        left -= len(picks)
    return total


class UnivariatePoly:
    """Sparse polynomial in one formal variable t with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[int, int] = {}
        for e, c in dict(coeffs or {}).items():
            if require_int(e, "exponent") < 0:
                raise ValueError("negative exponents are not supported")
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be integers, got {c!r}")
            if c:
                clean[e] = c
        self.coeffs = clean

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    def degree(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = UnivariatePoly({0: other})
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return UnivariatePoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivariatePoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return UnivariatePoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        return sum(c * x**e for e, c in self.coeffs.items())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            base = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            if e == 0:
                term = str(abs(c))
            elif abs(c) == 1:
                term = base
            else:
                term = f"{abs(c)}{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self.items()}


def kostka_foulkes(lam, mu) -> UnivariatePoly:
    """Charge generating polynomial over semistandard tableaux of shape lam,
    content mu; evaluating at 1 gives the plain tableau count."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.n != mu.n:
        raise ValueError(f"{lam} and {mu} have different sizes")
    coeffs: Counter = Counter()
    for t in semistandard_tableaux(lam, mu):
        coeffs[charge(t)] += 1
    return UnivariatePoly(coeffs)


def _hook_lengths(lam: Partition) -> list[int]:
    conj = conjugate(lam)
    return [lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def _column_kostka_foulkes(lam: Partition) -> UnivariatePoly:
    """K(lam, 1^n) by the q-hook formula (Macdonald III.6, Stanley EC2 7.21):

        t^n(lam') prod_{i<=n} (1 - t^i) / prod_{cells x} (1 - t^h(x)).
    """
    num = product_one_minus(range(1, lam.n + 1))
    quot, _ = divmod_poly(num, product_one_minus(_hook_lengths(lam)))
    shift = n_stat(conjugate(lam))
    return UnivariatePoly({shift + e: c for e, c in enumerate(quot) if c})


def kostka_foulkes_tilde(lam, mu) -> UnivariatePoly:
    """The charge polynomial with exponents flipped around n_stat(mu).

    The column weight mu = 1^n uses the q-hook formula and enumerates no
    tableau; every other weight sums charge over semistandard tableaux,
    which stays the independent check of the closed form.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.n == mu.n and mu == (1,) * mu.n:
        k = _column_kostka_foulkes(lam)
    else:
        k = kostka_foulkes(lam, mu)
    top = n_stat(mu)
    flipped: dict[int, int] = {}
    for e, c in k.coeffs.items():
        if e > top:
            raise ArithmeticError(f"charge {e} exceeds n_stat({Partition(mu)}) = {top}")
        flipped[top - e] = c
    return UnivariatePoly(flipped)


class TableauCombination:
    """Exact rational combination of tableaux sharing one shape."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean: dict[Tableau, Fraction] = {}
        shape = None
        for t, c in dict(terms).items():
            if not isinstance(t, Tableau):
                raise TypeError("keys must be tableaux")
            if shape is None:
                shape = t.shape
            elif t.shape != shape:
                raise ValueError("all tableaux must share one shape")
            c = Fraction(c)
            if c:
                clean[t] = c
        self.terms = clean

    def coefficient(self, t: Tableau) -> Fraction:
        return self.terms.get(t, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, TableauCombination) and self.terms == other.terms

    def __neg__(self) -> "TableauCombination":
        return TableauCombination({t: -c for t, c in self.terms.items()})

    def __add__(self, other: "TableauCombination") -> "TableauCombination":
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, Fraction(0)) + c
        return TableauCombination(out)

    def __sub__(self, other: "TableauCombination") -> "TableauCombination":
        return self + (-other)

    def __mul__(self, scalar) -> "TableauCombination":
        return TableauCombination({t: c * scalar for t, c in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda tc: tc[0].rows)
        return "TableauCombination({" + ", ".join(f"{t!r}: {c}" for t, c in items) + "})"


def _mult_linear(poly: dict, a: int, b: int, n: int) -> dict:
    """poly * (x_a - x_b), entries 1-based, dense exponent tuples of length n."""
    out: dict[tuple, int] = {}
    for exps, c in poly.items():
        for var, s in ((a, c), (b, -c)):
            e = list(exps)
            e[var - 1] += 1
            key = tuple(e)
            v = out.get(key, 0) + s
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _column_difference_product(rows: tuple[tuple[int, ...], ...], n: int) -> dict:
    """Product over all columns of the pairwise differences of their entries."""
    poly = {(0,) * n: 1}
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        col = [row[c] for row in rows if len(row) > c]
        for i in range(len(col)):
            for j in range(i + 1, len(col)):
                poly = _mult_linear(poly, col[i], col[j], n)
    return poly


@cache
def _standard_basis_echelon(shape: Partition):
    """The standard tableaux of a shape, an index of the monomials of their
    column difference products, and the echelon form of those products.

    Basis polynomial k carries a tag column len(index) + k, placed after
    every monomial column, so a pivot only lands on a tag column when the
    polynomials are dependent.
    """
    basis = standard_tableaux(shape)
    polys = [_column_difference_product(t.rows, shape.n) for t in basis]
    index = {m: c for c, m in enumerate(sorted({m for p in polys for m in p}))}
    tag = len(index)
    ech = echelon(
        {**{index[m]: v for m, v in p.items()}, tag + k: 1} for k, p in enumerate(polys)
    )
    if max(ech.pivot_rows, default=-1) >= tag:
        raise ValueError("columns are linearly dependent; no unique solution")
    return basis, index, ech


def _expand_in_standard_basis(rows, shape) -> TableauCombination:
    """Solve target = sum_k x_k * poly_k: reducing the target by the tagged
    echelon leaves -sum_k x_k * tag_k, plus monomial support if the target
    is outside the span."""
    shape = Partition(shape)
    basis, index, ech = _standard_basis_echelon(shape)
    target = _column_difference_product(rows, shape.n)
    # a monomial no basis polynomial has gets its own negative column,
    # which no pivot touches
    rest = ech.reduce({index.get(m, -1 - j): v for j, (m, v) in enumerate(target.items())})
    tag = len(index)
    if any(c < tag for c in rest):
        raise ValueError("right-hand side is outside the column span")
    return TableauCombination({b: -rest.get(tag + k, 0) for k, b in enumerate(basis)})


def apply_transposition(i: int, t: Tableau, j: int | None = None) -> TableauCombination:
    """Expansion of the transposed standard tableau in the standard basis.

    Covers the adjacent transposition (i, i+1) on any standard tableau and
    the sign action of an arbitrary transposition whose two entries share
    a column.  Anything else is outside the implemented fragment.  The
    same-row case expands the permuted tableau through the realization of
    the basis by column difference products, so no rewriting rules are
    hard-coded.
    """
    if j is None:
        j = i + 1
    if i == j:
        raise ValueError("need two distinct entries")
    if i > j:
        i, j = j, i
    if not t.is_standard():
        raise ValueError("apply_transposition expects a standard tableau")
    n = t.size
    if not (1 <= i < j <= n):
        raise ValueError(f"entries ({i} {j}) outside 1..{n}")
    ri, ci = t.cell_of(i)
    rj, cj = t.cell_of(j)
    if ci == cj:
        return TableauCombination({t: -1})
    if j != i + 1:
        raise ValueError(
            f"transposition ({i} {j}) is neither adjacent nor a column pair; "
            "out of the implemented fragment"
        )
    if ri == rj:
        return _expand_in_standard_basis(t.with_swapped(i, j).rows, t.shape)
    return TableauCombination({t.with_swapped(i, j): 1})
