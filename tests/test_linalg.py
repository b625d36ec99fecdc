"""The in-place elimination kernel against the per-step reference chain."""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symci._linalg import Echelon, _eliminate, _primitive, echelon


def combine(row, piv, col):
    """a*row - b*piv with the entry at col eliminated, content divided out:
    one step of the reference chain, which builds a new row every step."""
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


COEFFS = st.integers(-9, 9).filter(bool)
PIVOTS = st.sampled_from([1, -1, 2, -2, 3, -6])


@st.composite
def chains(draw):
    """A primitive row and reduction steps (reducer, shift, cancel).  Each
    reducer is a random sparse row whose pivot entry (1, -1, a non-unit or
    a negative value) sits at a column the row will hold, or, with cancel,
    a multiple of the whole row at that step, which cancels it to zero."""
    cols = st.integers(0, 30)
    row = draw(st.dictionaries(cols, COEFFS, min_size=1, max_size=12))
    steps = [
        (
            draw(st.dictionaries(cols, COEFFS, max_size=8)),
            draw(PIVOTS),
            draw(st.integers(0, 5)),
            draw(st.integers(0, 9)) == 0,
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    return row, steps


def run_chains(row, steps):
    """The kernel chain and the reference chain side by side; yields each
    (kernel row after `_primitive`, reference row)."""
    given_row = dict(row)
    mine = _primitive(dict(row))
    ref = dict(mine)
    for tail, entry, t, cancel in steps:
        if not ref:
            break
        col = sorted(ref)[len(tail) % len(ref)]
        if cancel:
            piv = {c - t: v * entry for c, v in ref.items()}
        else:
            piv = {col - t: entry, **{c - t: v for c, v in tail.items() if c > col}}
        shifted = {c + t: v for c, v in piv.items()}
        before = dict(mine)
        _eliminate(mine, piv, col, t)
        if abs(entry) == 1 and not cancel:
            # a unit pivot touches only the reducer's entries
            assert all(mine[c] is before[c] for c in before if c not in shifted and c in mine)
        ref = combine(ref, shifted, col)
        yield _primitive(dict(mine)), ref
    assert row == given_row


class TestKernel:
    @settings(max_examples=400, deadline=None)
    @given(chains())
    @example(({0: 2, 1: 4, 3: 6}, [({}, 1, 0, True)]))
    @example(({0: 1, 1: 1}, [({1: -1}, 1, 0, False), ({}, 1, 0, False)]))
    @example(({0: 3, 2: 5}, [({2: 7}, -2, 1, False)]))
    def test_matches_the_per_step_chain(self, chain):
        row, steps = chain
        for mine, ref in run_chains(row, steps):
            # entries, key order and signs
            assert list(mine.items()) == list(ref.items())

    def test_non_unit_pivot_takes_the_content(self):
        row = {0: 3, 1: 1}
        _eliminate(row, {0: 3, 1: 6}, 0)
        # 3*row - 3*piv = {1: -15}, content 15
        assert row == {1: -1}


def sparse_rows():
    return st.lists(
        st.dictionaries(st.integers(0, 12), COEFFS, min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    )


@st.composite
def rows_with_distinct_leads(draw):
    """Rows with pairwise distinct leads, each as given to `echelon` and as
    the primitive int row the reference starts from.  A row is primitive,
    an int multiple of one, or one divided by an int, as Fractions."""
    leads = draw(st.lists(st.integers(0, 12), unique=True, min_size=1, max_size=8))
    given_rows, int_rows = [], []
    for lead in leads:
        tail = draw(st.dictionaries(st.integers(lead + 1, 14), COEFFS, max_size=5))
        row = {lead: draw(COEFFS), **tail}
        g = gcd(*row.values())
        row = {c: v // g for c, v in row.items()}
        k = draw(st.integers(1, 6))
        kind = draw(st.sampled_from(["primitive", "multiple", "fraction"]))
        if kind == "multiple":
            given_rows.append({c: k * v for c, v in row.items()})
        elif kind == "fraction":
            given_rows.append({c: Fraction(v, k) for c, v in row.items()})
        else:
            given_rows.append(row)
        int_rows.append(row)
    return given_rows, int_rows


class TestEchelonKernel:
    @settings(max_examples=200, deadline=None)
    @given(sparse_rows(), st.dictionaries(st.integers(0, 12), COEFFS, max_size=6))
    def test_contains_matches_the_rational_reduction(self, rows, probe):
        copies = [dict(r) for r in rows]
        ech = echelon(rows)
        pivot_copies = {p: dict(r) for p, r in ech.pivot_rows.items()}
        given_probe = dict(probe)
        assert ech.contains(probe) == (not ech.reduce(probe))
        for r in rows:
            assert ech.contains(r)
        halves = {c: Fraction(v, 2) for c, v in rows[0].items()}
        assert ech.contains(halves)
        # no row is modified in place
        assert rows == copies and probe == given_probe
        assert {p: dict(r) for p, r in ech.pivot_rows.items()} == pivot_copies

    @settings(max_examples=200, deadline=None)
    @given(sparse_rows())
    # shared leads: the first row to reach a lead does not keep it
    @example([{0: 1, 1: 1}, {0: 1, 1: -1}])
    @example([{1: 3}, {0: 2, 2: 2, 3: 1}, {0: 1, 1: 1}, {1: 1, 2: 1}])
    def test_rows_are_those_of_the_per_step_chain(self, rows):
        copies = [dict(r) for r in rows]
        ech = echelon(rows)
        want = _reference_echelon(rows)
        assert {p: list(r.items()) for p, r in ech.pivot_rows.items()} == {
            p: list(r.items()) for p, r in want.items()
        }
        full = Echelon(dict(ech.pivot_rows)).ensure_reduced().pivot_rows
        scanned = dict(want)
        for p in sorted(scanned, reverse=True):
            row = scanned[p]
            for c in sorted((c for c in row if c != p and c in scanned), reverse=True):
                row = combine(row, scanned[c], c)
            scanned[p] = row
        assert {p: list(r.items()) for p, r in full.items()} == {
            p: list(r.items()) for p, r in scanned.items()
        }
        assert rows == copies

    @settings(max_examples=200, deadline=None)
    @given(rows_with_distinct_leads())
    @example(
        (
            [{3: 2, 5: 4}, {1: Fraction(1, 2), 4: 1}, {0: 1, 2: -1}],
            [{3: 1, 5: 2}, {1: 1, 4: 2}, {0: 1, 2: -1}],
        )
    )
    def test_rows_with_distinct_leads_are_the_pivot_rows(self, spec):
        rows, int_rows = spec
        copies = [dict(r) for r in rows]
        ech = echelon(rows)
        want = _reference_echelon(int_rows)
        # pivots in increasing order, with the reference's entries and order
        assert list(ech.pivot_rows) == sorted(want) == ech.pivots
        assert {p: list(r.items()) for p, r in ech.pivot_rows.items()} == {
            p: list(r.items()) for p, r in want.items()
        }
        assert rows == copies
        for r in rows:
            if all(type(v) is int for v in r.values()) and gcd(*r.values()) == 1:
                # a primitive int row is the pivot row itself, not a copy
                assert ech.pivot_rows[min(r)] is r


def _reference_echelon(rows):
    """The echelon with a new row at every step: the shortest row at each
    lead, in input order among equals, reduces the others there."""
    buckets = {}
    for r in rows:
        g = gcd(*r.values())
        r = {c: v // g for c, v in r.items()} if g > 1 else r
        buckets.setdefault(min(r), []).append(r)
    out = {}
    while buckets:
        col = min(buckets)
        here = sorted(buckets.pop(col), key=len)
        out[col] = here[0]
        for r in here[1:]:
            r = combine(r, here[0], col)
            if r:
                buckets.setdefault(min(r), []).append(r)
    return out
