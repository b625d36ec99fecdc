import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symci import _groebner, oracle
from symci._linalg import Echelon, echelon
from symci.characters import decompose
from symci.classify import RepresentationType
from symci.graded import quotient_character
from symci.oracle import (
    GeneratorSet,
    MultiPoly,
    elementary_symmetric,
    ideal_degree_slice,
    is_regular_sequence,
    monomials,
    parse_generator_file,
    parse_poly,
    partitions_of,
    quotient_graded_character,
    quotient_trace,
    representative_permutation,
    span_character,
    specht_square_generators,
    standard_rep_lift,
    vandermonde,
)
from symci.partitions import Partition

from golden import WORKED
from test_linalg import combine

GENS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "gens")


def x(i, n=4):
    return MultiPoly.variable(i, n)


def worked_generators(key, n=4):
    return GeneratorSet(tuple(parse_poly(s, n) for s in WORKED[key]["gens"]))


@dataclass
class ReferenceSlice:
    """A degree-d slice over dense columns: column i is monomials(n, d)[i]."""

    n: int
    degree: int
    dimension: int
    echelon: Echelon

    def basis(self):
        mons = monomials(self.n, self.degree)
        pivots = self.echelon.ensure_reduced().pivot_rows
        return [
            MultiPoly(self.n, {mons[c]: Fraction(v, row[p]) for c, v in row.items()})
            for p, row in sorted(pivots.items())
        ]

    def standard_monomials(self):
        pivots = self.echelon.pivot_rows
        return [m for i, m in enumerate(monomials(self.n, self.degree)) if i not in pivots]


def all_multiples_slice(gs, d):
    """Reference degree-d slice, built from scratch: every monomial multiple
    of every generator of degree <= d, then one echelon."""
    index = {m: i for i, m in enumerate(monomials(gs.n, d))}
    rows = [
        {index[tuple(a + b for a, b in zip(m, e))]: v for e, v in g.terms.items()}
        for g in gs.gens
        if g.degree() <= d
        for m in monomials(gs.n, d - g.degree())
    ]
    ech = echelon(rows)
    return ReferenceSlice(gs.n, d, ech.rank, ech)


def reduced_rows(sl):
    """The reduced echelon form, unit leads, as exponent dictionaries."""
    return [b.terms for b in sl.basis()]


def reduced_by_pairwise_scan(pivot_rows):
    """The O(rank^2) back-elimination that `Echelon.ensure_reduced` did
    before the one-pass version: for each pivot, largest first, scan every
    other row for it.  Kept as the reference for the one-pass rows."""
    rows = dict(pivot_rows)
    for p in sorted(rows, reverse=True):
        prow = rows[p]
        for q in list(rows):
            if q < p and p in rows[q]:
                rows[q] = combine(rows[q], prow, p)
    return rows


def reference_report(gs):
    """(ok, conclusive, horizon, actual, first_failure, message) of the
    Hilbert-series test with no bound, from the ranks of
    `all_multiples_slice` in every degree through the horizon, stopping at
    the first deficit."""
    r, n = len(gs.gens), gs.n
    total = sum(gs.degrees)
    horizon = max(total - n + 1, 0) if r == n else total
    # prod (1 - t^c) / (1 - t)^n, starting from the series of 1 / (1 - t)^n
    expected = [comb(n - 1 + d, d) for d in range(horizon + 1)]
    for c in gs.degrees:
        expected = [v - (expected[d - c] if d >= c else 0) for d, v in enumerate(expected)]
    actual = []
    for d in range(horizon + 1):
        actual.append(comb(n + d - 1, d) - all_multiples_slice(gs, d).dimension)
        if actual[-1] != expected[d]:
            message = (
                f"failed at degree {d}: quotient dimension {actual[-1]} != expected {expected[d]}"
            )
            return False, False, horizon, tuple(actual), d, message
    if r < n:
        message = f"no deficit found; verified up to degree {horizon} (not conclusive)"
        return True, False, horizon, tuple(actual), None, message
    volume = prod(gs.degrees)
    if sum(actual) != volume:
        return False, False, horizon, tuple(actual), None, f"total dimension {sum(actual)} != {volume}"
    message = f"regular sequence (conclusive): artinian quotient of dimension {volume}"
    return True, True, horizon, tuple(actual), None, message


def report_tuple(report):
    return (
        report.ok,
        report.conclusive,
        report.horizon,
        report.actual,
        report.first_failure,
        report.message,
    )


def power_sum(k, n):
    return parse_poly(" + ".join(f"x{i}^{k}" for i in range(1, n + 1)), n)


def product_formula_dims(degrees, n):
    """Coefficients of prod_c (1 + t + ... + t^(c-1)), the quotient
    dimensions of a regular sequence of n forms of these degrees."""
    dims = [1]
    for c in degrees:
        out = [0] * (len(dims) + c - 1)
        for i, v in enumerate(dims):
            for j in range(c):
                out[i + j] += v
        dims = out
    return dims


FAMILIES = {
    "coinv": lambda n: [elementary_symmetric(k, n) for k in range(1, n + 1)],
    "sq": lambda n: [x(i, n) * x(i, n) for i in range(1, n + 1)],
    "cube": lambda n: [x(i, n) ** 3 for i in range(1, n + 1)],
    "psum": lambda n: [power_sum(k, n) for k in range(1, n + 1)],
}


def named_ideal(name):
    """ex2..ex5; a family of FAMILIES followed by n, e.g. "coinv5";
    e<k>sq<n>, the elementary symmetric e1, ..., en with e_k squared; or
    trunc<n>, the bundled gens/trunc<n>.gens."""
    if name.startswith("ex"):
        return worked_generators(name)
    if name.startswith("trunc"):
        with open(os.path.join(GENS_DIR, f"{name}.gens"), encoding="utf-8") as handle:
            return parse_generator_file(handle.read(), int(name[-1]))
    if m := re.fullmatch(r"e(\d)sq(\d)", name):
        k, n = int(m[1]), int(m[2])
        e = [elementary_symmetric(j, n) for j in range(1, n + 1)]
        return GeneratorSet(tuple(e[:k - 1] + [e[k - 1] ** 2] + e[k:]))
    return GeneratorSet(tuple(FAMILIES[name[:-1]](int(name[-1]))))


def orbit(g):
    """The distinct images of g under all permutations of the variables:
    generators of the smallest stable span that contains g."""
    out = []
    for perm in permutations(range(g.n)):
        h = g.apply_permutation(perm)
        if h not in out:
            out.append(h)
    return out


@st.composite
def generator_lists(draw, stable=False):
    """Up to n homogeneous generators of degree <= 3 in n <= 4 variables:
    random, symmetric, scalar multiples of an earlier generator
    (dependent) and multiples of an earlier generator by a variable
    (a shared factor, so not regular).  With `stable`, each generator is
    replaced by its orbit, so the span is stable."""
    n = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, n))):
        kinds = ["random", "symmetric"] + ["scaled", "shared"] * bool(gens)
        kind = draw(st.sampled_from(kinds))
        low = [g for g in gens if g.degree() < 3]
        if kind == "scaled":
            g = draw(st.sampled_from(gens)) * draw(st.sampled_from([-2, 1, 3]))
        elif kind == "shared" and low:
            g = draw(st.sampled_from(low)) * x(draw(st.integers(1, n)), n)
        elif kind == "symmetric":
            k = draw(st.integers(1, min(n, 3)))
            g = elementary_symmetric(k, n) if draw(st.booleans()) else power_sum(k, n)
        else:
            mons = monomials(n, draw(st.integers(1, 3)))
            support = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=5, unique=True))
            g = MultiPoly(n, {m: draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for m in support})
        gens.append(g)
    if stable:
        gens = [h for g in gens for h in orbit(g)]
    return n, gens


def span_is_stable(n, gens):
    """Test-side stability: in each generator degree, every image of a
    generator under (1 2) and (1 2 ... n), which generate the symmetric
    group, lies in the span of that degree's generators.  Images come from
    `MultiPoly.apply_permutation`, membership from dense rational
    elimination over `monomials`."""
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple((k + 1) % n for k in range(n))
    for d in {g.degree() for g in gens}:
        mons = monomials(n, d)
        same = [g for g in gens if g.degree() == d]
        basis = []  # (pivot, dense row), each row zero at the earlier pivots

        def reduce(g):
            row = [Fraction(g.coefficient(m)) for m in mons]
            for p, b in basis:
                if row[p]:
                    f = row[p] / b[p]
                    row = [u - f * v for u, v in zip(row, b)]
            return row

        for g in same:
            row = reduce(g)
            lead = next((i for i, v in enumerate(row) if v), None)
            if lead is not None:
                basis.append((lead, row))
        if any(any(reduce(g.apply_permutation(perm))) for perm in (swap, cycle) for g in same):
            return False
    return True


def reference_trace(sl, perm):
    """Trace of perm on the quotient slice, read off the reduced echelon
    basis of a degree slice: the coefficient of each standard monomial s
    in the normal form of perm . s, which is perm . s itself when that is
    standard and otherwise minus the rest of the basis element it leads.
    This is the all-slices trace the oracle used in every degree before it
    read normal forms past the completion degree."""
    index = {m: i for i, m in enumerate(monomials(sl.n, sl.degree))}
    rows = {min(b.terms, key=index.__getitem__): b.terms for b in sl.basis()}
    total = Fraction(0)
    for s in sl.standard_monomials():
        image = [0] * sl.n
        for k, e in enumerate(s):
            image[perm[k]] = e
        image = tuple(image)
        if image == s:
            total += 1
        elif image in rows:
            total -= rows[image].get(s, 0)
    return total


def assert_reference_traces(gs, got, slice_of, bound):
    """Each coefficient of `got` through the bound against the reference
    traces on `slice_of(d)`; from the first slice that fills R_d on, the
    coefficients are zero and `got` is exact."""
    full = False
    for d in range(bound + 1):
        if not full:
            sl = slice_of(d)
            full = sl.dimension == comb(gs.n + d - 1, d)
        for mu in partitions_of(gs.n):
            want = 0 if full else reference_trace(sl, representative_permutation(mu))
            assert got.coefficient(d).value(mu) == want, (d, mu)
    assert got.exact == full


class TestMultiPoly:
    def test_arithmetic(self):
        p = (x(1) - x(2)) * (x(1) + x(2))
        assert p == x(1) * x(1) - x(2) * x(2)
        assert (p - p).is_zero()
        assert p.coefficient((2, 0, 0, 0)) == 1
        assert p.coefficient((1, 1, 0, 0)) == 0

    def test_degree_and_homogeneity(self):
        assert (x(1) * x(2)).degree() == 2
        assert (x(1) * x(2)).is_homogeneous()
        assert not (x(1) + MultiPoly.constant(1, 4)).is_homogeneous()
        assert MultiPoly.zero(4).degree() is None

    def test_permutation_action(self):
        p = x(1) * x(1) * x(2)
        swapped = p.apply_permutation((1, 0, 2, 3))
        assert swapped == x(2) * x(2) * x(1)

    def test_repr(self):
        assert repr(x(1) - x(2)) == "x1 - x2"
        assert repr(MultiPoly.zero(2)) == "0"

    def test_constructor_checks_its_input(self):
        for bad in ({(1,): 1}, {(1, -1): 1}):
            with pytest.raises(ValueError, match="bad exponent vector"):
                MultiPoly(2, bad)
        for bad in (1.5, True):
            with pytest.raises(TypeError):
                MultiPoly(2, {(1, 0): bad})
        assert MultiPoly(2, {(1, 0): Fraction(4, 2), (0, 1): 0}).terms == {(1, 0): 2}

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 2), st.integers(0, 2)),
                st.integers(-3, 3) | st.fractions(min_value=-2, max_value=2, max_denominator=3),
                max_size=4,
            ),
            min_size=2,
            max_size=2,
        ),
        st.integers(0, 3),
        st.integers(-2, 2) | st.just(Fraction(3, 2)),
    )
    def test_arithmetic_results_pass_the_constructor_checks(self, terms, k, scalar):
        # results built without re-validation equal what the checking
        # constructor makes of the same terms: no zeros, integral fractions
        # as ints
        p, q = (MultiPoly(2, t) for t in terms)
        for got in (p + q, p - q, -p, p * q, p * scalar, p**k, p.apply_permutation((1, 0))):
            want = MultiPoly(2, got.terms)
            assert list(got.terms.items()) == list(want.terms.items())
            assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


class TestGrevlexOrder:
    def test_three_variable_degree_two(self):
        got = monomials(3, 2)
        assert got == ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))

    def test_counts(self):
        for n in (2, 3, 4):
            for d in range(6):
                assert len(monomials(n, d)) == comb(n + d - 1, d)


class TestNamedPolynomials:
    def test_elementary_symmetric(self):
        assert elementary_symmetric(1, 4) == x(1) + x(2) + x(3) + x(4)
        assert elementary_symmetric(4, 4) == x(1) * x(2) * x(3) * x(4)
        assert len(elementary_symmetric(2, 4).terms) == 6

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda bad: elementary_symmetric(bad, 4), "k"),
            (lambda bad: elementary_symmetric(1, bad), "n"),
            (lambda bad: MultiPoly.variable(bad, 4), "i"),
            (lambda bad: MultiPoly.variable(1, bad), "n"),
            (lambda bad: standard_rep_lift(bad, 4), "d"),
            (lambda bad: standard_rep_lift(2, bad), "n"),
            (lambda bad: MultiPoly(bad, {}), "n"),
            (lambda bad: MultiPoly(2, {(bad, 0): 1}), "exponent"),
            (lambda bad: MultiPoly.constant(1, bad), "n"),
            (lambda bad: vandermonde(bad), "n"),
            # True == 1 and hashes alike: with 1 cached first, True must
            # still be refused, not answered from the cache
            (lambda bad: (partitions_of(1), partitions_of(bad)), "n"),
            (lambda bad: x(1) ** bad, "power"),
            (lambda bad: x(1) * bad, "factor"),
            (lambda bad: bad * x(1), "factor"),
        ],
    )
    @pytest.mark.parametrize("bad", [True, 2.0, 2.5])
    def test_builders_refuse_bools_and_floats(self, call, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            call(bad)

    def test_vandermonde_two_variables(self):
        assert vandermonde(2) == MultiPoly.variable(1, 2) - MultiPoly.variable(2, 2)

    def test_vandermonde_three_variables(self):
        v = vandermonde(3)
        assert len(v.terms) == 6
        assert all(c in (1, -1) for c in v.terms.values())

    def test_vandermonde_alternates(self):
        v = vandermonde(4)
        assert v.degree() == 6
        swap = (1, 0, 2, 3)
        assert v.apply_permutation(swap) == -v


class TestSpans:
    def test_square_span(self):
        gs = specht_square_generators()
        assert decompose(span_character(gs)) == {Partition([2, 2]): 1}

    def test_square_span_traces(self):
        cf = span_character(specht_square_generators())
        assert cf.value((2, 2)) == 2
        assert cf.value((3, 1)) == -1
        assert cf.dimension() == 2

    def test_power_span_decomposition(self):
        full, diff = standard_rep_lift(2, 4)
        assert decompose(span_character(full)) == {
            Partition([4]): 1,
            Partition([3, 1]): 1,
        }
        assert decompose(span_character(diff)) == {Partition([3, 1]): 1}

    def test_difference_span_dimension(self):
        _, diff = standard_rep_lift(1, 4)
        assert len(diff.gens) == 3
        assert span_character(diff).dimension() == 3

    def test_difference_span_transposition_trace(self):
        _, diff = standard_rep_lift(3, 4)
        assert span_character(diff).value((2, 1, 1)) == 1

    def test_mixed_degree_span(self):
        gs = GeneratorSet((elementary_symmetric(2, 3), elementary_symmetric(1, 3), vandermonde(3)))
        cf = span_character(gs)
        assert decompose(cf) == {Partition([3]): 2, Partition([1, 1, 1]): 1}

    def test_stability_detection(self):
        stable = GeneratorSet((elementary_symmetric(2, 3),))
        assert stable.is_stable()
        lopsided = GeneratorSet((MultiPoly.variable(1, 3),))
        assert not lopsided.is_stable()

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(generator_lists(), generator_lists(stable=True)))
    @example((4, list(specht_square_generators().gens)))
    @example((4, [x(1) * x(2) - x(3) * x(4), x(1) * x(3) - x(2) * x(4)]))
    @example((3, [x(1, 3) ** 2 - x(2, 3) ** 2, x(2, 3) ** 2 - x(3, 3) ** 2, x(1, 3)]))
    def test_packed_stability_agrees_with_the_polynomial_action(self, spec):
        n, gens = spec
        gs = GeneratorSet(tuple(gens), n)
        rows = [(d, dict(row)) for d, row in gs._rows]
        assert gs.is_stable() == span_is_stable(n, gens)
        if gs.is_stable():
            span_character(gs)
        gs._basis.grow(min(sum(gs.degrees), 6))
        # the packed generator rows are read, never modified
        assert [(d, dict(row)) for d, row in gs._rows] == rows


class TestDegreeSlices:
    def test_generators_independent(self):
        gs = worked_generators("ex4")
        assert ideal_degree_slice(gs, 2).dimension == 4

    def test_degree_three_slice(self):
        gs = worked_generators("ex4")
        assert ideal_degree_slice(gs, 3).dimension == 16

    def test_below_minimal_degree(self):
        gs = worked_generators("ex5")
        assert ideal_degree_slice(gs, 1).dimension == 0
        assert ideal_degree_slice(gs, 0).dimension == 0

    def test_degree_must_be_an_integer(self):
        gs = worked_generators("ex4")
        for bad in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="^d must be an integer"):
                ideal_degree_slice(gs, bad)
        with pytest.raises(ValueError, match="nonnegative"):
            ideal_degree_slice(gs, -1)

    def test_lower_degrees_built_first(self):
        gs = worked_generators("ex5")
        ideal_degree_slice(gs, 4)
        assert sorted(gs._slices) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "name", [f"ex{k}" for k in range(2, 6)] + [f"{f}{n}" for f in FAMILIES for n in range(2, 6)]
    )
    def test_matches_all_multiples_reference(self, name):
        gs = named_ideal(name)
        terms = [dict(g.terms) for g in gs.gens]
        horizon = sum(gs.degrees) - gs.n + 1
        grown = []
        below: dict[int, dict[int, int]] = {}

        def items(rows):
            return [(p, list(row.items())) for p, row in rows]

        for d in range(horizon + 1):
            held = items(below.items())
            got = ideal_degree_slice(gs, d)
            want = all_multiples_slice(gs, d)
            assert got.dimension == want.dimension, (name, d)
            # growing G through d modified no element grown before
            assert items(gs._basis.elements[: len(grown)]) == grown, (name, d)
            grown = items(gs._basis.elements)
            # before reduction, the slice's rows are the rows below times
            # each variable, the first to reach each lead, and G's degree-d
            # elements, as stored; the leads are distinct, and building
            # them modified no row below
            assert items(below.items()) == held, (name, d)
            shifted: dict[int, dict[int, int]] = {}
            for p, row in below.items():
                for u in _groebner._units(gs.n):
                    shifted.setdefault(p + u, {c + u: v for c, v in row.items()})
            new = gs._basis.elements[gs._basis.ends[d - 1] if d else 0 : gs._basis.ends[d]]
            assert not shifted.keys() & {lead for lead, _ in new}, (name, d)
            assert sorted(items([*shifted.items(), *new])) == items(got.echelon.pivot_rows.items())
            assert all(min(row) == p for p, row in got.echelon.pivot_rows.items()), (name, d)
            assert all(row is got.echelon.pivot_rows[lead] for lead, row in new), (name, d)
            # echelon, with every row twice, modifies none of them
            original = dict(got.echelon.pivot_rows)
            rows = list(original.values())
            held = items(original.items())
            assert echelon(rows + rows).rank == got.dimension
            assert items(original.items()) == held, (name, d)
            # the one-pass back-substitution gives the pairwise scan's rows:
            # same entries in the same order, signs included, and it
            # modifies no row the caller holds
            scanned = reduced_by_pairwise_scan(original)
            assert not got.echelon._reduced
            got.echelon.ensure_reduced()
            assert {p: list(r.items()) for p, r in got.echelon.pivot_rows.items()} == {
                p: list(r.items()) for p, r in scanned.items()
            }, (name, d)
            assert items(original.items()) == held, (name, d)
            assert reduced_rows(got) == reduced_rows(want), (name, d)
            # and neither does membership
            assert all(got.echelon.contains(row) for row in rows), (name, d)
            assert all(got.echelon.contains(row) for row in got.echelon.pivot_rows.values())
            assert items(original.items()) == held, (name, d)
            assert items(gs._basis.elements) == grown, (name, d)
            below = got.echelon.pivot_rows
        assert [g.terms for g in gs.gens] == terms

    @pytest.mark.parametrize("name", ["ex2", "ex3", "ex5", "coinv5", "e4sq4"])
    def test_traces_do_not_depend_on_the_rows_reduced_below(self, name):
        # a slice is built on the rows below as they stand: back-reduced
        # where a lower trace read them, or not at all
        built, traced = named_ideal(name), named_ideal(name)
        bound = sum(built.degrees) - built.n + 1
        ideal_degree_slice(built, bound)
        assert not any(sl.echelon._reduced for sl in built._slices.values())
        got = quotient_graded_character(traced, bound)
        assert any(sl.echelon._reduced for sl in traced._slices.values())
        # equal characters, so both pass the reference
        assert quotient_graded_character(built, bound) == got
        assert_reference_traces(traced, got, lambda d: all_multiples_slice(traced, d), bound)
        for d, sl in traced._slices.items():
            want = built._slices[d].echelon.ensure_reduced().pivot_rows
            assert sl.echelon.ensure_reduced().pivot_rows == want, (name, d)

    @settings(max_examples=120, deadline=None)
    @given(generator_lists())
    @example((3, [elementary_symmetric(k, 3) for k in (1, 2, 3)]))
    @example((2, [x(1, 2), 3 * x(1, 2)]))
    @example((3, [x(1, 3) * x(2, 3), x(2, 3) * x(3, 3) * x(1, 3)]))
    def test_regularity_report_matches_reference(self, spec):
        n, gens = spec
        gs = GeneratorSet(tuple(gens), n)
        got = is_regular_sequence(gs)
        assert report_tuple(got) == reference_report(gs)
        ranks = []
        for d in range(got.horizon + 1):
            want = all_multiples_slice(gs, d)
            ranks.append(want.dimension)
            assert reduced_rows(ideal_degree_slice(gs, d)) == reduced_rows(want), d
        # past the completion degree the leading monomials of G alone give
        # the quotient dimensions
        if gs._basis.complete is not None:
            lead = _groebner.series_dims(gs._basis.numerator(), n, got.horizon)
            for d in range(gs._basis.complete, got.horizon + 1):
                assert lead[d] == comb(n + d - 1, d) - ranks[d], d

    def test_basis_is_reduced(self):
        gs = worked_generators("ex4")
        sl = ideal_degree_slice(gs, 3)
        basis = sl.basis()
        assert len(basis) == sl.dimension
        standard = set(sl.standard_monomials())
        leads = set()
        for b in basis:
            exps = sorted(b.terms, key=lambda e: tuple(reversed(e)))
            lead = exps[0]
            assert b.terms[lead] == 1
            leads.add(lead)
            for other in exps[1:]:
                assert other in standard
        assert len(leads) == sl.dimension


class TestQuotientCharacters:
    @pytest.mark.parametrize("key", ["ex4", "ex5"])
    def test_matches_formula(self, key):
        entry = WORKED[key]
        gs = worked_generators(key)
        top = len(entry["expansion"]) - 1
        oracle = quotient_graded_character(gs, top + 1)
        formula = quotient_character(RepresentationType(entry["case"], entry["d"], entry["c"]), 4)
        for d in range(top + 2):
            assert oracle.coefficient(d) == formula.coefficient(d), (key, d)
        assert oracle.exact

    def test_identity_trace_is_codimension(self):
        gs = worked_generators("ex5")
        for d in range(5):
            sl = ideal_degree_slice(gs, d)
            identity = tuple(range(4))
            assert quotient_trace(gs, d, identity) == comb(3 + d, d) - sl.dimension

    def test_trace_independent_of_representative(self):
        gs = worked_generators("ex4")
        # same cycle type realized on different points must give one trace
        alternates = {
            (2, 1, 1): [(1, 0, 2, 3), (0, 1, 3, 2), (3, 1, 2, 0)],
            (2, 2): [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)],
            (3, 1): [(1, 2, 0, 3), (0, 2, 3, 1), (2, 1, 3, 0)],
            (4,): [(1, 2, 3, 0), (3, 0, 1, 2), (1, 3, 0, 2)],
        }
        for d in range(4):
            for mu, perms in alternates.items():
                reference = quotient_trace(gs, d, representative_permutation(mu))
                for perm in perms:
                    assert quotient_trace(gs, d, perm) == reference, (d, mu)

    @pytest.mark.parametrize(
        "perm", [(0, 1, 2, 3, 4), (True, 0, 2, 3), (0, 0, 1, 2), (0, 1, 2), (1, 2, 3, 4), (0, 1, 2, 3.0)]
    )
    def test_perm_must_be_a_permutation(self, perm):
        gs = worked_generators("ex4")
        with pytest.raises(ValueError, match="^perm must be a permutation of 0..3"):
            quotient_trace(gs, 2, perm)

    def test_perm_may_be_any_sequence(self):
        gs = worked_generators("ex4")
        assert quotient_trace(gs, 2, [1, 0, 2, 3]) == quotient_trace(gs, 2, (1, 0, 2, 3))

    @pytest.mark.parametrize("perm", [(0, 0), (1, 1, 0), (0, 2), (True, 0)])
    def test_cycles_refuse_a_non_permutation(self, perm):
        # a repeated image used to send the cycle walk round forever
        with pytest.raises(ValueError, match="^perm must be a permutation of 0.."):
            oracle.permutation_cycles(perm)

    def test_cycles_accept_any_sequence(self):
        assert oracle.permutation_cycles([1, 0]) == oracle.permutation_cycles((1, 0)) == [(1, 2)]

    def test_bound_must_be_an_integer(self):
        gs = worked_generators("ex4")
        for bad in (True, 3.0):
            with pytest.raises(ValueError, match="^bound must be an integer"):
                quotient_graded_character(gs, bad)

    def test_unstable_generators_rejected(self):
        gs = GeneratorSet((MultiPoly.variable(1, 3),))
        with pytest.raises(ValueError, match="stable"):
            quotient_graded_character(gs, 3)

    def test_hilbert_matches_product_series_when_regular(self):
        for key in ("ex4", "ex5"):
            gs = worked_generators(key)
            assert is_regular_sequence(gs).ok
            g = quotient_graded_character(gs, 7)
            num = [0] * 8
            num[0] = 1
            for c in gs.degrees:
                nxt = list(num)
                for d in range(c, 8):
                    nxt[d] -= num[d - c]
                num = nxt
            expected = [
                sum(num[k] * comb(3 + d - k, d - k) for k in range(d + 1))
                for d in range(8)
            ]
            assert [g.coefficient(d).dimension() for d in range(8)] == expected

    def test_coefficients_decompose_nonnegatively(self):
        g = quotient_graded_character(worked_generators("ex5"), 6)
        for d in range(7):
            decompose(g.coefficient(d), require_nonnegative=True)

    def test_formula_agreement_beyond_bundled_examples(self):
        cases = [
            # alternating generator alone in three variables
            (GeneratorSet((vandermonde(3),)), RepresentationType("II", 3, ()), 3, 8),
            # consecutive square differences in three variables
            (standard_rep_lift(2, 3)[1], RepresentationType("III", 2, ()), 3, 8),
            # two symmetric generators in five variables, far from artinian
            (
                GeneratorSet((elementary_symmetric(1, 5), elementary_symmetric(3, 5))),
                RepresentationType("I", None, (1, 3)),
                5,
                6,
            ),
            # cube differences plus the linear symmetric generator
            (
                GeneratorSet(standard_rep_lift(3, 4)[1].gens + (elementary_symmetric(1, 4),)),
                RepresentationType("III", 3, (1,)),
                4,
                10,
            ),
        ]
        for gs, rt, n, bound in cases:
            oracle = quotient_graded_character(gs, bound)
            formula = quotient_character(rt, n, bound)
            for d in range(bound + 1):
                assert oracle.coefficient(d) == formula.coefficient(d), (rt, d)

    def test_zero_tail_marks_exact(self):
        gs = worked_generators("ex4")
        g = quotient_graded_character(gs, 8)
        assert g.exact
        assert g.coefficient(5).is_zero() and g.coefficient(8).is_zero()


class TestTracesPastCompletion:
    """Traces read off the slices through the completion degree D and off
    normal forms past it, against traces read off fully reduced slices in
    every degree."""

    @pytest.mark.parametrize(
        "name",
        [f"ex{k}" for k in range(2, 6)]
        + [f"{f}{n}" for f in FAMILIES for n in (4, 5)]
        + [f"e{k}sq{n}" for n in (4, 5) for k in range(1, n + 1)],
    )
    def test_matches_all_slices_reference(self, name):
        gs = named_ideal(name)
        bound = sum(gs.degrees) - gs.n + 1
        got = quotient_graded_character(gs, bound)
        reference = named_ideal(name)
        assert_reference_traces(reference, got, lambda d: ideal_degree_slice(reference, d), bound)
        assert got.exact
        # no slice past the completion degree, and through it every degree
        # where a representative moves a standard monomial off the standard
        # ones, since that normal form is a slice row
        if gs._basis.complete is not None:
            top = min(gs._basis.complete, bound)
            read = [-1]
            for d in range(top + 1):
                std = set(ideal_degree_slice(reference, d).standard_monomials())
                for mu in partitions_of(gs.n):
                    perm = representative_permutation(mu)
                    if any(tuple(s[perm.index(k)] for k in range(gs.n)) not in std for s in std):
                        read.append(d)
            assert sorted(gs._slices) == list(range(len(gs._slices)))
            assert max(read) < len(gs._slices) <= top + 1

    def test_families_complete_below_the_top(self):
        # the normal-form path is the one these families exercise
        for name in ["coinv5", "psum5", "cube5", "sq4", "e4sq4", "e5sq5"]:
            gs = named_ideal(name)
            quotient_graded_character(gs, sum(gs.degrees) - gs.n + 1)
            assert gs._basis.complete < sum(gs.degrees) - gs.n, name

    @settings(max_examples=150, deadline=None)
    @given(generator_lists(stable=True))
    @example((3, [elementary_symmetric(k, 3) for k in (1, 2, 3)]))
    @example((3, orbit(x(1, 3) * x(2, 3)) + [elementary_symmetric(1, 3) ** 3]))
    @example((4, orbit(x(1) * x(1) - x(2) * x(3))))
    def test_stable_sets_match_all_multiples_reference(self, spec):
        n, gens = spec
        gs = GeneratorSet(tuple(gens), n)
        assert gs.is_stable()
        # through top + 1 when the quotient is artinian by degree 7
        bound = 7
        got = quotient_graded_character(gs, bound)
        assert_reference_traces(gs, got, lambda d: all_multiples_slice(gs, d), bound)
        for mu in partitions_of(n):
            perm = representative_permutation(mu)
            for d in range(bound + 1):
                assert quotient_trace(gs, d, perm) == got.coefficient(d).value(mu)

    @pytest.mark.parametrize("name", ["ex2", "ex3", "ex5", "coinv5", "psum4", "e4sq4"])
    def test_on_demand_rows_equal_full_reduction(self, name):
        gs = named_ideal(name)
        rng = random.Random(name)
        for d in range(sum(gs.degrees) - gs.n + 2):
            original = dict(ideal_degree_slice(gs, d).echelon.pivot_rows)
            full = Echelon(dict(original)).ensure_reduced().pivot_rows
            pivots = sorted(original)
            for ask in ([], pivots[:1], pivots[-1:], rng.sample(pivots, len(pivots) // 3)):
                ech = Echelon(dict(original))
                ech.ensure_reduced(ask)
                done = ech._reduced
                assert set(ask) <= done
                for p, row in ech.pivot_rows.items():
                    if p in done:
                        assert list(row.items()) == list(full[p].items()), (d, p)
                        # a row is reduced together with every row it reads
                        assert all(c in done for c in original[p] if c in original)
                    else:
                        assert row is original[p]
                ech.ensure_reduced()
                assert {p: list(r.items()) for p, r in ech.pivot_rows.items()} == {
                    p: list(r.items()) for p, r in full.items()
                }, d

    def test_trace_past_completion_builds_no_slice(self):
        gs = named_ideal("coinv5")
        ideal_degree_slice(gs, 5)
        assert gs._basis.complete == 5
        # the identity counts the standard monomials
        dims = product_formula_dims(gs.degrees, 5) + [0]
        for d in range(6, 12):
            assert quotient_trace(gs, d, tuple(range(5))) == dims[d]
        assert quotient_trace(gs, 11, (1, 0, 2, 3, 4)) == 0
        assert sorted(gs._slices) == list(range(6))

    def test_no_slice_past_the_first_full_one(self):
        # ex3 is never complete through its top degree 9; its degree-10
        # slice would fill R_10, and the leads of G already leave no standard
        # monomial there, so every trace from degree 10 on is zero without
        # a slice
        gs = worked_generators("ex3")
        assert quotient_graded_character(gs, 12).exact
        assert gs._basis.complete is None
        assert quotient_trace(gs, 14, (1, 0, 2, 3)) == 0
        assert sorted(gs._slices) == list(range(10))
        assert ideal_degree_slice(gs, 10).dimension == comb(4 + 10 - 1, 10)


class TestTraceConjugate:
    """The oracle traces each cycle type at a private conjugate of the
    representative; these checks do not rely on that choice."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugate_has_the_cycle_type(self, n):
        for mu in partitions_of(n):
            perm = oracle._trace_permutation(mu, n)
            assert sorted(perm) == list(range(n))
            lengths = sorted((len(c) for c in oracle.permutation_cycles(perm)), reverse=True)
            assert Partition(lengths + [1] * (n - sum(lengths))) == mu, (n, mu)

    @pytest.mark.parametrize(
        "name", ["ex2", "ex3", "ex4", "ex5", "coinv5", "psum4", "e4sq4", "trunc4", "trunc5"]
    )
    def test_representative_traces_equal_the_character(self, name):
        gs = named_ideal(name)
        # the trunc quotients never vanish; G completes at degree 2 and 13,
        # so past it they are traced on the multiplication tables
        bound = {"trunc4": 6, "trunc5": 15}.get(name, sum(gs.degrees) - gs.n + 2)
        got = quotient_graded_character(gs, bound)
        fresh = named_ideal(name)
        for d in range(bound + 1):
            # the identity class is the quotient's dimension
            dim = len(oracle._standard_monomials(gs, d))
            assert got.coefficient(d).value((1,) * gs.n) == dim, d
            for mu in partitions_of(gs.n):
                perm = representative_permutation(mu)
                want = got.coefficient(d).value(mu)
                # on the oracle's own set after the character, and on a new one
                assert quotient_trace(gs, d, perm) == want, (d, mu)
                assert quotient_trace(fresh, d, perm) == want, (d, mu)

    @pytest.mark.parametrize("name", ["ex3", "ex5", "coinv5", "e6sq6"])
    def test_no_form_memoized_below_completion(self, name):
        gs = named_ideal(name)
        quotient_graded_character(gs, sum(gs.degrees) - gs.n + 1)
        complete = gs._basis.complete
        if name in ("ex3", "ex5"):
            assert complete is None and not gs._forms
        else:
            assert gs._forms
            assert min(sum(_groebner._unpack(m, gs.n)) for m in gs._forms) == complete


class TestRegularSequences:
    def test_variable_squares(self):
        report = is_regular_sequence(worked_generators("ex4"))
        assert report.ok and report.conclusive
        assert sum(report.actual) == 16

    def test_alternating_example_dimension(self):
        report = is_regular_sequence(worked_generators("ex3"))
        assert report.ok and report.conclusive
        assert sum(report.actual) == 72

    def test_dependent_pair(self):
        p = x(1) - x(2)
        report = is_regular_sequence(GeneratorSet((p, 3 * p)))
        assert not report.ok
        assert report.first_failure is not None

    def test_shared_linear_factor(self):
        # two images of column-sharing tableau bases inside a larger set
        gens = GeneratorSet(
            (
                parse_poly("(x1 - x2)*(x3 - x4)", 4),
                parse_poly("x1^2 - x2^2", 4),
                parse_poly("e2", 4),
                parse_poly("e1", 4),
            )
        )
        report = is_regular_sequence(gens)
        assert not report.ok
        assert report.first_failure == 3

    def test_short_sequence_reports_horizon(self):
        gs = GeneratorSet((elementary_symmetric(1, 3), elementary_symmetric(2, 3)))
        report = is_regular_sequence(gs)
        assert report.ok and not report.conclusive
        assert report.horizon == 3
        assert "degree 3" in report.message

    @pytest.mark.parametrize(
        "name", ["coinv6", "psum5", "e5sq5", "coinv7", "coinv8", "psum6", "e6sq6"]
    )
    def test_conclusive_past_n5(self, name):
        gs = named_ideal(name)
        report = is_regular_sequence(gs)
        assert report.ok and report.conclusive
        dims = product_formula_dims(gs.degrees, gs.n)
        assert list(report.actual) == (dims + [0])[: report.horizon + 1]
        assert sum(report.actual) == prod(gs.degrees)

    @pytest.mark.parametrize(
        "n, gens", [(2, ["x1^2", "x1*x2"]), (3, ["x1*x2", "x2*x3", "x1*x3"])]
    )
    def test_non_regular_matches_reference(self, n, gens):
        gs = GeneratorSet(tuple(parse_poly(g, n) for g in gens))
        report = is_regular_sequence(gs)
        assert report_tuple(report) == reference_report(gs)
        assert not report.ok and report.first_failure == 3

    def test_bound_must_be_an_integer(self):
        gs = GeneratorSet((elementary_symmetric(1, 3), elementary_symmetric(2, 3)))
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="^bound must be an integer"):
                is_regular_sequence(gs, bound=bad)
        with pytest.raises(ValueError, match="nonnegative"):
            is_regular_sequence(gs, bound=-1)
        assert is_regular_sequence(gs, bound=2).horizon == 2

    def test_too_many_generators_rejected(self):
        gens = tuple(elementary_symmetric(k, 2) for k in (1, 2)) + (x(1, 2) * x(1, 2),)
        with pytest.raises(ValueError):
            is_regular_sequence(GeneratorSet(gens))


class TestBasisEngine:
    """The packed monomials and the Buchberger reduction behind the basis."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_packed_order_and_shifts_are_the_columns(self, n):
        for d in range(7):
            mons = monomials(n, d)
            packed = [_groebner._pack(m) for m in mons]
            assert packed == sorted(set(packed)), d
            assert [_groebner._unpack(m, n) for m in packed] == list(mons)
            if d < 6:
                up = [_groebner._pack(m) for m in monomials(n, d + 1)]
                index = {m: i for i, m in enumerate(monomials(n, d + 1))}
                for i, x_i in enumerate(_groebner._units(n)):
                    shift = [index[m[:i] + (m[i] + 1,) + m[i + 1:]] for m in mons]
                    assert [up.index(m + x_i) for m in packed] == shift, (d, i)
            # a permutation moves the fields: the exponent of x_k goes to x_perm[k]
            for perm in permutations(range(n)):
                for m in mons:
                    image = [0] * n
                    for k, e in enumerate(m):
                        image[perm[k]] = e
                    assert _groebner._permute(_groebner._pack(m), perm) == _groebner._pack(image)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(*[st.integers(0, _groebner.MAX_PACKED_DEGREE)] * n).flatmap(
                lambda a: st.tuples(
                    st.just(a),
                    st.tuples(*[st.integers(0, _groebner.MAX_PACKED_DEGREE)] * len(a))
                    | st.tuples(*[st.integers(0, e) for e in a]),
                )
            )
        )
    )
    @example(((0, 0), (0, 0)))
    @example(((_groebner.MAX_PACKED_DEGREE,) * 3, (_groebner.MAX_PACKED_DEGREE, 0, 1)))
    @example(((0, 5), (1, 5)))
    @example(((5, 0), (5, 1)))
    def test_guard_bits_decide_divisibility(self, pair):
        m, lead = pair
        divides = all(a <= b for a, b in zip(lead, m))
        diff = _groebner._pack(m) - _groebner._pack(lead)
        assert (not diff & _groebner._guard(len(m))) == divides
        if divides:
            assert _groebner._unpack(diff, len(m)) == tuple(b - a for a, b in zip(lead, m))

    @settings(max_examples=120, deadline=None)
    @given(generator_lists())
    @example((3, [elementary_symmetric(k, 3) for k in (1, 2, 3)]))
    @example((3, [x(1, 3) * x(2, 3), x(2, 3) * x(3, 3) * x(1, 3)]))
    def test_leads_are_the_minimal_pivots(self, spec):
        n, gens = spec
        gs = GeneratorSet(tuple(gens), n)
        top = min(sum(gs.degrees), 8)
        gs._basis.grow(top)
        below: list[tuple[int, ...]] = []
        for d in range(top + 1):
            want = all_multiples_slice(gs, d)
            mons = monomials(n, d)
            pivots = [mons[p] for p in want.echelon.pivots]
            minimal = [
                m for m in pivots if not any(all(a <= b for a, b in zip(g, m)) for g in below)
            ]
            elements = gs._basis.elements[gs._basis.ends[d - 1] if d else 0 : gs._basis.ends[d]]
            assert [_groebner._unpack(lead, n) for lead, _ in elements] == minimal, d
            index = {_groebner._pack(m): i for i, m in enumerate(mons)}
            for lead, row in elements:
                # a primitive integer element of the ideal, led by its lead
                assert min(row) == lead
                assert gcd(*row.values()) == 1
                assert want.echelon.contains({index[m]: v for m, v in row.items()}), d
            below += minimal
        # so the leads of G are the minimal generators of <LM(G)>
        leads = [_groebner._unpack(lead, n) for lead, _ in gs._basis.elements]
        assert sorted(_groebner._minimal_monomials(leads)) == sorted(leads)

    @pytest.mark.parametrize(
        "name", [f"ex{k}" for k in range(2, 6)] + ["coinv5", "psum5", "e5sq5", "cube4"]
    )
    def test_regularity_builds_no_slice(self, name):
        gs = named_ideal(name)
        assert is_regular_sequence(gs).ok
        assert gs._slices == {}
        # the slices built afterwards are views of the same basis
        assert reduced_rows(ideal_degree_slice(gs, 6)) == reduced_rows(all_multiples_slice(gs, 6))

    def test_coinvariant_conclusive_at_n12(self):
        gs = GeneratorSet(tuple(FAMILIES["coinv"](12)))
        report = is_regular_sequence(gs)
        assert report.ok and report.conclusive
        dims = product_formula_dims(gs.degrees, 12) + [0]
        assert list(report.actual) == dims[: report.horizon + 1]
        assert gs._basis.complete == 12 and gs._slices == {}

    def test_trace_beyond_the_packed_fields_refused(self):
        # the quotient by x1^300, x2^300 reaches degree 598, and its standard
        # monomials and normal forms past degree 511 have no packed key
        n, top = 2, _groebner.MAX_PACKED_DEGREE
        gs = GeneratorSet((x(1, n) ** 300, x(2, n) ** 300))
        assert quotient_trace(gs, top, (1, 0)) == 0
        with pytest.raises(ValueError, match=f"^degree {top + 1} is above the packed-monomial"):
            quotient_graded_character(gs, top + 1)
        with pytest.raises(ValueError, match="packed-monomial ceiling"):
            quotient_trace(GeneratorSet((x(1, n) ** 300, x(2, n) ** 300)), top + 1, (0, 1))
        # a quotient that vanishes below the ceiling has zero traces past it
        ex4 = worked_generators("ex4")
        assert quotient_graded_character(ex4, top + 5).exact
        assert quotient_trace(ex4, top + 5, (1, 0, 2, 3)) == 0

    def test_degree_beyond_the_packed_fields_refused_before_any_work(self):
        top = _groebner.MAX_PACKED_DEGREE
        message = f"^degree {top + 1} is above the packed-monomial ceiling {top}$"
        gs = worked_generators("ex4")
        with pytest.raises(ValueError, match=message):
            ideal_degree_slice(gs, top + 1)
        short = GeneratorSet((elementary_symmetric(1, 3), elementary_symmetric(2, 3)))
        with pytest.raises(ValueError, match=message):
            is_regular_sequence(short, bound=top + 1)
        # fewer generators than variables: the quotient never vanishes
        with pytest.raises(ValueError, match=message):
            quotient_graded_character(short, top + 1)
        with pytest.raises(ValueError, match=message):
            quotient_trace(short, top + 1, (1, 0, 2))
        for untouched in (gs, short):
            assert not untouched._slices and not untouched._basis.ends
            assert not untouched._standard
        # the highest exponent a field holds still packs
        assert _groebner._unpack(_groebner._pack((top, 0, top)), 3) == (top, 0, top)


class TestLeadIdealSeries:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=7
            )
        )
    )
    @example([(2, 0), (1, 1)])
    @example([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    def test_numerator_counts_standard_monomials(self, gens):
        n = len(gens[0])
        counts = [
            sum(not any(all(a <= b for a, b in zip(g, m)) for g in gens) for m in monomials(n, d))
            for d in range(11)
        ]
        for spanning in (gens, _groebner._minimal_monomials(gens)):
            assert _groebner.series_dims(_groebner._monomial_numerator(spanning), n, 10) == counts

    def test_minimal_generators(self):
        gens = [(2, 1), (1, 1), (1, 1), (0, 3), (1, 2)]
        assert _groebner._minimal_monomials(gens) == [(1, 1), (0, 3)]


class TestParser:
    def test_elementary_shortcut(self):
        assert parse_poly("e2", 3) == elementary_symmetric(2, 3)

    def test_vandermonde_shortcut(self):
        assert parse_poly("vdm", 3) == vandermonde(3)

    def test_precedence_and_unary_minus(self):
        assert parse_poly("-x1 + 2*x2^2", 2) == (
            MultiPoly(2, {(1, 0): -1, (0, 2): 2})
        )
        assert parse_poly("e1^2 - e2", 4) == (
            elementary_symmetric(1, 4) ** 2 - elementary_symmetric(2, 4)
        )

    def test_parentheses(self):
        got = parse_poly("(x1 - x2)*(x1 + x2)", 2)
        assert got == MultiPoly(2, {(2, 0): 1, (0, 2): -1})

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_poly("x9", 4)
        with pytest.raises(ValueError):
            parse_poly("y1", 4)
        with pytest.raises(ValueError):
            parse_poly("x1 +", 4)
        with pytest.raises(ValueError):
            parse_poly("(x1", 4)

    def test_generator_file(self):
        text = "# comment\n\ne1^2\nx1*x2 # inline note\n"
        gs = parse_generator_file(text, 3)
        assert gs.degrees == (2, 2)
        with pytest.raises(ValueError, match="line 2"):
            parse_generator_file("e1\nx9\n", 3)
        with pytest.raises(ValueError, match="no generators"):
            parse_generator_file("# nothing\n", 3)


    def test_nesting_ceiling(self):
        assert parse_poly("(" * 50 + "x1" + ")" * 50, 2) == x(1, 2)
        for text in ["(" * 51 + "x1" + ")" * 51, "(" * 2000 + "x1" + ")" * 2000]:
            with pytest.raises(ValueError, match="^parentheses nested deeper than 50$"):
                parse_poly(text, 2)

    def test_degree_ceiling(self):
        assert parse_poly("x1^100", 2).degree() == 100
        assert parse_poly("(x1^10)^10", 2).degree() == 100
        for text, degree in [
            ("x1^99999999", 99999999),
            ("x1^101", 101),
            ("x1^50 * x2^51", 101),
            ("(x1^10)^11", 110),
            ("vdm", 105),
        ]:
            with pytest.raises(ValueError, match=f"^degree {degree} is above the ceiling 100$"):
                parse_poly(text, 15)

    def test_term_ceiling(self):
        assert oracle.MAX_TERMS == 20000
        assert len(parse_poly("vdm", 7).terms) == 5040
        assert len(parse_poly("e1^4", 16).terms) == comb(19, 4)
        assert len(parse_poly("(x1 + x2 + x3)^30", 3).terms) == comb(32, 2)
        for text, n, count in [
            ("vdm", 8, 40320),
            ("e8", 17, comb(17, 8)),
            ("e3 * e3", 16, comb(22, 6)),
            ("(e1 + 1)^9", 9, comb(18, 9)),
        ]:
            with pytest.raises(ValueError, match=f"^up to {count} terms is above the ceiling 20000$"):
                parse_poly(text, n)

    def test_term_ceiling_admits_every_elementary_symmetric_through_n16(self):
        for n in range(1, 17):
            for k in range(1, n + 1):
                assert len(parse_poly(f"e{k}", n).terms) == comb(n, k)

    @pytest.mark.parametrize("name", sorted(os.listdir(GENS_DIR)))
    def test_term_ceiling_admits_the_bundled_files(self, name):
        n = int(m[1]) if (m := re.search(r"(\d)\.gens$", name)) and name[:2] != "ex" else 4
        with open(os.path.join(GENS_DIR, name), encoding="utf-8") as handle:
            assert parse_generator_file(handle.read(), n).n == n

    @pytest.mark.parametrize("text", ["2^3", "(x1 - x1 + 2)^2", "(x1 - x1)^2"])
    def test_power_of_a_constant_refused(self, text):
        with pytest.raises(ValueError, match="^the base of a power must have positive degree$"):
            parse_poly(text, 2)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="xevdm0123456789+-*^() #\n", max_size=40), st.integers(1, 3))
    @example("(" * 2000 + "x1" + ")" * 2000, 2)
    @example("x1^99999999", 2)
    @example("((((2^99)^99)^99)^99)^99", 1)
    def test_generator_file_raises_only_value_error(self, text, n):
        try:
            gs = parse_generator_file(text, n)
        except ValueError:
            return
        assert all(0 < d <= oracle.MAX_GENERATOR_DEGREE for d in gs.degrees)


class TestGeneratorSetValidation:
    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            GeneratorSet((x(1) + MultiPoly.constant(1, 4),))

    def test_rejects_zero_and_constants(self):
        with pytest.raises(ValueError):
            GeneratorSet((MultiPoly.zero(3),))
        with pytest.raises(ValueError):
            GeneratorSet((MultiPoly.constant(2, 3),))

    def test_rejects_mixed_rings(self):
        with pytest.raises(ValueError):
            GeneratorSet((MultiPoly.variable(1, 3), MultiPoly.variable(1, 4)))

    @pytest.mark.parametrize("n", [True, 2.0, "2"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            GeneratorSet((MultiPoly.variable(1, 2),), n)

    @pytest.mark.parametrize("n", [None, 2])
    @pytest.mark.parametrize("gens", [("x1",), (3, MultiPoly.variable(1, 2)), (None,)])
    def test_rejects_non_polynomials_before_reading_them(self, gens, n):
        with pytest.raises(ValueError, match="^generators must be polynomials"):
            GeneratorSet(gens, n)

    def test_n_given_must_match(self):
        gs = GeneratorSet((elementary_symmetric(1, 2), elementary_symmetric(2, 2)), 2)
        # the coinvariant algebra of S_2: the sign in degree 1
        assert quotient_graded_character(gs, 2).coefficient(1).value((2,)) == -1
        with pytest.raises(ValueError, match="^generators must be polynomials"):
            GeneratorSet((MultiPoly.variable(1, 2),), 3)
