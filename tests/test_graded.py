from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symci.characters import (
    ClassFunction,
    decompose,
    irreducible_character,
    sign_character,
    trivial_character,
)
from symci.classify import RepresentationType
from symci.graded import (
    GradedCharacter,
    _case_numerator,
    coinvariant_character,
    hilbert_series,
    polynomial_ring_character,
    quotient_character,
    scale_by_cyclotomic,
    socle_analysis,
)
from symci.partitions import Partition, partitions_of
from symci.tableaux import UnivariatePoly

from golden import CHARACTER_TABLE_S4, CLASS_ORDER_S4, COINVARIANT_S4, POLY_RING_S4, WORKED


def from_mults(n, mults):
    cf = ClassFunction(n, {})
    for lam, m in mults.items():
        cf = cf + m * irreducible_character(lam)
    return cf


def series_coeffs(numer_factors, n, bound):
    """Coefficients of prod (1 - t^c) / (1 - t)^n, an independent expansion."""
    num = [0] * (bound + 1)
    num[0] = 1
    for c in numer_factors:
        nxt = list(num)
        for d in range(c, bound + 1):
            nxt[d] -= num[d - c]
        num = nxt
    return [
        sum(num[k] * comb(n - 1 + d - k, d - k) for k in range(d + 1))
        for d in range(bound + 1)
    ]


def rep_type(key):
    entry = WORKED[key]
    return RepresentationType(entry["case"], entry["d"], entry["c"])


class TestGradedCharacterType:
    def test_exact_reads_zero_past_bound(self):
        g = coinvariant_character(3)
        assert g.exact
        assert g.coefficient(99).is_zero()

    def test_truncated_raises_past_bound(self):
        g = polynomial_ring_character(3, 5)
        with pytest.raises(ValueError):
            g.coefficient(6)

    def test_mixed_bound_product_truncates_to_minimum(self):
        a = polynomial_ring_character(3, 8)
        b = polynomial_ring_character(3, 5)
        assert (a * b).bound == 5
        assert not (a * b).exact

    def test_equality_ignores_exact_padding(self):
        g = coinvariant_character(3)
        padded = coinvariant_character(3, bound=10)
        assert g == padded

    def test_sum_and_difference(self):
        a = polynomial_ring_character(3, 6)
        b = coinvariant_character(3)
        total = a + b
        assert total.bound == 6 and not total.exact
        assert (total - a).coefficient(2) == b.coefficient(2)
        both = b + b
        assert both.exact and both.coefficient(3) == 2 * b.coefficient(3)

    def test_truncate(self):
        g = coinvariant_character(3)
        cut = g.truncate(2)
        assert cut.bound == 2 and not cut.exact
        widened = g.truncate(9)
        assert widened.exact and widened.coefficient(9).is_zero()
        with pytest.raises(ValueError):
            polynomial_ring_character(3, 4).truncate(9)

    def test_scale_by_class_function(self):
        g = coinvariant_character(4)
        twisted = g.scale(sign_character(4))
        # twisting the regular representation permutes the summands
        assert decompose(twisted.coefficient(2)) == {
            Partition([2, 1, 1]): 1,
            Partition([2, 2]): 1,
        }


class TestCoinvariantCharacter:
    def test_s4_expansion(self):
        g = coinvariant_character(4)
        assert g.exact and g.top_degree() == 6
        for d, mults in enumerate(COINVARIANT_S4):
            assert decompose(g.coefficient(d)) == {Partition(k): v for k, v in mults.items()}

    def test_ground_field_for_n1(self):
        g = coinvariant_character(1)
        assert g.exact and g.top_degree() == 0
        assert g.coefficient(0) == trivial_character(1)

    def test_n3_top_coefficient_is_sign(self):
        g = coinvariant_character(3)
        assert g.top_degree() == 3
        assert g.coefficient(3) == sign_character(3)

    def test_regular_representation_dimensions(self):
        # dims must match the t-factorial prod (1 + t + ... + t^(j-1))
        for n in range(1, 7):
            g = coinvariant_character(n)
            dims = hilbert_series(g)
            expected = [1]
            for j in range(2, n + 1):
                expected = [
                    sum(expected[d - k] for k in range(j) if 0 <= d - k < len(expected))
                    for d in range(len(expected) + j - 1)
                ]
            assert dims == expected
            assert sum(dims) == factorial(n)

    def test_coefficients_are_true_characters(self):
        for n in range(1, 6):
            g = coinvariant_character(n)
            for d in range(g.bound + 1):
                decompose(g.coefficient(d), require_nonnegative=True)


class TestPolynomialRingCharacter:
    def test_s4_low_degrees(self):
        g = polynomial_ring_character(4, 4)
        assert not g.exact
        for d, mults in enumerate(POLY_RING_S4):
            assert decompose(g.coefficient(d)) == {Partition(k): v for k, v in mults.items()}

    def test_degree_zero_is_trivial(self):
        for n in range(1, 6):
            assert polynomial_ring_character(n, 3).coefficient(0) == trivial_character(n)

    def test_identity_values_count_monomials(self):
        for n in range(1, 6):
            g = polynomial_ring_character(n, 8)
            for d in range(9):
                assert g.coefficient(d).dimension() == comb(n - 1 + d, d)

    def test_values_count_fixed_monomials(self):
        # independent oracle: the trace of a permutation on the degree-d
        # monomials is the t^d coefficient of prod 1/(1 - t^(cycle length))
        for n in (3, 4):
            bound = 8
            g = polynomial_ring_character(n, bound)
            for mu in partitions_of(n):
                series = [1] + [0] * bound
                for part in mu:
                    series = [
                        sum(series[d - k] for k in range(0, d + 1, part))
                        for d in range(bound + 1)
                    ]
                for d in range(bound + 1):
                    assert g.coefficient(d).value(mu) == series[d]


class TestScaleByCyclotomic:
    def test_degree_zero_untouched(self):
        g = polynomial_ring_character(4, 6)
        assert scale_by_cyclotomic(g, 3).coefficient(0) == g.coefficient(0)

    def test_roundtrip_with_series_inverse(self):
        g = polynomial_ring_character(3, 12)
        scaled = scale_by_cyclotomic(scale_by_cyclotomic(g, 2), 3)
        # divide back: the coefficients of 1/((1-t^2)(1-t^3)) count
        # partitions into parts 2 and 3
        inv = [0] * 13
        inv[0] = 1
        for part in (2, 3):
            for d in range(part, 13):
                inv[d] += inv[d - part]
        for d in range(13):
            acc = ClassFunction(3, {})
            for i in range(d + 1):
                if inv[i]:
                    acc = acc + inv[i] * scaled.coefficient(d - i)
            assert acc == g.coefficient(d)

    def test_scaling_full_product_gives_coinvariant(self):
        g = polynomial_ring_character(4, 10)
        for c in (1, 2, 3, 4):
            g = scale_by_cyclotomic(g, c)
        coinv = coinvariant_character(4, bound=10)
        for d in range(11):
            assert g.coefficient(d) == coinv.coefficient(d)

    def test_exactness_tracking(self):
        g = coinvariant_character(3)  # top degree 3, bound 3
        assert not scale_by_cyclotomic(g, 2).exact
        padded = coinvariant_character(3, bound=10)
        assert scale_by_cyclotomic(padded, 2).exact


class TestQuotientCharacter:
    @pytest.mark.parametrize("key", sorted(WORKED))
    def test_worked_expansions(self, key):
        entry = WORKED[key]
        g = quotient_character(rep_type(key), 4)
        assert g.exact
        assert g.top_degree() == len(entry["expansion"]) - 1
        for d, mults in enumerate(entry["expansion"]):
            expected = {Partition(k): v for k, v in mults.items()}
            assert decompose(g.coefficient(d)) == expected, (key, d)

    def test_elementary_degrees_give_coinvariant(self):
        g = quotient_character(RepresentationType("I", None, (1, 2, 3, 4)), 4)
        assert g == coinvariant_character(4)

    def test_rejects_invalid_type(self):
        with pytest.raises(ValueError, match="Corollary 3|length bound"):
            quotient_character(RepresentationType("III", 2, (2, 2)), 4)

    def test_unrealizable_shape_is_not_exact(self):
        # four independent symmetric quadrics do not exist in four variables
        g = quotient_character(RepresentationType("I", None, (2, 2, 2, 2)), 4, 10)
        assert not g.exact

    def test_hilbert_series_of_worked_square_case(self):
        g = quotient_character(rep_type("ex4"), 4)
        assert hilbert_series(g) == [1, 4, 6, 4, 1]

    def test_case_one_hilbert_property(self):
        cases = {
            2: [(2,), (1, 1), (3, 2)],
            3: [(2, 2), (2,), (1, 2, 3), (4, 4, 4)],
            4: [(2, 3, 3, 4), (1, 1, 1, 1), (2, 2)],
            5: [(2, 2, 3), (1, 2, 3, 4, 5), (3,)],
        }
        bound = 20
        for n, degree_lists in cases.items():
            for c in degree_lists:
                g = quotient_character(RepresentationType("I", None, c), n, bound)
                dims = [g.coefficient(d).dimension() for d in range(bound + 1)]
                assert dims == series_coeffs(c, n, bound), (n, c)

    def test_gorenstein_symmetry_on_worked_examples(self):
        for key in WORKED:
            g = quotient_character(rep_type(key), 4)
            e = g.top_degree()
            top = g.coefficient(e)
            for d in range(e + 1):
                assert g.coefficient(e - d) == g.coefficient(d) * top, (key, d)

    def test_case_three_factor_matches_exterior_power_traces(self):
        # traces of wedge powers of the consecutive-difference action,
        # extracted from det(I + t M) with exact cofactor expansion
        for n in range(2, 6):
            for mu in partitions_of(n):
                perm = _representative(mu)
                m = _difference_action_matrix(perm, n)
                poly = _char_poly_det(m)
                for u in range(n):
                    expected = irreducible_character(Partition([n - u] + [1] * u)).value(mu)
                    assert poly.coeffs.get(u, 0) == expected, (n, mu, u)

    def test_all_coefficients_decompose_nonnegatively(self):
        for key in WORKED:
            g = quotient_character(rep_type(key), 4)
            for d in range(g.bound + 1):
                decompose(g.coefficient(d), require_nonnegative=True)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _one_minus(k, coeff=1):
    return [1] + [0] * (k - 1) + [-coeff]


def _window_reference(case, d, c, n, bound):
    """Molien's formula expanded class by class through the total
    generator degree, with the old termination rule: the series is exact
    when its last n coefficients up to the total degree vanish at every
    class.  Returns (exact, {mu: values through the reported bound})."""
    head = {"I": (), "II": (d,), "III": (d,) * (n - 1), "IV": (d, d)}[case]
    total = sum(head) + sum(c)
    cap = max(bound, total)
    chi22 = dict(zip(CLASS_ORDER_S4, CHARACTER_TABLE_S4[(2, 2)]))
    series = {}
    for mu in partitions_of(n):
        sgn = (-1) ** (n - len(mu))
        num = [1]
        for ci in c:
            num = _pmul(num, _one_minus(ci))
        if case == "II":
            num = _pmul(num, _one_minus(d, sgn))
        elif case == "III":
            # prod_j (1 - t^(d mu_j)) / (1 - t^d), the first factor divided out
            num = _pmul(num, [1 if k % d == 0 else 0 for k in range(d * (mu[0] - 1) + 1)])
            for part in mu[1:]:
                num = _pmul(num, _one_minus(d * part))
        elif case == "IV":
            num = _pmul(num, [1] + [0] * (d - 1) + [-chi22[mu]] + [0] * (d - 1) + [sgn])
        den = [1]
        for part in mu:
            den = _pmul(den, _one_minus(part))
        out = []
        for k in range(cap + 1):
            v = num[k] if k < len(num) else 0
            v -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
            out.append(v)
        series[mu] = out
    window = range(max(0, total - n + 1), total + 1)
    if all(s[k] == 0 for s in series.values() for k in window):
        top = max((k for k in range(total + 1) if any(s[k] for s in series.values())), default=0)
        return True, {mu: s[: top + 1] for mu, s in series.items()}
    return False, {mu: s[: bound + 1] for mu, s in series.items()}


@st.composite
def admissible_types(draw):
    """(case, d, c, n, bound) for admissible types at n <= 7, half of them
    realizable families whose quotient is artinian."""
    case = draw(st.sampled_from(["I", "II", "III", "IV"]))
    n = 4 if case == "IV" else draw(st.integers(3 if case == "III" else 2, 7))
    bound = draw(st.integers(0, 15))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        if case == "I":
            c = tuple(j * draw(st.integers(1, 2)) for j in range(1, n + 1))
            return case, None, c, n, bound
        if case == "II":
            return case, n * (n - 1) // 2, tuple(range(1, n)), n, bound
        if case == "III":
            return case, k, (k,), n, bound
        return case, 2, (2, 3), n, bound
    room = {"I": n, "II": n - 1, "III": 1, "IV": 2}[case]
    c = draw(st.lists(st.integers(1, 6), min_size=int(case == "I"), max_size=room))
    d = None if case == "I" else draw(st.integers(1, 8 if case == "II" else 4))
    return case, d, tuple(c), n, bound


class TestClassWiseFormula:
    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda: coinvariant_character(True), "n"),
            (lambda: coinvariant_character(4, 2.0), "bound"),
            (lambda: polynomial_ring_character(4, 2.5), "bound"),
            (lambda: quotient_character(rep_type("ex4"), 4, False), "bound"),
        ],
    )
    def test_rejects_bools_and_non_integers(self, call, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            call()

    @settings(max_examples=120, deadline=None)
    @given(admissible_types())
    @example(("III", 2, (), 5, 12))  # does not terminate
    @example(("I", None, (2, 2, 2, 2), 4, 10))  # passes the gate, not realizable
    @example(("I", None, (1, 2, 3, 4, 5, 6, 7), 7, 0))
    def test_matches_molien_window_reference(self, spec):
        case, d, c, n, bound = spec
        exact, values = _window_reference(case, d, c, n, bound)
        g = quotient_character(RepresentationType(case, d, c), n, bound)
        assert g.exact == exact
        assert g.bound == len(values[(1,) * n]) - 1
        for k, cf in enumerate(g.coeffs):
            assert {mu: cf.value(mu) for mu in values} == {mu: v[k] for mu, v in values.items()}


def _representative(mu):
    perm = []
    start = 0
    for p in mu:
        perm.extend(start + (k + 1) % p for k in range(p))
        start += p
    return tuple(perm)


def _difference_action_matrix(perm, n):
    """Matrix of the permutation on the basis b_i = x_i - x_(i+1)."""

    def expand(a, b):
        # x_a - x_b as a combination of consecutive differences (0-based)
        coeffs = [0] * (n - 1)
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        for k in range(a, b):
            coeffs[k] = sign
        return coeffs

    cols = []
    for i in range(n - 1):
        cols.append(expand(perm[i], perm[i + 1]))
    # entries m[r][c] with column c the image of b_c
    return [[cols[c][r] for c in range(n - 1)] for r in range(n - 1)]


def _char_poly_det(m):
    """det(I + t m) as a univariate polynomial, by cofactor expansion."""
    size = len(m)
    entries = [
        [
            UnivariatePoly({0: 1} if r == c else {}) + UnivariatePoly({1: m[r][c]})
            for c in range(size)
        ]
        for r in range(size)
    ]

    def det(rows, cols):
        if not rows:
            return UnivariatePoly({0: 1})
        r = rows[0]
        total = UnivariatePoly({})
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = entries[r][c] * minor
            total = total + term * ((-1) ** idx)
        return total

    return det(list(range(size)), list(range(size)))


class TestSocle:
    def test_symmetric_generators_leave_alternating_top(self):
        report = socle_analysis(quotient_character(rep_type("ex2"), 4))
        assert report.top_degree == 8
        assert report.top_is_alternating and not report.top_is_trivial

    def test_trivial_tops(self):
        for key, top in (("ex3", 9), ("ex4", 4), ("ex5", 5)):
            report = socle_analysis(quotient_character(rep_type(key), 4))
            assert report.top_degree == top
            assert report.top_is_trivial and not report.top_is_alternating

    def test_rejects_truncated_series(self):
        with pytest.raises(ValueError):
            socle_analysis(polynomial_ring_character(4, 5))

    def test_rejects_fat_top(self):
        g = GradedCharacter(4, [2 * trivial_character(4)], exact=True)
        with pytest.raises(ValueError, match="dimension 2"):
            socle_analysis(g)


class TestHilbertSeries:
    def test_polynomial_ring_binomials(self):
        g = polynomial_ring_character(5, 7)
        assert hilbert_series(g) == [comb(4 + d, d) for d in range(8)]

    def test_coinvariant_total(self):
        assert sum(hilbert_series(coinvariant_character(5))) == factorial(5)

    def test_exact_series_trimmed_to_top(self):
        g = quotient_character(rep_type("ex4"), 4, bound=12)
        assert hilbert_series(g) == [1, 4, 6, 4, 1]


class RefSeries:
    """The per-degree layout the class polynomials replaced: a tuple of
    ClassFunction coefficients, with the same bound and exactness rules,
    kept as the reference for the class-wise arithmetic."""

    def __init__(self, n, coeffs, exact):
        self.n, self.coeffs, self.exact = n, tuple(coeffs), exact

    @property
    def bound(self):
        return len(self.coeffs) - 1

    def read(self, d):
        if d < 0 or (d > self.bound and self.exact):
            return ClassFunction(self.n, {})
        return self.coeffs[d]  # IndexError past the bound of a truncated series

    def top_degree(self):
        return max((d for d, c in enumerate(self.coeffs) if not c.is_zero()), default=None)

    def joint_bound(self, other):
        if self.exact and other.exact:
            return max(self.bound, other.bound), True
        if self.exact:
            return other.bound, False
        if other.exact:
            return self.bound, False
        return min(self.bound, other.bound), False

    def combine(self, other, sign):
        bound, exact = self.joint_bound(other)
        return RefSeries(
            self.n, [self.read(d) + sign * other.read(d) for d in range(bound + 1)], exact
        )

    def mul(self, other):
        bound, exact = self.joint_bound(other)
        if exact:
            ta, tb = self.top_degree(), other.top_degree()
            if ta is None or tb is None:
                return RefSeries(self.n, [ClassFunction(self.n, {})], True)
            bound = ta + tb
        coeffs = []
        for d in range(bound + 1):
            acc = ClassFunction(self.n, {})
            for i in range(d + 1):
                acc = acc + self.read(i) * other.read(d - i)
            coeffs.append(acc)
        return RefSeries(self.n, coeffs, exact)

    def truncate(self, bound):
        if bound <= self.bound:
            exact = self.exact and all(c.is_zero() for c in self.coeffs[bound + 1 :])
            return RefSeries(self.n, self.coeffs[: bound + 1], exact)
        zero = ClassFunction(self.n, {})
        return RefSeries(self.n, self.coeffs + (bound - self.bound) * (zero,), True)

    def cyclotomic(self, c):
        coeffs = [self.read(d) - self.read(d - c) for d in range(self.bound + 1)]
        top = self.top_degree()
        return RefSeries(self.n, coeffs, self.exact and (top is None or top + c <= self.bound))

    def trimmed(self):
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        return coeffs

    def equals(self, other):
        if self.n != other.n or self.exact != other.exact:
            return False
        return self.trimmed() == other.trimmed() if self.exact else self.coeffs == other.coeffs

    def hilbert(self):
        dims = [c.dimension() for c in self.coeffs]
        while self.exact and len(dims) > 1 and dims[-1] == 0:
            dims.pop()
        return dims


def class_functions(n):
    classes = partitions_of(n)
    value = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    values = st.lists(value, min_size=len(classes), max_size=len(classes))
    return values.map(lambda vs: ClassFunction(n, dict(zip(classes, vs))))


def series_of(n):
    """(GradedCharacter, RefSeries) with the same coefficients; exact series
    may carry zero coefficients past their top degree."""

    @st.composite
    def build(draw):
        coeffs = draw(st.lists(class_functions(n), min_size=1, max_size=6))
        exact = draw(st.booleans())
        if exact and draw(st.booleans()):
            coeffs += [ClassFunction(n, {})] * draw(st.integers(1, 3))
        return GradedCharacter(n, coeffs, exact), RefSeries(n, coeffs, exact)

    return build()


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 4))
    return n, draw(series_of(n)), draw(series_of(n))


def assert_same(g, ref):
    assert (g.bound, g.exact) == (ref.bound, ref.exact)
    assert g.coeffs == ref.coeffs
    for d in range(-1, ref.bound + 3):
        if ref.exact or d <= ref.bound:
            assert g.coefficient(d) == ref.read(d)
        else:
            with pytest.raises(ValueError, match="beyond the truncation bound"):
                g.coefficient(d)


class TestClassPolynomialArithmetic:
    """Each operation on the class polynomials against the per-degree
    reference definitions."""

    @settings(max_examples=150, deadline=None)
    @given(series_pairs())
    def test_construction_and_reads(self, spec):
        _, (a, ra), _ = spec
        assert_same(a, ra)

    @settings(max_examples=150, deadline=None)
    @given(series_pairs())
    def test_sum_and_difference(self, spec):
        _, (a, ra), (b, rb) = spec
        assert_same(a + b, ra.combine(rb, 1))
        assert_same(a - b, ra.combine(rb, -1))

    @settings(max_examples=150, deadline=None)
    @given(series_pairs())
    def test_product_of_series(self, spec):
        _, (a, ra), (b, rb) = spec
        assert_same(a * b, ra.mul(rb))

    @settings(max_examples=100, deadline=None)
    @given(series_pairs(), st.data())
    def test_product_by_class_function_and_int(self, spec, data):
        n, (a, ra), _ = spec
        cf = data.draw(class_functions(n))
        k = data.draw(st.integers(-3, 3))
        by_cf = RefSeries(n, [c * cf for c in ra.coeffs], ra.exact)
        assert_same(a * cf, by_cf)
        assert_same(cf * a, by_cf)
        assert_same(a * k, RefSeries(n, [c * k for c in ra.coeffs], ra.exact))

    @settings(max_examples=150, deadline=None)
    @given(series_pairs(), st.integers(0, 10))
    def test_truncate(self, spec, bound):
        _, (a, ra), _ = spec
        if bound > ra.bound and not ra.exact:
            with pytest.raises(ValueError, match="cannot extend"):
                a.truncate(bound)
        else:
            assert_same(a.truncate(bound), ra.truncate(bound))

    @settings(max_examples=150, deadline=None)
    @given(series_pairs(), st.integers(1, 7))
    def test_scale_by_cyclotomic(self, spec, c):
        _, (a, ra), _ = spec
        assert_same(scale_by_cyclotomic(a, c), ra.cyclotomic(c))

    @settings(max_examples=200, deadline=None)
    @given(series_pairs())
    def test_equality(self, spec):
        _, (a, ra), (b, rb) = spec
        assert (a == b) == ra.equals(rb)
        assert a == a.truncate(a.bound)
        longer = ra.coeffs + (ClassFunction(ra.n, {}),)
        assert (a == GradedCharacter(ra.n, longer, ra.exact)) == ra.exact

    @settings(max_examples=150, deadline=None)
    @given(series_pairs())
    def test_hilbert_series_and_top_degree(self, spec):
        _, (a, ra), _ = spec
        assert hilbert_series(a) == ra.hilbert()
        if ra.exact:
            assert a.top_degree() == ra.top_degree()


def _reference_case_factor(rt, n):
    """det(1 - t^d sigma | W) per degree as class functions, built from the
    irreducible characters: the exterior powers of the standard
    representation are the hooks (n-u, 1^u)."""
    d = rt.special_degree
    zero = ClassFunction(n, {})
    if rt.case_tag == "II":
        coeffs = [zero] * (d + 1)
        coeffs[0] = trivial_character(n)
        coeffs[d] = -sign_character(n)
    elif rt.case_tag == "III":
        coeffs = [zero] * ((n - 1) * d + 1)
        for u in range(n):
            coeffs[u * d] = (-1) ** u * irreducible_character(Partition([n - u] + [1] * u))
    else:
        coeffs = [zero] * (2 * d + 1)
        coeffs[0] = trivial_character(n)
        coeffs[d] = -irreducible_character(Partition([2, 2]))
        coeffs[2 * d] = sign_character(n)
    return coeffs


class TestCaseNumerators:
    @pytest.mark.parametrize("case", ["II", "III", "IV"])
    def test_closed_forms_match_character_construction(self, case):
        for n in [4] if case == "IV" else range(2, 8):
            for d in range(1, 5):
                rt = RepresentationType(case, d, ())
                factor = _reference_case_factor(rt, n)
                for mu in partitions_of(n):
                    expected = [cf.value(mu) for cf in factor]
                    assert _case_numerator(rt, mu) == expected, (case, n, d, mu)

    def test_cases_one_to_three_use_no_irreducible_characters(self, monkeypatch):
        def refuse(lam):
            raise AssertionError(f"irreducible_character({lam}) on the formula path")

        monkeypatch.setattr("symci.graded.irreducible_character", refuse)
        quotient_character(rep_type("ex2"), 4)
        quotient_character(rep_type("ex3"), 4)
        g = quotient_character(rep_type("ex4"), 4)
        assert hilbert_series(g) == [1, 4, 6, 4, 1]
        quotient_character(RepresentationType("III", 2, (3,)), 6, 12)


class TestStrictArguments:
    @pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2"])
    def test_coefficient_truncate_and_cyclotomic_refuse_non_integers(self, bad):
        g = coinvariant_character(3)
        with pytest.raises(ValueError, match="^degree must be an integer"):
            g.coefficient(bad)
        with pytest.raises(ValueError, match="^bound must be an integer"):
            g.truncate(bad)
        with pytest.raises(ValueError, match="^c must be an integer"):
            scale_by_cyclotomic(g, bad)

    @pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2", Fraction(1, 2), None])
    def test_scale_takes_an_int_or_a_class_function(self, bad):
        g = coinvariant_character(3)
        with pytest.raises(ValueError, match="^factor must be an integer"):
            g.scale(bad)
        if bad is True:
            with pytest.raises(ValueError, match="^factor must be an integer"):
                g * bad
        assert g.scale(2) == g + g

    @pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2"])
    def test_constructor_refuses_a_non_integer_n(self, bad):
        with pytest.raises(ValueError, match="^n must be an integer"):
            GradedCharacter(bad, [trivial_character(2)])

    @pytest.mark.parametrize("bad", ["yes", 1, 0, None])
    def test_exact_must_be_a_bool(self, bad):
        with pytest.raises(ValueError, match="^exact must be a bool"):
            GradedCharacter(3, [trivial_character(3)], exact=bad)
