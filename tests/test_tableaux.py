from fractions import Fraction
from math import factorial

import pytest

from symci.characters import irreducible_character
from symci.partitions import Partition, n_stat, partitions_of
from symci.tableaux import (
    _expand_in_standard_basis,
    Tableau,
    TableauCombination,
    UnivariatePoly,
    apply_transposition,
    charge,
    kostka_foulkes,
    kostka_foulkes_tilde,
    semistandard_tableaux,
    standard_tableaux,
)

from golden import KF_SMALL, KF_TILDE_S4

T1 = Tableau([[1, 2], [3, 4]])
T2 = Tableau([[1, 3], [2, 4]])


def dominates(lam, mu):
    """lam dominates mu in the dominance order (equal sizes assumed)."""
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


class TestStandardTableaux:
    def test_square_shape(self):
        assert standard_tableaux((2, 2)) == (T1, T2)

    def test_single_row(self):
        (t,) = standard_tableaux((5,))
        assert t.rows == ((1, 2, 3, 4, 5),)

    def test_hook_count(self):
        assert len(standard_tableaux((3, 1))) == 3

    def test_accepts_any_sequence(self):
        assert standard_tableaux([2, 1]) == standard_tableaux(Partition([2, 1]))
        assert len(standard_tableaux([2, 1])) == 2

    def test_all_standard(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for t in standard_tableaux(lam):
                    assert t.is_standard()
                    assert t.shape == lam

    def test_dimension_sum_of_squares(self):
        for n in range(1, 8):
            total = sum(len(standard_tableaux(lam)) ** 2 for lam in partitions_of(n))
            assert total == factorial(n)


class TestSemistandardTableaux:
    def test_column_weight_matches_standard(self):
        assert semistandard_tableaux((2, 2), (1, 1, 1, 1)) == standard_tableaux((2, 2))

    def test_forced_row(self):
        (t,) = semistandard_tableaux((2,), (2,))
        assert t.rows == ((1, 1),)

    def test_column_strictness_blocks_repeats(self):
        assert semistandard_tableaux((1, 1), (2,)) == ()

    def test_contents_and_validity(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    for t in semistandard_tableaux(lam, mu):
                        assert t.is_semistandard()
                        assert t.weight() == tuple(mu)


class TestCharge:
    def test_single_column_is_zero(self):
        assert charge(Tableau([[1], [2], [3], [4]])) == 0

    def test_single_row_is_maximal(self):
        assert charge(Tableau([[1, 2, 3, 4]])) == 6

    def test_hook_charges(self):
        got = {t.rows: charge(t) for t in standard_tableaux((3, 1))}
        assert set(got.values()) == {3, 4, 5}
        # frozen per-tableau values, derived from the index rule by hand
        assert got == {
            ((1, 2, 3), (4,)): 5,
            ((1, 2, 4), (3,)): 4,
            ((1, 3, 4), (2,)): 3,
        }

    def test_charge_bounded_by_n_stat(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    for t in semistandard_tableaux(lam, mu):
                        assert 0 <= charge(t) <= n_stat(mu)

    def test_rejects_bad_content(self):
        with pytest.raises(ValueError):
            charge(Tableau([[2, 2], [3, 3]]))  # content has a gap at 1


class TestKostkaFoulkes:
    def test_one_row_column_weight(self):
        assert kostka_foulkes((4,), (1, 1, 1, 1)) == UnivariatePoly({6: 1})

    def test_equal_shape_and_weight_is_one(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert kostka_foulkes(lam, lam) == UnivariatePoly({0: 1})

    def test_square_column_weight(self):
        assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == UnivariatePoly({2: 1, 4: 1})

    def test_small_frozen_table(self):
        for (lam, mu), coeffs in KF_SMALL.items():
            assert kostka_foulkes(lam, mu) == UnivariatePoly(coeffs), (lam, mu)

    def test_dominance_support(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    k = kostka_foulkes(lam, mu)
                    assert bool(k) == dominates(lam, mu)

    def test_monic_of_known_degree(self):
        # classical: top term t^(n_stat(mu) - n_stat(lam)) with coefficient 1
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    k = kostka_foulkes(lam, mu)
                    if k:
                        top = k.degree()
                        assert top == n_stat(mu) - n_stat(lam)
                        assert k.coeffs[top] == 1

    def test_specializes_to_tableau_count(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    count = len(semistandard_tableaux(lam, mu))
                    assert kostka_foulkes(lam, mu)(1) == count


class TestKostkaFoulkesTilde:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_q_hook_column_matches_charge_enumeration(self, n):
        column = Partition([1] * n)
        top = n_stat(column)
        for lam in partitions_of(n):
            charge_poly = kostka_foulkes(lam, column)
            flipped = UnivariatePoly({top - e: c for e, c in charge_poly.coeffs.items()})
            assert kostka_foulkes_tilde(lam, column) == flipped, lam

    def test_full_column_table(self):
        for lam, coeffs in KF_TILDE_S4.items():
            assert kostka_foulkes_tilde(lam, (1, 1, 1, 1)) == UnivariatePoly(coeffs)

    def test_examples(self):
        assert kostka_foulkes_tilde((3, 1), (1, 1, 1, 1)) == UnivariatePoly({1: 1, 2: 1, 3: 1})
        assert kostka_foulkes_tilde((2, 1, 1), (1, 1, 1, 1)) == UnivariatePoly({3: 1, 4: 1, 5: 1})
        assert kostka_foulkes_tilde((1, 1, 1, 1), (1, 1, 1, 1)) == UnivariatePoly({6: 1})

    def test_column_weight_dimension_specialization(self):
        for n in range(1, 7):
            column = Partition([1] * n)
            for lam in partitions_of(n):
                dim = len(standard_tableaux(lam))
                assert kostka_foulkes_tilde(lam, column)(1) == dim

    def test_nonnegative_and_bounded(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    kt = kostka_foulkes_tilde(lam, mu)
                    assert all(c > 0 for c in kt.coeffs.values())
                    assert not kt or kt.degree() <= n_stat(mu)


class TestApplyTransposition:
    def test_square_basis_action(self):
        assert apply_transposition(1, T1) == TableauCombination({T1: 1, T2: -1})
        assert apply_transposition(1, T2) == TableauCombination({T2: -1})

    def test_same_row_adjacent_on_square(self):
        assert apply_transposition(3, T1) == TableauCombination({T1: 1, T2: -1})

    def test_column_mates_give_sign(self):
        for n in range(2, 7):
            for lam in partitions_of(n):
                for t in standard_tableaux(lam):
                    for c in range(lam[0]):
                        col = t.column(c)
                        for a in range(len(col)):
                            for b in range(a + 1, len(col)):
                                out = apply_transposition(col[a], t, col[b])
                                assert out == TableauCombination({t: -1})

    def test_column_mate_involution(self):
        t = Tableau([[1, 2, 5], [3, 4], [6]])
        out = apply_transposition(1, t, 6)
        again = sum(
            (coeff * apply_transposition(1, u, 6) for u, coeff in out.terms.items()),
            TableauCombination({}),
        )
        assert again == TableauCombination({t: 1})

    def test_free_swap(self):
        t = Tableau([[1, 2], [3, 4]])
        assert apply_transposition(2, t) == TableauCombination({T2: 1})

    def test_same_row_hook_expansion(self):
        # frozen by the column-difference realization: the swapped filling
        # x2 - x4 expands as (x1 - x4) - (x1 - x2)
        ta, tb, tc = standard_tableaux((3, 1))
        out = apply_transposition(1, ta)
        assert out == TableauCombination({ta: 1, tc: -1})

    def test_linearity_involution_on_same_row_case(self):
        out = apply_transposition(1, T1)
        back = sum(
            (coeff * apply_transposition(1, u) for u, coeff in out.terms.items()),
            TableauCombination({}),
        )
        assert back == TableauCombination({T1: 1})

    def test_rejects_out_of_scope(self):
        with pytest.raises(ValueError):
            apply_transposition(1, T1, 4)  # 1 and 4 share no column, not adjacent
        with pytest.raises(ValueError):
            apply_transposition(1, Tableau([[2, 1], [3, 4]]))  # not standard

    def test_traces_are_the_character_at_a_transposition(self):
        # on the standard basis of every shape, the diagonal of (i, i+1)
        # sums to chi^lam at cycle type (2, 1^(n-2)), for every i
        for n in range(2, 7):
            mu = Partition([2] + [1] * (n - 2))
            for lam in partitions_of(n):
                basis = standard_tableaux(lam)
                for i in range(1, n):
                    trace = sum(apply_transposition(i, t).coefficient(t) for t in basis)
                    assert trace == irreducible_character(lam).value(mu), (lam, i)

    def test_target_outside_the_span_is_refused(self):
        # (x1 - x2)(x1 - x3) has the monomial x1^2, which no (2,2) basis
        # polynomial has
        with pytest.raises(ValueError, match="outside the column span"):
            _expand_in_standard_basis(((1, 1), (2, 3)), (2, 2))

    def test_exterior_square_is_alternating(self):
        # the action matrix of each adjacent transposition has determinant -1
        for i in (1, 2, 3):
            r1 = apply_transposition(i, T1)
            r2 = apply_transposition(i, T2)
            det = r1.coefficient(T1) * r2.coefficient(T2) - r2.coefficient(T1) * r1.coefficient(T2)
            assert det == Fraction(-1)


class TestUnivariatePoly:
    def test_repr(self):
        assert repr(UnivariatePoly({0: 1})) == "1"
        assert repr(UnivariatePoly({1: 1, 2: 1, 3: 1})) == "t + t^2 + t^3"
        assert repr(UnivariatePoly({2: -3})) == "-3t^2"
        assert repr(UnivariatePoly({})) == "0"

    def test_arithmetic(self):
        p = UnivariatePoly({0: 1, 2: -1})
        q = UnivariatePoly({1: 1})
        assert p * q == UnivariatePoly({1: 1, 3: -1})
        assert p + q == UnivariatePoly({0: 1, 1: 1, 2: -1})
        assert (p * 0) == UnivariatePoly({})

    def test_json(self):
        assert UnivariatePoly({2: 1, 4: 1}).to_json() == {"2": 1, "4": 1}

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda bad: UnivariatePoly({bad: 1}), "exponent"),
            (lambda bad: Tableau([[1, bad]]), "entry"),
            (lambda bad: Tableau([[bad], [3]]), "entry"),
        ],
    )
    @pytest.mark.parametrize("bad", [True, 2.0, 2.9, "2"])
    def test_constructors_refuse_bools_and_floats(self, call, field, bad):
        # 2.9 would otherwise become t^2 or the entry 2, and True the 1
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            call(bad)

    def test_tableau_json(self):
        assert T2.to_json() == [[1, 3], [2, 4]]
