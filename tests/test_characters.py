import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symci.characters import (
    ClassFunction,
    decompose,
    inner_product,
    irreducible_character,
    sign_character,
    trivial_character,
)
from symci.partitions import Partition, class_size, partitions_of
from symci.tableaux import standard_tableaux

from golden import CHARACTER_TABLE_S4, CLASS_ORDER_S4, CLASS_SIZES_S4


class TestClassFunctionType:
    def test_missing_keys_read_zero(self):
        cf = ClassFunction(3, {(3,): 2})
        assert cf.value((2, 1)) == 0
        assert cf.value((3,)) == 2

    def test_rejects_wrong_cycle_type(self):
        with pytest.raises(ValueError):
            ClassFunction(3, {(2, 2): 1})

    def test_rejects_fractional_values(self):
        with pytest.raises(TypeError):
            ClassFunction(3, {(3,): Fraction(1, 2)})

    @pytest.mark.parametrize("n", [True, 4.0])
    def test_rejects_non_integer_n(self, n):
        # n keys the cached decomposition table, so it must be a plain int
        with pytest.raises(ValueError, match="^n must be an integer"):
            ClassFunction(n, {})

    def test_integral_fraction_accepted(self):
        cf = ClassFunction(3, {(3,): Fraction(4, 2)})
        assert cf.value((3,)) == 2

    def test_json_roundtrip(self):
        cf = irreducible_character((3, 1))
        assert ClassFunction.from_json(4, cf.to_json()) == cf


class TestCharacterTable:
    def test_appendix_values(self):
        for lam, row in CHARACTER_TABLE_S4.items():
            chi = irreducible_character(lam)
            assert [chi.value(mu) for mu in CLASS_ORDER_S4] == row

    def test_class_sizes(self):
        assert [class_size(mu) for mu in CLASS_ORDER_S4] == CLASS_SIZES_S4

    def test_accepts_any_sequence(self):
        assert irreducible_character([2, 2]) == irreducible_character(Partition([2, 2]))
        assert irreducible_character([2, 2]).value([3, 1]) == -1

    def test_trivial_is_all_ones(self):
        for n in range(1, 7):
            chi = irreducible_character((n,))
            assert all(chi.value(mu) == 1 for mu in partitions_of(n))
            assert chi == trivial_character(n)

    def test_one_column_is_sign(self):
        for n in range(1, 7):
            assert irreducible_character((1,) * n) == sign_character(n)

    def test_dimensions_count_standard_tableaux(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                chi = irreducible_character(lam)
                assert chi.dimension() == len(standard_tableaux(lam))

    def test_column_orthogonality_n4(self):
        for mu in CLASS_ORDER_S4:
            for nu in CLASS_ORDER_S4:
                total = sum(
                    irreducible_character(lam).value(mu) * irreducible_character(lam).value(nu)
                    for lam in partitions_of(4)
                )
                expected = factorial(4) // class_size(mu) if mu == nu else 0
                assert total == expected


class TestProducts:
    def test_trivial_is_identity(self):
        for lam in partitions_of(5):
            chi = irreducible_character(lam)
            assert trivial_character(5) * chi == chi

    def test_sign_squares_to_trivial(self):
        chi = irreducible_character((1, 1, 1, 1))
        assert chi * chi == trivial_character(4)

    def test_sign_twist_of_standard(self):
        lhs = irreducible_character((3, 1)) * irreducible_character((1, 1, 1, 1))
        assert lhs == irreducible_character((2, 1, 1))

    def test_mismatched_groups_rejected(self):
        with pytest.raises(ValueError):
            trivial_character(3) * trivial_character(4)

    @pytest.mark.parametrize("other", [True, 2.0, "2", None])
    def test_unknown_operands_refused(self, other):
        chi = irreducible_character((2, 1))
        with pytest.raises(TypeError):
            chi * other
        with pytest.raises(TypeError):
            other * chi

    def test_int_product_both_sides(self):
        chi = irreducible_character((2, 1))
        assert 3 * chi == chi * 3 == chi + chi + chi


class TestInnerProduct:
    def test_orthonormality(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    expected = Fraction(1 if lam == mu else 0)
                    got = inner_product(
                        irreducible_character(lam), irreducible_character(mu)
                    )
                    assert got == expected

    def test_frozen_triple_product(self):
        # brute force from the 5x5 table: (1*9*2 + 3*1*2) / 24 = 1
        chi31 = irreducible_character((3, 1))
        chi22 = irreducible_character((2, 2))
        assert inner_product(chi31 * chi31, chi22) == 1


class TestDecompose:
    def test_permutation_character_on_points(self):
        values = dict(zip(CLASS_ORDER_S4, [4, 2, 1, 0, 0]))
        cf = ClassFunction(4, values)
        assert decompose(cf) == {Partition([4]): 1, Partition([3, 1]): 1}

    def test_irreducible_decomposes_to_itself(self):
        for lam in partitions_of(5):
            assert decompose(irreducible_character(lam)) == {Partition(lam): 1}

    def test_standard_squared(self):
        chi31 = irreducible_character((3, 1))
        assert decompose(chi31 * chi31) == {
            Partition([4]): 1,
            Partition([3, 1]): 1,
            Partition([2, 2]): 1,
            Partition([2, 1, 1]): 1,
        }

    def test_roundtrip_random_multiplicities(self):
        rng = random.Random(20250809)
        for n in range(1, 6):
            for _ in range(10):
                mults = {lam: rng.randrange(4) for lam in partitions_of(n)}
                cf = ClassFunction(n, {})
                for lam, m in mults.items():
                    cf = cf + m * irreducible_character(lam)
                got = decompose(cf, require_nonnegative=True)
                assert got == {lam: m for lam, m in mults.items() if m}

    def test_rejects_non_virtual_character(self):
        cf = ClassFunction(3, {(1, 1, 1): 1})  # indicator of the identity class
        with pytest.raises(ValueError):
            decompose(cf)

    def test_rejects_negative_when_asserted(self):
        cf = -irreducible_character((2, 1))
        with pytest.raises(ValueError):
            decompose(cf, require_nonnegative=True)
        assert decompose(cf) == {Partition([2, 1]): -1}


@st.composite
def class_functions(draw):
    """Integer class functions on S_n, n <= 6: virtual characters or not."""
    n = draw(st.integers(1, 6))
    classes = partitions_of(n)
    if draw(st.booleans()):
        mults = draw(st.lists(st.integers(-3, 3), min_size=len(classes), max_size=len(classes)))
        cf = ClassFunction(n, {})
        for lam, m in zip(classes, mults):
            cf = cf + m * irreducible_character(lam)
        return cf
    values = draw(st.lists(st.integers(-50, 50), min_size=len(classes), max_size=len(classes)))
    return ClassFunction(n, dict(zip(classes, values)))


class TestDecomposeTable:
    @settings(max_examples=150, deadline=None)
    @given(class_functions(), st.booleans())
    # not a virtual character (<cf, chi^(3,1)> = -9/2), though the first
    # inner product, at (4), is the integer -1
    @example(ClassFunction(4, {(2, 2): 4, (2, 1, 1): -1, (1, 1, 1, 1): -30}), True)
    def test_matches_inner_product_definition(self, cf, nonnegative):
        products = {
            lam: inner_product(cf, irreducible_character(lam)) for lam in partitions_of(cf.n)
        }
        if any(m.denominator != 1 for m in products.values()):
            with pytest.raises(ValueError, match="not a virtual character"):
                decompose(cf, require_nonnegative=nonnegative)
        elif nonnegative and any(m < 0 for m in products.values()):
            with pytest.raises(ValueError, match="negative multiplicity"):
                decompose(cf, require_nonnegative=True)
        else:
            got = decompose(cf, require_nonnegative=nonnegative)
            assert got == {lam: int(m) for lam, m in products.items() if m}
            assert all(type(m) is int for m in got.values())
