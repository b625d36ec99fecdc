import random

import pytest

from symci.classify import (
    IrredMultiset,
    Rejection,
    RepresentationType,
    admissible_irreducibles,
    classify,
    validate_representation_type,
)
from symci.partitions import partitions_of


def prop_shape_accepts(n, summands):
    """Independent re-statement of the four admissible shapes."""
    if not summands:
        return False
    nontrivial = [tuple(lam) for lam, _ in summands if tuple(lam) != (n,)]
    m = len(summands) - len(nontrivial)
    if not nontrivial:
        return 1 <= m <= n
    if len(nontrivial) > 1:
        return False
    lam = nontrivial[0]
    if lam == (1,) * n:
        return 0 <= m <= n - 1
    if lam == (n - 1, 1):
        return 0 <= m <= 1
    if n == 4 and lam == (2, 2):
        return 0 <= m <= 2
    return False


class TestAdmissibleIrreducibles:
    def test_n4_has_exceptional_label(self):
        assert set(admissible_irreducibles(4)) == {(4,), (1, 1, 1, 1), (3, 1), (2, 2)}

    def test_n5(self):
        assert set(admissible_irreducibles(5)) == {(5,), (1, 1, 1, 1, 1), (4, 1)}

    def test_n2_deduplicates(self):
        assert admissible_irreducibles(2) == ((2,), (1, 1))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            admissible_irreducibles(1)


class TestClassifyAccepts:
    def test_all_trivials(self):
        ms = IrredMultiset(4, (((4,), 2), ((4,), 3), ((4,), 3), ((4,), 4)))
        assert classify(ms) == RepresentationType("I", None, (2, 3, 3, 4))

    def test_alternating_case(self):
        ms = IrredMultiset(4, (((1, 1, 1, 1), 6), ((4,), 2), ((4,), 2), ((4,), 3)))
        assert classify(ms) == RepresentationType("II", 6, (2, 2, 3))

    def test_standard_case(self):
        ms = IrredMultiset(4, (((3, 1), 2), ((4,), 2)))
        assert classify(ms) == RepresentationType("III", 2, (2,))

    def test_square_case(self):
        ms = IrredMultiset(4, (((2, 2), 2), ((4,), 2), ((4,), 3)))
        assert classify(ms) == RepresentationType("IV", 2, (2, 3))

    def test_degrees_sorted(self):
        ms = IrredMultiset(3, (((3,), 5), ((3,), 2)))
        assert classify(ms) == RepresentationType("I", None, (2, 5))

    def test_n2_alternating_label_wins(self):
        ms = IrredMultiset(2, (((1, 1), 3),))
        assert classify(ms) == RepresentationType("II", 3, ())


class TestClassifyRejects:
    def test_two_standard_copies(self):
        out = classify(IrredMultiset(5, (((4, 1), 2), ((4, 1), 2))))
        assert isinstance(out, Rejection) and out.rule == "Corollary 3"

    def test_contains_square(self):
        out = classify(IrredMultiset(5, (((3, 2), 2),)))
        assert isinstance(out, Rejection) and out.rule == "Corollary 1"

    def test_square_not_exceptional_away_from_n4(self):
        out = classify(IrredMultiset(6, (((2, 2, 1, 1), 2),)))
        assert isinstance(out, Rejection) and out.rule == "Corollary 1"

    def test_bad_hook(self):
        out = classify(IrredMultiset(6, (((4, 1, 1), 2),)))
        assert isinstance(out, Rejection) and out.rule == "Corollary 2"

    def test_length_bound_trivials(self):
        ms = IrredMultiset(3, tuple(((3,), 2) for _ in range(4)))
        out = classify(ms)
        assert isinstance(out, Rejection) and out.rule == "length bound"

    def test_length_bound_standard_with_two_trivials(self):
        ms = IrredMultiset(5, (((4, 1), 2), ((5,), 2), ((5,), 3)))
        out = classify(ms)
        assert isinstance(out, Rejection) and out.rule == "length bound"

    def test_empty(self):
        out = classify(IrredMultiset(4, ()))
        assert isinstance(out, Rejection) and out.rule == "empty"

    def test_rejections_always_name_a_rule(self):
        rules = {"Corollary 1", "Corollary 2", "Corollary 3", "length bound", "empty"}
        rng = random.Random(7)
        for n in range(2, 7):
            pool = partitions_of(n)
            for _ in range(50):
                size = rng.randrange(5)
                summands = tuple(
                    (rng.choice(pool), rng.randrange(1, 6)) for _ in range(size)
                )
                out = classify(IrredMultiset(n, summands))
                if isinstance(out, Rejection):
                    assert out.rule in rules


class TestClassifyProperty:
    def test_matches_independent_shape_oracle(self):
        rng = random.Random(20250809)
        for n in range(2, 8):
            pool = partitions_of(n)
            for _ in range(300):
                size = rng.randrange(5)
                summands = tuple(
                    (rng.choice(pool), rng.randrange(1, 7)) for _ in range(size)
                )
                out = classify(IrredMultiset(n, summands))
                accepted = isinstance(out, RepresentationType)
                assert accepted == prop_shape_accepts(n, summands), (n, summands)

    def test_accepted_total_dimension_bounded(self):
        dims = {"I": 0, "II": 1, "III": None, "IV": 2}
        rng = random.Random(99)
        for n in range(2, 8):
            pool = partitions_of(n)
            for _ in range(200):
                size = rng.randrange(1, 5)
                summands = tuple(
                    (rng.choice(pool), rng.randrange(1, 7)) for _ in range(size)
                )
                out = classify(IrredMultiset(n, summands))
                if isinstance(out, RepresentationType):
                    special = dims[out.case_tag]
                    if special is None:
                        special = n - 1
                    assert special + len(out.trivial_degrees) <= n


class TestValidation:
    def test_validates_known_good(self):
        validate_representation_type(RepresentationType("I", None, (2, 3, 3, 4)), 4)
        validate_representation_type(RepresentationType("II", 6, (2, 2, 3)), 4)
        validate_representation_type(RepresentationType("III", 2, (2,)), 4)
        validate_representation_type(RepresentationType("IV", 2, (2, 3)), 4)

    def test_case_four_needs_four_variables(self):
        with pytest.raises(ValueError):
            validate_representation_type(RepresentationType("IV", 2, ()), 5)

    def test_too_many_trivials(self):
        with pytest.raises(ValueError, match="length bound"):
            validate_representation_type(RepresentationType("III", 2, (2, 3)), 4)

    def test_case_one_needs_a_generator(self):
        with pytest.raises(ValueError, match="empty"):
            validate_representation_type(RepresentationType("I", None, ()), 4)

    def test_type_invariants(self):
        with pytest.raises(ValueError):
            RepresentationType("I", 2, (2,))
        with pytest.raises(ValueError):
            RepresentationType("II", None, (2,))
        with pytest.raises(ValueError):
            RepresentationType("II", 0, ())
        with pytest.raises(ValueError):
            RepresentationType("V", 1, ())

    def test_multiset_invariants(self):
        with pytest.raises(ValueError):
            IrredMultiset(4, (((3, 1), 0),))
        with pytest.raises(ValueError):
            IrredMultiset(4, (((3, 2), 1),))

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: RepresentationType("I", None, (2.9,)), "trivial degree"),
            (lambda: RepresentationType("I", None, (True, 2)), "trivial degree"),
            (lambda: RepresentationType("II", 2.0, ()), "d"),
            (lambda: RepresentationType("III", False, ()), "d"),
            (lambda: IrredMultiset(4, (((3, 1), True),)), "degree"),
            (lambda: IrredMultiset(4, (((3, 1), 2.7),)), "degree"),
            (lambda: IrredMultiset(4.0, ()), "n"),
            (lambda: IrredMultiset(True, ()), "n"),
        ],
    )
    def test_bools_and_non_integers_rejected(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build()
