import random

import pytest

from affsemi import (
    CurveExponents,
    InvalidExponentsError,
    QOExponents,
    curve_semigroup,
    frobenius_number_dp,
    membership_bruteforce,
    numerical_gaps_dp,
    qo_semigroup,
    zariski_validate,
)
from tests.conftest import random_curve_exponents


class TestCurveSemigroup:
    def test_reference_example(self):
        data = curve_semigroup(CurveExponents(4, (6, 7)))
        assert data.generators == (4, 6, 13)
        assert data.gcd_chain == (4, 2, 1)
        assert data.indices == (2, 2)
        assert data.conductor == 16
        assert data.milnor == 16
        assert data.gap_count == 8

    def test_cusp(self):
        data = curve_semigroup(CurveExponents(2, (3,)))
        assert data.generators == (2, 3)
        assert data.conductor == 2
        assert data.gap_count == 1
        assert numerical_gaps_dp(data.generators) == (1,)

    def test_largest_gap_is_conductor_minus_one(self):
        data = curve_semigroup(CurveExponents(4, (6, 7)))
        gap_list = numerical_gaps_dp(data.generators)
        assert gap_list == (1, 2, 3, 5, 7, 9, 11, 15)
        assert max(gap_list) == data.conductor - 1

    def test_validation_errors(self):
        with pytest.raises(InvalidExponentsError):
            CurveExponents(1, (3,))
        with pytest.raises(InvalidExponentsError):
            CurveExponents(4, (3,))  # below the multiplicity
        with pytest.raises(InvalidExponentsError):
            CurveExponents(4, (6, 5))  # not increasing
        with pytest.raises(InvalidExponentsError):
            CurveExponents(4, (8,))  # divisible by the running gcd
        with pytest.raises(InvalidExponentsError):
            CurveExponents(4, (6,))  # gcd chain stops at 2

    def test_random_sweep_properties(self):
        rng = random.Random(41)
        for _ in range(40):
            exponents = random_curve_exponents(rng)
            data = curve_semigroup(exponents)
            gap_list = numerical_gaps_dp(data.generators)
            assert len(gap_list) == data.gap_count
            assert max(gap_list) == data.conductor - 1
            assert zariski_validate(data.generators)
            for k in range(1, len(data.generators)):
                target = (data.indices[k - 1] * data.generators[k],)
                previous = [(r,) for r in data.generators[:k]]
                assert membership_bruteforce(previous, target) is not None


    def test_huge_multiplicity_is_cheap(self):
        # The re-check walks the exponents, not the residues mod n.
        n = 10**12
        data = curve_semigroup(CurveExponents(n, (n + 2, n + 3)))
        assert data.gcd_chain == (n, 2, 1)
        assert data.indices == (n // 2, 2)


class TestZariskiValidate:
    def test_examples(self):
        assert zariski_validate([4, 6, 13])
        assert not zariski_validate([4, 6, 7])
        assert zariski_validate([2, 3])

    def test_non_coprime(self):
        assert not zariski_validate([4, 6])

    def test_not_increasing(self):
        assert not zariski_validate([4, 13, 6])

    def test_redundant_tail_is_still_realizable(self):
        # 13 = 3*3 + 4 is redundant in <3,4>, but the inequality chain and
        # coprimality still hold, and <3,4,13> is a branch semigroup.
        assert zariski_validate([3, 4, 13])


class TestQuasiOrdinary:
    def test_two_dimensional_example(self):
        data = qo_semigroup(QOExponents(2, 2, ((1, 1),)))
        assert data.minor_gcds == (4, 2)
        assert data.indices == (2,)
        assert data.derived == ((1, 1),)
        assert data.vector == (-1, -1)
        assert data.generators == ((2, 0), (0, 2), (1, 1))

    def test_negative_vector_means_every_group_point_is_member(self):
        data = qo_semigroup(QOExponents(2, 2, ((1, 1),)))
        for x in range(0, 7):
            for y in range(0, 7):
                if (x + y) % 2 == 0:
                    assert membership_bruteforce(
                        data.generators, (x, y)
                    ) is not None, (x, y)

    def test_matches_curve_pipeline_in_dimension_one(self):
        curve = curve_semigroup(CurveExponents(4, (6, 7)))
        quasi = qo_semigroup(QOExponents(1, 4, ((6,), (7,))))
        assert tuple(v[0] for v in quasi.generators) == curve.generators
        assert quasi.minor_gcds == curve.gcd_chain
        assert quasi.indices == curve.indices
        assert quasi.vector == (curve.conductor - 1,)

    def test_chain_end_must_match(self):
        # gcd(4, 2, 2) = 2, so the chain ends at 4*2 = 8, not 4.
        with pytest.raises(InvalidExponentsError):
            qo_semigroup(QOExponents(2, 4, ((2, 2),)))

    def test_not_coordinatewise_increasing(self):
        with pytest.raises(InvalidExponentsError):
            QOExponents(2, 4, ((2, 2), (6, 2)))

    def test_two_step_example(self):
        data = qo_semigroup(QOExponents(2, 4, ((2, 2), (3, 3))))
        assert data.minor_gcds == (16, 8, 4)
        assert data.indices == (2, 2)
        assert data.derived == ((2, 2), (5, 5))
        assert data.conditions.all_hold

    def test_axis_cone_structure(self):
        data = qo_semigroup(QOExponents(2, 3, ((1, 2),)))
        assert data.generators[:2] == ((3, 0), (0, 3))

    def test_lattice_index_is_multiplicity_power(self):
        data = qo_semigroup(QOExponents(2, 4, ((2, 2), (3, 3))))
        assert data.minor_gcds[-1] == 4 ** (2 - 1)

    def test_frobenius_conductor_relation_dimension_one(self):
        quasi = qo_semigroup(QOExponents(1, 8, ((12,), (14,), (15,))))
        generators = [v[0] for v in quasi.generators]
        assert frobenius_number_dp(generators) == quasi.vector[0]
