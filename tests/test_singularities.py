import random

import pytest

import affsemi.semigroup
from affsemi import (
    CurveExponents,
    IntMatrix,
    InvalidExponentsError,
    QOExponents,
    StandardRepresentation,
    curve_semigroup,
    frobenius_number_dp,
    gcd_maximal_minors,
    membership_bruteforce,
    numerical_gaps_dp,
    qo_semigroup,
    zariski_validate,
)
from tests.conftest import random_curve_exponents


def minor_enumeration_verdict(e, n, exponents):
    """Reference for the chain checks of QOExponents: the maximal-minor gcds
    of [n*I | m_1 .. m_k], enumerated minor by minor.  Returns the chain,
    or the message QOExponents must raise."""
    axis = tuple(tuple(n if i == j else 0 for j in range(e)) for i in range(e))
    chain = [n**e] + [
        gcd_maximal_minors(IntMatrix.from_columns(axis + exponents[:k]))
        for k in range(1, len(exponents) + 1)
    ]
    for k in range(1, len(chain)):
        if chain[k] >= chain[k - 1]:
            return (
                f"minor gcd does not drop at exponent {k}: each exponent must "
                "enlarge the lattice"
            )
    if chain[-1] != n ** (e - 1):
        return (
            f"the minor-gcd chain ends at {chain[-1]}, expected "
            f"{n ** (e - 1)}; exponent data is inconsistent"
        )
    return tuple(chain)


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


    def test_negative_leading_coefficient_is_rejected(self, monkeypatch):
        # The re-check reads the sign of the r_0 coefficient; flipping it
        # must reject otherwise valid data.
        original = affsemi.semigroup.standard_representation

        def negated(chain, vector, level=None):
            representation = original(chain, vector, level)
            return StandardRepresentation(
                representation.level,
                (-1,) + representation.coefficients[1:],
            )

        monkeypatch.setattr(affsemi.semigroup, "standard_representation", negated)
        with pytest.raises(InvalidExponentsError, match="not representable"):
            curve_semigroup(CurveExponents(4, (6, 7)))

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

    def test_search_budget_bounds_the_condition_check(self):
        # Deciding 3*(10^18, 0) over (3,0), (0,3) by search would take about
        # 10^18 nodes; the sign criterion decides it in one lattice step.
        data = qo_semigroup(QOExponents(2, 3, ((10**18, 0),)))
        assert data.vector == (2 * 10**18 - 3, -3)
        assert data.conditions.scaled[0].witness == (10**18, 0)

    def test_decides_without_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the witness search ran")

        monkeypatch.setattr(affsemi.semigroup, "membership_bruteforce", no_search)
        data = qo_semigroup(QOExponents(2, 4, ((2, 2), (3, 3))))
        assert data.conditions.all_hold
        assert data.vector == (3, 3)

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

    def test_chain_checks_match_minor_enumeration(self):
        rng = random.Random(2027)
        outcomes = {"valid": 0, "invalid": 0}
        for _ in range(300):
            e = rng.randint(1, 3)
            n = rng.randint(2, 9)
            exponents = [tuple(rng.randint(0, 3) + 1 for _ in range(e))]
            for _ in range(rng.randint(0, 2)):
                exponents.append(
                    tuple(x + rng.randint(1, 4) for x in exponents[-1])
                )
            exponents = tuple(exponents)
            expected = minor_enumeration_verdict(e, n, exponents)
            if isinstance(expected, str):
                outcomes["invalid"] += 1
                with pytest.raises(InvalidExponentsError) as raised:
                    QOExponents(e, n, exponents)
                assert str(raised.value) == expected
            else:
                outcomes["valid"] += 1
                assert QOExponents(e, n, exponents).minor_gcds == expected
        assert min(outcomes.values()) >= 50, outcomes
