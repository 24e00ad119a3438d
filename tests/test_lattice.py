import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsemi import (
    GeneratorSystem,
    InvalidGeneratorsError,
    build_chain,
    group_membership,
    multiple_order,
    standard_representation,
)
from affsemi.exactlinalg import gcd_maximal_minors
from affsemi.lattice import add, scale, sub
from tests.conftest import analyzed, make_system


def exhaustive_representation(system, chain, vector, bound=8):
    """Oracle: search all coefficient vectors with reduced extras directly."""
    e = system.ambient_dim
    extras = system.extras()
    found = []
    ranges = [range(idx) for idx in chain.indices]
    for reduced in itertools.product(*ranges):
        remainder = vector
        for lam, gen in zip(reduced, extras):
            remainder = sub(remainder, scale(gen, lam))
        for head in itertools.product(range(-bound, bound + 1), repeat=e):
            candidate = (0,) * e
            for coeff, gen in zip(head, system.leading()):
                candidate = add(candidate, scale(gen, coeff))
            if candidate == remainder:
                found.append(head + reduced)
    return found


class TestBuildChain:
    def test_numerical_chain(self, numerical_example):
        _, chain, _ = numerical_example
        assert chain.minor_gcds == (4, 2, 1)
        assert chain.indices == (2, 2)

    def test_axes_chain(self, axes_example):
        _, chain, _ = axes_example
        assert chain.minor_gcds == (64, 16, 8)
        assert chain.indices == (4, 2)

    def test_skew_chain(self, skew_example):
        _, chain, _ = skew_example
        assert chain.minor_gcds == (24, 4, 1)
        assert chain.indices == (6, 4)

    def test_basis_determinants_match_minor_gcds(self, skew_example):
        from affsemi import determinant

        _, chain, _ = skew_example
        for level, basis in enumerate(chain.bases):
            assert abs(determinant(basis)) == chain.minor_gcds[level]

    def test_chain_is_monotone_even_when_degenerate(self):
        system = make_system([(4,), (6,), (7,), (9,)])
        chain = build_chain(system)
        assert chain.minor_gcds == (4, 2, 1, 1)
        assert all(
            chain.minor_gcds[k] <= chain.minor_gcds[k - 1]
            for k in range(1, len(chain.minor_gcds))
        )
        assert chain.indices == (2, 2, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    def test_numerical_chain_divides_and_reconstructs(self, values):
        chain = build_chain(make_system([(v,) for v in values]))
        for k in range(1, len(chain.minor_gcds)):
            assert chain.minor_gcds[k - 1] % chain.minor_gcds[k] == 0
        for point in range(0, 3 * sum(values), max(1, sum(values) // 7)):
            representation = standard_representation(chain, (point,))
            member = group_membership(chain, (point,), chain.level_count)
            assert member == (representation is not None)


class TestSystemValidation:
    def test_rank_deficient_leading_block(self):
        with pytest.raises(InvalidGeneratorsError):
            GeneratorSystem(2, ((1, 2), (2, 4), (1, 1)))

    def test_extra_outside_cone(self):
        # (1,0) is outside cone((2,1),(1,2)) although its coordinates are
        # nonnegative.
        with pytest.raises(InvalidGeneratorsError):
            GeneratorSystem(2, ((2, 1), (1, 2), (1, 0)))

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidGeneratorsError):
            GeneratorSystem(1, ((4,), (0,)))

    def test_negative_coordinate_rejected(self):
        with pytest.raises(InvalidGeneratorsError):
            GeneratorSystem(2, ((1, 0), (0, 1), (2, -1)))

    def test_boundary_of_cone_accepted(self):
        GeneratorSystem(2, ((2, 1), (1, 2), (4, 2)))


class TestGroupMembership:
    def test_odd_number_not_in_even_group(self, numerical_example):
        _, chain, _ = numerical_example
        assert not group_membership(chain, (9,), 1)
        assert group_membership(chain, (9,), 2)

    def test_zero_vector_everywhere(self, axes_example):
        _, chain, _ = axes_example
        for level in range(chain.level_count + 1):
            assert group_membership(chain, (0, 0), level)

    def test_last_generator_drops_covolume(self, axes_example):
        _, chain, _ = axes_example
        assert not group_membership(chain, (12, 8), 1)
        assert group_membership(chain, (12, 8), 2)

    def test_matches_representation(self, skew_example):
        _, chain, _ = skew_example
        rng = random.Random(3)
        for _ in range(60):
            vector = (rng.randint(-15, 15), rng.randint(-15, 15))
            for level in range(chain.level_count + 1):
                member = group_membership(chain, vector, level)
                representation = standard_representation(chain, vector, level)
                assert member == (representation is not None)


class TestMultipleOrder:
    def test_order_two(self, numerical_example):
        _, chain, _ = numerical_example
        assert multiple_order(chain, (7,), 1) == 2

    def test_member_has_order_one(self, numerical_example):
        _, chain, _ = numerical_example
        assert multiple_order(chain, (6,), 1) == 1

    def test_unimodular_diagonal(self, unimodular_example):
        _, chain, _ = unimodular_example
        assert multiple_order(chain, (1, 1), 0) == 7

    def test_each_extra_generator_has_order_equal_to_its_index(self):
        import itertools as it

        from affsemi import random_conditioned_system

        rng = random.Random(14)
        for dim, extras in it.product([1, 2, 3], [1, 2]):
            system, chain, _ = random_conditioned_system(
                rng, dim, extras, max_entry=9
            )
            for k in range(1, extras + 1):
                generator = system.generators[dim + k - 1]
                assert multiple_order(chain, generator, k - 1) == chain.indices[
                    k - 1
                ]

    def test_zero_vector_rejected(self, numerical_example):
        _, chain, _ = numerical_example
        with pytest.raises(ValueError):
            multiple_order(chain, (0,), 1)

    def test_minimality_by_direct_scan(self):
        rng = random.Random(5)
        for _ in range(20):
            system, chain, _ = analyzed([(4,), (6,), (7,)])
            vector = (rng.randint(1, 30),)
            for level in range(chain.level_count + 1):
                order = multiple_order(chain, vector, level)
                assert group_membership(chain, scale(vector, order), level)
                for i in range(1, order):
                    assert not group_membership(chain, scale(vector, i), level)

    def test_minimality_by_direct_scan_planar(self, axes_example):
        _, chain, _ = axes_example
        rng = random.Random(6)
        for _ in range(25):
            vector = (rng.randint(0, 9), rng.randint(0, 9))
            if not any(vector):
                continue
            for level in range(chain.level_count + 1):
                order = multiple_order(chain, vector, level)
                assert group_membership(chain, scale(vector, order), level)
                for i in range(1, order):
                    assert not group_membership(chain, scale(vector, i), level)

    def test_minor_gcd_route_matches_basis_route(self, skew_example):
        # group_membership substitutes forward against the Hermite basis; the
        # reference compares covolumes instead: a vector is a member exactly
        # when adjoining it to the basis leaves the maximal-minor gcd alone.
        _, chain, _ = skew_example
        rng = random.Random(8)
        for _ in range(80):
            vector = (rng.randint(-12, 12), rng.randint(-12, 12))
            for level in range(chain.level_count + 1):
                extended = chain.bases[level].with_column(vector)
                assert group_membership(chain, vector, level) == (
                    gcd_maximal_minors(extended) == chain.minor_gcds[level]
                )


class TestStandardRepresentation:
    def test_reduced_representation(self, numerical_example):
        system, chain, _ = numerical_example
        representation = standard_representation(chain, (9,))
        assert representation is not None
        assert representation.coefficients == (-1, 1, 1)
        assert representation.vector(system) == (9,)

    def test_generator_itself(self, skew_example):
        system, chain, _ = skew_example
        representation = standard_representation(chain, system.generators[0])
        assert representation.coefficients == (1, 0, 0, 0)

    def test_frobenius_vector_has_negative_head(self, skew_example):
        system, chain, _ = skew_example
        representation = standard_representation(chain, (39, 53))
        assert representation is not None
        head = representation.head(system)
        assert any(c < 0 for c in head)
        assert representation.vector(system) == (39, 53)

    def test_not_in_group_is_none(self, numerical_example):
        system, chain, _ = numerical_example
        assert standard_representation(chain, (9,), 0) is None
        assert standard_representation(chain, (9,), 1) is None

    def test_extras_reduced_below_indices(self, axes_example):
        system, chain, _ = axes_example
        rng = random.Random(9)
        e = system.ambient_dim
        for _ in range(40):
            vector = (rng.randint(-20, 40), rng.randint(-20, 40))
            representation = standard_representation(chain, vector)
            if representation is None:
                continue
            reduced = representation.coefficients[e:]
            for lam, index in zip(reduced, chain.indices):
                assert 0 <= lam < index
            assert representation.vector(system) == vector

    def test_uniqueness_against_exhaustive_search(self, numerical_example):
        system, chain, _ = numerical_example
        for value in range(-5, 25):
            representation = standard_representation(chain, (value,))
            matches = exhaustive_representation(system, chain, (value,))
            assert representation is not None
            assert len(matches) == 1
            assert matches[0] == representation.coefficients

    def test_uniqueness_planar(self, unimodular_example):
        system, chain, _ = unimodular_example
        for x in range(-2, 5):
            for y in range(-2, 5):
                representation = standard_representation(chain, (x, y))
                matches = exhaustive_representation(
                    system, chain, (x, y), bound=10
                )
                assert representation is not None
                assert matches == [representation.coefficients]
