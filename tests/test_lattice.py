import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsemi import (
    GeneratorSystem,
    InvalidGeneratorsError,
    build_chain,
    standard_representation,
)
from affsemi.errors import DimensionError
from affsemi.exactlinalg import (
    IntMatrix,
    cramer_numerators,
    determinant,
    gcd_maximal_minors,
    hermite_reduce,
    lattice_basis,
    solve_lower_triangular,
)
from affsemi.lattice import StandardRepresentation, add, scale, sub
from tests.conftest import make_system, random_system


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


def evaluate(system, coefficients):
    """The vector that coefficients over the generators stand for."""
    total = (0,) * system.ambient_dim
    for coeff, gen in zip(coefficients, system.generators):
        total = add(total, scale(gen, coeff))
    return total


def residue_walk_representation(chain, vector, level):
    """Reference: at each level try every residue below the index until the
    rest falls into the group below."""
    e = chain.system.ambient_dim
    residual = tuple(vector)
    reduced = []
    for j in range(level, 0, -1):
        generator = chain.system.generators[e + j - 1]
        for residue in range(chain.indices[j - 1]):
            candidate = sub(residual, scale(generator, residue))
            if solve_lower_triangular(chain.bases[j - 1], candidate) is not None:
                reduced.append(residue)
                residual = candidate
                break
        else:
            return None
    leading = chain.system.leading_matrix()
    det = determinant(leading)
    numerators = cramer_numerators(leading, residual)
    if any(n % det for n in numerators):
        return None
    head = tuple(n // det for n in numerators)
    return StandardRepresentation(level, head + tuple(reversed(reduced)))


class TestTaggedChain:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3))
    def test_residue_from_tags_matches_residue_walk(self, seed, e, extras):
        rng = random.Random(seed)
        system = random_system(rng, e, extras)
        chain = build_chain(system)
        gens = system.generators
        for level in range(chain.level_count + 1):
            for _ in range(12):
                # Half of the points are in the level group by construction.
                if rng.random() < 0.5:
                    point = (0,) * e
                    for v in gens[: e + level]:
                        point = add(point, scale(v, rng.randint(-4, 4)))
                else:
                    point = tuple(rng.randint(-40, 40) for _ in range(e))
                assert standard_representation(
                    chain, point, level
                ) == residue_walk_representation(chain, point, level)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3))
    def test_levels_match_the_prefix_lattices(self, seed, e, extras):
        rng = random.Random(seed)
        system = random_system(rng, e, extras)
        chain = build_chain(system)
        gens = system.generators
        for level in range(chain.level_count + 1):
            prefix = gens[: e + level]
            assert chain.bases[level] == lattice_basis(prefix)
            assert chain.minor_gcds[level] == gcd_maximal_minors(
                IntMatrix.from_columns(prefix)
            )
        for k in range(1, chain.level_count + 1):
            generator = gens[e + k - 1]
            tags = chain.tags[k - 1]
            assert all(0 <= t < chain.indices[k - 1] for t in tags)
            for column, tag in zip(chain.bases[k].columns(), tags):
                assert chain.contains(sub(column, scale(generator, tag)), k - 1)

    def test_trailing_rows_ride_along(self):
        # (4,) and (6,) span 2Z; the tag rows record 2 = 6 - 4 and the
        # pivot row alone decides the basis.
        work = [[4, 1, 0], [6, 0, 1]]
        hermite_reduce(work, 1)
        assert work[0] == [2, -1, 1]

    def test_large_index_without_walking_it(self):
        p = 10**12 + 39
        system = make_system([(p,), (p + 2,)])
        chain = build_chain(system)
        assert chain.indices == (p,)
        g = p * (p + 2) - p - (p + 2)
        representation = standard_representation(chain, (g,))
        assert evaluate(system, representation.coefficients) == (g,)
        assert 0 <= representation.coefficients[1] < p
        assert representation.coefficients[0] < 0


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
            member = chain.contains((point,), chain.level_count)
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


class TestConeMap:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 3))
    def test_cone_coordinates_are_signed_cramer_numerators(self, seed, e, extras):
        rng = random.Random(seed)
        system = random_system(rng, e, extras)
        systems = [system]
        if e >= 2:
            # The same cone with the first two leading generators swapped:
            # det changes sign, the cone coordinates only swap.
            gens = system.generators
            systems.append(GeneratorSystem(e, (gens[1], gens[0]) + gens[2:]))
        for candidate in systems:
            leading = candidate.leading_matrix()
            det = determinant(leading)
            sign = 1 if det > 0 else -1
            assert candidate.det == det
            for _ in range(12):
                vector = tuple(rng.randint(-40, 40) for _ in range(e))
                assert candidate.cone_coordinates(vector) == tuple(
                    sign * n for n in cramer_numerators(leading, vector)
                )

    def test_cached_map_takes_no_part_in_equality(self):
        a = GeneratorSystem(2, ((1, 3), (3, 2), (1, 1)))
        b = GeneratorSystem.from_vectors([(1, 3), (3, 2), (1, 1)])
        assert a == b and hash(a) == hash(b)
        assert "cone_map" not in repr(a)

    def test_wrong_length_rejected(self, skew_example):
        system, _, _ = skew_example
        with pytest.raises(DimensionError):
            system.cone_coordinates((1, 2, 3))


class TestGroupMembership:
    def test_odd_number_not_in_even_group(self, numerical_example):
        _, chain, _ = numerical_example
        assert not chain.contains((9,), 1)
        assert chain.contains((9,), 2)

    def test_zero_vector_everywhere(self, axes_example):
        _, chain, _ = axes_example
        for level in range(chain.level_count + 1):
            assert chain.contains((0, 0), level)

    def test_last_generator_drops_covolume(self, axes_example):
        _, chain, _ = axes_example
        assert not chain.contains((12, 8), 1)
        assert chain.contains((12, 8), 2)

    def test_matches_representation(self, skew_example):
        _, chain, _ = skew_example
        rng = random.Random(3)
        for _ in range(60):
            vector = (rng.randint(-15, 15), rng.randint(-15, 15))
            for level in range(chain.level_count + 1):
                member = chain.contains(vector, level)
                representation = standard_representation(chain, vector, level)
                assert member == (representation is not None)

    def test_minor_gcd_route_matches_basis_route(self, skew_example):
        # contains substitutes forward against the Hermite basis; the
        # reference compares covolumes instead: a vector is a member exactly
        # when adjoining it to the basis leaves the maximal-minor gcd alone.
        _, chain, _ = skew_example
        rng = random.Random(8)
        for _ in range(80):
            vector = (rng.randint(-12, 12), rng.randint(-12, 12))
            for level in range(chain.level_count + 1):
                extended = IntMatrix.from_columns(
                    chain.bases[level].columns() + (vector,)
                )
                assert chain.contains(vector, level) == (
                    gcd_maximal_minors(extended) == chain.minor_gcds[level]
                )


class TestStandardRepresentation:
    def test_reduced_representation(self, numerical_example):
        system, chain, _ = numerical_example
        representation = standard_representation(chain, (9,))
        assert representation is not None
        assert representation.coefficients == (-1, 1, 1)
        assert evaluate(system, representation.coefficients) == (9,)

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
        assert evaluate(system, representation.coefficients) == (39, 53)

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
            assert evaluate(system, representation.coefficients) == vector

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
