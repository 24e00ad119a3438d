import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsemi import (
    NotFullLatticeError,
    SearchBudgetExceededError,
    fast_membership_grid,
    frobenius_number_dp,
    frobenius_vector,
    membership_bruteforce,
    membership_fast,
    numerical_gaps_dp,
    random_conditioned_system,
    reachable_grid,
    verify_conductor,
    verify_theorem1,
)
from affsemi.frobenius import conductor_set, frobenius_formula
from affsemi.lattice import add, scale, sub
from affsemi.oracle import (
    MAX_GRID_CELLS,
    _box_points,
    _close_under_generators,
    _coprime_values,
    _cone_map,
    _cone_numerators,
    searched_conditions,
)
from tests.conftest import analyzed, make_system

#: A four-dimensional system: 2 times the standard basis plus (1, 1, 1, 1).
FOUR_DIM = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 1, 1)]


def semigroup_points(system, upper):
    """The members of the semigroup in [0, upper], from ``reachable_grid``."""
    grid = reachable_grid(system, upper)
    return {tuple(int(x) for x in row) for row in np.argwhere(grid)}


class TestEnumerate:
    def test_numerical_box(self, numerical_example):
        system, _, _ = numerical_example
        got = semigroup_points(system, (12,))
        assert got == {(0,), (4,), (6,), (7,), (8,), (10,), (11,), (12,)}

    def test_unimodular_contains_generator_sums(self, unimodular_example):
        system, _, _ = unimodular_example
        got = semigroup_points(system, (4, 4))
        assert (2, 4) in got  # v1 + v3
        assert (4, 3) in got  # v2 + v3
        assert (0, 0) in got
        assert (2, 1) not in got

    def test_monotone_under_box_growth(self, numerical_example):
        system, _, _ = numerical_example
        small = semigroup_points(system, (15,))
        large = semigroup_points(system, (30,))
        assert small <= large

    def test_agrees_with_bruteforce_pointwise(self):
        for vectors in ([(4,), (6,), (7,)], [(2, 1), (1, 2), (2, 2)]):
            system, _, _ = analyzed(vectors)
            e = system.ambient_dim
            top = 18 if e == 1 else 9
            enumerated = semigroup_points(system, (top,) * e)
            for point in itertools.product(range(top + 1), repeat=e):
                brute = membership_bruteforce(system.generators, point)
                assert (point in enumerated) == (brute is not None), point

    def test_four_dimensional_grid_matches_bruteforce(self):
        system = make_system(FOUR_DIM)
        got = semigroup_points(system, (3, 3, 3, 3))
        for point in itertools.product(range(4), repeat=4):
            brute = membership_bruteforce(system.generators, point)
            assert (point in got) == (brute is not None), point


class TestNumericalSieve:
    def test_degenerate_system(self):
        assert frobenius_number_dp([4, 6, 7, 9]) == 5

    def test_smallest(self):
        assert frobenius_number_dp([2, 3]) == 1

    def test_no_scaled_membership_example(self):
        # Only reachable values below 26: 8,10,11,16,18..22,24; so 25 is the
        # largest gap (26..33 are eight consecutive members).
        assert frobenius_number_dp([8, 10, 11]) == 25
        assert 27 == 8 + 8 + 11

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            frobenius_number_dp([4, 6])

    def test_gap_list_matches_enumeration(self):
        gaps = numerical_gaps_dp([4, 6, 7])
        assert gaps == (1, 2, 3, 5, 9)

    def test_sylvester_cross_check(self):
        import math

        rng = random.Random(13)
        for _ in range(40):
            a, b = rng.randint(2, 60), rng.randint(2, 60)
            if math.gcd(a, b) != 1:
                continue
            assert frobenius_number_dp([a, b]) == (a - 1) * (b - 1) - 1


class TestVerifyTheorem:
    def test_numerical_holds(self, numerical_example):
        system, chain, report = numerical_example
        g = frobenius_vector(system, chain, report).vector
        check = verify_theorem1(system, chain, g, margin=3)
        assert check.holds and check.counterexample is None

    def test_unimodular_holds(self, unimodular_example):
        system, chain, report = unimodular_example
        g = frobenius_vector(system, chain, report).vector
        assert verify_theorem1(system, chain, g, margin=3).holds

    def test_axes_holds(self, axes_example):
        system, chain, report = axes_example
        g = frobenius_vector(system, chain, report).vector
        assert verify_theorem1(system, chain, g, margin=3).holds

    def test_every_group_point_beyond_is_reachable_by_search(
        self, unimodular_example
    ):
        from affsemi import beyond_frobenius

        # Literal witness-search leg of the guarantee on a small box.
        system, chain, report = unimodular_example
        g = frobenius_vector(system, chain, report).vector
        for point in itertools.product(range(9), repeat=2):
            if beyond_frobenius(system, g, point) and chain.contains(point, 1):
                assert membership_bruteforce(system.generators, point), point

    def test_invalid_formula_value_is_flagged(self):
        # Without the scaled-membership condition the closed form gives 33,
        # which is 3*11 and therefore inside the semigroup: the first claim
        # already fails.
        system, chain, _ = analyzed([(8,), (10,), (11,)])
        check = verify_theorem1(system, chain, (33,), margin=3)
        assert not check.holds
        assert check.counterexample == (33,)

    def test_scalar_and_vector_paths_agree(self, unimodular_example):
        import affsemi.oracle as oracle_module

        for system, chain, report in (unimodular_example, analyzed(FOUR_DIM)):
            g = frobenius_vector(system, chain, report).vector
            fast = verify_theorem1(system, chain, g, margin=2)
            # Degrade to the scalar sweep by pretending int64 is unsafe.
            original = oracle_module._int64_safe
            oracle_module._int64_safe = lambda *a: False
            try:
                slow = verify_theorem1(system, chain, g, margin=2)
            finally:
                oracle_module._int64_safe = original
            assert fast == slow, system.generators

    def test_four_dimensional_sweep_is_vectorised(self, monkeypatch):
        import affsemi.oracle as oracle_module

        def scalar_loop(*args):
            raise AssertionError("the scalar box loop ran")

        monkeypatch.setattr(oracle_module, "_iterate_box", scalar_loop)
        system, chain, report = analyzed(FOUR_DIM)
        g = frobenius_vector(system, chain, report).vector
        assert verify_theorem1(system, chain, g, margin=3).holds


class TestVerifyConductor:
    def test_unimodular_cover(self, unimodular_example):
        system, chain, report = unimodular_example
        conductor = frobenius_vector(system, chain, report).conductor
        assert conductor == ((3, 2), (3, 3))
        assert verify_conductor(system, chain, conductor, margin=4)

    def test_skew_cover(self, skew_example):
        system, chain, report = skew_example
        conductor = frobenius_vector(system, chain, report).conductor
        assert conductor == ((40, 54),)
        assert verify_conductor(system, chain, conductor, margin=3)

    def test_numerical_cover(self, numerical_example):
        system, chain, report = numerical_example
        conductor = frobenius_vector(system, chain, report).conductor
        assert conductor == ((10,),)
        assert verify_conductor(system, chain, conductor, margin=3)

    def test_wrong_conductor_detected(self, unimodular_example):
        system, chain, _ = unimodular_example
        # (3,3) alone misses lattice points only covered through (3,2).
        assert not verify_conductor(system, chain, [(3, 3)], margin=3)

    def test_offsets_past_int64(self):
        # g = (1 - 10^19, -2), so the offset of the conductor point (0, 0)
        # passes int64 while its cone numerators are (1, 1).
        system, chain, report = analyzed([(5 * 10**18, 1), (5 * 10**18 - 1, 1)])
        conductor = frobenius_vector(system, chain, report).conductor
        assert conductor == ((0, 0),)
        assert verify_conductor(system, chain, conductor, margin=0)

    def test_exact_numerators_give_the_same_verdicts(
        self, monkeypatch, unimodular_example
    ):
        system, chain, _ = unimodular_example
        monkeypatch.setattr("affsemi.oracle._INT64_SAFE", 0)
        assert verify_conductor(system, chain, [(3, 2), (3, 3)], margin=4)
        assert not verify_conductor(system, chain, [(3, 3)], margin=3)

    def test_far_negative_point_is_not_a_member(self):
        # The membership grid spans [0, max of the conductor points], so a
        # point far below the origin is refused, not turned into a bound.
        system, chain, _ = analyzed([(2, 1), (1, 2), (1, 1)])
        for margin in (0, 3):
            assert not verify_conductor(system, chain, [(-100, 3)], margin)

    def test_requires_full_lattice(self, axes_example):
        system, chain, _ = axes_example
        with pytest.raises(NotFullLatticeError):
            verify_conductor(system, chain, [(11, 7)], margin=2)

    def test_offsets_in_several_chunks(self, monkeypatch, unimodular_example):
        # Translates of the conductor points by the semigroup add offsets
        # without changing the cover.  The smallest byte cap that the
        # margin-3 box (13 x 16 cells, e = 2) passes leaves room for 56
        # offsets a chunk, fewer than the 82 here.
        system, chain, _ = unimodular_example
        a, b = (3, 2), (3, 3)
        translates = [add(a, scale((1, 3), k)) for k in range(1, 41)]
        translates += [add(b, scale((3, 2), k)) for k in range(1, 41)]
        monkeypatch.setattr("affsemi.oracle.MAX_SWEEP_BYTES", 13 * 16 * 7 * 8 * 2)
        for variant, verdict in [
            ([a, b] + translates, True),
            ([b] + translates, False),
            (translates + [a, b], True),
        ]:
            assert len(variant) > 56
            assert verify_conductor(system, chain, variant, margin=3) is verdict
            assert verify_conductor_pointwise(system, chain, variant, margin=3) is verdict


class TestSharedGrid:
    """``reachable_grid`` keeps its last grid, so ``verify_theorem1`` and
    ``verify_conductor`` of one system close the generators once."""

    @pytest.fixture
    def closures(self, monkeypatch):
        import affsemi.oracle as oracle_module

        calls = []

        def counted(grid, generators, upper):
            calls.append(tuple(generators))
            _close_under_generators(grid, generators, upper)

        monkeypatch.setattr(oracle_module, "_last_grid", None)
        monkeypatch.setattr(oracle_module, "_close_under_generators", counted)
        return calls

    def test_the_pair_closes_each_generator_set_once(
        self, closures, unimodular_example, skew_example
    ):
        for example in (unimodular_example, skew_example):
            system, chain, report = example
            frob = frobenius_vector(system, chain, report)
            # The larger margin first: its grid covers the smaller boxes.
            for margin in (3, 1):
                assert verify_theorem1(system, chain, frob.vector, margin).holds
                assert verify_conductor(system, chain, frob.conductor, margin)
        assert closures == [
            unimodular_example[0].generators, skew_example[0].generators
        ]

    def test_a_covered_box_gets_a_read_only_restriction(self, closures):
        system, _, _ = analyzed([(2, 1), (1, 2), (1, 1)])
        large = reachable_grid(system, (9, 7))
        small = reachable_grid(system, (4, 6))
        assert len(closures) == 1
        assert not large.flags.writeable and not small.flags.writeable
        expected = np.zeros((5, 7), dtype=bool)
        expected[0, 0] = True
        _close_under_generators(expected, system.generators, (4, 6))
        assert np.array_equal(small, expected)
        reachable_grid(system, (10, 7))
        assert len(closures) == 2


class TestSweepCap:
    """A sweep box whose arrays would pass MAX_SWEEP_BYTES is refused before
    anything is allocated; these inputs exercise only the refusal."""

    def test_theorem_box_of_a_lone_huge_generator(self):
        system, chain, _ = analyzed([(10**19,)])
        g = frobenius_formula(system, chain)
        with pytest.raises(ValueError, match="verification box"):
            verify_theorem1(system, chain, g, margin=1)

    def test_conductor_box_of_a_huge_pair(self):
        system, chain, _ = analyzed([(10**19,), (10**19 + 1,)])
        g = frobenius_formula(system, chain)
        with pytest.raises(ValueError, match="verification box"):
            verify_conductor(system, chain, [(g[0] + 1,)], margin=1)

    def test_box_under_the_cell_cap_but_over_the_byte_cap(self):
        # 201^3 cells: a tenth of MAX_GRID_CELLS, but about 1.3 GB of int64
        # sweep arrays.
        system, chain, _ = analyzed([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        g = frobenius_formula(system, chain)
        assert 201**3 < MAX_GRID_CELLS
        with pytest.raises(ValueError, match="verification box of 8120601 cells"):
            verify_theorem1(system, chain, g, margin=200)
        with pytest.raises(ValueError, match="verification box of 8120601 cells"):
            verify_conductor(system, chain, [(0, 0, 0)], margin=200)


class TestFastMembershipGrid:
    def test_equals_scalar_on_random_systems(self):
        rng = random.Random(51)
        for _ in range(6):
            system, chain, report = random_conditioned_system(
                rng, rng.choice([1, 2]), rng.choice([1, 2]), max_entry=7
            )
            e = system.ambient_dim
            upper = (17,) * e
            grid = fast_membership_grid(system, chain, upper, report)
            for _ in range(60):
                point = tuple(rng.randint(0, 17) for _ in range(e))
                scalar = membership_fast(system, chain, point, report).in_semigroup
                assert bool(grid[point]) == scalar, point

    def test_equals_reachability_grid(self):
        rng = random.Random(52)
        for _ in range(6):
            system, chain, report = random_conditioned_system(
                rng, rng.choice([1, 2, 3]), rng.choice([1, 2]), max_entry=6
            )
            e = system.ambient_dim
            upper = tuple(
                3 * sum(v[j] for v in system.generators) for j in range(e)
            )
            fast = fast_membership_grid(system, chain, upper, report)
            dp = reachable_grid(system, upper)
            assert np.array_equal(fast, dp)

    def test_refuses_when_int64_is_unsafe(self, unimodular_example, monkeypatch):
        import affsemi.oracle as oracle_module

        system, chain, report = unimodular_example
        monkeypatch.setattr(oracle_module, "_int64_safe", lambda *a: False)
        with pytest.raises(ValueError, match="too large for the vectorised sweep"):
            fast_membership_grid(system, chain, (4, 4), report)


class TestRandomSystems:
    def test_generator_produces_valid_instances(self):
        rng = random.Random(77)
        for dim, extras in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
            system, chain, report = random_conditioned_system(rng, dim, extras)
            assert system.ambient_dim == dim
            assert system.extra_count == extras
            assert report.all_hold
            assert all(
                chain.minor_gcds[k] < chain.minor_gcds[k - 1]
                for k in range(1, len(chain.minor_gcds))
            )
            assert all(
                all(0 <= x <= 20 for x in v) for v in system.generators
            )

    def test_searched_conditions_stop_at_the_first_failure(self):
        system, chain, _ = analyzed([(8,), (10,), (11,), (13,)])
        report = searched_conditions(system, chain)
        assert report.strict_chain_violation == 3
        assert [(c.level, c.holds) for c in report.scaled] == [(1, True), (2, False)]
        assert report.scaled[0].witness == (5,)
        with pytest.raises(SearchBudgetExceededError):
            searched_conditions(system, chain, 0)


def numerical_gaps_by_scan(generators):
    """Reference: the same self-extending sieve filled one integer at a
    time."""
    values = _coprime_values(generators)
    smallest = values[0]
    if smallest == 1:
        return ()
    limit = values[-1] * smallest + 1
    while True:
        table = bytearray(limit + 1)
        table[0] = 1
        for n in range(1, limit + 1):
            for v in values:
                if v <= n and table[n - v]:
                    table[n] = 1
                    break
        run = 0
        for n in range(limit + 1):
            run = run + 1 if table[n] else 0
            if run == smallest:
                first_safe = n - smallest + 1
                return tuple(m for m in range(1, first_safe) if not table[m])
        limit *= 2


def _closure_from_one(seed, system, upper):
    grid = np.zeros(tuple(u + 1 for u in upper), dtype=bool)
    if all(0 <= seed[j] <= upper[j] for j in range(len(upper))):
        grid[seed] = True
        _close_under_generators(grid, system.generators, upper)
    return grid


def verify_conductor_pointwise(system, chain, conductor, margin=3):
    """Reference: cone coordinates of every shifted box and one closure per
    conductor point."""
    if chain.minor_gcds[-1] != 1:
        raise NotFullLatticeError("needs generators spanning all of Z^e")
    e = system.ambient_dim
    conductor_points = [tuple(c) for c in conductor]
    g = frobenius_formula(system, chain)
    offsets = [sub(c, g) for c in conductor_points]
    envelope = system.leading()[0]
    for v in system.leading()[1:]:
        envelope = add(envelope, v)
    points = _box_points((0,) * e, scale(envelope, margin))
    cone_map = _cone_map(system)
    interior = np.all(_cone_numerators(cone_map, points) > 0, axis=1)
    covered = np.zeros(len(points), dtype=bool)
    for w in offsets:
        diffs = points - np.array(w, dtype=np.int64)
        covered |= np.all(_cone_numerators(cone_map, diffs) >= 0, axis=1)
    if bool(np.any(interior & ~covered)):
        return False
    total = (0,) * e
    for v in system.generators:
        total = add(total, v)
    top = tuple(
        max(c[j] for c in conductor_points) + margin * total[j] for j in range(e)
    )
    gamma = reachable_grid(system, top)
    for c in conductor_points:
        if any(x < 0 for x in c):
            return False
        if bool(np.any(_closure_from_one(c, system, top) & ~gamma)):
            return False
    return True


def conductor_variants(system, conductor, g, rng):
    """The true conductor and perturbations of it, most of them wrong."""
    e = system.ambient_dim
    unit = [tuple(int(i == j) for i in range(e)) for j in range(e)]
    pick = rng.randrange(len(conductor))
    variants = [
        list(conductor),
        [g],
        [sub(c, system.generators[0]) for c in conductor],
        list(conductor) + [tuple(-1 if j == 0 else x for j, x in enumerate(g))],
    ]
    if len(conductor) > 1:
        variants.append([c for i, c in enumerate(conductor) if i != pick])
    for u in unit:
        variants.append([sub(c, u) if i == pick else c for i, c in enumerate(conductor)])
        variants.append([add(c, u) if i == pick else c for i, c in enumerate(conductor)])
    return variants


class TestVectorisedChecksMatchReferences:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 70), min_size=1, max_size=4))
    def test_gap_sieve(self, values):
        import math

        if math.gcd(*values) != 1:
            values = values + [max(values) + 1]
        assert numerical_gaps_dp(values) == numerical_gaps_by_scan(values)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 2), st.integers(1, 3))
    def test_conductor_verdicts(self, seed, e, extras, margin):
        rng = random.Random(seed)
        while True:
            system, chain, report = random_conditioned_system(
                rng, e, extras, max_entry=5 if e == 3 else 7
            )
            if chain.minor_gcds[-1] == 1:
                break
        g = frobenius_vector(system, chain, report).vector
        conductor = conductor_set(system, chain, g)
        for variant in conductor_variants(system, conductor, g, rng):
            assert verify_conductor(system, chain, variant, margin) == (
                verify_conductor_pointwise(system, chain, variant, margin)
            ), (system.generators, variant, margin)
