import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affsemi import (
    ConditionsUnmetError,
    NotFullLatticeError,
    beyond_frobenius,
    build_chain,
    conductor_set,
    decide_conditions,
    diophantine_solve,
    frobenius_number_dp,
    frobenius_subset,
    frobenius_vector,
    gaps,
    membership_bruteforce,
    membership_fast,
    minimal_cone_points,
    random_conditioned_system,
    validate_conditions,
)
from affsemi.errors import SearchBudgetExceededError
from affsemi.frobenius import (
    CONDITIONS_UNMET,
    DiophantineAnswer,
    LATTICE_INFEASIBLE,
    NO_SOLUTION,
    SOLVABLE_BY_CONE,
    SOLVABLE_WITH_WITNESS,
    _least_multiple_in_range,
    _parallelepiped_coordinates,
    _pareto_skyline,
    _staircase_sweep,
    _staircase_walk,
    apery_set,
    frobenius_formula,
    in_closed_cone,
    numerical_gaps,
)
from affsemi import frobenius
from affsemi.exactlinalg import (
    IntMatrix,
    adjugate,
    cramer_numerators,
    determinant,
    lattice_basis,
    solve_lower_triangular,
)
from affsemi.oracle import numerical_gaps_dp
from affsemi.lattice import GeneratorSystem, add, scale, sub
from tests.conftest import analyzed, make_system, random_system


class TestFrobeniusVector:
    def test_numerical(self, numerical_example):
        system, chain, report = numerical_example
        assert frobenius_vector(system, chain, report).vector == (9,)

    def test_axes(self, axes_example):
        system, chain, report = axes_example
        assert frobenius_vector(system, chain, report).vector == (10, 6)

    def test_skew(self, skew_example):
        system, chain, report = skew_example
        assert frobenius_vector(system, chain, report).vector == (39, 53)

    def test_unimodular(self, unimodular_example):
        system, chain, report = unimodular_example
        assert frobenius_vector(system, chain, report).vector == (2, 1)

    def test_formula_identity(self, skew_example):
        system, chain, report = skew_example
        expected = (0, 0)
        for k, extra in enumerate(system.extras()):
            expected = add(expected, scale(extra, chain.indices[k] - 1))
        for v in system.leading():
            expected = sub(expected, v)
        assert frobenius_vector(system, chain, report).vector == expected

    def test_vector_outside_semigroup_both_paths(self, unimodular_example):
        system, chain, report = unimodular_example
        g = frobenius_vector(system, chain, report).vector
        assert not membership_fast(system, chain, g, report).in_semigroup
        assert membership_bruteforce(system.generators, g) is None

    def test_requires_conditions(self):
        system, chain, report = analyzed([(8,), (10,), (11,)])
        with pytest.raises(ConditionsUnmetError):
            frobenius_vector(system, chain, report)


class TestFrobeniusSubset:
    def test_degenerate_numerical(self):
        system = make_system([(4,), (6,), (7,), (9,)])
        report = frobenius_subset(system, build_chain(system))
        assert report.vector == (9,)
        assert report.threshold_only
        assert report.used_subset == (1, 2)
        assert frobenius_number_dp([4, 6, 7, 9]) == 5

    def test_threshold_really_covers(self):
        system = make_system([(4,), (6,), (7,), (9,)])
        report = frobenius_subset(system, build_chain(system))
        threshold = report.vector[0]
        for value in range(threshold + 1, threshold + 40):
            assert membership_bruteforce([(4,), (6,), (7,), (9,)], (value,))

    def test_identity_when_conditions_hold(self, skew_example):
        system, chain, report = skew_example
        expected = frobenius_vector(system, chain, report)
        assert frobenius_subset(system, chain) == expected

    def test_redundant_generator_in_middle(self):
        # 8 sits in the group of (4, 6) and is skipped wherever it appears.
        system = make_system([(4,), (6,), (8,), (7,)])
        report = frobenius_subset(system, build_chain(system))
        assert report.used_subset == (1, 3)
        assert report.vector == (9,)

    def test_decides_without_search(self, monkeypatch):
        import affsemi.semigroup

        def no_search(*args, **kwargs):
            raise AssertionError("the witness search ran")

        monkeypatch.setattr(affsemi.semigroup, "membership_bruteforce", no_search)
        monkeypatch.setattr(frobenius, "membership_bruteforce", no_search)
        system = make_system([(4,), (6,), (7,), (9,)])
        assert frobenius_subset(system, build_chain(system)).vector == (9,)
        system = make_system([(8,), (10,), (11,)])
        with pytest.raises(ConditionsUnmetError):
            frobenius_subset(system, build_chain(system))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 4))
    def test_matches_the_prefix_loop(self, seed, e, extras):
        system = random_system(random.Random(seed), e, extras, max_entry=8)
        try:
            expected = prefix_loop_subset(system)
        except ConditionsUnmetError:
            with pytest.raises(ConditionsUnmetError):
                frobenius_subset(system, build_chain(system))
            return
        assert frobenius_subset(system, build_chain(system)) == expected


def prefix_loop_subset(system):
    """Reference: re-reduce the growing prefix of kept generators and keep
    an extra generator exactly when it leaves that prefix's group.  A
    threshold from a proper subset carries no conductor."""
    kept = []
    current = list(system.leading())
    for k, extra in enumerate(system.extras(), start=1):
        if solve_lower_triangular(lattice_basis(current), extra) is None:
            kept.append(k)
            current.append(extra)
    subsystem = GeneratorSystem(system.ambient_dim, tuple(current))
    chain = build_chain(subsystem)
    report = validate_conditions(subsystem, chain)
    if not report.all_hold:
        raise ConditionsUnmetError("the filtered subset fails", report=report)
    base = frobenius_vector(subsystem, chain, report)
    if len(kept) == system.extra_count:
        return base
    return replace(
        base, conductor=None, threshold_only=True, used_subset=tuple(kept)
    )


def cramer_in_closed_cone(system, vector):
    """Reference: the closed-cone test by Cramer's rule."""
    leading = system.leading_matrix()
    det = determinant(leading)
    return all(n * det >= 0 for n in cramer_numerators(leading, vector))


def cramer_beyond_frobenius(system, g, vector):
    """Reference: the open-cone test of vector - g by Cramer's rule."""
    difference = sub(vector, g)
    if not any(difference):
        return False
    leading = system.leading_matrix()
    det = determinant(leading)
    return all(n * det > 0 for n in cramer_numerators(leading, difference))


class TestBeyondFrobenius:
    def test_boundary_cell_excluded(self, axes_example):
        system, _, _ = axes_example
        assert not beyond_frobenius(system, (10, 6), (10, 14))

    def test_origin_excluded(self, axes_example):
        system, _, _ = axes_example
        assert not beyond_frobenius(system, (10, 6), (10, 6))

    def test_interior_point(self, skew_example):
        system, _, _ = skew_example
        g = (39, 53)
        inside = add(add(g, system.generators[0]), system.generators[1])
        assert beyond_frobenius(system, g, inside)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 2))
    def test_cone_tests_match_cramer_references(self, seed, e, extras):
        rng = random.Random(seed)
        system = random_system(rng, e, extras)
        g = tuple(rng.randint(-10, 10) for _ in range(e))
        for _ in range(20):
            if rng.random() < 0.5:
                vector = tuple(rng.randint(-30, 30) for _ in range(e))
            else:
                # g plus a combination of the leading generators with some
                # zero coefficients: on a face of the cone at g, or inside.
                vector = g
                for v in system.leading():
                    vector = add(vector, scale(v, rng.choice([0, 0, 1, 2])))
            assert in_closed_cone(system, vector) == cramer_in_closed_cone(
                system, vector
            )
            assert beyond_frobenius(system, g, vector) == cramer_beyond_frobenius(
                system, g, vector
            )


class TestConductor:
    def test_skew_conductor(self, skew_example):
        system, chain, _ = skew_example
        assert conductor_set(system, chain, (39, 53)) == ((40, 54),)

    def test_unimodular_conductor(self, unimodular_example):
        system, chain, _ = unimodular_example
        assert conductor_set(system, chain, (2, 1)) == ((3, 2), (3, 3))

    def test_numerical_conductor(self, numerical_example):
        system, chain, _ = numerical_example
        assert conductor_set(system, chain, (9,)) == ((10,),)

    def test_requires_full_lattice(self, axes_example):
        system, chain, _ = axes_example
        with pytest.raises(NotFullLatticeError):
            conductor_set(system, chain, (10, 6))

    def test_minimal_points_are_incomparable(self, unimodular_example):
        system, _, _ = unimodular_example
        points = minimal_cone_points(system)
        assert points == ((1, 1), (1, 2))
        for u in points:
            for w in points:
                if u != w:
                    assert not in_closed_cone(system, sub(u, w))

    def test_single_minimal_point_for_skew_cone(self, skew_example):
        system, _, _ = skew_example
        assert minimal_cone_points(system) == ((1, 1),)

    def test_skewed_unimodular_cone_is_enumerated(self):
        # |det| = 1 but a bounding box of 2000 x 1998 points: the one point
        # of the parallelepiped is v_1 + v_2, so the conductor is the origin.
        system, chain, report = analyzed([(1000, 999), (999, 998)])
        assert minimal_cone_points(system) == ((1999, 1997),)
        assert frobenius_vector(system, chain, report).conductor == ((0, 0),)

    def test_cap_is_keyed_on_the_determinant(self, monkeypatch):
        # |det| = 24 for the leading block, whose bounding box has 110
        # points; (1, 1) completes a basis of Z^2.
        system, chain, report = analyzed([(4, 6), (6, 3), (1, 1)])
        assert abs(system.det) == 24 and chain.minor_gcds[-1] == 1
        monkeypatch.setattr(frobenius, "CONDUCTOR_ENUMERATION_LIMIT", 24)
        assert minimal_cone_points(system) == ((1, 1),)
        assert frobenius_vector(system, chain, report).conductor is not None
        monkeypatch.setattr(frobenius, "CONDUCTOR_ENUMERATION_LIMIT", 23)
        with pytest.raises(ValueError):
            minimal_cone_points(system)
        assert frobenius_vector(system, chain, report).conductor is None


def box_scan_minimal_points(system):
    """Reference enumeration: every point of the parallelepiped's bounding box
    by Cramer's rule, then a pairwise closed-cone domination test."""
    e = system.ambient_dim
    leading = system.leading_matrix()
    det = determinant(leading)
    sign = 1 if det > 0 else -1
    bound = abs(det)
    upper = [sum(v[j] for v in system.leading()) for j in range(e)]
    candidates = []
    for point in itertools.product(*(range(u + 1) for u in upper)):
        nums = cramer_numerators(leading, point)
        if all(0 < n * sign <= bound for n in nums):
            candidates.append(point)
    minimal = []
    for u in candidates:
        if not any(w != u and in_closed_cone(system, sub(u, w)) for w in candidates):
            minimal.append(u)
    return tuple(sorted(minimal))


@st.composite
def leading_blocks(draw):
    """Nonsingular e = 2 or e = 3 blocks; a common factor f > 1 puts f on
    every entry of the Hermite diagonal, and a swap flips the sign of det."""
    e = draw(st.sampled_from([2, 3]))
    top = 7 if e == 2 else 3
    factor = draw(st.sampled_from([1, 1, 2, 3]))
    columns = [
        tuple(factor * draw(st.integers(0, top)) for _ in range(e)) for _ in range(e)
    ]
    if draw(st.booleans()):
        columns[0], columns[1] = columns[1], columns[0]
    return columns


class TestMinimalConePointsEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(leading_blocks())
    @example([(2, 0), (0, 2)])
    @example([(0, 2), (2, 0)])
    @example([(2, 4), (4, 2)])
    @example([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    @example([(0, 3, 1), (3, 1, 0), (1, 0, 3)])
    def test_matches_the_box_scan(self, columns):
        det = determinant(IntMatrix.from_columns(columns))
        assume(0 < abs(det) <= 120)
        system = GeneratorSystem(len(columns), tuple(columns))
        assert minimal_cone_points(system) == box_scan_minimal_points(system)

    def test_large_determinant(self):
        system = GeneratorSystem(2, ((317, 1), (1, 317)))
        det = determinant(system.leading_matrix())
        assert det == 100488
        adj = adjugate(system.leading_matrix()).rows
        points = minimal_cone_points(system)
        coordinates = [
            tuple(sum(a * x for a, x in zip(row, u)) for row in adj) for u in points
        ]
        assert all(0 < c <= det for cs in coordinates for c in cs)
        # Pairwise incomparable pairs: sorted by the first coordinate, the
        # first strictly rises and the second strictly falls.
        ordered = sorted(coordinates)
        for (a1, a2), (b1, b2) in zip(ordered, ordered[1:]):
            assert a1 < b1 and a2 > b2
        every = _parallelepiped_coordinates(system)
        assert len(set(every)) == det
        assert set(_pareto_skyline(every)) == set(coordinates)


def _nonsingular(columns):
    det = determinant(IntMatrix.from_columns(columns))
    assume(det != 0)
    return GeneratorSystem(len(columns), tuple(columns)), abs(det)


@st.composite
def scaled_blocks(draw, e, top):
    """e x e blocks with entries up to about ``top``, a common factor that
    puts itself on the Hermite diagonal, and either sign of det."""
    factor = draw(st.sampled_from([1, 1, 2, 3, 6]))
    columns = [
        tuple(factor * draw(st.integers(0, top // factor)) for _ in range(e))
        for _ in range(e)
    ]
    if draw(st.booleans()):
        columns[0], columns[1] = columns[1], columns[0]
    return columns


class TestStaircases:
    """The e = 2 walk and the e = 3 sweep against the skyline over the whole
    parallelepiped, and the walk's Euclid step against a scan."""

    @settings(max_examples=60, deadline=None)
    @given(scaled_blocks(2, 100))
    @example([(2, 0), (0, 2)])
    @example([(6, 0), (0, 6)])
    @example([(1, 0), (0, 1)])
    @example([(0, 1), (1, 0)])
    @example([(100, 1), (1, 100)])
    @example([(6, 12), (12, 6)])
    def test_walk_matches_the_skyline(self, columns):
        system, det = _nonsingular(columns)
        assume(det <= 10_000)
        expected = _pareto_skyline(_parallelepiped_coordinates(system))
        assert sorted(_staircase_walk(system)) == sorted(expected)

    @settings(max_examples=60, deadline=None)
    @given(scaled_blocks(3, 12))
    @example([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    @example([(0, 3, 1), (3, 1, 0), (1, 0, 3)])
    @example([(6, 0, 6), (0, 6, 0), (6, 6, 0)])
    def test_sweep_matches_the_skyline(self, columns):
        system, det = _nonsingular(columns)
        assume(det <= 3_000)
        every = _parallelepiped_coordinates(system)
        assert sorted(_staircase_sweep(every)) == sorted(_pareto_skyline(every))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 400))
    def test_euclid_step_matches_a_scan(self, data, m):
        a = data.draw(st.integers(0, m - 1))
        low = data.draw(st.integers(1, m - 1))
        high = data.draw(st.integers(low, m - 1))
        scan = next((k for k in range(1, m + 1) if low <= a * k % m <= high), None)
        assert _least_multiple_in_range(a, m, low, high) == scan


class TestSylvesterAndGaps:
    def test_matches_two_generator_formula(self, numerical_example):
        rng = random.Random(31)
        import math

        for _ in range(30):
            a = rng.randint(2, 40)
            b = rng.randint(2, 40)
            if math.gcd(a, b) != 1 or a == b:
                continue
            system, chain, report = analyzed([(min(a, b),), (max(a, b),)])
            assert frobenius_vector(system, chain, report).vector == (
                frobenius_number_dp([a, b]),
            )

    def test_gap_lists(self):
        for vectors, expected in [
            ([(4,), (6,), (7,)], (1, 2, 3, 5, 9)),
            ([(2,), (3,)], (1,)),
            ([(4,), (6,), (13,)], (1, 2, 3, 5, 7, 9, 11, 15)),
        ]:
            system, chain, _ = analyzed(vectors)
            assert gaps(system, chain) == expected

    def test_gap_count_is_half_conductor(self, numerical_example):
        system, chain, _ = numerical_example
        gap_list = gaps(system, chain)
        conductor = max(gap_list) + 1
        assert len(gap_list) * 2 == conductor

    def test_gaps_without_conditions(self):
        # The gap list does not depend on the chain conditions.
        system, chain, _ = analyzed([(8,), (10,), (11,)])
        gap_list = gaps(system, chain)
        assert max(gap_list) == frobenius_number_dp([8, 10, 11]) == 25

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(2, 30), min_size=2, max_size=5))
    def test_gaps_match_oracle_sieve(self, values):
        # Covers systems whose chain conditions fail as well as hold.
        assume(math.gcd(*values) == 1)
        system, chain, _ = analyzed([(v,) for v in values])
        assert gaps(system, chain) == numerical_gaps_dp(values)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=4),
        st.integers(1, 4),
    )
    def test_apery_membership_matches_bruteforce(self, values, factor):
        values = [factor * v for v in values]
        table = apery_set(values)
        assert len(table) == min(values)
        for n in range(4 * max(values)):
            floor = table[n % len(table)]
            member = floor is not None and floor <= n
            found = membership_bruteforce([(v,) for v in values], (n,))
            assert member == (found is not None), (values, n)

    def test_apery_set_marks_unmet_classes(self):
        assert apery_set([4, 6]) == (0, None, 6, None)
        assert apery_set([7, 4]) == (0, 21, 14, 7)
        with pytest.raises(ValueError):
            apery_set([4, 0])

    def test_gaps_need_full_lattice(self):
        system, chain, _ = analyzed([(4,), (6,)])
        with pytest.raises(ValueError):
            gaps(system, chain)

    def test_numerical_gaps_from_plain_values(self):
        assert numerical_gaps([5, 3]) == (1, 2, 4, 7)
        assert numerical_gaps([1]) == ()
        with pytest.raises(ValueError):
            numerical_gaps([4, 6])

    def test_formula_matches_sieve_on_random_numerical_systems(self):
        from affsemi import random_conditioned_system

        rng = random.Random(61)
        for _ in range(15):
            system, chain, report = random_conditioned_system(
                rng, 1, rng.choice([1, 2]), max_entry=18
            )
            if chain.minor_gcds[-1] != 1:
                continue
            g = frobenius_vector(system, chain, report).vector[0]
            assert g == frobenius_number_dp(
                [v[0] for v in system.generators]
            ), system.generators


class TestDiophantine:
    def test_deep_cone_target(self, numerical_example):
        system, _, _ = numerical_example
        answer = diophantine_solve(system, (100,))
        assert answer.status == SOLVABLE_BY_CONE
        total = sum(c * g[0] for c, g in zip(answer.witness, system.generators))
        assert total == 100
        assert all(c >= 0 for c in answer.witness)

    def test_unreachable_group_point(self):
        system = make_system([(8,), (10,)])
        assert diophantine_solve(system, (22,)).status == NO_SOLUTION

    def test_gap_below_frobenius(self, numerical_example):
        system, _, _ = numerical_example
        assert diophantine_solve(system, (9,)).status == NO_SOLUTION

    def test_lattice_infeasible(self):
        system = make_system([(8,), (10,)])
        assert diophantine_solve(system, (21,)).status == LATTICE_INFEASIBLE

    def test_small_member_without_cone_certificate(self, numerical_example):
        system, _, _ = numerical_example
        answer = diophantine_solve(system, (8,))
        assert answer.status == SOLVABLE_WITH_WITNESS
        assert answer.witness == (2, 0, 0)

    def test_negative_target_rejected(self, axes_example):
        system, _, _ = axes_example
        with pytest.raises(ValueError):
            diophantine_solve(system, (3, -1))

    def test_planar_boundary_membership(self, axes_example):
        system, _, _ = axes_example
        assert diophantine_solve(system, (10, 14)).status == NO_SOLUTION
        answer = diophantine_solve(system, (24, 16))
        assert answer.status in (SOLVABLE_BY_CONE, SOLVABLE_WITH_WITNESS)
        total = (0, 0)
        for c, g in zip(answer.witness, system.generators):
            total = add(total, scale(g, c))
        assert total == (24, 16)


def diophantine_solve_search_first(system, goal, budget):
    """Reference: the bounded search runs before the sign criterion, which
    only settles the targets whose search ran out of budget.  The
    conditions are decided without search, so no budget changes them."""
    chain = build_chain(system)
    conditions = decide_conditions(system, chain)
    if not chain.contains(goal, chain.level_count):
        return DiophantineAnswer(LATTICE_INFEASIBLE)
    if conditions.all_hold:
        g = frobenius_formula(system, chain)
        if beyond_frobenius(system, g, goal):
            result = membership_fast(system, chain, goal, conditions)
            return DiophantineAnswer(SOLVABLE_BY_CONE, result.representation.coefficients)
        try:
            witness = membership_bruteforce(system.generators, goal, budget)
        except SearchBudgetExceededError:
            result = membership_fast(system, chain, goal, conditions)
            if result.in_semigroup:
                return DiophantineAnswer(
                    SOLVABLE_WITH_WITNESS, result.representation.coefficients
                )
            return DiophantineAnswer(NO_SOLUTION)
        if witness is not None:
            return DiophantineAnswer(SOLVABLE_WITH_WITNESS, witness)
        return DiophantineAnswer(NO_SOLUTION)
    try:
        witness = membership_bruteforce(system.generators, goal, budget)
    except SearchBudgetExceededError:
        return DiophantineAnswer(CONDITIONS_UNMET)
    if witness is not None:
        return DiophantineAnswer(SOLVABLE_WITH_WITNESS, witness)
    return DiophantineAnswer(NO_SOLUTION)


class TestPreparedCache:
    """diophantine_solve prepares each system once, whatever the budget."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"build_chain": 0, "decide_conditions": 0}
        for name in calls:
            original = getattr(frobenius, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(frobenius, name, counting)
        return calls

    def test_one_preparation_per_system(self, counted):
        system = make_system([(4,), (6,), (7,)])
        answers = [diophantine_solve(system, (t,)) for t in range(50)]
        assert counted == {"build_chain": 1, "decide_conditions": 1}
        equal = make_system([(4,), (6,), (7,)])
        assert equal is not system
        assert [diophantine_solve(equal, (t,)) for t in range(50)] == answers
        assert counted == {"build_chain": 1, "decide_conditions": 1}

    def test_budget_is_not_part_of_the_key(self, counted):
        system = make_system([(4,), (6,), (7,)])
        assert diophantine_solve(system, (17,)).status == SOLVABLE_BY_CONE
        # The conditions are decided without search, so budget 0 leaves
        # them holding and shares the default budget's preparation.
        assert diophantine_solve(system, (17,), 0).status == SOLVABLE_BY_CONE
        assert diophantine_solve(system, (17,)).status == SOLVABLE_BY_CONE
        assert counted == {"build_chain": 1, "decide_conditions": 1}


class TestDecideBeforeSearch:
    BUDGETS = (0, 1, 5, 50, 10**6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 2), st.booleans())
    def test_answers_match_the_search_first_order(self, seed, e, extras, conditioned):
        rng = random.Random(seed)
        if conditioned:
            system, _, _ = random_conditioned_system(rng, e, extras, max_entry=8)
        else:
            system = random_system(rng, e, extras, max_entry=8)
        top = [2 * sum(v[j] for v in system.generators) for j in range(e)]
        for _ in range(6):
            goal = tuple(rng.randint(0, t) for t in top)
            for budget in self.BUDGETS:
                assert diophantine_solve(system, goal, budget) == (
                    diophantine_solve_search_first(system, goal, budget)
                ), (system.generators, goal, budget)

    def test_non_member_needs_no_search(self, numerical_example, monkeypatch):
        import affsemi.frobenius

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran for a non-member")

        system, _, _ = numerical_example
        monkeypatch.setattr(affsemi.frobenius, "membership_bruteforce", no_search)
        for gap in (1, 2, 3, 5, 9):
            assert diophantine_solve(system, (gap,)).status == NO_SOLUTION
