import dataclasses
import itertools
import random
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsemi import (
    ConditionsUnmetError,
    SearchBudgetExceededError,
    build_chain,
    decide_conditions,
    membership_bruteforce,
    membership_fast,
    random_conditioned_system,
    validate_conditions,
)
from affsemi.exactlinalg import Vector, as_vector
from affsemi.lattice import add, scale, sub
from affsemi.oracle import searched_conditions
from tests.conftest import analyzed, random_system


def membership_bruteforce_before(
    generators: Sequence[Sequence[int]],
    target: Sequence[int],
    budget: Optional[int] = None,
) -> Optional[Vector]:
    """``membership_bruteforce`` as it was before the remainder was updated
    in place and the cut test read precomputed coordinate lists, kept
    verbatim as the reference for the property below."""
    gens = [as_vector(g) for g in generators]
    goal = as_vector(target)
    dim = len(goal)
    if any(len(g) != dim for g in gens):
        raise ValueError("generator/target dimensions differ")
    if any(x < 0 for x in goal):
        return None

    def min_positive(g: Vector) -> int:
        return min(x for x in g if x > 0)

    order = sorted(range(len(gens)), key=lambda i: -min_positive(gens[i]))
    ordered = [gens[i] for i in order]
    # coverage[p][j]: some generator from position p onward has g[j] > 0.
    coverage = [[False] * dim for _ in range(len(gens) + 1)]
    for p in range(len(gens) - 1, -1, -1):
        coverage[p] = [
            coverage[p + 1][j] or ordered[p][j] > 0 for j in range(dim)
        ]

    # Depth-first with an explicit stack, so that the depth (one level per
    # generator) is not bounded by the interpreter's recursion limit.  Each
    # open frame is [remainder at its position, coefficient tried, bound].
    last = len(ordered) - 1
    frames: list[list] = []
    remaining = goal
    nodes = 0
    while True:
        pos = len(frames)
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceededError(
                f"membership search exceeded {budget} nodes"
            )
        tail: Optional[list[int]] = None
        if not any(remaining):
            tail = [0] * (len(ordered) - pos)
        elif pos < len(ordered) and not any(
            remaining[j] > 0 and not coverage[pos][j] for j in range(dim)
        ):
            gen = ordered[pos]
            if pos < last:
                bound = min(remaining[j] // gen[j] for j in range(dim) if gen[j] > 0)
                frames.append([remaining, 0, bound])
                continue
            # Last generator: the coefficient is forced, check divisibility.
            j = next(j for j in range(dim) if gen[j] > 0)
            count, rem = divmod(remaining[j], gen[j])
            if not rem and scale(gen, count) == remaining:
                tail = [count]
        if tail is not None:
            solution = [frame[1] for frame in frames] + tail
            break
        # Backtrack to the deepest frame with a coefficient left to try.
        while frames and frames[-1][1] == frames[-1][2]:
            frames.pop()
        if not frames:
            return None
        frame = frames[-1]
        frame[1] += 1
        remaining = sub(frame[0], scale(ordered[len(frames) - 1], frame[1]))
    coeffs = [0] * len(gens)
    for position, original in enumerate(order):
        coeffs[original] = solution[position]
    return tuple(coeffs)


def unpruned_search(generators, target):
    """Oracle: plain exhaustive search over the full coefficient box."""
    dim = len(target)
    bounds = []
    for gen in generators:
        positive = [target[j] // gen[j] for j in range(dim) if gen[j] > 0]
        bounds.append(min(positive) if positive else 0)
    for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
        total = (0,) * dim
        for c, gen in zip(coeffs, generators):
            total = add(total, scale(gen, c))
        if total == tuple(target):
            return coeffs
    return None


class TestValidateConditions:
    def test_numerical_example_holds(self, numerical_example):
        system, chain, report = numerical_example
        assert report.strict_chain
        assert report.all_hold
        # Any valid witness is acceptable; these re-evaluate to the targets.
        for check, index in zip(report.scaled, chain.indices):
            gen = system.generators[system.ambient_dim + check.level - 1]
            target = scale(gen, index)
            total = (0,) * system.ambient_dim
            for c, g in zip(
                check.witness,
                system.generators[: system.ambient_dim + check.level - 1],
            ):
                total = add(total, scale(g, c))
            assert total == target

    def test_scaled_membership_failure(self):
        system, chain, report = analyzed([(8,), (10,), (11,)])
        assert report.strict_chain
        failure = report.first_scaled_failure()
        assert failure is not None and failure.level == 2
        assert chain.indices[1] * system.generators[2][0] == 22
        assert not report.all_hold

    def test_strict_chain_failure(self):
        _, _, report = analyzed([(4,), (6,), (7,), (9,)])
        assert not report.strict_chain
        assert report.strict_chain_violation == 3

    def test_exhausted_budget_keeps_the_decided_witness(self):
        # Every level holds; with no search node allowed, the standard
        # representations stay as the witnesses.
        system, chain, _ = analyzed([(4,), (6,), (7,)])
        report = validate_conditions(system, chain, 0)
        assert report == decide_conditions(system, chain)
        assert report.all_hold
        assert [c.witness for c in report.scaled] == [(3,), (2, 1)]
        # Levels above the first failure are not reported.
        system, chain, _ = analyzed([(8,), (10,), (11,), (13,)])
        report = validate_conditions(system, chain, 0)
        assert [(c.level, c.holds) for c in report.scaled] == [(1, True), (2, False)]

    def test_chain_frozen_and_unchanged_by_validation(self, skew_example):
        system, chain, _ = skew_example
        assert chain == build_chain(system)
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain.indices = ()


class TestDecideConditions:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3), st.booleans())
    def test_agrees_with_the_search_up_to_the_first_failure(
        self, seed, e, extras, conditioned
    ):
        rng = random.Random(seed)
        if conditioned:
            system, chain, _ = random_conditioned_system(rng, e, extras, max_entry=8)
        else:
            system = random_system(rng, e, extras, max_entry=8)
            chain = build_chain(system)
        decided = decide_conditions(system, chain)
        searched = searched_conditions(system, chain, 10**6)
        assert decided.strict_chain == searched.strict_chain
        assert decided.strict_chain_violation == searched.strict_chain_violation
        # The report runs up to the first level failing either condition.
        failure = decided.first_scaled_failure()
        last = min(
            failure.level if failure else system.extra_count,
            decided.strict_chain_violation or system.extra_count,
        )
        assert [c.level for c in decided.scaled] == list(range(1, last + 1))
        assert [c.level for c in searched.scaled] == list(range(1, last + 1))
        for mine, theirs in zip(decided.scaled, searched.scaled):
            assert mine.holds == theirs.holds, (system.generators, mine.level)
            if mine.holds:
                k = mine.level
                target = scale(system.generators[e + k - 1], chain.indices[k - 1])
                total = (0,) * e
                for c, g in zip(mine.witness, system.generators[: e + k - 1]):
                    assert c >= 0
                    total = add(total, scale(g, c))
                assert total == target
            else:
                assert mine.witness is None
        # validate_conditions is the decided report with the search's
        # witnesses, which a sufficient budget makes the reference's own.
        assert validate_conditions(system, chain, 10**6) == searched

    def test_fixtures(self, numerical_example):
        system, chain, _ = numerical_example
        assert decide_conditions(system, chain).all_hold
        system, chain, _ = analyzed([(8,), (10,), (11,)])
        report = decide_conditions(system, chain)
        assert [c.holds for c in report.scaled] == [True, False]
        system, chain, _ = analyzed([(4,), (6,), (7,), (9,)])
        report = decide_conditions(system, chain)
        assert report.strict_chain_violation == 3
        assert [c.level for c in report.scaled] == [1, 2, 3]


class TestMembershipFast:
    def test_frobenius_number_not_member(self, numerical_example):
        system, chain, report = numerical_example
        result = membership_fast(system, chain, (9,), report)
        assert result.in_group and not result.in_semigroup
        assert result.representation.coefficients == (-1, 1, 1)

    def test_conductor_is_member(self, numerical_example):
        system, chain, report = numerical_example
        assert membership_fast(system, chain, (10,), report).in_semigroup

    def test_boundary_shift_not_member(self, axes_example):
        system, chain, report = axes_example
        result = membership_fast(system, chain, (10, 14), report)
        assert result.in_group and not result.in_semigroup

    def test_requires_conditions(self):
        system, chain, report = analyzed([(8,), (10,), (11,)])
        with pytest.raises(ConditionsUnmetError):
            membership_fast(system, chain, (33,), report)

    def test_not_in_group(self, axes_example):
        system, chain, report = axes_example
        result = membership_fast(system, chain, (1, 0), report)
        assert not result.in_group
        assert not result.in_semigroup
        assert result.representation is None


def recursive_search(gens, goal):
    """The depth-first search of membership_bruteforce written recursively:
    returns its witness (in search order) and the number of nodes visited."""
    order = sorted(range(len(gens)), key=lambda i: -min(x for x in gens[i] if x > 0))
    ordered = [gens[i] for i in order]
    dim = len(goal)
    nodes = 0

    def search(pos, remaining):
        nonlocal nodes
        nodes += 1
        if not any(remaining):
            return [0] * (len(ordered) - pos)
        if pos == len(ordered):
            return None
        if any(
            remaining[j] > 0 and all(g[j] == 0 for g in ordered[pos:])
            for j in range(dim)
        ):
            return None
        gen = ordered[pos]
        bound = min(remaining[j] // gen[j] for j in range(dim) if gen[j] > 0)
        if pos == len(ordered) - 1:
            j = next(j for j in range(dim) if gen[j] > 0)
            count, rem = divmod(remaining[j], gen[j])
            return None if rem or scale(gen, count) != remaining else [count]
        for count in range(bound + 1):
            found = search(pos + 1, tuple(r - count * x for r, x in zip(remaining, gen)))
            if found is not None:
                return [count] + found
        return None

    found = search(0, goal)
    if found is None:
        return None, nodes
    coeffs = [0] * len(gens)
    for position, original in enumerate(order):
        coeffs[original] = found[position]
    return tuple(coeffs), nodes


class TestMembershipBruteforce:
    def test_unreachable_target(self):
        assert membership_bruteforce([(8,), (10,)], (22,)) is None

    def test_zero_target(self):
        assert membership_bruteforce([(8,), (10,)], (0,)) == (0, 0)

    def test_witness_order_is_deterministic(self):
        witness = membership_bruteforce([(8,), (10,), (11,)], (33,))
        assert witness == (0, 0, 3)

    def test_negative_target(self):
        assert membership_bruteforce([(1, 0), (0, 1)], (-1, 2)) is None

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceededError):
            membership_bruteforce([(6,), (10,), (15,)], (9999983,), budget=50)

    def test_witness_soundness_random(self):
        rng = random.Random(17)
        for _ in range(50):
            gens = [
                (rng.randint(0, 6), rng.randint(0, 6)) for _ in range(3)
            ]
            gens = [g for g in gens if any(g)] or [(1, 2)]
            target = (rng.randint(0, 18), rng.randint(0, 18))
            witness = membership_bruteforce(gens, target)
            if witness is not None:
                total = (0, 0)
                for c, g in zip(witness, gens):
                    total = add(total, scale(g, c))
                assert total == target

    def test_agrees_with_unpruned_search(self):
        rng = random.Random(23)
        for _ in range(80):
            gens = []
            while len(gens) < 3:
                g = (rng.randint(0, 5), rng.randint(0, 5))
                if any(g):
                    gens.append(g)
            target = (rng.randint(0, 14), rng.randint(0, 14))
            pruned = membership_bruteforce(gens, target)
            unpruned = unpruned_search(gens, target)
            assert (pruned is None) == (unpruned is None)

    def test_more_generators_than_the_recursion_limit(self):
        gens = [(v,) for v in range(2, 1102)]
        witness = membership_bruteforce(gens, (5,))
        assert witness == (1, 1) + (0,) * 1098

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(any),
            min_size=1,
            max_size=4,
        ),
        st.tuples(st.integers(0, 16), st.integers(0, 16)),
    )
    def test_same_witness_and_node_count_as_the_recursion(self, gens, target):
        witness, nodes = recursive_search(gens, target)
        assert membership_bruteforce(gens, target) == witness
        assert membership_bruteforce(gens, target, budget=nodes) == witness
        with pytest.raises(SearchBudgetExceededError):
            membership_bruteforce(gens, target, budget=nodes - 1)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any),
            min_size=1,
            max_size=4,
        ),
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
    )
    def test_any_returned_witness_evaluates_to_the_target(self, gens, target):
        witness = membership_bruteforce(gens, target)
        if witness is not None:
            total = (0, 0)
            for c, g in zip(witness, gens):
                total = add(total, scale(g, c))
            assert total == target


def _outcome(search, gens, target, budget):
    try:
        return search(gens, target, budget)
    except SearchBudgetExceededError:
        return "exceeded"


@st.composite
def _search_cases(draw):
    e = draw(st.integers(1, 4))
    # Coordinates are zero about half the time, so the cut test has
    # uncovered coordinates to read.
    coordinate = st.one_of(st.just(0), st.integers(1, 5))
    gens = draw(
        st.lists(st.tuples(*[coordinate] * e).filter(any), min_size=1, max_size=5)
    )
    target = draw(st.tuples(*[st.integers(0, 24 // e)] * e))
    return gens, target


class TestMembershipBruteforceKernel:
    """The search against its earlier form: same depth-first order, same
    node count, same first witness."""

    BUDGETS = (0, 1, 5, 50, 10**5)

    @settings(max_examples=300, deadline=None)
    @given(_search_cases())
    def test_agrees_with_the_earlier_search(self, case):
        gens, target = case
        for budget in self.BUDGETS:
            assert _outcome(membership_bruteforce, gens, target, budget) == (
                _outcome(membership_bruteforce_before, gens, target, budget)
            ), (gens, target, budget)

    @pytest.mark.parametrize(
        "search", [membership_bruteforce, membership_bruteforce_before]
    )
    def test_exact_node_count(self, search):
        gens = [(2, 0, 1), (0, 3, 0), (1, 1, 1), (0, 0, 2)]
        with pytest.raises(SearchBudgetExceededError):
            search(gens, (7, 9, 9), 63)
        assert search(gens, (7, 9, 9), 64) == (2, 2, 3, 2)


class TestAgreement:
    def test_fast_equals_bruteforce_on_boxes(self):
        cases = [
            [(4,), (6,), (7,)],
            [(3,), (5,)],
            [(1, 3), (3, 2), (1, 1)],
            [(2, 1), (1, 2), (2, 2)],
        ]
        for vectors in cases:
            system, chain, report = analyzed(vectors)
            assert report.all_hold
            e = system.ambient_dim
            top = 14 if e == 1 else 8
            for point in itertools.product(range(top + 1), repeat=e):
                fast = membership_fast(system, chain, point, report).in_semigroup
                brute = membership_bruteforce(system.generators, point)
                assert fast == (brute is not None), point
