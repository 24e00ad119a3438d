import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsemi import (
    ConditionsUnmetError,
    SearchBudgetExceededError,
    membership_bruteforce,
    membership_fast,
)
from affsemi.lattice import add, scale
from tests.conftest import analyzed


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

    def test_witnesses_copied_to_chain(self, skew_example):
        _, chain, report = skew_example
        assert chain.witnesses == [c.witness for c in report.scaled]
        assert chain.conditions is report


class TestMembershipFast:
    def test_frobenius_number_not_member(self, numerical_example):
        system, chain, _ = numerical_example
        result = membership_fast(system, chain, (9,))
        assert result.in_group and not result.in_semigroup
        assert result.representation.coefficients == (-1, 1, 1)

    def test_conductor_is_member(self, numerical_example):
        system, chain, _ = numerical_example
        assert membership_fast(system, chain, (10,)).in_semigroup

    def test_boundary_shift_not_member(self, axes_example):
        system, chain, _ = axes_example
        result = membership_fast(system, chain, (10, 14))
        assert result.in_group and not result.in_semigroup

    def test_requires_conditions(self):
        system, chain, report = analyzed([(8,), (10,), (11,)])
        with pytest.raises(ConditionsUnmetError):
            membership_fast(system, chain, (33,), report)

    def test_not_in_group(self, axes_example):
        system, chain, _ = axes_example
        result = membership_fast(system, chain, (1, 0))
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
                fast = membership_fast(system, chain, point).in_semigroup
                brute = membership_bruteforce(system.generators, point)
                assert fast == (brute is not None), point
