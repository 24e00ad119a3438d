"""Chain conditions and semigroup membership.

Two conditions make the closed-form Frobenius machinery applicable:

* strict descent: the gcd of maximal minors drops strictly every time an
  extra generator is adjoined (each one genuinely enlarges the group);
* scaled membership: for every extra generator, its index-fold multiple is a
  nonnegative combination of the generators before it.

``membership_fast`` decides semigroup membership through the standard
representation (a member is exactly a group element whose leading
coefficients are all nonnegative); ``membership_bruteforce`` decides it by a
bounded search for an explicit nonnegative combination and serves as the
independent cross-check.  ``decide_conditions`` decides the conditions
themselves by the same sign criterion, without search, and is their only
decider.  ``validate_conditions`` reports the same verdicts with the
witnesses the search finds for the levels above the first that hold, which
the ``analyze`` and ``verify`` documents print; the search never decides a
verdict.  The search-only check is ``oracle.searched_conditions``, the
reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import ConditionsUnmetError, SearchBudgetExceededError
from .exactlinalg import Vector, as_vector
from .lattice import (
    GeneratorSystem,
    LatticeChain,
    StandardRepresentation,
    add,
    scale,
    standard_representation,
    sub,
)


@dataclass(frozen=True)
class ScaledMembershipCheck:
    """Outcome of the scaled-membership condition at one level.

    ``witness`` gives nonnegative coefficients over the generators before
    this level summing to index * generator, when the condition holds.
    """

    level: int
    holds: bool
    witness: Optional[Vector]


@dataclass(frozen=True)
class ConditionReport:
    strict_chain: bool
    strict_chain_violation: Optional[int]
    scaled: tuple[ScaledMembershipCheck, ...]

    @property
    def all_hold(self) -> bool:
        return self.strict_chain and all(c.holds for c in self.scaled)

    def first_scaled_failure(self) -> Optional[ScaledMembershipCheck]:
        for check in self.scaled:
            if not check.holds:
                return check
        return None


@dataclass(frozen=True)
class MembershipResult:
    in_group: bool
    in_semigroup: bool
    representation: Optional[StandardRepresentation]


def validate_conditions(
    system: GeneratorSystem,
    chain: LatticeChain,
    search_budget: Optional[int] = None,
) -> ConditionReport:
    """``decide_conditions`` with the witnesses the search finds.

    The verdicts and the levels reported are those of ``decide_conditions``.
    For each level above the first that holds, ``membership_bruteforce``
    looks for a witness under ``search_budget``; the search is
    deterministic, so reruns reproduce the same one.  When the budget runs
    out, the standard representation stays as the witness, so the budget
    never changes a verdict.  Level 1 runs no search: its predecessors are
    the e leading generators, a basis, so the standard representation is
    the only witness there.
    """
    report = decide_conditions(system, chain)
    e = system.ambient_dim

    def searched(check: ScaledMembershipCheck) -> ScaledMembershipCheck:
        if not check.holds or check.level == 1:
            return check
        k = check.level
        target = scale(system.generators[e + k - 1], chain.indices[k - 1])
        predecessors = system.generators[: e + k - 1]
        try:
            witness = membership_bruteforce(predecessors, target, search_budget)
        except SearchBudgetExceededError:
            return check
        if witness is None or _evaluate(predecessors, witness) != target:
            raise AssertionError("the search must find a valid witness for a member")
        return ScaledMembershipCheck(k, True, witness)

    return replace(report, scaled=tuple(map(searched, report.scaled)))


def decide_conditions(system: GeneratorSystem, chain: LatticeChain) -> ConditionReport:
    """Both chain conditions, decided level by level by the sign criterion.

    Once levels 1 .. k-1 hold, index_k * v_{e+k} is a member of the level
    k-1 semigroup exactly when its standard representation at level k-1 has
    nonnegative leading coefficients, and that representation is then the
    witness.  The scaled checks stop at the first level that fails either
    condition, since the criterion is not valid above it.  No search runs,
    so every reported level is decided.
    """
    e = system.ambient_dim
    violation = next((k for k, i in enumerate(chain.indices, 1) if i == 1), None)
    checks = []
    for k in range(1, (violation or system.extra_count) + 1):
        target = scale(system.generators[e + k - 1], chain.indices[k - 1])
        witness = standard_representation(chain, target, k - 1).coefficients
        holds = all(c >= 0 for c in witness[:e])
        checks.append(ScaledMembershipCheck(k, holds, witness if holds else None))
        if not holds:
            break
    return ConditionReport(violation is None, violation, tuple(checks))


def membership_fast(
    system: GeneratorSystem,
    chain: LatticeChain,
    vector: Sequence[int],
    conditions: ConditionReport,
) -> MembershipResult:
    """Membership via the sign pattern of the standard representation.

    ``conditions`` is the report of ``decide_conditions`` or of
    ``validate_conditions`` (same verdicts) on the same system.  Requires
    both chain conditions; refuses (rather than silently degrading) when
    they fail, because the sign criterion is only valid under them.
    """
    if not conditions.all_hold:
        raise ConditionsUnmetError(
            "membership_fast requires both chain conditions; "
            "use membership_bruteforce instead",
            report=conditions,
        )
    representation = standard_representation(chain, vector)
    if representation is None:
        return MembershipResult(False, False, None)
    in_semigroup = all(c >= 0 for c in representation.head(system))
    return MembershipResult(True, in_semigroup, representation)


def membership_bruteforce(
    generators: Sequence[Sequence[int]],
    target: Sequence[int],
    budget: Optional[int] = None,
) -> Optional[Vector]:
    """Search for nonnegative integer coefficients summing to ``target``.

    Depth-first over coefficient vectors: generators are tried in order of
    decreasing smallest positive coordinate (fastest bound shrinkage), each
    coefficient running upward from 0 to the largest value that keeps every
    coordinate of the remainder nonnegative.  A branch is cut as soon as some
    coordinate of the remainder cannot be covered by the generators still
    available.  Returns the first witness found (in original generator
    order), or None after exhausting the space.  Raises
    ``SearchBudgetExceededError`` when ``budget`` nodes are visited first.
    """
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
    # support[p]: the positive coordinates of the generator at position p.
    # uncovered[p]: the coordinates positive in no generator from position p
    # on; a positive remainder there cuts the branch.  The remainder never
    # goes negative, so "positive" is "nonzero".
    support = [[j for j in range(dim) if g[j] > 0] for g in ordered]
    uncovered = [list(range(dim))]
    for g in reversed(ordered):
        uncovered.append([j for j in uncovered[-1] if g[j] <= 0])
    uncovered.reverse()

    # Depth-first with an explicit stack, so that the depth (one level per
    # generator) is not bounded by the interpreter's recursion limit.  Each
    # open frame is [remainder left by its coefficient, coefficient, bound].
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
        elif not any(remaining[j] for j in uncovered[pos]):
            gen = ordered[pos]
            if pos < last:
                bound = min(remaining[j] // gen[j] for j in support[pos])
                frames.append([remaining, 0, bound])
                continue
            # Last generator: the coefficient is forced, check divisibility.
            j = support[pos][0]
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
        remaining = frame[0] = sub(frame[0], ordered[len(frames) - 1])
    coeffs = [0] * len(gens)
    for position, original in enumerate(order):
        coeffs[original] = solution[position]
    return tuple(coeffs)


def _evaluate(generators: Sequence[Vector], coefficients: Sequence[int]) -> Vector:
    total = (0,) * len(generators[0])
    for coeff, gen in zip(coefficients, generators):
        if coeff:
            total = add(total, scale(gen, coeff))
    return total
