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
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    this level summing to index * generator, when one exists.  ``undecided``
    marks a check abandoned because the search budget ran out; ``holds`` is
    False in that case.
    """

    level: int
    holds: bool
    witness: Optional[Vector]
    undecided: bool = False


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
    """Check both chain conditions, reporting rather than raising on failure.

    Scaled-membership witnesses are found by ``membership_bruteforce`` and
    copied onto the chain.  Any valid witness is acceptable; the search is
    deterministic, so reruns reproduce the same one.
    """
    violation = None
    for k in range(1, len(chain.minor_gcds)):
        if chain.minor_gcds[k] == chain.minor_gcds[k - 1]:
            violation = k
            break
    e = system.ambient_dim
    checks = []
    for k in range(1, system.extra_count + 1):
        target = scale(system.generators[e + k - 1], chain.indices[k - 1])
        predecessors = system.generators[: e + k - 1]
        try:
            witness = membership_bruteforce(predecessors, target, search_budget)
        except SearchBudgetExceededError:
            checks.append(ScaledMembershipCheck(k, False, None, undecided=True))
            continue
        if witness is not None and _evaluate(predecessors, witness) != target:
            raise AssertionError("bruteforce returned an invalid witness")
        checks.append(ScaledMembershipCheck(k, witness is not None, witness))
        chain.witnesses[k - 1] = witness
    report = ConditionReport(
        strict_chain=violation is None,
        strict_chain_violation=violation,
        scaled=tuple(checks),
    )
    chain.conditions = report
    return report


def membership_fast(
    system: GeneratorSystem,
    chain: LatticeChain,
    vector: Sequence[int],
    conditions: Optional[ConditionReport] = None,
) -> MembershipResult:
    """Membership via the sign pattern of the standard representation.

    Requires both chain conditions; refuses (rather than silently degrading)
    when they fail, because the sign criterion is only valid under them.
    """
    report = conditions if conditions is not None else chain.conditions
    if report is None:
        raise ConditionsUnmetError(
            "validate_conditions must run before membership_fast"
        )
    if not report.all_hold:
        raise ConditionsUnmetError(
            "membership_fast requires both chain conditions; "
            "use membership_bruteforce instead",
            report=report,
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


def _evaluate(generators: Sequence[Vector], coefficients: Sequence[int]) -> Vector:
    total = (0,) * len(generators[0])
    for coeff, gen in zip(coefficients, generators):
        if coeff:
            total = add(total, scale(gen, coeff))
    return total
