"""Frobenius vectors, conductor sets and Diophantine feasibility.

For a generator system satisfying both chain conditions, the Frobenius
vector is

    g = sum over extras of (index - 1) * generator  -  sum of leading
        generators.

It is never in the semigroup, while every group element beyond it (inside
the open cone of the leading generators) is.  When the generators span all
of Z^e the conductor set ``{g + w}`` translates the minimal integral
vectors w of the open cone, and crossing any conductor point certifies
membership outright.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConditionsUnmetError, NotFullLatticeError, SearchBudgetExceededError
from .exactlinalg import Vector, as_int, as_vector, lattice_basis
from .lattice import (
    GeneratorSystem,
    LatticeChain,
    add,
    build_chain,
    scale,
    sub,
)
from .semigroup import (
    ConditionReport,
    decide_conditions,
    membership_bruteforce,
    membership_fast,
)

SOLVABLE_BY_CONE = "solvable_by_cone"
SOLVABLE_WITH_WITNESS = "solvable_with_witness"
LATTICE_INFEASIBLE = "lattice_infeasible"
NO_SOLUTION = "no_solution"
CONDITIONS_UNMET = "conditions_unmet"

#: Default node budget for the bounded search in diophantine_solve.
DEFAULT_SEARCH_BUDGET = 10**7

#: Largest |det| of the leading generators, the number of points the
#: conductor enumeration visits, for which the conductor set is enumerated
#: (dimension >= 2 only; dimension 1 is closed-form).
CONDUCTOR_ENUMERATION_LIMIT = 2_000_000

# Prepared systems that _prepared keeps.
_PREPARED_CACHE_SIZE = 64


@dataclass(frozen=True)
class FrobeniusReport:
    """Frobenius vector together with how it was obtained.

    ``vector`` may have negative coordinates; it is a point of Z^e, not N^e.
    ``conductor`` is present exactly when the vector is the true Frobenius
    vector, the generators span all of Z^e and |det| is within
    ``CONDUCTOR_ENUMERATION_LIMIT`` (always in dimension 1).  When
    ``threshold_only`` is set the vector came from the maximal well-behaved
    subset of the generators and is only an upper threshold: everything in
    the group beyond it is in the semigroup, but smaller non-members may
    exist.  ``used_subset`` then lists the 1-based positions of the extra
    generators that were kept, and ``conductor`` is None.
    """

    vector: Vector
    conductor: Optional[tuple[Vector, ...]]
    threshold_only: bool = False
    used_subset: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class DiophantineAnswer:
    """Outcome of a nonnegative integer solve of  generators . X = target."""

    status: str
    witness: Optional[Vector] = None


def frobenius_formula(system: GeneratorSystem, chain: LatticeChain) -> Vector:
    """Evaluate the closed-form vector, valid or not."""
    total = (0,) * system.ambient_dim
    for k, extra in enumerate(system.extras()):
        total = add(total, scale(extra, chain.indices[k] - 1))
    for v in system.leading():
        total = sub(total, v)
    return total


@functools.lru_cache(maxsize=_PREPARED_CACHE_SIZE)
def _prepared(system: GeneratorSystem) -> tuple[LatticeChain, ConditionReport, Vector]:
    """Chain, ``decide_conditions`` report and closed-form vector of
    ``system``: the one prepared analysis.

    ``diophantine_solve``, ``frobenius_subset``, the exponent front ends and
    the ``member`` and ``verify`` commands read it, so the condition verdict
    never depends on a search budget.  The conductor is not enumerated
    here.  Sound as a cache: the system, chain and report are frozen, and
    the system hashes by its dimension and generators only.
    """
    chain = build_chain(system)
    return chain, decide_conditions(system, chain), frobenius_formula(system, chain)


def frobenius_vector(
    system: GeneratorSystem,
    chain: LatticeChain,
    conditions: ConditionReport,
) -> FrobeniusReport:
    """Frobenius vector of the semigroup, requiring both chain conditions.

    ``conditions`` is the report of ``decide_conditions`` or of
    ``validate_conditions`` (same verdicts) on the same system.  The two
    defining facts (the vector is in the group but not in the semigroup,
    the latter through the standard representation) are re-checked, and a
    failure raises ``AssertionError``.  When the generators span all of Z^e
    and |det| is within ``CONDUCTOR_ENUMERATION_LIMIT``, the result also
    carries the conductor set.
    """
    if not conditions.all_hold:
        raise ConditionsUnmetError(
            "frobenius_vector requires both chain conditions", report=conditions
        )
    g = _rechecked_formula(system, chain, conditions)
    conductor = None
    if chain.minor_gcds[-1] == 1 and (
        system.ambient_dim == 1 or abs(system.det) <= CONDUCTOR_ENUMERATION_LIMIT
    ):
        conductor = conductor_set(system, chain, g)
    return FrobeniusReport(vector=g, conductor=conductor)


def _rechecked_formula(
    system: GeneratorSystem, chain: LatticeChain, conditions: ConditionReport
) -> Vector:
    """The closed-form vector of a system whose conditions hold, after a
    defensive re-check through the sign criterion, O(e^2) per level: it
    must be in the group but not in the semigroup, else ``AssertionError``.
    """
    g = frobenius_formula(system, chain)
    membership = membership_fast(system, chain, g, conditions)
    if not membership.in_group or membership.in_semigroup:
        raise AssertionError(
            "the Frobenius vector must be a group element outside the "
            "semigroup"
        )
    return g


def frobenius_subset(system: GeneratorSystem, chain: LatticeChain) -> FrobeniusReport:
    """Frobenius threshold from the maximal strictly-descending subset.

    Extra generators already inside the group of their predecessors are
    dropped; the closed form applied to the survivors gives a vector beyond
    which every group element is in the (full) semigroup.  When nothing was
    dropped the result is ``frobenius_vector`` of the system.  Otherwise it
    is the re-checked closed form of the subset, flagged as threshold-only
    since the true Frobenius vector of the full system may be smaller, and
    without a conductor: the subset's conductor is not the system's, so it
    is not enumerated.

    The dropped generators are those of index 1 in ``chain``, the chain of
    the full system: each lies in the group of the kept ones before it, so
    every kept prefix spans the same group as the full prefix.  The subset's
    conditions are decided without search, by its prepared analysis.
    """
    e = system.ambient_dim
    kept = tuple(k for k, index in enumerate(chain.indices, start=1) if index > 1)
    extras = system.extras()
    subsystem = GeneratorSystem(
        e, system.leading() + tuple(extras[k - 1] for k in kept)
    )
    subchain, report, _ = _prepared(subsystem)
    if not report.all_hold:
        raise ConditionsUnmetError(
            "the filtered subset still fails the scaled-membership condition",
            report=report,
        )
    if len(kept) == system.extra_count:
        return frobenius_vector(subsystem, subchain, report)
    return FrobeniusReport(
        vector=_rechecked_formula(subsystem, subchain, report),
        conductor=None,
        threshold_only=True,
        used_subset=kept,
    )


def beyond_frobenius(
    system: GeneratorSystem, g: Sequence[int], vector: Sequence[int]
) -> bool:
    """Whether ``vector`` lies in g + (open cone of the leading generators).

    Exact rational sign tests: the difference must have strictly positive
    coefficients over the leading generators.  Points on proper faces of the
    cone (and g itself) are excluded; the membership guarantee does not
    cover them.
    """
    difference = sub(as_vector(vector), as_vector(g))
    if not any(difference):
        return False
    return all(c > 0 for c in system.cone_coordinates(difference))


def in_closed_cone(system: GeneratorSystem, vector: Sequence[int]) -> bool:
    """Whether ``vector`` lies in the closed cone of the leading generators."""
    return all(c >= 0 for c in system.cone_coordinates(vector))


def minimal_cone_points(system: GeneratorSystem) -> tuple[Vector, ...]:
    """Minimal integral vectors of the open cone of the leading generators.

    Minimality is with respect to u' <= u iff u - u' is in the closed cone.
    Every minimal point lies in the half-open fundamental parallelepiped
    {sum a_i v_i : 0 < a_i <= 1}: an interior integral point with some
    coefficient above 1 still lies in the open cone after subtracting that
    generator, so it dominates another integral point.  Conversely any
    dominator of a parallelepiped point is itself one, so the minimal points
    of the parallelepiped are exactly the global minimal set.

    On the cone coordinates c(u) = |det| B^-1 u, for B the matrix of the
    leading generators, "u - w in the closed cone" is the componentwise test
    c(w) <= c(u), so the minimal set is a Pareto minimum of the |det|
    parallelepiped points, the maxima problem of Kung, Luccio and Preparata
    (1975).  It is found per dimension:

    * e = 2, without listing the parallelepiped: the minimal points form a
      staircase, the running minima of one residue sequence, walked in
      O(output + log |det|) steps per run of equal steps (the
      Hirzebruch-Jung walk; Fulton, *Introduction to Toric Varieties*,
      2.6).  See ``_staircase_walk``.
    * e = 3: the parallelepiped coordinates (``_parallelepiped_coordinates``)
      filtered by one sorted sweep over a (c_2, c_3) staircase, O(|det| log
      |det|).  See ``_staircase_sweep``.
    * e >= 4: the same coordinates filtered by the sort-filter skyline
      (Chomicki et al., 2003), O(|det| * minimal points).  See
      ``_pareto_skyline``.

    The |det| cap ``CONDUCTOR_ENUMERATION_LIMIT`` holds in every dimension.
    """
    e = system.ambient_dim
    if e == 1:
        # The parallelepiped is (0, v_1] and 1 divides into everything.
        return ((1,),)
    bound = abs(system.det)
    if bound > CONDUCTOR_ENUMERATION_LIMIT:
        raise ValueError(
            f"fundamental parallelepiped too large to enumerate ({bound} points)"
        )
    if e == 2:
        minimal = _staircase_walk(system)
    elif e == 3:
        minimal = _staircase_sweep(_parallelepiped_coordinates(system))
    else:
        minimal = _pareto_skyline(_parallelepiped_coordinates(system))
    # Back from coordinates to points: u = sum c_i v_i / |det|, exactly.
    rows = tuple(zip(*system.leading()))
    return tuple(sorted(
        tuple(sum(map(operator.mul, c, row)) // bound for row in rows) for c in minimal
    ))


def _parallelepiped_coordinates(system: GeneratorSystem) -> list[Vector]:
    """Cone coordinates of the |det| integral points of the half-open
    parallelepiped.

    c(u) = sign(det) adj(B) u = |det| B^-1 u, so c(v_i) = |det| e_i and the
    parallelepiped is 0 < c <= |det|.  The box of the Hermite diagonal h of
    the leading lattice, prod [0, h_i), holds one representative r of each
    coset.  Subtracting k_i = ceil(c_i(r) / |det|) - 1 copies of each v_i
    moves r into the parallelepiped and its coordinates to
    c_i(r) - |det| k_i = (c_i(r) - 1) mod |det| + 1.
    """
    bound = abs(system.det)
    basis = lattice_basis(system.leading())
    diagonal = [basis.rows[i][i] for i in range(basis.nrows)]
    # ``system.cone_map`` is applied inline: the argument checks of
    # ``cone_coordinates`` would double the cost of this loop.
    return [
        tuple(
            (sum(a * x for a, x in zip(row, r)) - 1) % bound + 1
            for row in system.cone_map
        )
        for r in itertools.product(*(range(h) for h in diagonal))
    ]


def _staircase_walk(system: GeneratorSystem) -> list[Vector]:
    """Cone coordinates of the minimal points in dimension 2.

    The coordinates form the lattice cone_map . Z^2, with basis (g, t) and
    (0, h): g is the gcd of the first row of the cone map, h = |det| / g,
    and t comes from the extended gcd.  The parallelepiped point with
    c_1 = g i therefore has smallest c_2 = ((t i - 1) mod h) + 1, and the
    minimal points are the strict running minima of that sequence over
    i = 1 .. h.

    From a record of value r at i, the next record is at i + s for the
    least s >= 1 with t s mod h in [h - r + 1, h - 1]
    (``_least_multiple_in_range``), and its value is r - d for
    d = h - (t s mod h).  While the new value still exceeds d the same s
    is the least again, so each run of equal steps costs one search.
    """
    (m11, m12), (m21, m22) = system.cone_map
    g, a, b = _extended_gcd(m11, m12)
    h = abs(system.det) // g
    t = (a * m21 + b * m22) % h
    i, r = 1, (t - 1) % h + 1
    minimal = [(g, r)]
    while r > 1:
        s = _least_multiple_in_range(t, h, h - r + 1, h - 1)
        if s is None:
            break
        drop = h - t * s % h
        while r > drop:
            i, r = i + s, r - drop
            minimal.append((g * i, r))
    return minimal


def _extended_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, a, b) with a x + b y = g = gcd(x, y) >= 0."""
    a0, b0, a1, b1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if x < 0:
        return -x, -a0, -b0
    return x, a0, b0


def _least_multiple_in_range(a: int, m: int, low: int, high: int) -> Optional[int]:
    """Least k >= 1 with low <= a k mod m <= high, for 0 < low <= high < m
    and 0 <= a < m, or None when there is none.

    Either k = ceil(low / a) already lands in range, or [low, high] holds
    no multiple of a, and then the least k belongs to the least y >= 1 with
    a k - m y in range, that is with m y mod a in the range
    [a - high mod a, a - low mod a]: the same problem for (m mod a, a), so
    the recursion follows Euclid's algorithm, O(log m) steps.
    """
    if a == 0:
        return None
    k = -(-low // a)
    if a * k <= high:
        return k
    y = _least_multiple_in_range(m % a, a, a - high % a, a - low % a)
    if y is None:
        return None
    return -(-(low + m * y) // a)


def _staircase_sweep(coordinates: Sequence[Vector]) -> list[Vector]:
    """Componentwise-minimal triples among distinct triples.

    In lexicographic order every dominator of a triple comes first, so a
    triple is dominated exactly when some earlier (c_2, c_3) is at most its
    own.  The minimal pairs seen so far form a staircase, c_2 ascending and
    c_3 strictly descending; the entry at ``bisect_right(c_2) - 1`` has the
    least c_3 among those with small enough c_2, so it alone decides.  A
    new minimal triple then replaces the run of entries it covers.
    """
    seconds: list[int] = []
    thirds: list[int] = []
    minimal = []
    for c in sorted(coordinates):
        _, c2, c3 = c
        below = bisect.bisect_right(seconds, c2) - 1
        if below >= 0 and thirds[below] <= c3:
            continue
        minimal.append(c)
        start = end = bisect.bisect_left(seconds, c2, 0, below + 1)
        while end < len(thirds) and thirds[end] >= c3:
            end += 1
        seconds[start:end] = [c2]
        thirds[start:end] = [c3]
    return minimal


def _pareto_skyline(coordinates: Sequence[Vector]) -> list[Vector]:
    """Componentwise-minimal tuples among distinct tuples.

    In order of the entry sum every dominator of a tuple comes first, and
    some minimal tuple lies below any dominator, so testing each tuple
    against the minimal ones kept so far decides it.
    """
    minimal: list[Vector] = []
    for c in sorted(coordinates, key=sum):
        if not any(all(a <= b for a, b in zip(w, c)) for w in minimal):
            minimal.append(c)
    return minimal


def conductor_set(
    system: GeneratorSystem, chain: LatticeChain, g: Sequence[int]
) -> tuple[Vector, ...]:
    """The set {g + w : w minimal integral vector of the open cone}.

    Only defined when the generators span all of Z^e: every lattice point of
    the open cone then sits above some conductor point, and everything above
    a conductor point is in the semigroup.
    """
    if chain.minor_gcds[-1] != 1:
        raise NotFullLatticeError(
            "the conductor set requires the generators to span all of Z^e "
            f"(covolume is {chain.minor_gcds[-1]})"
        )
    g = as_vector(g)
    return tuple(sorted(add(g, w) for w in minimal_cone_points(system)))


def apery_set(values: Sequence[int]) -> tuple[Optional[int], ...]:
    """Apery set of the semigroup generated by ``values`` modulo their minimum.

    Entry r is the smallest member congruent to r modulo a = min(values), or
    None when the semigroup meets no integer of that class (possible only
    when the values share a common factor).  An integer n is a member exactly
    when ``apery_set(values)[n % a]`` is at most n.  Computed by the
    round-robin shortest-path pass of Boecker and Liptak ("A fast and simple
    algorithm for the money changing problem", Algorithmica 2007): each
    further generator b walks the gcd(a, b) cycles of x -> x + b mod a once,
    starting from the smallest entry of its cycle, so the table costs
    O(len(values) * a) exact integer steps.
    """
    values = [as_int(v) for v in values]
    if not values or any(v < 1 for v in values):
        raise ValueError("apery_set needs at least one positive integer")
    a = min(values)
    table: list[Optional[int]] = [None] * a
    table[0] = 0
    for b in set(values):
        d = math.gcd(a, b)
        for start in range(d):
            n = min((t for t in table[start::d] if t is not None), default=None)
            if n is None:
                continue
            for _ in range(a // d - 1):
                n += b
                r = n % a
                if table[r] is not None and table[r] < n:
                    n = table[r]
                else:
                    table[r] = n
    return tuple(table)


def gaps(system: GeneratorSystem, chain: LatticeChain) -> tuple[int, ...]:
    """All positive integers missing from a numerical semigroup (dim 1)."""
    if system.ambient_dim != 1:
        raise ValueError("gaps are only defined for subsemigroups of N")
    if chain.minor_gcds[-1] != 1:
        raise ValueError(
            f"gap set is infinite: gcd of the generators is {chain.minor_gcds[-1]}"
        )
    return numerical_gaps([v[0] for v in system.generators])


def numerical_gaps(values: Sequence[int]) -> tuple[int, ...]:
    """Gaps of the numerical semigroup generated by coprime ``values``.

    Read off the Apery set modulo a = min(values): the gaps congruent to r
    are r, r + a, ... below the class's Apery element.
    """
    table = apery_set(values)
    if None in table:
        raise ValueError("gap set is infinite: the values share a common factor")
    a = len(table)
    return tuple(sorted(
        itertools.chain.from_iterable(range(r, table[r], a) for r in range(1, a))
    ))


def diophantine_solve(
    system: GeneratorSystem,
    target: Sequence[int],
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> DiophantineAnswer:
    """Decide generators . X = target over nonnegative integers.

    Classification: targets outside the group are infeasible outright; when
    both chain conditions hold and the target lies beyond the Frobenius
    vector inside the open cone, solvability is certified by the cone
    position and the standard representation supplies the witness.  Other
    targets under the conditions are decided first by the representation's
    sign criterion: a non-member has no solution, and only a member runs
    the bounded search for its witness, falling back to the representation
    when the budget runs out.  Without the conditions the bounded search
    decides alone, and an exceeded budget is reported as undecided.

    The conditions come from the prepared analysis of the system, decided
    without search, so ``budget`` bounds only the witness searches: a
    member's below g, and every target's when the conditions fail.
    """
    goal = as_vector(target)
    if any(x < 0 for x in goal):
        raise ValueError("target must have nonnegative coordinates")
    chain, conditions, g = _prepared(system)
    if not chain.contains(goal, chain.level_count):
        return DiophantineAnswer(LATTICE_INFEASIBLE)
    if conditions.all_hold:
        result = membership_fast(system, chain, goal, conditions)
        if beyond_frobenius(system, g, goal):
            if not result.in_semigroup:
                raise AssertionError("cone position must certify membership")
            return DiophantineAnswer(SOLVABLE_BY_CONE, result.representation.coefficients)
        if not result.in_semigroup:
            return DiophantineAnswer(NO_SOLUTION)
        try:
            witness = membership_bruteforce(system.generators, goal, budget)
        except SearchBudgetExceededError:
            return DiophantineAnswer(
                SOLVABLE_WITH_WITNESS, result.representation.coefficients
            )
        if witness is None:
            raise AssertionError("the search must find a witness for a member")
        return DiophantineAnswer(SOLVABLE_WITH_WITNESS, witness)
    try:
        witness = membership_bruteforce(system.generators, goal, budget)
    except SearchBudgetExceededError:
        return DiophantineAnswer(CONDITIONS_UNMET)
    if witness is not None:
        return DiophantineAnswer(SOLVABLE_WITH_WITNESS, witness)
    return DiophantineAnswer(NO_SOLUTION)
