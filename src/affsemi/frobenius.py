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

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import ConditionsUnmetError, NotFullLatticeError, SearchBudgetExceededError
from .exactlinalg import (
    Vector,
    adjugate,
    as_int,
    as_vector,
    cramer_numerators,
    determinant,
    lattice_basis,
    solve_lower_triangular,
)
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
    membership_bruteforce,
    membership_fast,
    validate_conditions,
)

SOLVABLE_BY_CONE = "solvable_by_cone"
SOLVABLE_WITH_WITNESS = "solvable_with_witness"
LATTICE_INFEASIBLE = "lattice_infeasible"
NO_SOLUTION = "no_solution"
CONDITIONS_UNMET = "conditions_unmet"

#: Default node budget for the bounded search in diophantine_solve.
DEFAULT_SEARCH_BUDGET = 10**7

#: Largest bounding box of the fundamental parallelepiped, in points, for
#: which the conductor set is enumerated (dimension >= 2 only; dimension 1 is
#: closed-form).  The enumeration itself visits |det| <= box points.
CONDUCTOR_ENUMERATION_LIMIT = 2_000_000

#: Indices beyond this skip the defensive membership re-check of the
#: closed-form vector (the re-check enumerates residues level by level).
RECHECK_INDEX_LIMIT = 10**6


@dataclass(frozen=True)
class FrobeniusReport:
    """Frobenius vector together with how it was obtained.

    ``vector`` may have negative coordinates; it is a point of Z^e, not N^e.
    ``conductor`` is present exactly when the generators span all of Z^e.
    When ``threshold_only`` is set the vector came from the maximal
    well-behaved subset of the generators and is only an upper threshold:
    everything in the group beyond it is in the semigroup, but smaller
    non-members may exist.  ``used_subset`` then lists the 1-based positions
    of the extra generators that were kept.
    """

    vector: Vector
    conditions: ConditionReport
    conductor: Optional[tuple[Vector, ...]]
    threshold_only: bool = False
    used_subset: Optional[tuple[int, ...]] = None
    vector_in_group: bool = True
    vector_in_semigroup: bool = False


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


def frobenius_vector(
    system: GeneratorSystem,
    chain: LatticeChain,
    conditions: Optional[ConditionReport] = None,
) -> FrobeniusReport:
    """Frobenius vector of the semigroup, requiring both chain conditions.

    The report also records the two defining facts (the vector is in the
    group but not in the semigroup, the latter re-checked through the
    standard representation) and, when the generators span all of Z^e, the
    conductor set.
    """
    report = conditions if conditions is not None else chain.conditions
    if report is None or not report.all_hold:
        raise ConditionsUnmetError(
            "frobenius_vector requires both chain conditions", report=report
        )
    g = frobenius_formula(system, chain)
    if max(chain.indices, default=1) <= RECHECK_INDEX_LIMIT:
        # Defensive re-check; residue enumeration rules it out for
        # astronomical indices, where the closed form stands on its own.
        membership = membership_fast(system, chain, g, report)
        if not membership.in_group or membership.in_semigroup:
            raise AssertionError(
                "the Frobenius vector must be a group element outside the "
                "semigroup"
            )
    conductor = None
    if chain.minor_gcds[-1] == 1 and (
        system.ambient_dim == 1
        or _parallelepiped_size(system) <= CONDUCTOR_ENUMERATION_LIMIT
    ):
        conductor = conductor_set(system, chain, g)
    return FrobeniusReport(vector=g, conditions=report, conductor=conductor)


def frobenius_subset(
    system: GeneratorSystem, search_budget: Optional[int] = None
) -> FrobeniusReport:
    """Frobenius threshold from the maximal strictly-descending subset.

    Extra generators already inside the group of their predecessors are
    dropped; the closed form applied to the survivors gives a vector beyond
    which every group element is in the (full) semigroup.  The result is
    flagged as threshold-only when anything was dropped, since the true
    Frobenius vector of the full system may be smaller.
    """
    e = system.ambient_dim
    kept: list[int] = []
    current = list(system.leading())
    for k, extra in enumerate(system.extras(), start=1):
        basis = lattice_basis(current)
        if solve_lower_triangular(basis, extra) is None:
            kept.append(k)
            current.append(extra)
    subsystem = GeneratorSystem(e, tuple(current))
    chain = build_chain(subsystem)
    report = validate_conditions(subsystem, chain, search_budget)
    if not report.all_hold:
        raise ConditionsUnmetError(
            "the filtered subset still fails the scaled-membership condition",
            report=report,
        )
    base = frobenius_vector(subsystem, chain, report)
    if len(kept) == system.extra_count:
        return base
    return replace(base, threshold_only=True, used_subset=tuple(kept))


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
    leading = system.leading_matrix()
    det = determinant(leading)
    return all(n * det > 0 for n in cramer_numerators(leading, difference))


def in_closed_cone(system: GeneratorSystem, vector: Sequence[int]) -> bool:
    """Whether ``vector`` lies in the closed cone of the leading generators."""
    leading = system.leading_matrix()
    det = determinant(leading)
    return all(n * det >= 0 for n in cramer_numerators(leading, vector))


def _parallelepiped_size(system: GeneratorSystem) -> int:
    """Points of the bounding box of the fundamental parallelepiped."""
    e = system.ambient_dim
    return math.prod(
        sum(v[j] for v in system.leading()) + 1 for j in range(e)
    )


def minimal_cone_points(system: GeneratorSystem) -> tuple[Vector, ...]:
    """Minimal integral vectors of the open cone of the leading generators.

    Minimality is with respect to u' <= u iff u - u' is in the closed cone.
    Every minimal point lies in the half-open fundamental parallelepiped
    {sum a_i v_i : 0 < a_i <= 1}: an interior integral point with some
    coefficient above 1 still lies in the open cone after subtracting that
    generator, so it dominates another integral point.  Conversely any
    dominator of a parallelepiped point is itself one, so the minimal points
    of the parallelepiped are exactly the global minimal set.

    The parallelepiped holds exactly one integral point per coset of the
    lattice L of the leading generators, |det| points in all, so those are
    enumerated from one representative per coset (the box of the Hermite
    diagonal of L) shifted into the parallelepiped; see
    ``_parallelepiped_coordinates``.  On the cone coordinates
    c(u) = |det| B^-1 u, for B the matrix of the leading generators,
    "u - w in the closed cone" is the componentwise test c(w) <= c(u), so
    the minimal set is a Pareto minimum, the maxima problem of Kung, Luccio
    and Preparata (1975).  It is taken in its sort-filter skyline form
    (Chomicki et al., 2003): a dominator w of u has c(w) <= c(u) and
    c(w) != c(u), hence a strictly smaller coordinate sum, so after sorting
    by that sum each point needs testing only against the minimal points
    kept before it.  In dimension 2 sorting by (c_1, c_2) turns the test
    into a running minimum of c_2.
    """
    e = system.ambient_dim
    if e == 1:
        # The parallelepiped is (0, v_1] and 1 divides into everything.
        return ((1,),)
    if _parallelepiped_size(system) > CONDUCTOR_ENUMERATION_LIMIT:
        raise ValueError(
            "fundamental parallelepiped too large to enumerate "
            f"({_parallelepiped_size(system)} box points)"
        )
    leading = system.leading()
    bound = abs(determinant(system.leading_matrix()))
    coordinates = _parallelepiped_coordinates(system)
    minimal = _pareto_sweep(coordinates) if e == 2 else _pareto_skyline(coordinates)
    # Back from coordinates to points: u = sum c_i v_i / |det|, exactly.
    return tuple(sorted(
        tuple(sum(c_i * v[j] for c_i, v in zip(c, leading)) // bound for j in range(e))
        for c in minimal
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
    leading = system.leading_matrix()
    det = determinant(leading)
    bound = abs(det)
    sign = 1 if det > 0 else -1
    adj = [[sign * a for a in row] for row in adjugate(leading).rows]
    basis = lattice_basis(system.leading())
    diagonal = [basis.rows[i][i] for i in range(basis.nrows)]
    return [
        tuple((sum(a * x for a, x in zip(row, r)) - 1) % bound + 1 for row in adj)
        for r in itertools.product(*(range(h) for h in diagonal))
    ]


def _pareto_sweep(coordinates: Sequence[Vector]) -> list[Vector]:
    """Componentwise-minimal pairs among distinct pairs.

    After sorting, every earlier pair has a smaller first entry, or an equal
    one and a smaller second, so a pair is dominated exactly when some
    earlier second entry is at most its own.
    """
    minimal = []
    lowest = None
    for c in sorted(coordinates):
        if lowest is None or c[1] < lowest:
            minimal.append(c)
            lowest = c[1]
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


def sylvester_number(v1: int, v2: int) -> int:
    """Largest integer not representable over two coprime generators:
    (v1 - 1) * (v2 - 1) - 1."""
    v1, v2 = as_int(v1), as_int(v2)
    if v1 < 2 or v2 < 2:
        raise ValueError("both generators must be at least 2")
    if math.gcd(v1, v2) != 1:
        raise ValueError(f"generators must be coprime, gcd is {math.gcd(v1, v2)}")
    return (v1 - 1) * (v2 - 1) - 1


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
    position and the standard representation supplies the witness.
    Otherwise a bounded search runs; under the conditions an exceeded budget
    still resolves exactly through the representation's sign criterion,
    while without them it is reported as undecided.
    """
    goal = as_vector(target)
    if any(x < 0 for x in goal):
        raise ValueError("target must have nonnegative coordinates")
    chain = build_chain(system)
    conditions = validate_conditions(system, chain, budget)
    if not chain.contains(goal, chain.level_count):
        return DiophantineAnswer(LATTICE_INFEASIBLE)
    if conditions.all_hold:
        g = frobenius_formula(system, chain)
        if beyond_frobenius(system, g, goal):
            result = membership_fast(system, chain, goal, conditions)
            if not result.in_semigroup:
                raise AssertionError("cone position must certify membership")
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
