"""Independent brute-force verification engine.

Everything here re-derives semigroup facts from first principles (dynamic
programming over boxes, sieves, exhaustive scans) so that the closed-form
results of the other modules can be checked against an implementation that
shares none of their reasoning.  Sweeps over boxes are vectorised with
numpy on small machine integers; coordinates are bounded by the box, so no
exactness is lost.  All verdicts are deterministic; counterexamples are
reported lexicographically smallest first.

The verifications are finite by construction: a passing sweep certifies the
claims on the swept box only.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    InvalidGeneratorsError,
    NotFullLatticeError,
    SearchBudgetExceededError,
)
from .exactlinalg import (
    IntMatrix,
    Vector,
    adjugate,
    as_int,
    as_vector,
    determinant,
)
from .frobenius import beyond_frobenius, frobenius_formula, in_closed_cone
from .lattice import (
    GeneratorSystem,
    LatticeChain,
    add,
    build_chain,
    scale,
    sub,
)
from .semigroup import ConditionReport, ScaledMembershipCheck, membership_bruteforce

#: Hard cap on dense-grid size, as a plain safety net against runaway boxes.
MAX_GRID_CELLS = 80_000_000

#: Cap on the memory of one verification sweep, in bytes (peaks under 1 GB).
MAX_SWEEP_BYTES = 2**29

#: Largest magnitude allowed inside int64 vectorised arithmetic.
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class TheoremCheck:
    holds: bool
    counterexample: Optional[Vector] = None


#: The last grid ``reachable_grid`` built, read-only, with the generators
#: it closes and its upper corner.
_last_grid: Optional[tuple[tuple[Vector, ...], Vector, np.ndarray]] = None


def reachable_grid(system: GeneratorSystem, upper: Sequence[int]) -> np.ndarray:
    """Read-only boolean grid over [0, upper] marking the semigroup elements.

    Seeds the origin and closes under generator addition; the closure under
    one generator is taken with doubling shifts, and running the generators
    one after another gives the joint closure because addition commutes.
    Every partial sum of a representation of a point p lies in [0, p], so
    the grid of a larger box restricted to [0, upper] is the grid of
    [0, upper]: the last grid built is kept, and a request it covers for
    the same generators gets a view of it.  ``verify_theorem1`` and
    ``verify_conductor`` of one system so close the generators once.
    """
    global _last_grid
    up = as_vector(upper)
    e = system.ambient_dim
    if len(up) != e:
        raise ValueError("upper bound has wrong dimension")
    if any(u < 0 for u in up):
        raise ValueError("upper bound must be nonnegative")
    if _last_grid is not None:
        generators, corner, grid = _last_grid
        if generators == system.generators and all(
            u <= c for u, c in zip(up, corner)
        ):
            return grid[tuple(slice(0, u + 1) for u in up)]
    shape = tuple(u + 1 for u in up)
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {cells} cells exceeds the safety cap")
    _last_grid = None
    grid = np.zeros(shape, dtype=bool)
    grid[(0,) * e] = True
    _close_under_generators(grid, system.generators, up)
    grid.flags.writeable = False
    _last_grid = (system.generators, up, grid)
    return grid


def _close_under_generators(
    grid: np.ndarray, generators: Sequence[Vector], upper: Vector
) -> None:
    e = len(upper)
    for gen in generators:
        step = gen
        while all(step[j] <= upper[j] for j in range(e)):
            src = tuple(slice(0, upper[j] + 1 - step[j]) for j in range(e))
            dst = tuple(slice(step[j], upper[j] + 1) for j in range(e))
            grid[dst] |= grid[src]
            step = tuple(2 * x for x in step)


def _coprime_values(generators: Sequence[int]) -> list[int]:
    values = sorted({as_int(g) for g in generators})
    if not values or values[0] < 1:
        raise ValueError("generators must be positive integers")
    if math.gcd(*values) != 1:
        raise ValueError(
            f"generators must be coprime, gcd is {math.gcd(*values)}"
        )
    return values


def numerical_gaps_dp(generators: Sequence[int]) -> tuple[int, ...]:
    """Gap list of a numerical semigroup by a self-extending sieve.

    The sieve grows until it sees min(generators) consecutive representable
    integers; from there on everything is representable, so the gaps below
    that run are all of them.  The table over [0, limit] is the closure of
    the origin under the generators, as in ``reachable_grid``.
    """
    values = _coprime_values(generators)
    smallest = values[0]
    if smallest == 1:
        return ()
    limit = values[-1] * smallest + 1
    while True:
        table = np.zeros(limit + 1, dtype=bool)
        table[0] = True
        _close_under_generators(table, [(v,) for v in values], (limit,))
        # members[k] counts the members below k, so the window of
        # ``smallest`` integers from k is full when the difference is.
        members = np.concatenate(([0], np.cumsum(table, dtype=np.int64)))
        full = np.flatnonzero(members[smallest:] - members[:-smallest] == smallest)
        if full.size:
            first_safe = int(full[0])
            return tuple((np.flatnonzero(~table[1:first_safe]) + 1).tolist())
        limit *= 2


def frobenius_number_dp(generators: Sequence[int]) -> int:
    """Largest non-representable integer, from the sieve (-1 when none)."""
    gap_list = numerical_gaps_dp(generators)
    return gap_list[-1] if gap_list else -1


def _int64_safe(*bounds: int) -> bool:
    return all(abs(b) < _INT64_SAFE for b in bounds)


@functools.lru_cache(maxsize=1)
def _cone_map(system: GeneratorSystem) -> IntMatrix:
    """sign(det) adj(B) for the leading block B, so that the map sends u to
    |det| B^-1 u.  Each public entry computes it from the generators alone
    and hands it to the sweeps; the last one is kept, so the two sweeps of
    one system compute it once."""
    leading = system.leading_matrix()
    sign = 1 if determinant(leading) > 0 else -1
    adj = adjugate(leading)
    return IntMatrix(tuple(tuple(sign * a for a in row) for row in adj.rows))


def _substitution_growth(basis: IntMatrix, coord_bound: int) -> int:
    """Conservative magnitude bound for forward substitution against
    ``basis`` starting from coordinates of size ``coord_bound``.

    Each elimination step can add |quotient| * |column entry| to a
    coordinate, and the quotient is at most the current magnitude, so the
    bound multiplies by (1 + max column entry) per step.
    """
    growth = max(coord_bound, 1)
    for i in range(basis.nrows):
        col_max = max(abs(x) for x in basis.column(i))
        growth *= 1 + col_max
    return growth


def _sweep_int64_safe(cone_map: IntMatrix, basis: IntMatrix, coord_bound: int) -> bool:
    """Whether the vectorised cone and lattice sweeps stay inside int64,
    decided on exact integers before anything reaches numpy."""
    adj_max = max(abs(x) for row in cone_map.rows for x in row)
    cone_bound = adj_max * coord_bound * (cone_map.nrows + 1)
    return _int64_safe(cone_bound, _substitution_growth(basis, coord_bound))


def _substitute(basis: IntMatrix, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised forward substitution of row-points against the
    lower-triangular ``basis``.

    Returns the mask of points in its lattice (every pivot division exact)
    and the coordinates over its columns, which are exact for those points.
    """
    e = basis.nrows
    work = points.astype(np.int64, copy=True)
    ok = np.ones(points.shape[:-1], dtype=bool)
    coordinates = np.empty_like(work)
    for i in range(e):
        pivot = basis.rows[i][i]
        quotient = work[..., i] // pivot
        ok &= work[..., i] - quotient * pivot == 0
        coordinates[..., i] = quotient
        column = np.array(basis.column(i), dtype=np.int64)
        work = work - quotient[..., None] * column
    return ok, coordinates


def _cone_numerators(cone_map: IntMatrix, diffs: np.ndarray) -> np.ndarray:
    """Scaled cone coordinates of row-vectors, ``cone_map`` @ u.

    Row u lies in the closed cone iff every output entry is >= 0, and in the
    open cone iff every entry is > 0.
    """
    return diffs @ np.array(cone_map.rows, dtype=np.int64).T


def _box_numerators(
    cone_map: IntMatrix, span: Vector, dtype: type = np.int64
) -> list[np.ndarray]:
    """``cone_map`` @ u for every point u of the box [0, span], one array
    of the box's shape per cone coordinate.

    The map is linear, so row k is the sum over axes j of
    cone_map[k][j] * (the range of axis j), broadcast along that axis; no
    array of points is built.
    """
    e = len(span)
    ranges = [
        np.arange(s + 1, dtype=dtype).reshape((-1,) + (1,) * (e - 1 - j))
        for j, s in enumerate(span)
    ]
    shape = tuple(s + 1 for s in span)
    numerators = []
    for row in cone_map.rows:
        total = np.zeros(shape, dtype=dtype)
        for a, axis in zip(row, ranges):
            if a:
                total = total + a * axis
        numerators.append(total)
    return numerators


def _box_points(lower: Vector, upper: Vector) -> np.ndarray:
    """All integer points of [lower, upper] as rows, in lexicographic order."""
    shape = tuple(u - l + 1 for l, u in zip(lower, upper))
    idx = np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T
    return idx + np.array(lower, dtype=np.int64)


def fast_membership_grid(
    system: GeneratorSystem,
    chain: LatticeChain,
    upper: Sequence[int],
    conditions: ConditionReport,
) -> np.ndarray:
    """Sign-criterion membership verdict for every point of [0, upper].

    The level walk of ``standard_representation`` run on every point at
    once: from the top level down, forward substitution against the level's
    Hermite basis gives coordinates whose tag sum, modulo the index, is the
    residue of the level's generator, and that many copies are removed.  A
    group point is a member exactly when the cone numerators of what is
    left are all nonnegative.  Produces the verdicts of ``membership_fast``,
    and like it takes the report of the conditions on the same system.
    """
    if not conditions.all_hold:
        raise ValueError("fast_membership_grid requires validated conditions")
    up = as_vector(upper)
    e = system.ambient_dim
    shape = tuple(u + 1 for u in up)
    if math.prod(shape) > MAX_GRID_CELLS:
        raise ValueError("grid exceeds the safety cap")
    cone_map = _cone_map(system)
    extras = system.extras()
    # Removing fewer than index_j copies of each v_j keeps every residual
    # within this bound; tags and reduced coordinates stay below the index.
    bound = max(up) + 1 + sum(
        (index - 1) * max(v) for index, v in zip(chain.indices, extras)
    )
    if not (
        all(_sweep_int64_safe(cone_map, basis, bound) for basis in chain.bases)
        and _int64_safe(e * max(chain.indices, default=1) ** 2)
    ):
        raise ValueError("entries too large for the vectorised sweep")
    residual = _box_points((0,) * e, up)
    in_group = _substitute(chain.bases[-1], residual)[0]
    for j in range(chain.level_count, 0, -1):
        index = chain.indices[j - 1]
        coordinates = _substitute(chain.bases[j], residual)[1]
        residue = (coordinates % index) @ np.array(chain.tags[j - 1]) % index
        residual = residual - residue[:, None] * np.array(extras[j - 1])
    verdict = in_group & np.all(_cone_numerators(cone_map, residual) >= 0, axis=1)
    return verdict.reshape(shape)


def _sweep_span(system: GeneratorSystem, margin: int) -> Vector:
    """margin * (sum of the leading generators): the extent of the box that
    both verification sweeps scan, refused before anything is allocated
    when its arrays would pass MAX_SWEEP_BYTES: at its peak a sweep holds
    about seven int64 arrays of e entries per box cell (measured: 52, 92, 155
    and 200 bytes a cell for e = 1, 2, 3, 4)."""
    envelope = system.leading()[0]
    for v in system.leading()[1:]:
        envelope = add(envelope, v)
    span = scale(envelope, margin)
    cells = math.prod(s + 1 for s in span)
    if cells * 7 * 8 * system.ambient_dim > MAX_SWEEP_BYTES:
        raise ValueError(f"verification box of {cells} cells exceeds the safety cap")
    return span


def verify_theorem1(
    system: GeneratorSystem,
    chain: LatticeChain,
    g: Sequence[int],
    margin: int = 3,
) -> TheoremCheck:
    """Scan a finite box for violations of the two Frobenius-vector claims.

    The box runs from g to g + margin * (sum of the leading generators),
    coordinate-wise.  The check fails if g itself is in the semigroup, or if
    some group point strictly beyond g inside the open cone is missing from
    the semigroup's dynamic-programming enumeration.
    """
    g = as_vector(g)
    e = system.ambient_dim
    span = _sweep_span(system, margin)
    upper = add(g, span)
    grid_upper = tuple(max(u, 0) for u in upper)
    gamma = reachable_grid(system, grid_upper)

    def in_gamma(point: Vector) -> bool:
        if any(x < 0 for x in point):
            return False
        if any(point[j] > grid_upper[j] for j in range(e)):
            raise AssertionError("semigroup grid does not cover the sweep box")
        return bool(gamma[point])

    if in_gamma(g):
        return TheoremCheck(False, g)

    coord_bound = max(
        max(max(v) for v in system.generators),
        max(abs(x) for x in g),
        max(abs(x) for x in upper),
    )
    cone_map = _cone_map(system)
    if _sweep_int64_safe(cone_map, chain.bases[-1], coord_bound):
        # Arrays of the box's shape, indexed by the offset from g; C order
        # is the lexicographic order of the points.
        shape = tuple(s + 1 for s in span)
        bad = np.ones(shape, dtype=bool)
        for numerator in _box_numerators(cone_map, span):
            bad &= numerator > 0
        if chain.minor_gcds[-1] != 1:
            bad &= _substitute(chain.bases[-1], _box_points(g, upper))[0].reshape(shape)
        # The members: the part of the box in the orthant is a slice of
        # the grid.
        if all(u >= 0 for u in upper):
            inside = tuple(slice(max(-x, 0), None) for x in g)
            bad[inside] &= ~gamma[tuple(slice(max(x, 0), u + 1) for x, u in zip(g, upper))]
        if bad.any():
            first = np.unravel_index(int(np.argmax(bad)), shape)
            return TheoremCheck(False, tuple(x + int(i) for x, i in zip(g, first)))
        return TheoremCheck(True)

    for point in _iterate_box(g, upper):
        if not beyond_frobenius(system, g, point):
            continue
        if not chain.contains(point, chain.level_count):
            continue
        if not in_gamma(point):
            return TheoremCheck(False, point)
    return TheoremCheck(True)


def _iterate_box(lower: Vector, upper: Vector) -> Iterator[Vector]:
    ranges = [range(lo, up + 1) for lo, up in zip(lower, upper)]
    return itertools.product(*ranges)


def verify_conductor(
    system: GeneratorSystem,
    chain: LatticeChain,
    conductor: Sequence[Sequence[int]],
    margin: int = 3,
) -> bool:
    """Check the two conductor claims on a finite box.

    First, every integral point strictly inside the cone, up to
    margin * (sum of leading generators), must dominate some translate
    offset (closed-cone order).  Second, each conductor point is a member;
    since S + S lies in S, its translates by the semigroup are members too.
    """
    if chain.minor_gcds[-1] != 1:
        raise NotFullLatticeError(
            "conductor verification needs generators spanning all of Z^e"
        )
    e = system.ambient_dim
    conductor_points = [as_vector(c) for c in conductor]
    g = frobenius_formula(system, chain)
    offsets = [sub(c, g) for c in conductor_points]
    span = _sweep_span(system, margin)

    # The cone coordinates are linear, so u - w is in the closed cone
    # exactly when the coordinates of u dominate those of w.  Numerators that
    # could pass int64 (offsets far from the origin, or a cone map of huge
    # entries on a small box) are taken on exact Python integers.
    cone_map = _cone_map(system)
    reach = max(abs(x) for v in (span, *offsets) for x in v)
    adj_max = max(abs(x) for row in cone_map.rows for x in row)
    dtype = np.int64 if _int64_safe(adj_max * reach * e) else object
    numerators = [n.ravel() for n in _box_numerators(cone_map, span, dtype)]
    offset_numerators = (
        np.array(offsets, dtype=dtype).reshape(-1, e)
        @ np.array(cone_map.rows, dtype=dtype).T
    )
    uncovered = np.logical_and.reduce([n > 0 for n in numerators])
    # The interior points covered by an offset are struck off with a
    # boolean (points x offsets) array, built by & over the coordinates;
    # the offsets go in chunks that keep the array and its comparison
    # temporary under MAX_SWEEP_BYTES together.
    chunk = max(1, MAX_SWEEP_BYTES // (2 * len(uncovered)))
    for start in range(0, len(offset_numerators), chunk):
        block = offset_numerators[start : start + chunk]
        dominates = numerators[0][:, None] >= block[:, 0]
        for j in range(1, e):
            dominates &= numerators[j][:, None] >= block[:, j]
        uncovered &= ~dominates.any(axis=1)
    if bool(np.any(uncovered)):
        return False

    if any(x < 0 for c in conductor_points for x in c):
        return False
    # Every partial sum of a representation of c lies in [0, c], so the grid
    # up to the largest coordinates decides each conductor point exactly.
    top = tuple(max(c[j] for c in conductor_points) for j in range(e))
    gamma = reachable_grid(system, top)
    return all(gamma[c] for c in conductor_points)


def searched_conditions(
    system: GeneratorSystem,
    chain: LatticeChain,
    search_budget: Optional[int] = None,
) -> ConditionReport:
    """Both chain conditions decided by the bounded search alone, up to the
    first level failing either one: the reference for
    ``semigroup.decide_conditions``.  Raises ``SearchBudgetExceededError``
    when a level's search visits more than ``search_budget`` nodes."""
    violation = next((k for k, i in enumerate(chain.indices, 1) if i == 1), None)
    e = system.ambient_dim
    checks = []
    for k in range(1, (violation or system.extra_count) + 1):
        target = scale(system.generators[e + k - 1], chain.indices[k - 1])
        predecessors = system.generators[: e + k - 1]
        witness = membership_bruteforce(predecessors, target, search_budget)
        checks.append(ScaledMembershipCheck(k, witness is not None, witness))
        if witness is None:
            break
    return ConditionReport(violation is None, violation, tuple(checks))


def random_conditioned_system(
    rng: random.Random,
    ambient_dim: int,
    extra_count: int,
    max_entry: int = 12,
    max_index_product: int = 150,
    max_box_volume: int = 2_500_000,
    condition_budget: int = 200_000,
    max_attempts: int = 20_000,
) -> tuple[GeneratorSystem, LatticeChain, ConditionReport]:
    """Draw a random generator system satisfying both chain conditions.

    Rejection sampling over nonnegative entries bounded by ``max_entry``;
    candidates are discarded when their leading block is singular, an extra
    generator falls outside the cone or fails to enlarge the group, a
    condition fails, or the instance would be too large to sweep (index
    product and box-volume caps keep downstream verification fast).
    """
    e = ambient_dim
    for _ in range(max_attempts):
        if e == 1:
            vectors = [(rng.randint(2, max_entry),)]
        else:
            vectors = [
                tuple(rng.randint(0, max_entry) for _ in range(e))
                for _ in range(e)
            ]
        try:
            leading_system = GeneratorSystem(e, tuple(vectors))
        except InvalidGeneratorsError:
            continue
        ok = True
        for _ in range(extra_count):
            extra = _random_cone_vector(rng, leading_system, max_entry)
            if extra is None:
                ok = False
                break
            vectors.append(extra)
        if not ok:
            continue
        try:
            system = GeneratorSystem(e, tuple(vectors))
        except InvalidGeneratorsError:
            continue
        chain = build_chain(system)
        if any(
            chain.minor_gcds[k] == chain.minor_gcds[k - 1]
            for k in range(1, len(chain.minor_gcds))
        ):
            continue
        if math.prod(chain.indices) > max_index_product:
            continue
        total = (0,) * e
        for v in system.generators:
            total = add(total, v)
        if math.prod(3 * t + 1 for t in total) > max_box_volume:
            continue
        g = frobenius_formula(system, chain)
        envelope = system.leading()[0]
        for v in system.leading()[1:]:
            envelope = add(envelope, v)
        sweep_upper = add(g, scale(envelope, 3))
        if math.prod(max(u, 0) + 1 for u in sweep_upper) > max_box_volume:
            continue
        try:
            report = searched_conditions(system, chain, condition_budget)
        except SearchBudgetExceededError:
            continue
        if not report.all_hold:
            continue
        return system, chain, report
    raise RuntimeError(
        f"no conditioned system found in {max_attempts} attempts"
    )


def _random_cone_vector(
    rng: random.Random, leading_system: GeneratorSystem, max_entry: int
) -> Optional[Vector]:
    e = leading_system.ambient_dim
    if e == 1:
        return (rng.randint(1, max_entry),)
    for _ in range(200):
        candidate = tuple(rng.randint(0, max_entry) for _ in range(e))
        if not any(candidate):
            continue
        if in_closed_cone(leading_system, candidate):
            return candidate
    return None
