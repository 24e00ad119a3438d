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
    standard_representation,
    sub,
)
from .semigroup import ConditionReport, validate_conditions

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


def reachable_grid(system: GeneratorSystem, upper: Sequence[int]) -> np.ndarray:
    """Boolean grid over [0, upper] marking the semigroup elements.

    Seeds the origin and closes under generator addition; the closure under
    one generator is taken with doubling shifts, and running the generators
    one after another gives the joint closure because addition commutes.
    """
    up = as_vector(upper)
    e = system.ambient_dim
    if len(up) != e:
        raise ValueError("upper bound has wrong dimension")
    if any(u < 0 for u in up):
        raise ValueError("upper bound must be nonnegative")
    shape = tuple(u + 1 for u in up)
    cells = math.prod(shape)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {cells} cells exceeds the safety cap")
    grid = np.zeros(shape, dtype=bool)
    grid[(0,) * e] = True
    _close_under_generators(grid, system.generators, up)
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


def _np_matrix(matrix: IntMatrix) -> np.ndarray:
    return np.array(matrix.rows, dtype=np.int64)


def _int64_safe(*bounds: int) -> bool:
    return all(abs(b) < _INT64_SAFE for b in bounds)


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


def _sweep_int64_safe(
    system: GeneratorSystem, basis: IntMatrix, coord_bound: int
) -> bool:
    """Whether the vectorised cone and lattice sweeps stay inside int64."""
    adj = adjugate(system.leading_matrix())
    adj_max = max(abs(x) for row in adj.rows for x in row)
    e = system.ambient_dim
    cone_bound = adj_max * coord_bound * (e + 1)
    return _int64_safe(cone_bound, _substitution_growth(basis, coord_bound))


def _lattice_mask(basis: IntMatrix, points: np.ndarray) -> np.ndarray:
    """Vectorised membership of row-points in the lattice of ``basis``.

    Forward substitution against the lower-triangular basis; a point is a
    member exactly when every pivot division is exact.
    """
    e = basis.nrows
    work = points.astype(np.int64, copy=True)
    ok = np.ones(points.shape[:-1], dtype=bool)
    for i in range(e):
        pivot = basis.rows[i][i]
        quotient = work[..., i] // pivot
        ok &= work[..., i] - quotient * pivot == 0
        column = np.array(basis.column(i), dtype=np.int64)
        work = work - quotient[..., None] * column
    return ok


def _cone_numerators(system: GeneratorSystem, diffs: np.ndarray) -> np.ndarray:
    """Scaled cone coordinates of row-vectors: adj(B) @ u, sign-corrected.

    Row u lies in the closed cone iff every output entry is >= 0, and in the
    open cone iff every entry is > 0.
    """
    leading = system.leading_matrix()
    det = determinant(leading)
    adj = _np_matrix(adjugate(leading))
    nums = diffs @ adj.T
    return nums if det > 0 else -nums


def _box_points(lower: Vector, upper: Vector) -> np.ndarray:
    """All integer points of [lower, upper] as rows, in lexicographic order."""
    shape = tuple(u - l + 1 for l, u in zip(lower, upper))
    idx = np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T
    return idx + np.array(lower, dtype=np.int64)


def _system_bound(system: GeneratorSystem) -> int:
    return max(max(abs(x) for x in v) for v in system.generators)


def fast_membership_grid(
    system: GeneratorSystem,
    chain: LatticeChain,
    upper: Sequence[int],
    conditions: ConditionReport,
) -> np.ndarray:
    """Sign-criterion membership verdict for every point of [0, upper].

    The standard representation is an affine function of the point within
    each residue class modulo the leading-generator lattice, so one scalar
    representation per class (of which there are only index-product many
    among group points) extends to the whole grid by exact integer affine
    arithmetic.  Produces exactly the verdicts of ``membership_fast``, and
    like it takes the report of ``validate_conditions``.
    """
    if not conditions.all_hold:
        raise ValueError("fast_membership_grid requires validated conditions")
    up = as_vector(upper)
    e = system.ambient_dim
    shape = tuple(u + 1 for u in up)
    if math.prod(shape) > MAX_GRID_CELLS:
        raise ValueError("grid exceeds the safety cap")
    leading = system.leading_matrix()
    det = determinant(leading)
    adj = adjugate(leading)
    base0 = chain.bases[0]
    coord_bound = max(up) + 1
    if not (
        _sweep_int64_safe(system, chain.bases[-1], coord_bound)
        and _int64_safe(_substitution_growth(base0, coord_bound))
    ):
        raise ValueError("entries too large for the vectorised sweep")

    points = _box_points((0,) * e, up)
    in_group = _lattice_mask(chain.bases[-1], points)

    # Canonical residue of each point modulo the leading-generator lattice,
    # encoded in mixed radix along the Hermite diagonal.
    work = points.copy()
    key = np.zeros(len(points), dtype=np.int64)
    stride = 1
    strides = []
    pivots = []
    for i in range(e):
        pivot = base0.rows[i][i]
        quotient = work[:, i] // pivot
        column = np.array(base0.column(i), dtype=np.int64)
        work = work - quotient[:, None] * column
        key += work[:, i] * stride
        strides.append(stride)
        pivots.append(pivot)
        stride *= pivot

    covolume = stride
    offsets = np.zeros((covolume, e), dtype=np.int64)
    adj_np = _np_matrix(adj)
    adj_bound = max(abs(x) for row in adj.rows for x in row)
    for class_key in np.unique(key[in_group]):
        residue = []
        remaining = int(class_key)
        for i in range(e):
            residue.append(remaining % pivots[i])
            remaining //= pivots[i]
        residue_vec = tuple(residue)
        representation = standard_representation(chain, residue_vec)
        if representation is None:
            raise AssertionError(
                "canonical residue of a group point must be a group point"
            )
        # Exact integer arithmetic first; refuse rather than wrap if the
        # class constant cannot ride along in int64.
        for i in range(e):
            offset = det * representation.head(system)[i] - sum(
                adj.rows[i][j] * residue_vec[j] for j in range(e)
            )
            if not _int64_safe(offset, offset + adj_bound * coord_bound * e):
                raise ValueError("entries too large for the vectorised sweep")
            offsets[class_key, i] = offset
    nums = points @ adj_np.T + offsets[key]
    if det < 0:
        nums = -nums
    verdict = in_group & np.all(nums >= 0, axis=1)
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
    upper = add(g, _sweep_span(system, margin))
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
        _system_bound(system),
        max(abs(x) for x in g),
        max(abs(x) for x in upper),
    )
    if _sweep_int64_safe(system, chain.bases[-1], coord_bound):
        points = _box_points(g, upper)
        diffs = points - np.array(g, dtype=np.int64)
        beyond = np.all(_cone_numerators(system, diffs) > 0, axis=1)
        in_group = _lattice_mask(chain.bases[-1], points)
        nonneg = np.all(points >= 0, axis=1)
        member = np.zeros(len(points), dtype=bool)
        rows = points[nonneg]
        member[nonneg] = gamma[tuple(rows[:, j] for j in range(e))]
        bad = beyond & in_group & ~member
        if bad.any():
            first = int(np.argmax(bad))
            return TheoremCheck(False, tuple(int(x) for x in points[first]))
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

    points = _box_points((0,) * e, _sweep_span(system, margin))
    # The cone coordinates are linear, so u - w is in the closed cone
    # exactly when the coordinates of u dominate those of w.
    numerators = _cone_numerators(system, points)
    offset_numerators = _cone_numerators(
        system, np.array(offsets, dtype=np.int64).reshape(-1, e)
    )
    interior = np.all(numerators > 0, axis=1)
    covered = np.zeros(len(points), dtype=bool)
    for w in offset_numerators:
        covered |= np.all(numerators >= w, axis=1)
    if bool(np.any(interior & ~covered)):
        return False

    if any(x < 0 for c in conductor_points for x in c):
        return False
    # Every partial sum of a representation of c lies in [0, c], so the grid
    # up to the largest coordinates decides each conductor point exactly.
    top = tuple(max(c[j] for c in conductor_points) for j in range(e))
    gamma = reachable_grid(system, top)
    return all(gamma[c] for c in conductor_points)


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
            report = validate_conditions(system, chain, condition_budget)
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
