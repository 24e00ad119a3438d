"""Generator systems and the chain of groups they span.

A generator system is a list of vectors v_1 .. v_{e+s} in N^e whose first e
entries span R^e and whose remaining entries lie in the cone of the first e.
Adjoining the extra generators one at a time produces a chain of rank-e
subgroups of Z^e; this module builds that chain (covolumes, successive
indices, Hermite bases) by one tagged Hermite insertion per generator and
answers membership and representation queries against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DimensionError, InvalidGeneratorsError
from .exactlinalg import (
    IntMatrix,
    Vector,
    adjugate,
    as_vector,
    determinant,
    hermite_reduce,
    lattice_basis,
    solve_lower_triangular,
)


def scale(vector: Sequence[int], factor: int) -> Vector:
    return tuple(factor * x for x in vector)


def add(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


@dataclass(frozen=True)
class GeneratorSystem:
    """Ordered generators of an affine subsemigroup of N^e.

    Invariants checked at construction time:

    * every generator is a nonzero vector of nonnegative integers of length
      ``ambient_dim``;
    * the leading ``ambient_dim`` generators span R^e;
    * every later generator lies in the (closed) cone of the leading ones.

    ``det`` is the determinant of the leading block B (columns v_1 .. v_e)
    and ``cone_map`` its adjugate times sign(det), so that
    ``cone_coordinates`` is |det| B^-1; both are derived from the generators
    and take no part in equality or hashing.
    """

    ambient_dim: int
    generators: tuple[Vector, ...]
    det: int = field(init=False, repr=False, compare=False)
    cone_map: tuple[Vector, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = self.ambient_dim
        gens = tuple(as_vector(v) for v in self.generators)
        object.__setattr__(self, "generators", gens)
        if e < 1:
            raise InvalidGeneratorsError("ambient dimension must be at least 1")
        if len(gens) < e:
            raise InvalidGeneratorsError(
                f"need at least {e} generators, got {len(gens)}"
            )
        for i, v in enumerate(gens):
            if len(v) != e:
                raise InvalidGeneratorsError(
                    f"generator {i + 1} has length {len(v)}, expected {e}"
                )
            if any(x < 0 for x in v):
                raise InvalidGeneratorsError(
                    f"generator {i + 1} has a negative coordinate"
                )
            if not any(v):
                raise InvalidGeneratorsError(f"generator {i + 1} is the zero vector")
        leading = IntMatrix(tuple(zip(*gens[:e])))
        det = determinant(leading)
        if det == 0:
            raise InvalidGeneratorsError(
                f"the leading {e} generators do not span R^{e}"
            )
        sign = 1 if det > 0 else -1
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "cone_map", tuple(
            tuple(sign * a for a in row) for row in adjugate(leading).rows
        ))
        for i, v in enumerate(gens[e:], start=e + 1):
            if any(c < 0 for c in self.cone_coordinates(v)):
                raise InvalidGeneratorsError(
                    f"generator {i} lies outside the cone of the leading {e}"
                )

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[int]]) -> "GeneratorSystem":
        vecs = tuple(vectors)
        if not vecs:
            raise InvalidGeneratorsError("no generators given")
        return cls(len(vecs[0]), vecs)

    @property
    def extra_count(self) -> int:
        """Number of generators beyond the leading full-rank block."""
        return len(self.generators) - self.ambient_dim

    def leading(self) -> tuple[Vector, ...]:
        return self.generators[: self.ambient_dim]

    def extras(self) -> tuple[Vector, ...]:
        return self.generators[self.ambient_dim :]

    def leading_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(self.leading())

    def cone_coordinates(self, vector: Sequence[int]) -> Vector:
        """|det| B^-1 v, the integer-scaled coordinates of ``vector`` over
        the leading generators: all >= 0 in the closed cone, all > 0 in the
        open cone, all divisible by |det| in their lattice.
        """
        v = as_vector(vector)
        if len(v) != self.ambient_dim:
            raise DimensionError(
                f"vector has length {len(v)}, expected {self.ambient_dim}"
            )
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.cone_map)


@dataclass(frozen=True)
class StandardRepresentation:
    """Integer coefficients of a group element over the first e+level
    generators, with each extra-generator coefficient reduced below the index
    of its level."""

    level: int
    coefficients: Vector

    def head(self, system: GeneratorSystem) -> Vector:
        """Coefficients of the leading (unconstrained-sign) generators."""
        return self.coefficients[: system.ambient_dim]


@dataclass(frozen=True)
class LatticeChain:
    """The chain of groups obtained by adjoining extra generators one by one.

    ``minor_gcds[k]`` is the gcd of the maximal minors of the first e+k
    generators, i.e. the covolume of the level-k group; ``indices[k-1]`` is
    the quotient ``minor_gcds[k-1] // minor_gcds[k]``, the index of level k-1
    inside level k.  ``bases[k]`` is a Hermite basis of the level-k group.
    ``tags[k-1][i]`` is the coefficient, modulo ``indices[k-1]``, of the k-th
    extra generator in column i of ``bases[k]``: that column minus the tag
    times the generator lies in the level k-1 group.
    """

    system: GeneratorSystem
    minor_gcds: tuple[int, ...]
    indices: tuple[int, ...]
    bases: tuple[IntMatrix, ...]
    tags: tuple[Vector, ...]

    @property
    def level_count(self) -> int:
        return len(self.indices)

    def contains(self, vector: Sequence[int], level: int) -> bool:
        """Fast group-membership test via the Hermite basis."""
        return solve_lower_triangular(self.bases[level], as_vector(vector)) is not None


def build_chain(system: GeneratorSystem) -> LatticeChain:
    """Compute covolumes, indices, Hermite bases and tags for every level.

    Each extra generator is adjoined to the Hermite basis of the level below
    by one tagged insertion (``_insert``), so level k costs one reduction of
    e + 1 columns whatever k.  The covolume is the product of the Hermite
    diagonal.  The chain is built even when some index degenerates to 1;
    consumers that need strictly growing groups must check the conditions
    themselves.
    """
    basis = lattice_basis(system.leading())
    minor_gcds = [_covolume(basis)]
    bases = [basis]
    indices = []
    tags = []
    for extra in system.extras():
        basis, tag = _insert(basis, extra)
        index = _index(minor_gcds[-1], basis)
        minor_gcds.append(minor_gcds[-1] // index)
        bases.append(basis)
        indices.append(index)
        tags.append(tuple(t % index for t in tag))
    return LatticeChain(
        system=system,
        minor_gcds=tuple(minor_gcds),
        indices=tuple(indices),
        bases=tuple(bases),
        tags=tuple(tags),
    )


def _insert(basis: IntMatrix, vector: Vector) -> tuple[IntMatrix, Vector]:
    """Hermite basis of the lattice of ``basis`` plus ``vector``, with tags.

    The columns [basis | vector] carry one extra row, 0 on the basis and 1
    on ``vector``, which the reduction applies every column operation to
    without pivoting on it.  Each new basis column then ends in its
    coefficient of ``vector`` over the old lattice.
    """
    e = basis.nrows
    work = [list(column) + [0] for column in basis.columns()] + [list(vector) + [1]]
    hermite_reduce(work, e)
    rows = tuple(zip(*work[:e]))
    return IntMatrix(rows[:e]), rows[e]


def _covolume(basis: IntMatrix) -> int:
    """Determinant of a Hermite basis: the product of its diagonal."""
    return math.prod(basis.rows[i][i] for i in range(basis.nrows))


def _index(covolume: int, basis: IntMatrix) -> int:
    """Index of a lattice of the given covolume inside the lattice of
    ``basis``, which contains it."""
    quotient, remainder = divmod(covolume, _covolume(basis))
    if remainder:
        raise AssertionError(
            "covolumes must divide along the chain; this is a bug"
        )
    return quotient


def standard_representation(
    chain: LatticeChain, vector: Sequence[int], level: Optional[int] = None
) -> Optional[StandardRepresentation]:
    """Unique representation with extra coefficients reduced below each index.

    Walks the levels from the top down: at level j the coefficient of the
    j-th extra generator is the unique residue in [0, index_j) whose removal
    lands in the level j-1 group.  Writing the vector as y over the Hermite
    basis of level j (forward substitution), that residue is
    sum(y_i * tag_i) mod index_j, so each level costs O(e^2) whatever its
    index.  The leading coefficients are the cone coordinates of what is
    left, divided by |det|.  Returns None when ``vector`` is not in the
    level group.
    """
    if level is None:
        level = chain.level_count
    _check_level(chain, level)
    e = chain.system.ambient_dim
    residual = as_vector(vector)
    if len(residual) != e:
        raise ValueError(f"vector has length {len(residual)}, expected {e}")
    reduced: list[int] = []
    for j in range(level, 0, -1):
        coordinates = solve_lower_triangular(chain.bases[j], residual)
        if coordinates is None:
            # Only reachable at the top level: below it the residual stays
            # in the group of the level it is solved against.
            return None
        residue = sum(
            y * t for y, t in zip(coordinates, chain.tags[j - 1])
        ) % chain.indices[j - 1]
        reduced.append(residue)
        if residue:
            residual = sub(residual, scale(chain.system.generators[e + j - 1], residue))
    bound = abs(chain.system.det)
    coordinates = chain.system.cone_coordinates(residual)
    if any(c % bound for c in coordinates):
        # Only reachable at level 0; at higher levels the residual is
        # already certified to lie in the level-0 group.
        return None
    head = tuple(c // bound for c in coordinates)
    return StandardRepresentation(level, head + tuple(reversed(reduced)))


def _check_level(chain: LatticeChain, level: int) -> None:
    if not 0 <= level <= chain.level_count:
        raise ValueError(
            f"level must be between 0 and {chain.level_count}, got {level}"
        )
