"""Generator systems and the chain of groups they span.

A generator system is a list of vectors v_1 .. v_{e+s} in N^e whose first e
entries span R^e and whose remaining entries lie in the cone of the first e.
Adjoining the extra generators one at a time produces a chain of rank-e
subgroups of Z^e; this module builds that chain (gcds of maximal minors,
successive indices, Hermite bases) and answers membership and representation
queries against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InvalidGeneratorsError
from .exactlinalg import (
    IntMatrix,
    Vector,
    as_vector,
    cramer_numerators,
    determinant,
    gcd_maximal_minors,
    lattice_basis,
    solve_lower_triangular,
    solve_square_integer,
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
    """

    ambient_dim: int
    generators: tuple[Vector, ...]

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
        leading = IntMatrix.from_columns(gens[:e])
        det = determinant(leading)
        if det == 0:
            raise InvalidGeneratorsError(
                f"the leading {e} generators do not span R^{e}"
            )
        for i, v in enumerate(gens[e:], start=e + 1):
            nums = cramer_numerators(leading, v)
            if any(n * det < 0 for n in nums):
                raise InvalidGeneratorsError(
                    f"generator {i} lies outside the cone of the leading {e}"
                )

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[int]]) -> "GeneratorSystem":
        vecs = tuple(as_vector(v) for v in vectors)
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


@dataclass(frozen=True)
class StandardRepresentation:
    """Integer coefficients of a group element over the first e+level
    generators, with each extra-generator coefficient reduced below the index
    of its level."""

    level: int
    coefficients: Vector

    def vector(self, system: GeneratorSystem) -> Vector:
        total = (0,) * system.ambient_dim
        for coeff, gen in zip(self.coefficients, system.generators):
            if coeff:
                total = add(total, scale(gen, coeff))
        return total

    def head(self, system: GeneratorSystem) -> Vector:
        """Coefficients of the leading (unconstrained-sign) generators."""
        return self.coefficients[: system.ambient_dim]


@dataclass
class LatticeChain:
    """The chain of groups obtained by adjoining extra generators one by one.

    ``minor_gcds[k]`` is the gcd of the maximal minors of the first e+k
    generators, i.e. the covolume of the level-k group; ``indices[k-1]`` is
    the quotient ``minor_gcds[k-1] // minor_gcds[k]``, the index of level k-1
    inside level k.  ``bases[k]`` is a Hermite basis of the level-k group.

    ``witnesses`` and ``conditions`` start empty and are filled in exactly
    once by ``semigroup.validate_conditions``; after that the object is
    effectively immutable and safe to share between threads.
    """

    system: GeneratorSystem
    minor_gcds: tuple[int, ...]
    indices: tuple[int, ...]
    bases: tuple[IntMatrix, ...]
    witnesses: list[Optional[Vector]] = field(default_factory=list)
    conditions: Optional[object] = None

    @property
    def level_count(self) -> int:
        return len(self.indices)

    def covolume(self, level: int) -> int:
        return self.minor_gcds[level]

    def contains(self, vector: Sequence[int], level: int) -> bool:
        """Fast group-membership test via the Hermite basis."""
        return solve_lower_triangular(self.bases[level], vector) is not None


def build_chain(system: GeneratorSystem) -> LatticeChain:
    """Compute minor gcds, indices and Hermite bases for every level.

    The chain is built even when some index degenerates to 1; consumers that
    need strictly growing groups must check the conditions themselves.
    """
    e = system.ambient_dim
    gens = system.generators
    minor_gcds = []
    bases = []
    for k in range(system.extra_count + 1):
        prefix = gens[: e + k]
        matrix = IntMatrix.from_columns(prefix)
        minor_gcds.append(gcd_maximal_minors(matrix))
        bases.append(lattice_basis(prefix))
    indices = []
    for k in range(1, len(minor_gcds)):
        quotient, remainder = divmod(minor_gcds[k - 1], minor_gcds[k])
        if remainder:
            raise AssertionError(
                "minor gcds must divide along the chain; this is a bug"
            )
        indices.append(quotient)
    return LatticeChain(
        system=system,
        minor_gcds=tuple(minor_gcds),
        indices=tuple(indices),
        bases=tuple(bases),
        witnesses=[None] * system.extra_count,
    )


def group_membership(chain: LatticeChain, vector: Sequence[int], level: int) -> bool:
    """Whether ``vector`` lies in the level-``level`` group.

    Decided by forward substitution against the level's Hermite basis.
    """
    _check_level(chain, level)
    return chain.contains(vector, level)


def multiple_order(chain: LatticeChain, vector: Sequence[int], level: int) -> int:
    """Smallest q >= 1 with q * vector in the level group.

    Equals the covolume of the group divided by the gcd of maximal minors of
    the basis extended by ``vector``; members have order 1.
    """
    _check_level(chain, level)
    v = as_vector(vector)
    if not any(v):
        raise ValueError("multiple_order is undefined for the zero vector")
    extended = chain.bases[level].with_column(v)
    dropped = gcd_maximal_minors(extended)
    quotient, remainder = divmod(chain.minor_gcds[level], dropped)
    if remainder:
        raise AssertionError("extended minor gcd must divide the covolume")
    return quotient


def standard_representation(
    chain: LatticeChain, vector: Sequence[int], level: Optional[int] = None
) -> Optional[StandardRepresentation]:
    """Unique representation with extra coefficients reduced below each index.

    Walks the levels from the top down: at level j the coefficient of the
    j-th extra generator is the unique residue in [0, index_j) whose removal
    lands in the level j-1 group, and existence of such a residue at every
    step characterises membership.  The leading coefficients come from the
    square integer solve at the bottom.  Returns None when ``vector`` is not
    in the level group.
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
        index = chain.indices[j - 1]
        generator = chain.system.generators[e + j - 1]
        basis_below = chain.bases[j - 1]
        for residue in range(index):
            candidate = sub(residual, scale(generator, residue)) if residue else residual
            if solve_lower_triangular(basis_below, candidate) is not None:
                reduced.append(residue)
                residual = candidate
                break
        else:
            return None
    head = solve_square_integer(chain.system.leading_matrix(), residual)
    if head is None:
        # Only reachable at level 0; at higher levels the last residue test
        # already certified membership in the level-0 group.
        return None
    return StandardRepresentation(level, head + tuple(reversed(reduced)))


def _check_level(chain: LatticeChain, level: int) -> None:
    if not 0 <= level <= chain.level_count:
        raise ValueError(
            f"level must be between 0 and {chain.level_count}, got {level}"
        )
