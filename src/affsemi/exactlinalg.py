"""Exact integer linear algebra on small dense matrices.

Everything here runs on Python's arbitrary-precision integers; no floating
point is used anywhere.  The functions are pure and the matrix type is
immutable, so the whole module is safe to use from multiple threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index as _operator_index
from typing import Iterable, Optional, Sequence

from .errors import DimensionError, RankDeficientError

Vector = tuple[int, ...]


def as_int(value) -> int:
    """Coerce to a Python int, rejecting floats and other inexact types."""
    return int(_operator_index(value))


def as_vector(values: Iterable) -> Vector:
    return tuple(as_int(v) for v in values)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, stored row-major."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(as_vector(row) for row in self.rows)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionError("all rows must have the same length")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "IntMatrix":
        return cls(tuple(rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "IntMatrix":
        rows = tuple(zip(*columns))
        if any(len(c) != len(rows) for c in columns):
            raise DimensionError("all columns must have the same length")
        return cls(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.ncols))


def _bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant; mutates its argument."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, n):
                # Exact division: the Bareiss identity guarantees divisibility.
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (sign preserved)."""
    if matrix.nrows != matrix.ncols:
        raise DimensionError(
            f"determinant needs a square matrix, got {matrix.nrows}x{matrix.ncols}"
        )
    return _bareiss([list(row) for row in matrix.rows])


def _minor_determinant(matrix: IntMatrix, column_subset: Sequence[int]) -> int:
    return _bareiss([[row[j] for j in column_subset] for row in matrix.rows])


def gcd_maximal_minors(matrix: IntMatrix) -> int:
    """Gcd of the absolute values of all maximal (nrows x nrows) minors.

    Returns 0 exactly when every maximal minor vanishes, i.e. when the
    columns do not span the full space.  It evaluates the definition
    directly: all C(ncols, nrows) minors, by Bareiss elimination, stopping
    early only once the gcd reaches 1.  It shares no code with
    ``lattice_basis`` and is kept as the reference that the Hermite chain
    (whose diagonal product is the same number) is checked against.
    """
    e, m = matrix.nrows, matrix.ncols
    if e > m:
        raise DimensionError(f"need at least as many columns as rows, got {e}x{m}")
    g = 0
    for subset in itertools.combinations(range(m), e):
        g = math.gcd(g, _minor_determinant(matrix, subset))
        if g == 1:
            return 1
    return g


def lattice_basis(vectors: Iterable[Sequence]) -> IntMatrix:
    """Hermite basis (as columns) of the lattice generated by the vectors.

    The result is a lower-triangular e x e matrix with positive diagonal and
    off-diagonal entries reduced below the diagonal entry of their row; its
    determinant equals the covolume of the lattice.  Raises
    ``RankDeficientError`` when the vectors do not span rank e.
    """
    cols = [list(as_vector(v)) for v in vectors]
    if not cols:
        raise RankDeficientError("no vectors given")
    e = len(cols[0])
    if any(len(c) != e for c in cols):
        raise DimensionError("vectors have differing lengths")
    hermite_reduce(cols, e)
    return IntMatrix(tuple(zip(*cols[:e])))


def hermite_reduce(work: list[list[int]], rank: int) -> None:
    """The reduction behind ``lattice_basis``, in place on columns of exact
    integers; the basis ends up in ``work[:rank]``.

    Only the first ``rank`` coordinates are pivoted on and any further ones
    ride along: every column operation of the reduction is applied to them
    too, so they record which combination of the inputs each basis column
    is (the Hermite form with a transformation matrix, Cohen, "A Course in
    Computational Algebraic Number Theory", section 2.4, keeping only the
    chosen rows).
    """
    n = len(work)
    for i in range(rank):
        # Euclid on row i across columns i..n-1 until one nonzero entry is left.
        while True:
            pivot_at = None
            for j in range(i, n):
                if work[j][i] != 0 and (
                    pivot_at is None or abs(work[j][i]) < abs(work[pivot_at][i])
                ):
                    pivot_at = j
            if pivot_at is None:
                raise RankDeficientError(
                    f"vectors span a lattice of rank below {rank}"
                )
            work[i], work[pivot_at] = work[pivot_at], work[i]
            pivot = work[i][i]
            clean = True
            for j in range(i + 1, n):
                if work[j][i] != 0:
                    q = work[j][i] // pivot
                    if q:
                        work[j] = [a - q * b for a, b in zip(work[j], work[i])]
                    if work[j][i] != 0:
                        clean = False
            if clean:
                break
        if work[i][i] < 0:
            work[i] = [-a for a in work[i]]
        pivot = work[i][i]
        # Normalise earlier columns: entries of row i end up in [0, pivot).
        for j in range(i):
            q = work[j][i] // pivot
            if q:
                work[j] = [a - q * b for a, b in zip(work[j], work[i])]


def cramer_numerators(matrix: IntMatrix, vector: Sequence) -> Vector:
    """Determinants of ``matrix`` with each column replaced by ``vector``.

    For a nonsingular matrix B these are the Cramer numerators of B x = v:
    x_i = result[i] / det(B).
    """
    if matrix.nrows != matrix.ncols:
        raise DimensionError("cramer_numerators needs a square matrix")
    v = as_vector(vector)
    if len(v) != matrix.nrows:
        raise DimensionError("vector length does not match matrix size")
    nums = []
    for i in range(matrix.ncols):
        rows = [
            [v[r] if j == i else matrix.rows[r][j] for j in range(matrix.ncols)]
            for r in range(matrix.nrows)
        ]
        nums.append(_bareiss(rows))
    return tuple(nums)


def solve_lower_triangular(basis: IntMatrix, vector: Sequence) -> Optional[Vector]:
    """Integer forward substitution against a lower-triangular basis.

    ``basis`` must be square, lower-triangular with nonzero diagonal (as
    produced by ``lattice_basis``).  Returns the coefficients expressing
    ``vector`` over the basis columns, or None when ``vector`` is not in the
    lattice.  The entries of ``vector`` must already be exact integers.
    """
    e = basis.nrows
    v = list(vector)
    if len(v) != e:
        raise DimensionError("vector length does not match basis size")
    coeffs = []
    for i in range(e):
        pivot = basis.rows[i][i]
        q, r = divmod(v[i], pivot)
        if r:
            return None
        coeffs.append(q)
        if q:
            col = basis.column(i)
            for k in range(i, e):
                v[k] -= q * col[k]
    return tuple(coeffs)


def adjugate(matrix: IntMatrix) -> IntMatrix:
    """Adjugate A of a square matrix: A @ v = det(M) * solve(M, v)."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise DimensionError("adjugate needs a square matrix")
    if n == 1:
        return IntMatrix.from_rows([[1]])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [matrix.rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            sign = -1 if (i + j) % 2 else 1
            row.append(sign * _bareiss(minor))
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))
