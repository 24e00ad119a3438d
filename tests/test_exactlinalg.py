import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsemi import (
    DimensionError,
    IntMatrix,
    RankDeficientError,
    adjugate,
    cramer_numerators,
    determinant,
    gcd_maximal_minors,
    lattice_basis,
)
from affsemi.exactlinalg import solve_lower_triangular


def columns(*cols):
    return IntMatrix.from_columns(cols)


def cofactor_determinant(matrix):
    """Independent oracle: textbook cofactor expansion along the first row."""
    n = matrix.nrows
    if n == 1:
        return matrix.rows[0][0]
    total = 0
    for j in range(n):
        minor = IntMatrix.from_rows(
            [[row[c] for c in range(n) if c != j] for row in matrix.rows[1:]]
        )
        sign = -1 if j % 2 else 1
        total += sign * matrix.rows[0][j] * cofactor_determinant(minor)
    return total


class TestDeterminant:
    def test_skew_pair(self):
        assert determinant(columns((1, 3), (3, 2))) == -7

    def test_identity(self):
        assert determinant(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1

    def test_planar_pair(self):
        assert determinant(columns((4, 6), (6, 3))) == -24

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(columns((1, 2), (3, 4), (5, 6)))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        matrix = IntMatrix.from_rows(rows)
        assert determinant(matrix) == cofactor_determinant(matrix)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1.5, 2], [3, 4]])


class TestGcdMaximalMinors:
    def test_axes_plus_diagonal(self):
        assert gcd_maximal_minors(columns((8, 0), (0, 8), (2, 2))) == 16

    def test_axes_plus_two(self):
        assert gcd_maximal_minors(columns((8, 0), (0, 8), (2, 2), (12, 8))) == 8

    def test_skew_four(self):
        assert gcd_maximal_minors(columns((4, 6), (6, 3), (8, 10), (3, 4))) == 1

    def test_rank_deficient_gives_zero(self):
        assert gcd_maximal_minors(columns((1, 2), (2, 4), (3, 6))) == 0

    def test_wide_matrix_required(self):
        with pytest.raises(DimensionError):
            gcd_maximal_minors(columns((1, 2, 3),))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=2, max_size=2),
            min_size=2,
            max_size=4,
        ),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_invariant_under_appending_combinations(self, cols, a, b):
        matrix = IntMatrix.from_columns(cols)
        combo = [
            a * cols[0][i] + b * cols[-1][i] for i in range(2)
        ]
        extended = IntMatrix.from_columns(cols + [combo])
        assert gcd_maximal_minors(extended) == gcd_maximal_minors(matrix)


class TestLatticeBasis:
    def test_one_dimensional_gcd(self):
        basis = lattice_basis([(4,), (6,)])
        assert basis.rows == ((2,),)

    def test_determinant_matches_minor_gcd(self):
        vectors = [(8, 0), (0, 8), (2, 2)]
        basis = lattice_basis(vectors)
        assert abs(determinant(basis)) == 16

    def test_unimodular_case(self):
        basis = lattice_basis([(1, 3), (3, 2), (1, 1)])
        assert abs(determinant(basis)) == 1

    def test_lower_triangular_normal_form(self):
        basis = lattice_basis([(8, 0), (0, 8), (2, 2), (12, 8)])
        assert basis.rows[0][1] == 0
        assert basis.rows[0][0] > 0 and basis.rows[1][1] > 0
        assert 0 <= basis.rows[1][0] < basis.rows[1][1]

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            lattice_basis([(1, 2), (2, 4)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-12, 12), min_size=3, max_size=3),
            min_size=3,
            max_size=5,
        )
    )
    def test_basis_determinant_equals_minor_gcd(self, vectors):
        matrix = IntMatrix.from_columns(vectors)
        expected = gcd_maximal_minors(matrix)
        if expected == 0:
            with pytest.raises(RankDeficientError):
                lattice_basis(vectors)
        else:
            assert abs(determinant(lattice_basis(vectors))) == expected


class TestHelpers:
    def test_solve_lower_triangular(self):
        basis = lattice_basis([(8, 0), (0, 8), (2, 2)])
        member = (10, 2)  # (8,0) + (2,2)
        coeffs = solve_lower_triangular(basis, member)
        assert coeffs is not None
        recomposed = tuple(
            sum(c * basis.column(j)[i] for j, c in enumerate(coeffs))
            for i in range(2)
        )
        assert recomposed == member
        assert solve_lower_triangular(basis, (1, 0)) is None

    def test_adjugate_matches_cramer(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 3)
            matrix = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            vector = [rng.randint(-9, 9) for _ in range(n)]
            adj = adjugate(matrix)
            applied = tuple(
                sum(adj.rows[i][j] * vector[j] for j in range(n))
                for i in range(n)
            )
            assert applied == cramer_numerators(matrix, vector)

    def test_gcd_sanity(self):
        assert math.gcd(0, 7) == 7
