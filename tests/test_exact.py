"""Tests for the exact fraction-free solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srmec.exact import solve_exact


def reference_gauss_jordan(matrix, rhs):
    """Plain Fraction Gauss-Jordan with partial pivoting, the reference
    the integer elimination must agree with."""
    n = len(rhs)
    work = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col]))
        if work[pivot_row][col] == 0:
            raise ValueError(f"matrix is singular: no pivot in column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        for row in range(n):
            if row != col and work[row][col] != 0:
                factor = work[row][col] / work[col][col]
                work[row] = [work[row][k] - factor * work[col][k] for k in range(n + 1)]
    return [work[i][n] / work[i][i] for i in range(n)]


def residual_exact(matrix, rhs, solution):
    """Exact residual matrix @ solution - rhs, in Fractions."""
    return [
        sum(Fraction(a) * x for a, x in zip(row, solution)) - Fraction(b) for row, b in zip(matrix, rhs)
    ]


# Floats of either sign with magnitudes spread over 1e-300 .. 1e300.
wide_floats = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1.0, max_value=9.999),
    st.integers(min_value=-300, max_value=299),
)


@st.composite
def float_systems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    matrix = [[draw(wide_floats) for _ in range(n)] for _ in range(n)]
    rhs = [draw(wide_floats) for _ in range(n)]
    return matrix, rhs


@settings(max_examples=100, deadline=None)
@given(float_systems())
def test_matches_fraction_gauss_jordan_on_wide_float_systems(system):
    matrix, rhs = system
    try:
        expected = reference_gauss_jordan(matrix, rhs)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            solve_exact(matrix, rhs)
        return
    assert solve_exact(matrix, rhs) == expected


def test_int_and_fraction_entries_match_reference():
    matrix = [
        [Fraction(3, 7), 2, Fraction(-5, 3)],
        [1, Fraction(1, 9), 4],
        [Fraction(-2, 5), 6, 1],
    ]
    rhs = [Fraction(1, 3), -2, Fraction(7, 11)]
    x = solve_exact(matrix, rhs)
    assert x == reference_gauss_jordan(matrix, rhs)
    assert all(r == 0 for r in residual_exact(matrix, rhs, x))


def test_mixed_int_float_fraction_row():
    matrix = [[1, 0.5, Fraction(1, 3)], [0.25, Fraction(2, 5), 3], [7, -1.75, Fraction(-1, 6)]]
    rhs = [0.1, Fraction(1, 10), 2]
    assert solve_exact(matrix, rhs) == reference_gauss_jordan(matrix, rhs)


def test_zero_diagonal_forces_row_swap():
    # Every diagonal entry is zero, so each step must pivot off-diagonal.
    matrix = [[0.0, 2.5, 1.0], [3.0, 0.0, -1.5], [1e-3, 4.0, 0.0]]
    rhs = [1.0, -2.0, 0.5]
    x = solve_exact(matrix, rhs)
    assert x == reference_gauss_jordan(matrix, rhs)
    assert all(r == 0 for r in residual_exact(matrix, rhs, x))


def test_exactly_singular_float_system_rejected():
    # Third row is the exact sum of the first two.
    matrix = [[0.5, 1.25, -3.0], [2.0, -0.75, 1.5], [2.5, 0.5, -1.5]]
    with pytest.raises(ValueError, match="singular: no pivot in column 2"):
        solve_exact(matrix, [1.0, 2.0, 3.0])


def test_identity_system():
    x = solve_exact([[1, 0], [0, 1]], [3.5, -2.25])
    assert x == [Fraction(7, 2), Fraction(-9, 4)]


def test_diagonal_system():
    x = solve_exact([[4, 0, 0], [0, 8, 0], [0, 0, 16]], [1, 1, 1])
    assert x == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]


def test_known_2x2():
    # x + y = 3, x - y = 1 -> x=2, y=1
    x = solve_exact([[1, 1], [1, -1]], [3, 1])
    assert x == [Fraction(2), Fraction(1)]


def test_residual_is_exactly_zero():
    random.seed(11)
    for _ in range(20):
        n = random.randint(1, 6)
        a = [[Fraction(random.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        # Make strictly diagonally dominant so the matrix is nonsingular.
        for i in range(n):
            a[i][i] = Fraction(sum(abs(v) for v in a[i]) + 1)
        b = [Fraction(random.randint(-20, 20)) for _ in range(n)]
        x = solve_exact(a, b)
        assert all(r == 0 for r in residual_exact(a, b, x))


def test_float_entries_are_converted_exactly():
    # 0.1 is not exactly 1/10 in binary; the solver must treat the float
    # value itself as the coefficient, so x = b / fl(0.1) exactly.
    x = solve_exact([[0.1]], [1.0])
    assert x[0] == 1 / Fraction(0.1)
    assert x[0] != 10


def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="singular"):
        solve_exact([[1, 2], [2, 4]], [1, 2])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="matrix must be"):
        solve_exact([[1, 2]], [1, 2])


def test_empty_system():
    assert solve_exact([], []) == []


def test_pivoting_handles_zero_leading_entry():
    # First pivot position is zero; partial pivoting must swap rows.
    x = solve_exact([[0, 1], [1, 0]], [5, 7])
    assert x == [Fraction(7), Fraction(5)]
