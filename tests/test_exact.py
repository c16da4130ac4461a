"""Tests for the exact fraction-free solver."""

import ast
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from srmec import exact, network
from srmec.exact import CHUNK_SYSTEMS, solve_exact


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


# No shrink or explain phase, as stack_settings below: on a failure they
# spend minutes on systems of 300-decade floats.
@settings(max_examples=100, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(float_systems())
def test_matches_fraction_gauss_jordan_on_wide_float_systems(system):
    matrix, rhs = system
    try:
        expected = reference_gauss_jordan(matrix, rhs)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            solve_exact(matrix, rhs)
        return
    assert solve_exact(matrix, rhs).fractions() == expected


def test_int_and_fraction_entries_match_reference():
    matrix = [
        [Fraction(3, 7), 2, Fraction(-5, 3)],
        [1, Fraction(1, 9), 4],
        [Fraction(-2, 5), 6, 1],
    ]
    rhs = [Fraction(1, 3), -2, Fraction(7, 11)]
    x = solve_exact(matrix, rhs).fractions()
    assert x == reference_gauss_jordan(matrix, rhs)
    assert all(r == 0 for r in residual_exact(matrix, rhs, x))


def test_mixed_int_float_fraction_row():
    matrix = [[1, 0.5, Fraction(1, 3)], [0.25, Fraction(2, 5), 3], [7, -1.75, Fraction(-1, 6)]]
    rhs = [0.1, Fraction(1, 10), 2]
    assert solve_exact(matrix, rhs).fractions() == reference_gauss_jordan(matrix, rhs)


def test_zero_diagonal_forces_row_swap():
    # Every diagonal entry is zero, so each step must pivot off-diagonal.
    matrix = [[0.0, 2.5, 1.0], [3.0, 0.0, -1.5], [1e-3, 4.0, 0.0]]
    rhs = [1.0, -2.0, 0.5]
    x = solve_exact(matrix, rhs).fractions()
    assert x == reference_gauss_jordan(matrix, rhs)
    assert all(r == 0 for r in residual_exact(matrix, rhs, x))


def test_exactly_singular_float_system_rejected():
    # Third row is the exact sum of the first two.
    matrix = [[0.5, 1.25, -3.0], [2.0, -0.75, 1.5], [2.5, 0.5, -1.5]]
    with pytest.raises(ValueError, match="singular: no pivot in column 2"):
        solve_exact(matrix, [1.0, 2.0, 3.0])


def test_identity_system():
    x = solve_exact([[1, 0], [0, 1]], [3.5, -2.25]).fractions()
    assert x == [Fraction(7, 2), Fraction(-9, 4)]


def test_diagonal_system():
    x = solve_exact([[4, 0, 0], [0, 8, 0], [0, 0, 16]], [1, 1, 1]).fractions()
    assert x == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]


def test_known_2x2():
    # x + y = 3, x - y = 1 -> x=2, y=1
    x = solve_exact([[1, 1], [1, -1]], [3, 1]).fractions()
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
        x = solve_exact(a, b).fractions()
        assert all(r == 0 for r in residual_exact(a, b, x))


def test_float_entries_are_converted_exactly():
    # 0.1 is not exactly 1/10 in binary; the solver must treat the float
    # value itself as the coefficient, so x = b / fl(0.1) exactly.
    x = solve_exact([[0.1]], [1.0]).fractions()
    assert x[0] == 1 / Fraction(0.1)
    assert x[0] != 10


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="np.longdouble is a double here")
def test_long_double_entries_are_converted_exactly():
    # Neither 1/3 nor 1e400 in a wider-than-double np.longdouble is a
    # double; both must be taken as they are, not rounded.
    third, big = np.longdouble(1) / 3, np.longdouble("1e400")
    x = solve_exact(np.array([[third, 0], [0, big]]), np.array([1, 1], dtype=np.longdouble))
    assert x.fractions() == [1 / Fraction(*third.as_integer_ratio()), 1 / Fraction(*big.as_integer_ratio())]


def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="singular"):
        solve_exact([[1, 2], [2, 4]], [1, 2])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="matrix must be"):
        solve_exact([[1, 2]], [1, 2])


def test_empty_system():
    assert solve_exact([], []).fractions() == []


def test_pivoting_handles_zero_leading_entry():
    # First pivot position is zero; partial pivoting must swap rows.
    x = solve_exact([[0, 1], [1, 0]], [5, 7]).fractions()
    assert x == [Fraction(7), Fraction(5)]


# --- stacks of systems ------------------------------------------------------


def same_bits(got, fractions):
    """got (floats) has the bits of float(Fraction) for every component."""
    want = np.array([float(x) for x in fractions], dtype=np.float64)
    return np.asarray(got, dtype=np.float64).tobytes() == want.tobytes()


@st.composite
def stacks(draw, entries):
    """(chunk, matrices, rhs): a stack of 1-7 systems of one size drawn
    from entries, and a chunk size of 1-3 so the stack crosses chunks."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=7))
    matrices = [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(k)]
    rhs = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return draw(st.integers(min_value=1, max_value=3)), matrices, rhs


# No shrink or explain phase: on a failure they spend minutes re-running
# stacks whose integers run to thousands of bits, so a failing stack is
# reported as drawn.
stack_settings = settings(
    max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


def check_stack(chunk, matrices, rhs):
    """Every member of the stack against the reference, or a refusal that
    names a singular member and the column its reference fails at."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "CHUNK_SYSTEMS", chunk)
        try:
            solution = solve_exact(matrices, rhs)
        except ValueError as error:
            named = re.fullmatch(
                r"system (\d+) of the stack is singular: (no pivot in column \d+)", str(error)
            )
            assert named, error
            with pytest.raises(ValueError) as reference:
                reference_gauss_jordan(matrices[int(named[1])], rhs[int(named[1])])
            assert str(reference.value).endswith(named[2])
            return
    fractions = solution.fractions()
    assert fractions == [reference_gauss_jordan(a, b) for a, b in zip(matrices, rhs)]
    assert all(det > 0 for det in solution.determinant)
    try:
        rounded = solution.rounded()
    except OverflowError:
        # As float(Fraction) does for a solution beyond the float range.
        with pytest.raises(OverflowError):
            [float(x) for row in fractions for x in row]
        return
    assert all(same_bits(row, x) for row, x in zip(rounded, fractions))


@stack_settings
@given(stacks(wide_floats))
def test_float_stack_across_chunks_matches_reference(case):
    check_stack(*case)


small_rationals = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.builds(
        Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=60)
    ),
)


@stack_settings
@given(stacks(small_rationals))
def test_int_and_fraction_stack_across_chunks_matches_reference(case):
    check_stack(*case)


def test_mixed_int_fraction_float_stack_matches_reference():
    matrices = [
        [[1, 0.5, Fraction(1, 3)], [0.25, Fraction(2, 5), 3], [7, -1.75, Fraction(-1, 6)]],
        [[Fraction(3, 7), 2, Fraction(-5, 3)], [1, Fraction(1, 9), 4], [Fraction(-2, 5), 6, 1]],
        [[2**80 + 1, 1, 0], [1, 1, 0.5], [0, 3, 1]],
    ]
    rhs = [[0.1, Fraction(1, 10), 2], [Fraction(1, 3), -2, Fraction(7, 11)], [1, 2, 3]]
    solution = solve_exact(matrices, rhs)
    assert solution.fractions() == [reference_gauss_jordan(a, b) for a, b in zip(matrices, rhs)]


def test_big_int_beside_floats_is_not_rounded_through_a_float():
    # 2**60 + 1 is not a double; a float array would round it to 2**60.
    matrix, rhs = [[2**60 + 1, 0.5], [1.0, 1]], [1, 0.25]
    assert solve_exact(matrix, rhs).fractions() == reference_gauss_jordan(matrix, rhs)
    assert solve_exact([matrix], [rhs]).fractions() == [reference_gauss_jordan(matrix, rhs)]


def test_stack_longer_than_a_chunk_equals_stacks_of_one():
    # Widely scaled systems over a chunk boundary, at the real chunk size:
    # every member has the bits and the Fractions it has alone.
    rng = np.random.default_rng(12)
    k = CHUNK_SYSTEMS + 3
    matrices = rng.uniform(-1.0, 1.0, (k, 3, 3)) * 10.0 ** rng.integers(-8, 9, (k, 3, 3))
    matrices += np.eye(3) * 10.0 ** rng.integers(2, 10, (k, 1, 1))
    rhs = rng.uniform(-1.0, 1.0, (k, 3)) * 10.0 ** rng.integers(0, 4, (k, 3))
    solution = solve_exact(matrices, rhs)
    rounded, fractions = solution.rounded(), solution.fractions()
    for j in range(k):
        alone = solve_exact(matrices[j], rhs[j])
        assert fractions[j] == alone.fractions() == reference_gauss_jordan(matrices[j], rhs[j])
        assert rounded[j].tobytes() == alone.rounded().tobytes()
        assert same_bits(rounded[j], fractions[j])


def test_zero_component_rounds_to_positive_zero_with_negative_determinant():
    # Eliminating this matrix gives pivots -1 and -1 after scaling, so the
    # raw Bareiss determinant is negative; x[0] is exactly zero.
    matrix, rhs = [[-1.0, 0.0], [0.0, 1.0]], [0.0, 3.0]
    solution = solve_exact(matrix, rhs)
    assert solution.determinant > 0
    assert solution.fractions() == [0, 3]
    assert math.copysign(1.0, solution.rounded()[0]) == 1.0
    stacked = solve_exact([matrix, [[2.0, 1.0], [1.0, 1.0]]], [rhs, [1.0, 1.0]]).rounded()
    assert math.copysign(1.0, stacked[0, 0]) == 1.0
    assert stacked.tolist() == [[0.0, 3.0], [0.0, 1.0]]


def test_rounding_is_correct_where_naive_division_is_not():
    # x = 1/3 scaled by 2**-1074 is subnormal: int / int rounds once, as
    # float(Fraction) does; float(num) / float(det) would overflow.
    solution = solve_exact([[3 * 2**1074]], [1])
    assert solution.rounded()[0] == float(Fraction(1, 3 * 2**1074))


def test_singular_system_in_a_stack_named_by_index_and_column():
    # Member 300 of 310 (the second chunk) has a third row equal to the
    # sum of the first two, so it has no pivot in column 2.
    matrices = np.tile(np.eye(3) * 2.0, (310, 1, 1))
    matrices[300] = [[0.5, 1.25, -3.0], [2.0, -0.75, 1.5], [2.5, 0.5, -1.5]]
    message = r"^system 300 of the stack is singular: no pivot in column 2$"
    with pytest.raises(ValueError, match=message):
        solve_exact(matrices, np.ones((310, 3)))


def test_zero_pivots_in_a_stack_are_swapped_only_where_needed():
    # System 1 has a zero leading pivot, and system 3 a zero pivot once
    # column 0 is eliminated (rows 0 and 1 agree in their first two
    # entries); systems 0 and 2 need no swap.  Each gives the reference
    # Fractions alone and in the stack.
    matrices = [
        [[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 4.0]],
        [[0.0, 2.0, 1.0], [3.0, 1.0, 2.0], [1.0, 5.0, 1.0]],
        [[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]],
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    ]
    rhs = [[1.0, 2.0, 3.0], [0.1, -0.2, 0.3], [1e-3, 7.0, -2.0], [3.0, -1.5, 0.25]]
    expected = [reference_gauss_jordan(m, b) for m, b in zip(matrices, rhs)]
    assert solve_exact(matrices, rhs).fractions() == expected
    assert [solve_exact(m, b).fractions() for m, b in zip(matrices, rhs)] == expected


def test_singular_system_among_swapped_ones_is_named():
    # Systems 0 and 2 need a swap in column 1; system 1 has no pivot there.
    matrices = [
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
        [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [3.0, 6.0, 1.0]],
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    ]
    with pytest.raises(ValueError, match=r"^system 1 of the stack is singular: no pivot in column 1$"):
        solve_exact(matrices, np.ones((3, 3)))


@pytest.mark.parametrize(
    "matrix, rhs, message",
    [
        ([[1.0, math.inf], [2.0, 1.0]], [1.0, 2.0], "matrix entry (0, 1) is inf, not finite"),
        ([[1.0, 0.5], [2.0, 1.0]], [1.0, math.nan], "rhs entry 1 is nan, not finite"),
        ([[1, Fraction(1, 2)], [-math.inf, 2]], [1, 2], "matrix entry (1, 0) is -inf, not finite"),
        ([[1, Fraction(1, 2)], [3, 2]], [math.nan, 2], "rhs entry 0 is nan, not finite"),
    ],
    ids=["float-inf", "float-nan-rhs", "fraction-row-inf", "fraction-row-nan"],
)
def test_non_finite_entries_refused_by_name(matrix, rhs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_exact(matrix, rhs)


@pytest.mark.parametrize("fractions_route", [False, True], ids=["floats", "fractions"])
def test_non_finite_entry_in_a_stack_names_the_system(fractions_route):
    matrices = np.tile(np.eye(2), (4, 1, 1)).astype(object if fractions_route else float)
    if fractions_route:
        matrices[0, 0, 0] = Fraction(1, 3)
    matrices[2, 1, 0] = -math.inf
    with pytest.raises(ValueError, match=r"^system 2: matrix entry \(1, 0\) is -inf, not finite$"):
        solve_exact(matrices, np.ones((4, 2)))


def test_stack_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="matrix must be"):
        solve_exact(np.ones((3, 2, 2)), np.ones((4, 2)))


def imported_modules(module) -> set[str]:
    """Every module name the source of module imports, made absolute,
    with each imported name also read as a possible submodule."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.__name__.rsplit(".", node.level)[0]
                base = f"{package}.{base}" if base else package
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_oracle_and_production_solver_share_no_code():
    # The audit's production-vs-oracle check means something only while
    # the two routes are independent.
    assert not {n for n in imported_modules(exact) if n == "srmec" or n.startswith("srmec.")}
    assert not {n for n in imported_modules(network) if n == "srmec.exact" or n.startswith("srmec.exact.")}
