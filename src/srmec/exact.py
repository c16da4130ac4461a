"""Exact linear solver by fraction-free elimination over integers.

This module is the independent cross-check for the floating-point mesh
solver.  It deliberately shares no code with :mod:`srmec.network`: the
production path assembles numpy arrays and calls LAPACK, while this path
scales every row of the augmented system to Python integers and runs a
hand-written fraction-free Bareiss elimination (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination",
Math. Comp. 22, 1968).  Agreement between the two routes is therefore
meaningful evidence, not a tautology.

Every coefficient is converted to an integer ratio exactly (every IEEE
double is m * 2**e, so a row of floats scales to integers by a power of
two), every division in the elimination is exact, and the returned
solution is the exact solution of the floating-point system as
assembled, with no rounding anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _integer_row(values: Sequence) -> list[int]:
    """The row scaled by the lcm of its denominators, as integers."""
    ratios = [v.as_integer_ratio() if type(v) is float else Fraction(v).as_integer_ratio() for v in values]
    scale = math.lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios]


def solve_exact(matrix: Sequence[Sequence[float]], rhs: Sequence[float]) -> list[Fraction]:
    """Solve ``matrix @ x == rhs`` in exact rational arithmetic.

    Args:
        matrix: square coefficient matrix; entries may be int, float or
            Fraction.  Floats are converted exactly, not via string
            round-tripping.
        rhs: right-hand side of matching length.

    Returns:
        Solution vector as a list of Fractions.

    Raises:
        ValueError: on shape mismatch or an exactly singular matrix.
    """
    n = len(rhs)
    if n == 0:
        return []
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix must be {n}x{n} to match rhs of length {n}")

    # Augmented matrix, each row scaled to integers; scaling a row does
    # not change the solution.
    work = [_integer_row([*row, rhs[i]]) for i, row in enumerate(matrix)]

    # Forward elimination.  After step col, every entry below the pivots
    # is a minor of the scaled matrix, so dividing by the previous pivot
    # is exact (Sylvester's identity).
    previous = 1
    for col in range(n):
        # Any nonzero pivot keeps the elimination exact; the largest in
        # magnitude is taken, as in partial pivoting.
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col]))
        if work[pivot_row][col] == 0:
            raise ValueError(f"matrix is singular: no pivot in column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_line = work[col]
        pivot = pivot_line[col]
        for row in range(col + 1, n):
            line = work[row]
            factor = line[col]
            work[row] = [0] * (col + 1) + [
                (line[k] * pivot - factor * pivot_line[k]) // previous for k in range(col + 1, n + 1)
            ]
        previous = pivot

    # Back substitution.  The last pivot is the determinant of the
    # (permuted) scaled matrix, so by Cramer's rule every det * x[i] is
    # an integer and each division below is exact.
    det = previous
    scaled = [0] * n
    for i in reversed(range(n)):
        line = work[i]
        acc = det * line[n] - sum(line[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = acc // line[i]
    return [Fraction(y, det) for y in scaled]

