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

A stack of systems is eliminated together, CHUNK_SYSTEMS at a time:
the integers are held in numpy ``object`` arrays, so each elimination
step is a few array expressions over the whole chunk while every value
stays a Python int.  No value is ever rounded to a float until
:meth:`ExactSolution.rounded` rounds the final quotients, once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# Systems eliminated together.  Their integers are held at once, so the
# chunk bounds the oracle's memory.  On a 1,000-sample audit stream of
# five-mesh systems, the traced allocation peak of solve_exact(...)
# .rounded() is 1.4 MB at 256 and 2.9 MB with the whole stream in one
# chunk, at the same speed; smaller chunks pay numpy's per-call cost.
CHUNK_SYSTEMS = 256


@dataclass(frozen=True, eq=False)
class ExactSolution:
    """Exact solution in Cramer form: x = numerators / determinant.

    For one system, numerators is an (n,) object array of Python ints
    and determinant a positive Python int; for a stack, they are (k, n)
    and (k,) object arrays, row by row.  The determinant is that of the
    row-scaled matrix, so it is exact but not the determinant of the
    matrix as given.
    """

    numerators: np.ndarray
    determinant: int | np.ndarray

    def fractions(self) -> list:
        """The solution as Fractions: a list for one system, a list of
        lists for a stack."""
        if self.numerators.ndim == 1:
            return [Fraction(y, self.determinant) for y in self.numerators.tolist()]
        return [
            [Fraction(y, det) for y in row]
            for row, det in zip(self.numerators.tolist(), self.determinant.tolist())
        ]

    def rounded(self) -> np.ndarray:
        """The solution correctly rounded to float64, shaped like the
        numerators.

        Python's int / int is correctly rounded, so every component has
        the bits of float(Fraction(y, det)) without building the
        Fraction; the determinant is positive, so an exact zero rounds
        to +0.0.  A component beyond the float range raises
        OverflowError, as float(Fraction) does.
        """
        det = np.asarray(self.determinant, dtype=object)[..., None]
        return (self.numerators / det).astype(np.float64)


def _as_array(values) -> np.ndarray:
    """A float array of at most double precision as it is; anything else
    as Python objects, so that ints, Fractions and wider floats (such as
    np.longdouble) are never rounded through a double."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f" and values.dtype.itemsize <= 8:
        return values
    return np.asarray(values, dtype=object)


def _float_rows(augmented: np.ndarray) -> np.ndarray:
    """Float rows scaled to integers exactly, as an object array.

    Each entry is M * 2**e with a 53-bit integer mantissa M (np.frexp);
    every row is multiplied by 2**-(its smallest e over nonzero entries),
    which turns it into integers and leaves the solution unchanged.

    Float input could take _integer_row too, but that costs the audit a
    third of its speed: harness `audit` work_per_cal, median of ten
    alternating 35 s pairs on a 2-core x86-64 machine, 35.8 with this
    route against 24.5 with _integer_row alone, and a 1.6 MB higher
    peak RSS.
    """
    mantissa, exponent = np.frexp(augmented)
    nonzero = mantissa != 0
    floor = np.where(nonzero, exponent, np.iinfo(exponent.dtype).max).min(axis=-1, keepdims=True)
    shift = np.where(nonzero, exponent - floor, 0)
    ints = (mantissa * 2.0**53).astype(np.int64).astype(object)
    ints <<= shift.astype(object)
    return ints


def _integer_row(values: Sequence) -> list[int]:
    """The row scaled by the lcm of its denominators, as integers."""
    ratios = [
        v.as_integer_ratio() if isinstance(v, (float, np.floating)) else Fraction(v).as_integer_ratio()
        for v in values
    ]
    scale = math.lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios]


def _eliminate(work: np.ndarray, first: int, stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """Bareiss elimination and back substitution of a (k, n, n + 1)
    object stack of integer rows, in place; the systems are numbered
    from first.  Returns the numerators and the positive determinants.
    """
    k, n = work.shape[:2]
    systems = np.arange(k)
    # After step col, every entry below the pivots is a minor of the
    # scaled matrix, so dividing by the previous pivot is exact
    # (Sylvester's identity); before the first pivot it is 1.
    previous = np.ones(k, dtype=object)
    for col in range(n):
        # Any nonzero pivot keeps the elimination exact, and the Cramer
        # pair (numerators, positive determinant) does not depend on the
        # row order, so rows are swapped only in a column where some
        # system's diagonal pivot is zero.  There each system takes the
        # largest pivot in magnitude, as in partial pivoting.
        pivot = work[:, col, col]
        if (pivot == 0).any():
            pivot_row = col + np.abs(work[:, col:, col]).argmax(axis=1)
            pivot = work[systems, pivot_row, col]
            dead = pivot == 0
            if dead.any():
                name = f"system {first + int(dead.argmax())} of the stack" if stacked else "matrix"
                raise ValueError(f"{name} is singular: no pivot in column {col}")
            line = work[systems, pivot_row]
            work[systems, pivot_row] = work[:, col]
            work[:, col] = line
        # In place, so that a chunk holds one temporary at a time.
        below = work[:, col + 1 :, col + 1 :]
        below *= pivot[:, None, None]
        below -= work[:, col + 1 :, col : col + 1] * work[:, col : col + 1, col + 1 :]
        if col:
            below //= previous[:, None, None]
        previous = pivot

    # Back substitution.  The last pivot is the determinant of the
    # (permuted) scaled matrix, so by Cramer's rule every det * x[i] is
    # an integer and each division below is exact.
    det = previous
    scaled = np.empty((k, n), dtype=object)
    for i in reversed(range(n)):
        acc = det * work[:, i, n] - (work[:, i, i + 1 : n] * scaled[:, i + 1 :]).sum(axis=1)
        scaled[:, i] = acc // work[:, i, i]
    negative = det < 0
    return np.where(negative[:, None], -scaled, scaled), np.where(negative, -det, det)


def solve_exact(matrix, rhs) -> ExactSolution:
    """Solve ``matrix @ x == rhs`` in exact rational arithmetic, for one
    system or a stack of them.

    Args:
        matrix: square coefficient matrix (n, n), or a stack (k, n, n);
            entries may be int, float or Fraction.  Floats are converted
            exactly, not via string round-tripping.
        rhs: right-hand side (n,), or a stack (k, n), matching matrix.

    Returns:
        ExactSolution: the exact solution in Cramer form, shaped like
        rhs; .fractions() and .rounded() give Fractions and floats.

    Raises:
        ValueError: on a shape mismatch, a NaN or infinite entry (named
            by entry), or an exactly singular matrix (named by column).
            For a stack, the message also names the system's index.
    """
    matrix, rhs = _as_array(matrix), _as_array(rhs)
    if rhs.ndim not in (1, 2):
        raise ValueError(f"rhs must be a vector or a stack of vectors, not of shape {rhs.shape}")
    n, stacked = rhs.shape[-1], rhs.ndim == 2
    if n == 0 and matrix.size == 0 and not stacked:
        matrix = matrix.reshape(0, 0)
    if matrix.shape != rhs.shape + (n,):
        if not stacked:
            raise ValueError(f"matrix must be {n}x{n} to match rhs of length {n}")
        raise ValueError(f"matrix must be of shape {rhs.shape + (n,)} to match rhs {rhs.shape}")
    total = math.prod(rhs.shape[:-1])
    augmented = np.concatenate([matrix, rhs[..., None]], axis=-1).reshape(total, n, n + 1)
    floats = augmented.dtype != object or all(type(v) is float for v in augmented.flat)
    if floats:
        augmented = augmented.astype(np.float64, copy=False)
        finite = np.isfinite(augmented)
    else:
        finite = np.array(
            [isinstance(v, (int, Fraction)) or np.isfinite(v) for v in augmented.flat]
        ).reshape(augmented.shape)
    if not finite.all():
        k, i, j = np.unravel_index(int(np.argmin(finite)), finite.shape)
        entry = f"rhs entry {i}" if j == n else f"matrix entry ({i}, {j})"
        system = f"system {k}: " if stacked else ""
        raise ValueError(f"{system}{entry} is {augmented[k, i, j]}, not finite")

    numerators = np.empty((total, n), dtype=object)
    determinants = np.empty(total, dtype=object)
    for start in range(0, total, CHUNK_SYSTEMS):
        chunk = augmented[start : start + CHUNK_SYSTEMS]
        if floats:
            work = _float_rows(chunk)
        else:
            rows = [_integer_row(row) for row in chunk.reshape(-1, n + 1)]
            work = np.array(rows, dtype=object).reshape(chunk.shape)
        scaled, det = _eliminate(work, start, stacked)
        numerators[start : start + CHUNK_SYSTEMS] = scaled
        determinants[start : start + CHUNK_SYSTEMS] = det
    if stacked:
        return ExactSolution(numerators, determinants)
    return ExactSolution(numerators[0], determinants[0])
