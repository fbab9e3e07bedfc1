"""Pivoted LU determinants in mpmath extended precision; det(I - M) in doubles."""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np

from .errors import PrecisionWarning
from .logscale import LogScaledValue


def default_bits(n: int) -> int:
    """Mantissa bits of the extended-precision routes at size N."""
    # Cancellation in det H grows with prod (k!)^2; empirical headroom x2.
    return max(128, 64 + 16 * n)


def lu_det(matrix):
    """Determinant of an mpmath matrix by left-looking pivoted LU (Golub & Van
    Loan, sec. 3.2) at the caller's precision: one fdot finishes each entry.

    Returns (det, pivot_growth) where pivot_growth = max|pivot| / min|pivot|
    is a cheap conditioning estimate.
    """
    rows = matrix.tolist()   # row i holds L_i[:j], then A_i[j:]
    n = len(rows)
    det = mpmath.mpc(1)
    max_piv, min_piv = mpmath.mpf(0), mpmath.inf
    for j in range(n):
        col = []             # U[:i, j] while row i is updated; zip stops there
        for i, row in enumerate(rows):
            if col:
                row[j] -= mpmath.fdot(row, col)
            if i < j:
                col.append(row[j])
        pivot_row = max(range(j, n), key=lambda r: abs(rows[r][j]))
        if rows[pivot_row][j] == 0:
            return mpmath.mpc(0), mpmath.inf
        if pivot_row != j:
            rows[j], rows[pivot_row] = rows[pivot_row], rows[j]
            det = -det
        piv = rows[j][j]
        det *= piv
        max_piv = max(max_piv, abs(piv))
        min_piv = min(min_piv, abs(piv))
        for row in rows[j + 1:]:
            row[j] /= piv
    return det, max_piv / min_piv


def mp_logdet(matrix, bits: int, warn_label: str = "determinant") -> LogScaledValue:
    """Log-scaled LU determinant at `bits` mantissa bits; warns when pivot
    growth eats more than half of them."""
    with mpmath.workprec(bits):
        det, growth = lu_det(matrix)
        if det == 0:
            return LogScaledValue(float("-inf"), 0.0)
        if mpmath.isfinite(growth):
            growth_bits = math.log2(max(float(growth), 1.0))
            if growth_bits > bits / 2:
                warnings.warn(
                    f"{warn_label}: pivot growth ~2^{growth_bits:.0f} exceeds half "
                    f"of the {bits}-bit budget",
                    PrecisionWarning,
                )
        return LogScaledValue.from_mpc(det)


def slogdet_i_minus(m: np.ndarray) -> LogScaledValue:
    """Log-scaled det(I - m) by LAPACK's LU in double precision."""
    sign, logabs = np.linalg.slogdet(np.eye(m.shape[0]) - m)
    return LogScaledValue(float(logabs), float(np.angle(sign)))
