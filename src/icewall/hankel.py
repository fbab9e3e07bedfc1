"""The Hankel-determinant route to the partition function.

Entries of the moment matrices are high-order derivatives of cot, taken
symbolically: d^k/dphi^k cot(phi) = T_k(cot phi) for exact integer
polynomials T_k with T_0(c) = c and T_{k+1} = -(1 + c^2) T_k'.  Numerical
differencing is hopeless here (entries grow like (j+k)!).  Each T_k(c) is
one exact integer dot product of its coefficients with a block-floating-point
table of the powers of c, rounded once at the working precision.  The
matrices are lists of rows, and the prefactor of Z_N joins log det H at the
working precision before the result is rounded to doubles.
"""

from __future__ import annotations

import cmath
import functools
import math

from .determinants import BlockFloat, lu_det, mp_logdet
from .lazy import mpmath
from .logscale import LogScaledValue
from .params import SIN_CUTOFF, ModelParams


@functools.lru_cache(maxsize=None)
def cot_derivative_poly(k: int) -> tuple:
    """Exact integer coefficients of T_k, lowest power of cot phi first."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if k == 0:
        return (0, 1)
    prev = cot_derivative_poly(k - 1)
    deriv = tuple(i * prev[i] for i in range(1, len(prev)))
    out = [0] * (len(prev) + 1)
    for i, d in enumerate(deriv):
        out[i] -= d
        out[i + 2] -= d
    return tuple(out)


def _require_regular(phi: complex):
    if abs(cmath.sin(complex(phi))) < SIN_CUTOFF:
        raise ValueError(f"sin(phi) vanishes at {phi}")


def _moments(c, count: int) -> list:
    """T_s(c) for s < count, each one exact dot product with one shared table
    of the powers of c, rounded once."""
    powers = BlockFloat.of([c ** e for e in range(count + 1)])
    return [BlockFloat(0, list(cot_derivative_poly(s))).rounded_dot(powers) for s in range(count)]


def hankel_H(n: int, p: ModelParams) -> list:
    """Rows of the N x N matrix H_jk = T_{j+k}(cot phi_minus) - T_{j+k}(cot phi_plus)."""
    cots = [mpmath.cot(phi) for phi in p.mp_phis()]
    moments = [a - b for a, b in zip(*(_moments(c, 2 * n - 1) for c in cots))]
    return [moments[j:j + n] for j in range(n)]


def matrix_A(n: int, phi: complex, alpha: complex) -> list:
    """Rows of the N x N matrix of derivatives of cot(phi) + alpha."""
    _require_regular(phi)
    moments = _moments(mpmath.cot(mpmath.mpc(phi)), 2 * n - 1)
    moments[0] += mpmath.mpc(alpha)
    return [moments[j:j + n] for j in range(n)]


def partition_hankel(n: int, p: ModelParams, bits: int) -> LogScaledValue:
    """Z_N = [sin phi_- sin phi_+]^{N^2} / prod (k!)^2 * det H by mp_logdet;
    matrix, determinant and the log of the prefactor all at `bits`."""
    with mpmath.workprec(bits):
        phi_minus, phi_plus = p.mp_phis()
        pref = n * n * mpmath.log(mpmath.sin(phi_minus) * mpmath.sin(phi_plus))
        pref -= 2 * mpmath.log(math.prod(math.factorial(k) for k in range(1, n)))
        return mp_logdet(hankel_H(n, p), pref)


def alpha_det_deviation(n: int, phi: complex, alpha: complex, bits: int) -> float:
    """|LU det / closed form - 1| for the cot+alpha moment matrix, computed
    entirely at `bits` precision (the interesting tolerances sit far below
    double resolution)."""
    with mpmath.workprec(bits):
        det, _ = lu_det(matrix_A(n, phi, alpha))
        phi_mp = mpmath.mpc(phi)
        head = mpmath.cos(n * phi_mp) + mpmath.mpc(alpha) * mpmath.sin(n * phi_mp)
        closed = head * mpmath.sin(phi_mp) ** (-n * n)
        for k in range(1, n):
            closed *= mpmath.factorial(k) ** 2
        return float(abs(det / closed - 1))
