"""The Hankel-determinant route to the partition function.

Entries of the moment matrices are high-order derivatives of cot, taken
symbolically: d^k/dphi^k cot(phi) = T_k(cot phi) for exact integer
polynomials T_k with T_0(c) = c and T_{k+1} = -(1 + c^2) T_k'.  Numerical
differencing is hopeless here (entries grow like (j+k)!), the polynomial
route costs one Horner evaluation per entry at working precision.
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath

from .determinants import lu_det, mp_logdet
from .errors import SingularParameterError
from .logscale import LogScaledValue, mp_scalar
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
        raise SingularParameterError(f"sin(phi) vanishes at {phi}")


def _moments(c, count: int) -> list:
    """T_s(c) for s < count, each one fdot over one shared table of powers of c."""
    powers = [c ** e for e in range(count + 1)]
    return [mpmath.fdot(cot_derivative_poly(s), powers) for s in range(count)]


def hankel_H(n: int, p: ModelParams, bits: int):
    """N x N matrix H_jk = T_{j+k}(cot phi_minus) - T_{j+k}(cot phi_plus)."""
    with mpmath.workprec(bits):
        cots = [mpmath.cot(mp_scalar(phi)) for phi in (p.phi_minus, p.phi_plus)]
        moments = [a - b for a, b in zip(*(_moments(c, 2 * n - 1) for c in cots))]
        return mpmath.matrix([[moments[j + k] for k in range(n)] for j in range(n)])


def matrix_A(n: int, phi: complex, bits: int, alpha: complex = -1j):
    """N x N matrix of derivatives of cot(phi) + alpha (alpha = -i default)."""
    _require_regular(phi)
    with mpmath.workprec(bits):
        moments = _moments(mpmath.cot(mpmath.mpc(phi)), 2 * n - 1)
        moments[0] += mpmath.mpc(alpha)
        return mpmath.matrix([[moments[j + k] for k in range(n)] for j in range(n)])


def _log_factorial_sq_sum(n: int) -> float:
    # 2 * sum_{k=1}^{N-1} log k!
    return 2.0 * sum(math.lgamma(k + 1) for k in range(1, n))


def partition_hankel(n: int, p: ModelParams, bits: int) -> LogScaledValue:
    """Z_N = [sin phi_- sin phi_+]^{N^2} / prod (k!)^2 * det H, log-scaled."""
    logdet = mp_logdet(hankel_H(n, p, bits), bits, warn_label="hankel")
    pref = n * n * (cmath.log(cmath.sin(p.phi_minus)) + cmath.log(cmath.sin(p.phi_plus)))
    pref -= _log_factorial_sq_sum(n)
    return logdet.scale_log(pref)


def alpha_det_deviation(n: int, phi: complex, alpha: complex, bits: int) -> float:
    """|LU det / closed form - 1| for the cot+alpha moment matrix, computed
    entirely at `bits` precision (the interesting tolerances sit far below
    double resolution)."""
    with mpmath.workprec(bits):
        det, _ = lu_det(matrix_A(n, phi, bits, alpha=alpha))
        phi_mp = mpmath.mpc(phi)
        head = mpmath.cos(n * phi_mp) + mpmath.mpc(alpha) * mpmath.sin(n * phi_mp)
        closed = head * mpmath.sin(phi_mp) ** (-n * n)
        for k in range(1, n):
            closed *= mpmath.factorial(k) ** 2
        return float(abs(det / closed - 1))
