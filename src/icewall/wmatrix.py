"""Finite-size determinant route: the symmetric W matrix in closed form,
its Gauss decomposition, det(I - zeta W), and the matrix-level trace
identities that back the reconstruction formula.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .determinants import BlockFloat, i_minus_error, mp_logdet, slogdet_i_minus
from .lazy import mpmath, np
from .logscale import LogScaledValue, mp_scalar
from .orthopoly import exp_jplus_entries, su11_matrices
from .params import ModelParams, qgroup_prefactor

GAUSS_LIMIT = 12  # past it, gauss's double-precision determinant drifts from wdet


class BetaGamma(NamedTuple):
    """The two R-matrix amplitudes plus the loop-counting factor zeta."""

    beta: complex
    gamma: complex
    zeta: complex

    @classmethod
    def from_params(cls, p: ModelParams) -> "BetaGamma":
        sp, sm, s2 = p.sines()
        return cls(beta=sm / sp, gamma=s2 / sp, zeta=cmath.exp(-2j * p.eta))

    @classmethod
    def rational(cls, lam: float, eta: float) -> "BetaGamma":
        """sin(*) -> (*) degeneration of the weights; zeta degenerates to 1."""
        if lam + eta == 0:
            raise ValueError("rational weights need lambda + eta != 0")
        return cls(beta=(lam - eta) / (lam + eta), gamma=2 * eta / (lam + eta), zeta=1.0)


def w_rows(n: int, beta, gamma) -> list:
    """W_jk = sum_m C(j,m) C(k,m) beta^{2m+1} gamma^{j+k-2m} as n lists of
    mpmath scalars at the working precision, for complex or mpmath beta,
    gamma alike: the one copy of the binomial sum, as sum_m L_jm beta^{2m+1}
    L_km with L_jm = C(j,m) gamma^{j-m}.  Only the two power tables are
    rounded; L and its products with the odd powers of beta are exact in
    block floating point, and each entry is one exact dot product, rounded
    once.  gamma = 0 needs no special case: only the diagonal survives."""
    odd = [beta ** (2 * m + 1) for m in range(n)]
    g = [gamma ** e for e in range(n)]
    cplx = any(isinstance(x, (complex, mpmath.mpc)) for x in (beta, gamma))
    odd, g = BlockFloat.of(odd, cplx), BlockFloat.of(g, cplx)

    def binomial(j: int, mants):   # C(j, m) mants[j - m] for m <= j
        return [math.comb(j, m) * x for m, x in enumerate(mants[j::-1])]

    low = [BlockFloat(g.exp, *(binomial(j, part) for part in g.parts[:2])) for j in range(n)]
    scaled = [row.times(odd) for row in low]
    tri = [[scaled[j].rounded_dot(low[k]) for k in range(j + 1)] for j in range(n)]
    return [[tri[max(j, k)][min(j, k)] for k in range(n)] for j in range(n)]


def w_matrix(n: int, bg: BetaGamma) -> np.ndarray:
    return np.array(w_rows(n, bg.beta, bg.gamma), dtype=complex)


def w_matrix_gauss(n: int, bg: BetaGamma) -> np.ndarray:
    """Gauss decomposition exp(gamma J_+) diag(beta^{2m+1}) exp(gamma J_-)."""
    lower = exp_jplus_entries(bg.gamma, 0.5, n)
    diag = np.diag([bg.beta ** (2 * m + 1) for m in range(n)])
    return lower @ diag @ lower.T


def _w_matrix_mp(n: int, p: ModelParams) -> tuple:
    """Rows of W - zeta^{-1} I, and log (-zeta)^N = N (i pi - 2 i eta), at the
    caller's precision: det(I - zeta W) = (-zeta)^N det(W - zeta^{-1} I), so
    W is not multiplied by zeta and stays real at real parameters."""
    phi_minus, phi_plus = p.mp_phis()
    eta = mp_scalar(p.eta)
    sp = mpmath.sin(phi_plus)
    rows = w_rows(n, mpmath.sin(phi_minus) / sp, mpmath.sin(2 * eta) / sp)
    inv_zeta = mpmath.exp(2j * eta)
    for j, row in enumerate(rows):
        row[j] -= inv_zeta
    return rows, n * (1j * mpmath.pi - 2j * eta)


def full_partition(n: int, p: ModelParams, bits: int) -> LogScaledValue:
    """Restore the symmetric-weight normalization:
    Z_N = det(I - zeta W) [sin phi_+]^{N^2} e^{-i phi_- N}, the prefactor
    added to log det at `bits`, with mp_logdet's error estimate."""
    with mpmath.workprec(bits):
        rows, log_minus_zeta = _w_matrix_mp(n, p)
        return mp_logdet(rows, log_minus_zeta + qgroup_prefactor(n, p))


def full_partition_gauss(n: int, p: ModelParams) -> LogScaledValue:
    """Same normalization as full_partition, but with W assembled from its
    triangular Gauss factors (double precision; independent construction),
    with that determinant's error estimate."""
    if n > GAUSS_LIMIT:
        raise ValueError(f"gauss supports N <= {GAUSS_LIMIT}")
    bg = BetaGamma.from_params(p)
    m = bg.zeta * w_matrix_gauss(n, bg)
    zt = slogdet_i_minus(m)._replace(error=i_minus_error(m))
    return zt.scale_log(qgroup_prefactor(n, p))


def rational_z_tilde(n: int, lam: float, eta: float) -> LogScaledValue:
    """det(I - W) for the rational degeneration (zeta = 1)."""
    bg = BetaGamma.rational(lam, eta)
    return slogdet_i_minus(bg.zeta * w_matrix(n, bg))


def reconstruction_deviation(n: int, p: ModelParams) -> float:
    """|det(I - zeta W) - det(I - zeta e^{gamma J_+} beta^{2 J_0} e^{gamma J_-})|,
    the exponentials evaluated by mpmath's scaling-and-squaring rather than
    closed form."""
    bg = BetaGamma.from_params(p)
    su = su11_matrices(n, 0.5)
    prod = mpmath.eye(n)
    for a in (bg.gamma * su.j_plus, 2 * cmath.log(bg.beta) * su.j_zero,
              bg.gamma * su.j_minus):
        prod = prod * mpmath.expm(mpmath.matrix(a))
    lhs = np.linalg.det(np.eye(n) - bg.zeta * np.array(prod.tolist(), dtype=complex))
    reference = np.linalg.det(np.eye(n) - bg.zeta * w_matrix(n, bg))
    return float(abs(lhs - reference))
