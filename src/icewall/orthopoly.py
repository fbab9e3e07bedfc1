"""Orthogonal-polynomial layer: the three classical families that show up
in the determinant representations, the Gauss rule of a three-term
recurrence, and the triangular su(1,1) machinery behind the
parameter-connection identities.

Meixner-Pollaczek and Laguerre are evaluated by their three-term
recurrences, Meixner as an explicit polynomial in x; the tests check them
against mpmath's 2F1 and scipy.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .lazy import np
from .params import SIN_CUTOFF

# --------------------------------------------------------------------------
# basic families


def mp_eval(n: int, lam: complex, x: complex, phi: complex) -> complex:
    """Meixner-Pollaczek P_n^{(lam)}(x; phi) by upward recurrence:
    (n+1) P_{n+1} = [2x sin phi + 2(n+lam) cos phi] P_n - (n+2 lam-1) P_{n-1}.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    s, co = cmath.sin(complex(phi)), cmath.cos(complex(phi))
    p_prev = 1.0 + 0j
    if n == 0:
        return p_prev
    p_cur = 2 * (lam * co + x * s)
    for k in range(1, n):
        p_next = ((2 * x * s + 2 * (k + lam) * co) * p_cur
                  - (k + 2 * lam - 1) * p_prev) / (k + 1)
        p_prev, p_cur = p_cur, p_next
    return p_cur


def mp_deriv(n: int, lam: complex, x: complex, phi: complex) -> complex:
    """d/dx P_n^{(lam)}(x; phi), by differentiating the recurrence and
    carrying (P_k, P_k') pairs upward."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return 0j
    s, co = cmath.sin(complex(phi)), cmath.cos(complex(phi))
    p_prev, dp_prev = 1.0 + 0j, 0j
    p_cur, dp_cur = 2 * (lam * co + x * s), 2 * s
    for k in range(1, n):
        coeff = 2 * x * s + 2 * (k + lam) * co
        p_next = (coeff * p_cur - (k + 2 * lam - 1) * p_prev) / (k + 1)
        dp_next = (2 * s * p_cur + coeff * dp_cur
                   - (k + 2 * lam - 1) * dp_prev) / (k + 1)
        p_prev, p_cur = p_cur, p_next
        dp_prev, dp_cur = dp_cur, dp_next
    return dp_cur


def meixner_poly(n: int, beta: float, c: float) -> np.polynomial.Polynomial:
    """M_n(x; beta, c) as a polynomial in x (for exact derivatives)."""
    z = 1 - 1 / c
    acc = np.polynomial.Polynomial([1.0])
    term = np.polynomial.Polynomial([1.0])
    for k in range(n):
        # factor of (-n)_k/(beta)_k/k! times (-x + k)
        term = term * np.polynomial.Polynomial([k, -1.0])
        term = term * ((-n + k) * z / ((beta + k) * (k + 1)))
        acc = acc + term
    return acc


def laguerre_eval(n: int, x: float) -> float:
    """L_n(x) by the standard recurrence."""
    p_prev, p_cur = 1.0, 1.0 - x
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p_cur = p_cur, ((2 * k + 1 - x) * p_cur - k * p_prev) / (k + 1)
    return p_cur


def laguerre_deriv(n: int, x: float) -> float:
    """L_n'(x) = -L_{n-1}^{(1)}(x) via x L_n'(x) = n (L_n(x) - L_{n-1}(x))."""
    if n == 0:
        return 0.0
    if abs(x) > 1e-8:
        return n * (laguerre_eval(n, x) - laguerre_eval(n - 1, x)) / x
    # series around zero: L_n'(0) = -n; second order from L_n''(0) = n(n-1)/2
    return -n + x * n * (n - 1) / 2


# --------------------------------------------------------------------------
# the weight's Gauss rule


def gauss_rule(alpha, b, mu0: complex) -> tuple:
    """(nodes, weights, defect) of the m-node Gauss rule of the orthonormal
    polynomials with x p_k = b_{k+1} p_{k+1} + alpha_k p_k + b_k p_{k-1},
    p_0 = mu0^{-1/2}, for alpha_0..alpha_{m-1} and b_1..b_{m-1}, complex
    allowed (Golub & Welsch, Math. Comp. 23 (1969)).  The nodes are the
    eigenvalues of the Jacobi matrix; the weights are the Christoffel numbers
    1/sum_{k<m} p_k(x_i)^2, from the recurrence, which keep digits that
    numpy's eigenvectors lose (5.8e-15 against 4.5e-10 in the defect at 12
    Meixner-Pollaczek nodes, phi = 1.2).  The defect
    max_jk |sum_i w_i p_j(x_i) p_k(x_i) - delta_jk| vanishes for exact nodes;
    it is not finite where the p_k overflow."""
    m = len(alpha)
    x = np.linalg.eigvals(np.diag(alpha) + np.diag(b, 1) + np.diag(b, -1))
    p = np.empty((m, m), dtype=complex)
    p[0] = 1 / cmath.sqrt(mu0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m - 1):
            p[k + 1] = ((x - alpha[k]) * p[k] - (b[k - 1] * p[k - 1] if k else 0)) / b[k]
        w = 1 / np.sum(p * p, axis=0)
        return x, w, float(np.max(np.abs((p * w) @ p.T - np.eye(m))))


def mp_rule(m: int, lam: float, phi: complex) -> tuple:
    """(nodes, weights, defect) of the m-node Gauss rule of the
    Meixner-Pollaczek weight (1/2 pi) |Gamma(lam + ix)|^2 e^{(2 phi - pi) x},
    exact for polynomials of degree up to 2m - 1: alpha_k = -(k + lam) cot phi,
    b_k = sqrt(k (k + 2 lam - 1))/(2 sin phi), mass Gamma(2 lam)/(2 sin phi)^{2 lam}.
    At lam = 1/2 the weight is e^{2 phi x}/(1 + e^{2 pi x}).  Complex at
    complex phi, where the defect grows with |Im phi|."""
    s, k = cmath.sin(complex(phi)), np.arange(m)
    return gauss_rule(-(k + lam) * (cmath.cos(complex(phi)) / s),
                      np.sqrt(k[1:] * (k[1:] + 2 * lam - 1)) / (2 * s),
                      math.gamma(2 * lam) / (2 * s) ** (2 * lam))


# --------------------------------------------------------------------------
# parameter-connection identities


def _gamma_ratio(n: int, k: int, two_lam: float) -> float:
    # Gamma(n + 2 lam) / Gamma(k + 2 lam)
    return math.exp(math.lgamma(n + two_lam) - math.lgamma(k + two_lam))


def connection_coeffs(n: int, lam: float, tau: complex, phi: complex) -> list:
    """Coefficients C_k with P_n^{(lam)}(x; tau) = sum_k C_k P_k^{(lam)}(x; phi).

    C_k = Gamma(n+2 lam)/(Gamma(k+2 lam) (n-k)!) *
          [sin(phi - tau)]^{n-k} (sin tau)^k / (sin phi)^n,
    from cot tau - cot phi = sin(phi - tau)/(sin tau sin phi).
    """
    s_phi = cmath.sin(complex(phi))
    if abs(s_phi) < SIN_CUTOFF:
        raise ValueError("sin(phi) vanishes")
    s_tau = cmath.sin(complex(tau))
    s_diff = cmath.sin(complex(phi) - complex(tau))
    out = []
    for k in range(n + 1):
        c = _gamma_ratio(n, k, 2 * lam) / math.factorial(n - k)
        c *= s_diff ** (n - k) * s_tau ** k / s_phi ** n
        out.append(c)
    return out


def inm_closed(n: int, m: int, lam: float, tau: complex, omega: complex,
               phi: float) -> complex:
    """Closed form of the cross-parameter overlap integral

    (1/2 pi) int P_n^{(lam)}(x; tau) P_m^{(lam)}(x; omega)
             |Gamma(lam + ix)|^2 e^{(2 phi - pi) x} dx

    as the finite sum over the shared connection index k of the expansions
    in the phi basis, whose squared norms are Gamma(k + 2 lam)/k! times
    (2 sin phi)^(-2 lam); degenerate tau = phi or omega = phi just truncates
    the sum.
    """
    if not 0 < phi < math.pi or lam <= 0:
        raise ValueError("need real lam > 0 and 0 < phi < pi")
    cn, cm = connection_coeffs(n, lam, tau, phi), connection_coeffs(m, lam, omega, phi)
    return (2 * math.sin(phi)) ** (-2 * lam) * sum(
        cn[k] * cm[k] * math.gamma(k + 2 * lam) / math.factorial(k)
        for k in range(min(n, m) + 1))


def inm_quadrature(n: int, m: int, lam: float, tau: complex, omega: complex,
                   phi: float) -> complex:
    """The overlap integral on the (max(n, m) + 1)-node Gauss rule of its
    weight, which integrates the degree n + m integrand exactly."""
    if not 0 < phi < math.pi or lam <= 0:
        raise ValueError("need real lam > 0 and 0 < phi < pi")
    x, w, _ = mp_rule(max(n, m) + 1, lam, phi)
    return complex(np.sum(w * mp_eval(n, lam, x, tau) * mp_eval(m, lam, x, omega)))


# --------------------------------------------------------------------------
# su(1,1) triangular matrices


class Su11Matrices(NamedTuple):
    dimension: int
    j_plus: np.ndarray
    j_zero: np.ndarray
    j_minus: np.ndarray


def su11_matrices(m: int, lam: float) -> Su11Matrices:
    """Truncated raising/diagonal/lowering matrices of weight lam: J_+
    entries n + 2 lam - 1, J_0 entries n + lam, J_- entries n.  Commutators
    close exactly on the top-left (m-1) x (m-1) block; the truncation
    corrupts the final row/column.
    """
    if m < 1:
        raise ValueError("need dimension >= 1")
    n_idx = np.arange(m, dtype=float)
    j_plus = np.diag(n_idx[1:] + 2 * lam - 1, k=-1)
    j_zero = np.diag(n_idx + lam)
    j_minus = np.diag(n_idx[1:], k=1)
    return Su11Matrices(m, j_plus, j_zero, j_minus)


def exp_jplus_entries(alpha: complex, lam: float, m: int) -> np.ndarray:
    """Closed-form exp(alpha J_+): entries Gamma(n+2 lam)/(Gamma(k+2 lam) (n-k)!)
    alpha^{n-k}; binomials when lam = 1/2."""
    out = np.zeros((m, m), dtype=complex)
    for n in range(m):
        for k in range(n + 1):
            out[n, k] = (_gamma_ratio(n, k, 2 * lam) / math.factorial(n - k)
                         * complex(alpha) ** (n - k))
    return out


def key_conjugation_check(alpha: complex, lam: float, m: int) -> float:
    """Residual of exp(a J_+)(J_- + J_+) = [J_- - 2a J_0 + (1+a^2) J_+] exp(a J_+)
    on the masked top-left block."""
    if m < 3:
        raise ValueError("need dimension >= 3")
    su = su11_matrices(m, lam)
    e = exp_jplus_entries(alpha, lam, m)
    lhs = e @ (su.j_minus + su.j_plus)
    rhs = (su.j_minus - 2 * alpha * su.j_zero + (1 + alpha * alpha) * su.j_plus) @ e
    resid = (lhs - rhs)[: m - 1, : m - 1]
    scale = max(1.0, float(np.max(np.abs(lhs[: m - 1, : m - 1]))))
    return float(np.max(np.abs(resid))) / scale


def masked_commutator_residuals(su: Su11Matrices) -> dict:
    """Deviation of [J_-, J_+] = 2 J_0 and [J_pm, J_0] = -/+ J_pm on the
    truncation-safe block."""
    k = su.dimension - 1
    c1 = su.j_minus @ su.j_plus - su.j_plus @ su.j_minus - 2 * su.j_zero
    c2 = su.j_plus @ su.j_zero - su.j_zero @ su.j_plus + su.j_plus
    c3 = su.j_minus @ su.j_zero - su.j_zero @ su.j_minus - su.j_minus
    return {
        "[J-,J+]-2J0": float(np.max(np.abs(c1[:k, :k]))),
        "[J+,J0]+J+": float(np.max(np.abs(c2[:k, :k]))),
        "[J-,J0]-J-": float(np.max(np.abs(c3[:k, :k]))),
    }
