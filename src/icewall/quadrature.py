"""Gauss rules: the N-node rule of a three-term recurrence, which the
Fredholm kernels and the integral-form oracles take on their own weights, and
the decay cutoff of the discrete kernel's lattice.
"""

from __future__ import annotations

import cmath
import math

from .lazy import np


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


def decay_cutoff(rate: float, poly_order: int) -> float:
    """Smallest L with exp(-rate*L) * L^poly_order below 1e-18.

    `rate` must be positive; poly_order accounts for polynomial growth of
    the non-exponential part of the integrand.
    """
    if rate <= 0:
        raise ValueError("decay rate must be positive")
    target = 18 * math.log(10) + 5.0   # the 1e-18 tail, plus a margin of e^5
    L = target / rate
    for _ in range(40):
        new = (target + poly_order * math.log(max(L, 2.0))) / rate
        if abs(new - L) < 1e-9:
            break
        L = new
    return L
