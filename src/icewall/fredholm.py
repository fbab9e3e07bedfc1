"""Fredholm-determinant representations and their evaluation in rank-N form.

Three kernel families share one entry point: the continuous kernel on the
real line (real spectral parameters), the discrete kernel on the
nonnegative integers (imaginary parameters), and the Laguerre kernel on
the positive half-axis (rational degeneration).  This module is the one
place that knows each kernel: its parameters at (lambda, eta), its domain,
its N cap and the factor that takes its determinant Z~_N to Z_N.  Each is a
Christoffel-Darboux sum of N rank-one terms, so on any set of nodes the
determinant of I minus the m x m Nystrom matrix equals that of an N x N
Gram matrix (Sylvester's identity); only the N x N matrix is built.  The
Gram integrand of a continuous kernel is a polynomial of degree at most
2N - 2 times the weight, so the N-node Gauss rule of the weight gives the
matrix exactly.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional

from .determinants import i_minus_error, slogdet_i_minus as _logdet_i_minus
from .lazy import np
from .logscale import LogScaledValue
# mp_deriv and laguerre_deriv are unused here: perfbench/layers.py wraps them by name
from .orthopoly import (laguerre_deriv, laguerre_eval, meixner_poly,  # noqa: F401
                        mp_deriv, mp_eval, mp_rule)
from .params import ModelParams, qgroup_prefactor

FREDHOLM_LIMIT = 16  # disordered, discrete: past it, double-precision Gram roundoff shows


class KernelSpec(NamedTuple):
    kind: str               # disordered | discrete | rational
    n: int                  # operator order
    params: ModelParams

    @property
    def phi_tilde(self) -> tuple:
        """(phi~_+, phi~_-) = (Im phi_+, Im phi_-) of the discrete kernel, as
        complex numbers, so that the lattice weights are a complex array."""
        p = self.params
        return complex(p.phi_plus.imag), complex(p.phi_minus.imag)

    @property
    def xi(self) -> float:
        """phi_- / phi_+ of the rational kernel, at real lambda, eta."""
        return self.params.phi_minus.real / self.params.phi_plus.real


def refusal(kind: str, p: ModelParams) -> Optional[str]:
    """Why the kernel does not give Z_N at p, or None: the disordered kernel's
    weight decays both ways only in the strip, the discrete kernel takes
    phi_pm = i phi~_pm, and the rational one real weights."""
    if kind == "disordered":
        return None if p.disordered else "needs 0 < Re(lambda + eta) < pi"
    if kind == "discrete":
        if abs(p.phi_plus.real) < 1e-12 and abs(p.phi_minus.real) < 1e-12 \
                and p.phi_plus.imag > 0:
            return None
        return "needs purely imaginary lambda, eta with Im(lambda + eta) > 0"
    if kind == "rational":
        return "needs real lambda, eta" if p.lam.imag or p.eta.imag else None
    raise ValueError(f"unknown kernel kind {kind!r}")


# --------------------------------------------------------------------------
# kernels


def _expansion(spec: KernelSpec, x: np.ndarray) -> tuple:
    """(P, d) with P[i, k] = P_k(x_i) for k < N, such that the kernel is
    K(x, y) = sum_k d_k P_k(x) P_k(y) w(y), the Christoffel-Darboux sum of
    c_N [P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)]/(x - y) w(y); `nodes` folds
    the weight w into its weights:

    disordered  c_N = N,                  d_k = 2 sin phi_-,
                w(y) = e^{2 phi_+ y}/(1 + e^{2 pi y}),
                P = Meixner-Pollaczek P^{(1/2)}(.; phi_-);
    rational    c_N = -N,                 d_k = xi,  w(y) = e^{-y},
                P_k = L_k(xi .);
    discrete    c_N = -N q^N,             d_k = (1 - q) q^k,  w(y) = e^{-2 phi~_+ y},
                P = Meixner M(.; 1, q),  q = e^{-2 phi~_-}.
    """
    n = spec.n
    if spec.kind == "disordered":
        phi = spec.params.phi_minus
        polys = [mp_eval(k, 0.5, x, phi) for k in range(n)]
        d = np.full(n, 2 * cmath.sin(phi))
    elif spec.kind == "rational":
        polys = [laguerre_eval(k, spec.xi * x) for k in range(n)]
        d = np.full(n, spec.xi)
    elif spec.kind == "discrete":
        q = cmath.exp(-2 * spec.phi_tilde[1])
        q = q.real if abs(q.imag) < 1e-15 else q
        polys = [meixner_poly(k, 1.0, q)(x) for k in range(n)]
        d = (1 - q) * q ** np.arange(n)
    return np.column_stack([np.broadcast_to(v, x.shape) for v in polys]), d


# --------------------------------------------------------------------------
# discretized operators


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


def nodes(spec: KernelSpec, refined: bool = False) -> tuple:
    """(x, w, defect), the one discretization of each kernel, with the
    kernel's weight function folded into the weights w.  The discrete kernel
    takes the lattice 0..ceil(L) + 1, L where e^{-2 phi~_+ x} x^{2N} falls
    below 1e-18, and ten more sites when refined.
    The continuous kernels take the N-node Gauss rule of their weight, exact
    for the Gram matrix, and N + 1 nodes when refined: Gauss-Laguerre for the
    rational kernel, and for the disordered kernel the rule of the
    Meixner-Pollaczek weight, lambda = 1/2 at phi_+, with gauss_rule's defect."""
    if spec.kind == "discrete":
        rate = spec.phi_tilde[0]
        sites = math.ceil(decay_cutoff(2 * rate.real, 2 * spec.n)) + 2
        x = np.arange(sites + (10 if refined else 0), dtype=float)
        return x, np.exp(-2 * rate * x), 0.0
    m = spec.n + refined
    if spec.kind == "rational":
        return (*np.polynomial.laguerre.laggauss(m), 0.0)
    return mp_rule(m, 0.5, spec.params.phi_plus)


def operator_matrix(spec: KernelSpec, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The N x N matrix zeta D G with G_jk = sum_i weights_i P_j(x_i) P_k(x_i)
    and D = diag(d_k): det(I - zeta D G) equals det(I - zeta K) on the
    nodes x, by Sylvester's identity, when the weights carry the kernel's
    weight function.  zeta is folded in for the disordered kernel; the
    discrete and rational kernels carry their own prefactors."""
    zeta = 1
    if spec.kind == "disordered":
        p = spec.params
        zeta = cmath.exp(1j * (complex(p.phi_minus) - complex(p.phi_plus)))
    polys, d = _expansion(spec, x)
    return zeta * d[:, None] * (polys.T @ (polys * weights[:, None]))


def fredholm_det(spec: KernelSpec) -> LogScaledValue:
    """Fredholm determinant det(I - operator).  Its error estimate is the
    largest (or a NaN) of: how far refining the discretization moves det,
    relatively; both rules' defects; and i_minus_error, but for the rational
    kernel at N > 1 (at N = 1 its two rules give one Gram matrix, so only that
    estimate sees I - M cancel).  A non-finite defect: NaN, estimate inf, no matrix.
    A `refusal`, or N past FREDHOLM_LIMIT but for the rational kernel, is a ValueError."""
    reason = refusal(spec.kind, spec.params)
    if reason is None and spec.kind != "rational" and spec.n > FREDHOLM_LIMIT:
        reason = f"supports N <= {FREDHOLM_LIMIT}"
    if reason:
        raise ValueError(f"the {spec.kind} kernel {reason}")
    (x, w, defect), (xr, wr, refined_defect) = nodes(spec), nodes(spec, refined=True)
    if not math.isfinite(defect + refined_defect):   # a rule's polynomials overflow
        return LogScaledValue(math.nan, math.nan, math.inf)
    primary = operator_matrix(spec, x, w)
    result = _logdet_i_minus(primary)
    refined = _logdet_i_minus(operator_matrix(spec, xr, wr))
    parts = [result.rel_diff(refined), defect, refined_defect]
    if spec.kind != "rational" or spec.n == 1:
        parts.append(i_minus_error(primary))
    return result._replace(error=float(np.max(parts)))


def full_partition_fredholm(n: int, p: ModelParams, kind: str = "disordered") -> LogScaledValue:
    """Symmetric-weight Z_N from the kernel's determinant Z~_N: Z~ exp(qgroup_prefactor)
    but for the rational kernel, whose Z~ is Z at the weights (a, b, c) =
    (lambda+eta, lambda-eta, 2 eta) over a; Z is homogeneous of degree N^2 in
    them, so Z = a^{N^2} Z~, and a < 0 adds N^2 pi to the phase."""
    zt = fredholm_det(KernelSpec(kind, n, p))
    if kind != "rational":
        return zt.scale_log(qgroup_prefactor(n, p))
    a = p.phi_plus.real
    return zt.scale_log(n * n * complex(math.log(abs(a)), math.pi * (a < 0)))


def trace_moments(spec: KernelSpec) -> list:
    """tr(V^k) for k = 1, 2, 3 of the discretized operator; by cyclicity the
    N x N form has the traces of the m x m Nystrom matrix."""
    d = operator_matrix(spec, *nodes(spec)[:2])
    d2 = d @ d
    return [complex(np.trace(m)) for m in (d, d2, d2 @ d)]
