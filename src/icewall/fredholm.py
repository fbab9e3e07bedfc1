"""Fredholm-determinant representations and their Nystrom evaluation.

Three kernel families share one entry point: the continuous kernel on the
real line (real spectral parameters), the discrete kernel on the
nonnegative integers (imaginary parameters), and the Laguerre kernel on
the positive half-axis (rational degeneration).  Each is discretized to a
finite matrix and the determinant of I minus that matrix is taken.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceWarning, SingularParameterError
from .logscale import LogScaledValue
from .orthopoly import (cd_bracket, cd_pointwise, laguerre_deriv, laguerre_eval,
                        meixner_poly, mp_deriv, mp_eval, weight_shifted)
from .params import ModelParams, qgroup_prefactor
from .quadrature import QuadraturePlan, decay_cutoff

CONVERGENCE_TOL = 1e-8


@dataclass(frozen=True)
class KernelSpec:
    kind: str                      # disordered | discrete | rational
    n: int                         # operator order
    params: Optional[ModelParams] = None
    phi_tilde: Optional[tuple] = None   # (phi~_+, phi~_-) for the discrete kernel
    xi: Optional[float] = None          # phi_- / phi_+ for the rational kernel

    @classmethod
    def disordered(cls, n: int, p: ModelParams) -> "KernelSpec":
        if not 0 < complex(p.phi_plus).real < math.pi:
            raise SingularParameterError("disordered kernel needs 0 < Re phi_+ < pi")
        return cls("disordered", n, params=p)

    @classmethod
    def discrete(cls, n: int, phi_tilde_plus: complex, phi_tilde_minus: complex) -> "KernelSpec":
        if complex(phi_tilde_plus).real <= 0:
            raise SingularParameterError("discrete kernel needs Re phi~_+ > 0")
        return cls("discrete", n, phi_tilde=(complex(phi_tilde_plus), complex(phi_tilde_minus)))

    @classmethod
    def rational(cls, n: int, xi: float) -> "KernelSpec":
        return cls("rational", n, xi=float(xi))


# --------------------------------------------------------------------------
# kernels


def _kernel(spec: KernelSpec, x: np.ndarray, dx: Optional[np.ndarray] = None,
            zeta: complex = 1) -> np.ndarray:
    """zeta K(x_i, x_j) dx_j over all node pairs, where K(x, y) = c_N B(x, y) w(y)
    with B the bracket of the kernel's polynomial family:

    disordered  c_N = N,                  w(y) = e^{2 phi_+ y}/(1 + e^{2 pi y}),
                P = Meixner-Pollaczek P^{(1/2)}(.; phi_-);
    rational    c_N = -N,                 w(y) = e^{-y},  P = L(xi .);
    discrete    c_N = -N e^{-2N phi~_-},  w(y) = e^{-2 phi~_+ y},
                P = Meixner M(.; 1, e^{-2 phi~_-}).
    """
    n = spec.n
    if spec.kind == "disordered":
        phi = spec.params.phi_minus
        polys = [np.array([f(k, 0.5, xi, phi) for xi in x])
                 for f, k in ((mp_eval, n), (mp_eval, n - 1),
                              (mp_deriv, n), (mp_deriv, n - 1))]
        c, w = n, weight_shifted(2 * x, spec.params.phi_plus)
    elif spec.kind == "rational":
        s = spec.xi
        ln, ln1, dln, dln1 = [np.array([f(k, s * xi) for xi in x])
                              for f, k in ((laguerre_eval, n), (laguerre_eval, n - 1),
                                           (laguerre_deriv, n), (laguerre_deriv, n - 1))]
        polys = [ln, ln1, s * dln, s * dln1]
        c, w = -n, np.exp(-x)
    elif spec.kind == "discrete":
        pt_plus, pt_minus = spec.phi_tilde
        q = cmath.exp(-2 * pt_minus)
        q = q.real if abs(q.imag) < 1e-15 else q
        mn, mn1 = meixner_poly(n, 1.0, q), meixner_poly(n - 1, 1.0, q)
        polys = [mn(x), mn1(x), mn.deriv()(x), mn1.deriv()(x)]
        c, w = -n * cmath.exp(-2 * n * pt_minus), np.exp(-2 * pt_plus * x)
    else:
        raise ValueError(f"unknown kernel kind {spec.kind!r}")
    if dx is not None:
        w = w * dx
    return zeta * c * cd_bracket(x, *polys) * w[None, :]


def _pointwise(spec: KernelSpec, x: float, y: float):
    return cd_pointwise(lambda nodes: _kernel(spec, nodes), float(x), float(y))


def kernel_disordered(x: float, y: float, n: int, p: ModelParams) -> complex:
    """N [P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)]/(x - y) * e^{2 phi_+ y}/(1 + e^{2 pi y}).

    The loop factor zeta multiplies the operator, not this kernel.
    """
    return _pointwise(KernelSpec.disordered(n, p), x, y)


def kernel_discrete(x: int, y: int, n: int, phi_tilde_plus: complex,
                    phi_tilde_minus: complex) -> complex:
    """Discrete Meixner kernel on nonnegative integers; the x = y value is
    the Christoffel-Darboux confluent limit of the polynomial bracket."""
    spec = KernelSpec.discrete(n, phi_tilde_plus, phi_tilde_minus)
    if x < 0 or y < 0 or x != int(x) or y != int(y):
        raise ValueError("discrete kernel arguments are nonnegative integers")
    return _pointwise(spec, x, y)


def kernel_rational(x: float, y: float, n: int, xi: float) -> float:
    """-N [L_N(xi x) L_{N-1}(xi y) - L_{N-1}(xi x) L_N(xi y)]/(x - y) * e^{-y}."""
    if x < 0 or y < 0:
        raise ValueError("rational kernel lives on the positive half-axis")
    return _pointwise(KernelSpec.rational(n, xi), x, y)


# --------------------------------------------------------------------------
# discretized operators


def default_plan(spec: KernelSpec) -> QuadraturePlan:
    if spec.kind == "disordered":
        pp = complex(spec.params.phi_plus)
        order = 2 * spec.n + 1
        hi = decay_cutoff(2 * math.pi - 2 * pp.real, poly_order=order)
        lo = -decay_cutoff(2 * pp.real, poly_order=order)
        return QuadraturePlan.on_interval(lo, hi, panel_width=1.0, nodes_per_panel=32)
    if spec.kind == "rational":
        hi = decay_cutoff(1.0, poly_order=2 * spec.n + 1)
        return QuadraturePlan.on_interval(0.0, hi, panel_width=1.0, nodes_per_panel=32)
    raise ValueError("the discrete kernel uses truncation, not quadrature")


def discrete_cutoff(spec: KernelSpec) -> int:
    pt_plus = spec.phi_tilde[0].real
    x = 10.0
    for _ in range(60):
        x = (45.0 + 2 * spec.n * math.log(max(x, 2.0))) / (2 * pt_plus)
    return int(math.ceil(x)) + 2


def operator_matrix(spec: KernelSpec, plan: Optional[QuadraturePlan] = None,
                    x_max: Optional[int] = None) -> np.ndarray:
    """The finite matrix whose determinant of (I - .) approximates the
    Fredholm determinant.  zeta is folded in for the disordered kernel; the
    discrete and rational kernels carry their own prefactors."""
    if spec.kind == "discrete":
        return _kernel(spec, np.arange(x_max or discrete_cutoff(spec), dtype=float))
    plan = plan or default_plan(spec)
    zeta = 1
    if spec.kind == "disordered":
        p = spec.params
        zeta = cmath.exp(1j * (complex(p.phi_minus) - complex(p.phi_plus)))
    return _kernel(spec, plan.nodes, plan.weights, zeta)


def _logdet_i_minus(matrix: np.ndarray) -> LogScaledValue:
    sign, logabs = np.linalg.slogdet(np.eye(matrix.shape[0]) - matrix)
    return LogScaledValue(float(logabs), float(np.angle(sign)))


def fredholm_det(spec: KernelSpec, plan: Optional[QuadraturePlan] = None) -> LogScaledValue:
    """Fredholm determinant det(I - operator), with a refinement check:
    the result is accepted only if doubling the discretization moves the
    log-determinant by less than the convergence tolerance."""
    if spec.kind == "discrete":
        x_max = discrete_cutoff(spec)
        result = _logdet_i_minus(operator_matrix(spec, x_max=x_max))
        refined = _logdet_i_minus(operator_matrix(spec, x_max=x_max + 10))
        if abs(refined.log_magnitude - result.log_magnitude) > 1e-10:
            warnings.warn("discrete kernel truncation not converged",
                          ConvergenceWarning)
        return result
    plan = plan or default_plan(spec)
    result = _logdet_i_minus(operator_matrix(spec, plan=plan))
    refined = _logdet_i_minus(operator_matrix(spec, plan=plan.refined()))
    if abs(refined.log_magnitude - result.log_magnitude) > CONVERGENCE_TOL:
        warnings.warn("Nystrom determinant not plan-converged",
                      ConvergenceWarning)
    return result


def full_partition_fredholm(n: int, p: ModelParams,
                            plan: Optional[QuadraturePlan] = None) -> LogScaledValue:
    """Symmetric-weight Z_N through the disordered Nystrom determinant."""
    zt = fredholm_det(KernelSpec.disordered(n, p), plan=plan)
    return zt.scale_log(qgroup_prefactor(n, p))


def trace_moments(spec: KernelSpec, plan: Optional[QuadraturePlan] = None,
                  n_max: int = 3) -> list:
    """tr(V^k) for k = 1..n_max of the discretized operator."""
    if n_max > 6:
        raise ValueError("trace moments supported for n_max <= 6")
    d = operator_matrix(spec, plan=plan)
    out = []
    power = np.eye(d.shape[0], dtype=complex)
    for _ in range(n_max):
        power = power @ d
        out.append(complex(np.trace(power)))
    return out
