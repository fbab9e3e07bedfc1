"""Vertex-weight parametrization, the quantum-group normalization and the R-matrix.

Spectral parameters are complex throughout: real (lambda, eta) covers the
disordered regime, purely imaginary phi_pm reaches the ferro- and
antiferroelectric regimes through the same code path.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .lazy import mpmath, np
from .logscale import mp_scalar

SIN_CUTOFF = 1e-9


class _Spectral(NamedTuple):
    lam: complex
    eta: complex


class ModelParams(_Spectral):
    """Spectral parameters (radians); phi_pm are always derived."""

    __slots__ = ()

    def __new__(cls, lam: complex, eta: complex) -> "ModelParams":
        self = super().__new__(cls, complex(lam), complex(eta))
        for name, z in (("lambda+eta", self.phi_plus), ("lambda-eta", self.phi_minus),
                        ("2 eta", 2 * self.eta)):
            try:
                s = cmath.sin(z)
            except OverflowError:
                raise ValueError(f"sin({name}) = sin({z}) overflows a double") from None
            if name != "2 eta" and abs(s) < SIN_CUTOFF:   # c = sin 2 eta may be 0
                raise ValueError(f"sin({name}) = sin({z}) is below {SIN_CUTOFF}")
        return self

    @property
    def phi_plus(self) -> complex:
        return self.lam + self.eta

    @property
    def phi_minus(self) -> complex:
        return self.lam - self.eta

    @property
    def disordered(self) -> bool:
        """0 < Re phi_+ < pi, where e^{2 phi_+ x}/(1 + e^{2 pi x}) decays both ways."""
        return 0 < self.phi_plus.real < math.pi

    def mp_phis(self) -> tuple:
        """(phi_minus, phi_plus) as mpmath scalars: lambda -+ eta summed at the
        working precision, where the sum in doubles would round."""
        lam, eta = mp_scalar(self.lam), mp_scalar(self.eta)
        return lam - eta, lam + eta


def symmetric_weights(p: ModelParams) -> tuple:
    """The six vertex weights (a, a, b, b, c, c), with a = sin(lambda+eta),
    b = sin(lambda-eta) and c = sin(2 eta)."""
    a, b, c = cmath.sin(p.phi_plus), cmath.sin(p.phi_minus), cmath.sin(2 * p.eta)
    return (a, a, b, b, c, c)


def qgroup_prefactor(n: int, p: ModelParams):
    """log of [sin phi_+]^{N^2} e^{-i phi_- N} as an mpmath scalar at the
    working precision: Z_N = Z~_N exp(this), where Z~_N is the partition
    function at the quantum-group weights w1 = w2 = 1, w3 = w4 = b/a,
    w5 = (c/a) e^{-i phi_-}, w6 = (c/a) e^{i phi_-}; the phase split uses
    n6 - n5 = N.  `LogScaledValue.scale_log` rounds it to doubles."""
    phi_minus, phi_plus = p.mp_phis()
    return n * n * mpmath.log(mpmath.sin(phi_plus)) - 1j * n * phi_minus


def r_matrix(nu: complex, eta: complex) -> np.ndarray:
    """Unitarity-normalized 4x4 R-matrix on pairs of two-state edge labels:
    corners 1, center [[beta, e^{i nu} gamma], [e^{-i nu} gamma, beta]] with
    beta = sin nu / sin(nu+2 eta), gamma = sin 2 eta / sin(nu+2 eta)."""
    denom = cmath.sin(nu + 2 * eta)
    if abs(denom) < SIN_CUTOFF:
        raise ValueError("sin(nu + 2 eta) vanishes")
    beta = cmath.sin(nu) / denom
    gamma = cmath.sin(2 * eta) / denom
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0
    m[1, 1] = m[2, 2] = beta
    m[1, 2] = cmath.exp(1j * nu) * gamma
    m[2, 1] = cmath.exp(-1j * nu) * gamma
    return m


def check_unitarity(nu: complex, eta: complex) -> float:
    """max |(R(nu) P R(-nu) P - I)_ij| with P = R(0) the permutation."""
    perm = r_matrix(0.0, eta)
    r_pos = r_matrix(nu, eta)
    r_neg = r_matrix(-nu, eta)
    resid = r_pos @ perm @ r_neg @ perm - np.eye(4)
    return float(np.max(np.abs(resid)))
