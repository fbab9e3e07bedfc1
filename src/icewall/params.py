"""Vertex-weight parametrization, the quantum-group normalization and the R-matrix.

Spectral parameters are complex throughout: real (lambda, eta) covers the
disordered regime, purely imaginary phi_pm reaches the ferro- and
antiferroelectric regimes through the same code path.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import SingularParameterError

SIN_CUTOFF = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Spectral parameters (radians); phi_pm are always derived."""

    lam: complex
    eta: complex

    def __post_init__(self):
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "eta", complex(self.eta))
        for name, phi in (("lambda+eta", self.phi_plus), ("lambda-eta", self.phi_minus)):
            if abs(cmath.sin(phi)) < SIN_CUTOFF:
                raise SingularParameterError(
                    f"sin({name}) = sin({phi}) is below {SIN_CUTOFF}")

    @property
    def phi_plus(self) -> complex:
        return self.lam + self.eta

    @property
    def phi_minus(self) -> complex:
        return self.lam - self.eta


@dataclass(frozen=True)
class VertexWeights:
    """Boltzmann weights of the six vertex states."""

    w1: complex
    w2: complex
    w3: complex
    w4: complex
    w5: complex
    w6: complex

    def as_tuple(self) -> tuple:
        return (self.w1, self.w2, self.w3, self.w4, self.w5, self.w6)

    @classmethod
    def symmetric(cls, a: complex, b: complex, c: complex) -> "VertexWeights":
        return cls(a, a, b, b, c, c)

    def scaled(self, s: complex) -> "VertexWeights":
        return VertexWeights(*(s * w for w in self.as_tuple()))


def symmetric_weights(p: ModelParams) -> tuple:
    """(a, b, c) = (sin(lambda+eta), sin(lambda-eta), sin(2 eta))."""
    return (cmath.sin(p.phi_plus), cmath.sin(p.phi_minus), cmath.sin(2 * p.eta))


def qgroup_weights(p: ModelParams) -> VertexWeights:
    """Quantum-group normalized weights: w1 = w2 = 1, asymmetric w5/w6.

    The phase split e^{-i phi_-} / e^{+i phi_-} on w5/w6 uses n6 - n5 = N to
    strip the boundary factor from the partition function.
    """
    a, b, c = symmetric_weights(p)
    if abs(a) < SIN_CUTOFF:
        raise SingularParameterError("qgroup weights need sin(lambda+eta) != 0")
    ph = cmath.exp(1j * p.phi_minus)
    return VertexWeights(1.0, 1.0, b / a, b / a, (c / a) / ph, (c / a) * ph)


def qgroup_prefactor(n: int, p: ModelParams) -> complex:
    """log of [sin phi_+]^{N^2} e^{-i phi_- N}: Z_N = Z~_N exp(this), where
    Z~_N is the partition function at the qgroup_weights normalization."""
    return n * n * cmath.log(cmath.sin(p.phi_plus)) - 1j * complex(p.phi_minus) * n


def r_matrix(nu: complex, eta: complex) -> np.ndarray:
    """Unitarity-normalized 4x4 R-matrix on pairs of two-state edge labels:
    corners 1, center [[beta, e^{i nu} gamma], [e^{-i nu} gamma, beta]] with
    beta = sin nu / sin(nu+2 eta), gamma = sin 2 eta / sin(nu+2 eta)."""
    denom = cmath.sin(nu + 2 * eta)
    if abs(denom) < SIN_CUTOFF:
        raise SingularParameterError("sin(nu + 2 eta) vanishes")
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
