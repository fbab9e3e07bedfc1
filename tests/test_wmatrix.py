"""Finite W-matrix determinant and its Gauss factorization."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icewall.cli import ROUTES_BY_NAME, TOL
from icewall.determinants import default_bits
from icewall.enumeration import enumerate_configs
from icewall.hankel import partition_hankel
from icewall.logscale import LogScaledValue
from icewall.params import ModelParams, qgroup_prefactor, symmetric_weights
from icewall.fredholm import KernelSpec, nodes, operator_matrix
from icewall.wmatrix import (BetaGamma, _w_matrix_mp, full_partition,
                             full_partition_gauss, rational_z_tilde,
                             reconstruction_deviation, w_matrix, w_matrix_gauss)

P_REF = ModelParams(0.9, 0.3)


def test_beta_gamma_values():
    bg = BetaGamma.from_params(P_REF)
    sp = math.sin(1.2)
    assert bg.beta == pytest.approx(math.sin(0.6) / sp)
    assert bg.gamma == pytest.approx(math.sin(0.6) / sp)
    assert bg.zeta == pytest.approx(cmath.exp(-0.6j))


def test_rational_degeneration_values():
    bg = BetaGamma.rational(0.9, 0.3)
    assert bg.beta == pytest.approx(0.5)
    assert bg.gamma == pytest.approx(0.5)
    assert bg.zeta == 1


@settings(max_examples=30)
@given(j=st.integers(0, 8), k=st.integers(0, 8))
def test_entry_binomial_matches_hypergeometric(j, k):
    bg = BetaGamma.from_params(P_REF)
    # W_jk = beta gamma^{j+k} 2F1(-j, -k; 1; (beta/gamma)^2)
    a = w_matrix(9, bg)[j, k]
    b = complex(bg.beta * bg.gamma ** (j + k)
                * mpmath.hyp2f1(-j, -k, 1, (bg.beta / bg.gamma) ** 2))
    assert abs(a - b) < 1e-12 * (1 + abs(a))


@pytest.mark.parametrize("lam, eta", [(0.9, 0.3), (0.9 + 0.1j, 0.3 + 0.05j)])
@pytest.mark.parametrize("n", [8, 16])
def test_w_builder_matches_term_by_term_binomial_sum(n, lam, eta):
    # rows of W - zeta^{-1} I and log (-zeta)^N; W stays real at real
    # parameters, only the diagonal carries zeta^{-1}
    with mpmath.workprec(256):
        rows, log_minus_zeta = _w_matrix_mp(n, ModelParams(lam, eta))
        sp = mpmath.sin(mpmath.mpc(lam) + eta)
        beta = mpmath.sin(mpmath.mpc(lam) - eta) / sp
        gamma = mpmath.sin(2 * mpmath.mpc(eta)) / sp
        zeta = mpmath.exp(-2j * mpmath.mpc(eta))
        assert abs(mpmath.exp(log_minus_zeta) - (-zeta) ** n) <= 1e-60
        for j in range(n):
            for k in range(n):
                ref = sum(math.comb(j, m) * math.comb(k, m) * beta ** (2 * m + 1)
                          * gamma ** (j + k - 2 * m) for m in range(min(j, k) + 1))
                ref -= (j == k) / zeta
                assert abs(rows[j][k] - ref) <= 1e-60 * abs(ref)
                assert isinstance(rows[j][k], mpmath.mpf) == (lam.imag == 0 and j != k)


def test_matrix_symmetry_and_corner():
    bg = BetaGamma.from_params(P_REF)
    w = w_matrix(5, bg)
    assert np.max(np.abs(w - w.T)) == 0
    assert w[0, 0] == pytest.approx(bg.beta)


def test_gauss_factorization_reproduces_matrix():
    bg = BetaGamma.from_params(P_REF)
    for n in (2, 4, 7):
        assert np.max(np.abs(w_matrix(n, bg) - w_matrix_gauss(n, bg))) < 1e-12


def test_integral_oracle_matches_entries():
    # W is the Gram matrix of the disordered kernel's weight, which its
    # 5-node Gauss rule takes exactly
    bg = BetaGamma.from_params(P_REF)
    spec = KernelSpec("disordered", 5, P_REF)
    gram = operator_matrix(spec, *nodes(spec)[:2]) / bg.zeta
    assert np.max(np.abs(gram - w_matrix(5, bg))) < 1e-10


def test_full_partition_vs_enumeration():
    for n in range(1, 6):
        ref = enumerate_configs(n, symmetric_weights(P_REF)).z_value
        assert full_partition(n, P_REF, default_bits(5)).rel_diff(ref) < 1e-12
        assert full_partition_gauss(n, P_REF).rel_diff(ref) < 1e-10


@pytest.mark.parametrize("lam, eta", [(0.9 + 2j, 0.3), (2j, 0.5j)])
def test_gauss_refuses_an_ill_conditioned_determinant(lam, eta):
    # at N=10, cond_2(I - zeta W) 2^-52 is 3.6 and 2.4e-3 here: gauss was
    # off by 3.45 in log|Z| and by 2.9e-3
    with pytest.raises(ValueError, match="gauss: the error estimate"):
        ROUTES_BY_NAME["gauss"].answer(10, ModelParams(lam, eta), None, None, TOL)


def test_gauss_takes_the_ice_point_up_to_its_limit():
    # the largest accepted estimate at any checked point: 2.4e-10 here at N=12
    p = ModelParams(math.pi / 2, math.pi / 6)
    for n in (11, 12):
        assert full_partition_gauss(n, p).rel_diff(full_partition(n, p, default_bits(n))) < 1e-10


def test_full_partition_complex_parameters():
    p = ModelParams(0.7 + 0.1j, 0.25 - 0.05j)
    for n in range(1, 5):
        ref = enumerate_configs(n, symmetric_weights(p)).z_value
        assert full_partition(n, p, default_bits(n)).rel_diff(ref) < 1e-12


def test_rational_small_determinants():
    # N=1: det(I - W) = 1 - beta = 1 - (lam-eta)/(lam+eta)
    v = rational_z_tilde(1, 0.9, 0.3).value
    assert v == pytest.approx(0.5)
    # rational weights (a, b, c) = (lam+eta, lam-eta, 2 eta) via enumeration
    for n in (2, 3):
        ref = enumerate_configs(n, (1.2, 1.2, 0.6, 0.6, 0.6, 0.6)).z_value
        z = rational_z_tilde(n, 0.9, 0.3).scale_log(n * n * math.log(1.2))
        assert z.rel_diff(ref) < 1e-12


def test_triangular_reconstruction():
    for n in range(1, 7):
        assert reconstruction_deviation(n, P_REF) < 1e-12


def test_z_tilde_matches_qgroup_enumeration():
    # det(I - zeta W) is the partition function in the quantum-group
    # normalization w1 = w2 = 1, w3 = w4 = b/a, w5, w6 = (c/a) e^{-/+ i phi_-}:
    # n6 - n5 = N, so the phase split strips the boundary factor e^{-i phi_- N};
    # qgroup_prefactor restores it and [sin phi_+]^{N^2}, as full_partition does
    a, _, b, _, c, _ = symmetric_weights(P_REF)
    ph = cmath.exp(1j * P_REF.phi_minus)
    w = (1.0, 1.0, b / a, b / a, c / a / ph, c / a * ph)
    for n in range(1, 5):
        ref = enumerate_configs(n, w).z_value.scale_log(qgroup_prefactor(n, P_REF))
        assert full_partition(n, P_REF, default_bits(4)).rel_diff(ref) < 1e-12


@pytest.mark.parametrize("n", [10, 20, 30, 40])
def test_ice_point_closed_form_large_n(n):
    # Z_N = (sqrt(3)/2)^{N^2} A_N with A_N = prod_{k<N} (3k+1)!/(N+k)!, the
    # alternating-sign-matrix count, exact in integers
    num = den = 1
    for k in range(n):
        num *= math.factorial(3 * k + 1)
        den *= math.factorial(n + k)
    assert num % den == 0
    exact = LogScaledValue(n * n * math.log(math.sqrt(3) / 2) + math.log(num // den), 0.0)
    p = ModelParams(math.pi / 2, math.pi / 6)
    assert full_partition(n, p, default_bits(n)).rel_diff(exact) <= 1e-10
    assert partition_hankel(n, p, default_bits(n)).rel_diff(exact) <= 1e-10


@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("lam", [0.9, 0.5 + 0.1j])
def test_free_fermion_closed_form_large_n(n, lam):
    # on the free-fermion line eta = pi/4, Z_N = c^N (a^2 + b^2)^{N(N-1)/2}
    # (the 2-enumeration of alternating-sign matrices) for every lambda;
    # |Z| = 1 at real lambda, so the bound is absolute in log Z
    p = ModelParams(lam, math.pi / 4)
    a, _, b, _, c, _ = symmetric_weights(p)
    exact = n * cmath.log(c) + n * (n - 1) / 2 * cmath.log(a * a + b * b)
    bits = default_bits(n)
    for z in (full_partition(n, p, bits), partition_hankel(n, p, bits)):
        assert abs(z.log_magnitude - exact.real) <= 1e-11
        assert abs(math.remainder(z.angle - exact.imag, 2 * math.pi)) <= 1e-11


@pytest.mark.parametrize("t, gamma, n, per_log_z, floor", [
    (2.0, 0.5, 24, 5e-15, 0), (2.0, 0.5, 40, 5e-15, 0), (2.0, 0.5, 60, 5e-15, 0),
    (0.8, 0.3, 60, 0, 1e-8)])
def test_ferroelectric_asymptotics_large_n(t, gamma, n, per_log_z, floor):
    # Bleher & Liechty (2009): at (lambda, eta) = (i t, i gamma), 0 < gamma < t,
    # Z_N = C e^{N (gamma - t)} sinh(t + gamma)^{N^2} e^{i pi N^2/2} up to an
    # exponentially small remainder, with C = prod_{l>=1} (1 - e^{-4 l gamma});
    # at (0.8i, 0.3i) the remainder is still 2.2e-9 at N=60, the floor
    log_c = sum(math.log1p(-math.exp(-4 * l * gamma)) for l in range(1, 100))
    log_z = log_c + n * (gamma - t) + n * n * math.log(math.sinh(t + gamma))
    exact = LogScaledValue(log_z, n * n % 4 * math.pi / 2)
    p = ModelParams(1j * t, 1j * gamma)
    tol = max(per_log_z * abs(log_z), floor)
    for route in (full_partition, partition_hankel):
        assert route(n, p, default_bits(n)).rel_diff(exact) <= tol
