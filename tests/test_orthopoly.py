"""Orthogonal-polynomial families, kernels, moments, and the triangular
su(1,1) identities."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.linalg import expm
from scipy.special import eval_laguerre, loggamma

from icewall.hankel import cot_derivative_poly
from icewall.orthopoly import (_log_abs_gamma_sq, connection_coeffs,
                               exp_jplus_entries, inm_closed, inm_quadrature,
                               key_conjugation_check, laguerre_deriv,
                               laguerre_eval, masked_commutator_residuals,
                               meixner_poly, mp_deriv, mp_eval, su11_matrices,
                               weight_shifted)
from icewall.quadrature import gauss_legendre


# --------------------------------------------------------------------------
# recurrences vs mpmath's terminating hypergeometric sums


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 12), lam=st.floats(0.2, 2.0),
       x=st.floats(-3.0, 3.0), phi=st.floats(0.2, 2.9))
def test_mp_recurrence_matches_hypergeometric(n, lam, x, phi):
    # P_n = (2 lam)_n / n! e^{i n phi} 2F1(-n, lam + ix; 2 lam; 1 - e^{-2 i phi})
    a = mp_eval(n, lam, x, phi)
    b = complex(mpmath.rf(2 * lam, n) / mpmath.factorial(n) * mpmath.exp(1j * n * phi)
                * mpmath.hyp2f1(-n, lam + 1j * x, 2 * lam, 1 - mpmath.exp(-2j * phi)))
    assert abs(a - b) < 1e-9 * (1 + abs(a))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), lam=st.floats(0.3, 1.5), x=st.floats(-2.0, 2.0))
def test_mp_derivative_by_finite_differences(n, lam, x):
    phi, h = 0.9, 1e-6
    fd = (mp_eval(n, lam, x + h, phi) - mp_eval(n, lam, x - h, phi)) / (2 * h)
    assert abs(mp_deriv(n, lam, x, phi) - fd) < 1e-7 * (1 + abs(fd))


def test_meixner_polynomial_object_agrees_with_recurrence():
    # M_n(x; 1, c) = 2F1(-n, -x; 1; 1 - 1/c)
    for n in range(6):
        poly = meixner_poly(n, 1.0, 0.55)
        for x in (0.0, 1.0, 3.5):
            assert poly(x) == pytest.approx(
                float(mpmath.hyp2f1(-n, -x, 1, 1 - 1 / 0.55)), rel=1e-12, abs=1e-12)


@given(n=st.integers(0, 10), x=st.floats(0.0, 20.0))
def test_laguerre_against_scipy(n, x):
    assert laguerre_eval(n, x) == pytest.approx(eval_laguerre(n, x),
                                                rel=1e-9, abs=1e-9)


def test_laguerre_derivative_near_zero():
    for n in (1, 3, 6):
        h = 1e-6
        fd = (laguerre_eval(n, h) - laguerre_eval(n, 0.0)) / h
        assert laguerre_deriv(n, 1e-10) == pytest.approx(fd, abs=1e-4)


# --------------------------------------------------------------------------
# the weight and its moments


def test_weight_normalization():
    # integral of e^{phi x}/(1 + e^{pi x}) over the real axis is 1/sin(phi)
    phi = 0.9
    x, dx = gauss_legendre(-45.0, 25.0, 70)
    total = np.sum(weight_shifted(x, phi) * dx)
    assert complex(total).real == pytest.approx(1 / math.sin(phi), rel=1e-12)


def test_weight_no_overflow_far_out():
    vals = weight_shifted(np.array([-500.0, 500.0]), 1.8)
    assert np.all(np.isfinite(vals))


def test_moments_reproduce_cot_polynomials():
    # the v.p. moment of x^m e^{phi x}/(1 - e^{pi x}), taken on the shifted
    # contour as e^{-i phi} int (x - i)^m e^{phi x}/(1 + e^{pi x}) dx,
    # is T_m(cot phi) - i [m = 0]
    phi = 0.9
    c = 1 / math.tan(phi)
    for m in range(6):
        integral = mpmath.quad(lambda x: (x - 1j) ** m * mpmath.exp(phi * x)
                               / (1 + mpmath.exp(mpmath.pi * x)), [-mpmath.inf, 0, mpmath.inf])
        mom = complex(mpmath.exp(-1j * phi) * integral)
        expected = polyval(c, cot_derivative_poly(m)) - (1j if m == 0 else 0)
        assert abs(mom - expected) < 1e-10 * (1 + abs(expected))


# --------------------------------------------------------------------------
# parameter-connection identities


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 10), x=st.floats(-2.0, 2.0))
def test_connection_formula(n, x):
    tau, phi = 0.7, 1.1
    coeffs = connection_coeffs(n, 0.5, tau, phi)
    expanded = sum(c * mp_eval(k, 0.5, x, phi) for k, c in enumerate(coeffs))
    assert abs(mp_eval(n, 0.5, x, tau) - expanded) < 1e-11 * (1 + abs(expanded))


def test_log_abs_gamma_against_scipy():
    x = np.linspace(-80.0, 80.0, 1601)
    for lam in (0.25, 0.5, 1.0, 2.5, 7.0):
        reference = 2 * np.real(loggamma(lam + 1j * x))
        assert np.max(np.abs(_log_abs_gamma_sq(lam, x) - reference)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
def test_overlap_integral_closed_form(lam):
    tau, omega, phi = 1.1, 0.7, 0.9
    for n in range(5):
        for m in range(5):
            closed = inm_closed(n, m, lam, tau, omega, phi)
            quad = inm_quadrature(n, m, lam, tau, omega, phi)
            assert abs(closed - quad) < 1e-10 * (1 + abs(closed))


def test_overlap_integral_degenerate_parameters():
    # tau = phi truncates the connection sum; stays finite and correct
    lam, phi = 0.5, 0.9
    v = inm_closed(2, 3, lam, phi, 0.7, phi)
    q = inm_quadrature(2, 3, lam, phi, 0.7, phi)
    assert abs(v - q) < 1e-10


# --------------------------------------------------------------------------
# su(1,1) triangular machinery


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_masked_commutators(lam):
    su = su11_matrices(9, lam)
    assert np.array_equal(np.diag(su.j_zero), np.arange(9) + lam)
    assert max(masked_commutator_residuals(su).values()) < 1e-12


def test_exp_jplus_matches_scaling_and_squaring():
    m, alpha, lam = 8, 0.45, 0.5
    su = su11_matrices(m, lam)
    direct = expm(alpha * np.asarray(su.j_plus, dtype=complex))
    closed = exp_jplus_entries(alpha, lam, m)
    assert np.max(np.abs(direct - closed)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(-1.2, 1.2), m=st.integers(3, 12))
def test_key_conjugation_identity(alpha, m):
    assert key_conjugation_check(alpha, 0.5, m) < 1e-10


def test_key_conjugation_general_weight():
    for lam in (0.5, 1.0, 1.5):
        assert key_conjugation_check(0.6, lam, 10) < 1e-11
