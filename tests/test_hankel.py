"""Moment (Hankel-type) determinant route and the closed-form determinants."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from icewall.checks import DELTA_HALF, delta_half_log_z
from icewall.determinants import default_bits
from icewall.enumeration import enumerate_configs
from icewall.hankel import (alpha_det_deviation, cot_derivative_poly, hankel_H,
                            matrix_A, partition_hankel)
from icewall.logscale import LogScaledValue
from icewall.params import ModelParams, symmetric_weights
from icewall.wmatrix import full_partition


def test_cot_polynomial_table():
    assert cot_derivative_poly(0) == (0, 1)            # T0 = c
    assert cot_derivative_poly(1) == (-1, 0, -1)       # T1 = -(1+c^2)
    assert cot_derivative_poly(2) == (0, 2, 0, 2)      # T2 = 2c(1+c^2)


@given(k=st.integers(0, 12))
def test_cot_polynomial_shape(k):
    coeffs = cot_derivative_poly(k)
    assert len(coeffs) == k + 2                    # degree k+1
    assert coeffs[-1] == (-1) ** k * math.factorial(k)


@settings(max_examples=30)
@given(k=st.integers(0, 10), c=st.floats(-3.0, 3.0))
def test_cot_polynomial_recurrence(k, c):
    # T_{k+1}(c) = -(1+c^2) T_k'(c), with the derivative taken exactly
    cur = cot_derivative_poly(k)
    nxt = cot_derivative_poly(k + 1)
    deriv = sum(j * cur[j] * c ** (j - 1) for j in range(1, len(cur)))
    assert polyval(c, nxt) == pytest.approx(-(1 + c * c) * deriv, rel=1e-10, abs=1e-10)


def test_moment_derivative_consistency():
    # T_m(cot phi) equals the m-th phi-derivative structure: check the
    # first two values directly against trig identities
    phi = 0.8
    c = 1 / math.tan(phi)
    assert polyval(c, cot_derivative_poly(1)) == pytest.approx(-1 / math.sin(phi) ** 2)


def test_hankel_structure():
    with mpmath.workprec(default_bits(4)):
        h = hankel_H(4, ModelParams(0.9, 0.3))
    assert len(h) == 4 and all(len(row) == 4 for row in h)
    for j in range(3):
        for k in range(1, 4):
            assert h[j][k] == h[j + 1][k - 1]


def test_hankel_entries_are_real_at_real_parameters():
    # real (lambda, eta) keep real mpf arithmetic through assembly and the LU
    for p, kind in ((ModelParams(0.9, 0.3), mpmath.mpf),
                    (ModelParams(0.9 + 0.1j, 0.3), mpmath.mpc)):
        with mpmath.workprec(default_bits(6)):
            rows = hankel_H(6, p)
        assert all(isinstance(x, kind) for row in rows for x in row)


def test_partition_hankel_vs_enumeration():
    p = ModelParams(0.9, 0.3)
    for n in range(1, 5):
        ref = enumerate_configs(n, symmetric_weights(p)).z_value
        assert partition_hankel(n, p, default_bits(n)).rel_diff(ref) < 1e-12


def test_partition_hankel_complex_parameters():
    p = ModelParams(0.7 + 0.1j, 0.25 - 0.05j)
    for n in range(1, 5):
        ref = enumerate_configs(n, symmetric_weights(p)).z_value
        assert partition_hankel(n, p, default_bits(n)).rel_diff(ref) < 1e-12


@settings(max_examples=20)
@given(re=st.floats(0.3, 2.8), im=st.floats(-0.4, 0.4))
def test_closed_determinant_matches_lu(re, im):
    phi = complex(re, im)
    bits = default_bits(8)
    assert alpha_det_deviation(8, phi, -1j, bits) < 2 ** (-bits / 2)


@settings(max_examples=15)
@given(re=st.floats(0.3, 2.8), a_re=st.floats(-1.5, 1.5), a_im=st.floats(-1.5, 1.5))
def test_alpha_variant_matches_lu(re, a_re, a_im):
    bits = default_bits(6)
    assert alpha_det_deviation(6, complex(re), complex(a_re, a_im), bits) < 2 ** (-bits / 2)


def test_determinant_ratio_route():
    p = ModelParams(0.9, 0.3)
    bits = default_bits(5)
    for n in range(1, 6):
        assert partition_hankel(n, p, bits).rel_diff(full_partition(n, p, bits)) < 1e-12


@pytest.mark.parametrize("lam, eta", [(0.9, 0.3), (0.9 + 0.1j, 0.3 + 0.05j)])
def test_hankel_agrees_with_wdet_at_n40(lam, eta):
    # both prefactors join log det at working precision, and both routes sum
    # lambda -+ eta there: the doubles' prefactors left 2.4e-13 and 5.0e-13
    p = ModelParams(lam, eta)
    bits = default_bits(40)
    assert partition_hankel(40, p, bits).rel_diff(full_partition(40, p, bits)) < 5e-14


@pytest.mark.parametrize("route", [partition_hankel, full_partition])
@pytest.mark.parametrize("n", [20, 40, 60])
def test_determinants_match_the_three_enumeration_at_delta_minus_half(route, n):
    # (lambda, eta) = (pi/2, pi/3): a = b = 1/2, c = sqrt3/2, Delta = -1/2,
    # and Z_N = 2^(-N^2) 3^(N/2) A_N(3) with A_N(3) in exact integers
    exact = delta_half_log_z(n)
    z = route(n, DELTA_HALF, default_bits(n))
    assert z.rel_diff(LogScaledValue(exact, 0.0)) <= 5e-15 * abs(exact)


def test_large_size_uses_enough_precision():
    # the growth estimate 2^(2g - bits) at the size-adaptive 256 bits
    value = partition_hankel(12, ModelParams(0.9, 0.3), default_bits(12))
    assert np.isfinite(value.log_magnitude) and value.error < 2.0 ** -200


def test_singular_phi_rejected():
    with pytest.raises(ValueError, match=r"sin\(phi\) vanishes"):
        matrix_A(3, 0.0, -1j)


def test_matrix_a_corner_entry():
    # only the (0,0) entry carries the -i from the contour closing
    with mpmath.workprec(128):
        a = matrix_A(2, 0.8, -1j)
    c = 1 / math.tan(0.8)
    assert complex(a[0][0]) == pytest.approx(c - 1j)
    assert complex(a[0][1]) == pytest.approx(-(1 + c * c))
