"""Spectral parameters, vertex weights, and the R-matrix."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icewall.params import ModelParams, check_unitarity, r_matrix, symmetric_weights

safe_angle = st.floats(min_value=0.1, max_value=1.4)


def test_symmetric_weights_values():
    p = ModelParams(0.9, 0.3)
    a, _, b, _, c, _ = symmetric_weights(p)
    assert symmetric_weights(p) == (a, a, b, b, c, c)
    assert a == pytest.approx(math.sin(1.2))
    assert b == pytest.approx(math.sin(0.6))
    assert c == pytest.approx(math.sin(0.6))


def test_phi_properties():
    p = ModelParams(0.9 + 0.1j, 0.3)
    assert p.phi_plus == 1.2 + 0.1j
    assert p.phi_minus == pytest.approx(0.6 + 0.1j)


def test_singular_parameters_rejected():
    with pytest.raises(ValueError, match=r"sin\(lambda-eta\)"):
        ModelParams(0.3, 0.3)          # sin(phi_-) = 0
    with pytest.raises(ValueError, match=r"sin\(lambda\+eta\)"):
        ModelParams(math.pi / 2, math.pi / 2)  # sin(phi_+) = 0


@pytest.mark.parametrize("lam, eta, name", [
    (0.9, complex(0.3, 360), "2 eta"),          # c = sin 2 eta ~ e^720
    (complex(0.9, 800), 0.3, "lambda+eta"),
])
def test_overflowing_sines_are_refused(lam, eta, name):
    # a ValueError that names the sine, not an OverflowError from cmath
    with pytest.raises(ValueError, match=re.escape(f"sin({name}) = ") + ".* overflows a double"):
        ModelParams(lam, eta)


def test_r_matrix_at_zero_is_permutation():
    r = r_matrix(0.0, 0.3)
    assert np.allclose(r, np.array([[1, 0, 0, 0],
                                    [0, 0, 1, 0],
                                    [0, 1, 0, 0],
                                    [0, 0, 0, 1]], dtype=complex))


@settings(max_examples=100)
@given(nu_re=st.floats(-1.0, 1.0), nu_im=st.floats(-0.5, 0.5),
       eta_re=st.floats(-0.8, 0.8), eta_im=st.floats(-0.4, 0.4))
def test_r_matrix_unitarity(nu_re, nu_im, eta_re, eta_im):
    nu, eta = complex(nu_re, nu_im), complex(eta_re, eta_im)
    if min(abs(cmath.sin(nu + 2 * eta)), abs(cmath.sin(-nu + 2 * eta)),
           abs(cmath.sin(2 * eta))) < 1e-3:
        return
    assert check_unitarity(nu, eta) < 1e-12


def test_r_matrix_composition_shape():
    a = r_matrix(0.4, 0.3)
    b = r_matrix(-0.4, 0.3)
    assert (a @ b).shape == (4, 4)
