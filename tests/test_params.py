"""Spectral parameters, vertex weights, and the R-matrix."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icewall.errors import SingularParameterError
from icewall.params import (ModelParams, VertexWeights,
                            check_unitarity, qgroup_weights, r_matrix,
                            symmetric_weights)

safe_angle = st.floats(min_value=0.1, max_value=1.4)


def test_symmetric_weights_values():
    p = ModelParams(0.9, 0.3)
    a, b, c = symmetric_weights(p)
    assert a == pytest.approx(math.sin(1.2))
    assert b == pytest.approx(math.sin(0.6))
    assert c == pytest.approx(math.sin(0.6))


def test_phi_properties():
    p = ModelParams(0.9 + 0.1j, 0.3)
    assert p.phi_plus == 1.2 + 0.1j
    assert p.phi_minus == pytest.approx(0.6 + 0.1j)


def test_singular_parameters_rejected():
    with pytest.raises(SingularParameterError):
        ModelParams(0.3, 0.3)          # sin(phi_-) = 0
    with pytest.raises(SingularParameterError):
        ModelParams(math.pi / 2, math.pi / 2)  # sin(phi_+) = 0


def test_qgroup_weights_structure():
    p = ModelParams(0.9, 0.3)
    w = qgroup_weights(p)
    a, b, c = symmetric_weights(p)
    assert w.w1 == w.w2 == 1
    assert w.w3 == pytest.approx(b / a)
    assert w.w5 * w.w6 == pytest.approx((c / a) ** 2)
    assert w.w6 / w.w5 == pytest.approx(cmath.exp(2j * complex(p.phi_minus)))


def test_weight_scaling():
    w = VertexWeights.symmetric(1.0, 2.0, 3.0).scaled(2.0)
    assert w.as_tuple() == (2.0, 2.0, 4.0, 4.0, 6.0, 6.0)


def test_r_matrix_at_zero_is_permutation():
    r = r_matrix(0.0, 0.3)
    assert np.allclose(r, np.array([[1, 0, 0, 0],
                                    [0, 0, 1, 0],
                                    [0, 1, 0, 0],
                                    [0, 0, 0, 1]], dtype=complex))


@settings(max_examples=100, deadline=None)
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
