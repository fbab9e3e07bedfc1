"""Pivoted LU determinant and its pivot-growth guard."""

import warnings

import mpmath
import numpy as np
import pytest

from icewall.determinants import lu_det, mp_logdet
from icewall.errors import PrecisionWarning


def _random_matrix(rng, n, complex_entries):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return mpmath.matrix(a.tolist())


@pytest.mark.parametrize("complex_entries", [False, True])
def test_lu_det_matches_mpmath_det(complex_entries):
    rng = np.random.default_rng(20261018)
    with mpmath.workprec(256):
        for n in range(1, 13):
            a = _random_matrix(rng, n, complex_entries)
            if n == 5:
                a[0, 0] = 0   # forces a row swap at the first column
            det, growth = lu_det(a)
            ref = mpmath.det(a)
            assert abs(det - ref) <= 1e-70 * abs(ref)
            assert 1 <= growth < mpmath.inf


def test_zero_corner_swaps_rows():
    with mpmath.workprec(256):
        det, growth = lu_det(mpmath.matrix([[0, 1], [1, 0]]))
    assert det == -1 and growth == 1


def test_singular_matrix_has_zero_det_and_infinite_growth():
    with mpmath.workprec(256):
        for rows in ([[1, 2], [2, 4]], [[0, 1], [0, 2]]):
            det, growth = lu_det(mpmath.matrix(rows))
            assert det == 0 and growth == mpmath.inf


def test_growth_of_a_fixed_matrix():
    # partial pivoting takes rows 2, 3, 4, 3 and meets the pivots
    # 4, 2, 1, -23/4, so det = (-1)^3 * 4 * 2 * 1 * (-23/4) = 46
    a = mpmath.matrix([[2, 1, 0, 0], [4, 3, 1, 0], [0, 2, 5, 1], [0, 0, 1, 8]])
    with mpmath.workprec(256):
        det, growth = lu_det(a)
    assert det == 46
    assert growth == mpmath.mpf(23) / 4


def test_growth_guard_warns_past_half_the_mantissa():
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        value = mp_logdet(mpmath.diag([1, mpmath.mpf(2) ** -10]), 128)
    assert value.log_magnitude == pytest.approx(-10 * np.log(2))
    with pytest.warns(PrecisionWarning, match="pivot growth"):
        mp_logdet(mpmath.diag([1, mpmath.mpf(2) ** -100]), 128)
