"""The fixed-point determinant kernel (unpivoted L D L^T for a symmetric
matrix, pivoted LU otherwise), block-floating-point dot products, and the
pivot-growth error estimate."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_man_exp, round_nearest

from icewall import determinants
from icewall.cli import ROUTES_BY_NAME, TOL
from icewall.determinants import BlockFloat, default_bits, lu_det, mp_logdet
from icewall.hankel import hankel_H
from icewall.params import ModelParams
from icewall.wmatrix import _w_matrix_mp, full_partition

ROUTE_POINTS = [(math.pi / 2, math.pi / 6), (1.1, 0.33), (0.9 + 0.1j, 0.3 + 0.05j),
                (0.55j, 0.25j), (1.5, 0.35)]


def _random_rows(rng, n, complex_entries):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return [[mpmath.mpmathify(x) for x in row] for row in a.tolist()]


def _exact_det(rows) -> Fraction:
    """Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if a[i][j]), None)
        if p is None:
            return Fraction(0)
        if p != j:
            a[j], a[p], det = a[p], a[j], -det
        det *= a[j][j]
        for row in a[j + 1:]:
            f = row[j] / a[j][j]
            row[j:] = [x - f * y for x, y in zip(row[j:], a[j][j:])]
    return det


@pytest.mark.parametrize("complex_entries", [False, True])
def test_lu_det_matches_mpmath_det(complex_entries):
    rng = np.random.default_rng(20261018)
    with mpmath.workprec(256):
        for n in range(1, 13):
            rows = _random_rows(rng, n, complex_entries)
            if n == 5:
                rows[0][0] = mpmath.mpf(0)   # forces a row swap at the first column
            det, growth = lu_det(rows)
            ref = mpmath.det(mpmath.matrix(rows))
            assert abs(det - ref) <= 1e-70 * abs(ref)
            assert 1 <= growth < mpmath.inf


def test_rows_are_not_modified():
    rng = np.random.default_rng(7)
    with mpmath.workprec(128):
        rows = _random_rows(rng, 6, True)
        before = [list(row) for row in rows]
        lu_det(rows)
    assert rows == before


def test_real_input_stays_on_the_one_sum_path(monkeypatch):
    # every dot product of a real factorization, symmetric (L D L^T) or not
    # (LU), is between real vectors, one sum each, and det is an mpf; complex
    # input takes three sums (Gauss's trick) and gives an mpc
    seen = []
    dot = determinants._dot

    def spy(x, y):
        seen.append((len(x), len(y)))
        return dot(x, y)

    monkeypatch.setattr(determinants, "_dot", spy)
    with mpmath.workprec(128):
        rows = _random_rows(np.random.default_rng(3), 6, False)
        symmetric = [[rows[i][k] + rows[k][i] for k in range(6)] for i in range(6)]
        for m in (rows, symmetric):
            det, _ = lu_det(m)
            assert isinstance(det, mpmath.mpf)
    assert seen and all(s == (1, 1) for s in seen)
    seen.clear()
    with mpmath.workprec(128):
        det, _ = lu_det([[1, 2], [2j, 4]])
    assert seen and all(s == (3, 3) for s in seen)
    assert isinstance(det, mpmath.mpc) and det == 4 - 4j


@pytest.mark.parametrize("complex_entries", [False, True])
def test_rows_and_columns_scaled_by_far_powers_of_two(complex_entries):
    # entries 2^-600 .. 2^600 apart: every dot product realigns exponents
    rng = np.random.default_rng(11)
    n = 8
    r = [300 * int(s) for s in rng.choice([-1, 1], n)]
    c = [300 * int(s) for s in rng.choice([-1, 0, 1], n)]
    with mpmath.workprec(256):
        base = _random_rows(rng, n, complex_entries)
        rows = [[x * mpmath.ldexp(1, r[i] + c[k]) for k, x in enumerate(row)]
                for i, row in enumerate(base)]
        det, growth = lu_det(rows)
        ref = mpmath.det(mpmath.matrix(base)) * mpmath.ldexp(1, sum(r) + sum(c))
        assert abs(det - ref) <= 1e-70 * abs(ref)
        assert 1 <= growth < mpmath.inf


def test_exact_integer_matrices_give_exact_det_and_growth():
    # A = P (4 L) U with unit lower L of quarters below 1 in magnitude: partial
    # pivoting recovers the factors and every step is exact, so det and growth
    # are exact
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 9):
        low = [[Fraction(int(rng.integers(-3, 4)), 4) if k < i else Fraction(i == k)
                for k in range(n)] for i in range(n)]
        up = [[int(rng.integers(-9, 10)) if k > i else
               int(rng.choice([-1, 1]) * rng.integers(1, 10)) if k == i else 0
               for k in range(n)] for i in range(n)]
        a = [[4 * sum(low[i][m] * up[m][k] for m in range(n)) for k in range(n)]
             for i in range(n)]
        assert all(x.denominator == 1 for row in a for x in row)
        perm = [int(i) for i in rng.permutation(n)]
        rows = [[int(x) for x in a[i]] for i in perm]
        sign = int(_exact_det([[int(i == j) for j in perm] for i in range(n)]))
        pivots = [4 * up[j][j] for j in range(n)]
        with mpmath.workprec(128):
            det, growth = lu_det(rows)
            assert det == sign * math.prod(pivots)
            assert growth == mpmath.mpf(max(map(abs, pivots))) / min(map(abs, pivots))


def test_random_integer_matrices_round_to_the_exact_det():
    rng = np.random.default_rng(9)
    for n in (3, 6, 10):
        rows = [[int(x) for x in row] for row in rng.integers(-50, 51, (n, n))]
        exact = _exact_det(rows)
        with mpmath.workprec(256):
            det, _ = lu_det(rows)
            assert abs(det - exact.numerator) <= mpmath.mpf(2) ** -200 * abs(exact.numerator)


def test_zero_corner_swaps_rows():
    with mpmath.workprec(256):
        det, growth = lu_det([[0, 1], [1, 0]])
    assert det == -1 and growth == 1


def test_singular_matrix_has_zero_det_and_infinite_growth():
    with mpmath.workprec(256):
        for rows in ([[1, 2], [2, 4]], [[0, 1], [0, 2]], [[0, 0], [0, 0]],
                     [[1, 2, 3], [1, 0, 1], [2, 2, 4]],   # third row = first + second
                     [[1j, 2], [1, -2j]]):
            det, growth = lu_det(rows)
            assert det == 0 and growth == mpmath.inf


def test_growth_of_a_fixed_matrix():
    # partial pivoting takes rows 2, 3, 4, 3 and meets the pivots
    # 4, 2, 1, -23/4, so det = (-1)^3 * 4 * 2 * 1 * (-23/4) = 46
    rows = [[2, 1, 0, 0], [4, 3, 1, 0], [0, 2, 5, 1], [0, 0, 1, 8]]
    with mpmath.workprec(256):
        det, growth = lu_det(rows)
    assert det == 46
    assert growth == mpmath.mpf(23) / 4


def test_non_finite_entry_is_refused():
    with mpmath.workprec(128), pytest.raises(ValueError, match="finite"):
        lu_det([[1, mpmath.nan], [0, 1]])


def test_rounding_is_mpmath_round_nearest():
    # ties to even, carries into a new power of two, signs, and lengths around
    # the precision, against mpmath's own rounding, through a one-entry dot
    # product at exponent -40
    prec = 64
    ones = (1 << prec) - 1
    cases = [ones, ones << 1 | 1, (ones << 3) | 0b100, (ones << 3) | 0b101,
             (1 << prec) | 1, ((1 << prec) | 1) << 1 | 1, ((1 << prec) | 1) << 2 | 0b10,
             ((1 << prec) | 2) << 2 | 0b10, 1, 3 << 200, (5 << 130) + 7]
    rng = np.random.default_rng(17)
    cases += [int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 150)) | int(rng.integers(0, 8))
              for _ in range(200)]
    with mpmath.workprec(prec):
        for man in cases:
            for signed in (man, -man):
                got = BlockFloat(-40, [signed]).rounded_dot(BlockFloat(0, [1]))
                assert got._mpf_ == from_man_exp(signed, -40, prec, round_nearest)


def test_rounded_dot_is_fdot():
    # one exact sum rounded once: fdot's result, bit for bit, for real and
    # complex vectors and a real one dotted with a complex one
    rng = np.random.default_rng(13)
    with mpmath.workprec(200):
        for cplx_a, cplx_b in ((False, False), (True, True), (False, True), (True, False)):
            for _ in range(20):
                a, b = ([x * mpmath.ldexp(1, int(e)) for x, e in
                         zip(_random_rows(rng, 9, cplx)[0], rng.integers(-80, 80, 9))]
                        for cplx in (cplx_a, cplx_b))
                got = BlockFloat.of(a).rounded_dot(BlockFloat.of(b))
                assert got == mpmath.fdot(a, b)
                assert isinstance(got, mpmath.mpc if cplx_a or cplx_b else mpmath.mpf)


def _i_minus_zeta_w(n, p):
    """I - zeta W with W_jk = sum_m C(j,m) C(k,m) beta^{2m+1} gamma^{j+k-2m}
    summed term by term at the working precision."""
    phi_minus, phi_plus = p.mp_phis()
    eta = mpmath.mpmathify(p.eta)
    sp = mpmath.sin(phi_plus)
    odd = [(mpmath.sin(phi_minus) / sp) ** (2 * m + 1) for m in range(n)]
    g = [(mpmath.sin(2 * eta) / sp) ** e for e in range(2 * n)]
    zeta = mpmath.exp(-2j * eta)
    m = mpmath.eye(n)
    for j in range(n):
        for k in range(j + 1):
            w = sum(math.comb(j, i) * math.comb(k, i) * odd[i] * g[j + k - 2 * i]
                    for i in range(k + 1))
            m[j, k] = m[k, j] = (j == k) - zeta * w
    return m


@pytest.mark.parametrize("n", [1, 5, 22, 40])
@pytest.mark.parametrize("lam, eta", ROUTE_POINTS)
def test_route_matrices_match_mpmath_det(n, lam, eta):
    # within half the mantissa, the growth guard's budget: below 1e-60 from
    # N = 22 (416 bits) on; the 144 bits of N = 5 cannot resolve 1e-60.  The
    # W route factors W - zeta^{-1} I; its det times (-zeta)^N is held to
    # det(I - zeta W) built independently
    p = ModelParams(lam, eta)
    bits = default_bits(n)
    with mpmath.workprec(bits):
        h = hankel_H(n, p)
        h_det, _ = lu_det(h)
        rows, log_minus_zeta = _w_matrix_mp(n, p)
        w_det = lu_det(rows)[0] * mpmath.exp(log_minus_zeta)
    with mpmath.workprec(bits + 64):
        for name, det, ref in (("H", h_det, mpmath.det(mpmath.matrix(h))),
                               ("I - zeta W", w_det,
                                mpmath.det(_i_minus_zeta_w(n, p)))):
            assert abs(det - ref) <= 2.0 ** (-bits / 2) * abs(ref), name


REAL_POINTS = [(0.9, 0.3), (1.2, 0.45), (0.7, 0.2), (1.5, 0.35), (0.8, 0.15),
               (math.pi / 2, math.pi / 6), (math.pi / 2, math.pi / 3), (2.9, 0.1)]


def _count_fallbacks(monkeypatch) -> list:
    """Record every call of the pivoted fallback."""
    calls = []
    pivoted = determinants._lu

    def spy(*args):
        calls.append(len(args[0]))
        return pivoted(*args)

    monkeypatch.setattr(determinants, "_lu", spy)
    return calls


@pytest.mark.parametrize("lam, eta", REAL_POINTS)
def test_route_matrices_at_real_points_take_the_unpivoted_path(monkeypatch, lam, eta):
    # H is positive definite there, and e^{i(pi/2 - eta)} (W - zeta^{-1} I)
    # has a definite Hermitian part: L D L^T needs no pivoting
    fallbacks = _count_fallbacks(monkeypatch)
    p = ModelParams(lam, eta)
    for n in range(1, 23):
        with mpmath.workprec(default_bits(n)):
            for rows in (hankel_H(n, p), _w_matrix_mp(n, p)[0]):
                det, growth = lu_det(rows)
                assert det != 0 and growth < mpmath.inf
    assert fallbacks == []


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],                     # a zero pivot at the corner
    [[1, 2], [2, 4]],                     # singular: the second pivot is zero
    [[mpmath.mpf(2) ** -200, 1], [1, mpmath.mpf(2) ** -200]],   # L_21 = 2^200 after scaling
], ids=["zero-corner", "singular", "tiny-diagonal"])
def test_symmetric_matrices_without_a_trusted_ldl_fall_back(monkeypatch, rows):
    fallbacks = _count_fallbacks(monkeypatch)
    with mpmath.workprec(512):
        det, growth = lu_det(rows)
        assert det == mpmath.det(mpmath.matrix(rows))
    assert fallbacks == [2]
    assert (growth == mpmath.inf) == (det == 0)


def test_w_at_a_large_imaginary_eta_is_within_half_the_mantissa():
    # the widest pivot spread of the sampled route matrices on the unpivoted
    # path: max|d|/min|d| ~ 2^322 at 704 bits (measured error 2^-388)
    n = 40
    p = ModelParams(0.05137520027820655, 0.7284417585884891 + 5.577034719881467j)
    bits = default_bits(n)
    with mpmath.workprec(bits):
        rows = _w_matrix_mp(n, p)[0]
        det, _ = lu_det(rows)
    with mpmath.workprec(bits + 200):
        ref = mpmath.det(mpmath.matrix(rows))
        assert abs(det - ref) <= 2.0 ** (-bits / 2) * abs(ref)


def test_growth_estimate_passes_one_past_half_the_mantissa():
    # the estimate is 2^(2g - bits), g = log2 of the pivot growth, at the
    # caller's precision: the pivots 1 and 2^-10 give 2^-108 at 128 bits, 1
    # and 2^-100 give 2^72.  The figure is read after equilibration, so
    # diag(1, 2^-100), whose scaled pivots are equal, gives 2^-128
    def rows(k):
        return [[1, 1], [1, 1 + mpmath.mpf(2) ** -k]]

    with mpmath.workprec(128):
        value = mp_logdet(rows(10), 0)
        assert value.log_magnitude == pytest.approx(-10 * np.log(2))
        assert value.error == pytest.approx(2.0 ** -108, rel=1e-9)
        assert mp_logdet([[1, 0], [0, mpmath.mpf(2) ** -100]], 0).error == 2.0 ** -128
        assert mp_logdet(rows(100), 0).error == pytest.approx(2.0 ** 72, rel=1e-9)
        assert mp_logdet([[1, 2], [2, 4]], 0).error == math.inf   # singular


def test_log_factor_joins_at_working_precision():
    # log det + log_factor is rounded to doubles once, angle reduced to [-pi, pi]
    with mpmath.workprec(256):
        factor = mpmath.mpf(10) ** 6 + mpmath.mpc(0, 7)
        value = mp_logdet([[2]], factor)
        assert value.log_magnitude == float(mpmath.log(2) + 10 ** 6)
        assert value.angle == float(7 - 2 * mpmath.pi)


def _ferroelectric_draws(count: int = 30) -> list:
    """Seeded (t, gamma, N) with 0 < gamma < t <= 3 and N <= 12."""
    rng = np.random.default_rng(18)
    draws = []
    for _ in range(count):
        t = rng.uniform(0.1, 3.0)
        draws.append((t, rng.uniform(0.02, 0.98) * t, int(rng.integers(1, 13))))
    return draws


@pytest.mark.parametrize("route", ["gauss", "fredholm-discrete"])
def test_double_precision_routes_refuse_or_agree_in_the_ferroelectric_regime(route):
    # fredholm-discrete's refinement check passed where its Gram roundoff
    # showed: log|Z| 447.319 with phase pi at (2i, 0.5i), N=16, where wdet
    # gives 436.657 with phase 0; at this seed it was wrong 2 times of 30
    answered = 0
    for t, gamma, n in _ferroelectric_draws():
        p = ModelParams(1j * t, 1j * gamma)
        try:
            z = ROUTES_BY_NAME[route].answer(n, p, None, None, TOL)[0]
        except ValueError:
            continue
        answered += 1
        assert z.rel_diff(full_partition(n, p, 256)) <= 1e-8, (t, gamma, n)
    assert answered >= 15
