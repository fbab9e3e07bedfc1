"""Rank-N Fredholm determinants of the three integrable kernels, on Gauss
rules or a truncated lattice."""

import cmath
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from icewall import fredholm
from icewall.cli import ROUTES_BY_NAME, TOL
from icewall.determinants import default_bits
from icewall.enumeration import enumerate_configs, partition_dp
from icewall.fredholm import (FREDHOLM_LIMIT, KernelSpec, _expansion, _logdet_i_minus,
                              fredholm_det, full_partition_fredholm, nodes, operator_matrix,
                              trace_moments)
from icewall.logscale import LogScaledValue
from icewall.orthopoly import laguerre_deriv, laguerre_eval, meixner_poly, mp_deriv, mp_eval
from icewall.params import ModelParams, qgroup_prefactor, symmetric_weights
from icewall.wmatrix import BetaGamma, full_partition, rational_z_tilde, w_matrix

P_REF = ModelParams(0.9, 0.3)
DISORDERED_SAMPLES = [(0.9, 0.3), (1.2, 0.45), (0.7, 0.2), (1.5, 0.35), (0.8, 0.15)]
PT_PLUS, PT_MINUS = 0.8, 0.3     # discrete kernel phi~_+, phi~_-
XI = 0.5                         # rational kernel phi_- / phi_+


def bracket_family(kind: str, n: int):
    """(c_N, P, P', w) of the Christoffel-Darboux bracket form
    K(x, y) = c_N [P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)]/(x - y) w(y),
    built from the evaluators by hand; P(k, x) and P'(k, x) take arrays."""
    if kind == "disordered":
        phi_m, phi_p = P_REF.phi_minus, P_REF.phi_plus
        return (n, lambda k, x: mp_eval(k, 0.5, x, phi_m) + 0 * x,
                lambda k, x: np.array([mp_deriv(k, 0.5, v, phi_m) for v in x]),
                lambda y: np.exp(2 * phi_p * y) / (1 + np.exp(2 * math.pi * y)))
    if kind == "rational":
        return (-n, lambda k, x: laguerre_eval(k, XI * x) + 0 * x,
                lambda k, x: XI * np.array([laguerre_deriv(k, XI * v) for v in x]),
                lambda y: np.exp(-y))
    q = math.exp(-2 * PT_MINUS)
    return (-n * q ** n, lambda k, x: meixner_poly(k, 1.0, q)(x),
            lambda k, x: meixner_poly(k, 1.0, q).deriv()(x),
            lambda y: np.exp(-2 * PT_PLUS * y))


def weight(spec: KernelSpec, y):
    """The kernel's weight function w(y), which `nodes` folds into its weights."""
    if spec.kind == "disordered":   # e^{2 phi_+ y}/(1 + e^{2 pi y}), overflow-free
        return np.exp(2 * spec.params.phi_plus * y - np.logaddexp(0.0, 2 * math.pi * y))
    if spec.kind == "rational":
        return np.exp(-y)
    return np.exp(-2 * spec.phi_tilde[0] * y)


def kernel(spec: KernelSpec, x: float, y: float) -> complex:
    """K(x, y) of the rank-N expansion at one pair of points."""
    p, d = _expansion(spec, np.array([x, y], dtype=float))
    return np.sum(d * p[0] * p[1]) * weight(spec, y)


def spec_of(kind: str, n: int) -> KernelSpec:
    if kind == "disordered":
        return KernelSpec.disordered(n, P_REF)
    if kind == "rational":
        return KernelSpec.rational(n, XI)
    return KernelSpec.discrete(n, PT_PLUS, PT_MINUS)


# --------------------------------------------------------------------------
# kernel scalars


def test_disordered_kernel_real_for_real_parameters():
    v = kernel(KernelSpec.disordered(3, P_REF), 0.4, -0.3)
    assert abs(complex(v).imag) < 1e-14


def test_disordered_kernel_rank_one_case():
    # N=1 bracket is the difference quotient of a linear polynomial:
    # constant 2 sin(phi_-) times the weight in y
    phi_m, phi_p = 0.6, 1.2
    for x, y in [(0.5, -0.7), (0.0, 2.0), (1.3, 1.3)]:
        w = math.exp(2 * phi_p * y) / (1 + math.exp(2 * math.pi * y))
        expected = 2 * math.sin(phi_m) * w
        assert complex(kernel(KernelSpec.disordered(1, P_REF), x, y)).real == \
            pytest.approx(expected, rel=1e-12)


def test_disordered_kernel_decay():
    assert abs(kernel(KernelSpec.disordered(2, P_REF), 0.2, 30.0)) < 1e-30


def test_disordered_validity_strip():
    with pytest.raises(ValueError, match="disordered kernel needs 0 < Re phi_"):
        KernelSpec.disordered(2, ModelParams(2.9, 0.5))  # Re phi_+ > pi


def test_rational_kernel_rank_one_case():
    for x, y in [(0.3, 1.7), (2.0, 0.1), (0.8, 0.8)]:
        assert kernel(KernelSpec.rational(1, 1.0), x, y) == pytest.approx(math.exp(-y))


def test_rational_kernel_confluent_limit():
    x = 1.3
    near = kernel(KernelSpec.rational(3, 0.7), x, x + 1e-9)
    diag = kernel(KernelSpec.rational(3, 0.7), x, x)
    assert near == pytest.approx(diag, rel=1e-6)


def test_discrete_kernel_bracket_symmetry():
    # antisymmetric numerator over antisymmetric (x - y) leaves a symmetric
    # bracket; only the one-sided weight e^{-2 phi~_+ y} breaks x <-> y
    pt_p, pt_m = 0.7, 0.4
    n = 2
    for x, y in [(0, 1), (2, 5), (1, 4)]:
        a = kernel(KernelSpec.discrete(n, pt_p, pt_m), x, y)
        b = kernel(KernelSpec.discrete(n, pt_p, pt_m), y, x)
        ratio = math.exp(-2 * pt_p * y) / math.exp(-2 * pt_p * x)
        assert complex(a) == pytest.approx(complex(b) * ratio, rel=1e-10)


def test_discrete_kernel_polynomial_oracle():
    # rebuild the (0,1) entry from the Meixner recurrence by hand
    pt_p, pt_m, n = 0.7, 0.4, 2
    c = math.exp(-2 * pt_m)
    m2, m1 = meixner_poly(2, 1.0, c), meixner_poly(1, 1.0, c)
    bracket = -(m2(0.0) * m1(1.0) - m1(0.0) * m2(1.0)) / (0.0 - 1.0)
    expected = (n * math.exp(-2 * n * pt_m) * bracket * math.exp(-2 * pt_p))
    assert complex(kernel(KernelSpec.discrete(n, pt_p, pt_m), 0, 1)).real == \
        pytest.approx(expected, rel=1e-12)


def test_discrete_kernel_confluent_diagonal():
    # x = y matches the direct Christoffel-Darboux sum over normalized terms
    pt_p, pt_m, n = 0.7, 0.4, 3
    c = math.exp(-2 * pt_m)
    x = 2
    polys = [meixner_poly(k, 1.0, c) for k in range(n + 1)]
    # CD sum: N e^{-2N phi~_-} sum-free form is awkward; compare against a
    # tiny finite difference of the off-diagonal bracket instead
    h = 1e-6
    mn, mn1 = polys[n], polys[n - 1]
    bracket = -(mn(x) * mn1(x + h) - mn1(x) * mn(x + h)) / (-h)
    expected = (n * math.exp(-2 * n * pt_m) * bracket
                * math.exp(-2 * pt_p * x))
    assert complex(kernel(KernelSpec.discrete(n, pt_p, pt_m), x, x)).real == \
        pytest.approx(expected, rel=1e-4)


# --------------------------------------------------------------------------
# determinants against the finite representations


def test_disordered_determinant_matches_finite():
    for n in range(1, 6):
        z = fredholm_det(KernelSpec.disordered(n, P_REF)).scale_log(qgroup_prefactor(n, P_REF))
        assert z.rel_diff(full_partition(n, P_REF, default_bits(5))) < 1e-8


def test_full_partition_fredholm_vs_enumeration():
    for n in range(1, 5):
        ref = enumerate_configs(n, symmetric_weights(P_REF)).z_value
        assert full_partition_fredholm(n, P_REF).rel_diff(ref) < 1e-8


def test_rational_determinant_matches_finite():
    lam, eta = 0.9, 0.3
    xi = (lam - eta) / (lam + eta)
    for n in range(1, 5):
        zt = fredholm_det(KernelSpec.rational(n, xi))
        assert zt.rel_diff(rational_z_tilde(n, lam, eta)) < 1e-8


def test_discrete_determinant_matches_continuation():
    # ferroelectric regime: phi_pm = i phi~_pm
    p = ModelParams(0.55j, 0.25j)
    for n in range(1, 5):
        z = fredholm_det(KernelSpec.discrete(n, 0.8, 0.3)).scale_log(qgroup_prefactor(n, p))
        assert z.rel_diff(full_partition(n, p, default_bits(4))) < 1e-8


def test_discrete_truncation_stability():
    spec = KernelSpec.discrete(3, 0.8, 0.3)
    a = np.linalg.slogdet(np.eye(spec.n) - operator_matrix(spec, *nodes(spec)[:2]))[1]
    b = np.linalg.slogdet(np.eye(spec.n)
                          - operator_matrix(spec, *nodes(spec, refined=True)[:2]))[1]
    assert abs(a - b) < 1e-10


def orthonormality_defect(spec: KernelSpec, x, w) -> float:
    """max_jk |sum_i w_i p_j(x_i) p_k(x_i) - delta_jk| for the orthonormal
    polynomials of the kernel's weight, k <= N: the Meixner-Pollaczek
    P_k^{(1/2)}(.; phi_+) times sqrt(2 sin phi_+), or the Laguerre L_k."""
    if spec.kind == "disordered":
        phi = complex(spec.params.phi_plus)
        p = np.array([mp_eval(k, 0.5, x, phi) + 0 * x for k in range(spec.n + 1)])
        p = p * cmath.sqrt(2 * cmath.sin(phi))
    else:
        p = np.array([laguerre_eval(k, x) + 0 * x for k in range(spec.n + 1)])
    return float(np.max(np.abs((p * w) @ p.T - np.eye(spec.n + 1))))


@pytest.mark.parametrize("kind", ["disordered", "rational", "discrete"])
@pytest.mark.parametrize("n", [1, 5, 16])
def test_refined_nodes_extend_the_lattice_or_double_the_rule(kind, n):
    # fredholm_det's refinement check compares these two discretizations: the
    # lattice gains ten sites; a continuous kernel's N-node Gauss rule gains
    # one node, and both rules integrate the Gram integrand exactly
    spec = spec_of(kind, n)
    (x, w, _), (xr, wr, _) = nodes(spec), nodes(spec, refined=True)
    if kind == "discrete":
        assert np.array_equal(xr, np.arange(len(x) + 10, dtype=float))
        assert np.array_equal(wr[:len(x)], w)
        assert np.allclose(w, weight(spec, x), rtol=1e-15)
        return
    assert (len(x), len(xr)) == (n, n + 1)
    # the N + 1 node rule is exact through degree 2N + 1, so through p_N^2
    assert orthonormality_defect(spec, xr, wr) < 1e-12
    # the N-node rule is exact through degree 2N - 1: p_j p_k for j, k < N
    assert orthonormality_defect(spec_of(kind, n - 1), x, w) < 1e-12


@pytest.mark.parametrize("phi_plus", [0.4 + 0.3j, 2.9 - 1.5j, 0.1 + 1j])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_meixner_pollaczek_rule_is_exact_at_complex_phi_plus(phi_plus, n):
    # sum_i w_i p_j(x_i) p_k(x_i) = delta_jk for j, k < N, complex nodes and all
    p = ModelParams(phi_plus - 0.3, 0.3)
    x, w, defect = nodes(KernelSpec.disordered(n, p))
    assert orthonormality_defect(KernelSpec.disordered(n - 1, p), x, w) < 1e-12
    assert defect < 1e-12   # the rule's own figure, which fredholm_det's estimate takes


@pytest.mark.parametrize("kind", ["disordered", "rational"])
def test_continuous_kernels_pass_at_most_n_plus_one_nodes(kind, monkeypatch):
    # no panel rule: operator_matrix sees N nodes, then N + 1 for the check
    seen = []
    build = fredholm.operator_matrix

    def recording(spec, x, w):
        seen.append(len(x))
        return build(spec, x, w)

    monkeypatch.setattr(fredholm, "operator_matrix", recording)
    for n in (1, 4, 9, 16):
        seen.clear()
        fredholm_det(spec_of(kind, n))
        assert seen == [n, n + 1]


@pytest.mark.parametrize("kind", ["disordered", "rational", "discrete"])
def test_pointwise_kernel_is_the_bracket(kind):
    # the rank-N expansion reproduces the two-term bracket off the diagonal
    points = {"disordered": [(0.4, -0.3), (-1.2, 0.9), (2.1, 0.5)],
              "rational": [(0.3, 1.7), (2.5, 0.8), (4.0, 1.1)],
              "discrete": [(0, 1), (2, 5), (4, 1)]}[kind]
    for n in range(1, 9):
        c, poly, _, w = bracket_family(kind, n)
        for x, y in points:
            px, py = np.array([float(x)]), np.array([float(y)])
            expected = complex((c * (poly(n, px) * poly(n - 1, py)
                                     - poly(n - 1, px) * poly(n, py)) / (x - y)
                                * w(py))[0])
            got = complex(kernel(spec_of(kind, n), x, y))
            assert abs(got - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("kind", ["disordered", "rational", "discrete"])
def test_operator_matrix_has_the_nystrom_determinant(kind):
    # Sylvester: det(I - zeta K) over m nodes, built as the m x m bracket
    # matrix with its confluent diagonal, equals det(I - zeta D G) of the N x N form
    n = 4
    spec = spec_of(kind, n)
    if kind == "discrete":
        x, dx = np.arange(14, dtype=float), np.ones(14)
    else:   # any nodes serve: Gauss-Legendre over [lo, hi]
        lo, hi = {"disordered": (-12.0, 8.0), "rational": (0.0, 30.0)}[kind]
        t, dt = np.polynomial.legendre.leggauss(32)
        x, dx = lo + (hi - lo) * (t + 1) / 2, (hi - lo) / 2 * dt
    c, poly, deriv, w = bracket_family(kind, n)
    pn, pn1 = poly(n, x), poly(n - 1, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = (np.outer(pn, pn1) - np.outer(pn1, pn)) / np.subtract.outer(x, x)
    np.fill_diagonal(bracket, deriv(n, x) * pn1 - deriv(n - 1, x) * pn)
    zeta = cmath.exp(-2j * P_REF.eta) if kind == "disordered" else 1
    nystrom = zeta * c * bracket * (w(x) * dx)[None, :]
    rank_n = operator_matrix(spec, x, w(x) * dx)
    assert rank_n.shape == (n, n)
    assert _logdet_i_minus(rank_n).rel_diff(_logdet_i_minus(nystrom)) < 1e-12


@pytest.mark.parametrize("n", [8, 12, 16])
def test_disordered_large_n_matches_wdet(n):
    for lam, eta in DISORDERED_SAMPLES:
        p = ModelParams(lam, eta)
        assert full_partition_fredholm(n, p).rel_diff(
            full_partition(n, p, default_bits(n))) < 1e-8


@pytest.mark.parametrize("n", [12, 16])
def test_discrete_and_rational_large_n(n):
    p = ModelParams(0.55j, 0.25j)
    z = fredholm_det(KernelSpec.discrete(n, 0.8, 0.3)).scale_log(qgroup_prefactor(n, p))
    assert z.rel_diff(full_partition(n, p, default_bits(n))) < 1e-10
    lam, eta = 0.9, 0.3
    zt = fredholm_det(KernelSpec.rational(n, (lam - eta) / (lam + eta)))
    assert zt.rel_diff(rational_z_tilde(n, lam, eta)) < 1e-10


def test_disordered_size_limit():
    with pytest.raises(ValueError, match="the disordered kernel supports N <="):
        full_partition_fredholm(FREDHOLM_LIMIT + 1, P_REF)


def test_discrete_size_limit():
    with pytest.raises(ValueError, match="the discrete kernel supports N <="):
        fredholm_det(KernelSpec.discrete(FREDHOLM_LIMIT + 1, PT_PLUS, PT_MINUS))


def test_no_convergence_warnings_on_defaults():
    # the refinement check refuses rather than warns: these pass it, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fredholm_det(KernelSpec.disordered(3, P_REF))
        fredholm_det(KernelSpec.rational(3, 0.5))
        fredholm_det(KernelSpec.discrete(3, 0.8, 0.3))


@pytest.mark.parametrize("n, lam, eta", [(3, 0.9, 0.3 + 100j), (16, 3.0, 0.1), (12, 2.9, 0.2)])
def test_unconverged_refinement_is_refused(n, lam, eta):
    # on panel rules these gave log|Z| 2077.58 (wdet: 1393.76), and values
    # 2.0e-3 and 5.4e-7 off wdet, with only a warning; on Gauss rules the
    # rule's orthonormality defect puts the first's error estimate above the
    # tolerance, the estimate of det(I - M) the others'
    assert not full_partition_fredholm(n, ModelParams(lam, eta)).error <= TOL


def test_a_gauss_rule_defect_enters_the_error_estimate(monkeypatch):
    # at (0.9, 0.3) every other part of the estimate is below 1e-13, so a
    # rule defect of 1e-3 is the estimate, and a NaN one gives a NaN value
    # with an infinite estimate, before any matrix is built
    rule = fredholm.mp_rule
    monkeypatch.setattr(fredholm, "mp_rule", lambda *args: (*rule(*args)[:2], 1e-3))
    assert fredholm_det(KernelSpec.disordered(3, P_REF)).error == 1e-3
    monkeypatch.setattr(fredholm, "mp_rule", lambda *args: (*rule(*args)[:2], math.nan))
    monkeypatch.setattr(fredholm, "operator_matrix", None)   # never called
    z = fredholm_det(KernelSpec.disordered(3, P_REF))
    assert math.isnan(z.log_magnitude) and z.error == math.inf


# (left, bottom) -> [(right, top, weight)] for lines that run up and to the
# right: weight 0 (a) for an empty or crossed vertex, 1 (b) for a line going
# straight through, 2 (c) for a line that turns
_LINE_MOVES = {(0, 0): [(0, 0, 0)], (1, 1): [(1, 1, 0)],
               (1, 0): [(1, 0, 1), (0, 1, 2)], (0, 1): [(0, 1, 1), (1, 0, 2)]}


def dwbc_partition(n: int, a, b, c):
    """Z_N at the weights (a, a, b, b, c, c), summed vertex by vertex in
    mpmath, independent of every route: a line enters at the bottom of each
    column and one leaves at the right end of each row; the state is the set
    of occupied vertical edges and the horizontal edge carried along a row."""
    states = {(1 << n) - 1: mpmath.mpf(1)}
    for _ in range(n):
        row = {(s, 0): z for s, z in states.items()}
        for j in range(n):
            nxt = {}
            for (s, h), z in row.items():
                for right, top, k in _LINE_MOVES[h, s >> j & 1]:
                    key = (s & ~(1 << j) | top << j, right)
                    nxt[key] = nxt.get(key, 0) + z * (a, b, c)[k]
            row = nxt
        states = {s: z for (s, h), z in row.items() if h}
    return states.get(0, mpmath.mpf(0))


def reference(route: str, n: int, lam: complex, eta: complex) -> LogScaledValue:
    """Z_N of the route's model at 400 bits: the weights sin(lambda + eta),
    sin(lambda - eta), sin(2 eta), or lambda + eta, lambda - eta, 2 eta for
    the rational degeneration."""
    with mpmath.workprec(400):
        lam, eta = mpmath.mpc(lam), mpmath.mpc(eta)
        weights = (lam + eta, lam - eta, 2 * eta)
        if route != "fredholm-rational":
            weights = tuple(mpmath.sin(w) for w in weights)
        return LogScaledValue.from_mp_log(mpmath.log(dwbc_partition(n, *weights)))


def test_line_sum_reference_matches_dp():
    for n in range(1, 7):
        a, b, c = 0.7 + 0.1j, 1.3 - 0.2j, 0.4 + 0.5j
        with mpmath.workprec(200):
            z = dwbc_partition(n, mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c))
            z = LogScaledValue.from_mp_log(mpmath.log(z))
        assert z.rel_diff(partition_dp(n, (a, a, b, b, c, c))) < 1e-14


def seeded_draws(count: int, seed: int) -> list:
    """(lambda, eta, N): Re lambda on (0.05, 3.1), Re eta on (0.05, 1.5), each
    imaginary part 0 with probability 1/2, uniform on (-1, 1) with
    probability 1/4 and 10^U(-1, 2) with probability 1/4, N on 1..6."""
    rng = random.Random(seed)

    def imag():
        u = rng.random()
        return 0.0 if u < 0.5 else rng.uniform(-1, 1) if u < 0.75 else 10 ** rng.uniform(-1, 2)

    draws = []
    for _ in range(count):
        lam = complex(rng.uniform(0.05, 3.1), imag())
        eta = complex(rng.uniform(0.05, 1.5), imag())
        draws.append((lam, eta, rng.randint(1, 6)))
    return draws


@pytest.mark.parametrize("route, least", [("fredholm-disordered", 300),
                                          ("fredholm-rational", 120)])
def test_continuous_kernels_refuse_or_agree(route, least):
    # on panel rules fredholm-disordered gave 1.2e-8 off at N=2,
    # (2.2448+3.0555i, 0.6207-0.2320i), with exit 0
    answered = 0
    for lam, eta, n in seeded_draws(600, 1):
        try:
            p = ModelParams(lam, eta)
        except ValueError:
            continue
        if ROUTES_BY_NAME[route].refusal(n, p, None):
            continue
        try:
            z = ROUTES_BY_NAME[route].answer(n, p, None, None, TOL)[0]
        except ValueError:
            continue
        answered += 1
        assert z.rel_diff(reference(route, n, lam, eta)) <= 1e-8, (lam, eta, n)
    assert answered >= least


@pytest.mark.parametrize("n, lam, eta", [
    # on panel rules: log|Z| 71.84016456577 with phase -2.34417586676 where
    # dp gives 71.84016456188 and -2.34417588061
    (3, 0.05137520027820655, 0.7284417585884891 + 5.577034719881467j),
    # on panel rules: log|Z| -56.105996231, 2.2e-8 from wdet's -56.105996254
    (14, math.pi / 2, math.pi / 3)])
def test_disordered_kernel_refuses_or_agrees_where_panel_rules_were_wrong(n, lam, eta):
    p = ModelParams(lam, eta)
    try:
        z = ROUTES_BY_NAME["fredholm-disordered"].answer(n, p, None, None, TOL)[0]
    except ValueError:
        return
    ref = reference("fredholm-disordered", n, lam, eta) if n <= 6 else \
        full_partition(n, p, default_bits(n))
    assert z.rel_diff(ref) <= 1e-8


def test_trace_moments_match_finite_traces():
    bg = BetaGamma.from_params(P_REF)
    for n in (2, 3):
        w = w_matrix(n, bg)
        tm = trace_moments(KernelSpec.disordered(n, P_REF))
        for k in (1, 2, 3):
            target = bg.zeta ** k * np.trace(np.linalg.matrix_power(w, k))
            assert abs(tm[k - 1] - target) < 1e-8 * (1 + abs(target))


# --------------------------------------------------------------------------
# degeneration limits


def test_polynomial_rational_limit():
    # P_n^{(1/2)}(x/eps; eps*phi) -> L_n(-2 phi x) as eps -> 0
    eps, phi = 1e-4, 0.8
    for n in (1, 2, 4):
        for x in (-0.7, 0.3, 1.1):
            lhs = mp_eval(n, 0.5, x / eps, eps * phi)
            rhs = laguerre_eval(n, -2 * phi * x)
            assert abs(lhs - rhs) < 1e-5 * (1 + abs(rhs))


def test_weight_step_function_limit():
    # e^{eps phi_+ (y/eps)} / (1 + e^{pi y/eps}) -> e^{phi_+ y} theta(-y)
    eps, phi_p = 1e-4, 1.2
    for y in (-0.8, -0.2):
        lhs = math.exp(phi_p * y) / (1 + math.exp(math.pi * y / eps))
        assert lhs == pytest.approx(math.exp(phi_p * y), rel=1e-5)
    for y in (0.2, 0.8):
        lhs = math.exp(phi_p * y - np.logaddexp(0.0, math.pi * y / eps))
        assert abs(lhs) < 1e-5
