"""The acceptance checks, each stated once.  `icewall verify` and the
acceptance gate (`tests/test_acceptance.py`) both iterate `CHECKS`.

Every row belongs to one of the seven criteria in `CRITERIA`.  Its `fn()`
returns a deviation, and the row passes iff ``deviation <= threshold``, so a
NaN deviation fails; so does a route's refusal.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .cli import ROUTES_BY_NAME, TOL, applicable
from .determinants import default_bits
from .enumeration import ASM_COUNTS, config_iterator, enumerate_configs, \
    partition_dp
from .fredholm import KernelSpec, fredholm_det, trace_moments
from .hankel import alpha_det_deviation, partition_hankel
from .lazy import mpmath, np
from .logscale import LogScaledValue, worst_rel_diff
from .orthopoly import connection_coeffs, inm_closed, inm_quadrature, \
    key_conjugation_check, laguerre_eval, masked_commutator_residuals, \
    mp_eval, su11_matrices
from .params import ModelParams, check_unitarity, qgroup_prefactor, symmetric_weights
from .wmatrix import BetaGamma, full_partition, rational_z_tilde, \
    reconstruction_deviation, w_entry_integral, w_matrix, w_matrix_gauss

CRITERIA = (
    "cross-representation equality",
    "alternating-sign-matrix sequence",
    "closed-form determinants",
    "polynomial identity suite",
    "kernel equivalences",
    "structural invariants",
    "precision scaling to N=12",
)

DISORDERED_SAMPLES = ((0.9, 0.3), (1.2, 0.45), (0.7, 0.2), (1.5, 0.35), (0.8, 0.15))
ALL_ROUTES = ("enumerate", "dp", "hankel", "wdet", "gauss", "fredholm-disordered")
TAU, OMEGA, PHI = 1.1, 0.7, 0.9     # parameters of the overlap and connection identities
P_REF = ModelParams(0.9, 0.3)
P_FERRO = ModelParams(0.55j, 0.25j)     # phi~_pm = (0.8, 0.3) of the discrete kernel
# Delta = -1/2: (lambda, eta) = (pi/2, pi/3), and its weights a = b = 1/2,
# c = sqrt3/2 taken exactly
DELTA_HALF = ModelParams(math.pi / 2, math.pi / 3)
DELTA_HALF_WEIGHTS = (0.5,) * 4 + (math.sqrt(3) / 2,) * 2


def _seed7_draws() -> tuple:
    """20 (nu, eta) unitarity points, then 5 phases phi, from one seed-7 stream."""
    rng = np.random.default_rng(7)
    points = [(complex(a, b), complex(c, d)) for a, b, c, d in rng.uniform(-1, 1, size=(20, 4))]
    return points, [complex(rng.uniform(0.3, 2.8), rng.uniform(-0.3, 0.3)) for _ in range(5)]


def _cross_representation() -> float:
    """Worst pairwise relative deviation among the routes `compute --rep all`
    runs, each held to the default tolerance; inf where that set of routes
    is not ALL_ROUTES."""
    worst = 0.0
    for lam, eta in DISORDERED_SAMPLES:
        p = ModelParams(lam, eta)
        weights = symmetric_weights(p)
        for n in range(1, 7):
            routes = applicable(n, p, None)
            if tuple(r.name for r in routes) != ALL_ROUTES:
                return math.inf
            values = [r.answer(n, p, weights, default_bits(n), TOL)[0] for r in routes]
            worst = max(worst, worst_rel_diff(values))
    return worst


def _ice_point() -> float:
    """|Z / (s^(N^2) A_N) - 1| at a = b = c = s = sqrt 3 / 2, the weights of
    (lambda, eta) = (pi/2, pi/6) taken exactly equal."""
    s = math.sqrt(3) / 2
    return max(abs(enumerate_configs(n, (s,) * 6).z_value.value
                   / (s ** (n * n) * ASM_COUNTS[n]) - 1) for n in range(1, 7))


def three_enumeration(n: int) -> int:
    """A_N(3), the ASMs of order N weighted by 3^(number of -1 entries), by
    Kuperberg's product formulas: A_{2m+1}(3) = 3^{m(m+1)}
    prod_{k=1..m} [(3k-1)! / (m+k)!]^2 and A_{2m+2}(3) = A_{2m+1}(3)
    3^m (3m+2)! m! / [(2m+1)!]^2, in exact integers."""
    m, even = divmod(n - 1, 2)
    num, den = 3 ** (m * (m + 1)), 1
    for k in range(1, m + 1):
        num *= math.factorial(3 * k - 1) ** 2
        den *= math.factorial(m + k) ** 2
    if even:
        num *= 3 ** m * math.factorial(3 * m + 2) * math.factorial(m)
        den *= math.factorial(2 * m + 1) ** 2
    return num // den


def delta_half_log_z(n: int) -> float:
    """log Z_N at DELTA_HALF: Z_N = 2^(-N^2) 3^(N/2) A_N(3)."""
    with mpmath.workprec(128):
        return float(mpmath.log(three_enumeration(n)) + n * mpmath.log(3) / 2
                     - n * n * mpmath.log(2))


def _delta_half() -> float:
    """hankel and wdet at N=20 and dp at N=12 against Z_N = 2^(-N^2) 3^(N/2)
    A_N(3), relative to |log Z_N|."""
    values = [(20, partition_hankel(20, DELTA_HALF, default_bits(20))),
              (20, full_partition(20, DELTA_HALF, default_bits(20))),
              (12, partition_dp(12, DELTA_HALF_WEIGHTS))]
    exact = {n: delta_half_log_z(n) for n in (12, 20)}
    return max(z.rel_diff(LogScaledValue(exact[n], 0.0)) / abs(exact[n]) for n, z in values)


def _closed_determinants() -> float:
    """Worst deviation of det A and of the alpha-shifted moment determinant
    from their closed forms, as a share of the 2^(-bits/2) budget."""
    rng = np.random.default_rng(20260826)
    draws = [(complex(rng.uniform(0.3, 2.8), rng.uniform(-0.5, 0.5)),
              complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))) for _ in range(20)]
    phis = [phi for phi, _ in draws] + _seed7_draws()[1]
    pairs = [(phi, -1j) for phi in phis] + draws
    return max(max(alpha_det_deviation(n, phi, alpha, default_bits(n)) for phi, alpha in pairs)
               / 2 ** (-default_bits(n) / 2) for n in (1, 4, 6, 7, 10))


def _connection() -> float:
    """Absolute error at x = 0.37; relative to 1 + |P_n| at x = -1.3 and 2.1,
    where P_n reaches about 15."""
    worst = 0.0
    for n in range(11):
        coeffs = connection_coeffs(n, 0.5, TAU, PHI)
        for x, relative in ((-1.3, True), (0.37, False), (2.1, True)):
            direct = mp_eval(n, 0.5, x, TAU)
            err = abs(direct - sum(c * mp_eval(k, 0.5, x, PHI) for k, c in enumerate(coeffs)))
            worst = max(worst, err / (1 + abs(direct)) if relative else err)
    return worst


def _eps_limits() -> float:
    """At eps = 1e-4: Meixner-Pollaczek at (x/eps, eps phi) against Laguerre
    at -2 phi x, and the Fermi factor e^(1.2y) / (1 + e^(pi y/eps)) against
    its step e^(1.2y) [y < 0].  The figure is O(eps^2) truncation."""
    eps, phi = 1e-4, 0.8
    worst = max(abs(mp_eval(n, 0.5, x / eps, eps * phi) - laguerre_eval(n, -2 * phi * x))
                / (1 + abs(laguerre_eval(n, -2 * phi * x)))
                for n in (1, 2, 4) for x in (-0.7, 0.3, 1.1))
    for y in (-0.5, 0.5):
        step = math.exp(1.2 * y - np.logaddexp(0.0, math.pi * y / eps))
        worst = max(worst, abs(step - (math.exp(1.2 * y) if y < 0 else 0.0)))
    return worst


def _unitarity() -> float:
    """100 seed-11 points away from the poles of R, and the 20 seed-7 points."""
    rng = np.random.default_rng(11)
    points = []
    while len(points) < 100:
        nu = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        eta = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
        if min(abs(cmath.sin(nu + 2 * eta)), abs(cmath.sin(-nu + 2 * eta)),
               abs(cmath.sin(2 * eta))) >= 1e-3:
            points.append((nu, eta))
    return max(check_unitarity(nu, eta) for nu, eta in points + _seed7_draws()[0])


def _w_three_way() -> float:
    """W at N=5 by the binomial sum, the Gauss factorization and the integral."""
    bg = BetaGamma.from_params(P_REF)
    w = w_matrix(5, bg)
    return max([float(np.max(np.abs(w - w_matrix_gauss(5, bg))))]
               + [abs(w_entry_integral(j, k, P_REF) - w[j, k])
                  for j in range(5) for k in range(j + 1)])


def _traces() -> float:
    bg = BetaGamma.from_params(P_REF)
    return max(abs(trace_moments(KernelSpec.disordered(n, P_REF))[k - 1]
                   - bg.zeta ** k * np.trace(np.linalg.matrix_power(w_matrix(n, bg), k)))
               for n in (2, 3) for k in (1, 2, 3))


def _precision_scaling() -> float:
    """hankel against wdet at the size-adaptive bits, each held to the
    row's threshold, 1e-10."""
    hankel, wdet = ROUTES_BY_NAME["hankel"], ROUTES_BY_NAME["wdet"]
    return max(hankel.answer(n, P_REF, None, default_bits(n), 1e-10)[0].rel_diff(
        wdet.answer(n, P_REF, None, default_bits(n), 1e-10)[0]) for n in range(1, 13))


# (criterion number, label, fn, threshold)
CHECKS = (
    (1, "all routes pairwise, 5 samples, N<=6", _cross_representation, 1e-10),
    (2, "ASM counts by enumeration, N<=6",
     lambda: max(abs(sum(1 for _ in config_iterator(n)) - ASM_COUNTS[n])
                 for n in range(1, 7)), 0.0),
    (2, "ice point vs (sqrt3/2)^(N^2) A_N, N<=6", _ice_point, 1e-10),
    (2, "Delta=-1/2 vs 2^(-N^2) 3^(N/2) A_N(3), N=12,20", _delta_half, 5e-15),
    (3, "det A, alpha det / budget, 25 phi, N in 1,4,6,7,10", _closed_determinants, 1.0),
    (4, "overlap integrals closed vs quadrature, n,m<=8",
     lambda: max(abs(inm_closed(n, m, lam, TAU, OMEGA, PHI)
                     - inm_quadrature(n, m, lam, TAU, OMEGA, PHI))
                 for lam in (0.5, 1.0) for n in range(9) for m in range(9)), 1e-10),
    (4, "basis connection formula, n<=10", _connection, 1e-12),
    (4, "triangular conjugation identity, M<=12",
     lambda: max(key_conjugation_check(a, lam, m) for a in (0.45, -0.8)
                 for lam in (0.5, 1.0) for m in range(3, 13)), 1e-12),
    (4, "su(1,1) masked commutators, M=8",
     lambda: max(masked_commutator_residuals(su11_matrices(8, 0.5)).values()), 1e-12),
    (5, "discrete Nystrom vs continued W determinant, N<=4",
     lambda: max(fredholm_det(KernelSpec.discrete(n, 0.8, 0.3)).scale_log(
         qgroup_prefactor(n, P_FERRO)).rel_diff(full_partition(n, P_FERRO, default_bits(n)))
         for n in range(1, 5)), 1e-12),
    (5, "rational Nystrom vs finite determinant, N<=4",
     lambda: max(fredholm_det(KernelSpec.rational(n, (0.9 - 0.3) / (0.9 + 0.3))).rel_diff(
         rational_z_tilde(n, 0.9, 0.3)) for n in range(1, 5)), 1e-12),
    (5, "eps-limits: Laguerre and the Fermi step", _eps_limits, 1e-5),
    (6, "vertices of type 6 outnumber type 5 by N, N<=6",
     lambda: max(abs(cfg.type_counts()[5] - cfg.type_counts()[4] - n)
                 for n in range(1, 7) for cfg in config_iterator(n)), 0.0),
    (6, "R-matrix unitarity, 120 samples", _unitarity, 1e-12),
    (6, "W binomial vs Gauss vs integral, N=5", _w_three_way, 1e-10),
    (6, "trace moments vs zeta^k tr(W^k), N<=3", _traces, 1e-12),
    (6, "det(I - zeta W), Gauss factors by expm, N<=6",
     lambda: max(reconstruction_deviation(n, ModelParams(lam, eta))
                 for lam, eta in ((0.9, 0.3), (0.9 + 0.1j, 0.3 + 0.05j))
                 for n in range(1, 7)), 1e-12),
    (7, "hankel vs wdet at size-adaptive bits, N<=12", _precision_scaling, 1e-10),
)


def run(criterion: Optional[int] = None) -> list:
    """One result row per check of `criterion`, or of every criterion; a
    ValueError, such as a route's refusal, is an infinite deviation."""
    rows = []
    for k, label, fn, threshold in CHECKS:
        if criterion in (None, k):
            try:
                dev = float(fn())
            except ValueError:
                dev = math.inf
            rows.append({"suite": CRITERIA[k - 1], "check": label, "deviation": dev,
                         "threshold": threshold, "pass": dev <= threshold})
    return rows
