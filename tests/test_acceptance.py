"""Acceptance gate: the seven end-to-end criteria, one pass/fail line each.

Each criterion prints a single summary line directly to the real stdout so
it stays visible under pytest's capture.
"""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from icewall.cli import applicable
from icewall.enumeration import ASM_COUNTS, config_iterator, enumerate_configs
from icewall.errors import PrecisionWarning
from icewall.fredholm import KernelSpec, fredholm_det, trace_moments
from icewall.hankel import alpha_det_deviation, det_a_deviation, partition_hankel
from icewall.logscale import PrecisionContext
from icewall.orthopoly import (connection_coeffs, inm_closed, inm_quadrature,
                               key_conjugation_check, laguerre_eval, mp_eval)
from icewall.params import (ModelParams, VertexWeights, check_unitarity,
                            symmetric_weights)
from icewall.wmatrix import (BetaGamma, full_partition, rational_z_tilde,
                             w_entry, w_entry_integral, w_matrix,
                             w_matrix_gauss, z_tilde_det)

DISORDERED_SAMPLES = [(0.9, 0.3), (1.2, 0.45), (0.7, 0.2),
                      (1.5, 0.35), (0.8, 0.15)]


REPORT_LINES: list = []


def report(index: int, label: str, ok: bool, detail: str):
    line = f"CRITERION {index} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_cross_representation_equality():
    names = ["enumerate", "dp", "hankel", "wdet", "gauss", "fredholm-disordered"]
    worst_all, worst_exact = 0.0, 0.0
    for lam, eta in DISORDERED_SAMPLES:
        p = ModelParams(lam, eta)
        vw = VertexWeights.symmetric(*symmetric_weights(p))
        for n in range(1, 7):
            ctx = PrecisionContext.for_size(n)
            routes = applicable(n, p, None)
            assert [r.name for r in routes] == names
            values = {r.name: r.fn(n, p, vw, ctx)[0] for r in routes}
            exact = [v for name, v in values.items() if name != "fredholm-disordered"]
            worst_all = max(worst_all, max(
                a.rel_diff(b) for a, b in itertools.combinations(values.values(), 2)))
            worst_exact = max(worst_exact, max(
                a.rel_diff(b) for a, b in itertools.combinations(exact, 2)))
    report(1, "cross-representation equality",
           worst_all < 1e-8 and worst_exact < 1e-10,
           f"max dev {worst_all:.2e}, exact-route dev {worst_exact:.2e}")


def test_criterion_2_alternating_sign_matrix_sequence():
    counts_ok = all(sum(1 for _ in config_iterator(n)) == ASM_COUNTS[n]
                    for n in range(1, 7))
    p = ModelParams(math.pi / 2, math.pi / 6)
    vw = VertexWeights.symmetric(*symmetric_weights(p))
    worst = 0.0
    for n in range(1, 7):
        z = enumerate_configs(n, vw).z_value.value
        target = (math.sqrt(3) / 2) ** (n * n) * ASM_COUNTS[n]
        worst = max(worst, abs(z / target - 1))
    report(2, "alternating-sign-matrix sequence",
           counts_ok and worst < 1e-10,
           f"counts {'ok' if counts_ok else 'WRONG'}, ice-point dev {worst:.2e}")


def test_criterion_3_closed_determinants():
    rng = np.random.default_rng(20260826)
    worst_ratio = 0.0
    for _ in range(20):
        phi = complex(rng.uniform(0.3, 2.8), rng.uniform(-0.5, 0.5))
        alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        for n in (1, 4, 7, 10):
            ctx = PrecisionContext.for_size(n)
            worst_ratio = max(worst_ratio,
                              det_a_deviation(n, phi, ctx) / ctx.tolerance,
                              alpha_det_deviation(n, phi, alpha, ctx)
                              / ctx.tolerance)
    report(3, "closed-form determinants",
           worst_ratio < 1.0,
           f"worst deviation {worst_ratio:.2e} of the 2^-bits/2 budget")


def test_criterion_4_identity_suite():
    tau, omega, phi = 1.1, 0.7, 0.9
    worst_inm = max(
        abs(inm_closed(n, m, lam, tau, omega, phi)
            - inm_quadrature(n, m, lam, tau, omega, phi))
        for lam in (0.5, 1.0) for n in range(9) for m in range(9))
    worst_conn = 0.0
    for n in range(11):
        coeffs = connection_coeffs(n, 0.5, tau, phi)
        for x in (-1.3, 0.37, 2.1):
            direct = mp_eval(n, 0.5, x, tau)
            expanded = sum(c * mp_eval(k, 0.5, x, phi)
                           for k, c in enumerate(coeffs))
            worst_conn = max(worst_conn,
                             abs(direct - expanded) / (1 + abs(direct)))
    worst_conj = max(key_conjugation_check(a, lam, m)
                     for a in (0.45, -0.8) for lam in (0.5, 1.0)
                     for m in range(3, 13))
    ok = worst_inm < 1e-10 and worst_conn < 1e-12 and worst_conj < 1e-12
    report(4, "polynomial identity suite", ok,
           f"overlap {worst_inm:.2e}, connection {worst_conn:.2e}, "
           f"conjugation {worst_conj:.2e}")


def test_criterion_5_kernel_equivalences():
    ctx = PrecisionContext.for_size(4)
    p_ferro = ModelParams(0.55j, 0.25j)
    worst_disc = max(
        fredholm_det(KernelSpec.discrete(n, 0.8, 0.3)).rel_diff(
            z_tilde_det(n, p_ferro, ctx)) for n in range(1, 5))
    lam, eta = 0.9, 0.3
    xi = (lam - eta) / (lam + eta)
    worst_rat = max(
        fredholm_det(KernelSpec.rational(n, xi)).rel_diff(
            rational_z_tilde(n, lam, eta)) for n in range(1, 5))
    eps, phi = 1e-4, 0.8
    worst_eps = max(
        abs(mp_eval(n, 0.5, x / eps, eps * phi)
            - laguerre_eval(n, -2 * phi * x))
        / (1 + abs(laguerre_eval(n, -2 * phi * x)))
        for n in (1, 2, 4) for x in (-0.7, 0.3, 1.1))
    for y in (-0.5, 0.5):
        step = math.exp(1.2 * y - np.logaddexp(0.0, math.pi * y / eps))
        target = math.exp(1.2 * y) if y < 0 else 0.0
        worst_eps = max(worst_eps, abs(step - target))
    ok = worst_disc < 1e-8 and worst_rat < 1e-8 and worst_eps < 1e-5
    report(5, "kernel equivalences", ok,
           f"discrete {worst_disc:.2e}, rational {worst_rat:.2e}, "
           f"eps-limits {worst_eps:.2e}")


def test_criterion_6_structural_invariants():
    excess_ok = all(cfg.type_counts()[5] - cfg.type_counts()[4] == n
                    for n in range(1, 7) for cfg in config_iterator(n))
    rng = np.random.default_rng(11)
    worst_uni = 0.0
    kept = 0
    while kept < 100:
        nu = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        eta = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
        import cmath
        if min(abs(cmath.sin(nu + 2 * eta)), abs(cmath.sin(-nu + 2 * eta)),
               abs(cmath.sin(2 * eta))) < 1e-3:
            continue
        worst_uni = max(worst_uni, check_unitarity(nu, eta))
        kept += 1
    p = ModelParams(0.9, 0.3)
    bg = BetaGamma.from_params(p)
    w_bin = w_matrix(5, bg)
    worst_w = float(np.max(np.abs(w_bin - w_matrix_gauss(5, bg))))
    for j in range(5):
        for k in range(j + 1):
            worst_w = max(worst_w,
                          abs(w_entry_integral(j, k, p) - w_bin[j, k]))
    worst_tm = 0.0
    for n in (2, 3):
        w = w_matrix(n, bg)
        tm = trace_moments(KernelSpec.disordered(n, p), n_max=3)
        for k in (1, 2, 3):
            target = bg.zeta ** k * np.trace(np.linalg.matrix_power(w, k))
            worst_tm = max(worst_tm, abs(tm[k - 1] - target))
    ok = (excess_ok and worst_uni < 1e-12 and worst_w < 1e-10
          and worst_tm < 1e-8)
    report(6, "structural invariants", ok,
           f"c-excess {'ok' if excess_ok else 'WRONG'}, unitarity "
           f"{worst_uni:.2e}, W three-way {worst_w:.2e}, traces {worst_tm:.2e}")


def test_criterion_7_precision_scaling():
    p = ModelParams(0.9, 0.3)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionWarning)
        for n in range(1, 13):
            ctx = PrecisionContext.for_size(n)
            worst = max(worst, partition_hankel(n, p, ctx).rel_diff(
                full_partition(n, p, ctx)))
    report(7, "precision scaling to N=12", worst < 1e-10,
           f"max dev vs W determinant {worst:.2e}")
