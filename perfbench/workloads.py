"""The benchmark's workloads: CLI operation lists drawn from a seed, and the
check each operation's output must pass.

An operation is one `icewall.cli.main` call.  Its check receives the JSON
document the CLI wrote and the CLI's standard error, and raises CheckError
on a wrong output.  Checks that compare two operations (warm cache against
cold, one route against another) keep what they need in the pass's `memo`.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from oracles import (ICE_ETA, ICE_LAMBDA, CheckError, asm_count, expect_phase,
                     gauge_log_z, gauge_weights, ice_log_z, log_asm, rel_dev,
                     symmetric_abc)

WORKLOADS = ("det-sweep", "crosscheck", "dp-weights")

TOL = 1e-8            # cross-route agreement, and anchors of double-precision routes
TOL_EXACT = 1e-10     # anchors of the extended-precision and exact-sum routes
EXACT_ROUTES = {"enumerate", "dp", "hankel", "wdet"}

SWEEP_N_MAX = 22
FERRO = ("0,0.55", "0,0.25")     # imaginary lambda, eta: brings in fredholm-discrete
FERRO_N = 5
ICE_ALL_N = 6
DISORDERED_PHI_PLUS = 1.45       # lambda + eta: fixes the Nystrom plan, so cost
                                 # does not depend on the seed
GENERIC_ALL_N = (7, 8)
RATIONAL = (0.9, 0.3)
RATIONAL_N = 8
KEPT_FAULT = (0.9, 0.3, 12)      # lambda, eta, N of the kept failure
KEPT_FAULT_MAX_DEV = 1e-4        # a larger deviation is a new fault, not roundoff
GAUGE_S = 0.9
DP_GAUGE_N = 13
DP_GENERIC_N = 11
DP_ONES_N = 11
ENUM_N = 6


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[dict, str], None]
    # For an operation that fails today: checks the output of its failing
    # call, so that only the named fault is accepted.  None: it must pass.
    fault_check: Optional[Callable[[dict, str], None]] = None


@dataclass(frozen=True)
class Draws:
    """Everything a seed decides; the ice, ferroelectric, rational and
    kept-failure points are fixed."""

    sweep_point: tuple      # (lambda, eta) of the generic det-sweep point
    all_etas: tuple         # eta of each generic crosscheck point
    dp_point: tuple         # (lambda, eta) of the generic dp-weights point
    gauge: tuple            # (t, u, v)

    @classmethod
    def from_seed(cls, seed: int) -> "Draws":
        rng = random.Random(seed)
        return cls(sweep_point=(rng.uniform(0.8, 1.4), rng.uniform(0.2, 0.45)),
                   all_etas=tuple(rng.uniform(0.2, 0.5) for _ in GENERIC_ALL_N),
                   dp_point=(rng.uniform(0.8, 1.4), rng.uniform(0.2, 0.45)),
                   gauge=(rng.uniform(1.1, 1.6), rng.uniform(0.6, 0.9),
                          rng.uniform(1.15, 1.7)))


def num(x: float) -> str:
    return repr(float(x))


def weights_arg(ws) -> str:
    return ",".join(num(w) for w in ws)


# --------------------------------------------------------------------------
# record checks


def records(doc: dict, reps: Optional[set] = None, n: Optional[int] = None) -> dict:
    recs = {r["representation"]: r for r in doc["records"]}
    if reps is not None and set(recs) != reps:
        raise CheckError(f"routes {sorted(recs)}, expected {sorted(reps)}")
    for rep, r in recs.items():
        if n is not None and r["n"] != n:
            raise CheckError(f"{rep}: N={r['n']}, expected {n}")
        if not (math.isfinite(r["log_abs_z"]) and math.isfinite(r["phase"])):
            raise CheckError(f"{rep}: non-finite record {r['log_abs_z']}, {r['phase']}")
    return recs


def agree(label: str, a: dict, b: dict, tol: float = TOL) -> None:
    dev = rel_dev(a["log_abs_z"], a["phase"], b["log_abs_z"], b["phase"])
    if not dev <= tol:
        raise CheckError(f"{label}: {a['representation']} and {b['representation']} "
                         f"deviate by {dev:.3e} (tol {tol:g})")


def all_agree(label: str, recs: dict) -> None:
    reps = sorted(recs)
    for i, ra in enumerate(reps):
        for rb in reps[i + 1:]:
            tol = TOL_EXACT if {ra, rb} <= EXACT_ROUTES else TOL
            agree(label, recs[ra], recs[rb], tol)


def anchor(label: str, rec: dict, log_z: float, phase: float = 0.0) -> None:
    tol = TOL_EXACT if rec["representation"] in EXACT_ROUTES else TOL
    dev = rel_dev(rec["log_abs_z"], rec["phase"], log_z, phase)
    if not dev <= tol:
        raise CheckError(f"{label}: {rec['representation']} N={rec['n']} deviates "
                         f"from the exact value by {dev:.3e} (tol {tol:g})")


def summary_passes(label: str, doc: dict) -> None:
    if not doc.get("summary", {}).get("pass"):
        raise CheckError(f"{label}: CLI cross-check summary {doc.get('summary')}")


# --------------------------------------------------------------------------
# operations


def ferro_op() -> Op:
    """compute --rep all at the ferroelectric point, which brings in
    fredholm-discrete."""
    reps = {"enumerate", "dp", "hankel", "wdet", "gauss", "fredholm-discrete"}
    label = f"ferro all N={FERRO_N}"

    def check(doc, _err):
        recs = records(doc, reps, FERRO_N)
        summary_passes(label, doc)
        all_agree(label, recs)
        # a, b, c are i times positive reals: Z = i^{N^2} |Z|
        for rep, r in recs.items():
            expect_phase(f"{label} {rep}", r["phase"], FERRO_N ** 2 * math.pi / 2, TOL)
        if recs["enumerate"]["config_count"] != asm_count(FERRO_N):
            raise CheckError(f"{label}: {recs['enumerate']['config_count']} configurations")

    return Op(label, ["compute", "--rep", "all", "--n", str(FERRO_N),
                      "--lambda", FERRO[0], "--eta", FERRO[1]], check)


def sweep_ops(rep: str, lam: float, eta: float, n_max: int, cache: str,
              memo: dict) -> tuple:
    """(cold, warm) one-point sweeps for N = 1..n_max against one cache
    directory.  A sweep over several points runs them on a thread pool that
    shares mpmath's global working precision, which makes its results
    unrepeatable; a one-point sweep runs its point alone."""
    ice = (lam, eta) == (ICE_LAMBDA, ICE_ETA)
    where = "ice" if ice else f"({lam:.4f},{eta:.4f})"
    other = "wdet" if rep == "hankel" else "hankel"

    def point(n: int) -> tuple:
        label = f"sweep {rep} N={n} {where}"
        argv = ["sweep", "--rep", rep, "--n", str(n), "--n-max", str(n),
                "--lambda", num(lam), "--eta", num(eta), "--cache", cache]
        key, other_key = (rep, n, lam, eta), (other, n, lam, eta)

        def cold(doc, err):
            if "cache: 0 hits, 1 computed" not in err:
                raise CheckError(f"{label} cold: cache report {err.strip()!r}")
            rec = memo[key] = records(doc, {rep}, n)[rep]
            expect_phase(label, rec["phase"], 0.0, TOL)
            if ice:
                anchor(label, rec, ice_log_z(n))
            if other_key in memo:
                agree(label, rec, memo[other_key], TOL_EXACT)

        def warm(doc, err):
            if "cache: 1 hits, 0 computed" not in err:
                raise CheckError(f"{label} warm: cache report {err.strip()!r}")
            if doc["records"] != [memo[key]]:
                raise CheckError(f"{label}: warm record differs from the cold one")

        return Op(f"{label} cold", argv, cold), Op(f"{label} warm", argv, warm)

    pairs = [point(n) for n in range(1, n_max + 1)]
    return [c for c, _ in pairs], [w for _, w in pairs]


def compute_all_op(n: int, lam: float, eta: float) -> Op:
    ice = (lam, eta) == (ICE_LAMBDA, ICE_ETA)
    label = f"all N={n} " + ("ice" if ice else f"({lam:.4f},{eta:.4f})")

    def check(doc, _err):
        recs = records(doc, n=n)
        if "fredholm-disordered" not in recs:
            raise CheckError(f"{label}: no fredholm-disordered record")
        summary_passes(label, doc)
        all_agree(label, recs)
        for rep, r in recs.items():
            expect_phase(f"{label} {rep}", r["phase"], 0.0, TOL)
            if ice:
                anchor(label, r, ice_log_z(n))
        if "enumerate" in recs and recs["enumerate"]["config_count"] != asm_count(n):
            raise CheckError(f"{label}: {recs['enumerate']['config_count']} configurations")

    return Op(label, ["compute", "--rep", "all", "--n", str(n),
                      "--lambda", num(lam), "--eta", num(eta)], check)


def dp_op(n: int, weights: tuple, label: str, check_value) -> Op:
    def check(doc, _err):
        rec = records(doc, {"dp"}, n)["dp"]
        check_value(rec)

    return Op(label, ["compute", "--rep", "dp", "--n", str(n),
                      "--weights", weights_arg(weights)], check)


def rational_ops(memo: dict) -> list:
    """fredholm-rational against the DP at the rational weights
    a, b, c = lambda + eta, lambda - eta, 2 eta."""
    lam, eta = RATIONAL
    ws = (lam + eta, lam + eta, lam - eta, lam - eta, 2 * eta, 2 * eta)

    def keep(rec):
        expect_phase("rational dp", rec["phase"], 0.0, TOL)
        memo["rational-dp"] = rec

    def check(doc, _err):
        rec = records(doc, {"fredholm-rational"}, RATIONAL_N)["fredholm-rational"]
        agree(f"rational N={RATIONAL_N}", rec, memo["rational-dp"])

    return [dp_op(RATIONAL_N, ws, f"dp rational N={RATIONAL_N}", keep),
            Op(f"fredholm-rational N={RATIONAL_N}",
               ["compute", "--rep", "fredholm-rational", "--n", str(RATIONAL_N),
                "--lambda", num(lam), "--eta", num(eta)], check)]


def kept_fault_op() -> Op:
    """compute --rep all at N=12, which exits 1 today: fredholm-disordered
    deviates from the determinant routes (double-precision Christoffel-Darboux
    roundoff).  The failing call must show exactly that fault; once it is
    mended, the call passes and is checked like any other."""
    lam, eta, n = KEPT_FAULT
    op = compute_all_op(n, lam, eta)
    label = f"kept failure N={n} ({lam},{eta})"
    fredholm = "fredholm-disordered"

    def fault_check(doc, _err):
        recs = records(doc, {"dp", "hankel", "wdet", "gauss", fredholm}, n)
        dets = {rep: r for rep, r in recs.items() if rep != fredholm}
        for i, ra in enumerate(sorted(dets)):
            for rb in sorted(dets)[i + 1:]:
                agree(label, dets[ra], dets[rb], TOL_EXACT)
        dev = rel_dev(recs[fredholm]["log_abs_z"], recs[fredholm]["phase"],
                      dets["wdet"]["log_abs_z"], dets["wdet"]["phase"])
        if not TOL < dev < KEPT_FAULT_MAX_DEV:
            raise CheckError(f"{label}: {fredholm} deviates by {dev:.3e}, expected "
                             f"between {TOL:g} and {KEPT_FAULT_MAX_DEV:g}")
        if doc.get("summary", {}).get("pass") is not False:
            raise CheckError(f"{label}: CLI cross-check summary {doc.get('summary')}")

    op.fault_check = fault_check
    return op


def gauge_ops(memo: dict, draws: Draws) -> list:
    t, u, v = draws.gauge
    lam, eta = draws.dp_point
    a, b, c = symmetric_abc(lam, eta)
    n = DP_GENERIC_N

    def exact(rec):
        anchor(f"dp gauge N={DP_GAUGE_N}", rec, gauge_log_z(DP_GAUGE_N, GAUGE_S, v))

    def keep_wdet(doc, _err):
        memo["gauge-wdet"] = records(doc, {"wdet"}, n)["wdet"]

    def against_wdet(rec):
        ref = dict(memo["gauge-wdet"], log_abs_z=memo["gauge-wdet"]["log_abs_z"]
                   - n * math.log(v))
        agree(f"dp gauge N={n} vs wdet", rec, ref, TOL_EXACT)

    def ones(rec):
        anchor(f"dp ones N={DP_ONES_N}", rec, log_asm(DP_ONES_N))

    def enum_check(doc, _err):
        rec = records(doc, {"enumerate"}, ENUM_N)["enumerate"]
        anchor(f"enumerate gauge N={ENUM_N}", rec, gauge_log_z(ENUM_N, GAUGE_S, v))
        if rec["config_count"] != asm_count(ENUM_N):
            raise CheckError(f"enumerate N={ENUM_N}: {rec['config_count']} configurations")

    gw = gauge_weights(GAUGE_S, t, u, v)
    return [
        dp_op(DP_GAUGE_N, gw, f"dp gauge N={DP_GAUGE_N}", exact),
        Op(f"wdet N={n}", ["compute", "--rep", "wdet", "--n", str(n),
                           "--lambda", num(lam), "--eta", num(eta)], keep_wdet),
        dp_op(n, (a * t, a / t, b * u, b / u, c * v, c / v),
              f"dp gauge N={n} ({lam:.4f},{eta:.4f})", against_wdet),
        dp_op(DP_ONES_N, (1.0,) * 6, f"dp ones N={DP_ONES_N}", ones),
        Op(f"enumerate gauge N={ENUM_N}",
           ["compute", "--rep", "enumerate", "--n", str(ENUM_N),
            "--weights", weights_arg(gw)], enum_check),
    ]


def build(workload: str, seed: int, workdir: str) -> list:
    """The operation list of one pass; `workdir` is empty and private to it."""
    draws = Draws.from_seed(seed)
    cache = os.path.join(workdir, "cache")
    memo: dict = {}
    ops: list = []
    if workload == "det-sweep":
        sweeps = [sweep_ops(rep, lam, eta, SWEEP_N_MAX, cache, memo)
                  for lam, eta in ((ICE_LAMBDA, ICE_ETA), draws.sweep_point)
                  for rep in ("hankel", "wdet")]
        ops += [op for cold, _ in sweeps for op in cold]
        ops += [op for _, warm in sweeps for op in warm]
    elif workload == "crosscheck":
        ops.append(ferro_op())
        ops.append(compute_all_op(ICE_ALL_N, ICE_LAMBDA, ICE_ETA))
        ops += [compute_all_op(n, DISORDERED_PHI_PLUS - eta, eta)
                for n, eta in zip(GENERIC_ALL_N, draws.all_etas)]
        ops += rational_ops(memo)
        ops.append(kept_fault_op())
    elif workload == "dp-weights":
        ops += gauge_ops(memo, draws)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops

