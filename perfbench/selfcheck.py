"""Quick self-check of the benchmark itself (a few seconds):

    python3 perfbench/run.py --self-check

It tests the oracles against known values, the span arithmetic on a
synthetic call tree and the kept failure's check on synthetic records.  Then it
runs one small operation of each workload through the same pass machinery,
untraced and traced, so that a broken harness shows before a long run.
Exit status 0 when everything holds.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import oracles
import workloads
from oracles import CheckError


def check_oracles() -> None:
    oracles.check_asm_oracle()
    # a = b = c = sqrt(3)/2 is the gauge family at s = sqrt(3)/2, v = 1
    for n in range(1, 9):
        oracles.expect_close(f"ice vs gauge N={n}", oracles.ice_log_z(n),
                             oracles.gauge_log_z(n, math.sqrt(3) / 2, 1.0), 1e-12)
    # N = 1: the single vertex is of type 6, weight c / v
    oracles.expect_close("gauge N=1", oracles.gauge_log_z(1, 0.9, 1.3),
                         math.log(0.9 / 1.3), 1e-15)
    if not math.isclose(oracles.rel_dev(0.0, 0.0, 0.0, math.pi), 2.0):
        raise CheckError("rel_dev(1, -1) should be 2")
    if oracles.rel_dev(5.0, 0.1, 5.0, 0.1 + 2 * math.pi) > 1e-15:
        raise CheckError("rel_dev must compare angles modulo 2 pi")


def check_spans() -> None:
    from spans import Tracer

    tr = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.002)
        traced_leaf()
        traced_leaf()

    traced_leaf = tr.wrap(leaf, "leaf")
    tr.wrap(middle, "middle")()
    self_s, incl_s = tr.self_times(), tr.inclusive_times()
    if [s[0] for s in tr.spans] != ["middle", "leaf", "leaf"] or \
            [s[3] for s in tr.spans] != [-1, 0, 0]:
        raise CheckError(f"span tree {tr.spans}")
    if not math.isclose(self_s["middle"] + self_s["leaf"], incl_s["middle"],
                        rel_tol=1e-9):
        raise CheckError("self times do not add up to the root's duration")
    if not 0.0015 < self_s["middle"] < incl_s["middle"] - 0.003:
        raise CheckError(f"middle self time {self_s['middle']}")


def small_ops(workdir: str) -> list:
    """One small operation (or dependent pair) of each workload."""
    memo: dict = {}
    cache = str(Path(workdir) / "cache")
    draws = workloads.Draws.from_seed(1)
    cold, warm = workloads.sweep_ops("hankel", oracles.ICE_LAMBDA, oracles.ICE_ETA,
                                     3, cache, memo)
    t, u, v = draws.gauge
    gauge = workloads.dp_op(4, oracles.gauge_weights(workloads.GAUGE_S, t, u, v),
                            "dp gauge N=4",
                            lambda rec: workloads.anchor(
                                "dp gauge N=4", rec,
                                oracles.gauge_log_z(4, workloads.GAUGE_S, v)))
    eta = draws.all_etas[0]
    disordered = workloads.compute_all_op(7, workloads.DISORDERED_PHI_PLUS - eta, eta)
    return [workloads.ferro_op()] + cold + warm + [disordered, gauge]


def check_kept_fault() -> None:
    """The kept failure's check accepts its named fault and nothing else."""
    op = workloads.kept_fault_op()
    log_z = -7.141072943154
    reps = ("dp", "hankel", "wdet", "gauss", "fredholm-disordered")

    def doc(**log_dev):
        recs = [{"representation": r, "n": 12, "phase": 0.0,
                 "log_abs_z": log_z + log_dev.get(r.replace("-", "_"), 0.0)}
                for r in reps]
        return {"records": recs, "summary": {"pass": False}}

    op.fault_check(doc(fredholm_disordered=5e-7), "")
    for wrong in (doc(), doc(fredholm_disordered=1e-2),
                  doc(fredholm_disordered=5e-7, gauss=1e-9)):
        try:
            op.fault_check(wrong, "")
        except CheckError:
            continue
        raise CheckError(f"kept-failure check accepted {wrong}")


def check_passes() -> None:
    from icewall import cli
    from harness import run_pass, traced_pass
    import layers
    import run

    original_load = cli.cache_load
    run.WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK))
    try:
        plain = run_pass(small_ops, root / "plain", cli.main)
        traced, tracer = traced_pass(small_ops, root / "traced")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for kind, p in (("untraced", plain), ("traced", traced)):
        if p.failed or p.errors:
            raise CheckError(f"{kind} pass: {p.failed} failed, errors {p.errors}")
    m = layers.metrics(tracer)
    declared = run.declared_units("per_layer")
    expected = {k for k in declared
                if k != "trace.overhead_s" and not k.startswith("setup.")}
    if set(m) != expected:
        raise CheckError(f"layer metrics {sorted(set(m) ^ expected)} differ")
    # one LU each for hankel and wdet in both compute --rep all, and one per
    # cold sweep point
    if m["cli.cache_hits"] != 3 or m["determinants.lu_calls"] != 7:
        raise CheckError(f"counts {m}")
    for name, value in m.items():
        if not value > 0:
            raise CheckError(f"layer metric {name} = {value}: layer not reached")
    if cli.cache_load is not original_load:
        raise CheckError("wrappers were not removed after the traced pass")
    crosscheck = workloads.build("crosscheck", 1, str(root))
    if sum(op.fault_check is not None for op in crosscheck) != 1:
        raise CheckError("crosscheck must keep exactly one known failure")


def main() -> int:
    for check in (check_oracles, check_spans, check_kept_fault, check_passes):
        t0 = time.perf_counter()
        try:
            check()
        except CheckError as exc:
            print(f"self-check FAILED in {check.__name__}: {exc}", file=sys.stderr)
            return 1
        print(f"{check.__name__}: ok ({time.perf_counter() - t0:.2f} s)")
    print("self-check ok")
    return 0
