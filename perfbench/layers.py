"""Timing wrappers around icewall's layers, and the per-layer metrics.

Each wrapper is installed under the name its caller looks the function up
by: `hankel` and `wmatrix` import `mp_logdet` by name, `fredholm` imports
the polynomial evaluators by name, and `cli` imports every route function
by name.  Nothing under src/ changes; the originals are put back on exit.
"""

from __future__ import annotations

import contextlib

import mpmath

from icewall import cli, determinants, fredholm, hankel, wmatrix
from spans import Tracer

# cli name -> span name; children of cli.main, so cli.main's self time is
# the CLI's own work outside route functions and the cache.
ROUTES = {
    "enumerate_configs": "enumeration.enumerate",
    "partition_dp": "enumeration.dp",
    "partition_hankel": "route.hankel",
    "full_partition": "route.wdet",
    "full_partition_gauss": "route.gauss",
    "full_partition_fredholm": "route.fredholm-disordered",
    "fredholm_det": "route.fredholm_det",
}

POLY_EVALUATORS = ("mp_eval", "mp_deriv", "laguerre_eval", "laguerre_deriv",
                   "meixner_poly")

MATRIX_BYTES_PER_ENTRY = 16  # complex128


def _wrappers(tr: Tracer) -> list:
    """(module, attribute, replacement) for every traced call site."""
    cache_load = cli.cache_load
    lu_det = determinants.lu_det
    det_scopes: list = []   # operator matrices built so far in each open fredholm_det

    def counted_load(path, cfg):
        rec = cache_load(path, cfg)
        if rec is not None:
            tr.counts["cli.cache_hits"] += 1
        return rec

    def counted_lu(matrix):
        tr.counts["determinants.lu_calls"] += 1
        tr.counts["determinants.bits_total"] += mpmath.mp.prec
        return lu_det(matrix)

    def scoped_det(fn, name):
        inner = tr.wrap(fn, name)

        def det(*args, **kwargs):
            det_scopes.append(0)
            try:
                return inner(*args, **kwargs)
            finally:
                det_scopes.pop()
        return det

    def in_refinement() -> bool:
        # fredholm_det builds the primary operator first, then the refined one
        return bool(det_scopes) and det_scopes[-1] > 1

    def assemble_name() -> str:
        if det_scopes:
            det_scopes[-1] += 1
        return "fredholm.refine.assemble" if in_refinement() else "fredholm.assemble"

    def slogdet_name() -> str:
        return "fredholm.refine.slogdet" if in_refinement() else "fredholm.slogdet"

    def operator_matrix(fn):
        inner = tr.wrap(fn, assemble_name)

        def build(*args, **kwargs):
            mat = inner(*args, **kwargs)
            m = mat.shape[0]
            tr.counts["quadrature.nodes"] += m
            mb = m * m * MATRIX_BYTES_PER_ENTRY / 1e6
            tr.maxima["fredholm.matrix_mb"] = max(tr.maxima["fredholm.matrix_mb"], mb)
            return mat
        return build

    def poly(fn):
        inner = tr.wrap(fn, "orthopoly.poly_eval")

        def evaluate(*args, **kwargs):
            tr.counts["orthopoly.poly_evals"] += 1
            return inner(*args, **kwargs)
        return evaluate

    out = [(cli, "cache_load", tr.wrap(counted_load, "cli.cache_load")),
           (cli, "cache_store", tr.wrap(cli.cache_store, "cli.cache_store")),
           (determinants, "lu_det", counted_lu),
           (hankel, "hankel_H", tr.wrap(hankel.hankel_H, "hankel.assemble")),
           (hankel, "mp_logdet", tr.wrap(hankel.mp_logdet, "hankel.det")),
           (wmatrix, "_w_matrix_mp", tr.wrap(wmatrix._w_matrix_mp, "wmatrix.assemble")),
           (wmatrix, "mp_logdet", tr.wrap(wmatrix.mp_logdet, "wmatrix.det")),
           (fredholm, "fredholm_det", scoped_det(fredholm.fredholm_det, "fredholm.det")),
           (fredholm, "operator_matrix", operator_matrix(fredholm.operator_matrix)),
           (fredholm, "_logdet_i_minus", tr.wrap(fredholm._logdet_i_minus, slogdet_name))]
    out += [(fredholm, name, poly(getattr(fredholm, name))) for name in POLY_EVALUATORS]
    for name, span in ROUTES.items():
        fn = getattr(cli, name)
        out.append((cli, name, scoped_det(fn, span) if name == "fredholm_det"
                    else tr.wrap(fn, span)))
    return out


@contextlib.contextmanager
def installed(tr: Tracer):
    """Route every traced call site through `tr` for the duration."""
    saved = []
    try:
        for module, attr, replacement in _wrappers(tr):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield tr
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced pass, in the units BENCHMARK.json names."""
    self_s = tr.self_times()
    incl_s = tr.inclusive_times()

    def ms(*names):
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names)

    return {
        "cli.overhead_ms": ms("cli.main"),
        "cli.cache_store_ms": ms("cli.cache_store"),
        "cli.cache_load_ms": ms("cli.cache_load"),
        "cli.cache_hits": tr.counts["cli.cache_hits"],
        "enumeration.dp_ms": ms("enumeration.dp"),
        "enumeration.enumerate_ms": ms("enumeration.enumerate"),
        "hankel.assemble_ms": ms("hankel.assemble"),
        "hankel.det_ms": ms("hankel.det"),
        "wmatrix.assemble_ms": ms("wmatrix.assemble"),
        "wmatrix.det_ms": ms("wmatrix.det"),
        "determinants.lu_calls": tr.counts["determinants.lu_calls"],
        "determinants.bits_total": tr.counts["determinants.bits_total"],
        "orthopoly.poly_eval_ms": ms("orthopoly.poly_eval"),
        "orthopoly.poly_evals": tr.counts["orthopoly.poly_evals"],
        "quadrature.nodes": tr.counts["quadrature.nodes"],
        "fredholm.assemble_ms": ms("fredholm.assemble", "fredholm.refine.assemble"),
        "fredholm.slogdet_ms": ms("fredholm.slogdet", "fredholm.refine.slogdet"),
        "fredholm.refine_ms": 1000.0 * (incl_s.get("fredholm.refine.assemble", 0.0)
                                        + incl_s.get("fredholm.refine.slogdet", 0.0)),
        "fredholm.matrix_mb": tr.maxima["fredholm.matrix_mb"],
    }
