"""Command-line front end: compute the partition function by any
representation, sweep parameters, run the verification suites, and dump
small-lattice configurations.  JSON output carries ``schema: 1``; CSV is
RFC-4180 (CRLF, quoted as needed).  Results can be cached on disk keyed by
a hash of the canonicalized job and the package version; a cache hit
re-emits the stored record byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .enumeration import DP_LIMIT, ENUM_LIMIT, ASM_COUNTS, dump_configs, \
    enumerate_configs, config_iterator, partition_dp
from .errors import SingularParameterError
from .fredholm import FREDHOLM_LIMIT, KernelSpec, fredholm_det, \
    full_partition_fredholm, trace_moments
from .hankel import det_a_deviation, partition_hankel
from .logscale import LogScaledValue, PrecisionContext
from .orthopoly import connection_coeffs, inm_closed, inm_quadrature, \
    key_conjugation_check, mp_eval, su11_matrices
from .params import ModelParams, VertexWeights, check_unitarity, \
    qgroup_prefactor, symmetric_weights
from .wmatrix import GAUSS_LIMIT, BetaGamma, full_partition, \
    full_partition_gauss, rational_z_tilde, w_matrix

SCHEMA = 1

CSV_COLUMNS = ("representation", "n", "lambda_re", "lambda_im",
               "eta_re", "eta_im", "log_abs_z", "phase", "f_n",
               "elapsed_ms", "warnings")


# --------------------------------------------------------------------------
# job configuration and records


def parse_complex(text: str) -> complex:
    """Complex scalar from 're' or 're,im'."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def parse_weights(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("--weights takes exactly six values")
    return tuple(float(p) for p in parts)


@dataclass(frozen=True)
class JobConfig:
    command: str
    representation: str
    n: int
    lam: complex
    eta: complex
    weights: Optional[tuple] = None
    bits: Optional[int] = None
    tol: float = 1e-8

    def canonical(self) -> str:
        payload = {
            "command": self.command,
            "representation": self.representation,
            "n": self.n,
            "lambda": [self.lam.real, self.lam.imag],
            "eta": [self.eta.real, self.eta.imag],
            "weights": list(self.weights) if self.weights else None,
            "bits": self.bits,
            "tol": self.tol,
            "version": __version__,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


@dataclass
class ResultRecord:
    representation: str
    n: int
    lam: complex
    eta: complex
    log_magnitude: float
    phase: float
    elapsed_ms: float
    precision_bits: int
    warnings: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def f_n(self) -> float:
        return -self.log_magnitude / (self.n * self.n)

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA,
            "representation": self.representation,
            "n": self.n,
            "lambda": [self.lam.real, self.lam.imag],
            "eta": [self.eta.real, self.eta.imag],
            "log_abs_z": self.log_magnitude,
            "phase": self.phase,
            "f_n": self.f_n,
            "elapsed_ms": self.elapsed_ms,
            "precision_bits": self.precision_bits,
            "warnings": self.warnings,
        }
        out.update(self.extra)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        extra = {k: v for k, v in d.items()
                 if k not in ("schema", "representation", "n", "lambda", "eta",
                              "log_abs_z", "phase", "f_n", "elapsed_ms",
                              "precision_bits", "warnings")}
        return cls(d["representation"], d["n"], complex(*d["lambda"]),
                   complex(*d["eta"]), d["log_abs_z"], d["phase"],
                   d["elapsed_ms"], d["precision_bits"], d["warnings"], extra)


# --------------------------------------------------------------------------
# cache


def cache_dir(flag_value: Optional[str]) -> Optional[str]:
    env = os.environ.get("ICEWALL_CACHE_DIR")
    path = env or flag_value
    if path:
        os.makedirs(path, exist_ok=True)
    return path


def cache_load(path: Optional[str], cfg: JobConfig) -> Optional[ResultRecord]:
    if not path:
        return None
    fn = os.path.join(path, cfg.cache_key() + ".json")
    if not os.path.exists(fn):
        return None
    with open(fn, "r", encoding="utf-8") as fh:
        return ResultRecord.from_dict(json.load(fh))


def cache_store(path: Optional[str], cfg: JobConfig, rec: ResultRecord):
    """Write to a temporary file beside the entry, then rename it into place,
    so that an interrupted write never leaves a truncated entry."""
    if not path:
        return
    fd, tmp = tempfile.mkstemp(dir=path, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(rec.to_dict(), fh, sort_keys=True)
        os.replace(tmp, os.path.join(path, cfg.cache_key() + ".json"))
    except BaseException:
        os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# route registry


@dataclass(frozen=True)
class Route:
    """One representation of Z_N.  `valid(n, params, weights)` returns why the
    route cannot run there, or None; `fn(n, params, vertex_weights, ctx)`
    returns (value, extra record fields).  The route functions are looked up
    in this module's globals when called, not bound when it is imported."""

    name: str
    valid: Callable[[int, ModelParams, Optional[tuple]], Optional[str]]
    fn: Callable[..., tuple]
    in_all: bool = True     # False for a route that computes another model


def _up_to(limit: int):
    def valid(n, p, weights):
        return None if n <= limit else f"supports N <= {limit}"
    return valid


def _lambda_eta(check=lambda p: None):
    """valid() of a route that takes lambda, eta and no explicit weights."""
    def valid(n, p, weights):
        if weights:
            return "takes lambda, eta, not --weights (only enumerate and dp do)"
        return check(p)
    return valid


def _capped(valid, limit: int):
    """valid(), and N <= limit."""
    return lambda n, p, weights: valid(n, p, weights) or _up_to(limit)(n, p, weights)


def _disordered(p: ModelParams) -> Optional[str]:
    if not 0 < complex(p.phi_plus).real < math.pi:
        return "needs 0 < Re(lambda + eta) < pi"
    return None


def _ferroelectric(p: ModelParams) -> Optional[str]:
    pp, pm = complex(p.phi_plus), complex(p.phi_minus)
    if not (abs(pp.real) < 1e-12 and abs(pm.real) < 1e-12 and pp.imag > 0):
        return "needs purely imaginary lambda, eta with Im(lambda + eta) > 0"
    return None


def _real(p: ModelParams) -> Optional[str]:
    return "needs real lambda, eta" if p.lam.imag or p.eta.imag else None


def _enumerate(n, p, vw, ctx):
    res = enumerate_configs(n, vw)
    return res.z_value, {"config_count": res.config_count}


def _discrete(n, p, vw, ctx):
    spec = KernelSpec.discrete(n, complex(p.phi_plus).imag, complex(p.phi_minus).imag)
    return fredholm_det(spec).scale_log(qgroup_prefactor(n, p)), {}


def _rational(n, p, vw, ctx):
    # rational degeneration: weights (lam+eta, lam-eta, 2 eta)
    lam, eta = p.lam.real, p.eta.real
    zt = fredholm_det(KernelSpec.rational(n, (lam - eta) / (lam + eta)))
    return zt.scale_log(n * n * math.log(lam + eta)), {}


ROUTES = (
    Route("enumerate", _up_to(ENUM_LIMIT), _enumerate),
    Route("dp", _up_to(DP_LIMIT), lambda n, p, vw, ctx: (partition_dp(n, vw), {})),
    Route("hankel", _lambda_eta(),
          lambda n, p, vw, ctx: (partition_hankel(n, p, ctx), {})),
    Route("wdet", _lambda_eta(),
          lambda n, p, vw, ctx: (full_partition(n, p, ctx), {})),
    Route("gauss", _capped(_lambda_eta(), GAUSS_LIMIT),
          lambda n, p, vw, ctx: (full_partition_gauss(n, p), {})),
    Route("fredholm-disordered", _capped(_lambda_eta(_disordered), FREDHOLM_LIMIT),
          lambda n, p, vw, ctx: (full_partition_fredholm(n, p), {})),
    Route("fredholm-discrete", _capped(_lambda_eta(_ferroelectric), FREDHOLM_LIMIT), _discrete),
    Route("fredholm-rational", _lambda_eta(_real), _rational, in_all=False),
)
ROUTES_BY_NAME = {r.name: r for r in ROUTES}


def applicable(n: int, p: ModelParams, weights: Optional[tuple]) -> list:
    """The routes 'all' runs, in registry order."""
    return [r for r in ROUTES if r.in_all and r.valid(n, p, weights) is None]


def compute_one(route: Route, n: int, args, cdir: Optional[str]) -> tuple:
    """(record, whether it came from the cache) for one route at one N.
    Raises when the route refuses the inputs or fails; nothing is cached then."""
    p = ModelParams(args.lam, args.eta)
    reason = route.valid(n, p, args.weights)
    if reason:
        raise ValueError(f"{route.name} {reason}")
    cfg = JobConfig("compute", route.name, n, args.lam, args.eta,
                    args.weights, args.bits, args.tol)
    rec = cache_load(cdir, cfg)
    if rec is not None:
        return rec, True
    ctx = PrecisionContext(args.bits) if args.bits else PrecisionContext.for_size(n)
    vw = (VertexWeights(*args.weights) if args.weights
          else VertexWeights.symmetric(*symmetric_weights(p)))
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, extra = route.fn(n, p, vw, ctx)
    elapsed = 1000.0 * (time.perf_counter() - t0)
    rec = ResultRecord(route.name, n, args.lam, args.eta, value.log_magnitude,
                       value.angle, elapsed, ctx.mantissa_bits,
                       [str(w.message) for w in caught], extra)
    cache_store(cdir, cfg, rec)
    return rec, False


# --------------------------------------------------------------------------
# output


def emit(records: list, fmt: str, out_path: Optional[str],
         summary: Optional[dict] = None):
    if fmt == "json":
        doc = {"schema": SCHEMA, "records": [r.to_dict() for r in records]}
        if summary is not None:
            doc["summary"] = summary
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)  # csv defaults follow RFC 4180 (CRLF)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.representation, r.n,
                             repr(r.lam.real), repr(r.lam.imag),
                             repr(r.eta.real), repr(r.eta.imag),
                             repr(r.log_magnitude), repr(r.phase),
                             repr(r.f_n), repr(r.elapsed_ms),
                             ";".join(r.warnings)])
        text = buf.getvalue()
    else:
        lines = []
        for r in records:
            lines.append(f"{r.representation:>20s}  N={r.n}  "
                         f"log|Z|={r.log_magnitude:+.12e}  "
                         f"phase={r.phase:+.12e}  "
                         f"({r.elapsed_ms:.1f} ms)"
                         + (f"  {r.extra}" if r.extra else "")
                         + (f"  WARN: {'; '.join(r.warnings)}" if r.warnings else ""))
        if summary is not None:
            lines.append(f"max pairwise relative deviation: "
                         f"{summary['max_pairwise_rel_deviation']:.3e} "
                         f"(tol {summary['tol']:.1e}) -> "
                         + ("OK" if summary["pass"] else "FAIL"))
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands


def run_compute(args) -> int:
    if args.rep == "all":
        routes = applicable(args.n, ModelParams(args.lam, args.eta), args.weights)
        if not routes:
            raise ValueError(f"no route takes these inputs at N={args.n}")
    else:
        routes = [ROUTES_BY_NAME[args.rep]]
    cdir = cache_dir(args.cache)
    records = []
    for route in routes:
        rec, hit = compute_one(route, args.n, args, cdir)
        if hit:
            print(f"cache hit: {route.name}", file=sys.stderr)
        records.append(rec)
    summary = None
    status = 0
    if len(records) > 1:
        values = [LogScaledValue(r.log_magnitude, r.phase) for r in records]
        worst = 0.0
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                worst = max(worst, values[i].rel_diff(values[j]))
        summary = {"max_pairwise_rel_deviation": worst, "tol": args.tol,
                   "pass": worst <= args.tol}
        if not summary["pass"]:
            status = 1
    emit(records, args.format, args.out, summary)
    return status


def run_sweep(args) -> int:
    """Points run in order, one at a time: mpmath's working precision is
    process-global.  A failed point is recorded, never cached, and makes the
    sweep exit 1."""
    ns = range(args.n, args.n_max + 1)
    if len(ns) > 10_000:
        print("sweep grid exceeds 10^4 points", file=sys.stderr)
        return 2
    route = ROUTES_BY_NAME[args.rep]
    cdir = cache_dir(args.cache)
    records, hits, failed = [], 0, 0
    for n in ns:
        try:
            rec, hit = compute_one(route, n, args, cdir)
        except Exception as exc:  # per-point errors recorded, sweep continues
            rec, hit = ResultRecord(args.rep, n, args.lam, args.eta,
                                    float("nan"), float("nan"), 0.0, 0,
                                    [f"error: {exc}"]), False
            failed += 1
        records.append(rec)
        hits += hit
    if cdir:
        print(f"cache: {hits} hits, {len(ns) - hits} computed", file=sys.stderr)
    if failed:
        print(f"sweep: {failed} of {len(ns)} points failed", file=sys.stderr)
    emit(records, args.format, args.out)
    return 1 if failed else 0


def _verify_identities() -> list:
    rng = np.random.default_rng(7)
    checks = []
    # R-matrix unitarity on random complex spectral parameters
    worst = max(check_unitarity(complex(a, b), complex(c, d))
                for a, b, c, d in rng.uniform(-1, 1, size=(20, 4)))
    checks.append(("r-matrix unitarity (20 samples)", worst, 1e-12))
    # ASM counts from bare enumeration
    counts = [sum(1 for _ in config_iterator(n)) for n in range(1, 6)]
    dev = max(abs(c - ASM_COUNTS[n]) for n, c in enumerate(counts, start=1))
    checks.append(("alternating-sign-matrix counts N<=5", float(dev), 0.5))
    # moment-determinant split against enumeration
    p = ModelParams(0.9, 0.3)
    vw = VertexWeights.symmetric(*symmetric_weights(p))
    worst = max(partition_hankel(n, p).rel_diff(
        enumerate_configs(n, vw).z_value) for n in range(1, 5))
    checks.append(("moment determinant vs enumeration N<=4", worst, 1e-10))
    # closed-form determinant of the moment matrix
    worst = 0.0
    for _ in range(5):
        phi = complex(rng.uniform(0.3, 2.8), rng.uniform(-0.3, 0.3))
        worst = max(worst, det_a_deviation(6, phi))
    checks.append(("closed determinant, 5 random phi, N=6", worst,
                   PrecisionContext.for_size(6).tolerance))
    return checks


def _verify_kernels() -> list:
    checks = []
    p = ModelParams(0.9, 0.3)
    ctx = PrecisionContext.for_size(4)
    worst = max(full_partition_fredholm(n, p).rel_diff(full_partition(n, p, ctx))
                for n in range(1, 5))
    checks.append(("disordered Nystrom vs finite determinant N<=4", worst, 1e-8))
    lam, eta = 0.9, 0.3
    worst = 0.0
    for n in range(1, 5):
        xi = (lam - eta) / (lam + eta)
        worst = max(worst, fredholm_det(KernelSpec.rational(n, xi)).rel_diff(
            rational_z_tilde(n, lam, eta)))
    checks.append(("rational Nystrom vs finite determinant N<=4", worst, 1e-8))
    pf = ModelParams(0.55j, 0.25j)
    ctxf = PrecisionContext.for_size(4)
    from .wmatrix import z_tilde_det
    worst = max(fredholm_det(KernelSpec.discrete(n, 0.8, 0.3)).rel_diff(
        z_tilde_det(n, pf, ctxf)) for n in range(1, 5))
    checks.append(("discrete Nystrom vs continued finite determinant N<=4",
                   worst, 1e-8))
    bg = BetaGamma.from_params(p)
    w = w_matrix(3, bg)
    tm = trace_moments(KernelSpec.disordered(3, p), n_max=3)
    worst = max(abs(tm[k - 1] - bg.zeta ** k
                    * np.trace(np.linalg.matrix_power(w, k)))
                for k in (1, 2, 3))
    checks.append(("trace moments vs zeta^n tr(W^n), N=3", worst, 1e-8))
    return checks


def _verify_appendix() -> list:
    checks = []
    tau, omega, phi = 1.1, 0.7, 0.9
    worst = 0.0
    for lam in (0.5, 1.0):
        for n in range(9):
            for m in range(9):
                worst = max(worst, abs(inm_closed(n, m, lam, tau, omega, phi)
                                       - inm_quadrature(n, m, lam, tau, omega, phi)))
    checks.append(("overlap integrals closed vs quadrature n,m<=8", worst, 1e-10))
    worst = 0.0
    for n in range(11):
        coeffs = connection_coeffs(n, 0.5, tau, phi)
        x = 0.37
        direct = mp_eval(n, 0.5, x, tau)
        expanded = sum(c * mp_eval(k, 0.5, x, phi) for k, c in enumerate(coeffs))
        worst = max(worst, abs(direct - expanded))
    checks.append(("basis connection formula n<=10", worst, 1e-12))
    worst = max(key_conjugation_check(0.45, 0.5, m) for m in range(3, 13))
    checks.append(("triangular conjugation identity M<=12", worst, 1e-12))
    from .orthopoly import masked_commutator_residuals
    resid = masked_commutator_residuals(su11_matrices(8, 0.5))
    checks.append(("su(1,1) masked commutators, M=8",
                   max(resid.values()), 1e-12))
    return checks


def run_verify(args) -> int:
    suites = {"identities": _verify_identities, "kernels": _verify_kernels,
              "appendix": _verify_appendix}
    names = list(suites) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        for label, dev, thr in suites[name]():
            rows.append({"suite": name, "check": label, "deviation": dev,
                         "threshold": thr, "pass": dev <= thr})
    all_pass = all(r["pass"] for r in rows)
    if args.format == "json":
        text = json.dumps({"schema": SCHEMA, "checks": rows,
                           "pass": all_pass}, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["suite", "check", "deviation", "threshold", "pass"])
        for r in rows:
            writer.writerow([r["suite"], r["check"], repr(r["deviation"]),
                             repr(r["threshold"]), r["pass"]])
        text = buf.getvalue()
    else:
        text = "\n".join(
            f"[{'PASS' if r['pass'] else 'FAIL'}] {r['suite']:>10s} | "
            f"{r['check']:<50s} dev={r['deviation']:.3e} thr={r['threshold']:.1e}"
            for r in rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 1


def run_enumerate_dump(args) -> int:
    if args.format == "json":
        text = json.dumps({"schema": SCHEMA, "n": args.n,
                           "configurations": dump_configs(args.n, fmt="json")},
                          indent=2) + "\n"
    else:
        text = dump_configs(args.n, fmt="text")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_common(sub, rep_choices):
    sub.add_argument("--rep", default="all", choices=rep_choices)
    sub.add_argument("--lambda", dest="lam", type=parse_complex,
                     default=complex(0.9), help="spectral parameter, 're[,im]'")
    sub.add_argument("--eta", type=parse_complex, default=complex(0.3),
                     help="crossing parameter, 're[,im]'")
    sub.add_argument("--weights", type=parse_weights, default=None,
                     help="explicit w1,...,w6 (enumerate and dp only)")
    sub.add_argument("--bits", type=int, default=None,
                     help="mantissa bits (default: size-adaptive)")
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--format", default="text", choices=("json", "csv", "text"))
    sub.add_argument("--out", default=None)
    sub.add_argument("--cache", default=None,
                     help="cache directory (ICEWALL_CACHE_DIR overrides)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icewall",
        description="Domain-wall six-vertex partition functions by "
                    "enumeration, determinants, and Fredholm operators.")
    subs = ap.add_subparsers(dest="command", required=True)

    c = subs.add_parser("compute", help="compute Z_N by one or all representations")
    c.add_argument("--n", type=int, required=True)
    _add_common(c, tuple(ROUTES_BY_NAME) + ("all",))
    c.set_defaults(fn=run_compute)

    s = subs.add_parser("sweep", help="sweep N over a range")
    s.add_argument("--n", type=int, default=1, help="first N")
    s.add_argument("--n-max", type=int, required=True)
    _add_common(s, tuple(ROUTES_BY_NAME))
    s.set_defaults(fn=run_sweep, rep="wdet")

    v = subs.add_parser("verify", help="run the invariant suites")
    v.add_argument("suite", nargs="?", default="all",
                   choices=("identities", "kernels", "appendix", "all"))
    v.add_argument("--format", default="text", choices=("json", "csv", "text"))
    v.add_argument("--out", default=None)
    v.set_defaults(fn=run_verify)

    d = subs.add_parser("enumerate-dump", help="dump all configurations (N<=4)")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--format", default="text", choices=("json", "text"))
    d.add_argument("--out", default=None)
    d.set_defaults(fn=run_enumerate_dump)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SingularParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
