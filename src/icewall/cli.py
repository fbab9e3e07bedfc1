"""Command-line front end: compute the partition function by any
representation, sweep parameters, run the acceptance checks, and dump
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

from . import __version__
from .enumeration import DP_LIMIT, ENUM_LIMIT, dump_configs, \
    enumerate_configs, partition_dp
from .errors import SingularParameterError
from .fredholm import FREDHOLM_LIMIT, KernelSpec, fredholm_det, \
    full_partition_fredholm
from .hankel import partition_hankel
from .logscale import LogScaledValue, PrecisionContext
from .params import ModelParams, VertexWeights, qgroup_prefactor, \
    symmetric_weights
from .wmatrix import GAUSS_LIMIT, full_partition, full_partition_gauss

SCHEMA = 1

CSV_COLUMNS = ("representation", "n", "lambda_re", "lambda_im",
               "eta_re", "eta_im", "log_abs_z", "phase", "f_n",
               "elapsed_ms", "warnings")


# --------------------------------------------------------------------------
# job configuration and records


def _finite_floats(text: str) -> list:
    values = [float(p) for p in text.split(",")]
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def parse_complex(text: str) -> complex:
    """Complex scalar from 're' or 're,im'."""
    parts = _finite_floats(text)
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")
    return complex(*parts)


def parse_size(text: str) -> int:
    """A lattice size N >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected N >= 1, got {text!r}")
    return n


def parse_weights(text: str) -> tuple:
    parts = _finite_floats(text)
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("--weights takes exactly six values")
    return tuple(parts)


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


def non_finite(log_magnitude: float, angle: float) -> bool:
    # log|Z| = -inf is Z = 0, which all-zero weights give
    return math.isnan(log_magnitude) or log_magnitude == math.inf or not math.isfinite(angle)


def cache_load(path: Optional[str], cfg: JobConfig) -> Optional[ResultRecord]:
    if not path:
        return None
    fn = os.path.join(path, cfg.cache_key() + ".json")
    if not os.path.exists(fn):
        return None
    with open(fn, "r", encoding="utf-8") as fh:
        rec = ResultRecord.from_dict(json.load(fh))
    return None if non_finite(rec.log_magnitude, rec.phase) else rec   # a miss: recompute


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
    ctx = (PrecisionContext(args.bits) if args.bits is not None
           else PrecisionContext.for_size(n))
    vw = (VertexWeights(*args.weights) if args.weights
          else VertexWeights.symmetric(*symmetric_weights(p)))
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, extra = route.fn(n, p, vw, ctx)
    elapsed = 1000.0 * (time.perf_counter() - t0)
    if non_finite(value.log_magnitude, value.angle):
        raise ValueError(f"{route.name} gave a non-finite value at N={n}: "
                         f"log|Z| = {value.log_magnitude}, phase = {value.angle}")
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
    write_output(text, out_path)


def write_output(text: str, out_path: Optional[str]):
    """Write `text` to the --out file, or to stdout."""
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
    if not ns:
        raise ValueError(f"empty sweep: --n-max {args.n_max} is below --n {args.n}")
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


def run_verify(args) -> int:
    from . import checks   # imported here, not at the top: it imports this module
    numbers = [str(k) for k in range(1, len(checks.CRITERIA) + 1)]
    if args.criterion not in ["all"] + numbers:
        raise ValueError(f"verify takes all or a criterion number "
                         f"{numbers[0]}..{numbers[-1]}, got {args.criterion!r}")
    rows = checks.run(None if args.criterion == "all" else int(args.criterion))
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
            f"[{'PASS' if r['pass'] else 'FAIL'}] {r['suite']:<32s} | "
            f"{r['check']:<52s} dev={r['deviation']:.3e} thr={r['threshold']:.1e}"
            for r in rows) + "\n"
    write_output(text, args.out)
    return 0 if all_pass else 1


def run_enumerate_dump(args) -> int:
    if args.format == "json":
        text = json.dumps({"schema": SCHEMA, "n": args.n,
                           "configurations": dump_configs(args.n, fmt="json")},
                          indent=2) + "\n"
    else:
        text = dump_configs(args.n, fmt="text") + "\n"
    write_output(text, args.out)
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
    c.add_argument("--n", type=parse_size, required=True)
    _add_common(c, tuple(ROUTES_BY_NAME) + ("all",))
    c.set_defaults(fn=run_compute)

    s = subs.add_parser("sweep", help="sweep N over a range")
    s.add_argument("--n", type=parse_size, default=1, help="first N")
    s.add_argument("--n-max", type=parse_size, required=True)
    _add_common(s, tuple(ROUTES_BY_NAME))
    s.set_defaults(fn=run_sweep, rep="wdet")

    v = subs.add_parser("verify", help="run the acceptance checks")
    v.add_argument("criterion", nargs="?", default="all",
                   help="'all' (default) or the number of one criterion")
    v.add_argument("--format", default="text", choices=("json", "csv", "text"))
    v.add_argument("--out", default=None)
    v.set_defaults(fn=run_verify)

    d = subs.add_parser("enumerate-dump", help="dump all configurations (N<=4)")
    d.add_argument("--n", type=parse_size, required=True)
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
