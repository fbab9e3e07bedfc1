"""Command-line front end: compute the partition function by any
representation, sweep parameters, run the acceptance checks, and dump
small-lattice configurations.  JSON output is RFC 8259 (null for NaN and
infinity) with ``schema: 2``; CSV is RFC-4180.  Results can be cached on disk,
one directory per package version, each entry named by a checksum of the
canonical job; a hit is checked field by field against the job and
re-emits the stored record byte-for-byte.  `vouch`, the one error rule,
decides whether a value is answered; `compute_one` makes a refusal a record.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
import warnings
import zlib
from typing import Callable, NamedTuple, Optional

from . import __version__
from .determinants import default_bits
from .enumeration import DP_LIMIT, ENUM_LIMIT, dump_configs, \
    enumerate_configs, partition_dp
# fredholm_det is unused here: perfbench/layers.py wraps it by name
from .fredholm import (FREDHOLM_LIMIT, fredholm_det,  # noqa: F401
                       full_partition_fredholm, refusal)
from .hankel import partition_hankel
from .logscale import LogScaledValue, worst_rel_diff
from .params import ModelParams, symmetric_weights
from .wmatrix import GAUSS_LIMIT, full_partition, full_partition_gauss

SCHEMA = 2          # compute, sweep and verify documents; records gained status and reason
DUMP_SCHEMA = 1     # enumerate-dump documents, unchanged
DOUBLE_BITS = 53    # the precision_bits of every route but hankel and wdet
TOL = 1e-8          # the default --tol; sweep, verify and the scripts hold values to it

CSV_COLUMNS = ("representation", "n", "lambda_re", "lambda_im",
               "eta_re", "eta_im", "log_abs_z", "phase", "f_n",
               "elapsed_ms", "warnings", "status", "reason")


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


def parse_bits(text: str) -> int:
    """Mantissa bits, at least 64."""
    bits = int(text)
    if bits < 64:
        raise argparse.ArgumentTypeError(f"expected at least 64 bits, got {text!r}")
    return bits


def parse_tol(text: str) -> float:
    """A finite tolerance >= 0."""
    tol = float(text)
    if not 0 <= tol < math.inf:   # NaN fails too
        raise argparse.ArgumentTypeError(f"expected a finite tolerance >= 0, got {text!r}")
    return tol


def parse_weights(text: str) -> tuple:
    parts = _finite_floats(text)
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("--weights takes exactly six values")
    return tuple(parts)


def job_fields(route: str, n: int, args) -> dict:
    """The fields of a record that name its job; a cache hit must have them.
    precision_bits is --bits or default_bits(N) for a route that reads them."""
    bits = (args.bits or default_bits(n)) if ROUTES_BY_NAME[route].takes_bits else DOUBLE_BITS
    return {"representation": route, "n": n, "lambda": [args.lam.real, args.lam.imag],
            "eta": [args.eta.real, args.eta.imag],
            "weights": list(args.weights) if args.weights else None, "precision_bits": bits}


def cache_key(route: str, n: int, args) -> str:
    """The entry name of a job: route, N and a CRC-32 of the canonical job, the
    inputs a record depends on (`job_fields`).  --tol is not one: a hit is held
    to the current one.  Two jobs may share a name, so a hit is checked against
    every job field: a collision is a miss."""
    canonical = json.dumps({"command": "compute", **job_fields(route, n, args)},
                           sort_keys=True, separators=(",", ":"))
    return f"{route}-{n}-{zlib.crc32(canonical.encode('utf-8')):08x}"


def record(route: str, n: int, lam: complex, eta: complex, log_abs_z: float,
           phase: float, elapsed_ms: float, precision_bits: int, messages: list,
           extra: Optional[dict] = None, error_estimate: float = math.nan,
           reason: Optional[str] = None, weights: Optional[tuple] = None) -> dict:
    """One result, as the JSON dict that is emitted and cached; a `reason`
    refuses it.  A non-finite number is null: Z = 0 has a null log_abs_z and
    f_n, a refused record a NaN value.  `weights` are --weights, null without
    them.  `extra` holds a route's own fields."""
    rec = {"schema": SCHEMA, "status": "refused" if reason else "ok", "representation": route,
           "n": n, "lambda": [lam.real, lam.imag], "eta": [eta.real, eta.imag],
           "weights": list(weights) if weights else None,
           "log_abs_z": log_abs_z, "phase": phase, "error_estimate": error_estimate,
           "f_n": -log_abs_z / (n * n), "elapsed_ms": elapsed_ms, "precision_bits": precision_bits,
           "warnings": messages, **({"reason": reason} if reason else {}), **(extra or {})}
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in rec.items()}


def value_of(rec: dict) -> LogScaledValue:
    """An answered record's value; a null log_abs_z is Z = 0."""
    return LogScaledValue(-math.inf if rec["log_abs_z"] is None else rec["log_abs_z"], rec["phase"])


# the types each field of an answered record may have; a cache entry must have them all
FIELD_TYPES = {k: (type(v),) for k, v in record("", 1, 0j, 0j, 0.0, 0.0, 0.0, 0, [],
                                                 error_estimate=0.0).items()}
FIELD_TYPES["log_abs_z"] = FIELD_TYPES["f_n"] = (float, type(None))
FIELD_TYPES["weights"] = (list, type(None))


# --------------------------------------------------------------------------
# cache


def cache_dir(flag_value: Optional[str]) -> Optional[str]:
    """This version's directory of the cache, <dir>/<version>, made if it is
    not there: a release never reads another release's entries."""
    root = os.environ.get("ICEWALL_CACHE_DIR") or flag_value
    if not root:
        return None
    path = os.path.join(root, __version__)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:   # say, a regular file at the path or above it
        raise ValueError(f"cannot make the cache directory {path}: "
                         f"{exc.strerror or exc}") from exc
    return path


def cache_load(path: Optional[str], key: str) -> Optional[dict]:
    """The stored record, or None on a miss: no entry, or one that is not a
    record (not RFC 8259 JSON, say truncated or holding a NaN, or not an
    object with every field of an answered record at a type it may have)."""
    if not path:
        return None
    try:
        with open(os.path.join(path, key + ".json"), "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        json.dumps(rec, allow_nan=False)   # raises on a NaN or an infinity
    except (OSError, ValueError):   # no entry, or not a readable file; invalid JSON or UTF-8
        return None
    if not (isinstance(rec, dict)
            and all(k in rec and type(rec[k]) in t for k, t in FIELD_TYPES.items())):
        return None
    return rec


def cache_store(path: Optional[str], key: str, rec: dict):
    """Write to a temporary file beside the entry, then rename it into place,
    so that an interrupted write never leaves a truncated entry.  A failed
    write or rename (say, a directory at the entry) leaves no temporary file
    and raises a ValueError naming the entry."""
    if not path:
        return
    import tempfile   # imported here, not at the top: only a cached run needs it
    entry = os.path.join(path, key + ".json")
    text = json.dumps(rec, sort_keys=True, allow_nan=False)
    fd, tmp = tempfile.mkstemp(dir=path, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, entry)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot store the cache entry {entry}: {exc.strerror or exc}") from exc
        raise


# --------------------------------------------------------------------------
# route registry


def vouch(route: str, n: int, value: LogScaledValue, tol: float):
    """Refuse a value unless its relative error estimate is at most tol (a NaN one,
    which no estimator set, is refused) and it is finite, log|Z| = -inf (Z = 0) aside."""
    if not value.error <= tol:
        raise ValueError(f"{route}: the error estimate {value.error:.2g} at N={n} "
                         f"exceeds the tolerance {tol:g}")
    if not (value.log_magnitude < math.inf and math.isfinite(value.angle)):
        raise ValueError(f"{route} gave a non-finite value at N={n}: log|Z| = "
                         f"{value.log_magnitude}, phase = {value.angle}")


class Route(NamedTuple):
    """One representation of Z_N.  `fn(n, params, weights, bits)` returns
    (value with its error estimate, extra record fields), for the six vertex
    weights and the mantissa bits of the extended-precision routes.  The route
    functions are looked up in this module's globals when called."""

    name: str
    fn: Callable[..., tuple]
    limit: float = math.inf     # the largest N it supports
    domain: Callable[[ModelParams], Optional[str]] = lambda p: None
    takes_weights: bool = False     # True for a route of arbitrary weights
    takes_bits: bool = False    # True for a route computed at the mantissa bits
    in_all: bool = True     # False for a route that computes another model

    def refusal(self, n: int, p: ModelParams, weights: Optional[tuple]) -> Optional[str]:
        """Why the route cannot run at these inputs, or None."""
        if weights and not self.takes_weights:
            return "takes lambda, eta, not --weights (only enumerate and dp do)"
        return self.domain(p) or (f"supports N <= {self.limit}" if n > self.limit else None)

    def answer(self, n: int, p: ModelParams, weights, bits: int, tol: float) -> tuple:
        """fn's result, unless `vouch` refuses its value at tol."""
        value, extra = self.fn(n, p, weights, bits)
        vouch(self.name, n, value, tol)
        return value, extra


def _enumerate(n, p, weights, bits):
    res = enumerate_configs(n, weights)
    return res.z_value, {"config_count": res.config_count}


ROUTES = (
    Route("enumerate", _enumerate, ENUM_LIMIT, takes_weights=True),
    Route("dp", lambda n, p, w, bits: (partition_dp(n, w), {}), DP_LIMIT,
          takes_weights=True),
    Route("hankel", lambda n, p, w, bits: (partition_hankel(n, p, bits), {}),
          takes_bits=True),
    Route("wdet", lambda n, p, w, bits: (full_partition(n, p, bits), {}), takes_bits=True),
    Route("gauss", lambda n, p, w, bits: (full_partition_gauss(n, p), {}), GAUSS_LIMIT),
    Route("fredholm-disordered", lambda n, p, w, bits: (full_partition_fredholm(n, p), {}),
          FREDHOLM_LIMIT, lambda p: refusal("disordered", p)),
    Route("fredholm-discrete",
          lambda n, p, w, bits: (full_partition_fredholm(n, p, "discrete"), {}),
          FREDHOLM_LIMIT, lambda p: refusal("discrete", p)),
    Route("fredholm-rational",
          lambda n, p, w, bits: (full_partition_fredholm(n, p, "rational"), {}),
          domain=lambda p: refusal("rational", p), in_all=False),
)
ROUTES_BY_NAME = {r.name: r for r in ROUTES}


def applicable(n: int, p: ModelParams, weights: Optional[tuple]) -> list:
    """The routes 'all' runs, in registry order."""
    return [r for r in ROUTES if r.in_all and r.refusal(n, p, weights) is None]


def compute_one(route: Route, n: int, p: ModelParams, args, cdir: Optional[str]) -> tuple:
    """(record, whether it came from the cache) for one route at one N.  A refusal
    (`Route.refusal`, or a ValueError from the route or `vouch`) is a record, never
    cached; any other error propagates.  A hit above --tol is recomputed, so refused."""
    key = cache_key(route.name, n, args) if cdir else None
    fields = job_fields(route.name, n, args)
    rec = cache_load(cdir, key)   # a record, but the key is only a checksum of the job
    if rec is not None and rec["error_estimate"] <= args.tol \
            and all(rec[k] == v for k, v in fields.items()):
        return rec, True
    bits = fields["precision_bits"]
    value = LogScaledValue(math.nan, math.nan)
    extra = {}
    caught = []
    t0 = time.perf_counter()
    reason = route.refusal(n, p, args.weights)
    if reason:
        reason = f"{route.name} {reason}"
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:   # Route.answer, keeping the estimate of a value vouch refuses
                value, extra = route.fn(n, p, args.weights or symmetric_weights(p), bits)
                vouch(route.name, n, value, args.tol)
            except ValueError as exc:   # the route's, or vouch's
                value = LogScaledValue(math.nan, math.nan, value.error)
                extra = {}
                reason = str(exc)
    elapsed = 1000.0 * (time.perf_counter() - t0)
    rec = record(route.name, n, args.lam, args.eta, value.log_magnitude, value.angle,
                 elapsed, bits,
                 [str(w.message) for w in caught], extra, value.error, reason, args.weights)
    if reason is None:
        cache_store(cdir, key, rec)
    return rec, False


# --------------------------------------------------------------------------
# output


def csv_text(header, rows) -> str:
    """RFC-4180 CSV (the csv module's defaults: CRLF, quoted as needed)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit(records: list, fmt: str, out_path: Optional[str],
         summary: Optional[dict] = None) -> int:
    """Write the records (and --rep all's summary); return the exit status, 1
    when the summary fails or, without one, a record is refused, else 0."""
    if fmt == "json":
        doc = {"schema": SCHEMA, "records": records, **({"summary": summary} if summary else {})}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif fmt == "csv":
        text = csv_text(CSV_COLUMNS, (
            [r["representation"], r["n"], *map(repr, r["lambda"] + r["eta"]),
             *("" if v is None else repr(v)
               for v in (r["log_abs_z"], r["phase"], r["f_n"], r["elapsed_ms"])),
             ";".join(r["warnings"]), r["status"], r.get("reason", "")] for r in records))
    else:
        lines = []
        for r in records:
            extra = {k: v for k, v in r.items() if k not in FIELD_TYPES and k != "reason"}
            z = value_of(r) if r["status"] == "ok" else None
            body = (f"log|Z|={z.log_magnitude:+.12e}  phase={z.angle:+.12e}" if z
                    else f"REFUSED: {r['reason']}")
            lines.append(f"{r['representation']:>20s}  N={r['n']}  {body}  "
                         f"({r['elapsed_ms']:.1f} ms)"
                         + (f"  {extra}" if extra else "")
                         + (f"  WARN: {'; '.join(r['warnings'])}" if r["warnings"] else ""))
        if summary is not None:
            lines.append(f"{sum(r['status'] == 'ok' for r in records)} of {len(records)} routes "
                         f"answered; max pairwise relative deviation: "
                         f"{summary['max_pairwise_rel_deviation']:.3e} "
                         f"(tol {summary['tol']:.1e}) -> "
                         + ("OK" if summary["pass"] else "FAIL"))
        text = "\n".join(lines) + "\n"
    write_output(text, out_path)
    return int(not summary["pass"] if summary else any(r["status"] != "ok" for r in records))


def write_output(text: str, out_path: Optional[str]):
    """Write `text` to the --out file, or to stdout."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands


def run_compute(args) -> int:
    p = ModelParams(args.lam, args.eta)
    if args.rep == "all":
        routes = applicable(args.n, p, args.weights)
        if not routes:
            raise ValueError(f"no route takes these inputs at N={args.n}")
    else:
        routes = [ROUTES_BY_NAME[args.rep]]
    cdir = cache_dir(args.cache)
    records = []
    for route in routes:
        rec, hit = compute_one(route, args.n, p, args, cdir)
        if hit:
            print(f"cache hit: {route.name}", file=sys.stderr)
        records.append(rec)
    summary = None
    if len(records) > 1:   # compared among the records that answered
        answered = [value_of(r) for r in records if r["status"] == "ok"]
        worst = worst_rel_diff(answered)
        summary = {"max_pairwise_rel_deviation": worst, "tol": args.tol,
                   "pass": len(answered) > 1 and worst <= args.tol}
    return emit(records, args.format, args.out, summary)


def run_sweep(args) -> int:
    """Points run in order, one at a time: mpmath's working precision is
    process-global.  A refused point is recorded, never cached, and makes
    the sweep exit 1."""
    ns = range(args.n, args.n_max + 1)
    if not ns:
        raise ValueError(f"empty sweep: --n-max {args.n_max} is below --n {args.n}")
    if len(ns) > 10_000:
        raise ValueError("sweep grid exceeds 10^4 points")
    p = ModelParams(args.lam, args.eta)
    route = ROUTES_BY_NAME[args.rep]
    cdir = cache_dir(args.cache)
    records, hits = [], 0
    for n in ns:
        rec, hit = compute_one(route, n, p, args, cdir)
        records.append(rec)
        hits += hit
    if cdir:
        print(f"cache: {hits} hits, {len(ns) - hits} computed", file=sys.stderr)
    refused = sum(r["status"] != "ok" for r in records)
    if refused:
        print(f"sweep: {refused} of {len(ns)} points refused", file=sys.stderr)
    return emit(records, args.format, args.out)


def run_verify(args) -> int:
    from . import checks   # imported here, not at the top: it imports this module
    numbers = [str(k) for k in range(1, len(checks.CRITERIA) + 1)]
    if args.criterion not in ["all"] + numbers:
        raise ValueError(f"verify takes all or a criterion number "
                         f"{numbers[0]}..{numbers[-1]}, got {args.criterion!r}")
    rows = checks.run(None if args.criterion == "all" else int(args.criterion))
    all_pass = all(r["pass"] for r in rows)
    if args.format == "json":
        text = json.dumps({"schema": SCHEMA, "checks": [
            dict(r, deviation=r["deviation"] if math.isfinite(r["deviation"]) else None)
            for r in rows], "pass": all_pass}, indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        text = csv_text(("suite", "check", "deviation", "threshold", "pass"), (
            [r["suite"], r["check"], repr(r["deviation"]), repr(r["threshold"]), r["pass"]]
            for r in rows))
    else:
        text = "\n".join(
            f"[{'PASS' if r['pass'] else 'FAIL'}] {r['suite']:<32s} | "
            f"{r['check']:<52s} dev={r['deviation']:.3e} thr={r['threshold']:.1e}"
            for r in rows) + "\n"
    write_output(text, args.out)
    return 0 if all_pass else 1


def run_enumerate_dump(args) -> int:
    if args.format == "json":
        text = json.dumps({"schema": DUMP_SCHEMA, "n": args.n,
                           "configurations": dump_configs(args.n, fmt="json")},
                          indent=2, allow_nan=False) + "\n"
    else:
        text = dump_configs(args.n, fmt="text") + "\n"
    write_output(text, args.out)
    return 0


# --------------------------------------------------------------------------
# argument parsing


# options whose values may be negative comma-separated numbers, which argparse
# takes for options unless joined to their option with '='
SIGNED_VALUE_OPTIONS = ("--lambda", "--eta", "--weights")


def join_signed_values(argv: list) -> list:
    """argv with `--lambda -0.9,0.1` (and likewise --eta, --weights) joined
    into `--lambda=-0.9,0.1`, so that argparse reads it as a value."""
    out = []
    for tok in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _add_common(sub, rep_choices, rep_default):
    sub.add_argument("--rep", default=rep_default, choices=rep_choices,
                     help="representation (default: %(default)s)")
    sub.add_argument("--lambda", dest="lam", type=parse_complex,
                     default=complex(0.9), help="spectral parameter, 're[,im]'")
    sub.add_argument("--eta", type=parse_complex, default=complex(0.3),
                     help="crossing parameter, 're[,im]'")
    sub.add_argument("--weights", type=parse_weights, default=None,
                     help="explicit w1,...,w6 (enumerate and dp only)")
    sub.add_argument("--bits", type=parse_bits, default=None,
                     help="mantissa bits of hankel and wdet (default: size-adaptive)")
    sub.add_argument("--format", default="text", choices=("json", "csv", "text"))
    sub.add_argument("--out", default=None)
    sub.add_argument("--cache", default=None,
                     help="cache directory (ICEWALL_CACHE_DIR overrides)")


@functools.lru_cache(maxsize=None)   # built once: a parser is a web of reference cycles
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icewall",
        description="Domain-wall six-vertex partition functions by "
                    "enumeration, determinants, and Fredholm operators.")
    subs = ap.add_subparsers(dest="command", required=True)

    c = subs.add_parser("compute", help="compute Z_N by one or all representations")
    c.add_argument("--n", type=parse_size, required=True)
    _add_common(c, tuple(ROUTES_BY_NAME) + ("all",), "all")
    c.add_argument("--tol", type=parse_tol, default=TOL,
                   help="largest error estimate of a record; cross-check tolerance of --rep all")
    c.set_defaults(fn=run_compute)

    s = subs.add_parser("sweep", help="sweep N over a range")
    s.add_argument("--n", type=parse_size, default=1, help="first N")
    s.add_argument("--n-max", type=parse_size, required=True)
    _add_common(s, tuple(ROUTES_BY_NAME), "wdet")
    s.set_defaults(fn=run_sweep, tol=TOL)

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
    args = build_parser().parse_args(
        join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
