"""icewall benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload det-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root; the package is imported from src/.  With
--trace 0 the run prints the end-to-end metrics (setup_s, wall_s,
peak_rss_mb); with --trace 1 it prints the per-layer metrics of a traced
pass.  Either way the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the Nystrom slogdet is then deterministic, and the machine's
# two cores do not contend with each other.  Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"       # per-run scratch: CLI outputs and cache directories
OUT = HERE / "_out"         # span files of traced runs

SETUP_STARTS_EACH = 2       # timed fresh starts before the first pass and after
                            # each pass, so they sample the whole run
SETUP_STARTS_MIN = 11       # topped up to this many at the end of the run
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath", "icewall")
CHILD_TIMEOUT_S = 120


def declared_units(kind: str) -> dict:
    """name -> unit of the `end_to_end` or `per_layer` metrics BENCHMARK.json
    declares; the run prints exactly these."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def import_child(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", "import icewall.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def fresh_start_s() -> float:
    """Wall time of one fresh interpreter importing icewall.cli."""
    t0 = time.perf_counter()
    import_child()
    return time.perf_counter() - t0


def import_times() -> dict:
    """Per top-level package, the summed self time (ms) of its modules under
    `python -X importtime`, median of three fresh starts."""
    runs = []
    for _ in range(3):
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in import_child("-X", "importtime").stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*([\w.]+)", line)
            if m and m.group(2).split(".")[0] in totals:
                totals[m.group(2).split(".")[0]] += int(m.group(1)) / 1000.0
        runs.append(totals)
    return {f"setup.import_ms.{p}": statistics.median(r[p] for r in runs)
            for p in IMPORT_PACKAGES}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from icewall import cli
    import layers
    import workloads
    from harness import run_pass, traced_pass
    from spans import write_traces

    metrics: dict = {}
    setup: list = []
    import_child()   # untimed: it may compile bytecode, which a user pays once
    if trace:
        metrics.update(import_times())
    ops_for = functools.partial(workloads.build, workload, seed)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    if not trace:
        setup += [fresh_start_s() for _ in range(SETUP_STARTS_EACH)]
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run_pass(ops_for, workdir / f"pass{len(plain)}", cli.main))
        if trace:
            result, tracer = traced_pass(ops_for, workdir / f"traced{len(traced)}")
            traced.append(result)
            tracers.append(tracer)
        else:
            setup += [fresh_start_s() for _ in range(SETUP_STARTS_EACH)]
    if not trace:
        setup += [fresh_start_s() for _ in range(SETUP_STARTS_MIN - len(setup))]
    passes = plain + traced
    for kind, group in (("pass", plain), ("traced pass", traced)):
        for i, p in enumerate(group):
            print(f"{kind} {i}: wall {p.wall_s:.4f} s, cpu {p.cpu_s:.4f} s, "
                  f"{p.attempted} operations, {p.failed} failed")
    if not trace:
        print(f"fresh starts: {len(setup)}, " + ", ".join(f"{s:.4f}" for s in setup) + " s")
        metrics["setup_s"] = statistics.median(setup)
        metrics["wall_s"] = statistics.median(p.wall_s for p in plain)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = declared_units("end_to_end")
    else:
        per_pass = [layers.metrics(t) for t in tracers]
        for name in per_pass[0]:
            metrics[name] = statistics.median(m[name] for m in per_pass)
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                       - statistics.median(p.wall_s for p in plain))
        OUT.mkdir(exist_ok=True)
        write_traces(str(OUT / f"trace-{workload}-seed{seed}.json.gz"),
                     {"workload": workload, "seed": seed}, tracers)
        units = declared_units("per_layer")
    errors = [e for p in passes for e in p.errors]
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    return {"correct": not errors,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run the oracles and one small operation per workload")
    args = ap.parse_args(argv)
    if not (SRC / "icewall" / "cli.py").is_file():
        print(f"icewall sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        import selfcheck
        return selfcheck.main()
    if args.workload is None:
        ap.error("--workload is required")
    print(f"workload {args.workload}, seed {args.seed}, BLAS threads {BLAS_THREADS}, "
          f"nproc {os.cpu_count()}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
