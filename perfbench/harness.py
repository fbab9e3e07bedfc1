"""One pass over an operation list, untraced or traced, through the CLI's
own entry point `icewall.cli.main`, called in-process on one thread."""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from pathlib import Path
from typing import Callable

from oracles import CheckError


class Pass:
    """Outcome of one pass: its wall and CPU time, summed over the CLI
    calls alone, and what failed."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []   # wrong outputs, and failures other than a kept one


def run_pass(ops_for: Callable[[str], list], workdir: Path, main) -> Pass:
    """Run ops_for(workdir) in order; workdir must not exist yet."""
    workdir.mkdir(parents=True)
    result = Pass()
    for i, op in enumerate(ops_for(str(workdir))):
        out = workdir / f"op{i:02d}.json"
        err = io.StringIO()
        result.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(err):
                status = main(op.argv + ["--format", "json", "--out", str(out)])
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code
        except Exception:  # the operation fails; the pass goes on
            status = traceback.format_exc()
        result.wall_s += time.perf_counter() - t0
        result.cpu_s += time.process_time() - c0
        check = op.check
        if status != 0:
            result.failed += 1
            if op.fault_check is None:
                result.errors.append(f"{op.label}: unexpected exit {status}\n"
                                     f"{err.getvalue()}")
                continue
            check = op.fault_check
        try:
            check(json.loads(out.read_text(encoding="utf-8")), err.getvalue())
        except (CheckError, KeyError, OSError, ValueError) as exc:
            result.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return result


def traced_pass(ops_for: Callable[[str], list], workdir: Path) -> tuple:
    """run_pass with every layer wrapped; returns (Pass, Tracer)."""
    from icewall import cli
    import layers
    from spans import Tracer

    tracer = Tracer()
    with layers.installed(tracer):
        result = run_pass(ops_for, workdir, tracer.wrap(cli.main, "cli.main"))
    return result, tracer
