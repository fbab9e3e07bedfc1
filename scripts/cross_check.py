#!/usr/bin/env python3
"""Cross-validate every representation of the partition function over a
grid of disordered-phase parameter samples.

For each (lambda, eta) sample and each N, computes Z_N by every route that
`icewall compute --rep all` runs there (exact enumeration for N <= 6, the
transfer DP, the moment (Hankel-type) determinant, the finite W determinant,
its Gauss-factorized variant, and the rank-N Fredholm determinant), then
prints the worst pairwise relative deviation.  A value whose error
estimate exceeds --tol is refused as `icewall compute` refuses it: one
`error:` line, exit status 2.
"""

import argparse
import sys
import time

from icewall.checks import DISORDERED_SAMPLES
from icewall.cli import applicable, parse_size, parse_tol
from icewall.determinants import default_bits
from icewall.logscale import worst_rel_diff
from icewall.params import ModelParams, symmetric_weights


def routes(n: int, p: ModelParams, tol: float) -> dict:
    weights, bits = symmetric_weights(p), default_bits(n)
    return {r.name: r.answer(n, p, weights, bits, tol)[0] for r in applicable(n, p, None)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=parse_size, default=6)
    ap.add_argument("--tol", type=parse_tol, default=1e-8)
    args = ap.parse_args()

    t0 = time.perf_counter()
    worst_overall = 0.0
    for lam, eta in DISORDERED_SAMPLES:
        p = ModelParams(lam, eta)
        for n in range(1, args.n_max + 1):
            try:
                vals = routes(n, p, args.tol)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            worst = worst_rel_diff(vals.values())
            worst_overall = max(worst_overall, worst)
            flag = "ok" if worst <= args.tol else "FAIL"
            print(f"lam={lam:<4} eta={eta:<4} N={n}  "
                  f"log|Z|={vals['wdet'].log_magnitude:+.10e}  "
                  f"max dev={worst:.2e}  {flag}")
    print(f"\nworst deviation overall: {worst_overall:.3e} "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0 if worst_overall <= args.tol else 1


if __name__ == "__main__":
    sys.exit(main())
