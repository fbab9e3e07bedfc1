#!/usr/bin/env python3
"""Sweep N and report the finite-size free-energy density
f_N = -log|Z_N| / N^2 from the high-precision determinant route.

At the symmetric ice point (lambda = pi/2, eta = pi/6) all weights equal
sin(2 pi/3), so Z_N = (sqrt(3)/2)^{N^2} A_N with A_N the alternating-sign
matrix count, and f_N approaches -log[(sqrt(3)/2) * (3 sqrt(3)/4)] as N
grows.  Any other disordered sample can be swept with --lambda / --eta.
A value whose error estimate exceeds the CLI's default tolerance is refused
as `icewall compute` refuses it: one `error:` line, exit status 2.
"""

import argparse
import math
import sys

from icewall.cli import ROUTES_BY_NAME, TOL, join_signed_values, parse_complex, parse_size
from icewall.determinants import default_bits
from icewall.params import ModelParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=parse_size, default=16)
    ap.add_argument("--lambda", dest="lam", type=parse_complex,
                    default=complex(math.pi / 2))
    ap.add_argument("--eta", type=parse_complex, default=complex(math.pi / 6))
    args = ap.parse_args(join_signed_values(sys.argv[1:]))

    p = ModelParams(args.lam, args.eta)
    print(f"lambda={args.lam}  eta={args.eta}")
    print(f"{'N':>3s} {'log|Z_N|':>22s} {'f_N':>20s}")
    for n in range(1, args.n_max + 1):
        try:
            z = ROUTES_BY_NAME["wdet"].answer(n, p, None, default_bits(n), TOL)[0]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{n:>3d} {z.log_magnitude:>22.12e} "
              f"{-z.log_magnitude / n ** 2:>20.12f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
