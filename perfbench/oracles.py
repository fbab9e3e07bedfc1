"""Reference values computed apart from icewall.

Nothing here imports the package under test: the exact alternating-sign-
matrix count, the ice-point closed form, the DWBC gauge identity and a
log-space relative deviation are all written out from their definitions.
"""

from __future__ import annotations

import cmath
import math

ICE_LAMBDA = math.pi / 2
ICE_ETA = math.pi / 6
ASM_HEAD = (1, 2, 7, 42, 429, 7436)


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def asm_count(n: int) -> int:
    """A_N = prod_{k<N} (3k+1)! / (N+k)!, exact in Python integers."""
    num = math.prod(math.factorial(3 * k + 1) for k in range(n))
    den = math.prod(math.factorial(n + k) for k in range(n))
    if num % den:
        raise ArithmeticError(f"A_{n} is not an integer")
    return num // den


def check_asm_oracle() -> None:
    got = tuple(asm_count(n) for n in range(1, len(ASM_HEAD) + 1))
    if got != ASM_HEAD:
        raise CheckError(f"A_N oracle gives {got}, expected {ASM_HEAD}")


def log_asm(n: int) -> float:
    return math.log(asm_count(n))


def ice_log_z(n: int) -> float:
    """log Z_N at (lambda, eta) = (pi/2, pi/6), where a = b = c = sqrt(3)/2:
    every configuration weighs (sqrt(3)/2)^{N^2}, so Z_N = (sqrt(3)/2)^{N^2} A_N."""
    return n * n * math.log(math.sqrt(3) / 2) + log_asm(n)


def gauge_weights(s: float, t: float, u: float, v: float) -> tuple:
    """(s t, s/t, s u, s/u, s v, s/v): six unequal weights for a = b = c = s."""
    return (s * t, s / t, s * u, s / u, s * v, s / v)


def gauge_log_z(n: int, s: float, v: float) -> float:
    """log Z_N for gauge_weights(s, t, u, v).

    Under DWBC every configuration has n1 = n2, n3 = n4 and n6 - n5 = N, so
    the t and u factors cancel and the c pair contributes v^{-N}:
    Z = v^{-N} s^{N^2} A_N."""
    return n * n * math.log(s) - n * math.log(v) + log_asm(n)


def symmetric_abc(lam: float, eta: float) -> tuple:
    """(a, b, c) = (sin(lam + eta), sin(lam - eta), sin(2 eta))."""
    return (math.sin(lam + eta), math.sin(lam - eta), math.sin(2 * eta))


def rel_dev(log_a: float, phase_a: float, log_b: float, phase_b: float) -> float:
    """|A - B| / max(|A|, |B|) for A = exp(log_a + i phase_a), likewise B."""
    top = max(log_a, log_b)
    if not math.isfinite(top):
        return math.inf
    a = cmath.exp(complex(log_a - top, phase_a))
    b = cmath.exp(complex(log_b - top, phase_b))
    return abs(a - b) / max(abs(a), abs(b))


def expect_close(label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{label}: got {got!r}, expected {want!r} (tol {tol:g})")


def expect_phase(label: str, phase: float, want: float, tol: float) -> None:
    """Angles compared modulo 2 pi."""
    if not abs(math.remainder(phase - want, 2 * math.pi)) <= tol:
        raise CheckError(f"{label}: phase {phase!r}, expected {want!r} mod 2pi")
