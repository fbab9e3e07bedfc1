"""Overflow-safe scalar values.

Partition functions carry factors like prod (k!)^2 and (sin phi)^(N^2),
which overflow doubles long before N gets interesting.  Everything that
can be huge is passed around as a (log-magnitude, phase-angle) pair.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

from .lazy import mpmath


class LogScaledValue(NamedTuple):
    """exp(log_magnitude) * exp(i * angle), with `error`, the relative error
    estimate of its route: NaN, which the CLI refuses, unless one was set."""

    log_magnitude: float
    angle: float
    error: float = math.nan

    @classmethod
    def from_complex(cls, z: complex) -> "LogScaledValue":
        z = complex(z)
        if z == 0:
            return cls(float("-inf"), 0.0)
        # atan2: cmath.phase raises OverflowError where the angle underflows to 0
        return cls(math.log(abs(z)), math.atan2(z.imag, z.real))

    @classmethod
    def from_mp_log(cls, w) -> "LogScaledValue":
        """exp(w) for an mpmath log-value w; the angle is reduced to [-pi, pi]
        at w's precision before it is rounded to a double."""
        angle = mpmath.im(w)
        angle -= 2 * mpmath.pi * mpmath.nint(angle / (2 * mpmath.pi))
        return cls(float(mpmath.re(w)), float(angle))

    @property
    def value(self) -> complex:
        """Plain complex value; overflows for log_magnitude > ~709."""
        return cmath.exp(complex(self.log_magnitude, self.angle))

    def scale_log(self, log_factor: complex) -> "LogScaledValue":
        """Multiply by exp(log_factor) without leaving log space; an mpmath
        log_factor is rounded to doubles first.  The error is kept."""
        log_factor = complex(log_factor)
        return LogScaledValue(self.log_magnitude + log_factor.real,
                              _wrap_angle(self.angle + log_factor.imag), self.error)

    def rel_diff(self, other: "LogScaledValue") -> float:
        """|a - b| / max(|a|, |b|), computed safely in log space."""
        m = max(self.log_magnitude, other.log_magnitude)
        if m == float("-inf"):
            return 0.0
        a = cmath.exp(complex(self.log_magnitude - m, self.angle))
        b = cmath.exp(complex(other.log_magnitude - m, other.angle))
        return abs(a - b) / max(abs(a), abs(b))


def worst_rel_diff(values) -> float:
    """The largest rel_diff over all pairs of values; 0 for fewer than two."""
    return max((a.rel_diff(b) for a, b in itertools.combinations(values, 2)), default=0.0)


def mp_scalar(z: complex):
    """mpf for real z, else mpc: real parameters keep real arithmetic."""
    return mpmath.mpf(z.real) if z.imag == 0 else mpmath.mpc(z)


def _wrap_angle(theta: float) -> float:
    return math.remainder(theta, 2.0 * math.pi)

