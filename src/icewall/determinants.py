"""Pivoted LU determinants in mpmath extended precision over exact integer
dot products; det(I - M) in doubles.

A vector of mpmath scalars is held in block floating point (`BlockFloat`):
Python-int mantissas at one shared exponent, so that a dot product is an
exact integer sum, `sum(map(mul, ...))` in C, rounded once to the working
precision, to nearest with ties to even as mpmath rounds.  These are
`mpmath.fdot`'s semantics without fdot's Python calls per term.  A complex vector keeps its
real and imaginary mantissas side by side and takes three real sums per
dot product (Gauss's trick); a real one takes one.
"""

from __future__ import annotations

import math
import warnings
from operator import add, mul, sub

import mpmath
from mpmath.libmp import fzero, from_man_exp

from .lazynp import np
from .logscale import LogScaledValue


DOUBLE_TOL = 1e-9  # the largest error estimate a double-precision det(I - M) may carry


class PrecisionWarning(UserWarning):
    """The determinant condition estimate ate more than half the mantissa."""


def default_bits(n: int) -> int:
    """Mantissa bits of the extended-precision routes at size N."""
    # Cancellation in det H grows with prod (k!)^2; empirical headroom x2.
    return max(128, 64 + 16 * n)


def _raw(x) -> tuple:
    """(re, im) raw mpf tuples of a scalar; im is None when it is real."""
    x = mpmath.mpmathify(x)
    return (x._mpf_, None) if hasattr(x, "_mpf_") else x._mpc_


def _align(raws: list) -> tuple:
    """Signed integer mantissas of raw mpf tuples at their smallest exponent."""
    if any(not man and exp for _, man, exp, _ in raws):
        raise ValueError("block floating point needs finite values")
    exp = min((e for _, man, e, _ in raws if man), default=0)
    return [(-man if sign else man) << (e - exp) if man else 0
            for sign, man, e, _ in raws], exp


def _nearest(man: int, exp: int) -> tuple:
    """man 2^exp rounded to the working precision, to nearest with ties to
    even as mpmath's round_nearest, as (mantissa, exponent)."""
    mag = -man if man < 0 else man
    drop = mag.bit_length() - mpmath.mp.prec
    if drop <= 0:
        return man, exp
    head = mag >> (drop - 1)   # the kept bits, then the first dropped one
    if head & 1 and (head & 2 or mag & ((1 << (drop - 1)) - 1)):
        mag = (head >> 1) + 1
    else:
        mag = head >> 1
    return (-mag if man < 0 else mag), exp + drop


def _rounded(re: tuple, im: tuple) -> tuple:
    """(mantissa, exponent) pairs re and im each rounded to the working
    precision, as integer mantissas (re, im) at one exponent."""
    (m, e), (k, f) = _nearest(*re), _nearest(*im)
    if not k:
        return m, 0, e
    if not m:
        return 0, k, f
    return (m << (e - f), k, f) if e > f else (m, k << (f - e), e)


def _quotient(num: int, den: int, exp: int) -> tuple:
    """num / den 2^exp (den > 0) as (mantissa, exponent) with at least
    prec + 3 bits plus a sticky bit, so that `_nearest` rounds it
    correctly."""
    if not num:
        return 0, exp
    shift = max(0, mpmath.mp.prec + 4 + den.bit_length() - abs(num).bit_length())
    q, r = divmod(abs(num) << shift, den)
    if r:
        q, shift = (q << 1) | 1, shift + 1
    return (-q if num < 0 else q), exp - shift


def _scalar(re: int, im: int, exp: int, cplx: bool):
    """The mpc (cplx) or mpf (re + i im) 2^exp, exactly."""
    if not cplx:
        return mpmath.mp.make_mpf(from_man_exp(re, exp))
    return mpmath.mp.make_mpc((from_man_exp(re, exp), from_man_exp(im, exp)))


class BlockFloat:
    """A real or complex vector in block floating point: entry k is
    (re[k] + i im[k]) 2^exp with Python-int mantissas; im is None when the
    vector is real."""

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: list, im, exp: int):
        self.re, self.im, self.exp = re, im, exp

    @classmethod
    def of(cls, values, cplx: bool = False) -> "BlockFloat":
        """The exact image of mpmath (or int, float, complex) scalars; complex
        when `cplx` is set or any value is complex."""
        raws = [_raw(x) for x in values]
        if not (cplx or any(im is not None for _, im in raws)):
            mants, exp = _align([re for re, _ in raws])
            return cls(mants, None, exp)
        mants, exp = _align([t for re, im in raws for t in (re, im or fzero)])
        return cls(mants[0::2], mants[1::2], exp)

    def value(self, k: int) -> tuple:
        """Entry k as integer mantissas (re, im) and the block's exponent; im
        is 0 in a real vector."""
        return self.re[k], 0 if self.im is None else self.im[k], self.exp

    def put(self, k: int, re: int, im: int, exp: int):
        """Store (re + i im) 2^exp as entry k, or append it when k is the
        length; im is ignored in a real vector.  An exponent below the
        block's shifts every mantissa."""
        if re or im:
            if exp < self.exp or not self.re:
                shift, self.exp = self.exp - exp, exp
                if shift > 0:
                    self.re = [x << shift for x in self.re]
                    if self.im is not None:
                        self.im = [x << shift for x in self.im]
            elif exp > self.exp:
                re, im = re << (exp - self.exp), im << (exp - self.exp)
        if k == len(self.re):
            self.re.append(re)
            if self.im is not None:
                self.im.append(im)
        else:
            self.re[k] = re
            if self.im is not None:
                self.im[k] = im

    def dot(self, other: "BlockFloat") -> tuple:
        """sum_k self[k] other[k] over the shorter length, exact, as integer
        mantissas (re, im) and their exponent; im is 0 when both are real."""
        exp = self.exp + other.exp
        ac = sum(map(mul, self.re, other.re))
        if self.im is None:
            return ac, 0, exp
        bd = sum(map(mul, self.im, other.im))
        cross = sum(map(mul, map(add, self.re, self.im), map(add, other.re, other.im)))
        return ac - bd, cross - ac - bd, exp

    def rounded_dot(self, other: "BlockFloat"):
        """The dot product rounded once to the working precision."""
        re, im, exp = self.dot(other)
        return _scalar(*_rounded((re, exp), (im, exp)), self.im is not None)

    def times(self, other: "BlockFloat") -> "BlockFloat":
        """Entrywise product over the shorter length, exact."""
        exp = self.exp + other.exp
        ac = list(map(mul, self.re, other.re))
        if self.im is None:
            return BlockFloat(ac, None, exp)
        bd = list(map(mul, self.im, other.im))
        cross = map(mul, map(add, self.re, self.im), map(add, other.re, other.im))
        return BlockFloat(list(map(sub, ac, bd)),
                          list(map(sub, map(sub, cross, ac), bd)), exp)

    def finish(self, k: int, other: "BlockFloat") -> tuple:
        """Set entry k to self[k] - sum_m self[m] other[m], the sum over the
        length of `other`, exact and then rounded once; returns the new
        entry as `value` does."""
        re, im, exp = self.dot(other)
        a_re, a_im, a_exp = self.value(k)
        if a_exp >= exp:
            a_re, a_im = a_re << (a_exp - exp), a_im << (a_exp - exp)
        else:
            re, im, exp = re << (exp - a_exp), im << (exp - a_exp), a_exp
        out = _rounded((a_re - re, exp), (a_im - im, exp))
        self.put(k, *out)
        return out


def lu_det(rows: list):
    """Determinant of a square matrix, given as a list of rows of mpmath
    scalars, by left-looking partially pivoted LU (Golub & Van Loan,
    sec. 3.2) at the caller's precision.  One exact dot product, rounded
    once, finishes each entry; the pivot is the candidate of largest exact
    |x|^2.  The rows are not modified.

    Returns (det, pivot_growth) where pivot_growth = max|pivot| / min|pivot|
    is a cheap conditioning estimate; det is an mpf when every entry is
    real, else an mpc.
    """
    cplx = any(isinstance(x, (complex, mpmath.mpc)) for row in rows for x in row)
    lu = [BlockFloat.of(row, cplx) for row in rows]   # row i: L_i[:j], then A_i[j:]
    n = len(lu)
    det = mpmath.mpc(1) if cplx else mpmath.mpf(1)
    max_piv, min_piv = mpmath.mpf(0), mpmath.inf
    for j in range(n):
        col = BlockFloat([], [] if cplx else None, 0)   # U[:i, j] while row i is updated
        for i, row in enumerate(lu):
            entry = row.finish(j, col) if col.re else row.value(j)
            if i < j:
                col.put(i, *entry)
        mags = [(re * re + im * im, 2 * exp) for re, im, exp in (r.value(j) for r in lu[j:])]
        low = min(exp for _, exp in mags)
        keys = [m << (exp - low) for m, exp in mags]
        best = max(range(n - j), key=keys.__getitem__)
        if not keys[best]:
            return det * 0, mpmath.inf
        if best:
            lu[j], lu[j + best] = lu[j + best], lu[j]
            det = -det
        p_re, p_im, p_exp = lu[j].value(j)
        piv = _scalar(p_re, p_im, p_exp, cplx)
        det *= piv
        max_piv = max(max_piv, abs(piv))
        min_piv = min(min_piv, abs(piv))
        den = p_re * p_re + p_im * p_im
        for row in lu[j + 1:]:
            re, im, exp = row.value(j)
            row.put(j, *_rounded(_quotient(re * p_re + im * p_im, den, exp - p_exp),
                                 _quotient(im * p_re - re * p_im, den, exp - p_exp)))
    return det, max_piv / min_piv


def mp_logdet(rows: list, warn_label: str, log_factor) -> LogScaledValue:
    """log det(rows) + log_factor at the caller's precision, rounded to
    doubles once; warns when pivot growth eats more than half of the
    mantissa.  `log_factor` is an mpmath scalar, such as a route's
    prefactor."""
    det, growth = lu_det(rows)
    if det == 0:
        return LogScaledValue(float("-inf"), 0.0)
    bits = mpmath.mp.prec
    if mpmath.isfinite(growth):
        growth_bits = math.log2(max(float(growth), 1.0))
        if growth_bits > bits / 2:
            warnings.warn(
                f"{warn_label}: pivot growth ~2^{growth_bits:.0f} exceeds half "
                f"of the {bits}-bit budget",
                PrecisionWarning,
            )
    return LogScaledValue.from_mp_log(mpmath.log(det) + log_factor)


def refuse_untrusted_i_minus(m: np.ndarray, label: str) -> None:
    """Refuse a double-precision det(I - m) whose relative error estimate
    2^-52 max(sigma_1(I - m), |m|_2) / sigma_min(I - m) exceeds DOUBLE_TOL.
    It is cond_2(I - m) 2^-52 unless forming I - m cancels: then the
    rounding of m's entries, up to 2^-52 |m|_2, sets the error."""
    error = math.inf
    if np.isfinite(m).all():
        s = np.linalg.svd(np.eye(len(m)) - m, compute_uv=False)
        if s[-1]:
            error = max(s[0], np.linalg.norm(m, 2)) / s[-1] * 2.0 ** -52
    if error > DOUBLE_TOL:
        raise ValueError(f"{label}: the error estimate {error:.2g} of its double-precision "
                         f"det(I - M) at N={len(m)} exceeds {DOUBLE_TOL:g}; it cannot be trusted")


def slogdet_i_minus(m: np.ndarray) -> LogScaledValue:
    """Log-scaled det(I - m) by LAPACK's LU in double precision."""
    sign, logabs = np.linalg.slogdet(np.eye(m.shape[0]) - m)
    return LogScaledValue(float(logabs), float(np.angle(sign)))
