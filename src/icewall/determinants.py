"""Determinants in mpmath extended precision over exact integer arithmetic;
det(I - M) in doubles.

A vector of mpmath scalars is held in block floating point (`BlockFloat`):
Python-int mantissas at one shared exponent, so that a dot product is an
exact integer sum, `sum(map(mul, ...))` in C, rounded once to the working
precision, to nearest with ties to even as mpmath rounds.  These are
`mpmath.fdot`'s semantics without fdot's Python calls per term.  A complex
vector keeps its real and imaginary mantissas side by side and takes three
real sums per dot product (Gauss's trick); a real one takes one.  The route
matrices are assembled this way.

`lu_det` factors a matrix in fixed point.  The matrix is converted exactly to
integers at one exponent, each nonzero entry at least `GUARD_BITS` bits wider
than the working precision; a symmetric matrix is first equilibrated by
exact powers of two.  A
symmetric matrix, real or complex, is factored as L D L^T without pivoting;
any other, or one whose pivots leave the budget, by partially pivoted LU
on the same integers.  Each entry is one exact integer dot product and one
shift or division; nothing is rounded to the working precision before the
determinant itself.
"""

from __future__ import annotations

import math
import warnings
from itertools import islice, repeat
from operator import add, mul, sub

import mpmath
from mpmath.libmp import fzero, from_man_exp

from .lazynp import np
from .logscale import LogScaledValue


DOUBLE_TOL = 1e-9  # the largest error estimate a double-precision det(I - M) may carry
GUARD_BITS = 32   # fixed-point bits past the working precision in lu_det


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


def _align(raws: list, bits: int = 0) -> tuple:
    """Signed integer mantissas of raw mpf tuples at one exponent: their
    smallest, or lower where a nonzero value would have fewer than `bits`
    bits."""
    if any(not man and exp for _, man, exp, _ in raws):
        raise ValueError("block floating point needs finite values")
    exp = min((min(e, e + bc - bits) for _, man, e, bc in raws if man), default=0)
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


def _half_order(x: tuple) -> int:
    """floor(ord_2|x| / 2) for the (re, im) raw tuples of a scalar x, ord_2
    taken of its larger part when complex; 0 when x = 0."""
    orders = [exp + bc - 1 for _, man, exp, bc in filter(None, x) if man]
    return max(orders) // 2 if orders else 0


def _scaled(t: tuple, shift: int) -> tuple:
    """The raw mpf tuple t times 2^-shift, exactly."""
    sign, man, exp, bc = t
    return (sign, man, exp - shift, bc) if man else t


def _vector(cplx: bool) -> tuple:
    """An empty fixed-point vector: ([re],) when real, ([re], [im], [re + im])
    when complex, the sums kept for Gauss's trick."""
    return ([], [], []) if cplx else ([],)


def _push(vec: tuple, re: int, im: int):
    """Append re + i im to a vector made by `_vector`; im is dropped when it is real."""
    vec[0].append(re)
    if len(vec) > 1:
        vec[1].append(im)
        vec[2].append(re + im)


def _dot(x: tuple, y: tuple) -> tuple:
    """sum_k x_k y_k over the shorter length, exact, as integers (re, im)."""
    ac = sum(map(mul, x[0], y[0]))
    if len(x) == 1:
        return ac, 0
    bd = sum(map(mul, x[1], y[1]))
    return ac - bd, sum(map(mul, x[2], y[2])) - ac - bd


def _ratio(v: tuple, d: tuple, shift: int) -> tuple:
    """v 2^shift / d rounded down, for integer pairs (re, im) and d != 0."""
    (vr, vi), (dr, di) = v, d
    if not (vi or di):
        return (vr << shift) // dr, 0
    den = dr * dr + di * di
    return ((vr * dr + vi * di) << shift) // den, ((vi * dr - vr * di) << shift) // den


def _ldl(a: list, frac: int, cplx: bool) -> list | None:
    """The pivots d_j of A = L D L^T without pivoting, for the lower triangle
    of a symmetric matrix of integer pairs (re, im), or None when a pivot
    |d_j|, in units of the integers, is 0 or falls outside
    [2^(prec/2 + GUARD_BITS), 2^(frac - GUARD_BITS/2)].

    Left-looking: U's column j is d_k L_jk, read from row j of L, so only
    the lower triangle is computed.  L is held in units of 2^-frac, d_j is
    rounded down to an integer, and U's column keeps GUARD_BITS fraction bits
    past the largest |L| so far.  The pivots are then exactly those of a
    triangular factorization of A + E, with |E_ij| at most a few units plus
    2^(1 - frac) |d_j|: a backward error set by the integers' width, not by
    the pivots' growth, which the upper bound on |d_j| keeps below it."""
    n = len(a)
    low, high = mpmath.mp.prec // 2 + GUARD_BITS, frac - GUARD_BITS // 2
    low_rows = [_vector(cplx) for _ in range(n)]   # row i of L left of column j, times 2^frac
    pivots, grow = [], 0   # grow: bits of the largest |L_ij| so far
    for j, lj in enumerate(low_rows):
        keep = min(frac, GUARD_BITS + grow)   # fraction bits of U's column
        cut, units = frac - keep, frac + keep
        col = _vector(cplx)   # d_k L_jk, times 2^keep
        for k, (dr, di) in enumerate(pivots):
            lr, li = lj[0][k], lj[1][k] if cplx else 0
            _push(col, (dr * lr - di * li) >> cut, (dr * li + di * lr) >> cut)
        re, im = _dot(lj, col)
        d = ((a[j][j][0] << units) - re) >> units, ((a[j][j][1] << units) - im) >> units
        mag = d[0] * d[0] + d[1] * d[1]
        if not (mag and low <= mag.bit_length() // 2 <= high):
            return None
        for i in range(j + 1, n):
            re, im = _dot(low_rows[i], col)
            lr, li = _ratio((((a[i][j][0] << units) - re) >> keep,
                             ((a[i][j][1] << units) - im) >> keep), d, 0)
            grow = max(grow, lr.bit_length() - frac, li.bit_length() - frac)
            _push(low_rows[i], lr, li)
        pivots.append(d)
    return pivots


def _lu(a: list, frac: int, cplx: bool) -> tuple:
    """(pivots, sign of the row permutation) of a left-looking partially
    pivoted LU (Golub & Van Loan, sec. 3.2) of a matrix of integer pairs
    (re, im).  L is held in units of 2^-frac and U rounded down to integers;
    the pivot is the candidate of largest |x|^2 and is kept exact, in units
    of 2^-frac.  The pivots are None when the matrix is singular."""
    n = len(a)
    a = list(a)
    low_rows = [_vector(cplx) for _ in range(n)]   # row i of L: whole for i < j, else left of column j
    pivots, sign = [], 1
    for j in range(n):
        col = _vector(cplx)   # U[:i, j] while row i is solved
        for i in range(j):
            re, im = _dot(low_rows[i], col)
            _push(col, ((a[i][j][0] << frac) - re) >> frac, ((a[i][j][1] << frac) - im) >> frac)
        cands = []
        for i in range(j, n):
            re, im = _dot(low_rows[i], col)
            cands.append(((a[i][j][0] << frac) - re, (a[i][j][1] << frac) - im))
        best = max(range(n - j), key=lambda k: cands[k][0] ** 2 + cands[k][1] ** 2)
        piv = cands[best]
        if not (piv[0] or piv[1]):
            return None, sign
        if best:
            a[j], a[j + best] = a[j + best], a[j]
            low_rows[j], low_rows[j + best] = low_rows[j + best], low_rows[j]
            cands[best] = cands[0]
            sign = -sign
        for i in range(j + 1, n):
            _push(low_rows[i], *_ratio(cands[i - j], piv, frac))
        pivots.append(piv)
    return pivots, sign


def lu_det(rows: list):
    """Determinant of a square matrix, given as a list of rows of mpmath
    scalars, at the caller's precision.  The rows are not modified.

    The entries are converted exactly to integers at one exponent, each
    nonzero one at least GUARD_BITS bits wider than the working precision.
    A symmetric matrix (complex symmetric included) is first equilibrated,
    entry (i, j) scaled by 2^-(s_i + s_j) with s_i = floor(ord_2|a_ii| / 2),
    and factored as L D L^T without pivoting (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 10): N^3/6 exact products where LU
    takes N^3/3.  Stable for a positive definite matrix, and for a complex
    symmetric one with a definite Hermitian part, as the route matrices are
    at real points.  A matrix that is not symmetric, or whose pivots d_j
    leave the budget (a zero pivot, one with too few significant bits, or
    one past the integers' width), is factored by partially pivoted LU on
    the same integers.

    Returns (det, pivot_growth) where pivot_growth = max|pivot| / min|pivot|
    of the equilibrated factorization is a cheap conditioning estimate; det
    is an mpf when every entry is real, else an mpc, rounded once.
    """
    cplx = any(isinstance(x, (complex, mpmath.mpc)) for row in rows for x in row)
    n = len(rows)
    symmetric = all(x is y or x == y for i, row in enumerate(rows)
                    for x, y in zip(row[:i], (r[i] for r in rows)))
    cells = [row[:i + 1] for i, row in enumerate(rows)] if symmetric else rows
    raws = [[_raw(x) for x in row] for row in cells]
    shifts = [_half_order(row[i]) for i, row in enumerate(raws)] if symmetric else [0] * n
    mants, exp = _align([_scaled(t, shifts[i] + shifts[k])
                         for i, row in enumerate(raws) for k, (re, im) in enumerate(row)
                         for t in ((re, im or fzero) if cplx else (re,))],
                        mpmath.mp.prec + GUARD_BITS)
    frac = max(map(int.bit_length, mants), default=0) + GUARD_BITS
    pairs = iter(zip(mants[0::2], mants[1::2]) if cplx else zip(mants, repeat(0)))
    a = [list(islice(pairs, len(row))) for row in cells]   # the lower triangle when symmetric
    pivots, sign, scale = _ldl(a, frac, cplx) if symmetric else None, 1, 0
    if pivots is None:
        if symmetric:
            a = [[a[max(i, k)][min(i, k)] for k in range(n)] for i in range(n)]
        (pivots, sign), scale = _lu(a, frac, cplx), -frac
    if pivots is None:
        return (mpmath.mpc(0) if cplx else mpmath.mpf(0)), mpmath.inf
    re, im = sign, 0
    for pr, pi in pivots:
        re, im = re * pr - im * pi, re * pi + im * pr
    det = +_scalar(re, im, n * (exp + scale) + 2 * sum(shifts), cplx)
    mags = [pr * pr + pi * pi for pr, pi in pivots]
    return det, mpmath.sqrt(mpmath.mpf(max(mags, default=1)) / min(mags, default=1))


def mp_logdet(rows: list, warn_label: str, log_factor) -> LogScaledValue:
    """log det(rows) + log_factor at the caller's precision, rounded to
    doubles once; warns when the pivot growth of lu_det's equilibrated
    factorization eats more than half of the mantissa.  `log_factor` is an
    mpmath scalar, such as a route's prefactor."""
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
