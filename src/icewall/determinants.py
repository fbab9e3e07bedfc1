"""Determinants in mpmath extended precision over exact integer arithmetic;
det(I - M) in doubles.

A vector of mpmath scalars is held in block floating point (`BlockFloat`):
Python-int mantissas at one shared exponent, so that a dot product is an
exact integer sum, `sum(map(mul, ...))` in C, rounded once by mpmath to the
working precision, to nearest with ties to even.  These are `mpmath.fdot`'s
semantics without fdot's Python calls per term.  A real vector is held as
(re,), a complex one as (re, im, re + im), the sums kept for Gauss's trick:
a dot product takes one real sum when both vectors are real, two when one
is, and three when neither is.  The route matrices are assembled this way.

`lu_det` factors a matrix in fixed point.  The matrix is converted exactly to
integers at one exponent, each nonzero entry at least `GUARD_BITS` bits wider
than the working precision; a symmetric matrix is first equilibrated by
exact powers of two.  A symmetric matrix, real or complex, is factored as
L D L^T without pivoting; any other, or one whose pivots leave the budget,
by partially pivoted LU on the same integers.  The factorizations' rows are
vectors of the same form.  Each entry is one exact integer dot product and
one shift or division; nothing is rounded to the working precision before
the determinant itself.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul

from .lazy import mpmath, np
from .logscale import LogScaledValue


GUARD_BITS = 32   # fixed-point bits past the working precision in lu_det


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


def _scalar(re: int, im: int, exp: int, cplx: bool):
    """The mpc (cplx) or mpf (re + i im) 2^exp, each part rounded to the
    working precision, to nearest with ties to even."""
    mp, libmp = mpmath.mp, mpmath.libmp
    prec, rnd = mp.prec, libmp.round_nearest
    re = libmp.from_man_exp(re, exp, prec, rnd)
    return mp.make_mpc((re, libmp.from_man_exp(im, exp, prec, rnd))) if cplx else mp.make_mpf(re)


def _vector(cplx: bool) -> tuple:
    """An empty integer vector in BlockFloat's form: ([],) when real, else ([], [], [])."""
    return ([], [], []) if cplx else ([],)


def _push(vec: tuple, re: int, im: int):
    """Append re + i im to a vector made by `_vector`; im is dropped when it is real."""
    vec[0].append(re)
    if len(vec) > 1:
        vec[1].append(im)
        vec[2].append(re + im)


def _gauss(ac, bd, cross) -> tuple:
    """(re, im) of (a + ib)(c + id) from ac, bd and (a + b)(c + d): Gauss's trick."""
    return ac - bd, cross - ac - bd


def _dot(x: tuple, y: tuple) -> tuple:
    """sum_k x_k y_k over the shorter length, exact, as integers (re, im):
    one real sum when both are real, two when one is, three when neither is."""
    ac = sum(map(mul, x[0], y[0]))
    if len(x) == len(y):
        return (ac, 0) if len(x) == 1 else _gauss(ac, sum(map(mul, x[1], y[1])),
                                                   sum(map(mul, x[2], y[2])))
    return ac, sum(map(mul, x[1], y[0]) if len(x) > 1 else map(mul, x[0], y[1]))


class BlockFloat:
    """A real or complex vector in block floating point: entry k is
    (re[k] + i im[k]) 2^exp with Python-int mantissas, held in `parts` as
    (re,) when im is None, else as (re, im, re + im)."""

    __slots__ = ("parts", "exp")

    def __init__(self, exp: int, re: list, im=None):
        self.parts = (re,) if im is None else (re, im, list(map(add, re, im)))
        self.exp = exp

    @classmethod
    def of(cls, values, cplx: bool = False) -> "BlockFloat":
        """The exact image of mpmath (or int, float, complex) scalars; complex
        when `cplx` is set or any value is complex."""
        return cls.of_raw([_raw(x) for x in values], cplx)

    @classmethod
    def of_raw(cls, raws: list, cplx: bool, bits: int = 0) -> "BlockFloat":
        """The exact image of (re, im) raw mpf tuples, im None when real, each
        nonzero part at least `bits` bits wide (see `_align`)."""
        if not (cplx or any(im is not None for _, im in raws)):
            mants, exp = _align([re for re, _ in raws], bits)
            return cls(exp, mants)
        mants, exp = _align([t for re, im in raws for t in (re, im or mpmath.libmp.fzero)], bits)
        return cls(exp, mants[0::2], mants[1::2])

    def pairs(self):
        """The mantissas as integer pairs (re, im)."""
        x = self.parts
        return zip(x[0], x[1]) if len(x) == 3 else zip(x[0], repeat(0))

    def rounded_dot(self, other: "BlockFloat"):
        """sum_k self[k] other[k] over the shorter length, exact, rounded once
        to the working precision; an mpc when either vector is complex."""
        cplx = len(self.parts) + len(other.parts) > 2
        return _scalar(*_dot(self.parts, other.parts), self.exp + other.exp, cplx)

    def times(self, other: "BlockFloat") -> "BlockFloat":
        """Entrywise product over the shorter length, exact; both real or both complex."""
        products = [map(mul, u, v) for u, v in zip(self.parts, other.parts)]
        if len(products) == 1:
            return BlockFloat(self.exp + other.exp, list(products[0]))
        return BlockFloat(self.exp + other.exp, *map(list, zip(*map(_gauss, *products))))


def _half_order(x: tuple) -> int:
    """floor(ord_2|x| / 2) for the (re, im) raw tuples of a scalar x, ord_2
    taken of its larger part when complex; 0 when x = 0."""
    return max((exp + bc - 1 for _, man, exp, bc in filter(None, x) if man), default=0) // 2


def _scaled(t, shift: int):
    """The raw mpf tuple t times 2^-shift, exactly; a zero or None is kept."""
    return (t[0], t[1], t[2] - shift, t[3]) if t and t[1] else t


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
    shifts = [_half_order(_raw(row[i])) for i, row in enumerate(rows)] if symmetric else [0] * n
    block = BlockFloat.of_raw([(_scaled(re, s), _scaled(im, s)) for i, row in enumerate(cells)
                               for k, (re, im) in enumerate(map(_raw, row))
                               for s in [shifts[i] + shifts[k]]], cplx, mpmath.mp.prec + GUARD_BITS)
    frac = max(max(map(int.bit_length, part), default=0) for part in block.parts[:2]) + GUARD_BITS
    pairs = block.pairs()
    a = [[next(pairs) for _ in row] for row in cells]   # the lower triangle when symmetric
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
    det = _scalar(re, im, n * (block.exp + scale) + 2 * sum(shifts), cplx)
    mags = [pr * pr + pi * pi for pr, pi in pivots]
    return det, mpmath.sqrt(mpmath.mpf(max(mags, default=1)) / min(mags, default=1))


def mp_logdet(rows: list, log_factor) -> LogScaledValue:
    """log det(rows) + log_factor at the caller's precision, rounded to
    doubles once, with the relative error estimate 2^(2g - bits), g = log2
    of the pivot growth of lu_det's equilibrated factorization: it reaches 1
    where the growth eats half of the mantissa.  `log_factor` is an mpmath
    scalar, such as a route's prefactor."""
    det, growth = lu_det(rows)   # growth is inf, and log(det) -inf, for a singular matrix
    error = float(mpmath.ldexp(growth ** 2, -mpmath.mp.prec))
    return LogScaledValue.from_mp_log(mpmath.log(det) + log_factor)._replace(error=error)


def i_minus_error(m: np.ndarray) -> float:
    """N 2^-52 max(sigma_1(I - m), |m|_2) / sigma_min(I - m), the relative error estimate
    of a double-precision det(I - m) of order N: the n u cond_2 of an LU backward-error bound,
    unless forming I - m cancels and the rounding of m, up to 2^-52 |m|_2, sets it; inf where
    m is not finite or I - m singular."""
    if not np.isfinite(m).all():
        return math.inf
    s = np.linalg.svd(np.eye(len(m)) - m, compute_uv=False)
    return len(m) * max(s[0], np.linalg.norm(m, 2)) / s[-1] * 2.0 ** -52 if s[-1] else math.inf


def slogdet_i_minus(m: np.ndarray) -> LogScaledValue:
    """Log-scaled det(I - m) by LAPACK's LU in double precision, no error estimate."""
    sign, logabs = np.linalg.slogdet(np.eye(m.shape[0]) - m)
    return LogScaledValue(float(logabs), float(np.angle(sign)))
