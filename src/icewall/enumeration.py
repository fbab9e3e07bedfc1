"""Ground-truth partition values by brute force and by a vertex-by-vertex DP.

Edge conventions: a horizontal edge is True when its arrow points right,
a vertical edge is True when its arrow points up.  Around a vertex the
four adjacent edges are read as (left, right, bottom, top); the lookup
below is the full dictionary of the six allowed states.

Domain wall boundaries: vertical edges above the first row point down
(False) and below the last row point up (True); the horizontal edge to
the left of each row points left (False) and to the right points right
(True).  With this convention the single N=1 vertex is type 6.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import Iterator, NamedTuple

from .lazy import np
from .logscale import LogScaledValue

ENUM_LIMIT = 6
DP_LIMIT = 18

ASM_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436}

# (left, right, bottom, top) -> vertex type 1..6
VERTEX_TYPE = {
    (True, True, True, True): 1,
    (False, False, False, False): 2,
    (True, True, False, False): 3,
    (False, False, True, True): 4,
    (True, False, False, True): 5,
    (False, True, True, False): 6,
}

# (left, top) -> [(right, bottom, type)], rightward branch first
_COMPLETIONS = {}
for (_l, _r, _b, _t), _ty in VERTEX_TYPE.items():
    _COMPLETIONS.setdefault((_l, _t), []).append((_r, _b, _ty))
for _opts in _COMPLETIONS.values():
    _opts.sort(key=lambda rbt: not rbt[0])

# A row's or a lattice's vertex-type counts packed into one int, type t in
# bits 6(t-1)..6t-1; a count is at most ENUM_LIMIT^2 = 36 < 2^6.
_FIELD_BITS = 6


class LatticeConfig(NamedTuple):
    """One DWBC ice state: h_edges[row][0..N] and v_edges[row][0..N-1]."""

    n: int
    h_edges: tuple
    v_edges: tuple

    def vertex_type(self, row: int, col: int) -> int:
        key = (self.h_edges[row][col], self.h_edges[row][col + 1],
               self.v_edges[row + 1][col], self.v_edges[row][col])
        return VERTEX_TYPE[key]

    def type_counts(self) -> tuple:
        counts = [0] * 6
        for r in range(self.n):
            for c in range(self.n):
                counts[self.vertex_type(r, c) - 1] += 1
        return tuple(counts)

    def ascii_grid(self) -> str:
        """Arrow picture with '<' '>' on rows and '^' 'v' between them."""
        lines = []
        for r in range(self.n + 1):
            lines.append(" " + " ".join("^" if up else "v" for up in self.v_edges[r]))
            if r < self.n:
                lines.append("".join(">" if h else "<" for h in self.h_edges[r]) )
        return "\n".join(lines)


class EnumerationResult(NamedTuple):
    config_count: int
    z_value: LogScaledValue


@functools.lru_cache(maxsize=None)
def _row_fillings(n: int, state: tuple) -> tuple:
    """The completions of one vertex row whose top vertical edges are `state`,
    as (h_row, bottom_state, packed) in DFS order, rightward branch first.
    `packed` is the row's vertex-type counts, sum of 1 << 6 (type - 1).
    Kept per (N, state) once first reached, as the histograms are."""
    out = []
    stack = [(0, False, (False,), (), 0)]
    while stack:
        col, left, h_row, bottom, packed = stack.pop()
        if col == n:
            if left:  # right boundary arrow must point right
                out.append((h_row, bottom, packed))
            continue
        for right, down, ty in reversed(_COMPLETIONS[(left, state[col])]):
            stack.append((col + 1, right, h_row + (right,), bottom + (down,),
                          packed + (1 << _FIELD_BITS * (ty - 1))))
    return tuple(out)


def config_iterator(n: int) -> Iterator[LatticeConfig]:
    """All DWBC configurations, row-major DFS, rightward branch first."""
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"explicit enumeration supports 1 <= N <= {ENUM_LIMIT}")
    up = (True,) * n  # arrows below the last row point up (inward)
    stack = [((), ((False,) * n,))]  # arrows above row 0 point down (inward)
    while stack:
        rows_h, rows_v = stack.pop()
        if len(rows_h) == n:
            if rows_v[-1] == up:
                yield LatticeConfig(n, rows_h, rows_v)
            continue
        for h_row, bottom, _packed in reversed(_row_fillings(n, rows_v[-1])):
            stack.append((rows_h + (h_row,), rows_v + (bottom,)))


def type_histogram(n: int) -> dict:
    """{vertex-type counts (n1, ..., n6): number of DWBC configurations with
    them}, a new dict on each call; the histogram is built once per N."""
    return dict(_histogram(n))


@functools.lru_cache(maxsize=None)
def _histogram(n: int) -> tuple:
    """type_histogram(n)'s items, by a transfer over the rows: after each
    row, every state of the vertical edges below it maps to {packed counts of
    the rows so far: number of ways}.  Distinct pairs are few (at most 300 a
    row at N = 6), where the configurations number 7,436."""
    if not 1 <= n <= ENUM_LIMIT:
        raise ValueError(f"explicit enumeration supports 1 <= N <= {ENUM_LIMIT}")
    layer = {(False,) * n: {0: 1}}  # arrows above row 0 point down (inward)
    for _row in range(n):
        below: dict = {}
        for state, ways in layer.items():
            for _h, bottom, p in _row_fillings(n, state):
                out = below.setdefault(bottom, {})
                for packed, m in ways.items():
                    out[packed + p] = out.get(packed + p, 0) + m
        layer = below
    mask = (1 << _FIELD_BITS) - 1
    return tuple((tuple(k >> _FIELD_BITS * t & mask for t in range(6)), m)
                 for k, m in layer[(True,) * n].items())


def _with_sum_error(n: int, w: tuple, sum_at) -> LogScaledValue:
    """Z = sum_at(w), a sum of products of N^2 weights, with the relative
    error estimate 4 N^2 2^-53 Z(|w|) / |Z(w)| (past e^709 a double
    overflows: such estimates are refused anyway).  When the nonzero weights
    share one phase, so do the terms, and Z(|w|) = |Z(w)| is not summed.
    Z = 0 is exact only where the sum at w's support (1 where w != 0) is 0."""
    z = sum_at(w)
    if z.log_magnitude == -math.inf:
        exact = sum_at([float(x != 0) for x in w]).log_magnitude == -math.inf
        return z._replace(error=0.0 if exact else math.inf)
    one_phase = len({cmath.phase(x) for x in w if x}) <= 1
    excess = 0.0 if one_phase else sum_at([abs(x) for x in w]).log_magnitude - z.log_magnitude
    return z._replace(error=4 * n * n * 2.0 ** -53 * math.exp(min(excess, 709.0)))


def enumerate_configs(n: int, w: tuple) -> EnumerationResult:
    """Sum of prod w_i^{n_i} over all DWBC configurations (N <= 6), taken as
    sum over type_histogram(n) of multiplicity * prod w_i^{n_i}, with the
    error estimate of `_with_sum_error`.

    Every configuration has N^2 vertices, so the weights are divided by 2^e,
    the least power of two above their largest magnitude (an exact division),
    and N^2 e log 2 is added back.  No term overflows; a term underflows only
    when its weights differ by a factor of about 10^(300/N^2) or more.  A sum
    below the smallest normal double is taken as 0, which the support rule of
    `_with_sum_error` refuses unless Z = 0 exactly."""
    hist = type_histogram(n)

    def histogram_sum(w) -> LogScaledValue:
        given = [complex(x) for x in w]
        e = math.frexp(max(abs(x) for x in given))[1]
        weights = [complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)) for x in given]
        total = sum(m * math.prod(wi ** ni for wi, ni in zip(weights, counts))
                    for counts, m in hist.items())
        if abs(total) < sys.float_info.min:   # subnormal: too few bits kept, or none
            total = 0.0
        return LogScaledValue.from_complex(total).scale_log(n * n * e * math.log(2))

    return EnumerationResult(sum(hist.values()), _with_sum_error(n, w, histogram_sum))


def partition_dp(n: int, w: tuple) -> LogScaledValue:
    """Vertex-by-vertex transfer over the vertical-edge states (N <= 18).

    Bit c of a state is the vertical edge in column c: below the vertex once
    column c of the row is done, above it before.  A vertex keeps
    popcount(state) - h, h the horizontal edge to its right (1: right), so
    row r only reaches the popcount-r states with h = 0 (a0) and the
    popcount-(r+1) states with h = 1 (a1): each array holds one popcount
    sector, not all 2^N states.  At vertex c a sector is in increasing order
    of the state rotated to put bit c on top.  Then the a0 states whose edge
    c points down come first, the a1 states with bit c set come last, and
    each of the latter is the former with bit c set, in the same order.  One
    fixed permutation per sector moves that order on to column c + 1, and N
    of them bring it back for the next row.

    The weights and each row are divided by their largest magnitude, so no
    weights overflow.  A nonzero weight that this division takes below the
    smallest normal double is refused: it would keep too few bits, or none
    (a false Z = 0).  The value carries the error estimate of `_with_sum_error`."""
    return _with_sum_error(n, w, functools.partial(_transfer, n))


def _transfer(n: int, w) -> LogScaledValue:
    """partition_dp's transfer at the weights w."""
    if not 1 <= n <= DP_LIMIT:
        raise ValueError(f"transfer DP supports 1 <= N <= {DP_LIMIT}")
    given = np.array(w, dtype=complex)
    scale = np.max(np.abs(given)) or 1.0  # all-zero weights leave every row zero
    ws = (given if given.imag.any() else given.real) / scale  # real weights: half the work
    lost = (np.abs(ws) < sys.float_info.min) & (given != 0)
    if lost.any():
        names = ", ".join(f"w{i + 1}" for i in np.flatnonzero(lost))
        raise ValueError(f"dp: dividing by the largest weight magnitude, {scale:.3g}, "
                         f"takes {names} below the smallest normal double")
    w1, w2, w3, w4, w5, w6 = ws
    log_z = n * n * math.log(scale)
    pop = np.zeros(1, dtype=np.int8)  # popcount of every state
    for _ in range(n):
        pop = np.concatenate((pop, pop + 1))
    rank = np.empty(1 << n, dtype=np.int32)  # position of a state in its sector

    def rotation(k: int):
        """The gather that takes sector k from the order of column c to that
        of column c + 1: the rotation by one more bit."""
        states = np.flatnonzero(pop == k)
        rank[states] = np.arange(len(states))
        turn = rank[(states << 1 | states >> (n - 1)) & ((1 << n) - 1)]
        return turn.astype(np.intp)   # else each gather converts it again

    a0 = np.ones(1, dtype=ws.dtype)  # arrows above the first row point down
    turn1 = rotation(0)
    for row in range(n):
        turn0, turn1 = turn1, rotation(row + 1)
        split0 = math.comb(n - 1, row)   # a0[:split0]: edge c points down
        split1 = math.comb(n - 1, row + 1)   # a1[split1:]: those states, bit c set
        a1 = np.zeros(len(turn1), dtype=ws.dtype)
        for _c in range(n):
            # weight first: numpy rounds a complex a * w apart from w * a
            from0, from1 = a0[:split0], a1[split1:]
            to0 = w2 * from0 + w5 * from1
            to1 = w6 * from0 + w1 * from1
            a0[:split0] = to0
            a0[split0:] = w4 * a0[split0:]
            a1[split1:] = to1
            a1[:split1] = w3 * a1[:split1]
            a0, a1 = a0[turn0], a1[turn1]
        # the right boundary arrow points right, the next row's left one left
        a0 = a1
        peak = np.max(np.abs(a0)) or 1.0  # a zero row stays zero: Z = 0
        a0 /= peak
        log_z += math.log(peak)
    return LogScaledValue.from_complex(a0[0]).scale_log(log_z)


def dump_configs(n: int, fmt: str = "text"):
    """Debug dump of all configurations for N <= 4."""
    if n > 4:
        raise ValueError("configuration dump supports N <= 4")
    if fmt == "json":
        return [
            {"h_edges": [list(r) for r in cfg.h_edges],
             "v_edges": [list(r) for r in cfg.v_edges],
             "type_counts": list(cfg.type_counts())}
            for cfg in config_iterator(n)
        ]
    blocks = []
    for i, cfg in enumerate(config_iterator(n)):
        blocks.append(f"# configuration {i}\n{cfg.ascii_grid()}")
    return "\n\n".join(blocks)
