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

import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SizeLimitError
from .logscale import LogScaledValue
from .params import VertexWeights

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


@dataclass(frozen=True)
class LatticeConfig:
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


@dataclass(frozen=True)
class EnumerationResult:
    config_count: int
    z_value: LogScaledValue


def config_iterator(n: int) -> Iterator[LatticeConfig]:
    """All DWBC configurations, row-major DFS, rightward branch first."""
    if not 1 <= n <= ENUM_LIMIT:
        raise SizeLimitError(f"explicit enumeration supports 1 <= N <= {ENUM_LIMIT}")

    top = (False,) * n  # arrows above row 0 point down (inward)
    rows_h: list = []
    rows_v: list = [top]

    def fill_row(state: tuple) -> Iterator[tuple]:
        """Yield (h_row, new_state) completions of one vertex row."""
        stack = [(0, False, [], [])]
        while stack:
            col, left, h_part, b_part = stack.pop()
            if col == n:
                if left:  # right boundary arrow must point right
                    yield (False, *h_part), tuple(b_part)
                continue
            for right, bottom, _ty in reversed(_COMPLETIONS[(left, state[col])]):
                stack.append((col + 1, right, h_part + [right], b_part + [bottom]))

    def rec(row: int, state: tuple) -> Iterator[LatticeConfig]:
        if row == n:
            if state == (True,) * n:  # arrows below last row point up (inward)
                yield LatticeConfig(n, tuple(rows_h), tuple(rows_v))
            return
        for h_row, new_state in fill_row(state):
            rows_h.append(h_row)
            rows_v.append(new_state)
            yield from rec(row + 1, new_state)
            rows_h.pop()
            rows_v.pop()

    yield from rec(0, top)


def enumerate_configs(n: int, w: VertexWeights) -> EnumerationResult:
    """Sum of prod w_i^{n_i} over all DWBC configurations (N <= 6).

    Every configuration has N^2 vertices, so the weights are divided by 2^e,
    the least power of two above their largest magnitude (an exact division),
    and N^2 e log 2 is added back.  No term overflows; a term underflows only
    when its weights differ by a factor of about 10^(300/N^2) or more.  A sum
    is refused when even its largest term underflows; one that cancels to 0 is Z = 0."""
    given = [complex(x) for x in w.as_tuple()]
    e = math.frexp(max(abs(x) for x in given))[1]
    weights = [complex(math.ldexp(x.real, -e), math.ldexp(x.imag, -e)) for x in given]
    total = 0j
    count = 0
    for cfg in config_iterator(n):
        term = 1.0 + 0j
        for wi, ni in zip(weights, cfg.type_counts()):
            term *= wi ** ni
        total += term
        count += 1
    if abs(total) < sys.float_info.min and all(given):
        logs = [math.log(abs(x)) - e * math.log(2) for x in given]  # rescaled, exactly
        largest = max(sum(ni * li for ni, li in zip(cfg.type_counts(), logs))
                      for cfg in config_iterator(n))
        if largest < math.log(sys.float_info.min):
            raise ValueError(f"enumerate: every term underflows at N={n} "
                             f"(the largest is e^{largest:.1f} after rescaling)")
    z = LogScaledValue.from_complex(total).scale_log(n * n * e * math.log(2))
    return EnumerationResult(count, z)


def partition_dp(n: int, w: VertexWeights) -> LogScaledValue:
    """Vertex-by-vertex transfer over the 2^N vertical-edge states (N <= 18).

    Bit c of a state is the vertical edge in column c: below the vertex once
    column c of the row is done, above it before.  a0 and a1 hold the states
    whose last horizontal edge points left and right.  The weights and each
    row are divided by their largest magnitude, so no weights overflow."""
    if not 1 <= n <= DP_LIMIT:
        raise SizeLimitError(f"transfer DP supports 1 <= N <= {DP_LIMIT}")
    ws = np.array(w.as_tuple(), dtype=complex)
    scale = np.max(np.abs(ws)) or 1.0  # all-zero weights leave every row zero
    ws = (ws if ws.imag.any() else ws.real) / scale  # real weights: half the work
    w1, w2, w3, w4, w5, w6 = ws
    log_z = n * n * math.log(scale)
    a0, a1, b0, b1 = (np.zeros(1 << n, dtype=ws.dtype) for _ in range(4))
    a0[0] = 1.0  # arrows above the first row point down
    for _row in range(n):
        for c in range(n):
            x0, x1, y0, y1 = (v.reshape(-1, 2, 1 << c) for v in (a0, a1, b0, b1))
            y0[:, 0] = w2 * x0[:, 0] + w5 * x1[:, 1]
            y0[:, 1] = w4 * x0[:, 1]
            y1[:, 0] = w3 * x1[:, 0]
            y1[:, 1] = w6 * x0[:, 0] + w1 * x1[:, 1]
            a0, a1, b0, b1 = b0, b1, a0, a1
        # the right boundary arrow points right, the next row's left one left
        a0, a1 = a1, np.zeros_like(a1)
        peak = np.max(np.abs(a0)) or 1.0  # a zero row stays zero: Z = 0
        a0 /= peak
        log_z += math.log(peak)
    return LogScaledValue.from_complex(a0[-1]).scale_log(log_z)


def dump_configs(n: int, fmt: str = "text"):
    """Debug dump of all configurations for N <= 4."""
    if n > 4:
        raise SizeLimitError("configuration dump supports N <= 4")
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
