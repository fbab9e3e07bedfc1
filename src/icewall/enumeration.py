"""Ground-truth partition values by brute force and by a row-transfer DP.

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
from dataclasses import dataclass
from typing import Iterator

from .errors import SizeLimitError
from .logscale import LogScaledValue
from .params import VertexWeights

ENUM_LIMIT = 6
DP_LIMIT = 14

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
    """Sum of prod w_i^{n_i} over all DWBC configurations (N <= 6)."""
    weights = w.as_tuple()
    total = 0j
    count = 0
    for cfg in config_iterator(n):
        term = 1.0 + 0j
        for wi, ni in zip(weights, cfg.type_counts()):
            term *= wi ** ni
        total += term
        count += 1
    return EnumerationResult(count, LogScaledValue.from_complex(total))


def partition_dp(n: int, w: VertexWeights) -> LogScaledValue:
    """Row-transfer dynamic program over 2^N vertical-edge states (N <= 14).

    Weights are rescaled by their largest magnitude before accumulation and
    the N^2 log-scale correction is restored at the end, so arbitrarily
    large weights never overflow.
    """
    if not 1 <= n <= DP_LIMIT:
        raise SizeLimitError(f"transfer DP supports 1 <= N <= {DP_LIMIT}")
    scale = max(abs(wi) for wi in w.as_tuple())
    if scale == 0:
        return LogScaledValue.from_complex(0.0)
    weights = tuple(complex(wi) / scale for wi in w.as_tuple())

    def row_transitions(state: tuple) -> Iterator[tuple]:
        stack = [(0, False, 1.0 + 0j, [])]
        while stack:
            col, left, amp, b_part = stack.pop()
            if col == n:
                if left:
                    yield tuple(b_part), amp
                continue
            for right, bottom, ty in _COMPLETIONS[(left, state[col])]:
                stack.append((col + 1, right, amp * weights[ty - 1], b_part + [bottom]))

    layer = {(False,) * n: 1.0 + 0j}
    for _row in range(n):
        nxt: dict = {}
        for state, amp in layer.items():
            for new_state, factor in row_transitions(state):
                nxt[new_state] = nxt.get(new_state, 0j) + amp * factor
        layer = nxt
    total = layer.get((True,) * n, 0j)
    result = LogScaledValue.from_complex(total)
    return result.scale_log(complex(n * n * math.log(scale), 0.0))


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
