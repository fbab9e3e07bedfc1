"""Piecewise Gauss-Legendre plans for the integral representations.

All integrands here are analytic on the (shifted) real contour, so fixed
panels of unit width with a few dozen nodes converge far below the target
tolerances; panel placement just has to cover the exponential tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lazynp import np


@dataclass(frozen=True)
class QuadraturePlan:
    nodes: np.ndarray
    weights: np.ndarray
    lo: float = 0.0
    hi: float = 0.0

    @classmethod
    def on_interval(cls, a: float, b: float, panel_width: float = 1.0,
                    nodes_per_panel: int = 32) -> "QuadraturePlan":
        n_panels = max(1, int(math.ceil((b - a) / panel_width)))
        x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
        edges = np.linspace(a, b, n_panels + 1)
        nodes, weights = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            nodes.append(mid + half * x)
            weights.append(half * w)
        return cls(np.concatenate(nodes), np.concatenate(weights), float(a), float(b))

    def refined(self) -> "QuadraturePlan":
        """Same interval with doubled node density (for convergence checks)."""
        panels = max(1, 2 * len(self.nodes) // 32)
        return QuadraturePlan.on_interval(self.lo, self.hi,
                                          panel_width=(self.hi - self.lo) / panels)


def decay_cutoff(rate: float, poly_order: int = 0) -> float:
    """Smallest L with exp(-rate*L) * L^poly_order below 1e-18.

    `rate` must be positive; poly_order accounts for polynomial growth of
    the non-exponential part of the integrand.
    """
    if rate <= 0:
        raise ValueError("decay rate must be positive")
    target = 18 * math.log(10) + 5.0   # the 1e-18 tail, plus a margin of e^5
    L = target / rate
    for _ in range(40):
        new = (target + poly_order * math.log(max(L, 2.0))) / rate
        if abs(new - L) < 1e-9:
            break
        L = new
    return L
