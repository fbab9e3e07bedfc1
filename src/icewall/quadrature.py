"""Panel Gauss-Legendre rules for the integral representations, and the
interval that covers the Fermi weight.

All integrands here are analytic on the (shifted) real contour, so fixed
panels of unit width with 32 nodes converge far below the target
tolerances; panel placement just has to cover the exponential tails.
"""

from __future__ import annotations

import math

from .lazynp import np


def gauss_legendre(a: float, b: float, panels: int) -> tuple:
    """(nodes, weights) of `panels` equal panels on [a, b], each carrying
    the 32-point Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(a, b, panels + 1)[:, None]
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    return (mid + half * x).ravel(), (half * w).ravel()


def fermi_rule(phi: float, order: int, density: int = 1) -> tuple:
    """(nodes, weights) for the Fermi weight e^{2 phi x}/(1 + e^{2 pi x}),
    0 < phi < pi, times a polynomial of degree `order`: unit panels over the
    interval outside which that integrand is below 1e-18, `density` times as
    many panels when refined."""
    lo = -decay_cutoff(2 * phi, order)
    hi = decay_cutoff(2 * math.pi - 2 * phi, order)
    return gauss_legendre(lo, hi, density * math.ceil(hi - lo))


def decay_cutoff(rate: float, poly_order: int) -> float:
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
