"""d_alpha from its defining integral, a test oracle for the closed form.

    d_alpha = ( integral over R of (1 - cos y) / |y|^(1+alpha) dy )^(-1)
"""

import math

import numpy as np

from stable_stein._quad import panel_nodes


def _cos_tail_asymptotic(s: float, Y: float, terms: int = 8) -> float:
    """integral_Y^inf cos(y) y^(-s) dy by repeated integration by parts.

    Alternating asymptotic expansion; with Y of a few hundred the first
    omitted term is far below double precision.
    """
    total = 0.0
    coef = 1.0
    for _ in range(terms):
        total += coef * (-math.sin(Y) * Y ** (-s) + s * math.cos(Y) * Y ** (-s - 1.0))
        coef *= -s * (s + 1.0)
        s += 2.0
    return total


def d_alpha_quadrature(alpha: float) -> float:
    """d_alpha evaluated from its defining integral.

    The integrand (1 - cos y)/|y|^(1+alpha) is split at |y| = 1: the inner
    part is summed as the alternating series of the cosine expansion, the
    outer part is 1/alpha minus an oscillatory integral done with
    half-period-aligned panels out to y = 640 plus an integration-by-parts
    tail.
    """
    # inner: sum_{k>=1} (-1)^(k+1) / ((2k)! (2k - alpha))
    inner = 0.0
    fact = 1.0
    for k in range(1, 40):
        fact *= (2 * k - 1) * (2 * k)
        term = (-1.0) ** (k + 1) / (fact * (2 * k - alpha))
        inner += term
        if abs(term) < 1e-20 * abs(inner):
            break
    # outer: 1/alpha - integral_1^inf cos(y) y^(-1-alpha) dy
    s = 1.0 + alpha
    n_panels = int(math.ceil((640.0 - 1.0) / math.pi))
    Y = 1.0 + n_panels * math.pi
    edges = 1.0 + math.pi * np.arange(n_panels + 1)
    nodes, weights = panel_nodes(edges, order=20)
    cos_int = float(np.dot(np.cos(nodes) * nodes ** (-s), weights))
    cos_int += _cos_tail_asymptotic(s, Y)
    integral = 2.0 * (inner + 1.0 / alpha - cos_int)
    return 1.0 / integral
