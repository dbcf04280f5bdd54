"""Extended-precision mirror of the constants and the closed power-law bound.

Used as the oracle side of acceptance checks and behind the CLI's
``--precision extended`` flag.  Everything is evaluated with mpmath at a
configurable number of decimal digits (default 50) and returned as mpf.
"""

from __future__ import annotations

import mpmath as mp

__all__ = [
    "hp_d_alpha",
    "hp_D_alpha",
    "hp_D_alpha_gamma",
    "hp_pareto_bound_total",
]

_DPS = 50


def _ctx():
    ctx = mp.mp.clone()
    ctx.dps = _DPS
    return ctx


def hp_d_alpha(alpha) -> mp.mpf:
    ctx = _ctx()
    a = ctx.mpf(alpha)
    return a * ctx.mpf(2) ** (a - 1) * ctx.gamma((1 + a) / 2) / (
        ctx.sqrt(ctx.pi) * ctx.gamma(1 - a / 2)
    )


def hp_D_alpha(alpha) -> mp.mpf:
    ctx = _ctx()
    a = ctx.mpf(alpha)
    return 4 / ctx.pi * ctx.sqrt((2 * a + 1) / a) * ctx.beta((a - 1) / a, 2 / a)


def hp_D_alpha_gamma(alpha, gamma) -> mp.mpf:
    ctx = _ctx()
    a = ctx.mpf(alpha)
    g = ctx.mpf(gamma)
    da = hp_d_alpha(alpha)
    bracket = 16 / (ctx.pi * (2 - a)) * ctx.sqrt((a + 3) / a) + 16 / (
        ctx.pi * (a - 1)
    ) * ctx.sqrt((2 * a + 1) / a)
    return da / a * bracket * ctx.beta((1 - g) / a, (g + a) / a)


def hp_pareto_bound_total(alpha, gamma, n) -> mp.mpf:
    """Closed power-law bound total at N = inf, in extended precision."""
    ctx = _ctx()
    a = ctx.mpf(alpha)
    g = ctx.mpf(gamma)
    nn = ctx.mpf(n)
    da = hp_d_alpha(alpha)
    lead = hp_D_alpha(alpha) / (2 - a) * (2 * da / a) ** (2 / a) * nn ** (-(2 - a) / a)
    rem = a * hp_D_alpha_gamma(alpha, gamma) / (a - g) * (2 * da / a) ** (g / a) * nn ** (
        -g / a
    )
    return lead + rem
