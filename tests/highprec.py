"""50-digit mpmath mirror of the constants and the closed power-law bound.

The oracle side of the constant and bound-table tests.  Each public function
evaluates under one ``mp.workdps(50)`` and returns an mpf carrying those 50
digits; ``hp_pareto_bound_total`` evaluates d_alpha once per cell.
"""

import mpmath as mp

_DPS = 50


def _d_alpha(a):
    return a * 2 ** (a - 1) * mp.gamma((1 + a) / 2) / (mp.sqrt(mp.pi) * mp.gamma(1 - a / 2))


def _D_alpha(a):
    return 4 / mp.pi * mp.sqrt((2 * a + 1) / a) * mp.beta((a - 1) / a, 2 / a)


def _D_alpha_gamma(a, g, da):
    bracket = 16 / (mp.pi * (2 - a)) * mp.sqrt((a + 3) / a) + 16 / (
        mp.pi * (a - 1)
    ) * mp.sqrt((2 * a + 1) / a)
    return da / a * bracket * mp.beta((1 - g) / a, (g + a) / a)


def hp_d_alpha(alpha) -> mp.mpf:
    with mp.workdps(_DPS):
        return _d_alpha(mp.mpf(alpha))


def hp_D_alpha(alpha) -> mp.mpf:
    with mp.workdps(_DPS):
        return _D_alpha(mp.mpf(alpha))


def hp_D_alpha_gamma(alpha, gamma) -> mp.mpf:
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        return _D_alpha_gamma(a, mp.mpf(gamma), _d_alpha(a))


def hp_pareto_bound_total(alpha, gamma, n) -> mp.mpf:
    """Closed power-law bound total at N = inf."""
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        g = mp.mpf(gamma)
        nn = mp.mpf(n)
        da = _d_alpha(a)
        scale = 2 * da / a
        lead = _D_alpha(a) / (2 - a) * scale ** (2 / a) * nn ** (-(2 - a) / a)
        rem = a * _D_alpha_gamma(a, g, da) / (a - g) * scale ** (g / a) * nn ** (-g / a)
        return lead + rem
