"""Log-log slope of assembled bound totals, a test oracle for the rate order."""

import math

import numpy as np

from stable_stein.bounds import bound_main, default_truncation


def bound_total_slope(spec, alpha: float, n_grid, gamma=None, N="auto") -> float:
    """Log-log slope of the assembled bound totals over a grid of n.

    gamma defaults to 2 - alpha, which makes the smoothing term decay at the
    leading order itself, so pure-power families fit their rate exponent
    exactly."""
    g = (2.0 - alpha) if gamma is None else gamma
    logs_n = []
    logs_t = []
    for n in n_grid:
        trunc = default_truncation(spec, int(n)) if N == "auto" else N
        total = bound_main(spec, alpha, int(n), trunc, g).total
        logs_n.append(math.log(n))
        logs_t.append(math.log(total))
    slope, _ = np.polyfit(logs_n, logs_t, 1)
    return float(slope)
