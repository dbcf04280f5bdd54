"""Monte-Carlo estimate of the K function, a test oracle for its closed form."""

import math

import numpy as np

from stable_stein.sampling import STREAM_GENERIC, substream


def k_function_mc(spec, alpha: float, n: int, t: float, N: float,
                  draws: int = 10 ** 6, seed: int = 0):
    """Monte-Carlo estimate of K1 with its standard error."""
    rng = substream(seed, STREAM_GENERIC, 0)
    ell = spec.ell(n)
    xi = spec.sample(rng, draws)
    zeta = (xi - spec.mean) / ell ** (1.0 / alpha)
    if t >= 0.0:
        vals = zeta * ((zeta >= t) & (zeta <= N))
    else:
        vals = -zeta * ((zeta >= -N) & (zeta <= t))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(draws))
    return est, se
