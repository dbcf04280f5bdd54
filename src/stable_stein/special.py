"""Gamma/Beta evaluation and the explicit constants of the stable bounds.

Three constants drive every bound produced by this package, all functions of
the stability index alpha (and, for the last one, a Holder exponent gamma):

    d_alpha       = alpha 2^(alpha-1) Gamma((1+alpha)/2) / (sqrt(pi) Gamma(1 - alpha/2))
                  = ( integral over R of (1 - cos y) / |y|^(1+alpha) dy )^(-1)

    D_alpha       = (4/pi) sqrt((2 alpha + 1)/alpha) B((alpha-1)/alpha, 2/alpha)

    D_alpha_gamma = (d_alpha/alpha) [ 16/(pi (2-alpha)) sqrt((alpha+3)/alpha)
                    + 16/(pi (alpha-1)) sqrt((2 alpha+1)/alpha) ]
                    * B((1-gamma)/alpha, (gamma+alpha)/alpha)

d_alpha normalizes the fractional Laplacian; D_alpha and D_alpha_gamma bound
the second derivative, respectively the fractional-Laplacian Holder constant,
of the solution of the characterizing equation.  D_alpha and D_alpha_gamma
diverge as alpha -> 1, and d_alpha/(2-alpha) -> 1 as alpha -> 2.

Everything here is a pure function of its arguments and safe to call from any
number of threads.  d_alpha and the gamma-free prefactor of D_alpha_gamma are
memoized per alpha (a bounded ``functools.lru_cache``, keyed on float(alpha),
which is thread-safe), so D_alpha_gamma evaluates only the Beta factor at
each gamma.  The optimal-gamma scan of ``bounds.optimize_gamma`` goes one
step further: its 99 values of D_alpha_gamma, which depend on alpha alone,
are memoized per float(alpha) in ``bounds._holder_scan``.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError

__all__ = [
    "gamma_fn",
    "beta_fn",
    "d_alpha",
    "D_alpha",
    "D_alpha_gamma",
    "DEFAULT_ALPHA_LIMITS",
]

# Every bound rejects alpha outside this closed window: the constants blow up
# near 1 and the kernel algebra degenerates near 2.
DEFAULT_ALPHA_LIMITS = (1.01, 1.99)

# Rational (Lanczos) approximation, g = 7, 9 terms.  Relative error is below
# 1e-14 on (0.5, 10), growing to about 1e-13 at the top of the double range
# (x ~ 171.6); the reflection identity covers (0, 0.5).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function for real x > 0.

    Self-contained rational approximation; arguments below 0.5 go through the
    reflection identity Gamma(x) Gamma(1-x) = pi / sin(pi x).  A value past
    the double range (x above about 171.62, or subnormal x) raises DomainError.
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise DomainError(f"gamma_fn expects a real number, got {x!r}")
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires finite x > 0, got {x}")
    if x < 0.5:
        try:
            val = math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
        except OverflowError:       # sin(pi x) underflows for subnormal x
            val = math.inf
    else:
        z = x - 1.0
        acc = _LANCZOS_COEF[0]
        for i in range(1, len(_LANCZOS_COEF)):
            acc += _LANCZOS_COEF[i] / (z + i)
        t = z + _LANCZOS_G + 0.5
        try:
            val = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
        except OverflowError:
            val = math.inf
        if val == math.inf and x < 172.0:
            # from x ~ 142.3 on, t ** (z + 0.5) leaves the double range
            # before Gamma(x) does: apply the power in two halves
            half = t ** ((z + 0.5) / 2.0)
            val = math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * acc
    if val == math.inf:
        raise DomainError(f"gamma_fn({x}) overflows a double")
    return val


def beta_fn(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), x, y > 0."""
    for name, v in (("x", x), ("y", y)):
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"beta_fn requires finite {name} > 0, got {v}")
    if x + y < 171.0:
        val = gamma_fn(x) * gamma_fn(y) / gamma_fn(x + y)
        if val < math.inf:
            return val
    # Gamma(x + y), or Gamma(x) Gamma(y), is past the double range
    try:
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
    except OverflowError:
        raise DomainError(f"beta_fn({x}, {y}) overflows a double") from None


def d_alpha(alpha: float) -> float:
    """Normalizing constant of the fractional Laplacian, closed form."""
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"d_alpha requires alpha in (0, 2), got {alpha}")
    return _d_alpha(float(alpha))


@functools.lru_cache(maxsize=1024)
def _d_alpha(alpha: float) -> float:
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * gamma_fn((1.0 + alpha) / 2.0)
        / (math.sqrt(math.pi) * gamma_fn(1.0 - alpha / 2.0))
    )


def D_alpha(alpha: float) -> float:
    """Second-derivative constant of the solution of the Stein equation."""
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"D_alpha requires alpha in (1, 2), got {alpha}")
    return (
        4.0
        / math.pi
        * math.sqrt((2.0 * alpha + 1.0) / alpha)
        * beta_fn((alpha - 1.0) / alpha, 2.0 / alpha)
    )


def D_alpha_gamma(alpha: float, gamma: float) -> float:
    """Holder-seminorm constant used in the smoothing remainder."""
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"D_alpha_gamma requires alpha in (1, 2), got {alpha}")
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"D_alpha_gamma requires gamma in (0, 1), got {gamma}")
    return _holder_prefactor(float(alpha)) * beta_fn((1.0 - gamma) / alpha,
                                                     (gamma + alpha) / alpha)


@functools.lru_cache(maxsize=1024)
def _holder_prefactor(alpha: float) -> float:
    """The gamma-free factor d_alpha / alpha * [bracket] of D_alpha_gamma."""
    bracket = 16.0 / (math.pi * (2.0 - alpha)) * math.sqrt((alpha + 3.0) / alpha) + 16.0 / (
        math.pi * (alpha - 1.0)
    ) * math.sqrt((2.0 * alpha + 1.0) / alpha)
    return d_alpha(alpha) / alpha * bracket


def check_alpha_window(alpha: float) -> None:
    """Reject alpha outside DEFAULT_ALPHA_LIMITS, the window of every bound."""
    lo, hi = DEFAULT_ALPHA_LIMITS
    if not (lo <= alpha <= hi):
        raise DomainError(
            f"alpha={alpha} outside the accepted window [{lo}, {hi}]; "
            "the bound constants diverge toward alpha=1"
        )
