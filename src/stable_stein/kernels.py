"""Summand laws, the stable kernel, the truncated K function, L1 discrepancy.

The two kernels compared by the main bound are

    stable kernel   Kal(t, N) = d_alpha/(alpha (alpha-1)) (|t|^{1-alpha} - N^{1-alpha})
    K function      K1(t, N)  = E[ zeta 1{0 <= t <= zeta <= N} - zeta 1{-N <= zeta <= t <= 0} ]

where zeta = ell_n^{-1/alpha} (xi - E xi) is one normalized summand.  The
driving quantity of the bound is the L1 discrepancy

    sum_i int_{-N}^{N} | Kal(t, N)/n - K_i(t, N)/alpha | dt
        = (1/alpha) int_{-N}^{N} | alpha Kal(t, N) - n K1(t, N) | dt     (i.i.d.)

Each summand law owns its tail functions, absolute moments, and its norming
sequence ell_n = alpha theta n / (2 d_alpha) where theta is the tail scale
P(|xi| > x) ~ theta x^{-alpha}.  K functions are computed in closed form for
the Pareto family and otherwise through the tail-integral identity

    E[X 1{X > t}] = t P(X > t) + int_t^inf P(X > r) dr,

which needs only one-dimensional quadrature of the tail function.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Optional

from ._quad import brentq, quad
from ._record import Record
from .errors import ConvergenceError, DomainError
from .special import d_alpha

__all__ = [
    "DistributionSpec",
    "Pareto",
    "ModifiedPareto",
    "HallTransform",
    "LogPerturbedPareto",
    "GeneralTail",
    "RateOrder",
    "stable_kernel",
    "stable_kernel_mass",
    "k_function",
    "discrepancy_l1",
    "abs_tail_moment_zeta",
    "solve_log_tail_scale",
    "ThresholdSolution",
]


# ---------------------------------------------------------------------------
# summand laws
# ---------------------------------------------------------------------------

class RateOrder(Record):
    """Leading decay of the bound: total ~ n^exponent (times log n when
    has_log_factor), or (log n)^exponent when in_log_n is set."""

    exponent: float
    has_log_factor: bool
    in_log_n: bool = False
    classified: bool = True


class DistributionSpec(Record):
    """Interface shared by every summand law.

    Concrete laws provide signed tails, the tail scale theta, the threshold
    beyond which the tail model is exact, the mean, absolute (central)
    moments, and the inverse of P(|xi| > x) (``_isf_abs``) or a sampler.
    ``ell(n)`` is the norming sequence alpha theta n / (2 d_alpha).

    A family the paper analyses also states its closed forms and rules:
    ``k1_power_terms``, ``discrepancy_closed``, ``default_truncation`` and
    ``rate_order``.  The defaults here answer "no closed form", "no default
    rule" and "unclassified", and the kernels and bounds read only these
    members, never the family's type.

    A law is a frozen ``Record``: its annotated parameters, alpha first,
    are its fields, and ``__post_init__`` checks them.
    """

    alpha: float

    # -- tails ------------------------------------------------------------
    def tail_pos(self, x):
        """P(xi > x) for x >= 0.

        A scalar rule: a real number in (a float, an ``np.float64``, an int
        or a 0-d array) gives a Python float out.  The quadrature integrands
        call it one point at a time; it takes no arrays.
        """
        raise NotImplementedError

    def tail_neg(self, x):
        """P(xi < -x) for x >= 0, with the same contract as ``tail_pos``."""
        raise NotImplementedError

    def tail_abs(self, x):
        return self.tail_pos(x) + self.tail_neg(x)

    # -- tail model -------------------------------------------------------
    @property
    def theta(self) -> float:
        raise NotImplementedError

    @property
    def a_thresh(self) -> float:
        """Threshold beyond which the (M1, M2) tail model holds exactly."""
        raise NotImplementedError

    @property
    def support_radius(self) -> float:
        """Largest r with P(|xi| <= r) = 0 (0 when there is no gap)."""
        return 0.0

    def m2(self, x):
        return self.tail_abs(x) * float(x) ** self.alpha / self.theta - 1.0

    # -- moments ----------------------------------------------------------
    @property
    def mean(self) -> float:
        return 0.0

    def abs_central_moment(self, gamma: float) -> float:
        """E|xi - E xi|^gamma for gamma in (0, 1]; quadrature fallback."""
        if not (0.0 < gamma <= 1.0):
            raise DomainError(f"abs_central_moment requires gamma in (0, 1], got {gamma}")
        mu = self.mean
        upper_tail = _one_sided_tail(self, 1.0, 1.0, mu)
        lower_tail = _one_sided_tail(self, -1.0, 1.0, mu)

        def integrand(s):
            return gamma * s ** (gamma - 1.0) * (upper_tail(s) + lower_tail(s))

        val = _tail_integral(integrand, 0.0, math.inf)
        if not math.isfinite(val):
            raise ConvergenceError("abs_central_moment quadrature failed", partial=val)
        return val

    # -- norming ----------------------------------------------------------
    def ell(self, n: int) -> float:
        return self.alpha * self.theta * n / (2.0 * d_alpha(self.alpha))

    @property
    def supports_infinite_truncation(self) -> bool:
        """Whether the assembled bound admits N = inf as an analytic limit."""
        return False

    # -- closed forms and rules of the family -------------------------------
    # ((coef, exponent), ...) when K1 is the closed sum over power terms
    #   coef / (2 ell^{exponent/alpha} (exponent-1)) (|t|^{1-exponent} - N^{1-exponent})
    k1_power_terms = None

    def discrepancy_closed(self, n: int, N: float) -> Optional[float]:
        """The L1 discrepancy in closed form, or None without one."""
        return None

    def default_truncation(self, n: int) -> float:
        """The truncation level the family's analysis uses by default."""
        raise DomainError(f"no default truncation rule for {self.describe()}; pass N explicitly")

    def rate_order(self) -> RateOrder:
        """Leading decay order of the assembled bound; not guessed here."""
        return RateOrder(math.nan, False, classified=False)

    # -- sampling ---------------------------------------------------------
    # Every sampler works element by element: sample(rng, k) is the first k
    # values of sample(rng, n) for k <= n on the same stream, so one draw at
    # the largest n of a rate fit serves every smaller n.
    def _isf_abs(self, v):
        """The x >= 0 with P(|xi| > x) = v, for each v of an array."""
        raise NotImplementedError

    def _ppf_in_place(self, u, v=None):
        """ppf written over u, a float array, and returned; v, when given,
        is a C-contiguous float scratch of u's shape that takes 2 min(u, 1-u)."""
        import numpy as np

        # one fold per draw, and no data-dependent branch: v = 2 min(u, 1-u)
        # and the sign of u - 1/2 pick the same operands as the two-sided
        # formula, bit for bit.  _isf_abs may overwrite v; on a 0-d u, v is
        # a numpy scalar, so one draw keeps the scalar power's bits
        if v is None:
            v = np.minimum(u, 1.0 - u)
        else:
            np.minimum(u, np.subtract(1.0, u, out=v), out=v)
        v *= 2.0
        x = self._isf_abs(v)
        u -= 0.5
        return np.copysign(x, u, out=u)

    def ppf(self, u):
        import numpy as np

        out = self._ppf_in_place(np.array(u, dtype=float))   # a copy: u stays
        return out if out.ndim else float(out)

    def sample(self, rng, size=None):
        return self.ppf(rng.random(size))

    def _sample_rows(self, rngs, x, scratch):
        """Row i of the float block x gets what ``sample(rngs[i], x.shape[1])``
        would; ``scratch`` is a C-contiguous float array of x's shape that the
        draw may overwrite."""
        cls = type(self)
        if cls.sample is not DistributionSpec.sample or cls.ppf is not DistributionSpec.ppf:
            for row, rng in zip(x, rngs):      # the family's own sampler
                row[:] = self.sample(rng, x.shape[1])
            return
        for row, rng in zip(x, rngs):
            rng.random(out=row)
        self._ppf_in_place(x, scratch)

    # -- misc ---------------------------------------------------------------
    def describe(self) -> str:
        return type(self).__name__


def _map_scalar(rule, x):
    """Map a scalar rule over an array (k_function's t); 0-d gives a float."""
    import numpy as np

    xs = np.asarray(x, dtype=float)
    out = np.array([rule(v) for v in xs.ravel().tolist()]).reshape(xs.shape)
    return out if xs.ndim else float(out)


def _newton(step, z, lo, hi, rtol, floor, iters):
    """Newton's iteration z <- clip(z - step(z), lo, hi), element by element.

    An element stops, and keeps its value, once its step is at most
    rtol max(z, floor), so its result does not depend on the rest of the
    array: the live mask only shrinks.
    """
    import numpy as np

    live = np.ones(np.shape(z), dtype=bool)
    for _ in range(iters):
        s = step(z)
        nxt = np.clip(z - s, lo, hi)
        z = np.where(live, nxt, z)
        live &= np.abs(s) > rtol * np.maximum(nxt, floor)
        if not live.any():
            break
    return z


def _check_alpha_12(alpha, who):
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"{who} requires alpha in (1, 2), got {alpha}")


def _check_finite(who, **params):
    """Reject a NaN or infinite law parameter (None, one left out, passes);
    a NaN would pass every range check, as every comparison with it is false."""
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{who} requires a finite {name}, got {value}")


def _count(name: str, value) -> int:
    """A positive count given as an int or an integral float, as an int."""
    try:
        if value >= 1 and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be a positive integer, got {value!r}")


def check_spec_alpha(spec: DistributionSpec, alpha: float) -> None:
    """Reject an alpha that disagrees with the summand law's own."""
    if abs(alpha - spec.alpha) > 1e-12:
        raise DomainError(f"alpha={alpha} disagrees with spec alpha={spec.alpha}")


class Pareto(DistributionSpec):
    """Symmetric power law: density alpha / (2 |x|^{alpha+1}) on |x| > 1."""

    alpha: float

    def __post_init__(self):
        _check_alpha_12(self.alpha, "Pareto")

    def tail_pos(self, x):
        return 0.5 * max(float(x), 1.0) ** -self.alpha

    tail_neg = tail_pos

    @property
    def theta(self) -> float:
        return 1.0

    @property
    def a_thresh(self) -> float:
        return 1.0

    @property
    def support_radius(self) -> float:
        return 1.0

    def m2(self, x):
        return 0.0

    def abs_central_moment(self, gamma: float) -> float:
        if not (0.0 < gamma <= 1.0):
            raise DomainError(f"abs_central_moment requires gamma in (0, 1], got {gamma}")
        return self.alpha / (self.alpha - gamma)

    @property
    def supports_infinite_truncation(self) -> bool:
        return True

    @property
    def k1_power_terms(self):
        return ((self.alpha, self.alpha),)

    def discrepancy_closed(self, n: int, N: float) -> float:
        alpha = self.alpha
        da = d_alpha(alpha)
        ell = self.ell(n)
        if not math.isinf(N) and N < ell ** (-1.0 / alpha):
            # truncation below the support gap: K1 vanishes identically there
            return stable_kernel_mass(alpha, N)
        return 1.0 / (2.0 - alpha) * (2.0 * da / alpha) ** (2.0 / alpha) * float(n) ** (
            -(2.0 - alpha) / alpha
        )

    def default_truncation(self, n: int) -> float:
        return math.inf

    def rate_order(self) -> RateOrder:
        return RateOrder(-(2.0 - self.alpha) / self.alpha, False)

    def _isf_abs(self, v):
        v **= -1.0 / self.alpha
        return v

    def describe(self) -> str:
        return f"Pareto(alpha={self.alpha})"


class ModifiedPareto(DistributionSpec):
    """Two-term power density A/(2|x|^{1+alpha}) + B/(2|x|^{1+beta}) on |x| > 1.

    Normalization requires A/alpha + B/beta = 1.  The second exponent beta
    must exceed alpha; beta > 2 keeps the assembled bound finite as N -> inf.
    """

    alpha: float
    beta: float
    A: float
    B: float

    def __post_init__(self):
        _check_finite("ModifiedPareto", beta=self.beta, A=self.A, B=self.B)
        _check_alpha_12(self.alpha, "ModifiedPareto")
        if not (self.beta > self.alpha):
            raise DomainError(f"ModifiedPareto requires beta > alpha, got beta={self.beta}")
        if self.A <= 0.0 or self.B < 0.0:
            raise DomainError("ModifiedPareto requires A > 0 and B >= 0")
        defect = abs(self.A / self.alpha + self.B / self.beta - 1.0)
        if defect > 1e-12:
            raise DomainError(
                f"ModifiedPareto density not normalized: |A/alpha + B/beta - 1| = {defect:.2e}"
            )

    def tail_pos(self, x):
        x = float(x)
        if x <= 1.0:
            return 0.5
        return 0.5 * (self.A / self.alpha * x ** -self.alpha + self.B / self.beta * x ** -self.beta)

    tail_neg = tail_pos

    @property
    def theta(self) -> float:
        return self.A / self.alpha

    @property
    def a_thresh(self) -> float:
        return 1.0

    @property
    def support_radius(self) -> float:
        return 1.0

    def m2(self, x):
        return (self.B * self.alpha) / (self.A * self.beta) * float(x) ** (self.alpha - self.beta)

    def abs_central_moment(self, gamma: float) -> float:
        if not (0.0 < gamma <= 1.0):
            raise DomainError(f"abs_central_moment requires gamma in (0, 1], got {gamma}")
        return self.A / (self.alpha - gamma) + self.B / (self.beta - gamma)

    @property
    def supports_infinite_truncation(self) -> bool:
        return self.beta > 2.0

    @property
    def k1_power_terms(self):
        return ((self.A, self.alpha), (self.B, self.beta))

    def discrepancy_closed(self, n: int, N: float) -> float:
        """Two-term upper estimate of the discrepancy.

        The first-exponent part integrates exactly as in the single-term case;
        the second-exponent part is integrated on its own, so on the overlap
        |t| < ell^{-1/alpha} this is an upper estimate of the exact L1 value
        (the quadrature backend computes the exact integral).
        """
        alpha, beta = self.alpha, self.beta
        da = d_alpha(alpha)
        ell = self.ell(n)
        first = 2.0 * da * ell ** ((alpha - 2.0) / alpha) / (2.0 - alpha)
        if math.isinf(N):
            if beta <= 2.0:
                raise DomainError(
                    "N = inf admissible for the two-term family only when beta > 2"
                )
            second = 2.0 * self.B * da / (self.A * (beta - 2.0)) * ell ** ((alpha - 2.0) / alpha)
        elif beta == 2.0:
            second = (2.0 * self.B * da / self.A) * ell ** ((alpha - 2.0) / alpha) * (
                math.log(N) + math.log(ell) / alpha
            )
        else:
            second = 2.0 * self.B * da / (self.A * (beta - 2.0)) * (
                ell ** ((alpha - 2.0) / alpha) - ell ** ((alpha - beta) / alpha) * N ** (2.0 - beta)
            )
        return (first + second) / alpha

    def truncation_case(self):
        """(case, q) of the two-term analysis: case 1 (beta > 2) truncates at
        N = inf, q None; case 2 (beta = 2) and case 3 (alpha < beta < 2) at
        N = ell_n^q."""
        alpha, beta = self.alpha, self.beta
        if beta > 2.0:
            return 1, None
        if beta == 2.0:
            return 2, (2.0 - alpha) / (alpha * (alpha - 1.0))
        return 3, (beta - alpha) / (alpha * (alpha + 1.0 - beta))

    def default_truncation(self, n: int) -> float:
        case, q = self.truncation_case()
        if case == 1:
            return math.inf
        # q blows up toward alpha = 1; any truncation level is admissible,
        # and beyond ~1e280 the truncated terms are zero to double precision
        return math.exp(min(q * math.log(self.ell(n)), 644.0))

    def rate_order(self) -> RateOrder:
        a, b = self.alpha, self.beta
        case, _ = self.truncation_case()
        if case == 3:
            return RateOrder(-(a - 1.0) * (b - a) / (a * (1.0 + a - b)), False)
        return RateOrder(-(2.0 - a) / a, case == 2)

    def _isf_abs(self, v):
        import numpy as np

        # solve (A/alpha) y + (B/beta) y^{beta/alpha} = v for y = x^{-alpha}
        v = np.clip(v, 1e-300, 1.0)
        r = self.beta / self.alpha
        ca, cb = self.A / self.alpha, self.B / self.beta

        def step(y):
            return (ca * y + cb * y ** r - v) / (ca + cb * r * y ** (r - 1.0))

        y = _newton(step, np.minimum(v / ca, 1.0), 1e-320, 1.0, 1e-15, 1e-300, 60)
        return y ** (-1.0 / self.alpha)

    def describe(self) -> str:
        return (f"ModifiedPareto(alpha={self.alpha}, beta={self.beta}, "
                f"A={self.A}, B={self.B})")


class HallTransform(ModifiedPareto):
    """Power transform X = sgn(Z) |Z|^{-1/alpha} of a flat-plus-power density.

    Z has density a + b |z|^c on [-1, 1] (so 2a + 2b/(c+1) = 1).  The
    transformed law has tails

        P(X > x) = a x^{-alpha} + (b/(c+1)) x^{-alpha (c+1)},   x > 1,

    i.e. exactly a two-term power law with tail-scale parameters 2a and
    2b/(c+1) and second exponent beta = alpha (c+1); in density parameters
    that is ModifiedPareto(A = alpha 2a, B = beta 2b/(c+1)), whose tails,
    moments and closed forms it inherits.  Sampling goes through Z: a
    uniform/power mixture followed by the transform.  Its fields are
    ModifiedPareto's, which its own ``__init__`` derives, then a, b, c.
    """

    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float, alpha: float):
        _check_finite("HallTransform", a=a, b=b, c=c)
        _check_alpha_12(alpha, "HallTransform")
        if a <= 0.0 or b < 0.0 or c <= 0.0:
            raise DomainError("HallTransform requires a > 0, b >= 0, c > 0")
        mass = 2.0 * a + 2.0 * b / (c + 1.0)
        if abs(mass - 1.0) > 1e-12:
            raise DomainError(
                f"HallTransform base density not normalized: 2a + 2b/(c+1) = {mass}"
            )
        beta = alpha * (c + 1.0)
        for name, value in (("a", a), ("b", b), ("c", c), ("alpha", alpha), ("beta", beta),
                            ("A", alpha * 2.0 * a), ("B", beta * 2.0 * b / (c + 1.0))):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def sample(self, rng, size=None):
        import numpy as np

        # |Z| is a mixture: weight 2a uniform on (0,1), weight 2b/(c+1) with
        # density (c+1) z^c; the sign is symmetric.  Each draw takes its
        # three uniforms (pick, value, sign) from one row, so a shorter draw
        # is a prefix of a longer one.
        scalar = size is None
        m = 1 if scalar else int(np.prod(size))
        pick, val, sign = rng.random((m, 3)).T
        absz = np.where(pick < 2.0 * self.a, val, val ** (1.0 / (self.c + 1.0)))
        x = np.copysign(absz ** (-1.0 / self.alpha), sign - 0.5)
        if scalar:
            return float(x[0])
        return x.reshape(size)

    def describe(self) -> str:
        return f"HallTransform(a={self.a}, b={self.b}, c={self.c}, alpha={self.alpha})"


class LogPerturbedPareto(DistributionSpec):
    """Tail P(|xi| > x) = K0 (log x)^beta / x^alpha on x > x0, symmetric.

    Not in the normal domain of attraction (the log factor is slowly
    varying), so no tail scale theta exists; the norming sequence follows
    the threshold A_n with n / A_n^alpha = 1 / (K0 (log A_n)^beta).

    A proper law requires K0 (log x0)^beta = x0^alpha; exactly one of K0, x0
    may be omitted and is derived from the other.
    """

    alpha: float
    beta: float
    K0: Optional[float] = None
    x0: Optional[float] = None

    def __post_init__(self):
        _check_finite("LogPerturbedPareto", beta=self.beta, K0=self.K0, x0=self.x0)
        _check_alpha_12(self.alpha, "LogPerturbedPareto")
        object.__setattr__(self, "_thresholds", {})     # n -> A_n
        K0, x0 = self.K0, self.x0
        if K0 is None and x0 is None:
            raise DomainError("LogPerturbedPareto needs K0 or x0")
        if K0 is not None and not K0 > 0.0:
            raise DomainError(f"LogPerturbedPareto requires K0 > 0, got {K0}")
        log_x0_min = max(1.0, self.beta / self.alpha)
        if log_x0_min > math.log(sys.float_info.max):
            raise DomainError(
                f"no finite x0 exceeds e^(max(1, beta/alpha)) = e^{log_x0_min:.6g}"
            )
        if x0 is None:
            # solve x0^alpha = K0 (log x0)^beta for x0 > max(e, e^{beta/alpha})
            lo = math.exp(log_x0_min) * (1.0 + 1e-9)
            g = lambda x: self.alpha * math.log(x) - self.beta * math.log(math.log(x)) - math.log(K0)
            hi = max(lo * 2.0, (K0 * 10.0) ** (1.0 / self.alpha) + 10.0)
            while g(hi) < 0.0:
                hi *= 4.0
            if g(lo) > 0.0:
                raise DomainError(
                    f"no admissible x0 > e^(max(1, beta/alpha)) for K0={K0}"
                )
            x0 = brentq(g, lo, hi, xtol=1e-13, rtol=1e-15)
            object.__setattr__(self, "x0", x0)
        elif x0 <= math.exp(log_x0_min):
            raise DomainError(
                f"LogPerturbedPareto requires x0 > e^(max(1, beta/alpha)), got {x0}"
            )
        elif K0 is None:
            K0 = x0 ** self.alpha / math.log(x0) ** self.beta
            object.__setattr__(self, "K0", K0)
        else:
            defect = abs(K0 * math.log(x0) ** self.beta / x0 ** self.alpha - 1.0)
            if defect > 1e-9:
                raise DomainError(
                    f"inconsistent (K0, x0): tail mass at x0 is off by {defect:.2e}"
                )

    def tail_abs(self, x):
        x = float(x)
        if x <= self.x0:
            return 1.0
        import numpy as np

        # np.log, not math.log: the two differ in the last bit on some inputs
        return min(self.K0 * float(np.log(x)) ** self.beta * x ** -self.alpha, 1.0)

    def tail_pos(self, x):
        return 0.5 * self.tail_abs(x)

    tail_neg = tail_pos

    @property
    def theta(self) -> float:
        raise DomainError(
            "LogPerturbedPareto has no tail scale theta (slowly varying tail)"
        )

    @property
    def a_thresh(self) -> float:
        return self.x0

    @property
    def support_radius(self) -> float:
        return self.x0

    def solve_threshold(self, n: int) -> float:
        """A_n with n / A_n^alpha = 1/(K0 (log A_n)^beta), solved once per n."""
        a_n = self._thresholds.get(n)
        if a_n is None:
            a_n = solve_log_tail_scale(self.K0, self.x0, self.alpha, self.beta, n).value
            self._thresholds[n] = a_n
        return a_n

    def ell(self, n: int) -> float:
        a_n = self.solve_threshold(n)
        return self.alpha / (2.0 * d_alpha(self.alpha)) * self.K0 * n * math.log(a_n) ** self.beta

    def default_truncation(self, n: int) -> float:
        """N = (log A_n)^{1/alpha}."""
        return math.log(self.solve_threshold(n)) ** (1.0 / self.alpha)

    def rate_order(self) -> RateOrder:
        return RateOrder(-(1.0 - 1.0 / self.alpha), False, in_log_n=True)

    def abs_central_moment(self, gamma: float) -> float:
        if not (0.0 < gamma <= 1.0):
            raise DomainError(f"abs_central_moment requires gamma in (0, 1], got {gamma}")

        def integrand(s):
            return gamma * s ** (gamma - 1.0) * self.tail_abs(s)

        return self.x0 ** gamma + _tail_integral(integrand, self.x0, math.inf)

    def _isf_abs(self, v):
        import numpy as np

        # solve K0 w^beta e^{-alpha w} = v for w = log x >= log x0
        log_kv = np.log(self.K0 / np.clip(v, 1e-300, 1.0))
        a, b = self.alpha, self.beta

        def step(w):
            return (a * w - b * np.log(w) - log_kv) / (a - b / w)

        w0 = math.log(self.x0)
        lo = max(w0, b / a + 1e-12)
        w = _newton(step, np.maximum(w0, log_kv / a), lo, math.inf, 1e-14, 1.0, 80)
        return np.exp(w)

    def describe(self) -> str:
        return (f"LogPerturbedPareto(alpha={self.alpha}, beta={self.beta}, "
                f"K0={self.K0:.6g}, x0={self.x0:.6g})")


class GeneralTail(DistributionSpec):
    """Law defined by its tail model beyond a threshold.

    For x > a_thresh the signed tails follow the model

        P(xi > x)  = (1 + m1(x))/2 (1 + m2(x)) theta x^{-alpha}
        P(xi < -x) = (1 - m1(x))/2 (1 + m2(x)) theta x^{-alpha}

    with m1, m2 -> 0 at infinity.  Below the threshold the tails are frozen
    at their threshold values (all remaining mass sits at -a_thresh, 0,
    a_thresh); only the tail behaviour enters the bounds.  The mean is
    computed from the tails by quadrature.
    """

    alpha: float
    theta_scale: float
    A_thresh: float
    m1_fn: Callable[[float], float]
    m2_fn: Callable[[float], float]

    # a law given by functions is compared and hashed by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        _check_finite("GeneralTail", theta_scale=self.theta_scale, A_thresh=self.A_thresh)
        _check_alpha_12(self.alpha, "GeneralTail")
        if self.theta_scale <= 0.0 or self.A_thresh <= 0.0:
            raise DomainError("GeneralTail requires theta_scale > 0 and A_thresh > 0")
        pa = self._model_pos(self.A_thresh)
        na = self._model_neg(self.A_thresh)
        if pa < 0.0 or na < 0.0 or pa + na > 1.0 + 1e-12:
            raise DomainError(
                f"tail model invalid at the threshold: P+={pa}, P-={na}"
            )

    def _model_pos(self, x: float) -> float:
        return (1.0 + self.m1_fn(x)) / 2.0 * (1.0 + self.m2_fn(x)) * self.theta_scale * x ** -self.alpha

    def _model_neg(self, x: float) -> float:
        return (1.0 - self.m1_fn(x)) / 2.0 * (1.0 + self.m2_fn(x)) * self.theta_scale * x ** -self.alpha

    def tail_pos(self, x):
        return float(self._model_pos(max(float(x), self.A_thresh)))

    def tail_neg(self, x):
        return float(self._model_neg(max(float(x), self.A_thresh)))

    @property
    def theta(self) -> float:
        return self.theta_scale

    @property
    def a_thresh(self) -> float:
        return self.A_thresh

    def m2(self, x):
        return float(self.m2_fn(float(x)))

    @functools.cached_property
    def mean(self) -> float:
        kink = (self.A_thresh,)
        return (_tail_integral(self.tail_pos, 0.0, math.inf, points=kink)
                - _tail_integral(self.tail_neg, 0.0, math.inf, points=kink))

    def describe(self) -> str:
        return (f"GeneralTail(alpha={self.alpha}, theta={self.theta_scale}, "
                f"A_thresh={self.A_thresh})")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def stable_kernel(alpha: float, t: float, N: float):
    """Kal(t, N) = d_alpha/(alpha(alpha-1)) (|t|^{1-alpha} - N^{1-alpha}).

    Returns +inf at t = 0 (the singularity is integrable); |t| > N is a
    domain error; the kernel vanishes at |t| = N.
    """
    _check_alpha_12(alpha, "stable_kernel")
    if not (N > 0.0):
        raise DomainError(f"stable_kernel requires N > 0, got {N}")
    if abs(t) > N:
        raise DomainError(f"stable_kernel requires |t| <= N, got t={t}, N={N}")
    if t == 0.0:
        return math.inf
    da = d_alpha(alpha)
    return da / (alpha * (alpha - 1.0)) * (abs(t) ** (1.0 - alpha) - N ** (1.0 - alpha))


def stable_kernel_mass(alpha: float, N: float) -> float:
    """int_{-N}^{N} Kal(t, N) dt = 2 d_alpha N^{2-alpha} / (alpha (2-alpha))."""
    _check_alpha_12(alpha, "stable_kernel_mass")
    return 2.0 * d_alpha(alpha) * N ** (2.0 - alpha) / (alpha * (2.0 - alpha))


def _tail_integral(tail, lo: float, hi: float, points=()) -> float:
    """int_lo^hi tail(s) ds for power-like tails, or an integrand of one
    sign that decays like a power (an M2 term may be negative).

    ``points`` lists known kinks of the tail (support edges, thresholds).
    Log substitution over wide ranges; the infinite remainder beyond
    s = lo * e^500 uses a power fit with locally measured exponent (exact
    for pure power tails, second-order for slowly varying corrections).
    """
    if hi <= lo:
        return 0.0
    inner = sorted(p for p in points if lo < p < hi)
    if inner:
        total = 0.0
        edges = [lo] + inner + [hi]
        for a, b in zip(edges[:-1], edges[1:]):
            total += _tail_integral(tail, a, b)
        return total
    total = 0.0
    if lo < 1e-12:
        mid = min(1.0, hi)
        val, _ = quad(tail, lo, mid, limit=200)
        total += val
        lo = mid
        if hi <= lo:
            return total
    if math.isinf(hi):
        W = min(500.0, 690.0 - math.log(lo))
        s_cut = lo if W <= 0.0 else lo * math.exp(W)
        if W > 0.0:
            val, _ = quad(lambda w: tail(math.exp(w)) * math.exp(w),
                          math.log(lo), math.log(s_cut), limit=400)
            total += val
        t1, t2 = tail(s_cut), tail(2.0 * s_cut)
        if t1 != 0.0 and 0.0 < t2 / t1 < 1.0:      # a decaying power of either sign
            g = math.log(t1 / t2) / math.log(2.0)
            if g > 1.0:
                total += s_cut * t1 / (g - 1.0)
        return total
    if hi / lo > 30.0:
        val, _ = quad(lambda w: tail(math.exp(w)) * math.exp(w),
                      math.log(lo), math.log(hi), limit=400)
        return total + val
    val, _ = quad(tail, lo, hi, limit=400)
    return total + val


def _one_sided_tail(spec: DistributionSpec, sgn: float, root: float, mu: float):
    """The scalar rule r -> P(sgn (xi - mu) > root r), any real r."""
    if sgn > 0.0:
        def tail(r):
            z = root * r + mu
            return spec.tail_pos(z) if z >= 0.0 else 1.0 - spec.tail_neg(-z)
    else:
        def tail(r):
            z = mu - root * r
            return spec.tail_neg(-z) if z <= 0.0 else 1.0 - spec.tail_pos(z)
    return tail


def _one_sided_kinks(spec: DistributionSpec, sgn: float, root: float, mu: float) -> list:
    """Where ``_one_sided_tail`` crosses the support edge or the model threshold."""
    return [(thr - sgn * mu) / root for thr in
            (spec.support_radius, -spec.support_radius, spec.a_thresh, -spec.a_thresh)]


def _one_sided_tail_moment(spec: DistributionSpec, sgn: float, root: float, mu: float,
                           t: float) -> float:
    """E[Y 1{Y > t}] for Y = sgn (xi - mu) / root and t > 0, via the
    tail-integral identity."""
    tail = _one_sided_tail(spec, sgn, root, mu)
    return t * tail(t) + _tail_integral(tail, t, math.inf,
                                        points=_one_sided_kinks(spec, sgn, root, mu))


def abs_tail_moment_zeta(spec: DistributionSpec, n: int, N: float) -> float:
    """E[|zeta| 1{|zeta| > N}] for one normalized summand zeta.

    zeta = ell^{-1/alpha}(xi - E xi); both signed tails enter.
    """
    _count("n", n)
    root = spec.ell(n) ** (1.0 / spec.alpha)
    mu = spec.mean
    return sum(_one_sided_tail_moment(spec, sgn, root, mu, N) for sgn in (1.0, -1.0))


def _k_closed_two_term(spec, n: int, t: float, N: float) -> float:
    """Closed-form K1 from the law's ``k1_power_terms`` (mean zero)."""
    alpha = spec.alpha
    ell = spec.ell(n)
    root = ell ** (1.0 / alpha)
    ta = abs(t)
    out = 0.0
    if ta <= N and root * N > 1.0:
        lo = max(ta, 1.0 / root)
        for coef, expo in spec.k1_power_terms:
            out += coef / (2.0 * ell ** (expo / alpha) * (expo - 1.0)) * (
                lo ** (1.0 - expo) - N ** (1.0 - expo)
            )
    return max(out, 0.0)


def _k_quadrature(spec, n: int, t: float, N: float) -> float:
    """K1 from the tail-integral identity (deterministic quadrature)."""
    ell = spec.ell(n)
    alpha = spec.alpha
    root = ell ** (1.0 / alpha)
    mu = spec.mean
    if abs(t) > N:
        return 0.0
    sgn = 1.0 if t >= 0.0 else -1.0
    zt = _one_sided_tail(spec, sgn, root, mu)
    a = abs(t)
    kinks = _one_sided_kinks(spec, sgn, root, mu)
    val = a * zt(a) - N * zt(N) + _tail_integral(zt, max(a, 1e-300), N, points=kinks)
    return max(val, 0.0)


def _k1_rule(spec: DistributionSpec):
    """The scalar K1 rule of the law: the closed form when it has
    ``k1_power_terms``, else the tail-integral identity."""
    return _k_quadrature if spec.k1_power_terms is None else _k_closed_two_term


_GAUSS3 = ((-math.sqrt(0.6), 5.0 / 9.0), (0.0, 8.0 / 9.0), (math.sqrt(0.6), 5.0 / 9.0))
_PROBE_MARGIN = 1e-5


def _k1_table(zt, grid: list) -> list:
    """K1(p) = p zt(p) - N zt(N) + int_p^N zt(s) ds at every point p of the
    increasing ``grid``, whose last point is N: the 3-point Gauss rule on
    each panel of the grid in w = log s (at most 0.07 wide between probes,
    good to about 1e-11 of the scale), summed from N down."""
    logs, top = [math.log(p) for p in grid], grid[-1] * zt(grid[-1])
    out, acc = [0.0] * len(grid), 0.0
    for i in range(len(grid) - 2, -1, -1):
        c, h = 0.5 * (logs[i] + logs[i + 1]), 0.5 * (logs[i + 1] - logs[i])
        for x, wt in _GAUSS3:
            acc += h * wt * zt(math.exp(c + h * x)) * math.exp(c + h * x)
        out[i] = max(grid[i] * zt(grid[i]) - top + acc, 0.0)
    return out


def _probe_values(spec, n: int, sgn: float, probes: list, kinks: list, a_kal, signed):
    """A value with the sign of signed(p) = a_kal(p) - n K1(sgn p) at every
    probe p of one side.  When the law's K1 rule is the nested quadrature,
    K1 comes from one ``_k1_table`` over the probes and ``kinks``, and
    signed(p) runs only where |a_kal - n K1| <= _PROBE_MARGIN (|a_kal| + n K1).
    The table's gap to the nested rule (that rule's own error) stays under a
    fifth of the margin (tests/test_kernels.py), so every sign is the rule's.
    """
    if _k1_rule(spec) is not _k_quadrature:
        return [signed(p) for p in probes]
    zt = _one_sided_tail(spec, sgn, spec.ell(n) ** (1.0 / spec.alpha), spec.mean)
    grid = sorted(set(probes).union(kinks))
    table = dict(zip(grid, _k1_table(zt, grid)))
    pairs = [(a_kal(p), n * table[p]) for p in probes]
    return [a - k if abs(a - k) > _PROBE_MARGIN * (abs(a) + k) else signed(p)
            for p, (a, k) in zip(probes, pairs)]


def k_function(spec: DistributionSpec, alpha: float, n: int, t, N: float):
    """Truncated K function of one normalized summand, the law's scalar
    rule (``_k1_rule``) mapped over t."""
    check_spec_alpha(spec, alpha)
    _count("n", n)
    if not (N > 0.0):
        raise DomainError(f"k_function requires N > 0, got {N}")
    rule = _k1_rule(spec)
    if isinstance(t, (int, float)):     # np.float64 too; loads no numpy
        return float(rule(spec, n, float(t), N))
    return _map_scalar(lambda tt: rule(spec, n, tt, N), t)


# ---------------------------------------------------------------------------
# L1 discrepancy
# ---------------------------------------------------------------------------

def _discrepancy_quadrature(spec: DistributionSpec, n: int, N: float) -> float:
    """(1/alpha) int_{-N}^{N} |alpha Kal - n K1| dt by panelized quadrature.

    The integrable singularity at t = 0 is handled analytically: K1 is
    constant on the support gap (symmetric laws), where the crossing point
    of alpha Kal with that constant has a closed form.  Every value (the
    sign roots, the pieces, the gap and the stub) uses the law's K1 rule;
    only the probe signs may come from a K1 table (``_probe_values``).
    """
    import numpy as np

    if math.isinf(N):
        raise DomainError("quadrature backend needs finite N")
    alpha = spec.alpha
    da = d_alpha(alpha)
    ell = spec.ell(n)
    k1 = _k1_rule(spec)

    def n_k(t):
        return n * k1(spec, n, t, N)

    def a_kal(t):
        return da / (alpha - 1.0) * (abs(t) ** (1.0 - alpha) - N ** (1.0 - alpha))

    def diff(t):
        return a_kal(t) - n_k(t)

    mu = spec.mean
    root = ell ** (1.0 / alpha)

    def one_side(sgn: float, lo: float) -> float:
        """int_lo^N |alpha Kal(t) - n K1(sgn t)| dt, integrated in log space.

        The substitution t = e^w removes the t^{1-alpha} dynamic range.  Sign
        changes of the difference are bracketed on a probe grid, signed by
        ``_probe_values`` (a K1 table outside a margin of zero); the signed
        difference is then integrated piecewise between breakpoints (sign
        roots plus structural kinks of K1), each piece being smooth and of
        one sign, and |piece values| are summed.
        """
        if N <= lo * (1.0 + 1e-15):
            return 0.0

        def signed(t):
            return diff(sgn * t)

        # kinks/jumps of K1: where the scaled argument crosses the
        # tail-model threshold, the support edge, or the origin
        kinks = [p for p in _one_sided_kinks(spec, sgn, root, mu) + [-sgn * mu / root]
                 if lo < p < N]
        probes = np.geomspace(lo, N, 400).tolist()
        vals = np.sign(_probe_values(spec, n, sgn, probes, kinks, a_kal, signed))
        cuts = set(kinks)
        for i in range(len(probes) - 1):
            if vals[i] != vals[i + 1] and vals[i] != 0 and vals[i + 1] != 0:
                try:
                    cuts.add(brentq(signed, probes[i], probes[i + 1], xtol=1e-14))
                except ValueError:
                    pass
        edges = [lo] + sorted(cuts) + [N]
        total_val = 0.0
        total_err = 0.0
        for a_lim, b_lim in zip(edges[:-1], edges[1:]):
            if b_lim <= a_lim * (1.0 + 1e-15):
                continue
            piece, err = quad(lambda w: signed(math.exp(w)) * math.exp(w),
                              math.log(a_lim), math.log(b_lim), limit=400)
            total_val += abs(piece)
            total_err += err
        if not total_err <= 1e-9 + 1e-6 * abs(total_val):     # a NaN fails too
            raise ConvergenceError(
                f"discrepancy quadrature reached only {total_err:.2e}",
                partial=total_val, achieved_tol=total_err,
            )
        return total_val

    symmetric_gap = spec.support_radius > 0.0 and spec.mean == 0.0
    total = 0.0
    if symmetric_gap:
        c = min(spec.support_radius * ell ** (-1.0 / alpha), N)
        k_gap = n_k(0.5 * c)

        def anti(t):
            # antiderivative of (alpha Kal - n K_gap) on (0, c]
            return da / (alpha - 1.0) * (
                t ** (2.0 - alpha) / (2.0 - alpha) - N ** (1.0 - alpha) * t
            ) - k_gap * t

        base = N ** (1.0 - alpha) + (alpha - 1.0) * k_gap / da
        t_star = base ** (-1.0 / (alpha - 1.0))
        if t_star >= c:
            total += 2.0 * anti(c)
        else:
            total += 2.0 * (2.0 * anti(t_star) - anti(c))
        total += 2.0 * one_side(1.0, c)
    else:
        lo = N * 1e-12
        # stub [-lo, lo]: stable-kernel mass minus the slowly varying n K1
        total += 2.0 * (da / (alpha - 1.0)) * (
            lo ** (2.0 - alpha) / (2.0 - alpha) - N ** (1.0 - alpha) * lo
        )
        total -= lo * (n_k(lo / 2.0) + n_k(-lo / 2.0))
        total += one_side(1.0, lo) + one_side(-1.0, lo)
    return total / alpha


def discrepancy_l1(spec: DistributionSpec, alpha: float, n: int, N: float,
                   backend: str = "auto") -> float:
    """sum_i int |Kal/n - K_i/alpha| dt for n i.i.d. normalized summands.

    A law's ``discrepancy_closed`` gives the closed form (exact for Pareto,
    the standard two-term upper estimate for ModifiedPareto and so
    HallTransform); the quadrature backend computes the exact integral for
    any law at finite N.
    """
    check_spec_alpha(spec, alpha)
    _count("n", n)
    if not (N > 0.0):
        raise DomainError(f"discrepancy_l1 requires N > 0, got {N}")
    if backend not in ("auto", "quadrature"):
        raise DomainError(f"unknown backend {backend!r}")
    if backend == "auto":
        closed = spec.discrepancy_closed(n, N)
        if closed is not None:
            return closed
        if math.isinf(N):
            raise DomainError(f"no closed-form discrepancy for {spec.describe()} at N = inf")
    return _discrepancy_quadrature(spec, n, N)


# ---------------------------------------------------------------------------
# norming threshold of the log-perturbed family
# ---------------------------------------------------------------------------

class ThresholdSolution(Record):
    value: float
    residual: float
    iterations: tuple


def solve_log_tail_scale(K0: float, x0: float, alpha: float, beta: float,
                         n: int) -> ThresholdSolution:
    """Solve A^alpha = K0 n (log A)^beta for the norming threshold A_n.

    beta = 0 is closed form.  Otherwise a fixed-point iteration
    A <- (K0 n (log A)^beta)^{1/alpha} stops at relative step 1e-14 or at
    a non-finite iterate; a residual above 1e-10 raises with the trace.
    A non-finite K0, x0 or beta raises DomainError, as does K0 <= 0.
    """
    if not (0.0 < K0 < math.inf):
        raise DomainError(f"solve_log_tail_scale requires a finite K0 > 0, got {K0}")
    if not (math.isfinite(x0) and math.isfinite(beta)):
        raise DomainError(
            f"solve_log_tail_scale requires a finite x0 and beta, got x0={x0}, beta={beta}"
        )
    _count("n", n)
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"alpha must be in (0, 2), got {alpha}")
    floor = max(x0, math.e)
    if beta == 0.0:
        a = (K0 * n) ** (1.0 / alpha)
        if a <= floor:
            raise DomainError(f"n={n} too small: A_n={a:.4g} <= max(x0, e)")
        return ThresholdSolution(a, 0.0, (a,))
    a = max(floor * 2.0, (K0 * n) ** (1.0 / alpha))
    trace = [a]
    for _ in range(200):
        nxt = (K0 * n * math.log(a) ** beta) ** (1.0 / alpha)
        nxt = max(nxt, floor * (1.0 + 1e-12))
        trace.append(nxt)
        if abs(nxt - a) <= 1e-14 * a or not math.isfinite(nxt):
            a = nxt
            break
        a = nxt
    residual = abs(a ** alpha / (K0 * n * math.log(a) ** beta) - 1.0)
    if not residual <= 1e-10:       # a NaN residual fails too
        raise ConvergenceError(
            f"threshold iteration stalled at residual {residual:.2e}",
            partial=a, achieved_tol=residual, trace=trace,
        )
    if a <= floor:
        raise DomainError(f"n={n} too small: A_n={a:.4g} <= max(x0, e)")
    return ThresholdSolution(a, residual, tuple(trace))
