"""Symmetric alpha-stable density, derivatives, CDF and quantile.

The reference law has characteristic function exp(-|lambda|^alpha); its
density, derivatives and CDF are recovered by Fourier inversion:

    p(x)   = I_0(x) / pi         I_theta(x) = int_0^inf  l^theta e^{-l^alpha} cos(l x) dl
    p'(x)  = -J_1(x) / pi        J_theta(x) = int_0^inf  l^theta e^{-l^alpha} sin(l x) dl
    p''(x) = -I_2(x) / pi
    F(x)   = 1/2 + J_{-1}(x) / pi

Quadrature strategy: one engine, ``_fourier_integral``, for a float x or an
array of x.  It truncates at lambda_max = (-ln eps)^{1/alpha}, eps = 1e-18,
refines dyadically toward lambda = 0 (e^{-l^alpha} has unbounded higher
derivatives there, and l^theta is singular for theta < 0) with the stub
from its local power-law expansion, and beyond spans half periods of the
trigonometric factor at the top of a ladder rung of |x|.  All x on a rung
share its node set, so a grid is a few trig(outer(x, nodes)) products of
at most 2^16 entries.  The quantile table's tail knots (x > 8) come from
the asymptotic tail series of F, by quadrature only where the series
cannot give F to the last bit (alpha near 2, x near 8).  Beyond |x| = 2000
F, p, p' and p'' come from that series, at a cost that does not grow.

The law is the paper's target at unit scale; there is no scale parameter.
Pure evaluation is thread-safe.  The quantile cache is built once per alpha
and is read-only afterwards, apart from its memo of quantiles at cell nodes
(see ``QuantileTable.cell_quantiles``).
"""

from __future__ import annotations

import functools
import math
import threading

from ._quad import brentq, gl_rule, panel_nodes
from ._record import Record
from .errors import DomainError
from .special import d_alpha

__all__ = [
    "StableLaw",
    "osc_integral_I",
    "osc_integral_J",
    "density",
    "density_deriv",
    "cdf",
    "quantile",
    "verify_hk_bounds",
    "HeatKernelMargins",
    "QuantileTable",
    "quantile_table",
]

_EPS_TRUNC = 1e-18
_LOG_EPS = -math.log(_EPS_TRUNC)
# direct quadrature is used up to this |x|; beyond, the CDF, the density and
# its derivatives come from the tail series (``_tail_series``,
# ``_tail_density``), which always reaches its tolerance there
_TAIL_SWITCH = 2000.0
# the tail series stands in for quadrature where its smallest term is at most
# this: far below half an ulp of F near 1
_SERIES_TOL = 1e-17


class StableLaw(Record):
    """Symmetric alpha-stable law with characteristic function e^{-|l|^alpha}."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"StableLaw requires alpha in (0, 2), got {self.alpha}")


def _lambda_max(alpha: float) -> float:
    return _LOG_EPS ** (1.0 / alpha)


def _node_set(xabs: float, theta: float, alpha: float):
    """Stub a, nodes l and weights l^theta e^{-l^alpha} w of the rule on
    (0, lambda_max] for |x| <= xabs: dyadic toward 0, then half periods."""
    import numpy as np

    lam_max = _lambda_max(alpha)
    base = min(lam_max / 8.0, math.pi / xabs) if xabs > 0.0 else lam_max / 8.0
    count = int(math.ceil((lam_max - base) / base))
    edges = np.empty(51 + count)
    edges[:51] = base / (2.0 ** np.arange(50, -1, -1))
    edges[0] = stub = base * 2.0 ** -50
    # np.linspace(base, lam_max, count + 1)[1:], without its overhead
    edges[51:] = np.arange(1.0, count + 1) * ((lam_max - base) / count) + base
    edges[-1] = lam_max
    nodes, g = panel_nodes(edges)
    g *= np.exp(-nodes ** alpha)
    if theta == -1.0:       # the CDF's 1/l: a division costs half a power
        g /= nodes
    elif theta:
        g *= nodes ** theta
    return stub, nodes, g


def _fourier_integral(theta: float, x, alpha: float, kind: str):
    """Int over (0, inf) of l^theta e^{-l^alpha} trig(l x), trig = cos or sin
    (``kind``), at a float x or at each entry of an array x.

    x uses the node set of rung k = ceil(K |x| / S) (k = 0 below 8 S / K),
    laid out for |x| = k S / K, with S = ``_TAIL_SWITCH`` and K the half
    periods of trig(l S) up to lambda_max, so its value does not depend on
    the rest of an array.  An array uses each rung's set in products of at
    most 2^16 entries (one row where one x needs more).
    """
    import numpy as np

    top = math.ceil(_lambda_max(alpha) * _TAIL_SWITCH / math.pi)

    def integral(x, rule):
        a, nodes, g = rule
        t = x * nodes if isinstance(x, float) else np.multiply.outer(x, nodes)
        (np.cos if kind == "cos" else np.sin)(t, out=t)
        t *= g
        # numpy's pairwise sum of a row does not depend on the other rows
        total = np.add.reduce(t, axis=-1)
        # stub [0, a]: local expansion e^{-l^a} trig = trig - l^alpha trig + ...
        if kind == "cos":
            total = total + (a ** (theta + 1.0) / (theta + 1.0)
                             - a ** (theta + 1.0 + alpha) / (theta + 1.0 + alpha))
            return total - x * x * a ** (theta + 3.0) / (2.0 * (theta + 3.0))
        return total + x * a ** (theta + 2.0) / (theta + 2.0)

    if not getattr(x, "ndim", 0):
        v = top / _TAIL_SWITCH * abs(x)
        rung = math.ceil(v) if v > 8.0 else 0       # NaN: rung 0
        return float(integral(x, _node_set(_TAIL_SWITCH * rung / top, theta, alpha)))
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    v = top / _TAIL_SWITCH * np.abs(flat)
    rungs = np.where(v > 8.0, np.ceil(v), 0.0)
    out = np.empty(flat.size)
    for rung in np.unique(rungs).tolist():
        at = np.flatnonzero(rungs == rung)
        shared = _node_set(_TAIL_SWITCH * int(rung) / top, theta, alpha)
        step = max(1, 2 ** 16 // shared[1].size)
        for a in range(0, at.size, step):
            out[at[a:a + step]] = integral(flat[at[a:a + step]], shared)
    return out.reshape(x.shape)


def _check_osc(who: str, theta: float, alpha: float) -> None:
    if not (theta > -1.0):
        raise DomainError(f"{who} requires theta > -1, got {theta}")
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"{who} requires alpha in (0, 2), got {alpha}")


def osc_integral_I(theta: float, x, alpha: float):
    """I_theta(x) = int_0^inf l^theta e^{-l^alpha} cos(l x) dl, theta > -1.

    Satisfies |I_theta(x)| <= Gamma((theta+1)/alpha)/alpha for all x.
    """
    _check_osc("osc_integral_I", theta, alpha)
    return _fourier_integral(theta, x, alpha, "cos")


def osc_integral_J(theta: float, x, alpha: float):
    """J_theta(x) = int_0^inf l^theta e^{-l^alpha} sin(l x) dl, theta > -1."""
    _check_osc("osc_integral_J", theta, alpha)
    return _fourier_integral(theta, x, alpha, "sin")


def _by_region(x, near, far):
    """near(x) to |x| = ``_TAIL_SWITCH`` (an array's at once), far(x) beyond."""
    import numpy as np

    if not getattr(x, "ndim", 0):
        return far(x) if abs(x) > _TAIL_SWITCH else near(x)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    outer = np.abs(x) > _TAIL_SWITCH        # NaN is near: the engine gives NaN
    if not outer.all():
        out[~outer] = near(x[~outer])
    out[outer] = [far(v) for v in x[outer].tolist()]
    return out


def _density1(x, alpha: float, order: int = 0):
    """p, p' or p'' (order 0, 1, 2) at a float or an array x: p = I_0(x)/pi,
    p' = -J_1(x)/pi, p'' = -I_2(x)/pi; beyond the switch, p^(order) =
    -F_bar^(order + 1) (p is symmetric) from the tail series, whose work
    does not grow with |x|; the value is 0 at +-inf."""

    def near(v):
        if order == 1:
            return -_fourier_integral(1.0, v, alpha, "sin") / math.pi
        val = _fourier_integral(float(order), abs(v), alpha, "cos") / math.pi
        return -val if order else val

    def far(v):
        val = _tail_series(abs(v), alpha, order + 1) * abs(v) ** -(order + 1)
        return -val if order == 1 and v > 0 else val

    return _by_region(x, near, far)


def _cdf1(x, alpha: float):
    """F at a float or an array x: 1/2 + J_{-1}(x)/pi in [0, 1], the tail
    series beyond the switch."""

    def near(v):
        val = 0.5 + _fourier_integral(-1.0, v, alpha, "sin") / math.pi
        return min(max(val, 0.0), 1.0) if isinstance(val, float) else val.clip(0.0, 1.0)

    return _by_region(x, near, lambda v: (1.0 - _tail_series(v, alpha) if v > 0
                                          else _tail_series(-v, alpha)))


def _tail_series(x: float, alpha: float, d: int = 0) -> float | None:
    """Upper tail 1 - F(x) of the law from its asymptotic series, or None.

        F_bar(x) = (1/pi) sum_{k>=1} (-1)^{k+1} Gamma(alpha k)/k! sin(pi alpha k/2) x^{-alpha k}

    (Zolotarev, One-dimensional Stable Distributions, 1986).  It diverges for
    alpha > 1, so it is summed up to, not including, the smallest of the term
    sizes Gamma(alpha k)/(pi k!) x^{-alpha k}, or the first size below
    ``_SERIES_TOL`` / 1024, far under an ulp of F.  Returns None when the
    smallest size exceeds ``_SERIES_TOL``: then the series cannot give F to
    the last bit.

    With d > 0 each term is differentiated d times and the sum is returned
    without its common factor (-1)^d x^{-d}: term k gains the factor
    (alpha k)(alpha k + 1)...(alpha k + d - 1), and so does its size.
    """
    lx = alpha * math.log(x)

    def size_of(k: int) -> float:
        raw = math.exp(math.lgamma(alpha * k) - math.lgamma(k + 1) - k * lx) / math.pi
        return raw * math.prod(alpha * k + j for j in range(d))

    total = 0.0
    k = 1
    size = size_of(1)
    while size > _SERIES_TOL * 2.0 ** -10:
        nxt = size_of(k + 1)
        if nxt >= size:
            return None if size > _SERIES_TOL else total
        total += (size if k % 2 else -size) * math.sin(0.5 * math.pi * alpha * k)
        size = nxt
        k += 1
    return total


def density(law: StableLaw, x):
    """Density of the law (positive, symmetric) at a float or an array x."""
    return _density1(x, law.alpha)


def density_deriv(law: StableLaw, x, order: int):
    """First or second derivative of the density at a float or an array x."""
    if order not in (1, 2):
        raise DomainError(f"density_deriv order must be 1 or 2, got {order}")
    return _density1(x, law.alpha, order)


def cdf(law: StableLaw, x):
    """Distribution function of the law at a float or an array x."""
    return _cdf1(x, law.alpha)


def quantile(law: StableLaw, u: float) -> float:
    """Inverse CDF; u strictly inside (0, 1).

    Bracketing from the power-tail asymptotic, then a bracketed root solve on
    the CDF followed by two density-accelerated correction steps.
    """
    if not (0.0 < u < 1.0):
        raise DomainError(f"quantile requires u strictly in (0, 1), got {u}")
    if u == 0.5:
        return 0.0
    flip = u < 0.5
    uu = 1.0 - u if flip else u
    alpha = law.alpha
    ubar = 1.0 - uu
    c = d_alpha(alpha) / alpha
    hi = max(1.0, 1.5 * (c / ubar) ** (1.0 / alpha))
    while _cdf1(hi, alpha) < uu:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover
            raise DomainError("quantile bracket expansion failed")
    x = brentq(lambda t: _cdf1(t, alpha) - uu, 0.0, hi, xtol=1e-9, rtol=1e-13)
    for _ in range(2):
        p = _density1(x, alpha)
        if p <= 0.0:
            break
        x -= (_cdf1(x, alpha) - uu) / p
    return -x if flip else x


class HeatKernelMargins(Record):
    """Worst-case slack of the four derivative bounds over a grid.

    For the unit-scale density p the bounds checked are
        |p'(x)|  <= 1/(alpha pi)          |p'(x)|  <= (2 alpha + 1)/(pi x^2)
        |p''(x)| <= 2/(alpha pi)          |p''(x)| <= (2 alpha + 6)/(pi x^2)
    Each margin is min over the grid of (bound - |derivative|); nonnegative
    margins mean the inequality held everywhere.  The quadratic-decay margins
    skip x = 0 where the bound is infinite.
    """

    deriv1_uniform: float
    deriv1_quadratic: float
    deriv2_uniform: float
    deriv2_quadratic: float

    def worst(self) -> float:
        return min(self._astuple())


def verify_hk_bounds(alpha: float, x_grid) -> HeatKernelMargins:
    """Evaluate the four derivative-bound margins on a grid of points."""
    import numpy as np

    if not (1.0 < alpha < 2.0):
        raise DomainError(f"verify_hk_bounds requires alpha in (1, 2), got {alpha}")
    xs = np.asarray(list(x_grid), dtype=float)
    if not (xs.size and np.all(np.isfinite(xs))):
        raise DomainError("x_grid must contain finite points, at least one")
    p1, p2 = np.abs(_density1(xs, alpha, 1)), np.abs(_density1(xs, alpha, 2))
    off = xs != 0.0
    pxx = math.pi * xs[off] * xs[off]
    return HeatKernelMargins(
        float(1.0 / (alpha * math.pi) - p1.max()),
        float(np.min((2.0 * alpha + 1.0) / pxx - p1[off], initial=math.inf)),
        float(2.0 / (alpha * math.pi) - p2.max()),
        float(np.min((2.0 * alpha + 6.0) / pxx - p2[off], initial=math.inf)))


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant through (x[k], y[k]).

    ``x`` is strictly increasing and finite, with at least three knots.
    Slopes, cubic coefficients and evaluation repeat, step for step, the
    arithmetic of scipy's PCHIP interpolator built with ``extrapolate=False``,
    so the values are scipy's bit for bit (``TestPchipParity`` in
    ``tests/test_density.py`` checks coefficients and values against scipy).
    Points outside [x[0], x[-1]] give NaN.  Read-only after construction:
    each call allocates its own scratch, so threads may share one instance.
    """

    _CHUNK = 8192       # points per evaluation pass; bounds the scratch memory

    def __init__(self, x, y):
        import numpy as np

        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        hk = x[1:] - x[:-1]
        mk = (y[1:] - y[:-1]) / hk
        # interior slopes: the weighted harmonic mean of the neighbouring
        # secants, 0 where they differ in sign or either is flat
        smk = np.sign(mk)
        flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
        w1 = 2 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2 * hk[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
            dk = np.concatenate([[0.0], np.where(flat, 0.0, 1.0 / whmean), [0.0]])
        dk[0] = self._edge_slope(hk[0], hk[1], mk[0], mk[1])
        dk[-1] = self._edge_slope(hk[-1], hk[-2], mk[-1], mk[-2])
        # Hermite cubic on [x[k], x[k+1]]: c0 s^3 + c1 s^2 + c2 s + c3
        t = (dk[:-1] + dk[1:] - 2 * mk) / hk
        self.c = (t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1])

    @staticmethod
    def _edge_slope(h0, h1, m0, m1):
        """One-sided three-point slope, kept shape-preserving."""
        import numpy as np

        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and np.abs(d) > 3.0 * np.abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, v):
        import numpy as np

        v = np.asarray(v, dtype=float).ravel()
        x = self.x
        c0, c1, c2, c3 = self.c
        out = np.empty_like(v)
        s_buf, p_buf, t_buf = (np.empty(min(v.size, self._CHUNK)) for _ in range(3))
        for a in range(0, v.size, self._CHUNK):
            vc = v[a:a + self._CHUNK]
            r = out[a:a + vc.size]
            s, p, t = s_buf[:vc.size], p_buf[:vc.size], t_buf[:vc.size]
            # interval i with x[i] <= v < x[i+1], the last one closed
            i = np.searchsorted(x, vc, side="right")
            i -= 1
            np.clip(i, 0, x.size - 2, out=i)
            np.take(x, i, out=s)
            np.subtract(vc, s, out=s)
            s[~((vc >= x[0]) & (vc <= x[-1]))] = np.nan     # outside the knots: NaN
            # c3 + c2 s, then + c1 (s s), then + c0 ((s s) s), as scipy's PPoly
            np.take(c3, i, out=r)
            np.copyto(p, s)
            for k, c in enumerate((c2, c1, c0)):
                if k:
                    p *= s
                np.take(c, i, out=t)
                t *= p
                r += t
        return out


class QuantileTable:
    """Monotone interpolated inverse CDF for bulk Monte-Carlo use.

    A PCHIP interpolant of x -> F(x) on a dense grid: step 0.02 up to x = 8
    by direct quadrature, then 260 log-spaced points up to x = 2000 from the
    tail series (``_tail_series``), by quadrature at the points where its
    smallest term exceeds ``_SERIES_TOL``.  Beyond the covered probability
    range the power-tail asymptotic
    Q(u) = (c/(1-u))^{1/alpha} takes over.  The interpolant is the in-house
    ``_Pchip``, equal bit for bit to scipy's PCHIP interpolator on these
    knots (``TestPchipParity`` in ``tests/test_density.py``), so building
    and reading the table loads no scipy.  Built once, then read-only;
    cheap to evaluate on large arrays.
    """

    _CELLS = 2048       # cells per evaluation in cell_quantiles

    def __init__(self, alpha: float):
        import numpy as np

        StableLaw(alpha)        # rejects an alpha outside (0, 2)
        self.alpha = alpha
        self.tail_c = d_alpha(alpha) / alpha  # P(X > x) ~ tail_c x^{-alpha}
        core = np.arange(0.0, 8.0 + 0.02 / 2, 0.02)
        tail = np.geomspace(8.0 * 1.05, _TAIL_SWITCH, 260)
        xs = np.concatenate([core, tail])
        # one inversion for the core knots and where the series falls short
        f_bar = np.array([_tail_series(x, alpha) for x in tail.tolist()], dtype=float)
        fs = np.concatenate([np.full(core.size, math.nan), 1.0 - f_bar])
        short = np.isnan(fs)
        fs[short] = _cdf1(xs[short], alpha)
        keep = np.concatenate([[True], np.diff(fs) > 0.0])
        xs, fs = xs[keep], fs[keep]
        self.u_hi = float(fs[-1])
        self._inv = _Pchip(fs, xs)
        self.cell_quantiles = functools.lru_cache(maxsize=4)(self._cell_quantiles)

    def __call__(self, u):
        import numpy as np

        u = np.asarray(u, dtype=float)
        v = np.where(u >= 0.5, u, 1.0 - u)
        inside = v <= self.u_hi
        x = np.empty_like(v)
        x[inside] = self._inv(v[inside])
        out = ~inside
        x[out] = (self.tail_c / (1.0 - v[out])) ** (1.0 / self.alpha)
        x = np.where(u >= 0.5, x, -x)
        return x if x.ndim else float(x)

    def _cell_quantiles(self, m: int):
        """Q at the 4-point Gauss-Legendre nodes of the cells [(i-1)/m, i/m] it covers.

        Returns (i_lo, i_hi, q, w): the covered cells i_lo..i_hi (1-based),
        q of shape (cells, 4), and the rule weights scaled to one cell.
        The first and last cell are never covered: they hold the quantile
        singularity, where a fixed Gauss rule underestimates.  Exposed as
        ``cell_quantiles``, memoized for the last few m: a
        one-sample W1 statistic and its jackknife use only a few sizes.
        """
        import numpy as np

        i_lo = int(math.ceil((1.0 - self.u_hi) * m)) + 1    # first fully covered cell
        i_hi = int(math.floor(self.u_hi * m))               # last fully covered cell
        i_lo = min(max(i_lo, 2), m + 1)
        i_hi = min(i_hi, m - 1)
        nodes, weights = gl_rule(4)
        width = 1.0 / m
        q = np.empty((max(i_hi - i_lo + 1, 0), 4))
        for a in range(0, len(q), self._CELLS):     # a bounded working set
            left = (i_lo - 1 + np.arange(a, min(a + self._CELLS, len(q)))) / m
            u_nodes = left[:, None] + width * 0.5 * (nodes[None, :] + 1.0)
            q[a:a + left.size] = self(u_nodes.ravel()).reshape(u_nodes.shape)
        w = weights * width * 0.5
        q.flags.writeable = w.flags.writeable = False    # shared by every caller
        return i_lo, i_hi, q, w


_table_cache: dict = {}
_table_lock = threading.Lock()


def quantile_table(alpha: float) -> QuantileTable:
    """Shared per-alpha quantile cache (single writer, many readers)."""
    key = float(alpha)
    tab = _table_cache.get(key)
    if tab is None:
        with _table_lock:
            tab = _table_cache.get(key)
            if tab is None:
                tab = QuantileTable(alpha)
                _table_cache[key] = tab
    return tab
