"""Assembly of the explicit Wasserstein-1 bounds, rate orders and optimizers.

The master inequality bounds the W1 distance between the law of the
normalized sum S_n and the alpha-stable target by

    d_W <= D_alpha * [L1 discrepancy] + R_{N,n},

    R_{N,n} = truncation term
              + 4 d_alpha / ((alpha-1) N^{alpha-1})         (N term)
              + (D_{alpha,gamma}/n) sum_i E|zeta_i|^gamma   (gamma term)

valid for every truncation level N > 0 and every gamma in (0, 1).  One
assembly builds every report; its two public forms differ only in how they
bound the truncation term at finite N.  ``bound_main`` takes it exactly,

    2 sum_i E[|zeta_i| 1{|zeta_i| > N}].

``bound_mthm2``, for i.i.d. summands in the normal domain of attraction,
writes it through the law's tail model: the tail scale theta, the function
M2 and the safety factor delta_n = 1 - ell_n^{-1/alpha} N^{-1} |E xi|.  With
E xi = 0 the remainder reduces to

    R_{N,n} = D_{alpha,gamma} E|xi|^gamma ell_n^{-gamma/alpha}
              + 4 d_alpha ( (alpha+1)/(alpha-1) + M2(ell^{1/alpha} N)
              + int_1^inf M2(ell^{1/alpha} N r) r^{-alpha} dr ) N^{1-alpha}.

For the plain power law at N = inf the whole bound collapses to the closed form

    total(n, gamma) = D_alpha/(2-alpha) (2 d_alpha/alpha)^{2/alpha} n^{-(2-alpha)/alpha}
                    + alpha D_{alpha,gamma}/(alpha-gamma)
                      (2 d_alpha/alpha)^{gamma/alpha} n^{-gamma/alpha},

which regenerates the reference bound table at n = 10^6.  The 50-digit
test oracle ``hp_pareto_bound_total`` in ``tests/highprec.py`` implements
this formula; the table takes every cell from ``bound_main``.

N = inf is a first-class value: it is accepted exactly when every term has a
finite analytic limit (plain power law always; the two-term family only for
second exponent beta > 2), and rejected otherwise.

Every bound rejects alpha outside the one window [1.01, 1.99] of
``special.check_alpha_window``; the figure's alpha grid, 1.01 to 1.99, lies in it.

Everything here runs on Python floats, the optimal-gamma scan and its
bounded Brent refinement included, so a bound, a table or the figure loads
numpy only where a summand law's own rule needs an array function (the
log-perturbed tail's ``np.log``, the quadrature discrepancy's probe grid).
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

from ._record import Record
from .errors import DomainError
from .kernels import (
    DistributionSpec,
    ModifiedPareto,
    Pareto,
    RateOrder,
    ThresholdSolution,
    _count,
    _tail_integral,
    abs_tail_moment_zeta,
    check_spec_alpha,
    discrepancy_l1,
    solve_log_tail_scale,
)
from .special import (
    D_alpha,
    D_alpha_gamma,
    check_alpha_window,
    d_alpha,
)

__all__ = [
    "SteinBoundReport",
    "Example2Report",
    "RateOrder",
    "bound_main",
    "bound_mthm2",
    "rate_order",
    "example2_bound",
    "optimize_gamma",
    "log_example_A_n",
    "default_truncation",
    "constants_table_d",
    "constants_table_dgamma",
    "pareto_bound_table",
    "figure_gamma_curves",
    "FIGURE_CASES",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class SteinBoundReport(Record):
    """One assembled bound with its term breakdown.

    total = D_alpha * discrepancy_term + truncation_term + N_term + gamma_term
    holds exactly as assembled; rate_exponent / has_log_factor describe the
    leading decay of the bound in n for the given summand family.
    """

    alpha: float
    gamma: float
    n: int
    N: float
    discrepancy_term: float
    truncation_term: float
    N_term: float
    gamma_term: float
    total: float
    rate_exponent: float
    has_log_factor: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "n": self.n,
            "N": "inf" if math.isinf(self.N) else self.N,
            "terms": {
                "discrepancy": self.discrepancy_term,
                "truncation": self.truncation_term,
                "N_term": self.N_term,
                "gamma_term": self.gamma_term,
            },
            "total": self.total,
            "rate_exponent": self.rate_exponent,
            "has_log_factor": self.has_log_factor,
        }


class Example2Report(SteinBoundReport):
    """Two-term-family bound with the case split and displayed grouping."""

    case: int = 0
    q_exponent: Optional[float] = None
    leading_term: float = 0.0
    remainder_term: float = 0.0


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _validate_bound_args(alpha, gamma, n, N):
    check_alpha_window(alpha)
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    _count("n", n)
    if not (N > 0.0):
        raise DomainError(f"N must be positive (or inf), got {N}")


def default_truncation(spec: DistributionSpec, n: int):
    """The truncation level the family's analysis uses by default.

    Plain power law: inf.  Two-term family: inf for beta > 2, else
    N = ell_n^q with q = (2-alpha)/(alpha(alpha-1)) at beta = 2 and
    q = (beta-alpha)/(alpha(alpha+1-beta)) for beta in (alpha, 2).
    Log-perturbed tails: N = (log A_n)^{1/alpha}.  A law without a rule
    raises DomainError.
    """
    return spec.default_truncation(n)


# ---------------------------------------------------------------------------
# the assembly and its two truncation rules
# ---------------------------------------------------------------------------

def _assemble(spec: DistributionSpec, alpha: float, n: int, N: float, gamma: float,
              truncation) -> SteinBoundReport:
    """The bound whose truncation term at finite N is
    ``truncation(spec, alpha, n, N, n_term)``.

    The rule runs before the discrepancy and the gamma term, so a law it
    rejects costs none of their quadrature.  At N = inf, where the law
    admits it, the truncation and N terms take their limit 0.
    """
    check_spec_alpha(spec, alpha)
    _validate_bound_args(alpha, gamma, n, N)
    if math.isinf(N) and not spec.supports_infinite_truncation:
        raise DomainError(
            f"N = inf is not admissible for {spec.describe()}: "
            "the truncated terms have no finite limit"
        )
    if not math.isfinite(spec.mean):
        raise DomainError("summand law must have a finite first moment")
    if math.isinf(N):
        trunc = n_term = 0.0
    else:
        n_term = 4.0 * d_alpha(alpha) / ((alpha - 1.0) * N ** (alpha - 1.0))
        trunc = truncation(spec, alpha, n, N, n_term)
    disc = discrepancy_l1(spec, alpha, n, N)
    gam = D_alpha_gamma(alpha, gamma) * spec.ell(n) ** (-gamma / alpha) * \
        spec.abs_central_moment(gamma)
    total = D_alpha(alpha) * disc + trunc + n_term + gam
    if not math.isfinite(total):
        raise DomainError(f"the bound for {spec.describe()} is not finite: {total}")
    rate = spec.rate_order()
    return SteinBoundReport(
        alpha=alpha, gamma=gamma, n=int(n), N=N,
        discrepancy_term=disc, truncation_term=trunc, N_term=n_term, gamma_term=gam,
        total=total, rate_exponent=rate.exponent, has_log_factor=rate.has_log_factor,
    )


def _exact_truncation(spec, alpha, n, N, n_term):
    """2 n E[|zeta| 1{|zeta| > N}]."""
    return 2.0 * n * abs_tail_moment_zeta(spec, n, N)


def _m2_tail_integral(spec: DistributionSpec, scale: float, lo: float = 1.0) -> float:
    """int_lo^inf M2(r * scale) r^{-alpha} dr, through ``_tail_integral``."""
    alpha = spec.alpha
    return _tail_integral(lambda r: spec.m2(r * scale) * r ** -alpha, lo, math.inf)


def _tail_model_truncation(spec, alpha, n, N, n_term):
    """The truncation term written through the tail model (theta, M2).

    The symmetric remainder when E xi = 0, the delta_n form otherwise.  It
    bounds, rather than equals, the exact truncated expectation.
    """
    spec.theta      # a law without a tail scale raises DomainError here
    da = d_alpha(alpha)
    ell = spec.ell(n)
    root = ell ** (1.0 / alpha)
    mean = spec.mean
    if mean == 0.0:
        m2_at = spec.m2(root * N)
        m2_int = _m2_tail_integral(spec, root * N)
        return 4.0 * da * (alpha / (alpha - 1.0) + m2_at + m2_int) * N ** (1.0 - alpha)
    delta = 1.0 - ell ** (-1.0 / spec.alpha) / N * abs(mean)
    if delta <= 0.0:
        raise DomainError(
            f"delta_n <= 0: N={N} is too small for n={n}; "
            f"need N > {root ** -1.0 * abs(mean):.6g}"
        )
    m2_at = spec.m2(root * N * delta)
    m2_int_raw = _m2_tail_integral(spec, root * N, delta) / delta ** (1.0 - alpha)
    bracket = (1.0 + delta ** (alpha - 1.0)) / (alpha - 1.0) + 1.0 / delta \
        + m2_at / delta + m2_int_raw
    piece = 4.0 * da / delta ** (alpha - 1.0) * bracket * N ** (1.0 - alpha)
    return piece - n_term


def bound_main(spec: DistributionSpec, alpha: float, n: int, N: float,
               gamma: float) -> SteinBoundReport:
    """First assembly: exact per-law truncation accounting.

    N may be inf when the law supports it (every term then takes its
    analytic limit).
    """
    return _assemble(spec, alpha, n, N, gamma, _exact_truncation)


def bound_mthm2(spec: DistributionSpec, alpha: float, n: int, N: float,
                gamma: float) -> SteinBoundReport:
    """Second assembly: remainder written through the law's tail model.

    Reads ``theta``, ``m2``, ``mean`` and ``ell`` from the law; a tail model
    given by functions is a ``GeneralTail``.  The truncation piece bounds,
    rather than equals, the exact truncated expectation, so it is slightly
    larger than the first assembly's at finite N; both agree at N = inf.
    """
    return _assemble(spec, alpha, n, N, gamma, _tail_model_truncation)


# ---------------------------------------------------------------------------
# rate classification
# ---------------------------------------------------------------------------

def rate_order(spec: DistributionSpec) -> RateOrder:
    """Leading decay order of the assembled bound for a summand family.

    Plain power law and two-term beta > 2: n^{-(2-alpha)/alpha}.
    Two-term beta = 2: the same power times log n.
    Two-term beta in (alpha, 2): n^{-(alpha-1)(beta-alpha)/(alpha(1+alpha-beta))}.
    Power transform: via beta = alpha(c+1).
    Log-perturbed tails: (log n)^{-(1-1/alpha)}.
    Anything else is reported unclassified, not guessed.
    """
    return spec.rate_order()


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def constants_table_d(alphas: Sequence[float]) -> list:
    return [D_alpha(a) for a in alphas]


def constants_table_dgamma(alphas: Sequence[float], gammas: Sequence[float]) -> list:
    """Rows indexed by gamma, columns by alpha."""
    return [[D_alpha_gamma(a, g) for a in alphas] for g in gammas]


def pareto_bound_table(n: int, alphas: Sequence[float], gammas: Sequence[float]) -> list:
    """Bound totals for the plain power law at N = inf on a (gamma x alpha)
    grid, each cell from ``bound_main``."""
    return [[bound_main(Pareto(a), a, n, math.inf, g).total for a in alphas] for g in gammas]


# ---------------------------------------------------------------------------
# two-term family cases
# ---------------------------------------------------------------------------

def example2_bound(A: float, B: float, alpha: float, beta: float, gamma: float,
                   n: int) -> Example2Report:
    """Bound for the two-term power family with the case-split bookkeeping.

    N is the law's ``default_truncation``: inf in case 1 (beta > 2), else
    ell^q with q = (2-alpha)/(alpha(alpha-1)) in case 2 (beta = 2) and
    q = (beta-alpha)/(alpha(alpha+1-beta)) in case 3 (alpha < beta < 2).
    leading_term + remainder_term regroups the same total as displayed in
    the per-case closed forms.
    """
    spec = ModifiedPareto(alpha=alpha, beta=beta, A=A, B=B)
    da = d_alpha(alpha)
    Da = D_alpha(alpha)
    ell = spec.ell(n)
    case, q = spec.truncation_case()
    base = bound_mthm2(spec, alpha, n, spec.default_truncation(n), gamma)
    if case == 1:
        leading = (2.0 * da * Da / alpha) * (
            1.0 / (2.0 - alpha) + B / (A * (beta - 2.0))
        ) * ell ** (-(2.0 - alpha) / alpha)
    elif case == 2:
        leading = (2.0 * da * Da * B * (alpha * q + 1.0) / (alpha ** 2 * A)) * \
            ell ** (-(2.0 - alpha) / alpha) * math.log(ell)
    else:
        e_star = (beta - alpha) * (alpha - 1.0) / (alpha * (alpha + 1.0 - beta))
        leading = 2.0 * da * (
            Da * B / (A * (2.0 - beta) * alpha) + 2.0 * (alpha + 1.0) / (alpha - 1.0)
        ) * ell ** (-e_star)
    return Example2Report(**base._asdict(), case=case, q_exponent=q, leading_term=leading,
                          remainder_term=base.total - leading)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

# np.linspace(0.01, 0.99, 99) bit for bit: 0.01 + i * step, the end point exact
_GAMMA_SCAN = tuple(i * ((0.99 - 0.01) / 98) + 0.01 for i in range(98)) + (0.99,)
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _step_sign(r):
    """scipy's ``np.sign(r) + (r == 0)``: 1 for r >= 0, either zero included,
    -1 for r < 0, and r itself for a NaN."""
    return 1.0 if r >= 0.0 else -1.0 if r < 0.0 else r


def _minimize_bounded(func, a, b) -> tuple:
    """Brent's bounded minimization of ``func`` on [a, b]: (x, func(x)).

    Step for step scipy's bounded scalar minimizer with ``xatol=1e-6``, its
    constants and its 500-evaluation cap, so the bits are scipy's
    (``TestBoundedMinimizerParity`` in ``tests/test_bounds.py``).  The
    arithmetic keeps the type of the bounds: Python float bounds give
    ``func`` Python floats, numpy float bounds numpy floats, as under scipy.
    """
    nfc = xf = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + 1e-6 / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:     # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # a parabola is taken only when q != 0, so the division is safe
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * _step_sign(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + 1e-6 / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


@functools.lru_cache(maxsize=256)
def _holder_scan(alpha: float) -> tuple:
    """D_alpha_gamma(alpha, g) on the scan grid, shared by every law and n."""
    return tuple(D_alpha_gamma(alpha, g) for g in _GAMMA_SCAN)


def optimize_gamma(spec: DistributionSpec, alpha: float, n: int, N):
    """Minimize the bound total over gamma.

    A 99-point scan locates the basin and a bounded scalar minimization
    refines it (the scan guards against spurious local minima).
    The scan's Holder constants depend on alpha alone and are memoized per
    float(alpha) (a bounded, thread-safe ``functools.lru_cache``).
    Returns (gamma_star, total_star).
    """
    if N == "auto":
        N = default_truncation(spec, n)

    # everything except the gamma term is gamma-independent; assemble once
    base = bound_main(spec, alpha, n, N, 0.5)
    fixed = base.total - base.gamma_term
    ell_pow = spec.ell(n) ** (-1.0 / alpha)

    def total(g: float, holder=None) -> float:
        if holder is None:
            holder = D_alpha_gamma(alpha, g)
        return fixed + holder * ell_pow ** g * spec.abs_central_moment(g)

    grid = _GAMMA_SCAN
    values = [total(g, d) for g, d in zip(grid, _holder_scan(float(alpha)))]
    # np.argmin's index: the first NaN if there is one, else the first minimum
    idx = min(range(len(values)), key=lambda i: (values[i] == values[i], values[i]))
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]
    g_star, t_star = map(float, _minimize_bounded(total, lo, hi))
    if values[idx] < t_star:
        g_star, t_star = grid[idx], values[idx]
    return g_star, t_star


# The four reference configurations of the optimal-gamma figure: the plain
# power law and three two-term configurations with A = B.
def _figure_specs(alpha: float):
    b4 = 4.0
    case2 = ModifiedPareto(alpha, b4, A=alpha * b4 / (alpha + b4), B=alpha * b4 / (alpha + b4))
    case3 = ModifiedPareto(alpha, 2.0, A=2.0 * alpha / (alpha + 2.0), B=2.0 * alpha / (alpha + 2.0))
    b5 = alpha + 0.1
    case4 = ModifiedPareto(alpha, b5, A=alpha * b5 / (alpha + b5), B=alpha * b5 / (alpha + b5))
    return (Pareto(alpha), case2, case3, case4)


FIGURE_CASES = (
    "pareto",
    "two_term_beta4_AeqB",
    "two_term_beta2_AeqB",
    "two_term_beta_alpha_plus_0.1_AeqB",
)


def figure_gamma_curves(n: int = 10 ** 6) -> list:
    """Rows (alpha, gamma*_case1..4): optimal gamma for the four reference
    configurations, alpha on the grid 1 + j/100, j = 1..99, on one thread
    (the optimizer runs on Python floats, so threads would share the GIL)."""
    def one_row(a: float) -> tuple:
        return (a,) + tuple(optimize_gamma(spec, a, n, "auto")[0] for spec in _figure_specs(a))

    return [one_row(1.0 + j / 100.0) for j in range(1, 100)]


# ---------------------------------------------------------------------------
# norming threshold of the log-perturbed family
# ---------------------------------------------------------------------------

def log_example_A_n(K0: float, x0: float, alpha: float, beta: float,
                    n: int) -> ThresholdSolution:
    """Norming threshold A_n with n / A_n^alpha = 1 / (K0 (log A_n)^beta).

    beta = 0 is returned in closed form, (K0 n)^{1/alpha}.  Residual is
    relative on the defining equation, at most 1e-10 on success; failure
    raises with the iterate trace.
    """
    return solve_log_tail_scale(K0, x0, alpha, beta, n)
