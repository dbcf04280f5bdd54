"""Assembled bounds, case splits, rate orders, optimizers, threshold solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_stein.bounds import (
    bound_main,
    bound_mthm2,
    default_truncation,
    example2_bound,
    figure_gamma_curves,
    log_example_A_n,
    optimize_gamma,
    pareto_bound_table,
    rate_order,
)
from stable_stein.errors import DomainError
from stable_stein.kernels import (
    GeneralTail,
    HallTransform,
    LogPerturbedPareto,
    ModifiedPareto,
    Pareto,
)
from stable_stein.special import D_alpha, D_alpha_gamma, d_alpha

from bound_slope import bound_total_slope
from highprec import hp_pareto_bound_total
from reference_tables import BOUND_ANCHOR_CELLS


def equal_weight_mp(alpha, beta):
    w = alpha * beta / (alpha + beta)
    return ModifiedPareto(alpha, beta, A=w, B=w)


class TestBoundMain:
    def test_pareto_equals_closed_form(self):
        for (alpha, gamma, n) in [(1.5, 0.5, 10 ** 6), (1.1, 0.1, 10 ** 4),
                                  (1.9, 0.9, 10 ** 8)]:
            rep = bound_main(Pareto(alpha), alpha, n, math.inf, gamma)
            assert rep.total == pytest.approx(
                float(hp_pareto_bound_total(alpha, gamma, n)), rel=1e-13)

    def test_assembly_identity(self):
        rep = bound_main(Pareto(1.5), 1.5, 10 ** 5, 20.0, 0.4)
        lhs = D_alpha(1.5) * rep.discrepancy_term + rep.truncation_term + \
            rep.N_term + rep.gamma_term
        assert rep.total == pytest.approx(lhs, rel=1e-15)
        assert rep.total >= 0.0

    def test_anchor_cells(self):
        for alpha, gamma, printed in BOUND_ANCHOR_CELLS:
            assert float(hp_pareto_bound_total(alpha, gamma, 10 ** 6)) == pytest.approx(
                printed, abs=5e-3)

    def test_pareto_truncation_closed_form(self):
        # exact truncated expectation: 2 n E|zeta|1 = 4 d/(alpha-1) N^{1-alpha}
        alpha, n, N = 1.5, 10 ** 4, 7.0
        rep = bound_main(Pareto(alpha), alpha, n, N, 0.5)
        expect = 4.0 * d_alpha(alpha) / (alpha - 1.0) * N ** (1.0 - alpha)
        assert rep.truncation_term == pytest.approx(expect, rel=1e-10)
        assert rep.N_term == pytest.approx(expect, rel=1e-13)

    def test_monotone_decreasing_in_n(self):
        totals = [bound_main(Pareto(1.5), 1.5, n, math.inf, 0.5).total
                  for n in [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_N_term_monotone(self):
        r1 = bound_main(Pareto(1.5), 1.5, 10 ** 4, 5.0, 0.5)
        r2 = bound_main(Pareto(1.5), 1.5, 10 ** 4, 50.0, 0.5)
        assert r2.N_term < r1.N_term
        assert r2.N_term == pytest.approx(
            4.0 * d_alpha(1.5) / 0.5 / 50.0 ** 0.5, rel=1e-13)

    def test_finite_N_converges_to_infinite(self):
        ref = bound_main(Pareto(1.5), 1.5, 10 ** 4, math.inf, 0.5).total
        prev_gap = None
        for N in [10.0, 100.0, 1000.0]:
            tot = bound_main(Pareto(1.5), 1.5, 10 ** 4, N, 0.5).total
            gap = tot - ref
            assert gap > 0.0
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_infinite_N_rejected_for_unsupported(self):
        with pytest.raises(DomainError):
            bound_main(equal_weight_mp(1.5, 1.8), 1.5, 1000, math.inf, 0.5)
        with pytest.raises(DomainError):
            bound_main(LogPerturbedPareto(1.5, 1.0, x0=5.0), 1.5, 1000, math.inf, 0.5)

    def test_alpha_window(self):
        # a valid law whose alpha lies below the window [1.01, 1.99]
        with pytest.raises(DomainError, match="window"):
            bound_main(Pareto(1.005), 1.005, 100, math.inf, 0.5)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            bound_main(Pareto(1.5), 1.5, 100, math.inf, 1.0)

    def test_log_perturbed_with_default_truncation(self):
        spec = LogPerturbedPareto(1.5, 1.0, x0=5.0)
        n = 10 ** 5
        N = default_truncation(spec, n)
        assert N == pytest.approx(math.log(spec.solve_threshold(n)) ** (1.0 / 1.5))
        rep = bound_main(spec, 1.5, n, N, 0.5)
        assert rep.total > 0.0 and math.isfinite(rep.total)

    def test_non_finite_total_is_a_domain_error(self):
        # theta = A/alpha is 7e-301: the closed discrepancy runs out of range
        spec = ModifiedPareto(1.5, 3.0, A=1e-300, B=3.0)
        with pytest.raises(DomainError, match="not finite"):
            bound_main(spec, 1.5, 10 ** 6, 1.01, 0.9)


class TestBoundMthm2:
    @pytest.mark.parametrize("lo", [1.0, 0.93])
    @pytest.mark.parametrize("spec,c,p", [
        (equal_weight_mp(1.5, 1.8), 1.5 / 1.8, 0.3),
        # M2 < 0 and slowly decaying: the remainder past the integrated
        # range keeps its sign
        (GeneralTail(alpha=1.02, theta_scale=1.0, A_thresh=2.0,
                     m1_fn=lambda x: 0.0, m2_fn=lambda x: -0.5 * x ** -0.01), -0.5, 0.01),
    ], ids=["modified-pareto", "negative-m2"])
    def test_m2_tail_integral_closed_form(self, spec, c, p, lo):
        # M2(x) = c x^-p, so int_lo^inf M2(r s) r^-alpha dr is
        # c s^-p lo^(1 - alpha - p) / (alpha + p - 1)
        from stable_stein.bounds import _m2_tail_integral

        q = spec.alpha + p
        for s in (7.0, 1234.5):
            exact = c * s ** -p * lo ** (1.0 - q) / (q - 1.0)
            assert abs(_m2_tail_integral(spec, s, lo) / exact - 1.0) <= 1e-14

    def test_agrees_with_main_at_infinity(self):
        for gamma in [0.2, 0.5, 0.9]:
            r1 = bound_main(Pareto(1.5), 1.5, 10 ** 6, math.inf, gamma)
            r2 = bound_mthm2(Pareto(1.5), 1.5, 10 ** 6, math.inf, gamma)
            assert abs(r1.total - r2.total) <= 1e-10 * r1.total

    def test_symmetric_remainder_reduction(self):
        # with vanishing M2 the N-related remainder is 4d (alpha+1)/(alpha-1) N^{1-alpha}
        alpha, N = 1.5, 5.0
        rep = bound_mthm2(Pareto(alpha), alpha, 10 ** 6, N, 0.5)
        expect = 4.0 * d_alpha(alpha) * (alpha + 1.0) / (alpha - 1.0) * N ** (1.0 - alpha)
        assert rep.truncation_term + rep.N_term == pytest.approx(expect, rel=1e-12)

    def test_two_term_remainder_matches_display(self):
        a, b, g, n, N = 1.5, 4.0, 0.5, 10 ** 5, 30.0
        spec = equal_weight_mp(a, b)
        A, B = spec.A, spec.B
        rep = bound_mthm2(spec, a, n, N, g)
        ell = spec.ell(n)
        da = d_alpha(a)
        want = D_alpha_gamma(a, g) * (A / (a - g) + B / (b - g)) * ell ** (-g / a) + \
            4.0 * da * ((a + 1.0) / (a - 1.0)
                        + (B * a / (A * (b - 1.0))) * ell ** ((a - b) / a) * N ** (a - b)
                        ) * N ** (1.0 - a)
        got = rep.truncation_term + rep.N_term + rep.gamma_term
        assert got == pytest.approx(want, rel=1e-10)

    def test_general_tail_with_mean_needs_large_N(self):
        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.5 * x ** -0.5, m2_fn=lambda x: 0.0)
        assert gt.mean > 0.0
        n = 50
        root = gt.ell(n) ** (1.0 / 1.5)
        bad_N = 0.5 * gt.mean / root
        with pytest.raises(DomainError):
            bound_mthm2(gt, 1.5, n, bad_N, 0.5)
        ok = bound_mthm2(gt, 1.5, n, 5.0, 0.5)
        assert ok.total > 0.0

    def test_log_family_rejected_before_quadrature(self, monkeypatch):
        # no tail scale theta: rejected before the discrepancy or the
        # gamma term's moment is computed
        import stable_stein.bounds as bnd

        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature reached for a law without a tail scale")

        monkeypatch.setattr(bnd, "discrepancy_l1", forbidden)
        monkeypatch.setattr(LogPerturbedPareto, "abs_central_moment", forbidden)
        spec = LogPerturbedPareto(1.5, 1.0, x0=5.0)
        with pytest.raises(DomainError, match="tail scale"):
            bound_mthm2(spec, 1.5, 10 ** 4, default_truncation(spec, 10 ** 4), 0.5)


class TestRateOrder:
    def test_pareto(self):
        ro = rate_order(Pareto(1.5))
        assert ro.exponent == pytest.approx(-1.0 / 3.0)
        assert not ro.has_log_factor and not ro.in_log_n and ro.classified

    def test_two_term_cases(self):
        assert rate_order(equal_weight_mp(1.5, 4.0)).exponent == pytest.approx(-1 / 3)
        ro2 = rate_order(equal_weight_mp(1.5, 2.0))
        assert ro2.exponent == pytest.approx(-1 / 3) and ro2.has_log_factor
        ro3 = rate_order(equal_weight_mp(1.5, 1.8))
        assert ro3.exponent == pytest.approx(-(0.5 * 0.3) / (1.5 * 0.7))
        assert not ro3.has_log_factor

    def test_hall_rate(self):
        h = HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)
        assert rate_order(h).exponent == pytest.approx(-0.1 / 0.7)

    def test_log_family_in_log_n(self):
        ro = rate_order(LogPerturbedPareto(1.5, 1.0, x0=5.0))
        assert ro.in_log_n
        assert ro.exponent == pytest.approx(-(1.0 - 1.0 / 1.5))

    def test_unclassified_not_guessed(self):
        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.0, m2_fn=lambda x: math.exp(-x))
        ro = rate_order(gt)
        assert not ro.classified
        assert math.isnan(ro.exponent)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_slope_matches_exponent_pure_power(self, alpha):
        grid = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8]
        slope = bound_total_slope(Pareto(alpha), alpha, grid)
        assert abs(slope - rate_order(Pareto(alpha)).exponent) <= 0.02

    def test_slope_matches_exponent_two_term(self):
        grid = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8]
        spec = equal_weight_mp(1.5, 4.0)
        slope = bound_total_slope(spec, 1.5, grid)
        assert abs(slope - rate_order(spec).exponent) <= 0.02
        spec3 = equal_weight_mp(1.5, 1.8)
        slope3 = bound_total_slope(spec3, 1.5, grid)
        assert abs(slope3 - rate_order(spec3).exponent) <= 0.02

    def test_beta2_log_factor_diagnostic(self):
        # totals times ell^{r} grow linearly in log ell: high linear fit
        # quality demonstrates the log factor that rate_order reports
        spec = equal_weight_mp(1.5, 2.0)
        assert rate_order(spec).has_log_factor
        r = -rate_order(spec).exponent
        ls, ys = [], []
        for n in [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8]:
            tot = bound_main(spec, 1.5, n, default_truncation(spec, n), 0.5).total
            ell = spec.ell(n)
            ls.append(math.log(ell))
            ys.append(tot * ell ** r)
        coef = np.polyfit(ls, ys, 1)
        fitted = np.polyval(coef, ls)
        ss_res = float(np.sum((np.array(ys) - fitted) ** 2))
        ss_tot = float(np.sum((np.array(ys) - np.mean(ys)) ** 2))
        assert coef[0] > 0.0
        assert 1.0 - ss_res / ss_tot > 0.999


class TestExample2:
    def test_case1_leading_display(self):
        a, b, g, n = 1.5, 4.0, 0.5, 10 ** 6
        spec = equal_weight_mp(a, b)
        A, B = spec.A, spec.B
        rep = example2_bound(A, B, a, b, g, n)
        assert rep.case == 1 and math.isinf(rep.N)
        ell = spec.ell(n)
        want = 2.0 * d_alpha(a) * D_alpha(a) / a * (
            1.0 / (2.0 - a) + B / (A * (b - 2.0))) * ell ** (-(2.0 - a) / a)
        assert rep.leading_term == pytest.approx(want, rel=1e-13)
        want_rem = D_alpha_gamma(a, g) * (A / (a - g) + B / (b - g)) * ell ** (-g / a)
        assert rep.remainder_term == pytest.approx(want_rem, rel=1e-10)
        assert rep.total == pytest.approx(rep.leading_term + rep.remainder_term, rel=1e-12)

    def test_case2_log_leading(self):
        a, g, n = 1.5, 0.5, 10 ** 6
        spec = equal_weight_mp(a, 2.0)
        A, B = spec.A, spec.B
        rep = example2_bound(A, B, a, 2.0, g, n)
        assert rep.case == 2
        q = (2.0 - a) / (a * (a - 1.0))
        assert rep.q_exponent == pytest.approx(q)
        ell = spec.ell(n)
        assert rep.N == pytest.approx(ell ** q)
        want = 2.0 * d_alpha(a) * D_alpha(a) * B * (a * q + 1.0) / (a ** 2 * A) \
            * ell ** (-(2.0 - a) / a) * math.log(ell)
        assert rep.leading_term == pytest.approx(want, rel=1e-13)

    def test_case3_exponent(self):
        a, b, g, n = 1.5, 1.8, 0.5, 10 ** 6
        spec = equal_weight_mp(a, b)
        rep = example2_bound(spec.A, spec.B, a, b, g, n)
        assert rep.case == 3
        assert rep.q_exponent == pytest.approx((b - a) / (a * (a + 1.0 - b)))
        # leading term scales like ell^{-e*}
        rep2 = example2_bound(spec.A, spec.B, a, b, g, 10 ** 8)
        e_star = (b - a) * (a - 1.0) / (a * (a + 1.0 - b))
        ratio = rep2.leading_term / rep.leading_term
        ell_ratio = equal_weight_mp(a, b).ell(10 ** 8) / spec.ell(n)
        assert ratio == pytest.approx(ell_ratio ** -e_star, rel=1e-10)

    def test_boundary_beta_alpha_plus_one(self):
        # second exponent beta = alpha + 1 > 2 classifies as case 1
        a = 1.5
        spec = equal_weight_mp(a, a + 1.0)
        rep = example2_bound(spec.A, spec.B, a, a + 1.0, 0.5, 10 ** 4)
        assert rep.case == 1

    def test_degenerates_to_pareto_as_B_vanishes(self):
        a, g, n = 1.5, 0.5, 10 ** 6
        lead_pareto = D_alpha(a) / (2.0 - a) * (2.0 * d_alpha(a) / a) ** (2.0 / a) * \
            n ** (-(2.0 - a) / a)
        vals = []
        for B in [1e-3, 1e-5, 1e-7]:
            b = 4.0
            A = a * (1.0 - B / b)
            rep = example2_bound(A, B, a, b, g, n)
            vals.append(rep.leading_term)
        assert vals[-1] == pytest.approx(lead_pareto, rel=1e-4)
        gaps = [abs(v - lead_pareto) for v in vals]
        assert gaps[2] < gaps[1] < gaps[0]

    def test_invalid_beta(self):
        with pytest.raises(DomainError):
            example2_bound(1.0, 1.0, 1.5, 1.4, 0.5, 100)

    def test_truncation_level_is_the_laws(self):
        # near alpha = 1 the case-2 exponent q is about 97: ell ** q overflows,
        # the law's default truncation level does not
        a, g, n = 1.01, 0.5, 10 ** 4
        spec = equal_weight_mp(a, 2.0)
        rep = example2_bound(spec.A, spec.B, a, 2.0, g, n)
        want = bound_mthm2(spec, a, n, spec.default_truncation(n), g).total
        assert math.isfinite(rep.total) and rep.total == want


def unmemoized_optimize_gamma(spec, alpha, n, N):
    """Frozen copy of optimize_gamma's scan and refinement from before the
    per-alpha memo: D_alpha_gamma is evaluated at every grid point."""
    from scipy.optimize import minimize_scalar

    if N == "auto":
        N = default_truncation(spec, n)
    base = bound_main(spec, alpha, n, N, 0.5)
    fixed = base.total - base.gamma_term
    ell_pow = spec.ell(n) ** (-1.0 / alpha)

    def total(g):
        return fixed + D_alpha_gamma(alpha, g) * ell_pow ** g * spec.abs_central_moment(g)

    grid = np.linspace(0.01, 0.99, 99)
    values = [total(float(g)) for g in grid]
    idx = int(np.argmin(values))
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]
    res = minimize_scalar(total, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6})
    g_star, t_star = float(res.x), float(res.fun)
    if values[idx] < t_star:
        g_star, t_star = float(grid[idx]), values[idx]
    return g_star, t_star


PERFBENCH_FAMILIES = {       # the six summand laws of the benchmark, at alpha = 1.5
    "Pareto": lambda: Pareto(1.5),
    "ModifiedPareto_b4": lambda: equal_weight_mp(1.5, 4.0),
    "ModifiedPareto_b2": lambda: equal_weight_mp(1.5, 2.0),
    "ModifiedPareto_b1.8": lambda: equal_weight_mp(1.5, 1.8),
    "HallTransform": lambda: HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5),
    "LogPerturbedPareto": lambda: LogPerturbedPareto(1.5, 1.0, x0=5.0),
}


class TestBoundedMinimizerParity:
    """The in-house bounded Brent minimizer returns scipy's (x, fun) bits."""

    @staticmethod
    def scipy_bounded(func, a, b):
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(func, bounds=(a, b), method="bounded", options={"xatol": 1e-6})
        return res.x, res.fun, res.nfev

    @pytest.mark.parametrize("n", [100, 1000, 10 ** 6])
    @pytest.mark.parametrize("family", sorted(PERFBENCH_FAMILIES))
    def test_optimize_gamma_objective(self, family, n, monkeypatch):
        import stable_stein.bounds as bnd

        seen = []
        real = bnd._minimize_bounded

        def recording(func, a, b):
            out = real(func, a, b)
            seen.append((func, a, b, out))
            return out

        monkeypatch.setattr(bnd, "_minimize_bounded", recording)
        optimize_gamma(PERFBENCH_FAMILIES[family](), 1.5, n, "auto")
        (func, a, b, (x, fx)), = seen
        assert type(a) is type(b) is float      # the scan's grid points
        want_x, want_fun, _ = self.scipy_bounded(func, a, b)
        assert (x, fx) == (want_x, want_fun)

    def test_evaluation_cap(self):
        from stable_stein.bounds import _minimize_bounded

        def func(x):
            return abs(x) ** 0.1

        a, b = np.float64(-1e140), np.float64(0.7e140)
        want_x, want_fun, nfev = self.scipy_bounded(func, a, b)
        assert nfev == 500          # stopped by the cap, not the tolerance
        assert _minimize_bounded(func, a, b) == (want_x, want_fun)

    def test_scan_grid_is_linspace(self):
        from stable_stein.bounds import _GAMMA_SCAN

        assert list(_GAMMA_SCAN) == np.linspace(0.01, 0.99, 99).tolist()
        assert all(type(g) is float for g in _GAMMA_SCAN)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_step_sign_is_scipys(self, kind):
        from stable_stein.bounds import _step_sign

        for r in (2.5, -2.5, 0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan):
            r = kind(r)
            got, want = _step_sign(r), np.sign(r) + (r == 0)
            assert got == want or (math.isnan(got) and math.isnan(want)), r

    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("func,a,b,zero_step", [
        (lambda x: (x - 0.1) ** 2, 0.0, 1.0, True),     # a parabola step of exactly 0
        (lambda x: x, 0.0, 1.0, False),                 # minimum at the lower edge
        (lambda x: -x, -3.0, 2.0, False),               # minimum at the upper edge
        (lambda x: abs(x - 0.3), 0.0, 1.0, False),      # a kink
        (lambda x: 1.0, 0.0, 1.0, False),               # flat: golden steps only
    ], ids=["zero-step", "lower-edge", "upper-edge", "kink", "flat"])
    def test_steps_match_scipy(self, func, a, b, zero_step, kind, monkeypatch):
        import stable_stein.bounds as bnd

        steps = []
        real = bnd._step_sign
        monkeypatch.setattr(bnd, "_step_sign", lambda r: steps.append(r) or real(r))
        x, fx = bnd._minimize_bounded(func, kind(a), kind(b))
        want_x, want_fun, _ = self.scipy_bounded(func, kind(a), kind(b))
        assert (x, fx) == (want_x, want_fun)
        assert type(x) is kind          # the arithmetic keeps the bounds' type
        assert (0.0 in steps) is zero_step


class TestOptimizeGamma:
    def test_continuous_vs_dense_grid(self):
        spec = Pareto(1.5)
        g_star, t_star = optimize_gamma(spec, 1.5, 10 ** 6, math.inf)
        dense = np.linspace(0.005, 0.995, 1981)
        totals = [bound_main(spec, 1.5, 10 ** 6, math.inf, float(g)).total for g in dense]
        g_brute = float(dense[int(np.argmin(totals))])
        assert abs(g_star - g_brute) <= 0.005
        assert t_star <= min(totals) + 1e-12

    @pytest.mark.parametrize("alpha", [1.01, 1.37, 1.5, 1.99])
    def test_scan_memo_equals_fresh_constants(self, alpha):
        from stable_stein.bounds import _GAMMA_SCAN, _holder_scan

        scan = _holder_scan(alpha)
        assert len(scan) == len(_GAMMA_SCAN) == 99
        for g, d in zip(_GAMMA_SCAN, scan):
            assert d == D_alpha_gamma(alpha, g)
            assert d == D_alpha_gamma(np.float64(alpha), g)

    @pytest.mark.parametrize("make,N", [
        (lambda: Pareto(1.5), math.inf),
        (lambda: equal_weight_mp(1.5, 2.0), "auto"),
        (lambda: HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5), "auto"),
    ])
    def test_memoized_scan_matches_unmemoized(self, make, N):
        from stable_stein.bounds import _holder_scan

        for alpha, other in ((np.float64(1.5), 1.5), (1.5, np.float64(1.5))):
            want = repr(unmemoized_optimize_gamma(make(), alpha, 10 ** 6, N))
            _holder_scan.cache_clear()
            assert repr(optimize_gamma(make(), alpha, 10 ** 6, N)) == want
            # a warm memo, filled by the other spelling of alpha, gives the same
            _holder_scan.cache_clear()
            optimize_gamma(make(), other, 10 ** 6, N)
            assert repr(optimize_gamma(make(), alpha, 10 ** 6, N)) == want

    def test_scan_memo_filled_by_racing_threads(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from stable_stein.bounds import _figure_specs, _holder_scan

        specs = _figure_specs(1.5) * 2

        def run(spec):
            return optimize_gamma(spec, 1.5, 10 ** 6, "auto")

        want = [run(spec) for spec in specs]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            _holder_scan.cache_clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                raced = list(pool.map(run, specs))
        finally:
            sys.setswitchinterval(interval)
        assert raced == want

    def test_figure_rows_shape(self):
        rows = figure_gamma_curves(n=10 ** 6)
        assert len(rows) == 99
        assert all(len(r) == 5 for r in rows)
        assert [r[0] for r in rows] == [1.0 + j / 100.0 for j in range(1, 100)]
        assert all(0.0 < g < 1.0 for r in rows for g in r[1:])


class TestBoundTable:
    def test_double_vs_extended_precision(self):
        alphas = [1.1, 1.5, 1.9]
        gammas = [0.1, 0.5, 0.9]
        dbl = pareto_bound_table(10 ** 6, alphas, gammas)
        ext = [[float(hp_pareto_bound_total(a, g, 10 ** 6)) for a in alphas] for g in gammas]
        for r1, r2 in zip(dbl, ext):
            for v1, v2 in zip(r1, r2):
                assert abs(v1 - v2) / v2 <= 1e-6

    def test_matches_bound_main(self):
        grid = pareto_bound_table(10 ** 4, [1.5], [0.9])
        direct = bound_main(Pareto(1.5), 1.5, 10 ** 4, math.inf, 0.9).total
        assert grid[0][0] == pytest.approx(direct, rel=1e-13)


class TestThresholdSolver:
    def test_beta_zero_closed(self):
        sol = log_example_A_n(2.0, 3.0, 1.5, 0.0, 10 ** 6)
        assert sol.value == (2.0 * 10 ** 6) ** (1.0 / 1.5)
        assert sol.residual == 0.0

    @pytest.mark.parametrize("beta,n", [(0.0, 10 ** 4), (0.0, 10 ** 6), (0.0, 10 ** 8),
                                        (1.0, 10 ** 4), (1.0, 10 ** 6), (1.0, 10 ** 8)])
    def test_residual(self, beta, n):
        sol = log_example_A_n(2.0, 3.0, 1.5, beta, n)
        assert sol.residual <= 1e-10

    def test_n_too_small(self):
        with pytest.raises(DomainError):
            log_example_A_n(0.001, 3.0, 1.5, 0.0, 1)

    @given(st.integers(min_value=10 ** 3, max_value=10 ** 7))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, n):
        a1 = log_example_A_n(2.0, 3.0, 1.5, 1.0, n).value
        a2 = log_example_A_n(2.0, 3.0, 1.5, 1.0, 2 * n).value
        assert a2 > a1


class TestReportInvariants:
    @given(st.floats(min_value=1.05, max_value=1.95),
           st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=10, max_value=10 ** 7))
    @settings(max_examples=60, deadline=None)
    def test_assembly_and_positivity(self, alpha, gamma, n):
        rep = bound_main(Pareto(alpha), alpha, n, math.inf, gamma)
        assembled = D_alpha(alpha) * rep.discrepancy_term + rep.truncation_term \
            + rep.N_term + rep.gamma_term
        assert rep.total == pytest.approx(assembled, rel=1e-14)
        assert rep.total > 0.0
        assert rep.discrepancy_term >= 0.0 and rep.gamma_term >= 0.0

    def test_asymmetric_remainder_bracket(self):
        # law with mean mu > 0 and vanishing tail corrections: the remainder
        # bracket reduces to (1+delta^{a-1})/(a-1) + 1/delta exactly
        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.0)
        mu = gt.mean
        assert mu > 0.0
        n, N, gamma = 200, 6.0, 0.5
        rep = bound_mthm2(gt, 1.5, n, N, gamma)
        a = 1.5
        da = d_alpha(a)
        root = gt.ell(n) ** (1.0 / a)
        delta = 1.0 - abs(mu) / (root * N)
        bracket = (1.0 + delta ** (a - 1.0)) / (a - 1.0) + 1.0 / delta
        want = 4.0 * da / delta ** (a - 1.0) * bracket * N ** (1.0 - a)
        assert rep.truncation_term + rep.N_term == pytest.approx(want, rel=1e-9)
