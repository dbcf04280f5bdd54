"""Kernels, summand laws, K functions and the L1 discrepancy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stable_stein.bounds import bound_main
from stable_stein.errors import ConvergenceError, DomainError
from stable_stein.kernels import (
    GeneralTail,
    HallTransform,
    LogPerturbedPareto,
    ModifiedPareto,
    Pareto,
    abs_tail_moment_zeta,
    discrepancy_l1,
    k_function,
    solve_log_tail_scale,
    stable_kernel,
    stable_kernel_mass,
)
from stable_stein.sampling import STREAM_SUMMANDS, substream
from stable_stein.special import d_alpha

from kernel_oracle import k_function_mc

SRC = str(Path(__file__).resolve().parents[1] / "src")


def equal_weight_mp(alpha, beta):
    w = alpha * beta / (alpha + beta)
    return ModifiedPareto(alpha, beta, A=w, B=w)


class TestStableKernel:
    def test_vanishes_at_truncation(self):
        assert stable_kernel(1.5, 2.0, 2.0) == 0.0
        assert stable_kernel(1.5, -2.0, 2.0) == 0.0

    def test_even(self):
        assert stable_kernel(1.5, -1.0, 2.0) == stable_kernel(1.5, 1.0, 2.0)

    def test_value(self):
        expect = d_alpha(1.5) / (1.5 * 0.5) * (0.5 ** -0.5 - 10.0 ** -0.5)
        assert stable_kernel(1.5, 0.5, 10.0) == pytest.approx(expect, rel=1e-13)

    def test_singularity_and_domain(self):
        assert stable_kernel(1.5, 0.0, 1.0) == math.inf
        with pytest.raises(DomainError):
            stable_kernel(1.5, 3.0, 2.0)

    @given(st.floats(min_value=1.05, max_value=1.95),
           st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_closed_form(self, alpha, N):
        f = lambda t: d_alpha(alpha) / (alpha * (alpha - 1.0)) * (
            t ** (1.0 - alpha) - N ** (1.0 - alpha))
        val, _ = quad(f, 0.0, N, limit=200)
        assert 2.0 * val == pytest.approx(stable_kernel_mass(alpha, N), rel=1e-8)


class TestSummandLaws:
    def test_pareto_ppf_formula(self):
        p = Pareto(1.5)
        assert p.ppf(0.25) == pytest.approx(-(2 * 0.25) ** (-1 / 1.5))
        assert p.ppf(0.875) == pytest.approx((2 * 0.125) ** (-1 / 1.5))

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_pareto_ppf_bits_match_two_sided_formula(self, alpha):
        # the one-power form must reproduce the formula that evaluates both
        # branches, bit for bit, sign of zero and the u = 0 pole included
        u = np.random.default_rng(17).random(200000)
        u[:4] = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]
        with np.errstate(divide="ignore"):
            two_sided = np.where(u < 0.5, -(2.0 * u) ** (-1.0 / alpha),
                                 (2.0 * (1.0 - u)) ** (-1.0 / alpha))
            got = Pareto(alpha).ppf(u)
        assert got.tobytes() == two_sided.tobytes()
        for x in (0.3, 0.5, 0.7):
            u0 = np.asarray(x)
            want = np.where(u0 < 0.5, -(2.0 * u0) ** (-1.0 / alpha),
                            (2.0 * (1.0 - u0)) ** (-1.0 / alpha))
            assert Pareto(alpha).ppf(x) == float(want)

    @pytest.mark.parametrize("make", [
        lambda: Pareto(1.5),
        lambda: equal_weight_mp(1.5, 4.0),
        lambda: equal_weight_mp(1.5, 1.8),
        lambda: HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5),
        lambda: LogPerturbedPareto(1.5, 1.0, x0=5.0),
    ], ids=["pareto", "mp_beta4", "mp_beta1.8", "hall", "log"])
    def test_sample_is_prefix_of_larger_draw(self, make):
        # every sampler works element by element: a short draw is the start
        # of a longer one on the same stream, which fit_rate relies on.  A
        # Newton loop stopped on a whole-array test breaks this for a draw
        # of one on a few percent of streams, hence the 100 streams.
        spec = make()
        for r in range(100):
            long = spec.sample(substream(3, STREAM_SUMMANDS, r), 2000)
            for k in (1, 1234):
                short = spec.sample(substream(3, STREAM_SUMMANDS, r), k)
                assert short.tobytes() == long[:k].tobytes(), (r, k)

    def test_modified_pareto_normalization_enforced(self):
        with pytest.raises(DomainError):
            ModifiedPareto(1.5, 4.0, A=1.0, B=1.0)

    def test_modified_pareto_ppf_round_trip(self):
        spec = equal_weight_mp(1.5, 4.0)
        for u in [0.01, 0.2, 0.6, 0.97, 0.99999]:
            x = float(spec.ppf(u))
            back = 1.0 - float(spec.tail_pos(x)) if x > 0 else float(spec.tail_neg(-x))
            assert back == pytest.approx(u, abs=1e-12)

    def test_hall_maps_onto_two_term_family(self):
        h = HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)
        assert isinstance(h, ModifiedPareto)
        assert h.beta == pytest.approx(1.5 * 1.2)
        mp_eq = ModifiedPareto(1.5, h.beta, A=h.A, B=h.B)
        # tails of the transformed variable match the two-term law exactly
        for x in [1.0, 1.7, 5.0, 40.0]:
            expected = 0.3 * x ** -1.5 + (0.24 / 1.2) * x ** -h.beta if x > 1 else 0.5
            assert float(h.tail_pos(x)) == pytest.approx(expected, rel=1e-14)
            assert float(mp_eq.tail_pos(x)) == pytest.approx(expected, rel=1e-14)
        # norming follows the tail-scale convention ell = (2a) alpha n/(2 d)
        assert h.ell(100) == pytest.approx(0.6 * 1.5 / (2 * d_alpha(1.5)) * 100, rel=1e-14)

    def test_hall_replace_rederives_two_term_parameters(self):
        # the law at a new alpha, rebuilt from its own a, b and c: beta, A and
        # B are derived again, and equality covers them too
        h = HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)
        params = {name: value for name, value in h._asdict().items() if name in ("a", "b", "c")}
        moved = HallTransform(**params, alpha=1.6)
        assert moved == HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.6) != h
        assert (moved.beta, moved.A, moved.B) == pytest.approx((1.92, 0.96, 0.768), rel=1e-15)

    def test_hall_sampler_matches_tails(self):
        h = HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)
        rng = np.random.default_rng(11)
        xs = h.sample(rng, 200000)
        for x in [1.5, 3.0, 8.0]:
            p = float(h.tail_pos(x))
            se = math.sqrt(p * (1 - p) / xs.size)
            assert abs(float(np.mean(xs > x)) - p) <= 3.0 * se

    def test_hall_invalid_mass(self):
        with pytest.raises(DomainError):
            HallTransform(a=0.3, b=0.4, c=0.2, alpha=1.5)

    def test_log_pareto_consistency(self):
        lp = LogPerturbedPareto(1.5, 1.0, x0=5.0)
        assert lp.K0 == pytest.approx(5.0 ** 1.5 / math.log(5.0))
        assert float(lp.tail_abs(5.0)) == pytest.approx(1.0)
        lp2 = LogPerturbedPareto(1.5, 1.0, K0=lp.K0)
        assert lp2.x0 == pytest.approx(5.0, rel=1e-10)
        with pytest.raises(DomainError):
            LogPerturbedPareto(1.5, 1.0, K0=lp.K0, x0=9.0)

    def test_log_pareto_ppf(self):
        lp = LogPerturbedPareto(1.5, -0.5, x0=4.0)
        for u in [0.51, 0.9, 0.9999]:
            x = float(lp.ppf(u))
            assert 1.0 - float(lp.tail_pos(x)) == pytest.approx(u, abs=1e-12)

    def test_general_tail_round_trip(self):
        gt = GeneralTail(alpha=1.5, theta_scale=2.0, A_thresh=3.0,
                         m1_fn=lambda x: 0.2 * x ** -0.5,
                         m2_fn=lambda x: -0.1 * x ** -1.0)
        for x in [3.0, 5.0, 11.0, 100.0]:
            lhs = 2.0 * float(gt.tail_pos(x)) / float(gt.tail_abs(x)) - 1.0
            assert lhs == pytest.approx(0.2 * x ** -0.5, abs=1e-10)
            lhs2 = float(gt.tail_abs(x)) / (2.0 * x ** -1.5) - 1.0
            assert lhs2 == pytest.approx(-0.1 / x, abs=1e-10)

    @pytest.mark.parametrize("x", [0.0, 1.0, 1.999, 2.0, 2.0000001, 3.5, 40.0, 1e9])
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_general_tail_scalar_rules_give_floats(self, x, kind):
        # every rule takes any real scalar and gives the float call's bits,
        # below, at and above A_thresh
        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.1 / x)
        # m2 is the model function itself, unclamped
        names = ("tail_pos", "tail_neg", "tail_abs") + (("m2",) if x > 0.0 else ())
        for name in names:
            method = getattr(gt, name)
            want = repr(method(float(x)))
            for arg in [kind(x), np.asarray(x)] + ([int(x)] if x.is_integer() else []):
                got = method(arg)
                assert type(got) is float and repr(got) == want, (name, arg)
        frozen = gt._model_pos(2.0)
        assert (gt.tail_pos(kind(x)) == frozen) == (x <= 2.0)

    def test_log_pareto_threshold_solved_once_per_n(self, monkeypatch):
        import stable_stein.kernels as ker

        lp = LogPerturbedPareto(1.5, 1.0, x0=5.0)
        want = solve_log_tail_scale(lp.K0, lp.x0, 1.5, 1.0, 1000).value
        calls = []
        real = ker.solve_log_tail_scale
        monkeypatch.setattr(ker, "solve_log_tail_scale",
                            lambda *a: calls.append(a) or real(*a))
        first = lp.ell(1000)
        assert lp.solve_threshold(1000) == want
        assert lp.ell(1000) == first
        assert len(calls) == 1
        # a new instance with the same parameters solves again, equally
        assert LogPerturbedPareto(1.5, 1.0, x0=5.0).ell(1000) == first
        assert len(calls) == 2

    def test_ell_conventions(self):
        n = 1234
        assert Pareto(1.5).ell(n) == pytest.approx(1.5 / (2 * d_alpha(1.5)) * n)
        spec = equal_weight_mp(1.5, 4.0)
        assert spec.ell(n) == pytest.approx(spec.A / (2 * d_alpha(1.5)) * n)
        gt = GeneralTail(alpha=1.5, theta_scale=0.7, A_thresh=1.0,
                         m1_fn=lambda x: 0.0, m2_fn=lambda x: 0.0)
        assert gt.ell(n) == pytest.approx(1.5 * 0.7 / (2 * d_alpha(1.5)) * n)

    def test_central_moment_closed_forms(self):
        assert Pareto(1.5).abs_central_moment(0.5) == pytest.approx(1.5, rel=1e-14)
        spec = equal_weight_mp(1.5, 4.0)
        expect = spec.A / 1.0 + spec.B / 3.5
        assert spec.abs_central_moment(0.5) == pytest.approx(expect, rel=1e-14)


# one valid parameter set per family constructor (LogPerturbedPareto twice:
# given x0, and given K0); the tail functions of GeneralTail are not numbers
VALID_LAW_PARAMS = [
    (Pareto, dict(alpha=1.5)),
    (ModifiedPareto, dict(alpha=1.5, beta=4.0, A=12.0 / 11.0, B=12.0 / 11.0)),
    (HallTransform, dict(a=0.3, b=0.24, c=0.2, alpha=1.5)),
    (LogPerturbedPareto, dict(alpha=1.5, beta=1.0, x0=5.0)),
    (LogPerturbedPareto, dict(alpha=1.5, beta=1.0, K0=20.0)),
    (GeneralTail, dict(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                       m1_fn=lambda x: 0.0, m2_fn=lambda x: 0.0)),
]
NON_FINITE_CASES = [
    (family, params, name, bad)
    for family, params in VALID_LAW_PARAMS
    for name, value in params.items() if isinstance(value, float)
    for bad in (math.nan, math.inf, -math.inf)
]


class TestFiniteLawParameters:
    @pytest.mark.parametrize("family,params", VALID_LAW_PARAMS,
                             ids=[f.__name__ for f, _ in VALID_LAW_PARAMS])
    def test_valid_parameters_accepted(self, family, params):
        family(**params)

    @pytest.mark.parametrize("family,params,name,bad", NON_FINITE_CASES,
                             ids=[f"{f.__name__}-{'-'.join(p)}-{n}={b}"
                                  for f, p, n, b in NON_FINITE_CASES])
    def test_non_finite_parameter_rejected(self, family, params, name, bad):
        with pytest.raises(DomainError):
            family(**dict(params, **{name: bad}))

    @pytest.mark.parametrize("K0", [-1.0, 0.0])
    def test_log_pareto_needs_positive_K0(self, K0):
        with pytest.raises(DomainError, match="K0 > 0"):
            LogPerturbedPareto(1.99, 5.0, K0=K0)

    @pytest.mark.parametrize("params", [dict(x0=5.0), dict(K0=1e300)], ids=["x0", "K0"])
    def test_log_pareto_beta_past_float_range(self, params):
        # e^(beta/alpha) overflows a float: no finite x0 is admissible
        with pytest.raises(DomainError, match="no finite x0"):
            LogPerturbedPareto(1.5, 1e6, **params)


# Frozen copies of the 0-d numpy tail expressions the scalar rules replaced;
# each rule must give these bits for a float, an np.float64, a 0-d array and,
# on integral points, an int.
def frozen_pareto_tail_pos(spec, x):
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.maximum(x, 1.0) ** -spec.alpha
    return out if out.ndim else float(out)


def frozen_modified_pareto_tail_pos(spec, x):
    x = np.asarray(x, dtype=float)
    xs = np.maximum(x, 1.0)
    out = 0.5 * np.where(
        x <= 1.0, 1.0,
        spec.A / spec.alpha * xs ** -spec.alpha + spec.B / spec.beta * xs ** -spec.beta,
    )
    return out if out.ndim else float(out)


def frozen_log_pareto_tail_abs(spec, x):
    x = np.asarray(x, dtype=float)
    xs = np.maximum(x, spec.x0)
    out = np.where(x <= spec.x0, 1.0,
                   spec.K0 * np.log(xs) ** spec.beta * xs ** -spec.alpha)
    out = np.minimum(out, 1.0)
    return out if out.ndim else float(out)


SCALAR_RULE_CASES = (
    [(f"pareto{a}", Pareto(a), "tail_pos", frozen_pareto_tail_pos, 1.0)
     for a in (1.13, 1.5, 1.9)]
    + [(f"mp_beta{b}", equal_weight_mp(1.5, b), "tail_pos", frozen_modified_pareto_tail_pos, 1.0)
       for b in (4.0, 2.0, 1.6)]
    + [("hall", HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5), "tail_pos",
        frozen_modified_pareto_tail_pos, 1.0)]
    + [(f"log_beta{b}", LogPerturbedPareto(1.5, b, x0=5.0), "tail_abs",
        frozen_log_pareto_tail_abs, 5.0) for b in (1.0, 0.5, 2.0, -1.0)]
)


def scalar_rule_points(threshold):
    # 1e4 log-spaced points plus the threshold and its two neighbours
    edge = [0.0, threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, np.inf)]
    return np.concatenate([np.geomspace(1e-3, 1e15, 10 ** 4), edge]).tolist()


@pytest.mark.parametrize("name,spec,method,frozen,threshold", SCALAR_RULE_CASES,
                         ids=[c[0] for c in SCALAR_RULE_CASES])
class TestScalarTailRules:
    def test_scalar_rule_matches_frozen_expression(self, name, spec, method, frozen,
                                                   threshold):
        rule = getattr(spec, method)
        for x in scalar_rule_points(threshold):
            want = repr(frozen(spec, x))
            for arg in [x, np.float64(x), np.asarray(x)] + ([int(x)] if x.is_integer() else []):
                got = rule(arg)
                assert type(got) is float, (x, type(arg))
                assert repr(got) == want, (x, type(arg))


def test_readers_call_rules_with_scalars_only(monkeypatch):
    # every reader of a law's tail rules passes one real number at a time
    # and gets a Python float back; no reader relies on an array path
    from stable_stein.bounds import bound_main, bound_mthm2
    from stable_stein.kernels import DistributionSpec, _discrepancy_quadrature

    calls = set()

    def guarded(qualname, rule):
        def wrapper(self, x):
            assert np.ndim(x) == 0, (qualname, x)
            out = rule(self, x)
            assert type(out) is float, (qualname, out)
            calls.add(qualname)
            return out
        return wrapper

    for cls in (DistributionSpec, Pareto, ModifiedPareto, LogPerturbedPareto, GeneralTail):
        for name in ("tail_pos", "tail_neg", "tail_abs", "m1", "m2"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, guarded(f"{cls.__name__}.{name}", vars(cls)[name]))

    gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                     m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.1 / x)
    mp = equal_weight_mp(1.5, 1.8)
    lp = LogPerturbedPareto(1.5, 1.0, x0=5.0)
    assert gt.mean > 0.0
    for spec in (gt, mp):
        N = 5.0 if spec is gt else spec.default_truncation(1000)
        bound_main(spec, 1.5, 1000, N, 0.5)
        bound_mthm2(spec, 1.5, 1000, N, 0.5)
    bound_main(lp, 1.5, 1000, lp.default_truncation(1000), 0.5)
    _discrepancy_quadrature(lp, 1000, 20.0)
    DistributionSpec.abs_central_moment(mp, 0.5)
    assert calls >= {"GeneralTail.tail_pos", "GeneralTail.tail_neg", "GeneralTail.m2",
                     "ModifiedPareto.tail_pos", "ModifiedPareto.m2",
                     "LogPerturbedPareto.tail_abs", "LogPerturbedPareto.tail_pos"}


class TestKFunction:
    def test_truncation_support(self, pareto15):
        assert float(k_function(pareto15, 1.5, 1000, 12.0, 10.0)) == 0.0
        assert float(k_function(pareto15, 1.5, 1000, 10.0, 10.0)) == 0.0

    def test_even_for_symmetric(self, pareto15):
        v1 = float(k_function(pareto15, 1.5, 1000, 0.3, 10.0))
        v2 = float(k_function(pareto15, 1.5, 1000, -0.3, 10.0))
        assert v1 == pytest.approx(v2, rel=1e-14)

    def test_pareto_against_mc_oracle(self, pareto15):
        for t in [0.05, 0.1, 0.5]:
            closed = float(k_function(pareto15, 1.5, 1000, t, 10.0))
            est, se = k_function_mc(pareto15, 1.5, 1000, t, 10.0, draws=10 ** 6, seed=5)
            assert abs(est - closed) <= 3.0 * se

    def test_mc_estimator_unbiased(self, pareto15):
        closed = float(k_function(pareto15, 1.5, 1000, 0.1, 10.0))
        ests = np.array([
            k_function_mc(pareto15, 1.5, 1000, 0.1, 10.0, draws=10 ** 5, seed=s)[0]
            for s in range(50)
        ])
        se_mean = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - closed) <= se_mean

    def test_modified_pareto_against_quadrature_of_density(self, mp_beta4):
        # direct oracle: K1(t,N) = ell^{-1/alpha} int x p(x) dx over the window
        n, N, t = 1000, 10.0, 0.1
        ell = mp_beta4.ell(n)
        root = ell ** (1.0 / 1.5)
        dens = lambda x: mp_beta4.A / (2 * x ** 2.5) + mp_beta4.B / (2 * x ** 5.0)
        lo = max(root * t, 1.0)
        val, _ = quad(lambda x: x * dens(x), lo, root * N, limit=400)
        want = val / root
        got = float(k_function(mp_beta4, 1.5, n, t, N))
        assert got == pytest.approx(want, rel=1e-10)

    def test_quadrature_backend_matches_closed(self, pareto15, mp_beta4):
        from stable_stein.kernels import _k_quadrature

        for spec in (pareto15, mp_beta4):
            for t in [0.0, 0.07, -0.8, 3.0]:
                c = float(k_function(spec, 1.5, 500, t, 8.0))
                q = _k_quadrature(spec, 500, t, 8.0)
                assert q == pytest.approx(c, rel=1e-8, abs=1e-14)

    def test_closed_form_falls_back(self):
        # a law without k1_power_terms goes through the tail-integral identity
        from stable_stein.kernels import _k_quadrature

        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=1.0,
                         m1_fn=lambda x: 0.0, m2_fn=lambda x: 0.0)
        v = float(k_function(gt, 1.5, 500, 0.1, 8.0))
        assert v > 0.0
        assert v == _k_quadrature(gt, 500, 0.1, 8.0)

    @given(st.floats(min_value=0.01, max_value=4.0),
           st.floats(min_value=0.01, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_abs_t(self, t1, t2):
        spec = Pareto(1.4)
        lo, hi = sorted([t1, t2])
        k_lo = float(k_function(spec, 1.4, 200, lo, 5.0))
        k_hi = float(k_function(spec, 1.4, 200, hi, 5.0))
        assert k_lo >= k_hi - 1e-15

    def test_alpha_mismatch(self, pareto15):
        with pytest.raises(DomainError):
            k_function(pareto15, 1.4, 100, 0.1, 5.0)

    def test_scalar_t_loads_no_numpy(self):
        code = ("import sys\n"
                "from stable_stein.kernels import Pareto, k_function\n"
                "v = k_function(Pareto(1.5), 1.5, 1000, 0.3, 5.0)\n"
                "print(type(v).__name__, 'numpy' in sys.modules)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC))
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["float", "False"]

    @pytest.mark.parametrize("family", ["pareto15", "mp_beta4"])
    def test_array_equals_scalar_calls(self, family, request):
        # one scalar rule, mapped over the array
        spec = request.getfixturevalue(family)
        t = np.linspace(-6.0, 6.0, 2001)
        got = k_function(spec, 1.5, 1000, t, 5.0)
        want = [k_function(spec, 1.5, 1000, float(v), 5.0) for v in t]
        assert got.shape == t.shape and got.tolist() == want


def upper_tail_moment(spec, t, n=1000):
    """E[xi 1{xi > t}] of a mean-zero symmetric law, read off
    abs_tail_moment_zeta: E[|zeta| 1{|zeta| > t/r}] = (2/r) E[xi 1{xi > t}]
    for zeta = xi / r, r = ell_n^{1/alpha}."""
    assert spec.mean == 0.0
    root = spec.ell(n) ** (1.0 / spec.alpha)
    return root / 2.0 * abs_tail_moment_zeta(spec, n, t / root)


class TestTailIdentity:
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_pareto_analytic_equality(self, pareto15, t):
        # left side in closed form: E[X 1{X>t}] = (alpha/(2(alpha-1)))(t v 1)^{1-alpha}
        alpha = 1.5
        lhs = alpha / (2.0 * (alpha - 1.0)) * max(t, 1.0) ** (1.0 - alpha)
        # right side in closed form: t P(X>t) + int_t^inf P(X>r) dr
        p_t = 0.5 * max(t, 1.0) ** -alpha
        tail_int = 0.5 * max(1.0 - t, 0.0) + max(t, 1.0) ** (1.0 - alpha) / (
            2.0 * (alpha - 1.0))
        rhs = t * p_t + tail_int
        assert abs(lhs - rhs) <= 1e-12 * lhs

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_quadrature_path_matches_closed(self, pareto15, t):
        identity = upper_tail_moment(pareto15, t)
        closed = 1.5 / (2.0 * 0.5) * max(t, 1.0) ** -0.5
        assert identity == pytest.approx(closed, rel=1e-9)

    def test_monte_carlo_agreement(self, pareto15):
        rng = np.random.default_rng(3)
        xs = pareto15.sample(rng, 10 ** 6)
        for t in [0.5, 2.0, 5.0]:
            vals = xs * (xs > t)
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(xs.size))
            closed = 1.5 / (2.0 * 0.5) * max(t, 1.0) ** -0.5
            assert abs(est - closed) <= 3.0 * se

    def test_identity_other_specs_by_quadrature(self, mp_beta4):
        # independent side: two-term closed forms for the modified family,
        # high-precision quadrature for the log-perturbed one
        import mpmath as mp

        A, B, alpha, beta = mp_beta4.A, mp_beta4.B, 1.5, 4.0
        for t in [0.8, 3.0]:
            lhs = upper_tail_moment(mp_beta4, t)
            lo = max(t, 1.0)
            want = A / (2.0 * (alpha - 1.0)) * lo ** (1.0 - alpha) + \
                B / (2.0 * (beta - 1.0)) * lo ** (1.0 - beta)
            assert lhs == pytest.approx(want, rel=1e-9)
        # log-tailed law, density K0 (alpha log x - 1) / (2 x^{alpha+1}) at beta = 1
        lp = LogPerturbedPareto(1.5, 1.0, x0=5.0)
        with mp.workdps(30):
            want = mp.quad(lambda x: x * lp.K0 * (1.5 * mp.log(x) - 1.0) / (2 * x ** 2.5),
                           [6.0, 100.0, mp.inf])
        assert upper_tail_moment(lp, 6.0) == pytest.approx(float(want), rel=1e-8)


class TestGeneralTailMean:
    """The mean integrates P(xi > x) - P(xi < -x) = m1 (1 + m2) theta x^-alpha
    out to infinity, frozen below the threshold A."""

    def test_closed_form(self):
        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.0)
        # A * m1(A) A^-alpha + int_A^inf 0.5 x^-3.5 dx
        exact = 0.25 * 2.0 ** -1.5 + 0.5 * 2.0 ** -2.5 / 2.5
        assert abs(gt.mean / exact - 1.0) <= 1e-14

    def test_nonzero_m2_against_mpmath(self):
        import mpmath as mp

        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.5 * x ** -0.5, m2_fn=lambda x: 0.3 * x ** -0.7)
        with mp.workdps(40):
            diff = lambda x: 0.5 * x ** mp.mpf(-0.5) * (1 + mp.mpf(0.3) * x ** mp.mpf(-0.7)) \
                * x ** mp.mpf(-1.5)
            exact = 2 * diff(mp.mpf(2)) + mp.quad(diff, [2, mp.inf])
            assert abs(gt.mean / exact - 1) <= 1e-14


@pytest.mark.parametrize("call", [
    lambda n: k_function(Pareto(1.5), 1.5, n, 0.5, 5.0),
    lambda n: abs_tail_moment_zeta(Pareto(1.5), n, 5.0),
    lambda n: discrepancy_l1(Pareto(1.5), 1.5, n, 5.0),
    lambda n: bound_main(Pareto(1.5), 1.5, n, 5.0, 0.5),
    lambda n: solve_log_tail_scale(2.0, 3.0, 1.5, 1.0, n),
], ids=["k_function", "abs_tail_moment_zeta", "discrepancy_l1", "bound_main",
        "solve_log_tail_scale"])
def test_one_positive_count_rule_for_n(call):
    # an integral float passes through; anything else is a DomainError, not
    # a raw TypeError or ZeroDivisionError, nor a value for a fractional or
    # NaN n
    assert call(1000.0) == call(1000)
    for bad in (-3, 0, 100.5, math.nan, math.inf, "100"):
        with pytest.raises(DomainError, match="n must be a positive integer"):
            call(bad)


class TestDiscrepancy:
    def test_pareto_closed_form_value(self):
        got = discrepancy_l1(Pareto(1.5), 1.5, 10 ** 6, math.inf)
        want = 2.0 * (2.0 * d_alpha(1.5) / 1.5) ** (4.0 / 3.0) * 1e-2
        assert got == pytest.approx(want, rel=1e-13)

    def test_pareto_independent_of_N(self):
        d1 = discrepancy_l1(Pareto(1.5), 1.5, 1000, 5.0)
        d2 = discrepancy_l1(Pareto(1.5), 1.5, 1000, 500.0)
        d3 = discrepancy_l1(Pareto(1.5), 1.5, 1000, math.inf)
        assert d1 == pytest.approx(d2, rel=1e-14)
        assert d1 == pytest.approx(d3, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_closed_vs_quadrature(self, alpha):
        spec = Pareto(alpha)
        c = discrepancy_l1(spec, alpha, 10 ** 4, 50.0)
        q = discrepancy_l1(spec, alpha, 10 ** 4, 50.0, backend="quadrature")
        assert abs(c - q) / c <= 1e-6

    def test_two_term_upper_estimate(self, mp_beta4):
        c = discrepancy_l1(mp_beta4, 1.5, 10 ** 4, 50.0)
        q = discrepancy_l1(mp_beta4, 1.5, 10 ** 4, 50.0, backend="quadrature")
        assert q <= c
        assert q >= 0.5 * c  # same order: the overlap correction is bounded

    def test_two_term_ratio_to_pareto(self):
        # matched first exponent: ratio of the two closed forms at large n
        n = 10 ** 6
        spec = equal_weight_mp(1.5, 4.0)
        d_mp = discrepancy_l1(spec, 1.5, n, math.inf)
        d_p = discrepancy_l1(Pareto(1.5), 1.5, n, math.inf)
        ell_mp = spec.ell(n)
        ell_p = Pareto(1.5).ell(n)
        # both scale like ell^{-(2-alpha)/alpha}; normalize the norming
        scale = (ell_p / ell_mp) ** ((2.0 - 1.5) / 1.5)
        ratio = d_mp / (d_p * scale)
        expect = 1.0 + (2.0 - 1.5) * spec.B / (spec.A * (4.0 - 2.0))
        assert ratio == pytest.approx(expect, rel=1e-10)

    def test_beta2_log_form_present(self):
        spec = equal_weight_mp(1.5, 2.0)
        d1 = discrepancy_l1(spec, 1.5, 10 ** 4, 10.0)
        d2 = discrepancy_l1(spec, 1.5, 10 ** 4, 100.0)
        ell = spec.ell(10 ** 4)
        diff = d2 - d1
        expect = (2.0 * spec.B * d_alpha(1.5) / spec.A) * ell ** (-1.0 / 3.0) * (
            math.log(100.0) - math.log(10.0)) / 1.5
        assert diff == pytest.approx(expect, rel=1e-12)

    def test_infinite_N_rejected_when_divergent(self):
        spec = equal_weight_mp(1.5, 1.8)
        with pytest.raises(DomainError):
            discrepancy_l1(spec, 1.5, 1000, math.inf)

    def test_convergence_error_carries_partial(self):
        # a cell whose quadrature misses its tolerance must fail and carry
        # its estimate (the same cell is pinned in tests/test_families.py)
        from stable_stein.kernels import _discrepancy_quadrature

        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.0)
        with pytest.raises(ConvergenceError) as exc:
            _discrepancy_quadrature(gt, 10 ** 6, 500.0)
        assert exc.value.achieved_tol == 1.2234840589907262e-08
        assert exc.value.partial == 0.006404869521762175

    def test_nan_error_estimate_raises(self, monkeypatch):
        # a NaN error estimate fails the tolerance check instead of passing it
        import stable_stein.kernels as ker

        quad_rule = ker.quad
        monkeypatch.setattr(ker, "quad", lambda *a, **kw: (quad_rule(*a, **kw)[0], math.nan))
        gt = GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                         m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.0)
        with pytest.raises(ConvergenceError) as exc:
            ker._discrepancy_quadrature(gt, 100, 5.0)
        assert math.isnan(exc.value.achieved_tol) and exc.value.partial > 0.0


class TestGeneralTailBoundsPinned:
    """Exact values of the GeneralTail quadrature bounds; any change in the
    integrands or the K1 dispatch that moves a bit shows up here."""

    @staticmethod
    def spec():
        return GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                           m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.0)

    def test_bound_main(self):
        from stable_stein.bounds import bound_main

        rep = bound_main(self.spec(), 1.5, 100, 5.0, 0.5)
        assert rep.discrepancy_term == 0.1881818377114076
        assert rep.total == 5.981158993388458

    def test_bound_mthm2(self):
        from stable_stein.bounds import bound_mthm2

        rep = bound_mthm2(self.spec(), 1.5, 100, 5.0, 0.5)
        assert rep.discrepancy_term == 0.1881818377114076
        assert rep.total == 6.517229424822543

    def test_discrepancy_k1_matches_public_k_function(self, mp_beta4):
        # the discrepancy resolves K1 once; the public k_function gives the
        # same values, including the closed form for the two-term family
        from stable_stein.kernels import _k_closed_two_term, _k_quadrature

        gt = self.spec()
        for t in (-3.0, -0.2, 0.01, 0.7, 4.0):
            assert k_function(gt, 1.5, 100, t, 5.0) == _k_quadrature(gt, 100, t, 5.0)
            assert k_function(mp_beta4, 1.5, 100, t, 5.0) == \
                _k_closed_two_term(mp_beta4, 100, t, 5.0)


def per_probe_values(spec, n, sgn, probes, kinks, a_kal, signed):
    """The probe classification without the panel table: the law's K1 rule,
    through signed(p), at every probe (the quadrature takes their signs)."""
    return [signed(p) for p in probes]


class TestProbeTable:
    """The discrepancy quadrature takes the signs of alpha Kal - n K1 at its
    probes from one panel table of K1 per side; everything it returns keeps
    the bits of the per-probe nested rule."""

    LAWS = {
        "general": lambda: GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                                       m1_fn=lambda x: 0.5 * x ** -2.0,
                                       m2_fn=lambda x: 0.0),
        "general-m2": lambda: GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                                          m1_fn=lambda x: 0.5 * x ** -2.0,
                                          m2_fn=lambda x: 0.1 / x),
        "log": lambda: LogPerturbedPareto(1.5, 1.0, x0=5.0),
        "log-beta2": lambda: LogPerturbedPareto(1.7, 2.0, x0=4.0),
    }
    NS = (10, 10 ** 3, 10 ** 6)
    TRUNCS = (0.5, 5.0, 500.0, 5000.0)

    @staticmethod
    def outcome(spec, n, N):
        from stable_stein.kernels import _discrepancy_quadrature

        try:
            return _discrepancy_quadrature(spec, n, N)
        except ConvergenceError as exc:
            return ("ConvergenceError", exc.partial, exc.achieved_tol)

    @pytest.mark.parametrize("law", LAWS)
    def test_bits_equal_per_probe_reference(self, law, monkeypatch):
        import stable_stein.kernels as ker

        cells = [(n, N) for n in self.NS for N in self.TRUNCS]
        fast = [self.outcome(self.LAWS[law](), n, N) for n, N in cells]
        monkeypatch.setattr(ker, "_probe_values", per_probe_values)
        reference = [self.outcome(self.LAWS[law](), n, N) for n, N in cells]
        assert fast == reference
        if law.startswith("general"):   # the n = 1e6 cells that miss their tolerance
            assert sum(isinstance(v, tuple) for v in fast) >= 1

    def recorded_sides(self, monkeypatch, law, n, N):
        """Every ``_probe_values`` call of one discrepancy: its arguments and
        the values it returned."""
        import stable_stein.kernels as ker

        calls, probe_values = [], ker._probe_values

        def record(*args):
            calls.append((args, probe_values(*args)))
            return calls[-1][1]

        monkeypatch.setattr(ker, "_probe_values", record)
        spec = self.LAWS[law]()
        self.outcome(spec, n, N)
        monkeypatch.undo()
        return spec, calls

    @pytest.mark.parametrize("law", LAWS)
    def test_table_agrees_with_nested_rule_at_probes(self, law, monkeypatch):
        # The gap is the nested rule's own error (its quad stops at an
        # absolute 1.49e-8; the table matches a tight reference, see below).
        # The largest, 1.12e-6 of the scale, is at log-beta2, n = 1e6,
        # N = 5000: a fifth of the margin leaves about 9x headroom there.
        import stable_stein.kernels as ker

        for N in self.TRUNCS:
            _, calls = self.recorded_sides(monkeypatch, law, 10 ** 6, N)
            assert calls
            for (_, _, _, probes, _, a_kal, signed), values in calls:
                for p, value in zip(probes, values):
                    nested = signed(p)
                    scale = abs(a_kal(p)) + (a_kal(p) - nested)
                    assert abs(value - nested) <= 0.2 * ker._PROBE_MARGIN * scale

    @pytest.mark.parametrize("law", ["general", "log-beta2"])
    def test_table_matches_tight_reference(self, law, monkeypatch):
        import stable_stein.kernels as ker

        N = 5000.0
        spec, calls = self.recorded_sides(monkeypatch, law, 10 ** 6, N)
        for (_, n, sgn, probes, kinks, a_kal, _), _ in calls:
            zt = ker._one_sided_tail(spec, sgn, spec.ell(n) ** (1.0 / spec.alpha), spec.mean)
            grid = sorted(set(probes).union(kinks))
            table = dict(zip(grid, ker._k1_table(zt, grid)))
            for p in probes[::40]:      # the 3-point rule's error is about 1e-11
                cuts = [math.log(k) for k in kinks if p < k]
                ref = p * zt(p) - N * zt(N) + quad(
                    lambda w: zt(math.exp(w)) * math.exp(w), math.log(p), math.log(N),
                    points=cuts or None, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                assert abs(table[p] - ref) <= 1e-10 * (abs(a_kal(p)) / n + ref)

    def test_probe_in_margin_band_runs_nested_rule(self):
        import stable_stein.kernels as ker

        spec, n, N = self.LAWS["general"](), 1000, 5.0
        zt = ker._one_sided_tail(spec, 1.0, spec.ell(n) ** (1.0 / spec.alpha), spec.mean)
        probes = np.geomspace(N * 1e-12, N, 400).tolist()
        table = dict(zip(probes, ker._k1_table(zt, probes)))
        band = probes[200]
        nested = []

        def a_kal(p):       # on the table's value at one probe, far above elsewhere
            return n * table[p] * (1.0 + 0.5 * ker._PROBE_MARGIN) if p == band else 1e9

        def signed(p):
            nested.append(p)
            return -1.0

        signs = np.sign(ker._probe_values(spec, n, 1.0, probes, [], a_kal, signed))
        assert nested == [band]
        assert signs[200] == -1.0 and (np.delete(signs, 200) == 1.0).all()


class TestLogTailThreshold:
    def test_closed_form_beta_zero(self):
        sol = solve_log_tail_scale(2.0, 3.0, 1.5, 0.0, 10 ** 6)
        assert sol.value == (2.0 * 10 ** 6) ** (1.0 / 1.5)
        assert sol.residual == 0.0

    def test_bisection_oracle_beta_one(self):
        from scipy.optimize import brentq

        K0, x0, alpha, n = 2.0, 3.0, 1.5, 10 ** 6
        sol = solve_log_tail_scale(K0, x0, alpha, 1.0, n)
        g = lambda A: A ** alpha - K0 * n * math.log(A)
        want = brentq(g, 10.0, 1e9, xtol=1e-6)
        assert sol.value == pytest.approx(want, rel=1e-9)
        assert sol.residual <= 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["K0", "x0", "beta"])
    def test_non_finite_input_rejected(self, which, bad):
        # a NaN K0 or x0 slipped past every comparison and came back as the
        # threshold; an infinite K0 gave A_n = inf
        args = {"K0": 2.0, "x0": 3.0, "beta": 0.0, which: bad}
        with pytest.raises(DomainError, match="finite"):
            solve_log_tail_scale(args["K0"], args["x0"], 1.5, args["beta"], 10 ** 6)

    def test_overflowing_iterate_raises(self):
        # the iterate overflows to inf and the residual is NaN, which no
        # tolerance comparison rejected; the iteration stops at that iterate
        with pytest.raises(ConvergenceError) as exc:
            solve_log_tail_scale(1e300, 1.99, 1.5, 4.0, 1000)
        assert math.isnan(exc.value.achieved_tol) and exc.value.partial == math.inf
        assert len(exc.value.trace) == 2 and exc.value.trace[-1] == math.inf

    def test_monotone_in_n(self):
        vals = [solve_log_tail_scale(2.0, 3.0, 1.5, 1.0, n).value
                for n in [10 ** 3, 2 * 10 ** 3, 10 ** 4, 10 ** 6]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bracket(self):
        K0, alpha, beta = 2.0, 1.5, 1.0
        for n in [10 ** 4, 10 ** 8]:
            a_n = solve_log_tail_scale(K0, 3.0, alpha, beta, n).value
            assert a_n >= 0.5 * (K0 * n) ** (1.0 / alpha)
            assert a_n <= 2.0 * (K0 * n) ** (1.0 / alpha) * math.log(n) ** (beta / alpha)

