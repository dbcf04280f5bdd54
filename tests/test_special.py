"""Gamma/Beta and the explicit constants against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_stein.errors import DomainError
from stable_stein.special import (
    D_alpha,
    D_alpha_gamma,
    beta_fn,
    d_alpha,
    gamma_fn,
)

from d_alpha_oracle import d_alpha_quadrature
from highprec import hp_D_alpha, hp_D_alpha_gamma, hp_d_alpha
from reference_tables import (
    ALPHAS,
    GAMMAS,
    ORACLE_BETA_THIRD,
    ORACLE_D_ALPHA,
    ORACLE_GAMMA_QUARTER,
    TABLE_D,
    TABLE_DGAMMA,
)


def gamma_integral_oracle(x: float) -> float:
    """Defining integral of Gamma by high-precision quadrature.

    For small x the substitution t = u^(1/x) removes the endpoint
    singularity (int t^(x-1) e^(-t) dt = (1/x) int e^(-u^(1/x)) du).  The
    node at u = 2 splits off the far tail, which at x = 0.05 is 0 to 40
    digits; without it the quadrature of [1, inf) converges far more slowly.
    For x >= 1/2 the raw integrand is smooth and is split at its mode.
    """
    with mp.workdps(40):
        if x < 0.5:
            val = mp.quad(lambda u: mp.e ** (-(u ** (1.0 / mp.mpf(x)))),
                          [0, 1, 2, mp.inf]) / x
        else:
            val = mp.quad(lambda t: t ** (mp.mpf(x) - 1) * mp.e ** (-t),
                          [0, max(x - 1.0, 1.0), 10.0 * x + 50.0, mp.inf])
        return float(val)


class TestGamma:
    def test_trivial_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-14)
        assert gamma_fn(2.0) == pytest.approx(1.0, abs=1e-14)

    def test_quarter_against_oracle(self):
        assert gamma_fn(0.25) == pytest.approx(ORACLE_GAMMA_QUARTER, rel=1e-12)

    @pytest.mark.parametrize("x", [0.05, 0.31, 0.9, 1.7, 5.5, 12.0, 27.3, 50.0])
    def test_against_defining_integral(self, x):
        assert gamma_fn(x) == pytest.approx(gamma_integral_oracle(x), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-11)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma_fn(bad)

    def test_bits_unchanged_where_the_power_fits(self):
        # the split power is taken only where t ** (z + 0.5) overflows
        from stable_stein.special import _LANCZOS_COEF, _LANCZOS_G

        def unsplit(x):
            z = x - 1.0
            acc = _LANCZOS_COEF[0]
            for i in range(1, len(_LANCZOS_COEF)):
                acc += _LANCZOS_COEF[i] / (z + i)
            t = z + _LANCZOS_G + 0.5
            return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc

        for x in np.linspace(0.5, 142.2, 500):
            assert gamma_fn(float(x)) == unsplit(float(x))

    @pytest.mark.parametrize("x", [142.3, 150.0, 171.0, 171.5, 171.62])
    def test_large_arguments_finite(self, x):
        assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-12)

    @pytest.mark.parametrize("x", [171.63, 172.0, 500.0, 1e300, 1e-310, 5e-324])
    def test_overflow_is_domain_error(self, x):
        with pytest.raises(DomainError, match="overflows"):
            gamma_fn(x)


class TestBeta:
    def test_uniform_mass(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_third_case(self):
        assert beta_fn(1.0 / 3.0, 4.0 / 3.0) == pytest.approx(ORACLE_BETA_THIRD, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_gamma_identity(self, x, y):
        assert beta_fn(x, y) == pytest.approx(beta_fn(y, x), rel=1e-13)
        assert beta_fn(x, y) * gamma_fn(x + y) == pytest.approx(
            gamma_fn(x) * gamma_fn(y), rel=1e-10)

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            beta_fn(*args)

    @pytest.mark.parametrize("x,y", [(100.0, 100.0), (0.5, 171.0), (85.0, 90.0),
                                     (300.0, 2.5), (1e-300, 150.0)])
    def test_past_the_gamma_range(self, x, y):
        assert beta_fn(x, y) == pytest.approx(float(mp.beta(x, y)), rel=1e-11)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            beta_fn(1e-320, 200.0)


class TestDAlpha:
    @pytest.mark.parametrize("alpha", [0.5, 1.1, 1.5, 1.9])
    def test_closed_form_vs_defining_integral(self, alpha):
        closed = d_alpha(alpha)
        quad = d_alpha_quadrature(alpha)
        assert abs(closed - quad) / closed <= 1e-8

    @pytest.mark.parametrize("alpha,expected", sorted(ORACLE_D_ALPHA.items()))
    def test_frozen_values(self, alpha, expected):
        assert d_alpha(alpha) == pytest.approx(expected, rel=1e-12)

    def test_limit_toward_two(self):
        r1 = abs(d_alpha(1.99) / 0.01 - 1.0)
        r2 = abs(d_alpha(1.999) / 0.001 - 1.0)
        assert r2 < r1
        assert 0.98 <= d_alpha(1.999) / 0.001 <= 1.0

    @pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, 2.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            d_alpha(bad)

    def test_memo_keeps_the_bits_of_a_fresh_computation(self):
        a = 1.2345678901
        fresh = a * 2.0 ** (a - 1.0) * gamma_fn((1.0 + a) / 2.0) / (
            math.sqrt(math.pi) * gamma_fn(1.0 - a / 2.0))
        first = d_alpha(np.float64(a))
        second = d_alpha(a)
        assert type(first) is float and type(second) is float
        assert first == fresh and second == fresh


class TestBoundConstants:
    def test_table_d_reproduction(self):
        for alpha, printed in zip(ALPHAS, TABLE_D):
            assert abs(D_alpha(alpha) - printed) <= 0.01

    def test_table_dgamma_reproduction(self):
        for gi, gamma in enumerate(GAMMAS):
            for ai, alpha in enumerate(ALPHAS):
                val = D_alpha_gamma(alpha, gamma)
                assert abs(val - TABLE_DGAMMA[gi][ai]) <= 0.02, (alpha, gamma)

    def test_against_50_digit_mirror(self):
        # all three are within about 3e-15 of the mirror on this grid
        for alpha in ALPHAS:
            assert d_alpha(alpha) == pytest.approx(float(hp_d_alpha(alpha)), rel=1e-13)
            assert D_alpha(alpha) == pytest.approx(float(hp_D_alpha(alpha)), rel=1e-13)
            for gamma in GAMMAS:
                assert D_alpha_gamma(alpha, gamma) == pytest.approx(
                    float(hp_D_alpha_gamma(alpha, gamma)), rel=1e-13), (alpha, gamma)

    def test_monotone_in_alpha(self):
        vals = [D_alpha(a) for a in ALPHAS]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_spot_values(self):
        assert D_alpha(1.5) == pytest.approx(5.51, abs=0.01)
        assert D_alpha_gamma(1.5, 0.5) == pytest.approx(18.12, abs=0.02)
        assert D_alpha_gamma(1.1, 0.1) == pytest.approx(33.13, abs=0.02)
        assert D_alpha_gamma(1.9, 0.9) == pytest.approx(80.16, abs=0.02)

    @pytest.mark.parametrize("bad", [1.0, 2.0, 0.9])
    def test_domain_alpha(self, bad):
        with pytest.raises(DomainError):
            D_alpha(bad)
        with pytest.raises(DomainError):
            D_alpha_gamma(bad, 0.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2])
    def test_domain_gamma(self, bad):
        with pytest.raises(DomainError):
            D_alpha_gamma(1.5, bad)

    def test_dgamma_equals_unmemoized_expression(self):
        # the memoized prefactor keeps the left-to-right product
        for alpha in ALPHAS:
            bracket = 16.0 / (math.pi * (2.0 - alpha)) * math.sqrt((alpha + 3.0) / alpha) \
                + 16.0 / (math.pi * (alpha - 1.0)) * math.sqrt((2.0 * alpha + 1.0) / alpha)
            for gamma in GAMMAS:
                want = d_alpha(alpha) / alpha * bracket * beta_fn(
                    (1.0 - gamma) / alpha, (gamma + alpha) / alpha)
                assert D_alpha_gamma(alpha, gamma) == want, (alpha, gamma)
                assert D_alpha_gamma(np.float64(alpha), gamma) == want, (alpha, gamma)
