"""Stable density/CDF/quantile against the analytic Cauchy case, doubled-
resolution inversion oracles, finite differences and the derivative bounds;
the quantile table's PCHIP against scipy's."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_stein._quad import gl_rule, panel_nodes
from stable_stein.density import (
    QuantileTable,
    StableLaw,
    cdf,
    density,
    density_deriv,
    osc_integral_I,
    osc_integral_J,
    quantile,
    quantile_table,
    verify_hk_bounds,
)
from stable_stein.errors import DomainError
from stable_stein.special import d_alpha, gamma_fn


def inversion_oracle(x: float, alpha: float, theta: float = 0.0, kind: str = "cos") -> float:
    """Independent inversion at doubled resolution: brute panel quadrature
    with 32-node panels of half the production width and a wider cutoff."""
    lam_max = (2.0 * 41.45) ** (1.0 / alpha)
    width = min(math.pi / (2.0 * max(abs(x), 1e-9)), lam_max / 64.0)
    k = int(math.ceil(lam_max / width))
    coarse = np.linspace(0.0, lam_max, k + 1)[1:]
    fine = np.concatenate([np.geomspace(coarse[0] * 2.0 ** -60, coarse[0], 61), coarse[1:]])
    nodes, weights = panel_nodes(np.concatenate([[fine[0] * 0.5], fine]), order=32)
    trig = np.cos if kind == "cos" else np.sin
    vals = nodes ** theta * np.exp(-nodes ** alpha) * trig(nodes * x)
    head = fine[0] * 0.5
    stub = head ** (theta + 1.0) / (theta + 1.0) if kind == "cos" else 0.0
    return float(np.dot(vals, weights)) + stub


class TestOscIntegrals:
    def test_zero_argument_reduces_to_gamma(self):
        for alpha in [1.0, 1.5]:
            assert osc_integral_I(0.0, 0.0, alpha) == pytest.approx(
                gamma_fn(1.0 / alpha) / alpha, rel=1e-12)

    def test_exponential_case(self):
        assert osc_integral_I(0.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_against_doubled_resolution(self):
        for (theta, x, alpha) in [(0.0, 5.0, 1.5), (0.0, 0.7, 1.1), (2.0, 3.0, 1.7),
                                  (-0.5, 1.0, 1.5), (0.3, 12.0, 1.3)]:
            got = osc_integral_I(theta, x, alpha)
            want = inversion_oracle(x, alpha, theta, "cos")
            assert got == pytest.approx(want, abs=1e-9)

    @given(st.floats(min_value=-0.9, max_value=3.0),
           st.floats(min_value=-30.0, max_value=30.0),
           st.floats(min_value=1.05, max_value=1.95))
    @settings(max_examples=60, deadline=None)
    def test_uniform_bound(self, theta, x, alpha):
        bound = gamma_fn((theta + 1.0) / alpha) / alpha
        assert abs(osc_integral_I(theta, x, alpha)) <= bound + 1e-9
        assert abs(osc_integral_J(theta, x, alpha)) <= bound + 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            osc_integral_I(-1.0, 0.0, 1.5)
        with pytest.raises(DomainError):
            osc_integral_I(0.0, 0.0, 2.5)


class TestDensity:
    def test_cauchy_closed_form(self):
        law = StableLaw(1.0)
        for x in [0.0, 0.5, 1.0, 3.0, 20.0]:
            assert density(law, x) == pytest.approx(
                1.0 / (math.pi * (1.0 + x * x)), rel=1e-10)

    def test_center_value(self):
        law = StableLaw(1.5)
        assert density(law, 0.0) == pytest.approx(
            gamma_fn(1.0 / 1.5) / (1.5 * math.pi), rel=1e-12)

    def test_against_oracle(self):
        law = StableLaw(1.5)
        assert density(law, 3.0) == pytest.approx(
            inversion_oracle(3.0, 1.5) / math.pi, abs=1e-8)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_normalization(self, alpha):
        law = StableLaw(alpha)
        edges = np.array([0.0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 400.0])
        nodes, w = panel_nodes(edges, order=40)
        vals = np.array([density(law, float(x)) for x in nodes])
        integral = 2.0 * float(np.dot(vals, w))
        tail = 2.0 * d_alpha(alpha) / alpha * 400.0 ** (-alpha)
        assert abs(integral + tail - 1.0) <= 1e-6

    @given(st.floats(min_value=1.05, max_value=1.95),
           st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_positive(self, alpha, x):
        law = StableLaw(alpha)
        p = density(law, x)
        assert p > 0.0
        assert p == pytest.approx(density(law, -x), rel=1e-11)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_scaling_law(self, t):
        # t^{1/alpha} X has characteristic function e^{-t |l|^alpha}; its
        # density, inverted directly by scipy's Fourier-integral rule, is
        # t^{-1/alpha} p(t^{-1/alpha} x)
        from scipy.integrate import quad

        alpha = 1.5
        for x in [0.2, 1.0, 4.0]:
            direct = quad(lambda lam: math.exp(-t * lam ** alpha), 0.0, math.inf,
                          weight="cos", wvar=x)[0] / math.pi
            rhs = t ** (-1.0 / alpha) * density(StableLaw(alpha), t ** (-1.0 / alpha) * x)
            assert direct == pytest.approx(rhs, rel=1e-8)


class TestDerivatives:
    def test_symmetry_at_zero(self):
        assert density_deriv(StableLaw(1.5), 0.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_first_derivative_fd(self):
        law = StableLaw(1.3)
        h = 1e-4
        fd = (density(law, 2.0 + h) - density(law, 2.0 - h)) / (2.0 * h)
        assert density_deriv(law, 2.0, 1) == pytest.approx(fd, abs=1e-5)

    def test_second_derivative_fd(self):
        law = StableLaw(1.7)
        h = 1e-4
        fd = (density(law, 1.0 + h) - 2.0 * density(law, 1.0) + density(law, 1.0 - h)) / h ** 2
        assert density_deriv(law, 1.0, 2) == pytest.approx(fd, abs=1e-5)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            density_deriv(StableLaw(1.5), 1.0, 3)


class TestFarTail:
    """Beyond |x| = 2000 the density and its derivatives come from the
    tail series, whose cost does not grow with |x|."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_two_sides_of_the_switch_agree(self, alpha):
        law = StableLaw(alpha)
        for x in (2000.0, -2000.0):
            beyond = math.nextafter(x, math.copysign(math.inf, x))
            # x itself still goes through the Fourier inversion
            assert density(law, beyond) == pytest.approx(density(law, x), rel=0, abs=1e-15)
            for order in (1, 2):
                assert density_deriv(law, beyond, order) == pytest.approx(
                    density_deriv(law, x, order), rel=0, abs=1e-15)

    def test_far_points_are_finite_without_quadrature(self, monkeypatch):
        den = sys.modules["stable_stein.density"]   # the package's `density` is a function

        def refuse(*args):
            raise AssertionError("Fourier inversion beyond the tail switch")

        monkeypatch.setattr(den, "_fourier_integral", refuse)
        law = StableLaw(1.5)
        for x in (1e6, -1e6, 1e300, math.inf, -math.inf):
            p = density(law, x)
            assert math.isfinite(p) and p >= 0.0
            for order in (1, 2):
                assert math.isfinite(density_deriv(law, x, order))
        assert density(law, math.inf) == 0.0
        # at 1e6 the leading tail term alpha c x^{-alpha-1} is exact to ~1e-9
        c = d_alpha(1.5) / 1.5
        lead = 1.5 * c * 1e6 ** -2.5
        assert density(law, 1e6) == pytest.approx(lead, rel=1e-8)
        assert density_deriv(law, 1e6, 1) == pytest.approx(-2.5 * lead / 1e6, rel=1e-8)
        assert density_deriv(law, -1e6, 1) == pytest.approx(2.5 * lead / 1e6, rel=1e-8)
        assert density_deriv(law, 1e6, 2) == pytest.approx(2.5 * 3.5 * lead / 1e12, rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_cdf_beyond_the_switch_against_mpmath(self, alpha):
        # the CDF takes the same tail series as the density, not its
        # one-term power asymptotic (4e-5 off at alpha 1.1, x = 2001)
        import mpmath

        law = StableLaw(alpha)
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            for x in (2001.0, 1e5):
                # the terms fall by about x^{-alpha} each: 40 leave < 1e-40
                X = mpmath.mpf(x)
                want = sum((-1) ** (k + 1) * mpmath.gamma(a * k) / mpmath.factorial(k)
                           * mpmath.sin(mpmath.pi * a * k / 2) * X ** (-a * k)
                           for k in range(1, 41)) / mpmath.pi
                assert abs(cdf(law, -x) / want - 1) <= 1e-13, x
        assert cdf(law, math.inf) == 1.0 and cdf(law, -math.inf) == 0.0


class TestArrayCalls:
    """An array of x goes through the same engine as a float x, on node sets
    shared by the points of a rung."""

    GRID = np.concatenate([np.linspace(-2400.0, 2400.0, 97), np.linspace(-9.0, 9.0, 73),
                           [2000.0, -2000.0, np.nextafter(2000.0, 3000.0), 0.0, -0.0]])

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_array_equals_one_point_calls(self, alpha):
        law = StableLaw(alpha)
        xs = self.GRID
        cases = [(density(law, xs), lambda x: density(law, x)),
                 (cdf(law, xs), lambda x: cdf(law, x))]
        cases += [(density_deriv(law, xs, k), lambda x, k=k: density_deriv(law, x, k))
                  for k in (1, 2)]
        for got, one in cases:
            want = np.array([one(float(x)) for x in xs])
            assert got.shape == xs.shape
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_shape_and_nan(self):
        law = StableLaw(1.5)
        xs = np.array([[0.5, np.nan], [-3000.0, 1.0]])
        p, f = density(law, xs), cdf(law, xs)
        assert p.shape == f.shape == (2, 2)
        assert np.isnan(p[0, 1]) and np.isnan(f[0, 1])
        assert p[0, 0] == pytest.approx(density(law, 0.5), abs=1e-15)
        assert f[1, 0] == cdf(law, -3000.0)

    def test_far_array_never_reaches_the_engine(self, monkeypatch):
        # an array with no entry up to |x| = 2000 makes no engine call, not
        # even one with an empty array
        den = sys.modules["stable_stein.density"]

        def refuse(*args):
            raise AssertionError("Fourier inversion beyond the tail switch")

        monkeypatch.setattr(den, "_fourier_integral", refuse)
        xs = np.array([-1e6, 2500.0, math.inf])
        for got in (density(StableLaw(1.5), xs), cdf(StableLaw(1.5), xs),
                    density_deriv(StableLaw(1.5), xs, 2)):
            assert got.shape == (3,) and np.all(np.isfinite(got))

    def test_scalar_cdf_at_nan_is_nan(self):
        # a clamp to [0, 1] must not turn NaN into 0
        assert math.isnan(cdf(StableLaw(1.5), math.nan))
        assert math.isnan(density(StableLaw(1.5), math.nan))

    @pytest.mark.parametrize("lo,hi", [(-1000.0, 1000.0), (99.0, 100.0)])
    def test_engine_scratch_does_not_grow_with_the_grid(self, lo, hi):
        # 2000 points in one call.  Up to |x| = 1000 a node set has up to
        # 62000 nodes, whose temporaries take a few MiB; one product over
        # all the points would take 2000 x 62000 doubles (about 1 GB).  On
        # [99, 100] about 500 points share each node set of 6900 nodes, so
        # only the 2^16-entry cap on a product keeps each under 512 KiB
        # (26 MiB without it)
        import tracemalloc

        den = sys.modules["stable_stein.density"]
        xs = np.linspace(lo, hi, 2000)
        tracemalloc.start()
        try:
            out = den._fourier_integral(0.0, xs, 1.5, "cos")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < 16 * 2 ** 20


class TestHeatKernelBounds:
    def test_margins_small_grid(self):
        rep = verify_hk_bounds(1.5, [-20.0, -5.0, -1.0, -0.5, 0.0, 0.5, 1.0, 5.0, 20.0])
        assert rep.worst() >= -1e-6

    def test_far_point(self):
        law = StableLaw(1.1)
        d1 = abs(density_deriv(law, 100.0, 1))
        assert d1 <= (2.0 * 1.1 + 1.0) / (math.pi * 100.0 ** 2)

    def test_zero_point(self):
        law = StableLaw(1.9)
        assert abs(density_deriv(law, 0.0, 1)) <= 1.0 / (1.9 * math.pi)

    def test_empty_grid(self):
        # no point checked is not a bound that holds
        with pytest.raises(DomainError):
            verify_hk_bounds(1.5, [])

    @pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_all_alphas_coarse(self, alpha):
        grid = np.linspace(-100.0, 100.0, 41)
        assert verify_hk_bounds(alpha, grid).worst() >= -1e-6


class TestCdfQuantile:
    def test_cauchy_cdf(self):
        law = StableLaw(1.0)
        assert cdf(law, 1.0) == pytest.approx(0.75, rel=1e-12)
        assert cdf(law, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_quantile_median(self):
        assert quantile(StableLaw(1.5), 0.5) == 0.0

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_round_trip(self, alpha):
        law = StableLaw(alpha)
        for u in np.arange(0.01, 0.995, 0.07):
            x = quantile(law, float(u))
            assert abs(x) <= 50.0 or u in (0.01, 0.99)
            u_back = cdf(law, x)
            x_back = quantile(law, u_back)
            assert x_back == pytest.approx(x, abs=1e-6)

    def test_strictly_increasing(self):
        law = StableLaw(1.5)
        xs = np.linspace(-30, 30, 31)
        fs = [cdf(law, float(x)) for x in xs]
        assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_tail_matches_power_asymptotic(self):
        law = StableLaw(1.5)
        c = d_alpha(1.5) / 1.5
        for x in [50.0, 200.0, 1000.0]:
            rel = abs((1.0 - cdf(law, x)) / (c * x ** -1.5) - 1.0)
            assert rel < 0.05 / x ** 0.5

    def test_quantile_domain(self):
        law = StableLaw(1.5)
        for bad in [0.0, 1.0, -0.1, 1.3]:
            with pytest.raises(DomainError):
                quantile(law, bad)


class TestQuantileTable:
    def test_matches_exact_quantile(self):
        law = StableLaw(1.5)
        tab = QuantileTable(1.5)
        for u in [0.001, 0.2, 0.5, 0.77, 0.999, 0.999999]:
            assert float(tab(np.array([u]))[0]) == pytest.approx(
                quantile(law, u), rel=1e-4, abs=2e-5)

    def test_monotone_vectorized(self):
        tab = QuantileTable(1.3)
        us = np.linspace(1e-9, 1.0 - 1e-9, 2001)
        xs = tab(us)
        assert np.all(np.diff(xs) >= 0.0)

    @pytest.mark.parametrize("m", [2000, 28500, 30000])
    def test_cell_quantiles_in_chunks_equal_one_call(self, m):
        # cell_quantiles evaluates 2048 cells at a time (one chunk at
        # m = 2000, 14 or 15 at the jackknife and full sizes of m = 3e4);
        # the bits are those of one call on every node
        tab = quantile_table(1.5)
        i_lo, i_hi, q, w = tab.cell_quantiles(m)
        nodes, _ = gl_rule(4)
        left = np.arange(i_lo - 1, i_hi) / m
        u = left[:, None] + (1.0 / m) * 0.5 * (nodes[None, :] + 1.0)
        assert q.shape == (i_hi - i_lo + 1, 4)
        assert q.tobytes() == tab(u.ravel()).reshape(u.shape).tobytes()

    def test_cache_keyed_on_the_exact_alpha(self):
        # a nearby alpha gets its own table, not the one of a rounded key
        assert quantile_table(1.5).alpha == 1.5
        assert quantile_table(1.5 + 1e-13).alpha == 1.5 + 1e-13


@pytest.fixture
def table_knots(monkeypatch):
    """alpha -> (knots F(x_k), values x_k, interpolant) of a fresh QuantileTable."""
    den = sys.modules["stable_stein.density"]   # the package's `density` is a function
    seen = []

    class Recording(den._Pchip):
        def __init__(self, x, y):
            seen.append((np.array(x), np.array(y)))
            super().__init__(x, y)

    monkeypatch.setattr(den, "_Pchip", Recording)

    def build(alpha):
        tab = QuantileTable(alpha)
        fs, xs = seen.pop()
        return fs, xs, tab._inv

    return build


class TestPchipParity:
    """The in-house PCHIP equals scipy's PchipInterpolator bit for bit."""

    @pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_table_knots_match_scipy(self, alpha, table_knots):
        from scipy.interpolate import PchipInterpolator

        fs, xs, ours = table_knots(alpha)
        ref = PchipInterpolator(fs, xs, extrapolate=False)
        assert fs.size > 600
        for k in range(4):
            assert np.array_equal(ours.c[k], ref.c[k]), k
        rng = np.random.default_rng(int(alpha * 10))
        probes = np.concatenate([
            rng.uniform(fs[0], fs[-1], 100_000),
            fs, np.nextafter(fs, 2.0), np.nextafter(fs, 0.0),
        ])
        want, got = ref(probes), ours(probes)
        assert np.array_equal(got, want, equal_nan=True)
        inside = (probes >= fs[0]) & (probes <= fs[-1])
        assert np.all(np.isfinite(got[inside])) and np.all(np.isnan(got[~inside]))
        ends = ours(fs[[0, -1]])     # the last interval is closed on the right
        assert np.array_equal(ends, ref(fs[[0, -1]])) and np.all(np.isfinite(ends))

    def test_nan_outside_the_knots(self, table_knots):
        fs, _, ours = table_knots(1.5)
        out = ours(np.array([fs[0] - 1e-3, np.nextafter(fs[0], 0.0), np.nextafter(fs[-1], 2.0),
                             fs[-1] + 1e-3, -np.inf, np.inf, np.nan]))
        assert np.all(np.isnan(out))

    def test_chunked_evaluation_equals_pointwise(self, table_knots):
        # a call longer than one evaluation chunk gives the values of
        # one-point calls, at the chunk edges too
        fs, _, ours = table_knots(1.3)
        probes = np.random.default_rng(3).uniform(fs[0], fs[-1], 20_000)
        whole = ours(probes)
        for i in (0, 1, 8191, 8192, 8193, 16383, 16384, 19999):
            assert ours(probes[i:i + 1])[0] == whole[i], i

    def test_shared_by_racing_threads(self, table_knots):
        # one interpolant read by more threads than cores, with a short
        # switch interval: every thread gets the serial values
        _, _, ours = table_knots(1.7)
        rng = np.random.default_rng(11)
        work = [rng.uniform(ours.x[0], ours.x[-1], 30_000) for _ in range(6)]
        want = [ours(w) for w in work]
        got = [None] * len(work)

        def run(i):
            for _ in range(5):
                got[i] = ours(work[i])
                if not np.array_equal(got[i], want[i]):
                    return

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestTailKnots:
    """The table's tail knots come from the stable tail series, and where the
    series falls short of the last bit of F, from quadrature."""

    @pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_knots_match_quadrature(self, alpha, table_knots, monkeypatch):
        fs, xs, _ = table_knots(alpha)
        den = sys.modules["stable_stein.density"]
        monkeypatch.setattr(den, "_tail_series", lambda x, alpha: None)
        fq, xq, _ = table_knots(alpha)      # every knot by quadrature
        assert fs.size == fq.size and np.array_equal(xs, xq)
        assert np.max(np.abs(fs - fq)) <= 1e-14

    @pytest.mark.parametrize("alpha,series_only", [(1.5, True), (1.99, False)])
    def test_quadrature_only_where_the_series_falls_short(self, alpha, series_only,
                                                           monkeypatch):
        # counts the x values handed to the inversion engine, in one call
        den = sys.modules["stable_stein.density"]
        seen = []
        real = den._fourier_integral

        def counting(theta, x, alpha, kind):
            seen.append(np.size(x))
            return real(theta, x, alpha, kind)

        monkeypatch.setattr(den, "_fourier_integral", counting)
        QuantileTable(alpha)
        core = 401                          # x = 0, 0.02, ..., 8
        assert len(seen) == 1
        if series_only:
            assert seen[0] == core
        else:
            assert seen[0] > core

    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 1.9])
    def test_series_against_mpmath(self, alpha):
        import mpmath

        den = sys.modules["stable_stein.density"]
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            for x in np.geomspace(8.0 * 1.05, 2000.0, 260)[::13]:
                got = den._tail_series(float(x), alpha)
                if got is None:
                    continue
                # the same terms: up to, not including, the smallest size,
                # or the first size below the cut
                X = mpmath.mpf(float(x))
                total = mpmath.mpf(0)
                k = 1
                size = mpmath.gamma(a) / (mpmath.pi * X ** a)
                while size > den._SERIES_TOL * 2.0 ** -10:
                    nxt = mpmath.gamma(a * (k + 1)) / (
                        mpmath.pi * mpmath.factorial(k + 1) * X ** (a * (k + 1)))
                    if nxt >= size:
                        break
                    total += (-1) ** (k + 1) * size * mpmath.sin(mpmath.pi * a * k / 2)
                    size = nxt
                    k += 1
                want = 1 - total
                assert abs(mpmath.mpf(1.0 - got) - want) <= math.ulp(float(want)), x
