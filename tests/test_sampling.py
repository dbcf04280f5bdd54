"""Samplers, stream discipline, the W1 estimators and the rate fit."""

import concurrent.futures
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from stable_stein.density import StableLaw, quantile
from stable_stein.errors import DomainError
from stable_stein.kernels import HallTransform, LogPerturbedPareto, ModifiedPareto, Pareto
from stable_stein.sampling import (
    STREAM_SUMMANDS,
    EmpiricalW1Result,
    SampleBatch,
    empirical_w1,
    fit_rate,
    sample_stable,
    sample_sum,
    substream,
)
import stable_stein.sampling as smp
from stable_stein.sampling import _restream, _sample_sums

from reference_tables import ORACLE_ABS_MOMENT


class TestStreams:
    def test_reproducible(self):
        a = substream(42, STREAM_SUMMANDS, 7).random(16)
        b = substream(42, STREAM_SUMMANDS, 7).random(16)
        assert np.array_equal(a, b)

    def test_disjoint_indices(self):
        a = substream(42, STREAM_SUMMANDS, 7).random(16)
        b = substream(42, STREAM_SUMMANDS, 8).random(16)
        c = substream(43, STREAM_SUMMANDS, 7).random(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_kind_separation(self):
        a = substream(42, 0, 1).random(8)
        b = substream(42, 1, 1).random(8)
        assert not np.array_equal(a, b)

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            substream(-1, 0, 0)

    def test_rekeyed_stream_equals_substream(self):
        # one Philox re-keyed per replicate gives the streams substream
        # builds, whatever the previous stream left in its buffer
        for seed in (42, 2 ** 64 - 1):
            seek = _restream(seed, STREAM_SUMMANDS, 1)
            for r in (0, 1, 7, 255, 256, 2 ** 48 - 1, 3):
                want = substream(seed, STREAM_SUMMANDS, r)
                got = seek(r, 0)
                assert np.array_equal(got.random(5), want.random(5)), r
                assert got.integers(0, 2 ** 32, dtype=np.uint32) == \
                    want.integers(0, 2 ** 32, dtype=np.uint32)
                assert np.array_equal(got.standard_exponential(3),
                                      want.standard_exponential(3))

    def test_slots_keep_their_own_streams(self):
        # draws that take turns between slots continue each slot's stream
        seek = _restream(42, STREAM_SUMMANDS, 3)
        rngs = [seek(r, slot) for slot, r in enumerate((5, 0, 9))]
        got = [np.concatenate([rng.random(3) for _ in range(4)]) for rng in rngs]
        for r, g in zip((5, 0, 9), got):
            assert np.array_equal(g, substream(42, STREAM_SUMMANDS, r).random(12)), r
        # re-keying one slot leaves the others where they were
        assert np.array_equal(seek(7, 1).random(4),
                              substream(42, STREAM_SUMMANDS, 7).random(4))
        assert np.array_equal(rngs[2].random(2),
                              substream(42, STREAM_SUMMANDS, 9).random(14)[12:])

    def test_rekeyed_stream_domain(self):
        with pytest.raises(DomainError):
            _restream(-1, STREAM_SUMMANDS, 1)
        with pytest.raises(DomainError):
            _restream(2 ** 64, STREAM_SUMMANDS, 1)
        seek = _restream(42, STREAM_SUMMANDS, 1)
        with pytest.raises(DomainError):
            seek(2 ** 48, 0)
        with pytest.raises(DomainError):
            seek(-1, 0)
        with pytest.raises(DomainError):
            substream(42, STREAM_SUMMANDS, 2 ** 48)


class TestSummandSamplers:
    @pytest.mark.parametrize("make", [
        lambda: Pareto(1.5),
        lambda: ModifiedPareto(1.5, 4.0, A=1.5 * 4 / 5.5, B=1.5 * 4 / 5.5),
        lambda: HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5),
        lambda: LogPerturbedPareto(1.5, 1.0, x0=5.0),
    ])
    def test_marginal_tails(self, make):
        spec = make()
        xs = spec.sample(substream(5, 5, 1), 200000)
        probes = [1.5, 2.0, 5.0, 10.0, 20.0] if spec.support_radius <= 1.0 \
            else [6.0, 8.0, 15.0, 40.0, 100.0]
        for x in probes:
            p = float(spec.tail_abs(x))
            se = math.sqrt(p * (1.0 - p) / xs.size)
            assert abs(float(np.mean(np.abs(xs) > x)) - p) <= 3.0 * se, x

    def test_pareto_mean_zero(self):
        xs = Pareto(1.5).sample(substream(5, 5, 2), 10 ** 6)
        se = float(np.std(xs) / math.sqrt(xs.size))
        assert abs(float(np.mean(xs))) <= 3.0 * se

    def test_momest_monte_carlo(self):
        spec = Pareto(1.5)
        xs = spec.sample(substream(5, 5, 3), 10 ** 6)
        for t in [0.5, 2.0, 5.0]:
            vals = xs * (xs > t)
            closed = 1.5 / (2.0 * 0.5) * max(t, 1.0) ** -0.5
            se = float(np.std(vals, ddof=1) / math.sqrt(xs.size))
            assert abs(float(np.mean(vals)) - closed) <= 3.0 * se


class TestStableSampler:
    def test_cauchy_case(self):
        xs = sample_stable(1.0, substream(9, 5, 0), 10 ** 5)
        med = float(np.median(xs))
        assert abs(med) <= 3.0 * (math.pi / 2.0) / math.sqrt(xs.size)
        p = float(np.mean(xs > 1.0))
        assert abs(p - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / xs.size)

    def test_char_function(self):
        xs = sample_stable(1.5, substream(9, 5, 1), 10 ** 6)
        assert abs(float(np.mean(np.cos(xs))) - math.exp(-1.0)) <= 0.004
        assert abs(float(np.mean(np.sin(xs)))) <= 0.004

    def test_char_function_cross_module(self):
        # sampler against the target's characteristic function e^{-|lam|^alpha}
        xs = sample_stable(1.3, substream(9, 5, 2), 10 ** 6)
        for lam in [0.5, 1.0, 2.0]:
            want = math.exp(-abs(lam) ** 1.3)
            got = float(np.mean(np.cos(lam * xs)))
            assert abs(got - want) <= 4.0 / math.sqrt(xs.size) + 0.002

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_stable(2.0, substream(9, 5, 3), 10)


class TestSampleSum:
    def test_determinism_across_thread_counts(self, pareto15, monkeypatch):
        monkeypatch.setenv("STABLE_STEIN_THREADS", "1")
        b1 = sample_sum(pareto15, 100, 4000, seed=42)
        monkeypatch.setattr(smp, "_cpus", lambda: 8)    # 8 workers on any host
        monkeypatch.setenv("STABLE_STEIN_THREADS", "8")
        b8 = sample_sum(pareto15, 100, 4000, seed=42)
        assert b1.values.tobytes() == b8.values.tobytes()

    def test_pool_capped_at_available_cpus(self, pareto15, monkeypatch):
        # a thread cap far above the CPU count sizes the pool by the CPUs;
        # the stand-in pool records its size and runs the work inline, so
        # no thread starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setenv("STABLE_STEIN_THREADS", "1")
        want = sample_sum(pareto15, 100, 4000, seed=42)
        monkeypatch.setattr(smp.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(smp.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setenv("STABLE_STEIN_THREADS", "20000")
        got = sample_sum(pareto15, 100, 4000, seed=42)
        assert sizes == [3]
        assert got.values.tobytes() == want.values.tobytes()

    def test_sorted_and_sized(self, pareto15):
        b = sample_sum(pareto15, 10, 500, seed=1)
        assert b.values.size == 500
        assert np.all(np.diff(b.values) >= 0.0)

    def test_single_summand_matches_marginal(self, pareto15):
        # S_1 = ell_1^{-1/alpha} xi; its tail is the scaled summand tail
        b = sample_sum(pareto15, 1, 200000, seed=2)
        root = pareto15.ell(1) ** (1.0 / 1.5)
        for x in [2.0, 5.0]:
            p = float(pareto15.tail_abs(x * root))
            se = math.sqrt(p * (1.0 - p) / b.m)
            assert abs(float(np.mean(np.abs(b.values) > x)) - p) <= 3.0 * se

    def test_large_n_tail_probability(self, pareto15):
        # P(S_n > q_{0.95}) ~ 0.05 using the target quantile
        law = StableLaw(1.5)
        q95 = quantile(law, 0.95)
        b = sample_sum(pareto15, 10 ** 3, 20000, seed=3)
        p = float(np.mean(b.values > q95))
        se = math.sqrt(0.05 * 0.95 / b.m)
        assert abs(p - 0.05) <= 4.0 * se

    def test_validation(self, pareto15):
        with pytest.raises(DomainError):
            sample_sum(pareto15, 0, 100, seed=0)


def whole_row_sums(spec, n, m, seed):
    """Sorted S_n from whole-row draws: each row summed in 32768-column parts,
    the one part's plain sum or the exact fsum of several parts."""
    scale = spec.ell(n) ** (-1.0 / spec.alpha)
    out = []
    for r in range(m):
        row = spec.sample(substream(seed, STREAM_SUMMANDS, r), n)
        parts = [row[i:i + 32768].sum() for i in range(0, n, 32768)]
        total = parts[0] if len(parts) == 1 else math.fsum(parts)
        out.append(scale * (total - n * spec.mean))
    return np.sort(out)


class OwnSamplerPareto(Pareto):
    """Pareto(alpha) drawn by its own ``sample``, sign then size from two
    uniforms per draw: its bits differ from the inherited inverse CDF's."""

    def sample(self, rng, size):
        sign, v = rng.random((size, 2)).T
        return np.copysign(v ** (-1.0 / self.alpha), sign - 0.5)


class OwnPpfPareto(Pareto):
    """A Pareto subclass with its own ``ppf`` (no factor 2 in the fold, the
    sign flipped), which the shared ``sample`` draws through: its bits differ
    from the inherited inverse CDF's."""

    def ppf(self, u):
        return np.copysign(np.minimum(u, 1.0 - u) ** (-1.0 / self.alpha), 0.5 - u)


@pytest.fixture
def own_sampler():
    return OwnSamplerPareto(1.5)


@pytest.fixture
def own_ppf():
    return OwnPpfPareto(1.5)


class TestSlicedDraws:
    """A block of replicates draws its rows slice by slice into one buffer."""

    # one slice, a full slice, just over, three; at 3162 a transform pass
    # takes 10 rows, which do not divide the 32-row block
    NS = [100, 3162, 32768, 32769, 70001]

    # own_sampler, own_ppf: a family that overrides sample or ppf is drawn through it
    @pytest.mark.parametrize("family", ["pareto15", "mp_beta4", "hall", "log_pareto",
                                        "own_sampler", "own_ppf"])
    def test_bits_equal_whole_rows(self, family, request, monkeypatch):
        spec = request.getfixturevalue(family)
        want = [whole_row_sums(spec, n, 70, 11) for n in self.NS]
        for threads in ("1", "2"):
            monkeypatch.setenv("STABLE_STEIN_THREADS", threads)
            for n, w in zip(self.NS, want):
                assert sample_sum(spec, n, 70, 11).values.tobytes() == w.tobytes(), \
                    (threads, n)
            grid = _sample_sums(spec, self.NS, 70, 11)    # one draw at max(NS)
            assert [b.values.tobytes() for b in grid] == [w.tobytes() for w in want], \
                threads

    @pytest.mark.parametrize("family", ["pareto15", "mp_beta4", "hall", "log_pareto"])
    def test_working_memory_does_not_grow_with_n(self, family, request, monkeypatch):
        # one worker's buffer is 32 x 32768 floats (8.4 MB), and the law's
        # transform works on 32768 values at a time; whole rows of n = 1e5
        # took about 32 MB
        spec = request.getfixturevalue(family)
        monkeypatch.setenv("STABLE_STEIN_THREADS", "1")
        sample_sum(spec, 100, 40, 1)                # numpy and the law set up
        tracemalloc.start()
        try:
            sample_sum(spec, 100_000, 40, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak


class TestIntegerCounts:
    """n and m are ints or integral floats, converted before any draw."""

    def test_integral_floats_accepted(self, pareto15):
        ref = sample_sum(pareto15, 1000, 500, 1)
        for b in (sample_sum(pareto15, 1e3, 500, 1), sample_sum(pareto15, 1000, 5e2, 1),
                  sample_sum(pareto15, np.int64(1000), np.float64(500.0), 1)):
            assert type(b.n) is int and type(b.m) is int
            assert (b.n, b.m) == (1000, 500)
            assert b.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("n,m", [(100.5, 500), (1000, 500.5), (0, 500), (1000, 0.0),
                                     (math.nan, 500), (1000, math.inf), ("1000", 500),
                                     (None, 500)])
    def test_anything_else_raises_before_drawing(self, pareto15, n, m, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the counts")

        monkeypatch.setattr(Pareto, "sample", no_draws)
        monkeypatch.setattr(Pareto, "_sample_rows", no_draws)
        with pytest.raises(DomainError):
            sample_sum(pareto15, n, m, 1)

    def test_fit_on_integral_floats_is_the_integer_fit(self, pareto15):
        # the slope is fitted on log of the int n, whatever spelling it came in
        ints = fit_rate(pareto15, 1.5, [100, 316, 1000, 3162], 500, 1, "one_sample_quantile")
        floats = fit_rate(pareto15, 1.5, [100.0, 316.0, 1e3, 3162.0], 5e2, 1,
                          "one_sample_quantile")
        assert floats == ints
        assert all(type(n) is int for n in floats.n_values)


class TestEmpiricalW1:
    def test_refuses_tiny_m(self, pareto15):
        batch = SampleBatch(spec=pareto15, n=1, m=50, seed=0, values=np.zeros(50))
        with pytest.raises(DomainError):
            empirical_w1(batch)

    @pytest.mark.parametrize("alpha", [1.3, 1.5, 1.8])
    def test_point_mass_gives_absolute_moment(self, pareto15, alpha):
        spec = Pareto(alpha)
        batch = SampleBatch(spec=spec, n=1, m=10 ** 5, seed=0,
                            values=np.zeros(10 ** 5))
        res = empirical_w1(batch, "one_sample_quantile")
        assert res.estimate == pytest.approx(ORACLE_ABS_MOMENT[alpha], rel=1e-4)

    def test_self_distance_sits_at_floor(self, pareto15):
        # two independent target batches: one-sample estimates agree within
        # error bars and sit at the m^{-(1-1/alpha)} bias-floor scale
        m = 10 ** 5
        va = np.sort(sample_stable(1.5, substream(21, 5, 0), m))
        vb = np.sort(sample_stable(1.5, substream(22, 5, 0), m))
        ra = empirical_w1(SampleBatch(pareto15, 1, m, 21, va), "one_sample_quantile")
        rb = empirical_w1(SampleBatch(pareto15, 1, m, 22, vb), "one_sample_quantile")
        assert abs(ra.estimate - rb.estimate) <= 3.0 * (ra.std_error + rb.std_error)
        floor_scale = m ** (-(1.0 - 1.0 / 1.5))
        assert ra.estimate <= 20.0 * floor_scale
        assert ra.estimate > 0.0

    def test_concurrent_calls_keep_serial_bits(self, pareto15):
        # each call has its own scratch for the statistic: two threads on
        # different batches at once, with a short switch interval, each get
        # the serial result
        batches = [sample_sum(pareto15, 100, 3000, seed=1),
                   sample_sum(pareto15, 1000, 2000, seed=2)]
        want = [empirical_w1(b) for b in batches]
        got = [[], []]

        def run(i):
            for _ in range(4):
                got[i].append(empirical_w1(batches[i]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 4 for w in want]

    def test_two_sample_vs_one_sample_envelopes(self, pareto15):
        m = 10 ** 4
        vals = np.sort(sample_stable(1.5, substream(23, 5, 0), m))
        batch = SampleBatch(pareto15, 1, m, 23, vals)
        r1 = empirical_w1(batch, "one_sample_quantile")
        r2 = empirical_w1(batch, "two_sample")
        rc = empirical_w1(batch, "bias_corrected")
        # corrected never exceeds the raw paired estimate
        assert rc.estimate <= r2.estimate
        assert rc.bias_floor_estimate > 0.0
        # both raw estimators see a true distance of zero: they agree within
        # their bias floors plus noise
        assert abs(r1.estimate - r2.estimate) <= \
            rc.bias_floor_estimate + 3.0 * (r1.std_error + r2.std_error)

    def test_estimator_field_bookkeeping(self, pareto15):
        b = sample_sum(pareto15, 10, 200, seed=9)
        r = empirical_w1(b, "two_sample")
        assert r.reference_m == 200 and r.estimator == "two_sample"
        r = empirical_w1(b, "one_sample_quantile")
        assert r.reference_m is None
        with pytest.raises(DomainError):
            empirical_w1(b, "banana")


class TestFitRate:
    @pytest.mark.parametrize("family, dropped", [
        ("pareto", (400,)), ("mp_beta4", (400,)), ("hall", ()), ("log_pareto", ())],
        ids=["pareto", "mp_beta4", "hall", "log_pareto"])
    def test_per_n_equals_separate_calls(self, family, dropped, request):
        # drawing each replicate once for the grid, with the bias floor
        # computed once, changes no bit of what separate sample_sum +
        # empirical_w1 calls give
        spec = request.getfixturevalue("pareto15" if family == "pareto" else family)
        grid = [100, 200, 400, 800]
        fit = fit_rate(spec, 1.5, grid, 3000, seed=5)
        for n, res in zip(grid, fit.per_n):
            assert res == empirical_w1(sample_sum(spec, n, 3000, 5)), n
        assert fit.dropped == tuple((n, "non-positive corrected estimate") for n in dropped)

    def test_two_term_fit_draws_each_replicate_once(self, mp_beta4, monkeypatch):
        widths = []
        real = ModifiedPareto._sample_rows

        def spy(self, rngs, x, scratch):
            widths.extend([x.shape[1]] * len(rngs))
            return real(self, rngs, x, scratch)

        monkeypatch.setattr(ModifiedPareto, "_sample_rows", spy)
        fit_rate(mp_beta4, 1.5, [100, 200, 400, 800], 300, seed=5,
                 estimator="one_sample_quantile")
        assert widths == [800] * 300

    def test_two_sample_reference_drawn_once_per_fit(self, pareto15, monkeypatch):
        import stable_stein.sampling as smp

        draws = []
        real = smp.sample_stable

        def spy(alpha, rng, size=None):
            draws.append(size)
            return real(alpha, rng, size)

        monkeypatch.setattr(smp, "sample_stable", spy)
        grid = [100, 316, 1000, 3162]
        fit = smp.fit_rate(pareto15, 1.5, grid, 3000, 3, "two_sample")
        assert draws == [3000]
        for n, res in zip(grid, fit.per_n):
            assert res == empirical_w1(sample_sum(pareto15, n, 3000, 3), "two_sample"), n
        assert len(draws) == 1 + len(grid)     # outside a fit: one draw per call

    def test_fresh_table_thread_count_invariant(self, pareto15, monkeypatch):
        # each fit builds its own quantile table; its interpolant keeps no
        # scratch between calls, so the thread count moves no bit
        den = sys.modules["stable_stein.density"]   # the package's `density` is a function
        grid = [100, 200, 400, 800]
        fits = []
        for threads in ("1", "2"):
            monkeypatch.setattr(den, "_table_cache", {})
            monkeypatch.setenv("STABLE_STEIN_THREADS", threads)
            fits.append(fit_rate(pareto15, 1.5, grid, 2000, seed=7,
                                 estimator="one_sample_quantile"))
        assert fits[0] == fits[1]

    @pytest.mark.parametrize("family, threads", [
        pytest.param("pareto15", 2, id="2"), pytest.param("pareto15", 5, id="5"),
        pytest.param("mp_beta4", 2, id="mp_beta4-2")])
    def test_thread_count_invariant(self, family, threads, monkeypatch, request):
        spec = request.getfixturevalue(family)
        grid = [100, 200, 400, 800]
        monkeypatch.setenv("STABLE_STEIN_THREADS", "1")
        f1 = fit_rate(spec, 1.5, grid, 2000, seed=7,
                      estimator="one_sample_quantile")
        monkeypatch.setattr(smp, "_cpus", lambda: threads)     # on any host
        monkeypatch.setenv("STABLE_STEIN_THREADS", str(threads))
        fk = fit_rate(spec, 1.5, grid, 2000, seed=7,
                      estimator="one_sample_quantile")
        assert f1 == fk

    @pytest.mark.parametrize("kw", [{"m": 50}, {"estimator": "banana"},
                                    {"n_grid": [100.7, 316.2, 1000.4, 3162.9]}])
    def test_estimator_arguments_checked_before_drawing(self, pareto15, kw, monkeypatch):
        import stable_stein.sampling as smp

        def no_draws(*args, **kwargs):
            raise AssertionError("drew the grid before checking the arguments")

        monkeypatch.setattr(smp, "_sample_sums", no_draws)
        args = dict(n_grid=[100, 200, 400, 800], m=200, seed=1)
        args.update(kw)
        with pytest.raises(DomainError):
            smp.fit_rate(pareto15, 1.5, **args)

    def test_requires_four_points(self, pareto15):
        with pytest.raises(DomainError):
            fit_rate(pareto15, 1.5, [100, 1000, 10000], 200, seed=0)

    def test_small_experiment_runs(self, pareto15):
        # at this tiny m the corrected estimator is noise-dominated; run the
        # mechanics on the raw one-sample statistic (the statistical band
        # lives in acceptance)
        fit = fit_rate(pareto15, 1.5, [100, 316, 1000, 3162], 2000, seed=7,
                       estimator="one_sample_quantile")
        assert len(fit.per_n) == 4
        assert math.isfinite(fit.slope)
        assert all(r.estimate > 0.0 for r in fit.per_n)
        assert len(fit.residuals) == 4 and fit.dropped == ()

    def test_all_corrected_dropped_raises(self, pareto15):
        # the corrected estimator at tiny m may clamp every point to zero;
        # the fit then refuses rather than fabricating a slope
        with pytest.raises(DomainError):
            fit_rate(pareto15, 1.5, [100, 316, 1000, 3162], 2000, seed=7)

    def test_non_positive_dropped(self, pareto15, monkeypatch):
        import stable_stein.sampling as smp

        calls = {"k": 0}
        real = smp.empirical_w1

        def fake(batch, estimator="bias_corrected", **kw):
            calls["k"] += 1
            if calls["k"] == 2:
                return EmpiricalW1Result(0.0, 0.0, estimator, batch.m)
            return real(batch, estimator, **kw)

        monkeypatch.setattr(smp, "empirical_w1", fake)
        fit = smp.fit_rate(pareto15, 1.5, [100, 200, 400, 800], 200, seed=1)
        assert fit.dropped == ((200, "non-positive corrected estimate"),)
