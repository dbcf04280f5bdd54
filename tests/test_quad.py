"""The in-house QUADPACK ``quad`` and ``brentq`` against scipy's, bit for bit.

``quad`` integrates over finite intervals only (scipy's dqagse path); an
integral to infinity goes through ``kernels._tail_integral``, whose own
``quad`` calls are finite and so fall under the same parity checks.

scipy is imported here, and in the other parity tests, only as the oracle:
no code path of the package imports it.
"""

import collections
import importlib
import math
import random
import sys
import threading
import warnings

import pytest

from stable_stein import bounds as bnd
from stable_stein import kernels as ker
from stable_stein._quad import brentq, quad
from stable_stein.errors import ConvergenceError, DomainError

den = importlib.import_module("stable_stein.density")    # the package exports density()

RTOL_DEFAULT = 4.0 * 2.220446049250313e-16


def scipy_quad(f, a, b, limit):
    """scipy's (value, abserr) for the same call, and its message if ier > 0."""
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as sq

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = sq(f, a, b, limit=limit, full_output=1)
    return out[:2], (out[3] if len(out) > 3 else None)


def scipy_brentq(f, a, b, **tols):
    from scipy.optimize import brentq as sb

    return sb(f, a, b, **tols)


# ---------------------------------------------------------------------------
# (a) every call the package makes
# ---------------------------------------------------------------------------

@pytest.fixture
def spy(monkeypatch):
    """Record every ``quad`` and ``brentq`` call of the package, with the
    port's answer, while ``spy["on"]`` holds."""
    rec = {"on": True, "quad": [], "brentq": []}
    lock = threading.Lock()

    def spy_quad(f, a, b, limit=50):
        got = quad(f, a, b, limit=limit)
        if rec["on"]:
            with lock:
                rec["quad"].append((f, a, b, limit, got))
        return got

    def spy_brentq(f, a, b, **tols):
        got = brentq(f, a, b, **tols)
        if rec["on"]:
            with lock:
                rec["brentq"].append((f, a, b, tols, got))
        return got

    # every name that binds a port in a loaded package module (``_quad``
    # too, for an import made at call time): a module that gains the import
    # stays under the scipy-bits check
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "stable_stein":
            for attr, value in list(vars(module).items()):
                for port, spy_port in ((quad, spy_quad), (brentq, spy_brentq)):
                    if value is port:
                        monkeypatch.setattr(module, attr, spy_port)
    return rec


def assert_scipy_bits(rec, min_quad=0, min_brentq=0):
    """Each recorded call again through scipy: the same bits.  Nested
    integrands still call the port inside scipy's outer integral."""
    rec["on"] = False
    assert len(rec["quad"]) >= min_quad and len(rec["brentq"]) >= min_brentq
    for f, a, b, limit, got in rec["quad"]:
        want, _ = scipy_quad(f, a, b, limit)
        assert got == want, (a, b, limit)
    for f, a, b, tols, got in rec["brentq"]:
        assert got == scipy_brentq(f, a, b, **tols), (a, b, tols)


def general_tail():
    return ker.GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                           m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.0)


class TestCallerParity:
    @pytest.mark.parametrize("asm", ["bound_main", "bound_mthm2"])
    def test_general_tail_cells(self, spy, asm):
        failed = 0
        for n in (100, 10 ** 6):
            for N in (5.0, 50.0, 500.0):
                try:
                    getattr(bnd, asm)(general_tail(), 1.5, n, N, 0.5)
                except ConvergenceError:
                    failed += 1
        assert failed == 2          # n = 1e6 at N = 50 and 500, as recorded
        assert_scipy_bits(spy, min_quad=1000, min_brentq=10)

    @pytest.mark.parametrize("spec", [
        ker.HallTransform(0.3, 0.24, 0.2, 1.5),
        ker.LogPerturbedPareto(1.5, 1.0, x0=5.0),
    ], ids=["hall", "log-pareto"])
    def test_bound_at_default_truncation(self, spy, spec):
        bnd.bound_main(spec, 1.5, 10 ** 6, bnd.default_truncation(spec, 10 ** 6), 0.5)
        assert_scipy_bits(spy, min_quad=1)

    def test_figure_curves(self, spy):
        bnd.figure_gamma_curves(n=1000)
        assert_scipy_bits(spy, min_quad=1)

    def test_discrepancy_quadrature_backend(self, spy):
        w = 1.5 * 4.0 / 5.5
        for n in (1000, 10 ** 6):
            ker.discrepancy_l1(ker.ModifiedPareto(1.5, 4.0, A=w, B=w), 1.5, n, 50.0,
                               backend="quadrature")
        assert_scipy_bits(spy, min_quad=2)

    def test_log_pareto_x0_from_k0(self, spy):
        for K0 in (5.0 ** 1.5 / math.log(5.0), 20.0, 1e4):
            ker.LogPerturbedPareto(1.5, 1.0, K0=K0)
        assert_scipy_bits(spy, min_brentq=3)

    def test_quantile(self, spy):
        law = den.StableLaw(1.5)
        for u in (1e-6, 0.3, 0.99):
            den.quantile(law, u)
        assert_scipy_bits(spy, min_brentq=3)


# ---------------------------------------------------------------------------
# (b) hard finite integrands, (c) unsupported bounds
# ---------------------------------------------------------------------------

LIMITS = (1, 2, 3, 5, 10, 50, 400)


def hard_finite(rng):
    """A seeded integrand on [a, b]: singular, oscillatory, a step, near a
    pole, or carrying rounding-level noise."""
    c = rng.uniform(-1.0, 1.0)
    p = rng.uniform(-0.9, 2.0)
    w = rng.uniform(0.5, 200.0)
    amp = rng.choice([1e-6, 1e-9, 1e-12, 1e-14])
    f = rng.choice([
        lambda x: (abs(x - c) + 1e-300) ** p,
        lambda x: math.sin(w * x) * math.exp(-p * abs(x)),
        lambda x: 1.0 if x > c else -0.5,
        lambda x: 1.0 / ((x - c) ** 2 + 1e-6 * (p + 1.0)),
        lambda x: math.log(abs(x - c) + 1e-300),
        lambda x: math.cos(w * x * x),
        lambda x: math.exp(x) + amp * math.sin(1e7 * x),
        lambda x: (abs(x - c) + 1e-300) ** -abs(p / 2.5) + amp * ((x * 1e9) % 1.0),
        lambda x: (abs(x - c) + 1e-300) ** -abs(p / 2.5) * (1.0 + amp * math.cos(3e5 * x)),
    ])
    a = rng.uniform(-2.0, 0.0)
    return f, a, a + rng.uniform(1e-3, 3.0)


# integrands whose extrapolation table is spoilt by roundoff (scipy's ier = 4)
EXTRAPOLATION_ROUNDOFF = [
    (lambda x: (abs(x - 0.562) + 1e-300) ** -0.849 + 1e-9 * ((x * 1e9) % 1.0),
     -0.108, 0.62, 400),
    (lambda x: (abs(x + 0.897) + 1e-300) ** -0.861 + 1e-12 * ((x * 1e9) % 1.0),
     -1.006, 1.858, 50),
    (lambda x: (abs(x - 0.249) + 1e-300) ** -0.815 * (1.0 + 1e-6 * math.cos(3e5 * x)),
     -0.393, 2.496, 50),
]


class TestIntegrandParity:
    def test_hard_finite(self):
        rng = random.Random(0)
        kinds = collections.Counter()
        for _ in range(1500):
            f, a, b = hard_finite(rng)
            limit = rng.choice(LIMITS)
            want, msg = scipy_quad(f, a, b, limit)
            assert quad(f, a, b, limit=limit) == want, (a, b, limit)
            if msg:
                kinds[msg.split()[1]] += 1
        # out of panels (ier = 1), roundoff (2), a bad point (3), divergence (5)
        assert kinds.keys() == {"maximum", "occurrence", "bad", "integral"}
        assert kinds.total() >= 500

    @pytest.mark.parametrize("case", range(len(EXTRAPOLATION_ROUNDOFF)))
    def test_roundoff_in_extrapolation(self, case):
        f, a, b, limit = EXTRAPOLATION_ROUNDOFF[case]
        want, msg = scipy_quad(f, a, b, limit)
        assert msg.startswith("The algorithm does not converge.  Roundoff error")
        assert quad(f, a, b, limit=limit) == want

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (-math.inf, 0.0),
                                     (0.0, -math.inf), (0.0, math.nan),
                                     (0.0, math.inf)])
    def test_unsupported_bounds(self, a, b):
        with pytest.raises(DomainError):
            quad(math.exp, a, b)


# ---------------------------------------------------------------------------
# (d) brentq
# ---------------------------------------------------------------------------

class TestBrentq:
    # the callers' (xtol, rtol): quantile, the x0 solve, the sign cuts
    TOLS = [dict(xtol=1e-9, rtol=1e-13), dict(xtol=1e-13, rtol=1e-15), dict(xtol=1e-14)]

    @pytest.mark.parametrize("tols", TOLS, ids=["quantile", "x0", "cuts"])
    def test_seeded_roots(self, tols):
        rng = random.Random(7)
        for _ in range(500):
            r = rng.uniform(-5.0, 5.0)
            s = rng.choice([1e-200, 1.0, 1e200])
            f = rng.choice([
                lambda x: s * (x - r),
                lambda x: s * math.tanh(30.0 * (x - r)),
                lambda x: (x - r) ** 3 + 1e-3 * (x - r),
                lambda x: math.exp(x - r) - 1.0,
                lambda x: math.atan(x - r) - 1e-3 * math.sin(40.0 * (x - r)),
            ])
            a, b = r - rng.uniform(0.0, 3.0), r + rng.uniform(0.0, 3.0)
            assert brentq(f, a, b, **tols) == scipy_brentq(f, a, b, **tols), (a, b)

    def test_default_rtol_is_scipys(self):
        assert brentq.__defaults__ == (RTOL_DEFAULT,)

    def test_root_at_an_endpoint(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-14) == 1.0
        assert brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-14) == 3.0

    def test_same_sign_is_a_value_error(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14)
        with pytest.raises(ValueError):
            brentq(lambda x: math.nan, -1.0, 1.0, xtol=1e-14)

    def test_non_convergence_is_a_runtime_error(self):
        # a jump at 0.3 in a bracket 1e300 wide: 100 steps do not close it
        def step(x):
            return -1.0 if x < 0.3 else 1.0

        with pytest.raises(RuntimeError):
            scipy_brentq(step, 0.0, 1e300, xtol=1e-300)
        with pytest.raises(ConvergenceError):
            brentq(step, 0.0, 1e300, xtol=1e-300)

    def test_discrepancy_skips_a_bracket_brentq_rejects(self, monkeypatch):
        """``one_side`` leaves out a sign cut whose bracket brentq refuses."""
        refused = []

        def refuse(f, a, b, **tols):
            try:
                return brentq(lambda x: 1.0, a, b, **tols)
            except ValueError:
                refused.append((a, b))
                raise

        monkeypatch.setattr(ker, "brentq", refuse)
        val = ker.discrepancy_l1(general_tail(), 1.5, 100, 5.0, backend="quadrature")
        assert refused and math.isfinite(val) and val > 0.0


# ---------------------------------------------------------------------------
# (e) nested quad under threads
# ---------------------------------------------------------------------------

def test_nested_quad_in_two_threads_equals_one():
    """The discrepancy's outer integrand calls ``quad`` itself; two threads
    running it at once get the serial bits."""
    def run():
        return ker.discrepancy_l1(general_tail(), 1.5, 100, 5.0, backend="quadrature")

    serial = run()
    out = [None, None]

    def worker(i):
        out[i] = run()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert out == [serial, serial]
