"""Acceptance gate: twelve reproduction and validation criteria.

Each test pins its tolerance, prints one ``[ACCEPT-nn] PASS/FAIL`` line
(visible with ``pytest -s``), and fails the suite if its criterion fails.
The Monte-Carlo experiment (criteria 9/10) runs once at a fixed seed and is
shared; it takes a few minutes.  Criterion 4 additionally emits the
per-cell delta report against the previously tabulated bound values.
"""

import math
import time

import numpy as np
import pytest

from stable_stein._quad import panel_nodes
from stable_stein.bounds import (
    log_example_A_n,
    optimize_gamma,
    pareto_bound_table,
    rate_order,
)
from stable_stein.density import StableLaw, density, verify_hk_bounds
from stable_stein.kernels import (
    LogPerturbedPareto,
    Pareto,
    discrepancy_l1,
    k_function,
)
from stable_stein.sampling import (
    fit_rate,
    sample_stable,
    substream,
)
from stable_stein.special import D_alpha, D_alpha_gamma, d_alpha

from bound_slope import bound_total_slope
from d_alpha_oracle import d_alpha_quadrature
from highprec import hp_pareto_bound_total
from kernel_oracle import k_function_mc
from reference_tables import (
    ALPHAS,
    BOUND_ANCHOR_CELLS,
    GAMMAS,
    TABLE_BOUNDS_1E6,
    TABLE_D,
    TABLE_DGAMMA,
)

MC_SEED = 42
MC_M = 10 ** 5
MC_GRID = (100, 316, 1000, 3162, 10000)   # criterion 9 uses the decades,
                                          # criterion 10 fits all five


def _report(tag: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status} {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def mc_experiment():
    """Criterion 9/10 experiment: one rate fit at the pinned seed."""
    spec = Pareto(1.5)
    t0 = time.time()
    fit = fit_rate(spec, 1.5, list(MC_GRID), MC_M, MC_SEED,
                   estimator="bias_corrected")
    elapsed = time.time() - t0
    bounds_min = {}
    for n in MC_GRID:
        _, total = optimize_gamma(spec, 1.5, n, math.inf)
        bounds_min[n] = total
    return {"fit": fit, "bounds": bounds_min, "elapsed": elapsed}


def test_accept_01_table_d():
    t0 = time.time()
    worst = max(abs(D_alpha(a) - printed) for a, printed in zip(ALPHAS, TABLE_D))
    dt = time.time() - t0
    _report("ACCEPT-01", worst <= 0.01 and dt < 1.0,
            f"9 D_alpha values reproduce to +-0.01 (worst {worst: .4f}, {dt:.2f}s)")


def test_accept_02_table_dgamma():
    t0 = time.time()
    worst = max(
        abs(D_alpha_gamma(a, g) - TABLE_DGAMMA[gi][ai])
        for gi, g in enumerate(GAMMAS) for ai, a in enumerate(ALPHAS)
    )
    dt = time.time() - t0
    _report("ACCEPT-02", worst <= 0.02 and dt < 1.0,
            f"81 D_alpha_gamma values reproduce to +-0.02 (worst {worst:.4f}, {dt:.2f}s)")


def test_accept_03_d_alpha_consistency():
    rels = [abs(d_alpha(a) - d_alpha_quadrature(a)) / d_alpha(a)
            for a in (1.1, 1.5, 1.9)]
    lim = abs(d_alpha(1.999) / 0.001 - 1.0)
    ok = max(rels) <= 1e-8 and lim <= 0.02
    _report("ACCEPT-03", ok,
            f"closed vs defining-integral rel err <= 1e-8 (worst {max(rels):.2e}); "
            f"|d(1.999)/0.001 - 1| = {lim:.2e} <= 0.02")


def test_accept_04_bound_table_oracle():
    t0 = time.time()
    grid = pareto_bound_table(10 ** 6, ALPHAS, GAMMAS)
    worst_rel = 0.0
    for gi, g in enumerate(GAMMAS):
        for ai, a in enumerate(ALPHAS):
            hp = float(hp_pareto_bound_total(a, g, 10 ** 6))
            worst_rel = max(worst_rel, abs(grid[gi][ai] - hp) / hp)
    anchor_ok = all(
        abs(grid[GAMMAS.index(g)][ALPHAS.index(a)] - printed) <= 5e-3
        for a, g, printed in BOUND_ANCHOR_CELLS
    )
    dt = time.time() - t0
    print("per-cell delta report (regenerated - tabulated), n = 1e6:")
    n_beyond = 0
    for gi, g in enumerate(GAMMAS):
        row = []
        for ai, a in enumerate(ALPHAS):
            delta = grid[gi][ai] - TABLE_BOUNDS_1E6[gi][ai]
            if abs(delta) > 5e-3:
                n_beyond += 1
            row.append(f"{delta:+.3f}")
        print(f"  gamma={g}: " + " ".join(row))
    print(f"  ({n_beyond}/81 cells differ from the tabulated sheet beyond 0.005; "
          "known discrepancy, anchors asserted)")
    _report("ACCEPT-04", worst_rel <= 1e-6 and anchor_ok and dt < 5.0,
            f"81 cells vs 50-digit oracle rel <= 1e-6 (worst {worst_rel:.2e}); "
            f"anchor cells within +-0.005; {dt:.2f}s")


def test_accept_05_heat_kernel_bounds():
    t0 = time.time()
    worst = math.inf
    grid = np.linspace(-100.0, 100.0, 200)
    for a in (1.1, 1.3, 1.5, 1.7, 1.9):
        worst = min(worst, verify_hk_bounds(a, grid).worst())
    dt = time.time() - t0
    _report("ACCEPT-05", worst >= -1e-6 and dt < 30.0,
            f"four derivative bounds hold on 200-point |x|<=100 grids "
            f"(worst slack {worst:.3e}, {dt:.1f}s)")


def test_accept_06_density_sanity():
    defects = []
    for a in (1.1, 1.5, 1.9):
        law = StableLaw(a)
        edges = np.array([0.0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 400.0])
        nodes, w = panel_nodes(edges, order=40)
        vals = np.array([density(law, float(x)) for x in nodes])
        integral = 2.0 * float(np.dot(vals, w)) + 2.0 * d_alpha(a) / a * 400.0 ** -a
        defects.append(abs(integral - 1.0))
    cauchy = abs(density(StableLaw(1.0), 0.0) - 1.0 / math.pi)
    ok = max(defects) <= 1e-6 and cauchy <= 1e-8
    _report("ACCEPT-06", ok,
            f"|int p - 1| <= 1e-6 (worst {max(defects):.2e}); "
            f"|p(0) - 1/pi| = {cauchy:.1e} at alpha=1")


def test_accept_07_sampler_char_function():
    t0 = time.time()
    worst = 0.0
    for ai, a in enumerate((1.2, 1.5, 1.8)):
        xs = sample_stable(a, substream(MC_SEED, 5, 100 + ai), 10 ** 6)
        for lam in (0.5, 1.0, 2.0):
            dev = abs(float(np.mean(np.cos(lam * xs))) - math.exp(-lam ** a))
            worst = max(worst, dev)
    dt = time.time() - t0
    _report("ACCEPT-07", worst <= 0.004 and dt < 30.0,
            f"empirical cf within 0.004 of exp(-|l|^alpha) at m=1e6 "
            f"(worst {worst:.4f}, {dt:.1f}s)")


def test_accept_08_kernel_oracles():
    spec = Pareto(1.5)
    mc_ok = True
    details = []
    for t in (0.05, 0.1, 0.5):
        closed = float(k_function(spec, 1.5, 1000, t, 10.0))
        est, se = k_function_mc(spec, 1.5, 1000, t, 10.0, draws=10 ** 6, seed=MC_SEED)
        mc_ok = mc_ok and abs(est - closed) <= 3.0 * se
        details.append(f"t={t}: {abs(est - closed) / se:.2f}se")
    worst_rel = max(
        abs(discrepancy_l1(Pareto(a), a, 10 ** 4, 50.0)
            - discrepancy_l1(Pareto(a), a, 10 ** 4, 50.0, backend="quadrature"))
        / discrepancy_l1(Pareto(a), a, 10 ** 4, 50.0)
        for a in (1.2, 1.5, 1.8)
    )
    _report("ACCEPT-08", mc_ok and worst_rel <= 1e-6,
            f"K function vs 1e6-draw estimate within 3se ({', '.join(details)}); "
            f"discrepancy closed vs quadrature rel <= 1e-6 (worst {worst_rel:.1e})")


def test_accept_09_bound_domination(mc_experiment):
    fit = mc_experiment["fit"]
    bounds_min = mc_experiment["bounds"]
    per_n = dict(zip(fit.n_values, fit.per_n))
    dominated = all(per_n[n].estimate <= bounds_min[n] for n in (100, 1000, 10000))
    mono = True
    seq = [(per_n[n].estimate, per_n[n].std_error) for n in (100, 1000, 10000)]
    for (e1, s1), (e2, s2) in zip(seq, seq[1:]):
        if e2 > e1 + 2.0 * math.hypot(s1, s2):
            mono = False
    detail = "; ".join(
        f"n={n}: W1={per_n[n].estimate:.4f}<=bound={bounds_min[n]:.3f}"
        for n in (100, 1000, 10000)
    )
    ok = dominated and mono and mc_experiment["elapsed"] < 300.0
    _report("ACCEPT-09", ok,
            f"corrected W1 dominated by gamma-optimized bound and non-increasing "
            f"up to 2se ({detail}; {mc_experiment['elapsed']:.0f}s)")


def test_accept_10_rate_check(mc_experiment):
    slope_theory = bound_total_slope(Pareto(1.5), 1.5,
                                     [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8])
    theory_ok = abs(slope_theory - (-(2.0 - 1.5) / 1.5)) <= 0.02
    slope_emp = mc_experiment["fit"].slope
    emp_ok = -0.53 <= slope_emp <= -0.13
    _report("ACCEPT-10", theory_ok and emp_ok,
            f"bound-total slope {slope_theory:.4f} within +-0.02 of -1/3; "
            f"empirical corrected slope {slope_emp:.3f} in [-0.53, -0.13]")


def test_accept_11_tail_identity():
    alpha = 1.5
    worst_rel = 0.0
    for t in (0.5, 2.0, 5.0):
        lhs = alpha / (2.0 * (alpha - 1.0)) * max(t, 1.0) ** (1.0 - alpha)
        p_t = 0.5 * max(t, 1.0) ** -alpha
        tail_int = 0.5 * max(1.0 - t, 0.0) + max(t, 1.0) ** (1.0 - alpha) / (
            2.0 * (alpha - 1.0))
        rhs = t * p_t + tail_int
        worst_rel = max(worst_rel, abs(lhs - rhs) / lhs)
    xs = Pareto(alpha).sample(substream(MC_SEED, 5, 200), 10 ** 6)
    mc_ok = True
    for t in (0.5, 2.0, 5.0):
        vals = xs * (xs > t)
        closed = alpha / (2.0 * (alpha - 1.0)) * max(t, 1.0) ** (1.0 - alpha)
        se = float(np.std(vals, ddof=1) / math.sqrt(xs.size))
        mc_ok = mc_ok and abs(float(np.mean(vals)) - closed) <= 3.0 * se
    _report("ACCEPT-11", worst_rel <= 1e-12 and mc_ok,
            f"truncated-moment identity analytic rel err {worst_rel:.1e} <= 1e-12; "
            "1e6-draw check within 3se")


def test_accept_12_threshold_solver():
    worst = 0.0
    for beta in (0.0, 1.0):
        for n in (10 ** 4, 10 ** 6, 10 ** 8):
            sol = log_example_A_n(2.0, 3.0, 1.5, beta, n)
            worst = max(worst, sol.residual)
    exact = log_example_A_n(2.0, 3.0, 1.5, 0.0, 10 ** 6)
    closed_ok = exact.value == (2.0 * 10 ** 6) ** (1.0 / 1.5)
    ro = rate_order(LogPerturbedPareto(1.5, 1.0, x0=5.0))
    rate_ok = ro.in_log_n and ro.exponent == pytest.approx(-(1.0 - 1.0 / 1.5))
    _report("ACCEPT-12", worst <= 1e-10 and closed_ok and rate_ok,
            f"threshold-equation residual <= 1e-10 (worst {worst:.1e}); beta=0 closed "
            f"form exact; log-family rate exponent {ro.exponent:.4f} on log n")
