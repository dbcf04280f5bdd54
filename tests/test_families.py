"""Bit pins for the summand families.

Every per-family fact the bounds read (closed forms, default truncation,
rate order), every assembled report and every Monte-Carlo estimator
(``empirical_w1`` and ``fit_rate``) is pinned by the ``repr`` of its
value, compared with ``==``: a float's repr round-trips exactly, so a pin
holds only when every bit does.  A case that raises is pinned by its error
(with the partial result of a ``ConvergenceError``).

To re-record after a deliberate change of numbers, run this file as a
script (``PYTHONPATH=src python tests/test_families.py``) and paste the
printed mapping over ``EXPECTED``.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stable_stein import bounds as bnd
from stable_stein import kernels as ker
from stable_stein import sampling as smp
from stable_stein.errors import ConvergenceError, DomainError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _equal_weight(beta):
    w = 1.5 * beta / (1.5 + beta)
    return ker.ModifiedPareto(1.5, beta, A=w, B=w)


FAMILIES = {
    "pareto": lambda: ker.Pareto(1.5),
    "mp_beta4": lambda: _equal_weight(4.0),
    "mp_beta2": lambda: _equal_weight(2.0),
    "mp_beta1.8": lambda: _equal_weight(1.8),
    "hall": lambda: ker.HallTransform(0.3, 0.24, 0.2, 1.5),
    "log": lambda: ker.LogPerturbedPareto(1.5, 1.0, x0=5.0),
    "general": lambda: ker.GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                                       m1_fn=lambda x: 0.5 * x ** -2.0,
                                       m2_fn=lambda x: 0.0),
}

ESTIMATORS = ("one_sample_quantile", "two_sample", "bias_corrected")

CLI_COMMANDS = (
    ("rate-order", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--alpha", "1.5"),
    ("bound", "--spec", "hall", "--A", "0.6", "--c", "0.2", "--alpha", "1.5",
     "--gamma", "0.5", "--n", "1000000"),
)


def _truncation(spec, n):
    """The family's default N, or 5 for a law without a default rule."""
    try:
        return bnd.default_truncation(spec, n)
    except DomainError:
        return 5.0


def _cli_stdout(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-m", "stable_stein.cli", *args],
                         capture_output=True, env=env, check=True).stdout
    return out.decode()


def _cases():
    cases = {}
    for name, make in FAMILIES.items():
        cases[f"{name}/describe"] = lambda make=make: make().describe()
        cases[f"{name}/rate_order"] = lambda make=make: bnd.rate_order(make())
        cases[f"{name}/abs_central_moment"] = \
            lambda make=make: make().abs_central_moment(0.5)
        cases[f"{name}/abs_tail_moment_zeta"] = \
            lambda make=make: ker.abs_tail_moment_zeta(make(), 1000, 5.0)
        for n in (1000, 10 ** 6):
            cases[f"{name}/default_truncation/n={n}"] = \
                lambda make=make, n=n: bnd.default_truncation(make(), n)
        for N in (50.0, math.inf):
            cases[f"{name}/discrepancy_l1/N={N}"] = \
                lambda make=make, N=N: ker.discrepancy_l1(make(), 1.5, 1000, N)
        for t in (-0.3, 0.01, 0.7):
            cases[f"{name}/k_function/t={t}"] = \
                lambda make=make, t=t: ker.k_function(make(), 1.5, 1000, t, 5.0)
        for asm in ("bound_main", "bound_mthm2"):
            for n in (1000, 10 ** 6):
                cases[f"{name}/{asm}/n={n}"] = lambda make=make, asm=asm, n=n: getattr(
                    bnd, asm)(make(), 1.5, n, _truncation(make(), n), 0.5)
        if name != "general":
            cases[f"{name}/optimize_gamma/n=1000000"] = \
                lambda make=make: bnd.optimize_gamma(make(), 1.5, 10 ** 6, "auto")
    # the GeneralTail cells whose discrepancy quadrature does not converge
    for asm in ("bound_main", "bound_mthm2"):
        for N in (50.0, 500.0):
            cases[f"general/{asm}/n=1000000/N={N}"] = lambda asm=asm, N=N: getattr(
                bnd, asm)(FAMILIES["general"](), 1.5, 10 ** 6, N, 0.5)
    # the delta_n form of the second assembly with a nonzero M2
    cases["general_mean_m2/bound_mthm2/n=1000"] = lambda: bnd.bound_mthm2(
        ker.GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                        m1_fn=lambda x: 0.5 * x ** -0.5, m2_fn=lambda x: 0.3 * x ** -0.7),
        1.5, 1000, 5.0, 0.5)
    for beta in (4.0, 2.0, 1.8):
        w = 1.5 * beta / (1.5 + beta)
        cases[f"example2_bound/beta={beta}"] = \
            lambda w=w, beta=beta: bnd.example2_bound(w, w, 1.5, beta, 0.5, 10 ** 6)
    # the Monte-Carlo estimators on every sampleable family, and the rate fit
    for name, make in FAMILIES.items():
        if name == "general":
            continue
        for est in ESTIMATORS:
            for n, m, seed in ((100, 2000, 1), (1000, 3000, 7)):
                cases[f"{name}/empirical_w1/{est}/n={n},m={m},seed={seed}"] = \
                    lambda make=make, est=est, n=n, m=m, seed=seed: smp.empirical_w1(
                        smp.sample_sum(make(), n, m, seed), est)
    for est in ESTIMATORS:
        cases[f"pareto/fit_rate/{est}"] = lambda est=est: smp.fit_rate(
            ker.Pareto(1.5), 1.5, [100, 316, 1000, 3162], 3000, 3, est)
    cases["hall/sample/sha256"] = lambda: hashlib.sha256(
        FAMILIES["hall"]().sample(np.random.Generator(np.random.Philox(7)), 1000).tobytes()
    ).hexdigest()
    for args in CLI_COMMANDS:
        cases["cli/" + " ".join(args)] = lambda args=args: _cli_stdout(args)
    return cases


CASES = _cases()


def _pin(fn):
    try:
        return repr(fn())
    except ConvergenceError as exc:
        return f"ConvergenceError(partial={exc.partial!r}, achieved_tol={exc.achieved_tol!r})"
    except DomainError:
        return "DomainError"


EXPECTED = {
    'cli/bound --spec hall --A 0.6 --c 0.2 --alpha 1.5 --gamma 0.5 --n 1000000': '\'{"N": 58.20041115655075, "alpha": 1.5, "gamma": 0.5, "has_log_factor": false, "n": 1000000, "rate_exponent": -0.14285714285714274, "terms": {"N_term": 0.3137605154856669, "discrepancy": 0.2022096624916334, "gamma_term": 0.2299047728627935, "truncation": 0.3164560335182479}, "total": 1.9742501207291345}\\n\'',
    'cli/rate-order --spec hall --A 0.6 --c 0.2 --alpha 1.5': '\'{"classified": true, "exponent": -0.14285714285714274, "has_log_factor": false, "in_log_n": false, "spec": "HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)"}\\n\'',
    'example2_bound/beta=1.8': 'Example2Report(alpha=1.5, gamma=0.5, n=1000000, N=56.636912633693434, discrepancy_term=0.25426829055006733, truncation_term=0.4823575364171491, N_term=0.31806181330365113, gamma_term=0.23629873965020817, total=2.4376779725371764, rate_exponent=-0.1428571428571429, has_log_factor=False, case=3, q_exponent=0.2857142857142858, leading_term=2.2555274849995204, remainder_term=0.18215048753765606)',
    'example2_bound/beta=2.0': 'Example2Report(alpha=1.5, gamma=0.5, n=1000000, N=12706.753068765369, discrepancy_term=0.07396639257981641, truncation_term=0.03185314868946526, N_term=0.021234596896192275, gamma_term=0.22961200726962705, total=0.6902375881184597, rate_exponent=-0.3333333333333333, has_log_factor=True, case=2, q_exponent=0.6666666666666666, leading_term=0.3685385846128568, remainder_term=0.3216990035056029)',
    'example2_bound/beta=4.0': 'Example2Report(alpha=1.5, gamma=0.5, n=1000000, N=inf, discrepancy_term=0.008164338372323823, truncation_term=0.0, N_term=0.0, gamma_term=0.20802421030146928, total=0.25300783963045803, rate_exponent=-0.3333333333333333, has_log_factor=False, case=1, q_exponent=None, leading_term=0.04498362932898875, remainder_term=0.20802421030146928)',
    'general/abs_central_moment': '0.9755898883572696',
    'general/abs_tail_moment_zeta': '0.0005352372432070155',
    'general/bound_main/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=5.0, discrepancy_term=0.08802445265745783, truncation_term=1.0704744864140312, N_term=1.0704744696916628, gamma_term=1.3012095518770113, total=3.9271530255608837, rate_exponent=nan, has_log_factor=False)',
    'general/bound_main/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=5.0, discrepancy_term=0.00885614635009165, truncation_term=1.0704744696933821, N_term=1.0704744696916628, gamma_term=0.13012095518770114, total=2.319865226971789, rate_exponent=nan, has_log_factor=False)',
    'general/bound_main/n=1000000/N=50.0': 'ConvergenceError(partial=0.00642229199199439, achieved_tol=1.4142456430714361e-08)',
    'general/bound_main/n=1000000/N=500.0': 'ConvergenceError(partial=0.006404869521762175, achieved_tol=1.2234840589907262e-08)',
    'general/bound_mthm2/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=5.0, discrepancy_term=0.08802445265745783, truncation_term=1.6058911946715062, N_term=1.0704744696916628, gamma_term=1.3012095518770113, total=4.462569733818359, rate_exponent=nan, has_log_factor=False)',
    'general/bound_mthm2/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=5.0, discrepancy_term=0.00885614635009165, truncation_term=1.6057134991885929, N_term=1.0704744696916628, gamma_term=0.13012095518770114, total=2.8551042564669995, rate_exponent=nan, has_log_factor=False)',
    'general/bound_mthm2/n=1000000/N=50.0': 'ConvergenceError(partial=0.00642229199199439, achieved_tol=1.4142456430714361e-08)',
    'general/bound_mthm2/n=1000000/N=500.0': 'ConvergenceError(partial=0.006404869521762175, achieved_tol=1.2234840589907262e-08)',
    'general/default_truncation/n=1000': 'DomainError',
    'general/default_truncation/n=1000000': 'DomainError',
    'general/describe': "'GeneralTail(alpha=1.5, theta=1.0, A_thresh=2.0)'",
    'general/discrepancy_l1/N=50.0': '0.0884321552462191',
    'general/discrepancy_l1/N=inf': 'DomainError',
    'general/k_function/t=-0.3': '0.000826856145069752',
    'general/k_function/t=0.01': '0.005682340232696806',
    'general/k_function/t=0.7': '0.000447091602003915',
    'general/rate_order': 'RateOrder(exponent=nan, has_log_factor=False, in_log_n=False, classified=False)',
    'general_mean_m2/bound_mthm2/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=5.0, discrepancy_term=0.14245923634651136, truncation_term=1.6090203578600448, N_term=1.0704744696916628, gamma_term=1.7098748233377423, total=5.174287324564734, rate_exponent=nan, has_log_factor=False)',
    'hall/abs_central_moment': '1.4538461538461538',
    'hall/abs_tail_moment_zeta': '0.0005734648393734927',
    'hall/bound_main/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=8.086920907269151, discrepancy_term=0.4915091987573535, truncation_term=0.8937663210438386, N_term=0.8417240156181972, gamma_term=2.2990477286279347, total=6.742640865590236, rate_exponent=-0.14285714285714274, has_log_factor=False)',
    'hall/bound_main/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=58.20041115655075, discrepancy_term=0.2022096624916334, truncation_term=0.3164560335182479, N_term=0.3137605154856669, gamma_term=0.2299047728627935, total=1.9742501207291345, rate_exponent=-0.14285714285714274, has_log_factor=False)',
    'hall/bound_mthm2/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=8.086920907269151, discrepancy_term=0.4915091987573535, truncation_term=1.3406494815657566, N_term=0.8417240156181972, gamma_term=2.2990477286279347, total=7.189524026112154, rate_exponent=-0.14285714285714274, has_log_factor=False)',
    'hall/bound_mthm2/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=58.20041115655075, discrepancy_term=0.2022096624916334, truncation_term=0.47468405027651434, N_term=0.3137605154856669, gamma_term=0.2299047728627935, total=2.1324781374874013, rate_exponent=-0.14285714285714274, has_log_factor=False)',
    'hall/default_truncation/n=1000': '8.086920907269151',
    'hall/default_truncation/n=1000000': '58.20041115655075',
    'hall/describe': "'HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5)'",
    'hall/discrepancy_l1/N=50.0': '0.7381821240783646',
    'hall/discrepancy_l1/N=inf': 'DomainError',
    'hall/empirical_w1/bias_corrected/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.010423209534449418, std_error=0.06607211466771003, estimator='bias_corrected', m=2000, reference_m=2000, bias_floor_estimate=0.2909219570361683)",
    'hall/empirical_w1/bias_corrected/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.0, std_error=0.009515479841051352, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.3144998664261985)",
    'hall/empirical_w1/one_sample_quantile/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.3013451665706177, std_error=0.04682002509140087, estimator='one_sample_quantile', m=2000, reference_m=None, bias_floor_estimate=0.0)",
    'hall/empirical_w1/one_sample_quantile/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.27723065166074173, std_error=0.044172611087605215, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0)",
    'hall/empirical_w1/two_sample/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.23330582855968954, std_error=0.03418548985449466, estimator='two_sample', m=2000, reference_m=2000, bias_floor_estimate=0.0)",
    'hall/empirical_w1/two_sample/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.2908968162629458, std_error=0.07620553358131155, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0)",
    'hall/k_function/t=-0.3': '0.0009872948901439387',
    'hall/k_function/t=0.01': '0.00845494985909048',
    'hall/k_function/t=0.7': '0.0005206476681642478',
    'hall/optimize_gamma/n=1000000': '(0.8702388851659368, 1.7872548395281527)',
    'hall/rate_order': 'RateOrder(exponent=-0.14285714285714274, has_log_factor=False, in_log_n=False, classified=True)',
    'hall/sample/sha256': "'fe1db1ca2a9ae375114d817d387e2c047c720aa87c608dee09c6e836380eda0d'",
    'log/abs_central_moment': '4.048775541485023',
    'log/abs_tail_moment_zeta': '0.0007989989827974021',
    'log/bound_main/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=3.7337772040218513, discrepancy_term=0.2584886401196332, truncation_term=1.7990746242955689, N_term=1.2387598370906838, gamma_term=1.4646567591494086, total=5.926704260543009, rate_exponent=-0.33333333333333337, has_log_factor=False)',
    'log/bound_main/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=5.290410871188686, discrepancy_term=0.18464006457261042, truncation_term=1.3495749532046617, N_term=1.0406785786897093, gamma_term=0.12304539336370976, total=3.530623274793924, rate_exponent=-0.33333333333333337, has_log_factor=False)',
    'log/bound_mthm2/n=1000': 'DomainError',
    'log/bound_mthm2/n=1000000': 'DomainError',
    'log/default_truncation/n=1000': '3.7337772040218513',
    'log/default_truncation/n=1000000': '5.290410871188686',
    'log/describe': "'LogPerturbedPareto(alpha=1.5, beta=1.0, K0=6.94674, x0=5)'",
    'log/discrepancy_l1/N=50.0': '1.8135116395517856',
    'log/discrepancy_l1/N=inf': 'DomainError',
    'log/empirical_w1/bias_corrected/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.0, std_error=0.04534693096567103, estimator='bias_corrected', m=2000, reference_m=2000, bias_floor_estimate=0.2909219570361683)",
    'log/empirical_w1/bias_corrected/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.3545984597686736, std_error=0.29638236693232056, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.3144998664261985)",
    'log/empirical_w1/one_sample_quantile/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.29027156092659817, std_error=0.03488225854803171, estimator='one_sample_quantile', m=2000, reference_m=None, bias_floor_estimate=0.0)",
    'log/empirical_w1/one_sample_quantile/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.6690983261948721, std_error=0.32801097142387253, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0)",
    'log/empirical_w1/two_sample/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.221392829464439, std_error=0.024915277797356618, estimator='two_sample', m=2000, reference_m=2000, bias_floor_estimate=0.0)",
    'log/empirical_w1/two_sample/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.7028862202876329, std_error=0.37244707907272856, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0)",
    'log/k_function/t=-0.3': '0.0008054095098456609',
    'log/k_function/t=0.01': '0.0033790103507920378',
    'log/k_function/t=0.7': '0.00047329600359664366',
    'log/optimize_gamma/n=1000000': '(0.8776924064057092, 3.4243141753541604)',
    'log/rate_order': 'RateOrder(exponent=-0.33333333333333337, has_log_factor=False, in_log_n=True, classified=True)',
    'mp_beta1.8/abs_central_moment': '1.4475524475524475',
    'mp_beta1.8/abs_tail_moment_zeta': '0.0005839413474150316',
    'mp_beta1.8/bound_main/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=7.869673491972196, discrepancy_term=0.6032203689608707, truncation_term=0.9210282170923384, N_term=0.8532630891887505, gamma_term=2.362987396502082, total=7.460884394215112, rate_exponent=-0.1428571428571429, has_log_factor=False)',
    'mp_beta1.8/bound_main/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=56.636912633693434, discrepancy_term=0.25426829055006733, truncation_term=0.3215716909455074, N_term=0.31806181330365113, gamma_term=0.23629873965020817, total=2.2768921270655347, rate_exponent=-0.1428571428571429, has_log_factor=False)',
    'mp_beta1.8/bound_mthm2/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=7.869673491972196, discrepancy_term=0.6032203689608707, truncation_term=1.3815423256385073, N_term=0.8532630891887505, gamma_term=2.362987396502082, total=7.92139850276128, rate_exponent=-0.1428571428571429, has_log_factor=False)',
    'mp_beta1.8/bound_mthm2/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=56.636912633693434, discrepancy_term=0.25426829055006733, truncation_term=0.4823575364171491, N_term=0.31806181330365113, gamma_term=0.23629873965020817, total=2.4376779725371764, rate_exponent=-0.1428571428571429, has_log_factor=False)',
    'mp_beta1.8/default_truncation/n=1000': '7.869673491972196',
    'mp_beta1.8/default_truncation/n=1000000': '56.636912633693434',
    'mp_beta1.8/describe': "'ModifiedPareto(alpha=1.5, beta=1.8, A=0.8181818181818182, B=0.8181818181818182)'",
    'mp_beta1.8/discrepancy_l1/N=50.0': '0.9213786807140458',
    'mp_beta1.8/discrepancy_l1/N=inf': 'DomainError',
    'mp_beta1.8/empirical_w1/bias_corrected/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.01970552631873157, std_error=0.08305934230354622, estimator='bias_corrected', m=2000, reference_m=2000, bias_floor_estimate=0.2909219570361683)",
    'mp_beta1.8/empirical_w1/bias_corrected/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.16973298762855527, std_error=0.171918061811445, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.3144998664261985)",
    'mp_beta1.8/empirical_w1/one_sample_quantile/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.31062748335489987, std_error=0.03601178305801477, estimator='one_sample_quantile', m=2000, reference_m=None, bias_floor_estimate=0.0)",
    'mp_beta1.8/empirical_w1/one_sample_quantile/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.48423285405475375, std_error=0.188860532645631, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0)",
    'mp_beta1.8/empirical_w1/two_sample/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.2638056730179643, std_error=0.032432186014597776, estimator='two_sample', m=2000, reference_m=2000, bias_floor_estimate=0.0)",
    'mp_beta1.8/empirical_w1/two_sample/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.4979462143771979, std_error=0.22827744083677862, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0)",
    'mp_beta1.8/k_function/t=-0.3': '0.001031792029203764',
    'mp_beta1.8/k_function/t=0.01': '0.009205434463357946',
    'mp_beta1.8/k_function/t=0.7': '0.0005406607365216768',
    'mp_beta1.8/optimize_gamma/n=1000000': '(0.8696487020424968, 2.085441379454145)',
    'mp_beta1.8/rate_order': 'RateOrder(exponent=-0.1428571428571429, has_log_factor=False, in_log_n=False, classified=True)',
    'mp_beta2/abs_central_moment': '1.4285714285714284',
    'mp_beta2/abs_tail_moment_zeta': '0.0005458545332939279',
    'mp_beta2/bound_main/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=127.06753068765363, discrepancy_term=0.41370081733876424, truncation_term=0.21318153241315546, N_term=0.2123459689619228, gamma_term=2.29612007269627, total=5.001044062995868, rate_exponent=-0.3333333333333333, has_log_factor=True)',
    'mp_beta2/bound_main/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=12706.753068765369, discrepancy_term=0.07396639257981641, truncation_term=0.021236291605789815, N_term=0.021234596896192275, gamma_term=0.22961200726962705, total=0.6796207310347844, rate_exponent=-0.3333333333333333, has_log_factor=True)',
    'mp_beta2/bound_mthm2/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=127.06753068765363, discrepancy_term=0.41370081733876424, truncation_term=0.3197722986197329, N_term=0.2123459689619228, gamma_term=2.29612007269627, total=5.107634829202446, rate_exponent=-0.3333333333333333, has_log_factor=True)',
    'mp_beta2/bound_mthm2/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=12706.753068765369, discrepancy_term=0.07396639257981641, truncation_term=0.03185314868946526, N_term=0.021234596896192275, gamma_term=0.22961200726962705, total=0.6902375881184597, rate_exponent=-0.3333333333333333, has_log_factor=True)',
    'mp_beta2/default_truncation/n=1000': '127.06753068765363',
    'mp_beta2/default_truncation/n=1000000': '12706.753068765369',
    'mp_beta2/describe': "'ModifiedPareto(alpha=1.5, beta=2.0, A=0.8571428571428571, B=0.8571428571428571)'",
    'mp_beta2/discrepancy_l1/N=50.0': '0.38069178944453136',
    'mp_beta2/discrepancy_l1/N=inf': 'DomainError',
    'mp_beta2/empirical_w1/bias_corrected/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.0, std_error=0.0, estimator='bias_corrected', m=2000, reference_m=2000, bias_floor_estimate=0.2909219570361683)",
    'mp_beta2/empirical_w1/bias_corrected/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.06548760980350787, std_error=0.10943082012880677, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.3144998664261985)",
    'mp_beta2/empirical_w1/one_sample_quantile/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.22246638386862974, std_error=0.033926268908164685, estimator='one_sample_quantile', m=2000, reference_m=None, bias_floor_estimate=0.0)",
    'mp_beta2/empirical_w1/one_sample_quantile/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.37998747622970636, std_error=0.1832010761695439, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0)",
    'mp_beta2/empirical_w1/two_sample/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.19406162991658935, std_error=0.0343514581946863, estimator='two_sample', m=2000, reference_m=2000, bias_floor_estimate=0.0)",
    'mp_beta2/empirical_w1/two_sample/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.38672445958875784, std_error=0.2239566436446689, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0)",
    'mp_beta2/k_function/t=-0.3': '0.0009080986510125834',
    'mp_beta2/k_function/t=0.01': '0.008365531551398561',
    'mp_beta2/k_function/t=0.7': '0.00048023249689529545',
    'mp_beta2/optimize_gamma/n=1000000': '(0.8708597056291644, 0.492471910758054)',
    'mp_beta2/rate_order': 'RateOrder(exponent=-0.3333333333333333, has_log_factor=True, in_log_n=False, classified=True)',
    'mp_beta4/abs_central_moment': '1.4025974025974026',
    'mp_beta4/abs_tail_moment_zeta': '0.0005352372407116008',
    'mp_beta4/bound_main/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=inf, discrepancy_term=0.08164338372323822, truncation_term=0.0, N_term=0.0, gamma_term=2.080242103014693, total=2.5300783963045803, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'mp_beta4/bound_main/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=inf, discrepancy_term=0.008164338372323823, truncation_term=0.0, N_term=0.0, gamma_term=0.20802421030146928, total=0.25300783963045803, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'mp_beta4/bound_mthm2/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=inf, discrepancy_term=0.08164338372323822, truncation_term=0.0, N_term=0.0, gamma_term=2.080242103014693, total=2.5300783963045803, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'mp_beta4/bound_mthm2/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=inf, discrepancy_term=0.008164338372323823, truncation_term=0.0, N_term=0.0, gamma_term=0.20802421030146928, total=0.25300783963045803, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'mp_beta4/default_truncation/n=1000': 'inf',
    'mp_beta4/default_truncation/n=1000000': 'inf',
    'mp_beta4/describe': "'ModifiedPareto(alpha=1.5, beta=4.0, A=1.0909090909090908, B=1.0909090909090908)'",
    'mp_beta4/discrepancy_l1/N=50.0': '0.08164338342994998',
    'mp_beta4/discrepancy_l1/N=inf': '0.08164338372323822',
    'mp_beta4/empirical_w1/bias_corrected/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.0, std_error=0.02541076028671876, estimator='bias_corrected', m=2000, reference_m=2000, bias_floor_estimate=0.2909219570361683)",
    'mp_beta4/empirical_w1/bias_corrected/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.04815149932073626, std_error=0.10049795943428115, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.3144998664261985)",
    'mp_beta4/empirical_w1/one_sample_quantile/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.2613512341625392, std_error=0.04581020336054505, estimator='one_sample_quantile', m=2000, reference_m=None, bias_floor_estimate=0.0)",
    'mp_beta4/empirical_w1/one_sample_quantile/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.36265136574693474, std_error=0.17042117306029364, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0)",
    'mp_beta4/empirical_w1/two_sample/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.24588772738233228, std_error=0.03417547076716353, estimator='two_sample', m=2000, reference_m=2000, bias_floor_estimate=0.0)",
    'mp_beta4/empirical_w1/two_sample/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.3540118068720703, std_error=0.22294652092658418, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0)",
    'mp_beta4/k_function/t=-0.3': '0.0008249433883961264',
    'mp_beta4/k_function/t=0.01': '0.00608312590148359',
    'mp_beta4/k_function/t=0.7': '0.00044762328899228623',
    'mp_beta4/optimize_gamma/n=1000000': '(0.8727513226211954, 0.08121753473492409)',
    'mp_beta4/rate_order': 'RateOrder(exponent=-0.3333333333333333, has_log_factor=False, in_log_n=False, classified=True)',
    'pareto/abs_central_moment': '1.5',
    'pareto/abs_tail_moment_zeta': '0.0005352372348458315',
    'pareto/bound_main/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=inf, discrepancy_term=0.05873677309932276, truncation_term=0.0, N_term=0.0, gamma_term=2.0006504281241027, total=2.324276557834452, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'pareto/bound_main/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=inf, discrepancy_term=0.005873677309932276, truncation_term=0.0, N_term=0.0, gamma_term=0.20006504281241028, total=0.2324276557834452, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'pareto/bound_mthm2/n=1000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000, N=inf, discrepancy_term=0.05873677309932276, truncation_term=0.0, N_term=0.0, gamma_term=2.0006504281241027, total=2.324276557834452, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'pareto/bound_mthm2/n=1000000': 'SteinBoundReport(alpha=1.5, gamma=0.5, n=1000000, N=inf, discrepancy_term=0.005873677309932276, truncation_term=0.0, N_term=0.0, gamma_term=0.20006504281241028, total=0.2324276557834452, rate_exponent=-0.3333333333333333, has_log_factor=False)',
    'pareto/default_truncation/n=1000': 'inf',
    'pareto/default_truncation/n=1000000': 'inf',
    'pareto/describe': "'Pareto(alpha=1.5)'",
    'pareto/discrepancy_l1/N=50.0': '0.05873677309932276',
    'pareto/discrepancy_l1/N=inf': '0.05873677309932276',
    'pareto/empirical_w1/bias_corrected/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.0, std_error=0.036609594326638885, estimator='bias_corrected', m=2000, reference_m=2000, bias_floor_estimate=0.2909219570361683)",
    'pareto/empirical_w1/bias_corrected/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.05125481365884199, std_error=0.1025216992014217, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.3144998664261985)",
    'pareto/empirical_w1/one_sample_quantile/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.26920522550989606, std_error=0.04655454325468782, estimator='one_sample_quantile', m=2000, reference_m=None, bias_floor_estimate=0.0)",
    'pareto/empirical_w1/one_sample_quantile/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.3657546800850405, std_error=0.1704314943504425, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0)",
    'pareto/empirical_w1/two_sample/n=100,m=2000,seed=1': "EmpiricalW1Result(estimate=0.25249848005658243, std_error=0.03403320947638641, estimator='two_sample', m=2000, reference_m=2000, bias_floor_estimate=0.0)",
    'pareto/empirical_w1/two_sample/n=1000,m=3000,seed=7': "EmpiricalW1Result(estimate=0.3540245451448456, std_error=0.22293785628841817, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0)",
    'pareto/fit_rate/bias_corrected': "RateFit(slope=-0.6549522623930422, intercept=-0.07283667142642652, per_n=(EmpiricalW1Result(estimate=0.052561018685222116, std_error=0.09367414659724338, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.2141574609714717), EmpiricalW1Result(estimate=0.0, std_error=0.017238772678936566, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.2141574609714717), EmpiricalW1Result(estimate=0.0065599204182324455, std_error=0.04144370522377948, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.2141574609714717), EmpiricalW1Result(estimate=0.00631641575285008, std_error=0.04525546873098427, estimator='bias_corrected', m=3000, reference_m=3000, bias_floor_estimate=0.2141574609714717)), n_values=(100, 316, 1000, 3162), dropped=((316, 'non-positive corrected estimate'),), residuals=(0.14322277982860987, -0.42969018801347314, 0.28646740818486105))",
    'pareto/fit_rate/one_sample_quantile': "RateFit(slope=-0.04300056939684007, intercept=-1.2105466922865615, per_n=(EmpiricalW1Result(estimate=0.2667184796566938, std_error=0.0789923001148141, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0), EmpiricalW1Result(estimate=0.20456298735312597, std_error=0.03681133248183618, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0), EmpiricalW1Result(estimate=0.22071738138970415, std_error=0.040042257307812835, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0), EmpiricalW1Result(estimate=0.22047387672432178, std_error=0.040034705923572375, estimator='one_sample_quantile', m=3000, reference_m=None, bias_floor_estimate=0.0)), n_values=(100, 316, 1000, 3162), dropped=(), residuals=(0.08701007231013369, -0.12883245953460043, -0.003288110553272716, 0.045110497777739456))",
    'pareto/fit_rate/two_sample': "RateFit(slope=-0.1072250201390752, intercept=-0.7559311486505152, per_n=(EmpiricalW1Result(estimate=0.2904460400796812, std_error=0.08218200088256086, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0), EmpiricalW1Result(estimate=0.24417293134313448, std_error=0.052375975547668416, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0), EmpiricalW1Result(estimate=0.23150233842091658, std_error=0.04653987821273689, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0), EmpiricalW1Result(estimate=0.19591024819689923, std_error=0.04592445830668907, estimator='two_sample', m=3000, reference_m=3000, bias_floor_estimate=0.0)), n_values=(100, 316, 1000, 3162), dropped=(), residuals=(0.013383146208576502, -0.03678784629244691, 0.03345004321857892, -0.010045343134709395))",
    'pareto/k_function/t=-0.3': '0.0008249298131691637',
    'pareto/k_function/t=0.01': '0.005716515588598575',
    'pareto/k_function/t=0.7': '0.00044762222309042873',
    'pareto/optimize_gamma/n=1000000': '(0.872741799941344, 0.06684197457067056)',
    'pareto/rate_order': 'RateOrder(exponent=-0.3333333333333333, has_log_factor=False, in_log_n=False, classified=True)',
}


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_pinned(key):
    assert _pin(CASES[key]) == EXPECTED[key]


if __name__ == "__main__":
    print("EXPECTED = {")
    for key in sorted(CASES):
        print(f"    {key!r}: {_pin(CASES[key])!r},")
    print("}")
