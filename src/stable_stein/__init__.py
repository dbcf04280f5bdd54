"""Explicit Wasserstein-1 bounds for heavy-tailed sums near stable laws.

Public surface:

* constants: ``gamma_fn``, ``beta_fn``, ``d_alpha``, ``D_alpha``,
  ``D_alpha_gamma``
* target law: ``StableLaw``, the symmetric alpha-stable law with
  characteristic function exp(-|l|^alpha) at unit scale; ``density``,
  ``density_deriv``, ``cdf`` and ``quantile`` of it; heat-kernel bound checks
* summand laws: ``Pareto``, ``ModifiedPareto``, ``HallTransform``,
  ``LogPerturbedPareto``, ``GeneralTail``; kernels and the L1 discrepancy
* bounds: ``bound_main``, ``bound_mthm2``, ``example2_bound``,
  ``rate_order``, ``optimize_gamma``, ``log_example_A_n``, table generators
* simulation: ``sample_sum``, ``sample_stable``, ``empirical_w1``,
  ``fit_rate``; the STABLE_STEIN_THREADS environment variable sets their
  thread count, which changes no result
"""

from .bounds import (
    Example2Report,
    RateOrder,
    SteinBoundReport,
    bound_main,
    bound_mthm2,
    constants_table_d,
    constants_table_dgamma,
    default_truncation,
    example2_bound,
    figure_gamma_curves,
    log_example_A_n,
    optimize_gamma,
    pareto_bound_table,
    rate_order,
)
from .density import (
    HeatKernelMargins,
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
from .errors import ConvergenceError, DomainError, NonFiniteSampleError
from .kernels import (
    DistributionSpec,
    GeneralTail,
    HallTransform,
    LogPerturbedPareto,
    ModifiedPareto,
    Pareto,
    discrepancy_l1,
    k_function,
    stable_kernel,
    stable_kernel_mass,
)
from .sampling import (
    EmpiricalW1Result,
    RateFit,
    SampleBatch,
    empirical_w1,
    fit_rate,
    sample_stable,
    sample_sum,
    substream,
)
from .special import D_alpha, D_alpha_gamma, beta_fn, d_alpha, gamma_fn

__version__ = "0.1.0"
