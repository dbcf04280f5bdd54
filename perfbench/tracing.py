"""In-memory spans around calls into the layers of ``stable_stein``.

The tracer replaces public names *where the calling module binds them* with
thin wrappers that record one span per call: name, start, end, parent span
and the id of the benchmark operation that caused it, plus a per-call count
(draws, points, logical n*m).  Nothing inside ``src/`` is modified; the
original attributes are put back by ``uninstall``.

Modules are taken from ``sys.modules``, never through attribute access on
the package: ``stable_stein.density`` is the *function* ``density``,
because the package ``__init__`` re-exports it over the submodule attribute.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

FAMILIES = ("Pareto", "ModifiedPareto", "HallTransform", "LogPerturbedPareto")


def _draws(args, kwargs):               # Family.sample / sample_stable(_, rng, size=None)
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(np.prod(size))


def _logical_draws(args, kwargs):       # sample_sum(spec, n, m, seed, ...)
    return int(args[1]) * int(args[2])


def _replicates(args, kwargs):          # empirical_w1(batch, target, ...)
    return int(args[0].m)


def _points(args, kwargs):              # QuantileTable.__call__(self, u)
    return int(np.size(args[1]))


def _bindings():
    """(owner, attribute, span name, counter) for every wrapped name."""
    smp = sys.modules["stable_stein.sampling"]
    den = sys.modules["stable_stein.density"]
    ker = sys.modules["stable_stein.kernels"]
    bnd = sys.modules["stable_stein.bounds"]
    spc = sys.modules["stable_stein.special"]
    out = [
        (smp, "substream", "sampling.substream", None),
        (smp, "sample_sum", "sampling.sample_sum", _logical_draws),
        (smp, "empirical_w1", "sampling.empirical_w1", _replicates),
        (smp, "sample_stable", "sampling.sample_stable", _draws),
        (smp, "fit_rate", "sampling.fit_rate", None),
        (smp, "quantile_table", "density.quantile_table", None),
        (den, "quantile_table", "density.quantile_table", None),
        (den.QuantileTable, "__call__", "density.QuantileTable.call", _points),
        (den.QuantileTable, "__init__", "density.QuantileTable.build", None),
        (den, "density", "density.density", None),
        (den, "cdf", "density.cdf", None),
        (den, "quantile", "density.quantile", None),
        (den, "verify_hk_bounds", "density.verify_hk_bounds", None),
        (bnd, "discrepancy_l1", "kernels.discrepancy_l1", None),
        (ker, "discrepancy_l1", "kernels.discrepancy_l1", None),
        (bnd, "abs_tail_moment_zeta", "kernels.abs_tail_moment_zeta", None),
        (ker, "solve_log_tail_scale", "kernels.solve_log_tail_scale", None),
        (bnd, "solve_log_tail_scale", "kernels.solve_log_tail_scale", None),
        (bnd, "bound_main", "bounds.bound_main", None),
        (bnd, "bound_mthm2", "bounds.bound_mthm2", None),
        (bnd, "optimize_gamma", "bounds.optimize_gamma", None),
        (bnd, "figure_gamma_curves", "bounds.figure_gamma_curves", None),
        (bnd, "D_alpha_gamma", "special.D_alpha_gamma", None),
        (spc, "D_alpha_gamma", "special.D_alpha_gamma", None),
    ]
    for fam in FAMILIES:
        out.append((getattr(ker, fam), "sample", f"kernels.{fam}.sample", _draws))
    for cls in (ker.DistributionSpec,) + tuple(getattr(ker, f) for f in FAMILIES):
        if "abs_central_moment" in vars(cls):
            out.append((cls, "abs_central_moment", "kernels.abs_central_moment", None))
    return out


class Tracer:
    """Records spans while installed; aggregates them into per-layer metrics.

    A span is [name, start, end, parent index, op id, count].  Single
    threaded by construction (the benchmark pins STABLE_STEIN_THREADS=1), so
    one stack gives every span its parent.
    """

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []
        self._errors: list = []     # ConvergenceErrors already counted
        self.convergence_errors = 0

    def _wrap(self, fn, name, count):
        tracer = self
        clock = time.perf_counter
        conv = sys.modules["stable_stein.errors"].ConvergenceError
        counts_errors = name.startswith("kernels.")

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id,
                    count(args, kwargs) if count else 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except conv as exc:
                if counts_errors and not any(e is exc for e in tracer._errors):
                    tracer._errors.append(exc)
                    tracer.convergence_errors += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in _bindings():
            own = vars(owner).get(attr)
            self._patches.append((owner, attr, own))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches = []

    # -- aggregation ------------------------------------------------------
    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self) -> dict:
        """Sums per span name: calls, s (outermost spans only), self_s,
        count, plus the cross-layer sums the ratios need."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        draws_in_sum = 0
        points_in_w1 = 0
        misses = 0
        for i, (name, t0, t1, parent, _, count) in enumerate(spans):
            a = agg[name]
            a["calls"] += 1
            a["count"] += count
            a["self_s"] += (t1 - t0) - child_time[i]
            if not self._has_ancestor(i, name):
                a["s"] += t1 - t0
            if name.endswith(".sample") and self._has_ancestor(i, "sampling.sample_sum"):
                draws_in_sum += count
            elif name == "density.QuantileTable.call" and \
                    self._has_ancestor(i, "sampling.empirical_w1"):
                points_in_w1 += count
            elif name == "density.QuantileTable.build" and parent >= 0 and \
                    spans[parent][0] == "density.quantile_table":
                misses += 1
        out = {k: dict(v) for k, v in agg.items()}
        out["_draws_in_sample_sum"] = draws_in_sum
        out["_points_in_empirical_w1"] = points_in_w1
        out["_quantile_table_misses"] = misses
        return out

    def write(self, path) -> None:
        """One JSON line per span, written once at the end of the run."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, count in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op, count]) + "\n")
