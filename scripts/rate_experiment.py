#!/usr/bin/env python3
"""Empirical convergence experiment: W1 estimates against assembled bounds.

Samples normalized power-law sums over a log-spaced grid of n, estimates the
W1 distance to the stable target with each estimator, compares against the
gamma-optimized bound, and fits the empirical rate.

Run:  python scripts/rate_experiment.py [--alpha 1.5] [--m 100000]
         [--n-grid 100,316,1000,3162,10000] [--seed 20240801] [--out csv]
"""

import argparse
import math
import sys
import time

import numpy as np

from stable_stein.bounds import optimize_gamma
from stable_stein.kernels import Pareto
from stable_stein.sampling import _one_fit, _sample_sums, empirical_w1

ESTIMATORS = ("one_sample_quantile", "two_sample", "bias_corrected")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--m", type=int, default=10 ** 5)
    ap.add_argument("--n-grid", default="100,316,1000,3162,10000")
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = Pareto(args.alpha)
    grid = [int(v) for v in args.n_grid.split(",")]
    lines = ["n,m,estimator,w1,std_error,bias_floor,bound_total,seed"]
    t0 = time.time()
    # the grid is drawn once, as fit_rate draws it, and every estimator reads
    # the same batches; the floors and the reference are made once too
    batches = _sample_sums(spec, grid, args.m, args.seed)
    kept_logn, kept_logw = [], []
    with _one_fit():
        for n, batch in zip(grid, batches):
            _, bound = optimize_gamma(spec, args.alpha, n, math.inf)
            for estimator in ESTIMATORS:
                r = empirical_w1(batch, estimator)
                lines.append(",".join([
                    str(n), str(args.m), r.estimator, f"{r.estimate:.8g}",
                    f"{r.std_error:.8g}", f"{r.bias_floor_estimate:.8g}",
                    f"{bound:.8g}", str(args.seed),
                ]))
            # fit_rate's rule: the positive bias_corrected estimates
            if r.estimate > 0.0:
                kept_logn.append(math.log(n))
                kept_logw.append(math.log(r.estimate))
            print(f"n={n} done ({time.time() - t0:.0f}s)", file=sys.stderr)

    slope = float(np.polyfit(kept_logn, kept_logw, 1)[0]) if len(kept_logn) >= 2 else math.nan
    print(f"# fitted slope (bias_corrected): {slope:.4f}  "
          f"target {-(2 - args.alpha) / args.alpha:.4f}", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
