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

from stable_stein.bounds import optimize_gamma
from stable_stein.density import StableLaw
from stable_stein.kernels import Pareto
from stable_stein.sampling import empirical_w1, fit_rate, sample_sum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--m", type=int, default=10 ** 5)
    ap.add_argument("--n-grid", default="100,316,1000,3162,10000")
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = Pareto(args.alpha)
    law = StableLaw(args.alpha)
    grid = [int(v) for v in args.n_grid.split(",")]
    lines = ["n,m,estimator,w1,std_error,bias_floor,bound_total,seed"]
    t0 = time.time()
    # the fit's per-n results are the bias_corrected rows of the table
    fit = fit_rate(spec, args.alpha, grid, args.m, args.seed)
    print(f"fit done ({time.time() - t0:.0f}s)", file=sys.stderr)
    for n, corrected in zip(grid, fit.per_n):
        batch = sample_sum(spec, n, args.m, args.seed)
        _, bound = optimize_gamma(spec, args.alpha, n, math.inf)
        for r in (empirical_w1(batch, law, "one_sample_quantile"),
                  empirical_w1(batch, law, "two_sample"), corrected):
            lines.append(",".join([
                str(n), str(args.m), r.estimator, f"{r.estimate:.8g}",
                f"{r.std_error:.8g}", f"{r.bias_floor_estimate:.8g}",
                f"{bound:.8g}", str(args.seed),
            ]))
        print(f"n={n} done ({time.time() - t0:.0f}s)", file=sys.stderr)

    print(f"# fitted slope (bias_corrected): {fit.slope:.4f}  "
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
