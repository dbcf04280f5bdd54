"""Command-line front end.

Subcommands regenerate the constants tables and the bound table, emit the
optimal-gamma curves, evaluate bounds and rate orders for a chosen summand
law, run simulations, fit empirical rates, tabulate the target density, and
solve the norming threshold of the log-tailed family.

Conventions
-----------
* stdout carries machine-readable output only; progress and diagnostics go
  to stderr.  Each subcommand accepts only the --format it emits (CSV or
  JSON; rate-fit emits either).  Likewise each --spec accepts only the law
  flags it reads.
* every run echoes its resolved configuration to stderr as one line
  ``CONFIG {json}``; saving that object to a file and re-running with
  ``--config file`` reproduces the output byte for byte.
* CSV uses '.' decimals, no locale, fixed column order, and a fixed
  10-significant-digit float format, so written files parse and re-emit
  identically.
* exit codes: 0 success, 2 usage error, 1 numeric failure; on either
  failure a JSON error object is printed to stdout.  An --out path that
  cannot be written is a usage error, found before any work.  A
  convergence failure also reports ``partial``, ``achieved_tol`` and
  ``trace``; non-finite floats are written as "inf", "-inf" or "nan" so the
  object stays strict JSON.

Parallelism is capped by the STABLE_STEIN_THREADS environment variable; a
value that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import bounds as bnd
from . import sampling as smp
from .density import StableLaw
from .density import cdf as _cdf
from .density import density as _density
from .errors import ConvergenceError, DomainError, NonFiniteSampleError
from .kernels import (
    HallTransform,
    LogPerturbedPareto,
    ModifiedPareto,
    Pareto,
)

DEFAULT_ALPHAS = [round(1.1 + 0.1 * i, 1) for i in range(9)]
DEFAULT_GAMMAS = [round(0.1 + 0.1 * i, 1) for i in range(9)]


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.10g}"
    return str(x)


def _strict_json(value):
    """``value`` with non-finite floats spelled "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _parse_grid(text: str):
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise DomainError("empty grid")
    return vals


def _parse_count(text) -> float:
    """A count such as n or m: any spelling of an integer (1000, 1e6)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value == int(value)):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _parse_count_grid(text: str):
    return [_parse_count(v) for v in _parse_grid(text)]


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}") from None
    if not (0 <= value < 2 ** 64):
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**64), got {value}")
    return value


def _parse_finite(text: str, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        kind = "positive" if positive else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a finite {kind} number, got {text!r}")
    return value


def _parse_n_value(text: str) -> float:
    if text == "auto":
        return text
    return float(text)


# the law flags, and the ones each --spec reads; giving any other one is a
# usage error
_LAW_FLAGS = ("beta", "A", "B", "c", "K0", "x0")
_SPEC_FLAGS = {
    "pareto": (),
    "modified-pareto": ("beta", "A", "B"),
    "hall": ("A", "B", "c"),
    "log-pareto": ("beta", "K0", "x0"),
}
# the flag groups each --spec needs at least one flag of; missing a whole
# group is a usage error too
_SPEC_NEEDS = {
    "modified-pareto": (("beta",),),
    "hall": (("c",), ("A", "B")),
    "log-pareto": (("K0", "x0"),),
}


def build_spec(args) -> object:
    name = args.spec
    if name == "pareto":
        return Pareto(args.alpha)
    if name == "modified-pareto":
        A, B = args.A, args.B
        if A is None and B is None:
            # equal-weight normalization A = B = alpha beta / (alpha + beta)
            A = B = args.alpha * args.beta / (args.alpha + args.beta)
        elif A is None:
            A = args.alpha * (1.0 - B / args.beta)
        elif B is None:
            B = args.beta * (1.0 - A / args.alpha)
        return ModifiedPareto(args.alpha, args.beta, A=A, B=B)
    if name == "hall":
        A = args.A
        B = args.B
        if B is None:
            B = 1.0 - A
        if A is None:
            A = 1.0 - B
        if abs(A + B - 1.0) > 1e-12:
            raise DomainError("hall tail weights must satisfy A + B = 1")
        return HallTransform(a=A / 2.0, b=B * (args.c + 1.0) / 2.0, c=args.c,
                             alpha=args.alpha)
    if name == "log-pareto":
        return LogPerturbedPareto(args.alpha, args.beta if args.beta is not None else 0.0,
                                  K0=args.K0, x0=args.x0)
    raise DomainError(f"unknown spec {name!r}")


# ---------------------------------------------------------------------------
# subcommand bodies (each returns a list of output lines)
# ---------------------------------------------------------------------------

def cmd_constants(args):
    alphas = args.alpha_grid
    gammas = args.gamma_grid
    lines = []
    if args.table in ("1", "both"):
        lines.append("alpha," + ",".join(_fmt(a) for a in alphas))
        lines.append("D_alpha," + ",".join(_fmt(v) for v in bnd.constants_table_d(alphas)))
    if args.table == "both":
        lines.append("")
    if args.table in ("2", "both"):
        grid = bnd.constants_table_dgamma(alphas, gammas)
        lines.append("gamma," + ",".join(_fmt(a) for a in alphas))
        for g, row in zip(gammas, grid):
            lines.append(_fmt(g) + "," + ",".join(_fmt(v) for v in row))
    return lines


def cmd_table3(args):
    grid = bnd.pareto_bound_table(int(args.n), args.alpha_grid, args.gamma_grid)
    lines = ["gamma," + ",".join(_fmt(a) for a in args.alpha_grid)]
    for g, row in zip(args.gamma_grid, grid):
        lines.append(_fmt(g) + "," + ",".join(_fmt(v) for v in row))
    return lines


def cmd_figure1(args):
    rows = bnd.figure_gamma_curves(n=int(args.n))
    header = "alpha," + ",".join(
        f"gamma_star_case{i + 1}" for i in range(len(bnd.FIGURE_CASES))
    )
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return lines


def cmd_bound(args):
    spec = build_spec(args)
    N = args.N
    if N == "auto":
        N = bnd.default_truncation(spec, int(args.n))
    report = bnd.bound_main(spec, args.alpha, int(args.n), N, args.gamma)
    return [json.dumps(report.to_json_dict(), sort_keys=True)]


def cmd_rate_order(args):
    spec = build_spec(args)
    ro = bnd.rate_order(spec)
    obj = {
        "spec": spec.describe(),
        "exponent": None if not ro.classified else ro.exponent,
        "has_log_factor": ro.has_log_factor,
        "in_log_n": ro.in_log_n,
        "classified": ro.classified,
    }
    return [json.dumps(obj, sort_keys=True)]


_SIM_HEADER = "n,m,estimator,w1,std_error,bias_floor,bound_total,seed"


def _sim_row(spec, alpha, n, res, seed):
    """The CSV row of one W1 estimate at n, beside the gamma-optimized bound."""
    try:
        _, bound_total = bnd.optimize_gamma(spec, alpha, n, "auto")
    except DomainError:
        bound_total = math.nan
    return ",".join([
        str(n), str(res.m), res.estimator, _fmt(res.estimate), _fmt(res.std_error),
        _fmt(res.bias_floor_estimate), _fmt(bound_total), str(seed),
    ])


def cmd_simulate(args):
    spec = build_spec(args)
    print(f"simulating n={int(args.n)} m={int(args.m)} ...", file=sys.stderr)
    batch = smp.sample_sum(spec, args.n, args.m, args.seed)
    res = smp.empirical_w1(batch, args.estimator)
    return [_SIM_HEADER, _sim_row(spec, args.alpha, batch.n, res, args.seed)]


def cmd_rate_fit(args):
    spec = build_spec(args)
    fit = smp.fit_rate(spec, args.alpha, args.n_grid, args.m, args.seed,
                       estimator=args.estimator)
    ro = bnd.rate_order(spec)
    if args.format == "csv":
        lines = [_SIM_HEADER] + [_sim_row(spec, args.alpha, n, res, args.seed)
                                 for n, res in zip(fit.n_values, fit.per_n)]
        print(f"fitted slope {fit.slope:.6f}", file=sys.stderr)
        return lines
    obj = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "target_exponent": ro.exponent if ro.classified else None,
        "points": [
            {"n": n, "w1": r.estimate, "std_error": r.std_error,
             "bias_floor": r.bias_floor_estimate}
            for n, r in zip(fit.n_values, fit.per_n)
        ],
        "dropped": [{"n": n, "reason": reason} for n, reason in fit.dropped],
        "residuals": list(fit.residuals),
    }
    return [json.dumps(obj, sort_keys=True)]


def cmd_density(args):
    import numpy as np

    law = StableLaw(args.alpha)
    xs = np.arange(-args.xmax, args.xmax + args.step / 2.0, args.step)
    rows = zip((xs + 0.0).tolist(), _density(law, xs).tolist(), _cdf(law, xs).tolist())
    # + 0.0 prints a grid point at -0.0 as 0
    return ["x,p,cdf"] + [",".join(map(_fmt, row)) for row in rows]


def cmd_an_solver(args):
    beta = args.beta if args.beta is not None else 0.0
    sol = bnd.log_example_A_n(args.K0, args.x0, args.alpha, beta, int(args.n))
    obj = {"A_n": sol.value, "residual": sol.residual,
           "iterations": len(sol.iterations)}
    return [json.dumps(obj, sort_keys=True)]


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _add_common(p, formats=("csv",)):
    """Flags every subcommand takes; ``formats`` are the values of --format
    it honours, so any other value is a usage error."""
    p.add_argument("--format", choices=formats, default=None)
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--config", default=None, help="JSON file with flag defaults")


def _add_spec_flags(p):
    p.add_argument("--spec", default="pareto",
                   choices=["pareto", "modified-pareto", "hall", "log-pareto"])
    p.add_argument("--alpha", type=float, default=1.5)
    for flag in _LAW_FLAGS:
        p.add_argument(f"--{flag}", type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """Usage errors keep the output contract: a JSON error object on stdout,
    the usage text on stderr, exit code 2."""

    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}, sort_keys=True))
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="stable-stein",
        description="Explicit stable-approximation bounds and their Monte-Carlo validation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="constants tables (alpha row, gamma x alpha block)")
    p.add_argument("--alpha-grid", type=_parse_grid, default=DEFAULT_ALPHAS)
    p.add_argument("--gamma-grid", type=_parse_grid, default=DEFAULT_GAMMAS)
    p.add_argument("--table", choices=["1", "2", "both"], default="both")
    _add_common(p)

    p = sub.add_parser("table3", help="power-law bound totals on the gamma x alpha grid")
    p.add_argument("--n", type=_parse_count, default=10 ** 6)
    p.add_argument("--alpha-grid", type=_parse_grid, default=DEFAULT_ALPHAS)
    p.add_argument("--gamma-grid", type=_parse_grid, default=DEFAULT_GAMMAS)
    _add_common(p)

    p = sub.add_parser("figure1", help="optimal gamma curves for the four reference cases")
    p.add_argument("--n", type=_parse_count, default=10 ** 6)
    _add_common(p)

    p = sub.add_parser("bound", help="assembled bound report for one configuration")
    _add_spec_flags(p)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--n", type=_parse_count, default=10 ** 6)
    p.add_argument("--N", type=_parse_n_value, default="auto")
    _add_common(p, formats=("json",))

    p = sub.add_parser("rate-order", help="leading rate order of a summand family")
    _add_spec_flags(p)
    _add_common(p, formats=("json",))

    p = sub.add_parser("simulate", help="one empirical W1 experiment row")
    _add_spec_flags(p)
    p.add_argument("--n", type=_parse_count, default=10 ** 4)
    p.add_argument("--m", type=_parse_count, default=10 ** 5)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--estimator", default="bias_corrected",
                   choices=["one_sample_quantile", "two_sample", "bias_corrected"])
    _add_common(p)

    p = sub.add_parser("rate-fit", help="empirical rate fit over an n grid")
    _add_spec_flags(p)
    p.add_argument("--n-grid", type=_parse_count_grid,
                   default=[100, 316, 1000, 3162, 10000])
    p.add_argument("--m", type=_parse_count, default=10 ** 5)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--estimator", default="bias_corrected",
                   choices=["one_sample_quantile", "two_sample", "bias_corrected"])
    _add_common(p, formats=("csv", "json"))

    p = sub.add_parser("density", help="density/cdf table of the stable target")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--xmax", type=lambda t: _parse_finite(t, positive=False), default=5.0)
    p.add_argument("--step", type=lambda t: _parse_finite(t, positive=True), default=0.1)
    _add_common(p)

    p = sub.add_parser("an-solver", help="norming threshold of the log-tailed family")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--K0", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=_parse_count, default=10 ** 6)
    _add_common(p, formats=("json",))

    return ap


_DISPATCH = {
    "constants": cmd_constants,
    "table3": cmd_table3,
    "figure1": cmd_figure1,
    "bound": cmd_bound,
    "rate-order": cmd_rate_order,
    "simulate": cmd_simulate,
    "rate-fit": cmd_rate_fit,
    "density": cmd_density,
    "an-solver": cmd_an_solver,
}


def _echo_config(args) -> None:
    cfg = {k: _strict_json(v) for k, v in vars(args).items() if k not in ("config", "out")}
    print("CONFIG " + json.dumps(cfg, sort_keys=True), file=sys.stderr)


def _check_out_path(path: str, ap) -> None:
    """Reject an --out path that cannot be written, before any work is done.
    Nothing is created or truncated here."""
    target = os.path.abspath(path)
    parent = os.path.dirname(target)
    if os.path.isdir(target):
        ap.error(f"argument --out: {path} is a directory")
    if not os.path.isdir(parent):
        ap.error(f"argument --out: directory {parent} does not exist")
    if not os.access(target if os.path.exists(target) else parent, os.W_OK):
        ap.error(f"argument --out: {path} is not writable")


def _apply_config_file(argv, ap):
    """Expand --config FILE into flags; explicit flags still win (they come
    last, and argparse keeps the final occurrence)."""
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        ap.error("argument --config: expected a path")
    path = argv[idx + 1]
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        ap.error(f"argument --config: cannot read {path}: {exc}")
    if not isinstance(cfg, dict):
        ap.error(f"argument --config: {path} does not hold a JSON object")
    user = argv[:idx] + argv[idx + 2:]
    have_command = bool(user) and not user[0].startswith("-")
    command = user[0] if have_command else cfg.get("command")
    if command is None:
        ap.error("config file carries no command and none was given")
    user_rest = user[1:] if have_command else user
    flags = []
    for key, value in cfg.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif isinstance(value, list):
            flags += [flag, ",".join(str(v) for v in value)]
        else:
            flags += [flag, str(value)]
    return [command] + flags + user_rest


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    if "--config" in argv:
        argv = _apply_config_file(argv, ap)
    args = ap.parse_args(argv)
    if hasattr(args, "spec"):
        unread = [f"--{flag}" for flag in _LAW_FLAGS
                  if getattr(args, flag) is not None and flag not in _SPEC_FLAGS[args.spec]]
        if unread:
            ap.error(f"--spec {args.spec} does not read {', '.join(unread)}")
        for group in _SPEC_NEEDS.get(args.spec, ()):
            if all(getattr(args, flag) is None for flag in group):
                ap.error(f"--spec {args.spec} needs "
                         + " or ".join(f"--{flag}" for flag in group))
    # the row count np.arange would make, checked before it allocates
    if args.command == "density" and \
            (args.xmax + args.step / 2.0 + args.xmax) / args.step > 10 ** 6:
        ap.error(f"argument --step: --xmax {args.xmax} --step {args.step} asks for "
                 "more than 1000000 rows")
    try:
        smp.resolve_threads()       # a bad thread cap is a usage error
    except DomainError as exc:
        ap.error(str(exc))
    if args.out:
        _check_out_path(args.out, ap)
    _echo_config(args)
    try:
        lines = _DISPATCH[args.command](args)
    except (DomainError, ConvergenceError, NonFiniteSampleError, ValueError,
            ArithmeticError, MemoryError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConvergenceError):
            err.update(partial=_strict_json(exc.partial),
                       achieved_tol=_strict_json(exc.achieved_tol),
                       trace=_strict_json(exc.trace))
        print(json.dumps(err, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            ap.error(f"argument --out: cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
