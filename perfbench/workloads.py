"""The two workloads: inputs made from a seed, calls into stable_stein, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returned.  A *round* is a fixed batch of operations
whose cost does not depend on the seed; the seed picks which entries of a
fixed input pool a round uses, and in which order.  Every pool entry has its
output recorded in ``expected.json`` (see ``record.py``), so each operation
is checked against the recording whatever the seed.  Operations on freshly
drawn points (density, cdf, quantile) are checked against identities
instead.

Every op also names its *slot*: its place in a round, shared by the ops
that stand in for each other there (the same call with a seed-chosen gamma,
pool seed or point).  ``run.py`` times a round as the sum over its slots of
the fastest op seen in each.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REL_TOL = 1e-6      # recorded analytic values, as ACCEPT-04 pins the oracle
ABS_TOL = 1e-12

ALPHAS = tuple(round(1.1 + 0.1 * i, 1) for i in range(9))
GAMMAS = tuple(round(0.1 + 0.1 * i, 1) for i in range(9))
GAMMA_POOL = (0.3, 0.5, 0.7)


@dataclass
class Op:
    """One call (or short fixed sequence of calls) into the library.

    ``key`` names the inputs; ``expected.json`` holds ``summarize(output)``
    for it.  ``check`` returns a problem string for outputs that break an
    identity or a bound, else None.  ``draws`` is the number of summand
    draws the inputs request (sum of n*m), counted whatever the program
    actually draws.  ``slot`` is the op's place in a round (see above); it
    defaults to ``key``.
    """

    key: Optional[str]
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Optional[Callable[[object], Optional[str]]] = None
    draws: int = 0
    slot: Optional[str] = None

    def __post_init__(self):
        if self.slot is None:
            self.slot = self.key


class Context:
    """What op closures need at run time: the library modules (taken from
    sys.modules, see trace.py) and whether CLI children are traced."""

    def __init__(self):
        self.smp = sys.modules["stable_stein.sampling"]
        self.den = sys.modules["stable_stein.density"]
        self.ker = sys.modules["stable_stein.kernels"]
        self.bnd = sys.modules["stable_stein.bounds"]
        self.traced = False
        self.cli_timings: list = []


def digest(values) -> str:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _floats(xs) -> list:
    return [float(x) for x in xs]


def _values(out) -> dict:
    return {"values": _floats(np.ravel(np.asarray(out, dtype=float)))}


def _report_values(rep) -> dict:
    return {"values": _floats([rep.total, rep.discrepancy_term, rep.truncation_term,
                               rep.N_term, rep.gamma_term, rep.N])}


def compare(got: dict, want: dict) -> Optional[str]:
    """None when ``got`` matches the recording: digests exactly, values
    within REL_TOL."""
    if got.get("sha256") != want.get("sha256"):
        return "output digest differs from the recording"
    a, b = got.get("values", []), want.get("values", [])
    if len(a) != len(b):
        return f"{len(a)} values where {len(b)} were recorded"
    for i, (x, y) in enumerate(zip(a, b)):
        if not (math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL) or (x != x and y != y)):
            return f"value {i} is {x!r}, recorded {y!r}"
    return None


# ---------------------------------------------------------------------------
# summand families (built inside each op: GeneralTail caches its mean)
# ---------------------------------------------------------------------------

def _equal_weight(ker, beta):
    w = 1.5 * beta / (1.5 + beta)
    return ker.ModifiedPareto(1.5, beta, A=w, B=w)


FAMILIES = {       # name -> summand law at alpha = 1.5
    "Pareto": lambda ker: ker.Pareto(1.5),
    "ModifiedPareto_b4": lambda ker: _equal_weight(ker, 4.0),
    "ModifiedPareto_b2": lambda ker: _equal_weight(ker, 2.0),
    "ModifiedPareto_b1.8": lambda ker: _equal_weight(ker, 1.8),
    "HallTransform": lambda ker: ker.HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5),
    "LogPerturbedPareto": lambda ker: ker.LogPerturbedPareto(1.5, 1.0, x0=5.0),
}


def _general_tail(ker):
    return ker.GeneralTail(alpha=1.5, theta_scale=1.0, A_thresh=2.0,
                           m1_fn=lambda x: 0.5 * x ** -2.0, m2_fn=lambda x: 0.0)


class Workload:
    """A pool of keyed ops and, per seed, an endless sequence of rounds."""

    name = ""

    def pool(self, ctx: Context) -> list:
        """Every keyed op any seed can select."""
        raise NotImplementedError

    def rounds(self, ctx: Context, rng):
        """Endless sequence of rounds (lists of ops) for one seed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mc_rate_fit
# ---------------------------------------------------------------------------

class McRateFit(Workload):
    """fit_rate(Pareto(1.5)) then optimize_gamma per grid point, as the
    ACCEPT-09/10 fixture does, at 3e4 replicates (a third of its 1e5) and
    without its largest n.  A round is one fit; the seed orders the pool.
    At m = 3e4 every pool seed leaves at least 2 grid points with a positive
    corrected estimate.  At m = 1e4 seeds 1 and 10 of 1..12 do not, and the
    fit raises DomainError."""

    name = "mc_rate_fit"
    GRID = (100, 316, 1000, 3162)
    M = 30_000
    SEEDS = tuple(range(1, 7))

    def _op(self, ctx, seed):
        grid = list(self.GRID)

        def run():
            spec = ctx.ker.Pareto(1.5)
            fit = ctx.smp.fit_rate(spec, 1.5, grid, self.M, seed, "bias_corrected")
            bounds = [ctx.bnd.optimize_gamma(spec, 1.5, n, math.inf) for n in grid]
            return fit, bounds

        def summarize(out):
            fit, bounds = out
            vals = [fit.slope]
            for r in fit.per_n:
                vals += [r.estimate, r.std_error, r.bias_floor_estimate]
            for g, t in bounds:
                vals += [g, t]
            # the fit's first batch, drawn again outside the timed op: the
            # sampled values themselves must not change by a single bit
            first = ctx.smp.sample_sum(ctx.ker.Pareto(1.5), grid[0], self.M, seed)
            return {"sha256": digest(first.values), "values": _floats(vals)}

        def check(out):
            fit, bounds = out
            for n, r, (_, total) in zip(grid, fit.per_n, bounds):
                if not (0.0 <= r.estimate <= total):
                    return f"W1 estimate {r.estimate} at n={n} outside [0, bound {total}]"
            return None

        return Op(f"{self.name}/seed={seed}", run, summarize, check,
                  draws=self.M * sum(grid), slot="fit")

    def pool(self, ctx):
        return [self._op(ctx, s) for s in self.SEEDS]

    def rounds(self, ctx, rng):
        ops = self.pool(ctx)
        rng.shuffle(ops)
        r = 0
        while True:
            yield [ops[r % len(ops)]]
            r += 1


# ---------------------------------------------------------------------------
# bounds_analytic
# ---------------------------------------------------------------------------

class BoundsAnalytic(Workload):
    """No sampling: tables, figure, bound assemblies for every family,
    GeneralTail quadrature bounds, the discrepancy quadrature backend, and
    density / cdf / quantile / heat-kernel checks with fresh quantile-table
    builds."""

    name = "bounds_analytic"
    OPT_N = (1000, 10 ** 6)
    GT_N = (100, 10 ** 6)
    GT_TRUNC = (5.0, 50.0, 500.0)
    HK_ALPHAS = (1.1, 1.3, 1.5, 1.7, 1.9)
    HK_GRID = tuple(np.linspace(-10.0, 10.0, 41))
    TABLE_ALPHAS = (1.3, 1.7)
    TABLE_PROBE = (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
    POINT_ALPHAS = (1.2, 1.5, 1.8)
    POINTS = {"density": 12, "cdf": 12, "quantile": 6}

    def pool(self, ctx):
        bnd, ker, den = ctx.bnd, ctx.ker, ctx.den
        ops = [
            Op("tables/D_alpha", lambda: bnd.constants_table_d(list(ALPHAS)), _values),
            Op("tables/D_alpha_gamma",
               lambda: bnd.constants_table_dgamma(list(ALPHAS), list(GAMMAS)), _values),
            Op("tables/bound_n1e6",
               lambda: bnd.pareto_bound_table(10 ** 6, list(ALPHAS), list(GAMMAS)), _values),
            Op("figure1/n1e6", lambda: bnd.figure_gamma_curves(n=10 ** 6), _values),
        ]
        for fam in FAMILIES:
            for n in self.OPT_N:
                ops.append(Op(f"optimize_gamma/{fam}/n={n}",
                              lambda fam=fam, n=n: bnd.optimize_gamma(
                                  FAMILIES[fam](ker), 1.5, n, "auto"), _values))
            for g in GAMMA_POOL:
                def bound(fam=fam, g=g):
                    spec = FAMILIES[fam](ker)
                    trunc = bnd.default_truncation(spec, 10 ** 6)
                    return bnd.bound_main(spec, 1.5, 10 ** 6, trunc, g)
                ops.append(Op(f"bound_main/{fam}/g={g}", bound, _report_values))
        for beta in (4.0, 2.0, 1.8):
            w = 1.5 * beta / (1.5 + beta)
            for g in GAMMA_POOL:
                ops.append(Op(f"example2/beta={beta}/g={g}",
                              lambda w=w, beta=beta, g=g: bnd.example2_bound(
                                  w, w, 1.5, beta, g, 10 ** 6),
                              lambda rep: {"values": _report_values(rep)["values"]
                                           + _floats([rep.case, rep.leading_term,
                                                      rep.remainder_term])}))
        for asm in ("bound_main", "bound_mthm2"):
            for n in self.GT_N:
                for trunc in self.GT_TRUNC:
                    for g in GAMMA_POOL:
                        ops.append(Op(f"general_tail/{asm}/n={n}/N={trunc}/g={g}",
                                      lambda asm=asm, n=n, trunc=trunc, g=g: getattr(bnd, asm)(
                                          _general_tail(ker), 1.5, n, trunc, g),
                                      _report_values, check=_positive_total))
        for n in (1000, 10 ** 6):
            ops.append(Op(f"discrepancy_quadrature/n={n}",
                          lambda n=n: ker.discrepancy_l1(_equal_weight(ker, 4.0), 1.5, n, 50.0,
                                                         backend="quadrature"),
                          _values))
        for a in self.HK_ALPHAS:
            ops.append(Op(f"verify_hk_bounds/alpha={a}",
                          lambda a=a: den.verify_hk_bounds(a, self.HK_GRID),
                          lambda m: _values([m.deriv1_uniform, m.deriv1_quadratic,
                                             m.deriv2_uniform, m.deriv2_quadratic]),
                          check=lambda m: None if m.worst() >= 0.0 else
                          f"heat-kernel bound violated by {-m.worst()}"))
        for a in self.TABLE_ALPHAS:
            ops.append(Op(f"quantile_table_build/alpha={a}",
                          lambda a=a: den.QuantileTable(a),
                          lambda t: _values(list(t(np.array(self.TABLE_PROBE))) + [t.u_hi])))
        ops.append(Op("an_solver/n=1e6",
                      lambda: bnd.log_example_A_n(2.0, 3.0, 1.5, 1.0, 10 ** 6),
                      lambda s: _values([s.value])))
        for op in ops:      # a round picks gamma at random for these
            op.slot = op.key.split("/g=")[0]
        return ops

    def _point_op(self, ctx, what, alpha, x):
        den = ctx.den
        law = den.StableLaw(alpha)
        if what == "density":
            def check(p):
                # symmetric, positive, and mode at zero
                if not (0.0 < p <= den.density(law, 0.0)) or \
                        not math.isclose(p, den.density(law, -x), rel_tol=1e-12):
                    return f"density({x}) = {p} breaks symmetry or the mode bound"
                return None
        elif what == "cdf":
            def check(c):
                if not (0.0 <= c <= 1.0) or abs(c + den.cdf(law, -x) - 1.0) > 1e-9:
                    return f"cdf({x}) = {c} breaks F(x) + F(-x) = 1"
                return None
        else:
            def check(q):
                if abs(den.cdf(law, q) - x) > 1e-9:
                    return f"cdf(quantile({x})) differs from {x} by more than 1e-9"
                return None
        return Op(None, lambda: getattr(den, what)(law, x),
                  lambda v: {"values": [float(v)]}, check, slot=what)

    def rounds(self, ctx, rng):
        keyed = {op.key: op for op in self.pool(ctx)}
        fixed = [k for k in keyed if not k.startswith(("bound_main/", "example2/",
                                                       "general_tail/"))]
        while True:
            keys = list(fixed)
            keys += [f"bound_main/{fam}/g={rng.choice(GAMMA_POOL)}" for fam in FAMILIES]
            keys += [f"example2/beta={b}/g={rng.choice(GAMMA_POOL)}" for b in (4.0, 2.0, 1.8)]
            keys += [f"general_tail/{asm}/n={n}/N={t}/g={rng.choice(GAMMA_POOL)}"
                     for asm in ("bound_main", "bound_mthm2")
                     for n in self.GT_N for t in self.GT_TRUNC]
            ops = [keyed[k] for k in keys]
            for what, count in self.POINTS.items():
                for _ in range(count):
                    alpha = rng.choice(self.POINT_ALPHAS)
                    x = rng.uniform(0.01, 0.99) if what == "quantile" else rng.uniform(-6.0, 6.0)
                    ops.append(self._point_op(ctx, what, alpha, x))
            rng.shuffle(ops)
            yield ops


def _positive_total(rep) -> Optional[str]:
    if not (math.isfinite(rep.total) and rep.total > 0.0):
        return f"bound total {rep.total} is not a positive number"
    return None


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class CliCold(Workload):
    """Sequential fresh interpreters running a fixed mix of subcommands."""

    name = "cli_cold"
    SIM_SEEDS = tuple(range(1, 9))
    SIM = ("--spec", "pareto", "--alpha", "1.5", "--n", "1000", "--m", "2000")
    SPECS = {
        "pareto": ("--spec", "pareto"),
        "modified-pareto": ("--spec", "modified-pareto", "--beta", "4"),
        "hall": ("--spec", "hall", "--A", "0.6", "--c", "0.2"),
        "log-pareto": ("--spec", "log-pareto", "--beta", "1", "--x0", "5"),
    }
    TABLE3_N = ("10000", "1000000")
    DENSITY_ALPHAS = ("1.2", "1.5", "1.8")

    def _op(self, ctx, argv):
        argv = list(argv)

        def run():
            if ctx.traced:
                cmd = [sys.executable, str(HERE / "cli_child.py")] + argv
            else:
                cmd = [sys.executable, "-m", "stable_stein.cli"] + argv
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  timeout=120)
            elapsed = time.perf_counter() - t0
            if ctx.traced:
                last = proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
                if last.startswith("PERFBENCH_TIMING "):
                    ctx.cli_timings.append(dict(json.loads(last.split(" ", 1)[1]),
                                                process_s=elapsed,
                                                stdout_bytes=len(proc.stdout)))
            return proc

        def summarize(proc):
            return {"sha256": hashlib.sha256(proc.stdout).hexdigest(),
                    "values": [float(proc.returncode)]}

        def check(proc):
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
            return None

        draws = 1000 * 2000 if argv[0] == "simulate" else 0
        slot = "cli/" + argv[0] + (" " + argv[2] if argv[0] == "bound" else "")
        return Op("cli/" + " ".join(argv), run, summarize, check, draws=draws, slot=slot)

    def _argvs(self, table3_n, gammas, density_alpha, sim_seed):
        out = [("constants",), ("table3", "--n", table3_n)]
        for name, g in zip(self.SPECS, gammas):
            out.append(("bound",) + self.SPECS[name]
                       + ("--alpha", "1.5", "--gamma", str(g), "--n", "1000000"))
        out += [
            ("rate-order",) + self.SPECS["hall"] + ("--alpha", "1.5"),
            ("an-solver", "--K0", "2", "--x0", "3", "--alpha", "1.5", "--beta", "1",
             "--n", "1000000"),
            ("density", "--alpha", density_alpha, "--xmax", "5", "--step", "0.1"),
            ("figure1", "--n", "1000000"),
            ("simulate",) + self.SIM + ("--seed", str(sim_seed)),
        ]
        return out

    def pool(self, ctx):
        argvs = set()
        for g in GAMMA_POOL:
            for n in self.TABLE3_N:
                for a in self.DENSITY_ALPHAS:
                    argvs.update(self._argvs(n, [g] * len(self.SPECS), a, 1))
        argvs.update(("simulate",) + self.SIM + ("--seed", str(s)) for s in self.SIM_SEEDS)
        return [self._op(ctx, a) for a in sorted(argvs)]

    def rounds(self, ctx, rng):
        while True:
            argvs = self._argvs(rng.choice(self.TABLE3_N),
                                [rng.choice(GAMMA_POOL) for _ in self.SPECS],
                                rng.choice(self.DENSITY_ALPHAS), rng.choice(self.SIM_SEEDS))
            rng.shuffle(argvs)
            yield [self._op(ctx, a) for a in argvs]


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

class Library(Workload):
    """Both halves of the library in one process: each round is one rate fit
    and one round of the analytic work, shuffled together."""

    name = "library"
    PARTS = (McRateFit(), BoundsAnalytic())

    def pool(self, ctx):
        return [op for part in self.PARTS for op in part.pool(ctx)]

    def rounds(self, ctx, rng):
        parts = [part.rounds(ctx, rng) for part in self.PARTS]
        while True:
            ops = [op for part in parts for op in next(part)]
            rng.shuffle(ops)
            yield ops


WORKLOADS = {w.name: w for w in (Library(), CliCold())}
