"""Seedable samplers, normalized sums, and empirical Wasserstein-1 estimation.

Random streams
--------------
All randomness derives from the Philox4x64 counter-based generator.  A
stream is addressed by (seed, kind, index): the 128-bit Philox key is
[seed, (kind << 48) + index].  Replicate r of a batch always draws from
(seed, SUMMANDS, r), so results are bit-identical for a given (seed, spec,
n, m) regardless of how replicates are scheduled across threads.  The
thread count is read from the STABLE_STEIN_THREADS environment variable
(default 1); it changes no result.  Reference draws from the stable target
use separate kinds, never colliding with summand streams.

The target is the paper's: the alpha-stable law with characteristic
function e^{-|l|^alpha}, at unit scale, with alpha taken from the batch's
summand law.

The replicate loop does not build a generator per replicate: each worker
owns one Philox per replicate of a 32-replicate block and re-keys it (key
as above, counter 0, empty buffer) for every replicate, which yields the
same streams as ``substream`` at a fraction of the set-up cost.  Every
family samples element by element: it draws the same first k values of a
stream whatever the size asked for, and a second call on the same
generator continues the stream.  So a block draws its rows in 32768-column
slices into one buffer that the worker reuses, uniforms written in place
and transformed 32768 at a time, and each worker holds at most 32 x 32768
floats (8.4 MB) plus one transform's temporaries whatever n is; and
``fit_rate`` draws each replicate once, up to the largest n of its grid,
and sums prefixes of it for the smaller n.  The sums are bit-identical to
whole-row draws and to separate ``sample_sum`` calls.

Estimators
----------
one_sample_quantile   integral over u of |F_m^{-1}(u) - Q(u)| cellwise, with
                      a Gauss rule per cell, the interpolated quantile cache
                      for the bulk, and closed-form power-tail integration
                      for cells beyond the cache coverage.
two_sample            mean |x_(i) - y_(i)| against an equal-size target
                      sample (the 1-d quantile coupling).
bias_corrected        the one-sample statistic minus the same statistic on
                      independent equal-size samples drawn from the target
                      itself (the estimator's bias floor; median of a few
                      draws), clamped at zero.  Default for rate fitting.

All three estimators carry a bias floor decaying like m^{-(1-1/alpha)},
comparable to the signal itself at practical m.  The floor correction is
applied to the one-sample statistic rather than the paired two-sample one
because the latter's fluctuations are dominated by the reference sample's
own extreme order statistics: at m = 1e5 and alpha = 1.5 theirs is the same
scale as the quantity being estimated, and subtracting two such draws
leaves noise (measured directly; see the repo notes).  The one-sample
statistic has no reference sample, so its floor-corrected version resolves
rates the paired version cannot.

All three share one standard error: each supplies only its statistic,
which is evaluated on every replicate and on the replicates left after
deleting each of 20 random blocks (deterministic, derived from the batch
seed); the spread of the 20 delete-one-block values is the jackknife error.

Heavy-tail sums are accumulated chunkwise with exact (Shewchuk) summation
of the chunk partials, so a rare huge summand cannot wash out the digits of
the rest.

Loading this module loads neither numpy nor ``concurrent.futures``.  Each
function that draws or works on arrays imports numpy on its first call,
and the replicate loop imports the thread pool only when it runs on more
than one thread, so a command that draws nothing starts without them.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional, Sequence

from ._record import Record
from .density import QuantileTable, quantile_table
from .errors import DomainError, NonFiniteSampleError
from .kernels import DistributionSpec, _count, check_spec_alpha

__all__ = [
    "substream",
    "resolve_threads",
    "sample_stable",
    "sample_sum",
    "SampleBatch",
    "EmpiricalW1Result",
    "empirical_w1",
    "fit_rate",
    "RateFit",
    "STREAM_SUMMANDS",
    "STREAM_REFERENCE",
    "STREAM_FLOOR_A",
    "STREAM_BLOCKS",
    "STREAM_GENERIC",
]

STREAM_SUMMANDS = 0
STREAM_REFERENCE = 1
STREAM_FLOOR_A = 2
STREAM_BLOCKS = 4
STREAM_GENERIC = 5

_INDEX_BITS = 48


def _stream_key(seed: int, kind: int, index: int) -> list:
    if not (0 <= seed < 2 ** 64):
        raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
    if not (0 <= index < 2 ** _INDEX_BITS):
        raise DomainError(f"stream index out of range: {index}")
    return [seed, (kind << _INDEX_BITS) + index]


def substream(seed: int, kind: int, index: int = 0) -> np.random.Generator:
    """Independent keyed Philox stream for (seed, kind, index)."""
    import numpy as np

    key = np.array(_stream_key(seed, kind, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _restream(seed: int, kind: int, slots: int):
    """``slots`` Philox stepped through the streams (seed, kind, index) of one kind.

    Builds ``substream(seed, kind, 0)`` once per slot; the returned
    ``seek(index, slot)`` re-keys that slot's bit generator (key as above,
    counter 0, empty buffer) and returns it in the same state as
    ``substream(seed, kind, index)``, without building and seeding a new bit
    generator per index.  Each slot keeps its own position, so the streams
    of a block of replicates can be drawn slice by slice.  Not thread-safe:
    each worker owns one.
    """
    rngs = [substream(seed, kind, 0) for _ in range(slots)]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": _stream_key(seed, kind, 0)},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }

    def seek(index: int, slot: int) -> Generator:
        state["state"]["key"] = _stream_key(seed, kind, index)
        rngs[slot].bit_generator.state = state
        return rngs[slot]

    return seek


def resolve_threads() -> int:
    """Worker count: the STABLE_STEIN_THREADS cap, 1 when it is unset."""
    env = os.environ.get("STABLE_STEIN_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(
                f"STABLE_STEIN_THREADS must be an integer, got {env!r}"
            ) from None
    return 1


def _cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def sample_stable(alpha: float, rng: np.random.Generator, size=None):
    """Exact draws from the stable target with cf e^{-|l|^alpha}.

    Polar method: U uniform on (-pi/2, pi/2), W standard exponential,

        X = sin(alpha U) / cos(U)^{1/alpha} * (cos((1-alpha) U)/W)^{(1-alpha)/alpha},

    reducing to tan(U) at alpha = 1.
    """
    import numpy as np

    if not (0.0 < alpha < 2.0):
        raise DomainError(f"sample_stable requires alpha in (0, 2), got {alpha}")
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    if alpha == 1.0:
        return np.tan(u)
    w = rng.standard_exponential(size)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


class SampleBatch(Record):
    """m sorted realizations of the normalized sum S_n.

    Bit-identical for fixed (seed, spec, n, m) independent of thread count.
    """

    spec: DistributionSpec
    n: int
    m: int
    seed: int
    values: np.ndarray

    # an array field has no one truth value: compared and hashed by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def alpha(self) -> float:
        return self.spec.alpha


_CHUNK = 1 << 15
_BLOCK = 32           # replicates drawn together, slice by slice
_FLOOR_BATCHES = 5
_JACKKNIFE_K = 20

# The bias floors and the two-sample reference of the fit in progress (a
# ``_one_fit`` block), keyed by everything they depend on; unset outside.  A
# context variable keeps the memos of concurrent fits in other threads apart
# and leaves empirical_w1's signature alone; nothing is kept once the fit
# returns.
_fit_memo: ContextVar[dict] = ContextVar("_fit_memo")


def _per_fit(key: tuple, make):
    """``make()``; inside ``_one_fit``, made once per fit for each key."""
    memo = _fit_memo.get({})
    if key not in memo:
        memo[key] = make()
    return memo[key]


@contextmanager
def _one_fit():
    """The block's empirical_w1 calls share one memo (see ``_per_fit``)."""
    token = _fit_memo.set({})
    try:
        yield
    finally:
        _fit_memo.reset(token)


def _sample_sums(spec: DistributionSpec, ns: Sequence[int], m: int, seed: int) -> list:
    """One SampleBatch per n of ns, all with the same m and seed.

    Replicate r draws from stream (seed, SUMMANDS, r), once, up to max(ns);
    every n sums a prefix of the same row.  A block of _BLOCK replicates
    draws its rows in _CHUNK-column slices into one buffer, each replicate
    continuing its own stream, so a worker holds at most _BLOCK x _CHUNK
    floats (8.4 MB) and one _CHUNK scratch for the ppf, whatever n is.
    Each n sums each slice's columns below it: one slice gives the plain row
    sum, several give the exact ``fsum`` of the slice sums.  There is at
    most one worker per CPU.
    """
    import numpy as np

    ns = [_count("n", n) for n in ns]
    m = _count("m", m)
    alpha = spec.alpha
    scales = [spec.ell(n) ** (-1.0 / alpha) for n in ns]
    mu = spec.mean
    outs = [np.empty(m, dtype=float) for _ in ns]
    width = max(ns)

    def run_range(r0: int, r1: int):
        rows = min(_BLOCK, r1 - r0)
        seek = _restream(seed, STREAM_SUMMANDS, rows)
        buf = np.empty((rows, min(width, _CHUNK)), dtype=float)
        scratch = np.empty(min(buf.size, _CHUNK), dtype=float)   # a sub-block's ppf fold
        for b0 in range(r0, r1, _BLOCK):
            block = range(b0, min(b0 + _BLOCK, r1))
            rngs = [seek(r, slot) for slot, r in enumerate(block)]
            parts = [[] for _ in ns]
            for c0 in range(0, width, _CHUNK):
                x = buf[:len(block), :min(width - c0, _CHUNK)]
                sub = max(1, _CHUNK // x.shape[1])    # in cache between passes
                for i in range(0, len(block), sub):
                    xs = x[i:i + sub]
                    spec._sample_rows(rngs[i:i + sub], xs,
                                      scratch[:xs.size].reshape(xs.shape))
                for n, part in zip(ns, parts):
                    if n > c0:
                        part.append(x[:, :n - c0].sum(axis=1))
            for n, scale, part, out in zip(ns, scales, parts, outs):
                sums = part[0] if len(part) == 1 else \
                    np.array([math.fsum(col) for col in np.column_stack(part)])
                out[b0:block.stop] = scale * (sums - n * mu)

    workers = min(resolve_threads(), _cpus())
    if workers > 1 and m >= 4 * workers:
        from concurrent.futures import ThreadPoolExecutor

        bounds_idx = np.linspace(0, m, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda i: run_range(bounds_idx[i], bounds_idx[i + 1]),
                          range(workers)))
    else:
        run_range(0, m)

    for out in outs:
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise NonFiniteSampleError(
                f"{bad.size} of {m} replicates produced non-finite sums "
                f"(first indices {bad[:5].tolist()})",
                indices=bad.tolist(),
            )
        out.sort()
    return [SampleBatch(spec=spec, n=n, m=m, seed=seed, values=out)
            for n, out in zip(ns, outs)]


def sample_sum(spec: DistributionSpec, n: int, m: int, seed: int) -> SampleBatch:
    """m independent realizations of S_n = ell^{-1/alpha} sum (xi_i - E xi).

    Replicate r draws its n summands from substream (seed, SUMMANDS, r);
    the replicate loop may be split over threads without changing a bit of
    the output.  n and m are ints or integral floats; anything else raises
    DomainError before any draw.
    """
    return _sample_sums(spec, [n], m, seed)[0]


class EmpiricalW1Result(Record):
    """An empirical W1 estimate with its uncertainty bookkeeping."""

    estimate: float
    std_error: float
    estimator: str
    m: int
    reference_m: Optional[int] = None
    bias_floor_estimate: float = 0.0


def _one_sample_value(sorted_vals: np.ndarray, table: QuantileTable, buf: np.ndarray) -> float:
    """integral of |F_m^{-1}(u) - Q(u)| du for a sorted sample; ``buf`` takes |x - q|."""
    import numpy as np

    m = sorted_vals.size
    alpha, tail_c = table.alpha, table.tail_c
    # a Gauss rule on the cells the table covers; the first and last cell
    # always go through the closed-form tail below
    i_lo, i_hi, q, w = table.cell_quantiles(m)
    total = 0.0
    if i_hi >= i_lo:
        vals = sorted_vals[i_lo - 1:i_hi]
        diff = np.subtract(vals[:, None], q, out=buf[:vals.size])
        cell = np.abs(diff, out=diff) @ w
        total += float(cell.sum())

    # tail cells: closed-form integration against Q(u) = +-(c/v)^{1/alpha}
    e = (alpha - 1.0) / alpha

    def tail_piece(x_cell: float, va: float, vb: float, sign: float) -> float:
        # integral over v in [va, vb] of |x_cell - sign (c/v)^{1/alpha}| dv
        if vb <= va:
            return 0.0

        def G(v):  # antiderivative of (c/v)^{1/alpha}
            return tail_c ** (1.0 / alpha) * v ** e / e

        xs = sign * x_cell
        if xs <= 0.0:
            return (G(vb) - G(va)) - xs * (vb - va)
        v_star = tail_c * xs ** -alpha
        if v_star <= va:
            return xs * (vb - va) - (G(vb) - G(va))
        if v_star >= vb:
            return (G(vb) - G(va)) - xs * (vb - va)
        return (2.0 * G(v_star) - G(va) - G(vb)) + xs * (va + vb - 2.0 * v_star)

    for i in range(i_hi + 1, m + 1):          # upper tail cells, v = 1 - u
        total += tail_piece(float(sorted_vals[i - 1]), 1.0 - i / m,
                            1.0 - (i - 1.0) / m, +1.0)
    for i in range(1, i_lo):                  # lower tail cells, v = u
        total += tail_piece(float(sorted_vals[i - 1]), (i - 1.0) / m, i / m, -1.0)
    return total


def _jackknife_blocks(m: int, seed: int) -> np.ndarray:
    """Deterministic random assignment of ranks to _JACKKNIFE_K blocks."""
    import numpy as np

    rng = substream(seed, STREAM_BLOCKS, 0)
    k = _JACKKNIFE_K
    labels = np.repeat(np.arange(k), (m + k - 1) // k)[:m]
    rng.shuffle(labels)
    return labels


def _jackknifed(stat, blocks: np.ndarray) -> tuple:
    """``stat(None)`` on all replicates and ``stat(keep)`` on those the mask
    ``keep`` leaves after deleting each block in turn."""
    return stat(None), [stat(blocks != j) for j in range(_JACKKNIFE_K)]


def _bias_floors(tab: QuantileTable, seed: int, blocks: np.ndarray, buf: np.ndarray) -> tuple:
    """The bias floor and its delete-one-block jackknife values.

    The floor is the one-sample statistic on independent samples of the
    batch's size drawn from the target itself.  Its sampling distribution
    is right-skewed (rare extreme order statistics inflate the mean), so
    the median of a few draws is used: it matches the typical realization,
    where the mean would over-correct and clamp genuine signal to zero.
    """
    import numpy as np

    m = blocks.size
    samples = [np.sort(sample_stable(tab.alpha, substream(seed, STREAM_FLOOR_A, j), m))
               for j in range(_FLOOR_BATCHES)]
    return _jackknifed(lambda keep: float(np.median([
        _one_sample_value(f if keep is None else f[keep], tab, buf) for f in samples
    ])), blocks)


def _check_w1_args(m: int, estimator: str) -> None:
    if m < 100:
        raise DomainError(f"m = {m} is too small for a usable estimate (need >= 100)")
    if estimator not in ("one_sample_quantile", "two_sample", "bias_corrected"):
        raise DomainError(f"unknown estimator {estimator!r}")


def empirical_w1(batch: SampleBatch, estimator: str = "bias_corrected") -> EmpiricalW1Result:
    """Empirical W1 distance between the batch and the stable target of its
    alpha: the estimator's statistic on every replicate, with the
    delete-one-block jackknife error that all three estimators share."""
    import numpy as np

    m = batch.m
    _check_w1_args(m, estimator)
    alpha = batch.alpha
    vals = batch.values
    blocks = _jackknife_blocks(m, batch.seed)
    ref_m, floor = m, 0.0
    if estimator == "two_sample":
        ref = _per_fit(("reference", alpha, batch.seed, m),
                       lambda: np.sort(sample_stable(
                           alpha, substream(batch.seed, STREAM_REFERENCE, 0), m)))
        d_pair = np.abs(vals - ref)
        est, jk = _jackknifed(
            lambda keep: float((d_pair if keep is None else d_pair[keep]).mean()), blocks)
    else:
        tab = quantile_table(alpha)
        buf = np.empty((m, tab.cell_quantiles(m)[2].shape[1]))    # one per call, never shared
        if estimator == "bias_corrected":
            # the floors (see _bias_floors) come before the batch's own
            # statistic: the other order gives the same bits but a fit's peak
            # RSS rose by about 5 MB
            floor, floor_jk = _per_fit(("floors", alpha, batch.seed, m),
                                       lambda: _bias_floors(tab, batch.seed, blocks, buf))
        est, jk = _jackknifed(lambda keep: _one_sample_value(
            vals if keep is None else vals[keep], tab, buf), blocks)
        if estimator == "bias_corrected":
            est = max(est - floor, 0.0)
            jk = [max(raw - f, 0.0) for raw, f in zip(jk, floor_jk)]
        else:
            ref_m = None

    jk = np.array(jk)
    k = _JACKKNIFE_K
    se = math.sqrt(max((k - 1) / k * float(np.sum((jk - jk.mean()) ** 2)), 0.0))
    return EmpiricalW1Result(
        estimate=est, std_error=se, estimator=estimator, m=m,
        reference_m=ref_m, bias_floor_estimate=floor,
    )


class RateFit(Record):
    """Least-squares fit of log W1 against log n."""

    slope: float
    intercept: float
    per_n: tuple
    n_values: tuple
    dropped: tuple
    residuals: tuple


def fit_rate(spec: DistributionSpec, alpha: float, n_grid: Sequence[int], m: int,
             seed: int, estimator: str = "bias_corrected") -> RateFit:
    """Empirical convergence-rate fit over a log-spaced grid of n.

    Replicate streams are shared across the grid (common random numbers),
    which lowers the variance of the fitted slope.  Non-positive corrected
    estimates are dropped from the fit and reported.

    Each grid point's result equals ``empirical_w1(sample_sum(spec, n, m,
    seed), estimator)`` bit for bit, but the shared work is done once: each
    replicate is drawn once, at the largest n, and every n sums a prefix of
    it; the bias floor with its jackknife values and the sorted two-sample
    reference, which do not depend on n, are computed at the first grid
    point and reused.  The slope is fitted on the log of each n as an int
    (see ``sample_sum``).
    """
    import numpy as np

    if len(n_grid) < 4:
        raise DomainError("fit_rate needs at least 4 grid points")
    n_grid = [_count("n", n) for n in n_grid]
    m = _count("m", m)
    if sorted(n_grid) != n_grid:
        raise DomainError("n_grid must be increasing")
    check_spec_alpha(spec, alpha)
    _check_w1_args(m, estimator)     # before the grid is drawn
    results = []
    kept_logn = []
    kept_logw = []
    dropped = []
    batches = _sample_sums(spec, n_grid, m, seed)
    with _one_fit():
        for n, batch in zip(n_grid, batches):
            res = empirical_w1(batch, estimator)
            results.append(res)
            if res.estimate > 0.0:
                kept_logn.append(math.log(n))
                kept_logw.append(math.log(res.estimate))
            else:
                dropped.append((n, "non-positive corrected estimate"))
    if len(kept_logn) < 2:
        raise DomainError("fewer than 2 usable points left after drops")
    slope, intercept = np.polyfit(kept_logn, kept_logw, 1)
    fitted = np.polyval([slope, intercept], kept_logn)
    residuals = tuple(float(r) for r in (np.array(kept_logw) - fitted))
    return RateFit(
        slope=float(slope), intercept=float(intercept),
        per_n=tuple(results), n_values=tuple(n_grid),
        dropped=tuple(dropped), residuals=residuals,
    )

