"""Monte Carlo error studies and mean-square stability analysis.

Strong-error studies couple every study run to a proxy-exact reference: the
same Brownian path is generated once on a fine grid, the reference scheme
(semi-tamed Milstein by default) integrates it there, and each study
stepsize integrates the block-summed coarse view of the identical path.
Every study scheme steps one such grid in lockstep over a single walk of
the fine block, which the propagator coarsens a tile at a time, so a chunk
never holds a coarse block beside its fine one.
The root-mean-square terminal gap over paths is then fitted to a power law
``e(h) = C h^r`` in log-log space. Every driver here refuses a Milstein
scheme, as study or reference, on noise that fails the commutativity check.

Sample paths are processed in fixed-size chunks (``CHUNK_PATHS`` paths per
chunk) whose boundaries depend only on the path index. Chunks run one after
another on the caller's thread and are reduced in chunk order, so only one
chunk's increment block is live at a time. Extra threads draw the current
chunk's streams in parallel: a Philox stream is fully set by its key, so any
split of the rows gives the same bits. Results are therefore bit-identical
for any thread count, including 1.

Stability analysis has two sides. The closed-form side computes the
stepsize threshold ``h*`` and the exponential decay rate ``gamma_h`` of
the semi-tamed Milstein scheme from the problem's structural constants;
below ``h*`` the scheme's second moment contracts like ``exp(-gamma_h t)``.
The empirical side estimates ``E ||Y_n||^2`` over the grid by Monte Carlo.
Blown-up paths are never averaged into moment estimates: they are counted
per gridpoint and reported alongside.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .model import EvaluationError, SdeProblem, _sample_states, drift_full
from .paths import (
    _MAX_PATHS,
    _draw_increments,
    _generator,
    _restart_state,
    _scale_increments,
    _stream_keys,
)
from .schemes import SchemeKind, _propagate, require_supported, step_function

__all__ = [
    "CHUNK_PATHS",
    "PowerLawFit",
    "ConvergenceReport",
    "MomentCurve",
    "StabilityParams",
    "StabilityThreshold",
    "DissipativityReport",
    "StabilityCurveEntry",
    "StabilityReport",
    "fit_power_law",
    "strong_error_table",
    "mean_square_curve",
    "stability_threshold",
    "decay_rate",
    "check_dissipativity",
    "stability_study",
]

# Paths per work unit. Fixed (never derived from the thread count) so that
# chunk boundaries, and therefore floating-point reduction order, are
# identical no matter how many threads run.
CHUNK_PATHS = 512

# Normals per stream from which a chunk's draws are split across threads.
# A shorter stream's draw is mostly per-stream set-up that holds the
# interpreter lock: on a 2-core host, splitting 512 such streams over two
# threads measured up to 1.2x slower at 80-512 normals, and 1.4-1.9x faster
# from 1024 up.
_SPLIT_MIN_NORMALS = 1024

# Upper bound on the bytes of the buffer in which _batch_grid_moments keeps
# a block of gridpoints' squared norms until it sums them.
_MOMENT_BYTES = 1 << 16


def _steps_for(horizon: float, stepsize: float) -> int:
    """Number of grid steps for ``stepsize``, which must divide ``horizon``."""
    if not stepsize > 0:
        raise ValueError(f"stepsize must be positive, got {stepsize}")
    ratio = horizon / float(stepsize)  # a float overflows to inf without a warning
    if not math.isfinite(ratio):
        raise ValueError(
            f"stepsize {stepsize} is too small: horizon {horizon} / stepsize overflows"
        )
    steps = int(round(ratio))
    if steps < 1 or abs(ratio - steps) > 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"stepsize {stepsize} does not divide the horizon {horizon} evenly"
        )
    return steps


def _nested_steps(
    horizon: float, stepsizes: Sequence[float], reference_steps: Optional[int]
) -> tuple[list[int], int]:
    """Grid steps per stepsize and the reference step count they all nest in.

    ``reference_steps`` defaults to eight times the finest grid.
    """
    steps_list = [_steps_for(horizon, h) for h in stepsizes]
    if reference_steps is None:
        reference_steps = 8 * max(steps_list)
    for h, steps in zip(stepsizes, steps_list):
        if reference_steps % steps != 0:
            raise ValueError(
                f"stepsize {h} ({steps} steps) does not nest in the reference "
                f"grid of {reference_steps} steps"
            )
    return steps_list, reference_steps


def _check_counts(paths: int, threads: int) -> None:
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    if paths > _MAX_PATHS:
        raise ValueError(f"paths must be <= {_MAX_PATHS}, got {paths}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _chunk_ranges(paths: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_PATHS, paths)) for lo in range(0, paths, CHUNK_PATHS)]


def _stack_increments(
    seed: int, lo: int, hi: int, steps: int, dim_noise: int, horizon: float,
    threads: int = 1,
) -> np.ndarray:
    """Increments for paths lo..hi-1, identical to per-path generation.

    The chunk's keys are derived in one pass. The rows are cut into at most
    ``min(threads, hi - lo, available cores)`` contiguous slices, or one
    slice where a stream holds fewer than ``_SPLIT_MIN_NORMALS`` normals.
    Each slice has its own generator and restart dict, and restarts the
    generator per path to draw its standard normals straight into the path's
    row; the caller's thread draws the first slice and helper threads the
    others. A helper's error is raised here, so a block with undrawn rows is
    never returned. The whole block is scaled once.
    """
    block = np.empty((hi - lo, steps, dim_noise))
    keys = _stream_keys(seed, lo, hi).tolist()

    def draw(start: int, stop: int) -> None:
        gen, state = _generator(), _restart_state()
        for row, key in zip(block[start:stop], keys[start:stop]):
            _draw_increments(gen, key, row, state)

    parts = 1
    if steps * dim_noise >= _SPLIT_MIN_NORMALS:
        parts = min(threads, hi - lo, _available_cores())
    cuts = [(hi - lo) * k // parts for k in range(parts + 1)]
    if parts == 1:
        draw(*cuts)
    else:
        with ThreadPoolExecutor(max_workers=parts - 1) as pool:
            helpers = [pool.submit(draw, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
            draw(cuts[0], cuts[1])
        for helper in helpers:
            helper.result()
    return _scale_increments(block, steps, horizon)


def _available_cores() -> int:
    """Cores this process may run on (all of the machine's where unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunks(worker: Callable, paths: int, threads: int) -> list:
    """Call ``worker(lo, hi, threads)`` for every chunk, one after another on
    the caller's thread, and return the results in chunk order.

    ``threads`` is how many threads a chunk may draw its increments on; the
    chunk's stepping and reduction run on the caller's thread alone.
    """
    return [worker(lo, hi, threads) for lo, hi in _chunk_ranges(paths)]


def _batch_endpoints(
    problem: SdeProblem,
    kinds: Sequence[SchemeKind],
    increments: np.ndarray,
    h: float,
    observe: Optional[Callable] = None,
    factor: int = 1,
) -> list[np.ndarray]:
    """Integrate a (batch, steps, m) block, coarsened by ``factor``, with
    every scheme of ``kinds`` in lockstep; return the terminal states per
    scheme, with blown paths frozen to the NaN sentinel. ``observe(n, x)``
    is passed on to :func:`schemes._propagate`."""
    steps = [step_function(kind) for kind in kinds]
    return _propagate(problem, steps, increments, h, observe, factor)


def _batch_grid_moments(
    problem: SdeProblem, scheme: SchemeKind, increments: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate sums of ``||Y_n||^2`` and ``||Y_n||^4`` per gridpoint over
    one batch.

    Returns the two sum arrays of length steps+1 and the per-gridpoint
    count of paths still finite. Dead paths stop contributing from the
    step they blow up, and gridpoints after the last path dies keep count
    and sums 0. The sums are bitwise those of ``np.sum(live_sq)`` and
    ``np.sum(live_sq ** 2)`` over the live rows' squared norms.

    The observer only stores each gridpoint's squared norms, one row of a
    buffer of at most ``_MOMENT_BYTES``. A full buffer, and the rows left
    when the walk ends, are summed a block of gridpoints per call; only a
    gridpoint whose sum is NaN (a blown path's square is NaN, a live one's
    never) is summed again over its live rows.
    """
    batch, n_steps = increments.shape[:2]
    s2 = np.zeros(n_steps + 1)
    s4 = np.zeros(n_steps + 1)
    counts = np.zeros(n_steps + 1, dtype=np.int64)
    rows = max(1, min(n_steps + 1, _MOMENT_BYTES // (8 * batch)))
    buf = np.empty((rows, batch))
    cols = buf[:, :, None]
    add = np.add.reduce
    one_dim = problem.dim_state == 1
    reached = 0  # gridpoints observed so far

    def reduce_block() -> None:
        start = (reached - 1) // rows * rows
        sq, block = buf[: reached - start], slice(start, reached)
        with np.errstate(over="ignore", invalid="ignore"):
            add(sq, axis=1, out=s2[block])
            blown = [(start + i, sq[i][~np.isnan(sq[i])])
                     for i in np.flatnonzero(np.isnan(s2[block]))]
            np.multiply(sq, sq, out=sq)
            add(sq, axis=1, out=s4[block])
            counts[block] = batch
            for n, live in blown:
                s2[n] = add(live)
                s4[n] = add(live ** 2)
                counts[n] = live.size

    def observe(n, x):
        nonlocal reached
        row = n % rows
        if one_dim:
            np.multiply(x, x, out=cols[row])
        else:
            add(x * x, axis=1, out=buf[row])
        reached = n + 1
        if row == rows - 1:
            reduce_block()

    _batch_endpoints(problem, [scheme], increments, h, observe)
    if reached % rows:
        reduce_block()
    return s2, s4, counts


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``e = C h^r`` in log-log coordinates."""

    order: float
    constant: float
    residual: float


def fit_power_law(
    stepsizes: Sequence[float], errors: Sequence[float]
) -> PowerLawFit:
    """Fit ``errors ~ C * stepsizes**r`` by ordinary least squares on logs.

    The residual is the Euclidean norm of the log-space misfit. Requires
    strictly positive (h, e) pairs at two distinct h at least. The line is
    the closed form on Python floats, with ``math.fsum`` for every sum, so
    its bits do not depend on which BLAS or SIMD kernel the machine picks.
    """
    h = np.asarray(stepsizes, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if h.shape != e.shape or h.ndim != 1 or h.size < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
    if np.any(h <= 0) or np.any(~np.isfinite(h)):
        raise ValueError("stepsizes must be finite and positive")
    if np.any(e <= 0) or np.any(~np.isfinite(e)):
        raise ValueError("errors must be finite and positive")
    x = [math.log(value) for value in h.tolist()]
    y = [math.log(value) for value in e.tolist()]
    mean_x, mean_y = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [value - mean_x for value in x]
    spread = math.fsum(a * a for a in dx)
    if spread == 0.0:
        raise ValueError("need at least two distinct stepsizes")
    slope = math.fsum(a * (b - mean_y) for a, b in zip(dx, y)) / spread
    intercept = mean_y - slope * mean_x
    resid = math.sqrt(math.fsum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y)))
    return PowerLawFit(order=slope, constant=math.exp(intercept), residual=resid)


@dataclass(frozen=True)
class ConvergenceReport:
    """Strong-error study of one scheme against a fine-grid reference.

    ``stepsizes`` is strictly decreasing; ``rms_errors[i]`` is the RMS
    terminal gap at ``stepsizes[i]`` over the non-excluded paths, with
    ``stderrs[i]`` its delta-method standard error and
    ``excluded_paths[i]`` the number of paths dropped at that stepsize
    (reference or study trajectory blew up). Fit fields are NaN when
    fewer than two finite positive RMS values are available to fit.
    """

    scheme: SchemeKind
    stepsizes: np.ndarray
    rms_errors: np.ndarray
    stderrs: np.ndarray
    excluded_paths: np.ndarray
    paths: int
    reference_scheme: SchemeKind
    reference_steps: int
    fit_order: float
    fit_constant: float
    fit_residual: float


def strong_error_table(
    problem: SdeProblem,
    schemes: Sequence["str | SchemeKind"],
    stepsizes: Sequence[float],
    paths: int,
    seed: int,
    reference_steps: Optional[int] = None,
    reference_scheme: "str | SchemeKind" = SchemeKind.SEMI_TAMED_MILSTEIN,
    threads: int = 1,
) -> dict[SchemeKind, ConvergenceReport]:
    """Run one coupled strong-error study for several schemes at once.

    All schemes share the same reference trajectories and the same
    Brownian paths, so cross-scheme comparisons are on identical noise.
    ``reference_steps`` defaults to eight times the finest study grid.
    """
    scheme_kinds = [require_supported(problem, s) for s in schemes]
    if len(scheme_kinds) == 0:
        raise ValueError("need at least one scheme")
    ref_kind = require_supported(problem, reference_scheme)
    _check_counts(paths, threads)

    hs = np.asarray(sorted(set(float(h) for h in stepsizes), reverse=True))
    if hs.size == 0:
        raise ValueError("need at least one stepsize")
    steps_list, reference_steps = _nested_steps(problem.horizon, hs, reference_steps)
    h_ref = problem.horizon / reference_steps
    n_h = hs.size
    n_s = len(scheme_kinds)
    m = problem.dim_noise

    def worker(lo: int, hi: int, threads: int):
        inc = _stack_increments(seed, lo, hi, reference_steps, m, problem.horizon, threads)
        sq_err = np.empty((hi - lo, n_s, n_h))
        # a blown path ends at the NaN sentinel, so its squared gap is NaN;
        # surviving endpoints can be finite yet so large that their squared
        # gap overflows to +inf, which is honest data, not a warning condition
        with np.errstate(over="ignore", invalid="ignore"):
            [ref_final] = _batch_endpoints(problem, [ref_kind], inc, h_ref)
            for ih, steps in enumerate(steps_list):
                ends = _batch_endpoints(
                    problem, scheme_kinds, inc, problem.horizon / steps,
                    factor=reference_steps // steps,
                )
                for ks, final in enumerate(ends):
                    gap = final - ref_final
                    sq_err[:, ks, ih] = np.sum(gap * gap, axis=1)
        return sq_err

    sq_err = np.concatenate(_run_chunks(worker, paths, threads), axis=0)

    reports: dict[SchemeKind, ConvergenceReport] = {}
    for ks, kind in enumerate(scheme_kinds):
        rms = np.empty(n_h)
        stderrs = np.empty(n_h)
        excluded = np.empty(n_h, dtype=np.int64)
        for ih in range(n_h):
            valid = ~np.isnan(sq_err[:, ks, ih])
            excluded[ih] = paths - int(np.sum(valid))
            if not np.any(valid):
                raise EvaluationError(
                    f"every path blew up for scheme {kind.value} at "
                    f"stepsize {hs[ih]}; no error estimate possible"
                )
            sq = sq_err[valid, ks, ih]
            with np.errstate(over="ignore", invalid="ignore"):
                mean_sq = float(np.sum(sq) / sq.size)
                rms[ih] = math.sqrt(mean_sq)
                if rms[ih] == math.inf:
                    # the sample deviation of a sample holding +inf is NaN
                    stderrs[ih] = math.inf
                elif sq.size > 1 and rms[ih] > 0:
                    se_mean = float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
                    stderrs[ih] = se_mean / (2.0 * rms[ih])
                else:
                    stderrs[ih] = 0.0
        positive = (rms > 0) & np.isfinite(rms)
        if np.sum(positive) >= 2:
            fit = fit_power_law(hs[positive], rms[positive])
            order, constant, residual = fit.order, fit.constant, fit.residual
        else:
            order = constant = residual = float("nan")
        reports[kind] = ConvergenceReport(
            scheme=kind,
            stepsizes=hs.copy(),
            rms_errors=rms,
            stderrs=stderrs,
            excluded_paths=excluded,
            paths=paths,
            reference_scheme=ref_kind,
            reference_steps=int(reference_steps),
            fit_order=order,
            fit_constant=constant,
            fit_residual=residual,
        )
    return reports


@dataclass(frozen=True)
class MomentCurve:
    """Empirical moment of the numerical solution along the grid.

    ``values[n]`` averages ``||Y_n||^2`` over the paths still finite at
    gridpoint ``n`` (``counts[n]`` of them); ``blown_by_time[n]`` is the
    cumulative number of blown-up paths. Gridpoints where no path
    survives hold NaN in ``values`` and are the caller's responsibility
    to surface rather than average.
    """

    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    blown_by_time: np.ndarray
    paths: int

    @property
    def blown_up_count(self) -> int:
        return int(self.blown_by_time[-1])


def mean_square_curve(
    problem: SdeProblem,
    scheme: "str | SchemeKind",
    stepsize: float,
    paths: int,
    seed: int,
    threads: int = 1,
) -> MomentCurve:
    """Empirical ``E ||Y_n||^2`` on the grid of ``stepsize``.

    The first entry is exactly ``||x0||^2``. Standard errors are the
    per-gridpoint sample standard deviations of ``||Y_n||^2`` over
    surviving paths divided by sqrt(count).
    """
    kind = require_supported(problem, scheme)
    steps = _steps_for(problem.horizon, stepsize)
    _check_counts(paths, threads)
    m = problem.dim_noise

    def worker(lo: int, hi: int, threads: int):
        inc = _stack_increments(seed, lo, hi, steps, m, problem.horizon, threads)
        return _batch_grid_moments(problem, kind, inc, stepsize)

    parts = _run_chunks(worker, paths, threads)
    s2 = np.sum([p[0] for p in parts], axis=0)
    s4 = np.sum([p[1] for p in parts], axis=0)
    counts = np.sum([p[2] for p in parts], axis=0)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        values = np.where(counts > 0, s2 / counts, np.nan)
        mean4 = np.where(counts > 0, s4 / counts, np.nan)
        var = np.maximum(mean4 - values**2, 0.0)
        ddof_scale = np.where(counts > 1, counts / np.maximum(counts - 1, 1), 0.0)
        stderr = np.sqrt(var * ddof_scale / np.maximum(counts, 1))
    stderr = np.where(counts > 1, stderr, 0.0)
    times = np.arange(steps + 1) * stepsize
    return MomentCurve(
        times=times,
        values=values,
        stderr=stderr,
        counts=counts,
        blown_by_time=paths - counts,
        paths=paths,
    )


@dataclass(frozen=True)
class StabilityParams:
    """Structural constants entering the mean-square stability threshold.

    rho : one-sided contraction rate of the regular drift part.
    theta : Lipschitz bound of the diffusion.
    lip_K : Lipschitz bound of the regular drift part.
    beta : Lipschitz bound of the diffusion derivative products.
    v, v_bar : lower/upper polynomial bounds of the one-sided drift part.
    alpha : polynomial degree of the one-sided part (> 1).
    m : number of driving Brownian components.

    Stability of the exact solution requires ``2 rho > theta^2``; the
    one-sided bounds must satisfy ``2 v > v_bar``.
    """

    rho: float
    theta: float
    lip_K: float
    beta: float
    v: float
    v_bar: float
    alpha: float
    m: int

    def __post_init__(self) -> None:
        values = {
            "rho": self.rho,
            "theta": self.theta,
            "lip_K": self.lip_K,
            "beta": self.beta,
            "v": self.v,
            "v_bar": self.v_bar,
            "alpha": self.alpha,
        }
        for name, val in values.items():
            if not math.isfinite(float(val)):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.theta < 0 or self.lip_K < 0 or self.beta < 0:
            raise ValueError("theta, lip_K and beta must be nonnegative")
        if self.v <= 0 or self.v_bar <= 0:
            raise ValueError("v and v_bar must be positive")
        if self.alpha <= 1:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        (gap, _), (excess, _), *_ = _terms(self, Fraction)
        if not gap > 0:
            raise ValueError("need 2*rho > theta^2 for mean-square stability")
        if not excess > 0:
            raise ValueError("need 2*v > v_bar")


@dataclass(frozen=True)
class StabilityThreshold:
    """Closed-form stepsize threshold ``h* = min(h1, h2)``."""

    h1: float
    h2: float
    h_star: float


def _terms(params: StabilityParams, num: Callable, h: float = 0.0) -> tuple:
    """The (numerator, denominator) pairs of ``h2``, the two ``h1`` branches
    and ``gamma_h`` at stepsize ``h`` in the number type ``num``."""
    rho, theta, lip_K, beta, v, v_bar, _, m = map(num, astuple(params))
    gap = 2 * rho - theta**2
    load = (m**2 / 4) * (m**2 + m) * beta + lip_K
    spread = (2 * lip_K + v_bar) * v_bar
    return (gap, load), (v - v_bar / 2, lip_K * v), (2 * v, spread), (gap - load * num(h), 1)


def _rounded(pair: Callable) -> float:
    """``numerator / denominator`` of ``pair(num)`` (+inf at a zero denominator):
    the float value where it is finite and positive and neither float operand
    is subnormal (a subnormal has lost precision), else the exact value
    rounded once (+inf beyond the float range)."""
    for num in (float, Fraction):
        try:
            numerator, denominator = pair(num)
            value = float(numerator / denominator) if denominator > 0 else math.inf
        except OverflowError:  # also a float ``** 2`` past the float range
            value = math.inf
        if 0 < value < math.inf and (
            num is Fraction or min(abs(numerator), denominator) >= sys.float_info.min
        ):
            return value
    return value


def stability_threshold(params: StabilityParams) -> StabilityThreshold:
    """Largest stepsize region (0, h*) with provably contracting moments.

    ``h1`` constrains the tamed one-sided part:
    ``min((2v - v_bar)/(2 K v), 2v/((2K + v_bar) v_bar))``, with the first
    branch vacuous (+inf) when K = 0. ``h2`` constrains the diffusion and
    correction load: ``(2 rho - theta^2) / ((m^2/4)(m^2+m) beta + K)``,
    vacuous when that denominator is zero; exact where floats over- or underflow
    or turn subnormal.
    """
    h2, *h1 = (_rounded(lambda num, k=k: _terms(params, num)[k]) for k in range(3))
    return StabilityThreshold(h1=min(h1), h2=h2, h_star=min(*h1, h2))


def decay_rate(params: StabilityParams, stepsize: float) -> float:
    """Exponential mean-square decay rate ``gamma_h`` at a stepsize below h*.

    ``gamma_h = (2 rho - theta^2) - ((m^2/4)(m^2+m) beta + K) h``; it is
    positive on (0, h*), tends to ``2 rho - theta^2`` as h -> 0 and hits
    zero at ``h2`` when the diffusion constraint binds.
    """
    thr = stability_threshold(params)
    if not 0 < stepsize < thr.h_star:
        raise ValueError(
            f"stepsize must lie in (0, h*) = (0, {thr.h_star}); got {stepsize}"
        )
    return _rounded(lambda num: _terms(params, num, stepsize)[3])


@dataclass(frozen=True)
class DissipativityReport:
    """Worst-case check of ``2<x, f(x)> + ||g(x)||_F^2 <= -gamma ||x||^2``.

    ``margin`` is the maximum over sample points of the left side plus
    ``gamma ||x||^2``; ``passed`` holds when that sum is at most
    ``1e-10 (1 + ||x||^2)`` at every point.
    """

    passed: bool
    margin: float
    gamma: float
    sample_count: int


def check_dissipativity(
    problem: SdeProblem,
    gamma: float,
    sample_points: Sequence[np.ndarray] | np.ndarray,
) -> DissipativityReport:
    """Test the exponential mean-square contraction condition numerically.

    Evaluates ``2<x, f(x)> + sum_j ||g_j(x)||^2 + gamma ||x||^2`` on every
    sample point; the condition holds when each value is at most the
    pointwise rounding allowance ``1e-10 (1 + ||x||^2)``.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    points = _sample_states(problem, sample_points)
    f = drift_full(problem, points)
    sq_norm = np.sum(points * points, axis=-1)
    diffusion_sq = np.zeros(points.shape[0])
    for j in range(problem.dim_noise):
        col = np.asarray(problem.diffusion_column(points, j), dtype=np.float64)
        diffusion_sq += np.sum(col * col, axis=-1)
    expression = 2.0 * np.sum(points * f, axis=-1) + diffusion_sq + gamma * sq_norm
    return DissipativityReport(
        passed=bool(np.all(expression <= 1e-10 * (1.0 + sq_norm))),
        margin=float(np.max(expression)),
        gamma=float(gamma),
        sample_count=points.shape[0],
    )


@dataclass(frozen=True)
class StabilityCurveEntry:
    scheme: SchemeKind
    stepsize: float
    curve: MomentCurve


@dataclass(frozen=True)
class StabilityReport:
    """Empirical moment curves, one per (scheme, stepsize) pair."""

    entries: list[StabilityCurveEntry]


def stability_study(
    problem: SdeProblem,
    schemes: Sequence["str | SchemeKind"],
    stepsizes: Sequence[float],
    paths: int,
    seed: int,
    threads: int = 1,
) -> StabilityReport:
    """Mean-square curves for every (scheme, stepsize) pair on shared noise.

    All pairs reuse the same per-path streams (the grid resolution varies
    with the stepsize), so scheme comparisons at a fixed stepsize are on
    identical Brownian paths. Every scheme, stepsize and the path and thread
    counts are checked before the first curve runs.
    """
    kinds = [require_supported(problem, s) for s in schemes]
    if not kinds:
        raise ValueError("need at least one scheme")
    hs = [float(h) for h in stepsizes]
    if not hs:
        raise ValueError("need at least one stepsize")
    for h in hs:
        _steps_for(problem.horizon, h)
    _check_counts(paths, threads)
    entries = [
        StabilityCurveEntry(
            scheme=kind,
            stepsize=h,
            curve=mean_square_curve(problem, kind, h, paths, seed, threads=threads),
        )
        for kind in kinds
        for h in hs
    ]
    return StabilityReport(entries=entries)
