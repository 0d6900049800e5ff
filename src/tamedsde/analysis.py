"""Monte Carlo error studies and mean-square stability analysis.

Strong-error studies couple every study run to a proxy-exact reference: the
same Brownian path is generated once on a fine grid, the reference scheme
(semi-tamed Milstein by default) integrates it there, and each study
stepsize integrates the block-summed coarse view of the identical path.
The root-mean-square terminal gap over paths is then fitted to a power law
``e(h) = C h^r`` in log-log space. Every driver here refuses a Milstein
scheme, as study or reference, on noise not known to commute.

Sample paths are processed in fixed-size chunks (``CHUNK_PATHS`` paths per
chunk) whose boundaries depend only on the path index, and chunk results
are reduced in chunk order. Worker threads only distribute chunks, so
results are bit-identical for any thread count, including 1; no more
threads run than there are chunks or available cores.

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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import EvaluationError, SdeProblem, _sample_states, drift_full
from .paths import (
    _MAX_PATHS,
    _coarsen_increments,
    _draw_increments,
    _generator,
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
# identical no matter how many workers run.
CHUNK_PATHS = 512

# Held while a chunk steps. A step is a few dozen small numpy operations,
# each of which drops and retakes the interpreter lock; two chunks stepping
# at once hand that lock back and forth on every operation (about 3e5
# context switches and twice the CPU time of one worker per full-width
# study, varying with the host's load). Drawing increments runs mostly
# outside the interpreter lock and still overlaps with another chunk's
# stepping.
_STEP_LOCK = threading.Lock()


def _steps_for(horizon: float, stepsize: float) -> int:
    """Number of grid steps for ``stepsize``, which must divide ``horizon``."""
    if stepsize <= 0:
        raise ValueError(f"stepsize must be positive, got {stepsize}")
    ratio = horizon / stepsize
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


def _check_paths(paths: int) -> None:
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    if paths > _MAX_PATHS:
        raise ValueError(f"paths must be <= {_MAX_PATHS}, got {paths}")


def _chunk_ranges(paths: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_PATHS, paths)) for lo in range(0, paths, CHUNK_PATHS)]


def _stack_increments(
    seed: int, lo: int, hi: int, steps: int, dim_noise: int, horizon: float
) -> np.ndarray:
    """Increments for paths lo..hi-1, identical to per-path generation.

    The chunk's keys are derived in one pass; one generator, private to this
    call, is restarted per path and draws its standard normals straight into
    the path's row, and the whole block is scaled once.
    """
    gen = _generator()
    block = np.empty((hi - lo, steps, dim_noise))
    for row, key in zip(block, _stream_keys(seed, lo, hi).tolist()):
        _draw_increments(gen, key, row)
    return _scale_increments(block, steps, horizon)


def _available_cores() -> int:
    """Cores this process may run on (all of the machine's where unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunks(worker: Callable, paths: int, threads: int) -> list:
    """Run ``worker`` over every chunk, returning results in chunk order.

    At most one worker per chunk and per available core. Workers draw their
    increments concurrently and take turns stepping (``_STEP_LOCK``), so a
    thread beyond the cores only costs its start-up.
    """
    ranges = _chunk_ranges(paths)
    workers = min(threads, len(ranges), _available_cores())
    if workers <= 1:
        return [worker(lo, hi) for lo, hi in ranges]
    results: list = [None] * len(ranges)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(worker, lo, hi): k for k, (lo, hi) in enumerate(ranges)
        }
        for future, k in futures.items():
            results[k] = future.result()
    return results


def _batch_endpoints(
    problem: SdeProblem,
    scheme: SchemeKind,
    increments: np.ndarray,
    h: float,
    observe: Optional[Callable] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a (batch, steps, m) block; return terminal states and a
    blow-up mask. Blown paths are frozen to the NaN sentinel; ``observe``
    is passed on to :func:`schemes._propagate`. One chunk steps at a time."""
    with _STEP_LOCK:
        return _propagate(problem, step_function(scheme), increments, h, observe)


def _batch_grid_moments(
    problem: SdeProblem, scheme: SchemeKind, increments: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate sums of ``||Y_n||^2`` and ``||Y_n||^4`` per gridpoint over
    one batch.

    Returns the two sum arrays of length steps+1 and the per-gridpoint
    count of paths still finite. Dead paths stop contributing from the
    step they blow up. The sums are bitwise those of ``np.sum(live_sq)``
    and ``np.sum(live_sq ** 2)`` over the live rows' squared norms.
    """
    n_steps = increments.shape[1]
    s2 = np.zeros(n_steps + 1)
    s4 = np.zeros(n_steps + 1)
    counts = np.zeros(n_steps + 1, dtype=np.int64)
    add = np.add.reduce
    one_dim = problem.dim_state == 1

    def observe(n, x, alive):
        sq = x * x
        sq = sq.reshape(-1) if one_dim else add(sq, axis=1)
        live_sq = sq if alive.all() else sq[alive]
        counts[n] = live_sq.size
        s2[n] = add(live_sq)
        s4[n] = add(live_sq ** 2)

    _batch_endpoints(problem, scheme, increments, h, observe)
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
    at least two strictly positive (h, e) pairs.
    """
    h = np.asarray(stepsizes, dtype=np.float64)
    e = np.asarray(errors, dtype=np.float64)
    if h.shape != e.shape or h.ndim != 1 or h.size < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
    if np.any(h <= 0) or np.any(~np.isfinite(h)):
        raise ValueError("stepsizes must be finite and positive")
    if np.any(e <= 0) or np.any(~np.isfinite(e)):
        raise ValueError("errors must be finite and positive")
    log_h = np.log(h)
    log_e = np.log(e)
    slope, intercept = np.polyfit(log_h, log_e, 1)
    resid = float(np.linalg.norm(log_e - (slope * log_h + intercept)))
    return PowerLawFit(order=float(slope), constant=float(np.exp(intercept)), residual=resid)


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
    _check_paths(paths)

    hs = np.asarray(sorted(set(float(h) for h in stepsizes), reverse=True))
    if hs.size == 0:
        raise ValueError("need at least one stepsize")
    steps_list, reference_steps = _nested_steps(problem.horizon, hs, reference_steps)
    h_ref = problem.horizon / reference_steps
    n_h = hs.size
    n_s = len(scheme_kinds)
    m = problem.dim_noise

    def worker(lo: int, hi: int):
        block = hi - lo
        inc = _stack_increments(seed, lo, hi, reference_steps, m, problem.horizon)
        ref_final, ref_blown = _batch_endpoints(problem, ref_kind, inc, h_ref)
        sq_err = np.full((block, n_s, n_h), np.nan)
        study_blown = np.zeros((block, n_s, n_h), dtype=bool)
        # surviving endpoints can be finite yet so large that their squared
        # gap overflows; that is honest data, not a warning condition
        with np.errstate(over="ignore", invalid="ignore"):
            for ih, steps in enumerate(steps_list):
                coarse = _coarsen_increments(inc, reference_steps // steps)
                h = problem.horizon / steps
                for ks, kind in enumerate(scheme_kinds):
                    final, blown = _batch_endpoints(problem, kind, coarse, h)
                    gap = final - ref_final
                    sq_err[:, ks, ih] = np.sum(gap * gap, axis=1)
                    study_blown[:, ks, ih] = blown
        return sq_err, ref_blown, study_blown

    parts = _run_chunks(worker, paths, threads)
    sq_err = np.concatenate([p[0] for p in parts], axis=0)
    ref_blown = np.concatenate([p[1] for p in parts], axis=0)
    study_blown = np.concatenate([p[2] for p in parts], axis=0)

    reports: dict[SchemeKind, ConvergenceReport] = {}
    for ks, kind in enumerate(scheme_kinds):
        rms = np.empty(n_h)
        stderrs = np.empty(n_h)
        excluded = np.empty(n_h, dtype=np.int64)
        for ih in range(n_h):
            valid = ~(ref_blown | study_blown[:, ks, ih])
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
                if sq.size > 1 and rms[ih] > 0:
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
    _check_paths(paths)
    m = problem.dim_noise

    def worker(lo: int, hi: int):
        inc = _stack_increments(seed, lo, hi, steps, m, problem.horizon)
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
        if not 2.0 * self.rho > self.theta**2:
            raise ValueError("need 2*rho > theta^2 for mean-square stability")
        if not 2.0 * self.v > self.v_bar:
            raise ValueError("need 2*v > v_bar")

    @property
    def correction_lipschitz_load(self) -> float:
        """The combined constant (m^2/4)(m^2 + m) beta + lip_K."""
        m2 = float(self.m) ** 2
        return (m2 / 4.0) * (m2 + self.m) * self.beta + self.lip_K


@dataclass(frozen=True)
class StabilityThreshold:
    """Closed-form stepsize threshold ``h* = min(h1, h2)``."""

    h1: float
    h2: float
    h_star: float


def _ratio_or_inf(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` for a positive numerator; +inf at a zero denominator."""
    return numerator / denominator if denominator > 0 else math.inf


def stability_threshold(params: StabilityParams) -> StabilityThreshold:
    """Largest stepsize region (0, h*) with provably contracting moments.

    ``h1`` constrains the tamed one-sided part:
    ``min((2v - v_bar)/(2 K v), 2v/((2K + v_bar) v_bar))``, with the first
    branch vacuous (+inf) when K = 0. ``h2`` constrains the diffusion and
    correction load: ``(2 rho - theta^2) / ((m^2/4)(m^2+m) beta + K)``,
    vacuous when that denominator is zero. A denominator that underflows to
    zero (e.g. a subnormal K) gives +inf, the correctly rounded bound; one
    that overflows is divided out one factor at a time instead.
    """
    v, v_bar, lip_K = params.v, params.v_bar, params.lip_K
    excess = v - v_bar / 2.0  # (2v - v_bar) / 2 without overflowing 2v
    if math.isinf(lip_K * v):
        h1_first = excess / v / lip_K
    else:
        h1_first = _ratio_or_inf(excess, lip_K * v)
    spread = (2.0 * lip_K + v_bar) * v_bar
    if math.isinf(spread):
        h1_second = (v / v_bar) / (lip_K + v_bar / 2.0)
    else:
        h1_second = _ratio_or_inf(2.0 * v, spread)
    h1 = min(h1_first, h1_second)

    gap = 2.0 * params.rho - params.theta**2
    h2 = _ratio_or_inf(gap, params.correction_lipschitz_load)
    return StabilityThreshold(h1=h1, h2=h2, h_star=min(h1, h2))


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
    return (2.0 * params.rho - params.theta**2) - params.correction_lipschitz_load * stepsize


@dataclass(frozen=True)
class DissipativityReport:
    """Worst-case check of ``2<x, f(x)> + ||g(x)||_F^2 <= -gamma ||x||^2``.

    ``margin`` is the maximum over sample points of the left side plus
    ``gamma ||x||^2`` (nonpositive up to tolerance when the bound holds).
    """

    passed: bool
    margin: float
    gamma: float
    sample_count: int


def check_dissipativity(
    problem: SdeProblem,
    gamma: float,
    sample_points: Sequence[np.ndarray] | np.ndarray,
    tolerance: Optional[float] = None,
) -> DissipativityReport:
    """Test the exponential mean-square contraction condition numerically.

    Evaluates ``2<x, f(x)> + sum_j ||g_j(x)||^2 + gamma ||x||^2`` on every
    sample point; the condition holds when each value is below tolerance
    (default ``1e-10 * (1 + ||x||^2)`` pointwise).
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
    if tolerance is None:
        tol = 1e-10 * (1.0 + sq_norm)
    else:
        tol = np.full_like(sq_norm, float(tolerance))
    return DissipativityReport(
        passed=bool(np.all(expression <= tol)),
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
    """Empirical moment curves, optionally with the closed-form threshold."""

    entries: list[StabilityCurveEntry]
    params: Optional[StabilityParams] = None
    threshold: Optional[StabilityThreshold] = None


def stability_study(
    problem: SdeProblem,
    schemes: Sequence["str | SchemeKind"],
    stepsizes: Sequence[float],
    paths: int,
    seed: int,
    params: Optional[StabilityParams] = None,
    threads: int = 1,
) -> StabilityReport:
    """Mean-square curves for every (scheme, stepsize) pair on shared noise.

    All pairs reuse the same per-path streams (the grid resolution varies
    with the stepsize), so scheme comparisons at a fixed stepsize are on
    identical Brownian paths. Every scheme, stepsize and the path count are
    checked before the first curve runs.
    """
    kinds = [require_supported(problem, s) for s in schemes]
    hs = [float(h) for h in stepsizes]
    for h in hs:
        _steps_for(problem.horizon, h)
    _check_paths(paths)
    entries = [
        StabilityCurveEntry(
            scheme=kind,
            stepsize=h,
            curve=mean_square_curve(problem, kind, h, paths, seed, threads=threads),
        )
        for kind in kinds
        for h in hs
    ]
    threshold = None if params is None else stability_threshold(params)
    return StabilityReport(entries=entries, params=params, threshold=threshold)
