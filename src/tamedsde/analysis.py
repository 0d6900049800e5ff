"""Monte Carlo error studies and mean-square stability analysis.

Strong-error studies couple every study run to a proxy-exact reference: the
same Brownian path is generated once on a fine grid, the reference scheme
(semi-tamed Milstein by default) integrates it there, and each study
stepsize integrates the block-summed coarse view of the identical path.
The root-mean-square terminal gap over paths is then fitted to a power law
``e(h) = C h^r`` in log-log space.

Sample paths are processed in fixed-size chunks (``CHUNK_PATHS`` paths per
chunk) whose boundaries depend only on the path index, and chunk results
are reduced in chunk order. Worker threads only distribute chunks, so
results are bit-identical for any thread count, including 1.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import EvaluationError, SdeProblem, drift_full
from .paths import _coarsen_increments, _draw_increments
from .schemes import SchemeKind, _propagate, require_supported, step_function

__all__ = [
    "CHUNK_PATHS",
    "PowerLawFit",
    "ConvergenceReport",
    "MomentCurve",
    "MomentBound",
    "StabilityParams",
    "StabilityThreshold",
    "DissipativityReport",
    "StabilityCurveEntry",
    "StabilityReport",
    "fit_power_law",
    "strong_error_table",
    "strong_error_study",
    "mean_square_curve",
    "empirical_moment_bound",
    "stability_threshold",
    "decay_rate",
    "check_dissipativity",
    "stability_study",
]

# Paths per work unit. Fixed (never derived from the thread count) so that
# chunk boundaries, and therefore floating-point reduction order, are
# identical no matter how many workers run.
CHUNK_PATHS = 512


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


def _chunk_ranges(paths: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_PATHS, paths)) for lo in range(0, paths, CHUNK_PATHS)]


def _stack_increments(
    seed: int, lo: int, hi: int, steps: int, dim_noise: int, horizon: float
) -> np.ndarray:
    """Increments for paths lo..hi-1, identical to per-path generation."""
    return np.stack(
        [_draw_increments(seed, i, steps, dim_noise, horizon) for i in range(lo, hi)]
    )


def _run_chunks(worker: Callable, paths: int, threads: int) -> list:
    """Run ``worker`` over every chunk, returning results in chunk order."""
    ranges = _chunk_ranges(paths)
    if threads <= 1:
        return [worker(lo, hi) for lo, hi in ranges]
    results: list = [None] * len(ranges)
    with ThreadPoolExecutor(max_workers=threads) as pool:
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
    is passed on to :func:`schemes._propagate`."""
    return _propagate(problem, step_function(scheme), increments, h, observe)


def _batch_grid_moments(
    problem: SdeProblem,
    scheme: SchemeKind,
    increments: np.ndarray,
    h: float,
    powers: tuple[int, ...],
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Accumulate sums of ``||Y_n||^p`` per gridpoint over one batch.

    Returns per-power sum arrays of length steps+1 and the per-gridpoint
    count of paths still finite. Dead paths stop contributing from the
    step they blow up.
    """
    n_steps = increments.shape[1]
    sums = {p: np.zeros(n_steps + 1) for p in powers}
    counts = np.zeros(n_steps + 1, dtype=np.int64)

    def observe(n, x, alive):
        live_sq = np.sum(x * x, axis=1)[alive]
        counts[n] = live_sq.size
        for p in powers:
            sums[p][n] = np.sum(live_sq ** (p // 2))

    _batch_endpoints(problem, scheme, increments, h, observe)
    return sums, counts


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
    allow_noncommutative: bool = False,
) -> dict[SchemeKind, ConvergenceReport]:
    """Run one coupled strong-error study for several schemes at once.

    All schemes share the same reference trajectories and the same
    Brownian paths, so cross-scheme comparisons are on identical noise.
    ``reference_steps`` defaults to eight times the finest study grid.
    """
    scheme_kinds = [
        require_supported(problem, s, allow_noncommutative) for s in schemes
    ]
    if len(scheme_kinds) == 0:
        raise ValueError("need at least one scheme")
    ref_kind = require_supported(problem, reference_scheme, allow_noncommutative)
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")

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


def strong_error_study(
    problem: SdeProblem,
    scheme: "str | SchemeKind",
    stepsizes: Sequence[float],
    paths: int,
    seed: int,
    reference_steps: Optional[int] = None,
    reference_scheme: "str | SchemeKind" = SchemeKind.SEMI_TAMED_MILSTEIN,
    threads: int = 1,
    allow_noncommutative: bool = False,
) -> ConvergenceReport:
    """Strong-error study of a single scheme (see :func:`strong_error_table`)."""
    table = strong_error_table(
        problem,
        [scheme],
        stepsizes,
        paths,
        seed,
        reference_steps=reference_steps,
        reference_scheme=reference_scheme,
        threads=threads,
        allow_noncommutative=allow_noncommutative,
    )
    return next(iter(table.values()))


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
    allow_noncommutative: bool = False,
) -> MomentCurve:
    """Empirical ``E ||Y_n||^2`` on the grid of ``stepsize``.

    The first entry is exactly ``||x0||^2``. Standard errors are the
    per-gridpoint sample standard deviations of ``||Y_n||^2`` over
    surviving paths divided by sqrt(count).
    """
    kind = require_supported(problem, scheme, allow_noncommutative)
    steps = _steps_for(problem.horizon, stepsize)
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    m = problem.dim_noise

    def worker(lo: int, hi: int):
        inc = _stack_increments(seed, lo, hi, steps, m, problem.horizon)
        sums, counts = _batch_grid_moments(problem, kind, inc, stepsize, (2, 4))
        return sums[2], sums[4], counts

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
class MomentBound:
    """Worst gridpoint value of an empirical moment, with blow-up tally."""

    value: float
    order: int
    blown_up_count: int


def empirical_moment_bound(
    problem: SdeProblem,
    scheme: "str | SchemeKind",
    stepsize: float,
    paths: int,
    p: int,
    seed: int,
    threads: int = 1,
    allow_noncommutative: bool = False,
) -> MomentBound:
    """Maximum over gridpoints of the empirical ``E ||Y_n||^p``.

    Only even orders p in {2, 4, 6} are supported. Blown-up paths are
    excluded from the averages and returned as a tally.
    """
    if p not in (2, 4, 6):
        raise ValueError(f"moment order p must be one of 2, 4, 6; got {p}")
    kind = require_supported(problem, scheme, allow_noncommutative)
    steps = _steps_for(problem.horizon, stepsize)
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    m = problem.dim_noise

    def worker(lo: int, hi: int):
        inc = _stack_increments(seed, lo, hi, steps, m, problem.horizon)
        sums, counts = _batch_grid_moments(problem, kind, inc, stepsize, (p,))
        return sums[p], counts

    parts = _run_chunks(worker, paths, threads)
    sp = np.sum([p_[0] for p_ in parts], axis=0)
    counts = np.sum([p_[1] for p_ in parts], axis=0)
    observed = counts > 0
    if not np.any(observed):
        raise EvaluationError("no finite gridpoint values to bound")
    means = sp[observed] / counts[observed]
    return MomentBound(
        value=float(np.max(means)),
        order=p,
        blown_up_count=int(paths - counts[-1]),
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
    zero (e.g. a subnormal K) gives +inf, the correctly rounded bound.
    """
    two_v = 2.0 * params.v
    h1_first = _ratio_or_inf(two_v - params.v_bar, 2.0 * params.lip_K * params.v)
    h1_second = _ratio_or_inf(
        two_v, (2.0 * params.lip_K + params.v_bar) * params.v_bar
    )
    h1 = min(h1_first, h1_second)

    load = params.correction_lipschitz_load
    gap = 2.0 * params.rho - params.theta**2
    h2 = gap / load if load > 0 else math.inf
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
    points = np.atleast_2d(np.asarray(sample_points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != problem.dim_state:
        raise ValueError(
            f"sample_points must be (n, {problem.dim_state}), got {points.shape}"
        )
    if points.shape[0] == 0:
        raise ValueError("sample_points must contain at least one state")
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
    allow_noncommutative: bool = False,
) -> StabilityReport:
    """Mean-square curves for every (scheme, stepsize) pair on shared noise.

    All pairs reuse the same per-path streams (the grid resolution varies
    with the stepsize), so scheme comparisons at a fixed stepsize are on
    identical Brownian paths.
    """
    entries = []
    for scheme in schemes:
        kind = SchemeKind.from_name(scheme)
        for h in stepsizes:
            curve = mean_square_curve(
                problem,
                kind,
                float(h),
                paths,
                seed,
                threads=threads,
                allow_noncommutative=allow_noncommutative,
            )
            entries.append(
                StabilityCurveEntry(scheme=kind, stepsize=float(h), curve=curve)
            )
    if params is not None:
        return StabilityReport(
            entries=entries, params=params, threshold=stability_threshold(params)
        )
    return StabilityReport(entries=entries)
