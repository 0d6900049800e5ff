"""Error studies, moment curves, thresholds, decay rates, dissipativity."""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedsde import (
    EvaluationError,
    SchemeKind,
    SdeProblem,
    StabilityParams,
    check_dissipativity,
    decay_rate,
    fit_power_law,
    mean_square_curve,
    stability_study,
    stability_threshold,
    strong_error_table,
)
from tamedsde import analysis
from tamedsde.analysis import CHUNK_PATHS

from conftest import SEED, make_diagonal_2d


# ------------------------------------------------------------------
# Power-law fitting
# ------------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    hs = np.array([0.25, 0.125, 0.0625, 0.03125])
    errors = 3.7 * hs**1.5
    fit = fit_power_law(hs, errors)
    assert fit.order == pytest.approx(1.5, abs=1e-12)
    assert fit.constant == pytest.approx(3.7, rel=1e-12)
    assert fit.residual < 1e-12


def test_fit_validation():
    with pytest.raises(ValueError, match="two points"):
        fit_power_law([0.1], [0.5])
    with pytest.raises(ValueError, match="matching"):
        fit_power_law([0.1, 0.2], [0.5])
    with pytest.raises(ValueError, match="positive"):
        fit_power_law([0.1, -0.2], [0.5, 0.25])
    with pytest.raises(ValueError, match="positive"):
        fit_power_law([0.1, 0.2], [0.5, 0.0])
    with pytest.raises(ValueError, match="finite"):
        fit_power_law([0.1, np.inf], [0.5, 0.25])


def test_fit_tolerates_noise():
    rng = np.random.default_rng(SEED)
    hs = 2.0 ** -np.arange(2, 9, dtype=float)
    errors = 1.3 * hs * np.exp(rng.normal(0, 0.02, hs.size))
    fit = fit_power_law(hs, errors)
    assert fit.order == pytest.approx(1.0, abs=0.05)
    assert fit.residual < 0.2


# ------------------------------------------------------------------
# Strong-error studies
# ------------------------------------------------------------------

def _study(problem, scheme, stepsizes, **kwargs):
    """The report of a one-scheme strong-error table."""
    (report,) = strong_error_table(problem, [scheme], stepsizes, **kwargs).values()
    return report


def test_self_reference_gives_exact_zero(unstable):
    """Studying the reference scheme on the reference grid couples a path
    to itself: the gap is exactly zero and the fit is marked NaN."""
    report = _study(
        unstable,
        "semi-tamed-milstein",
        stepsizes=[1.0 / 8, 1.0 / 16],
        paths=64,
        seed=SEED,
        reference_steps=16,
        reference_scheme="semi-tamed-milstein",
    )
    assert report.stepsizes[0] == pytest.approx(0.125)
    assert report.rms_errors[1] == 0.0
    assert report.stderrs[1] == 0.0
    assert report.rms_errors[0] > 0.0
    assert math.isnan(report.fit_order)
    assert math.isnan(report.fit_constant)
    assert np.all(report.excluded_paths == 0)


def test_study_structure_and_decay(unstable):
    hs = [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5]
    report = _study(
        unstable, "semi-tamed-milstein", hs, paths=256, seed=SEED
    )
    assert report.scheme is SchemeKind.SEMI_TAMED_MILSTEIN
    assert report.reference_scheme is SchemeKind.SEMI_TAMED_MILSTEIN
    # default reference: eight times the finest study grid
    assert report.reference_steps == 8 * 32
    assert np.all(np.diff(report.stepsizes) < 0)
    assert np.all(report.rms_errors > 0)
    assert np.all(report.stderrs > 0)
    assert np.all(report.excluded_paths == 0)
    # factor-8 stepsize range dominates Monte Carlo noise
    assert report.rms_errors[-1] < report.rms_errors[0]
    assert math.isfinite(report.fit_order)
    assert report.fit_constant > 0


def test_table_shares_reference(unstable):
    hs = [2.0**-2, 2.0**-3, 2.0**-4]
    table = strong_error_table(
        unstable,
        ["semi-tamed-euler", "semi-tamed-milstein"],
        hs,
        paths=128,
        seed=SEED,
    )
    assert set(table) == {SchemeKind.SEMI_TAMED_EULER, SchemeKind.SEMI_TAMED_MILSTEIN}
    a, b = table.values()
    assert a.reference_steps == b.reference_steps == 8 * 16
    assert np.array_equal(a.stepsizes, b.stepsizes)
    assert a.paths == b.paths == 128
    for report in table.values():
        assert np.all(report.excluded_paths == 0)
        assert np.all(report.rms_errors > 0)


def test_thread_count_does_not_change_bits(unstable):
    hs = [2.0**-2, 2.0**-3]
    kwargs = dict(paths=3 * CHUNK_PATHS - 100, seed=SEED, reference_steps=64)
    serial = _study(unstable, "semi-tamed-milstein", hs, **kwargs)
    threaded = _study(
        unstable, "semi-tamed-milstein", hs, threads=4, **kwargs
    )
    assert np.array_equal(serial.rms_errors, threaded.rms_errors)
    assert np.array_equal(serial.stderrs, threaded.stderrs)
    assert serial.fit_order == threaded.fit_order
    assert serial.fit_constant == threaded.fit_constant


def test_run_chunks_order_and_worker_cap(monkeypatch):
    paths = 5 * CHUNK_PATHS - 7
    ranges = analysis._chunk_ranges(paths)
    real_cores = analysis._available_cores()

    def run(threads):
        idents = set()

        def worker(lo, hi):
            idents.add(threading.get_ident())
            time.sleep(0.002 * (paths - lo) / CHUNK_PATHS)  # early chunks finish last
            return lo, hi

        assert analysis._run_chunks(worker, paths, threads) == ranges
        return idents

    for threads in (1, 2, 8):
        assert len(run(threads)) <= min(threads, len(ranges), real_cores)
    for cores in (1, 3):
        monkeypatch.setattr(analysis, "_available_cores", lambda: cores)
        for threads in (1, 2, 8):
            assert len(run(threads)) <= min(threads, len(ranges), cores)
    assert run(8) != {threading.get_ident()}  # a 3-worker pool, not the caller
    monkeypatch.setattr(analysis, "_available_cores", lambda: 1)
    assert run(8) == {threading.get_ident()}


def test_available_cores_follows_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert analysis._available_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert analysis._available_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert analysis._available_cores() == 1


def test_blown_paths_are_excluded(unstable_long):
    """Untamed Euler on the doubled horizon loses paths; the study drops
    them from the average instead of polluting it."""
    report = _study(
        unstable_long,
        "em",
        stepsizes=[1.0 / 4],
        paths=256,
        seed=SEED,
        reference_steps=32,
    )
    assert report.excluded_paths[0] > 0
    assert report.excluded_paths[0] < 256
    # surviving paths may still be astronomically wrong, so the RMS value
    # is only required to exist, not to be small
    assert report.rms_errors[0] > 0


def test_all_paths_blown_raises():
    # Deterministic cascade: zero diffusion, pure quintic, large start.
    doomed = SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: 0.0 * x,
        varphi=lambda x: -(x**5),
        diffusion_column=lambda x, j: 0.0 * x,
        diffusion_derivative_product=lambda x, j1, j2: 0.0 * x,
        initial_value=np.array([3.0]),
        horizon=4.0,
        label="doomed",
    )
    with pytest.raises(EvaluationError, match="every path blew up"):
        _study(
            doomed, "em", stepsizes=[0.5], paths=4, seed=SEED, reference_steps=64
        )


def test_stepsize_must_divide_horizon(unstable):
    with pytest.raises(ValueError, match="divide"):
        _study(unstable, "em", [0.3], paths=8, seed=SEED)


def test_stepsizes_must_nest_in_reference(unstable):
    with pytest.raises(ValueError, match="nest"):
        _study(
            unstable, "em", [0.25], paths=8, seed=SEED, reference_steps=6
        )


def test_study_argument_validation(unstable):
    with pytest.raises(ValueError, match="paths"):
        _study(unstable, "em", [0.25], paths=0, seed=SEED)
    with pytest.raises(ValueError, match="stepsize"):
        _study(unstable, "em", [], paths=8, seed=SEED)
    with pytest.raises(ValueError, match="scheme"):
        strong_error_table(unstable, [], [0.25], paths=8, seed=SEED)


# Each Monte Carlo driver on swapped_2d, with a Milstein scheme in one role.
MILSTEIN_DRIVER_CALLS = {
    "table-study-scheme": lambda p: strong_error_table(
        p, ["tamed-milstein"], [0.25], paths=4, seed=SEED, reference_scheme="em"
    ),
    "table-reference-scheme": lambda p: strong_error_table(
        p, ["em"], [0.25], paths=4, seed=SEED, reference_scheme="tamed-milstein"
    ),
    "mean-square-curve": lambda p: mean_square_curve(
        p, "semi-tamed-milstein", 0.25, paths=4, seed=SEED
    ),
    "stability-study": lambda p: stability_study(
        p, ["em", "semi-tamed-milstein"], [0.25], paths=4, seed=SEED
    ),
}


@pytest.mark.parametrize("driver", sorted(MILSTEIN_DRIVER_CALLS))
def test_drivers_refuse_milstein_on_noncommutative_noise(swapped_2d, driver):
    """The drivers take no override: the refusal names where one lives."""
    with pytest.raises(ValueError, match="commut") as err:
        MILSTEIN_DRIVER_CALLS[driver](swapped_2d)
    assert "integrate or require_supported" in str(err.value)


def _no_chunks(worker, paths, threads):
    raise AssertionError("a refused study must not integrate anything")


def test_stability_study_refuses_before_its_first_curve(swapped_2d, monkeypatch):
    """A refused scheme late in the list stops the study before any curve."""
    monkeypatch.setattr(analysis, "_run_chunks", _no_chunks)
    with pytest.raises(ValueError, match="commut"):
        stability_study(swapped_2d, ["em", "semi-tamed-milstein"], [2**-8], paths=4096, seed=1)
    with pytest.raises(ValueError, match="does not divide"):
        stability_study(swapped_2d, ["em"], [0.25, 0.3], paths=8, seed=SEED)
    with pytest.raises(ValueError, match="paths must be >= 1"):
        stability_study(swapped_2d, ["em"], [0.25], paths=0, seed=SEED)


@pytest.mark.parametrize(
    "driver",
    [
        lambda p, n: strong_error_table(p, ["em"], [0.25, 0.125], paths=n, seed=SEED),
        lambda p, n: mean_square_curve(p, "em", 0.25, paths=n, seed=SEED),
        lambda p, n: stability_study(p, ["em"], [0.25], paths=n, seed=SEED),
    ],
    ids=["strong-error-table", "mean-square-curve", "stability-study"],
)
def test_drivers_refuse_more_paths_than_stream_indices(unstable, monkeypatch, driver):
    """Path indices are one 32-bit spawn word: 2**32 paths are the most a
    driver accepts, and it refuses more before any work."""
    monkeypatch.setattr(analysis, "_run_chunks", _no_chunks)
    with pytest.raises(ValueError, match=r"paths must be <= 4294967296, got 4294967297"):
        driver(unstable, 2**32 + 1)
    with pytest.raises(AssertionError, match="must not integrate"):
        driver(unstable, 2**32)  # accepted: it reaches the chunk runner


def test_drivers_run_em_on_noncommutative_noise(swapped_2d):
    table = strong_error_table(
        swapped_2d, ["em"], [0.25, 0.125], paths=8, seed=SEED, reference_scheme="em"
    )
    assert np.all(table[SchemeKind.EULER_MARUYAMA].rms_errors > 0)
    curve = mean_square_curve(swapped_2d, "em", 0.25, paths=8, seed=SEED)
    assert curve.values[0] == 5.0  # ||(1, 2)||^2
    assert np.all(curve.counts == 8)
    report = stability_study(swapped_2d, ["em"], [0.25], paths=8, seed=SEED)
    assert np.array_equal(report.entries[0].curve.values, curve.values)


# ------------------------------------------------------------------
# Moment curves
# ------------------------------------------------------------------

def test_mean_square_curve_basics(stable):
    curve = mean_square_curve(stable, "semi-tamed-milstein", 0.25, paths=64, seed=SEED)
    assert curve.times.shape == (21,)
    assert curve.times[-1] == pytest.approx(5.0)
    assert curve.values[0] == 1.0  # exactly ||x0||^2
    assert curve.stderr[0] == 0.0
    assert np.all(curve.counts == 64)
    assert curve.blown_up_count == 0
    assert np.all(np.isfinite(curve.values))
    # contractive dynamics: the second moment ends far below its start
    assert curve.values[-1] < 0.1 * curve.values[0]


def test_mean_square_curve_counts_blowups(unstable_long):
    curve = mean_square_curve(unstable_long, "em", 0.25, paths=256, seed=SEED)
    assert curve.blown_up_count > 0
    assert np.all(np.diff(curve.counts) <= 0)
    assert np.all(np.diff(curve.blown_by_time) >= 0)
    assert curve.blown_by_time[-1] + curve.counts[-1] == 256
    # dead gridpoints (if any) are NaN, never averaged
    dead = curve.counts == 0
    assert np.all(np.isnan(curve.values[dead]))


def test_mean_square_curve_thread_determinism(stable):
    kwargs = dict(stepsize=0.25, paths=2 * CHUNK_PATHS + 7, seed=SEED)
    serial = mean_square_curve(stable, "semi-tamed-euler", **kwargs)
    threaded = mean_square_curve(stable, "semi-tamed-euler", threads=3, **kwargs)
    assert np.array_equal(serial.values, threaded.values)
    assert np.array_equal(serial.stderr, threaded.stderr)
    assert np.array_equal(serial.counts, threaded.counts)


def _reference_grid_moments(problem, kind, increments, h):
    """The moment observer's defining formula, one gridpoint at a time."""
    n_steps = increments.shape[1]
    s2, s4 = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    counts = np.zeros(n_steps + 1, dtype=np.int64)

    def observe(n, x, alive):
        live_sq = np.sum(x * x, axis=1)[alive]
        counts[n] = live_sq.size
        s2[n] = np.sum(live_sq ** 1)
        s4[n] = np.sum(live_sq ** 2)

    analysis._batch_endpoints(problem, kind, increments, h, observe)
    return s2, s4, counts


def _with_start(problem, x0, horizon=2.0):
    # building the problem probes its coefficients at x0, which may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        return dataclasses.replace(problem, initial_value=np.array(x0), horizon=horizon)


@pytest.mark.parametrize(
    "case, kind, h, survivors",
    [
        ("stable-1d", "semi-tamed-milstein", 0.25, "all"),
        ("unstable-1d", "em", 0.25, "some"),
        ("unstable-1d-huge-start", "em", 0.25, "none"),
        ("diagonal-2d", "semi-tamed-euler", 0.25, "all"),
        ("diagonal-2d-large-start", "em", 0.25, "some"),
        ("diagonal-2d-huge-start", "em", 0.25, "none"),
        ("diagonal-2d", "em", 2.0, "all"),  # one step: gridpoints 0 and 1
    ],
)
def test_grid_moments_match_the_defining_formula_bitwise(
    case, kind, h, survivors, stable, unstable_long
):
    problem = {
        "stable-1d": stable,
        "unstable-1d": unstable_long,
        "unstable-1d-huge-start": _with_start(unstable_long, [2.0**300]),
        "diagonal-2d": _with_start(make_diagonal_2d(), [1.0, 0.5]),
        "diagonal-2d-large-start": _with_start(make_diagonal_2d(), [2.5, 2.5]),
        "diagonal-2d-huge-start": _with_start(make_diagonal_2d(), [2.0**400, 1.0]),
    }[case]
    steps = int(round(problem.horizon / h))
    batch = 64
    kind = SchemeKind(kind)
    inc = analysis._stack_increments(SEED, 0, batch, steps, problem.dim_noise, problem.horizon)
    s2, s4, counts = analysis._batch_grid_moments(problem, kind, inc, h)
    r2, r4, r_counts = _reference_grid_moments(problem, kind, inc, h)
    assert np.array_equal(counts, r_counts)
    assert np.array_equal(s2.view(np.uint64), r2.view(np.uint64))
    assert np.array_equal(s4.view(np.uint64), r4.view(np.uint64))
    # gridpoint 0 sees every path at x0 (the huge starts square exactly)
    x0_sq = float(np.sum(problem.initial_value**2))
    assert counts[0] == batch and s2[0] == batch * x0_sq
    if survivors == "all":
        assert np.all(counts == batch)
    elif survivors == "some":
        assert 0 < counts[-1] < batch
    else:
        assert np.all(counts[1:] == 0) and np.all(s2[1:] == 0.0)


# ------------------------------------------------------------------
# Closed-form threshold and decay rate
# ------------------------------------------------------------------

def test_threshold_hand_values(stable_params):
    thr = stability_threshold(stable_params)
    # h1 = min(1/4, 2/5), h2 = (4 - 2) / ((1/4)*2*2 + 2) = 2/3
    assert thr.h1 == pytest.approx(0.25, abs=1e-15)
    assert thr.h2 == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert thr.h_star == pytest.approx(0.25, abs=1e-15)


def test_decay_rate_hand_values(stable_params):
    # gamma_h = (2 rho - theta^2) - load * h with load = 3
    assert decay_rate(stable_params, 1.0 / 16) == pytest.approx(1.8125, abs=1e-12)
    assert decay_rate(stable_params, 1e-8) == pytest.approx(2.0, abs=1e-6)


def test_decay_rate_domain(stable_params):
    thr = stability_threshold(stable_params)
    with pytest.raises(ValueError, match="h\\*"):
        decay_rate(stable_params, thr.h_star)
    with pytest.raises(ValueError, match="h\\*"):
        decay_rate(stable_params, 0.0)
    with pytest.raises(ValueError, match="h\\*"):
        decay_rate(stable_params, -0.1)


def test_threshold_degenerate_branches():
    # K = 0 blanks the first h1 branch; beta = 0 on top blanks h2 entirely.
    params = StabilityParams(
        rho=1.0, theta=0.0, lip_K=0.0, beta=0.0, v=1.0, v_bar=1.0, alpha=2.0, m=1
    )
    thr = stability_threshold(params)
    assert thr.h1 == pytest.approx(2.0)
    assert thr.h2 == math.inf
    assert thr.h_star == pytest.approx(2.0)
    assert decay_rate(params, 1.0) == pytest.approx(2.0)
    # A subnormal K underflows 2 K v to zero: the first branch is +inf, not
    # a ZeroDivisionError.
    tiny = StabilityParams(
        rho=1.0, theta=0.0, lip_K=5e-324, beta=0.0, v=0.25, v_bar=0.25, alpha=2.0, m=1
    )
    thr = stability_threshold(tiny)
    assert thr.h1 == pytest.approx(0.5 / 0.25**2)
    assert decay_rate(tiny, 1.0) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "v, h1", [(1e308, 2e-308), (1e307, 2.0000000000000002e-307)], ids=["1e308", "1e307"]
)
def test_threshold_near_the_float_maximum(v, h1):
    """Constants whose products overflow still give the correctly rounded
    bound: 2v / ((2K + v_bar) v_bar) in exact arithmetic, not NaN or 0."""
    params = StabilityParams(
        rho=2.0, theta=1.0, lip_K=2.0, beta=2.0, v=v, v_bar=v, alpha=5.0, m=1
    )
    exact = min(
        (2 * Fraction(v) - Fraction(v)) / (2 * 2 * Fraction(v)),
        2 * Fraction(v) / ((2 * 2 + Fraction(v)) * Fraction(v)),
    )
    thr = stability_threshold(params)
    assert thr.h1 == h1 == float(exact)
    assert thr.h2 == 1.0
    assert thr.h_star == h1


def test_decay_rate_vanishes_at_binding_h2():
    # h2 < h1 here, so the decay rate crosses zero exactly at h2.
    params = StabilityParams(
        rho=0.51, theta=1.0, lip_K=1.0, beta=0.0, v=1.0, v_bar=1.0, alpha=5.0, m=1
    )
    thr = stability_threshold(params)
    assert thr.h2 < thr.h1
    assert thr.h_star == thr.h2
    rate = decay_rate(params, thr.h2 * (1.0 - 1e-9))
    assert 0.0 <= rate < 1e-9


def test_params_validation():
    good = dict(rho=2.0, theta=1.0, lip_K=2.0, beta=2.0, v=1.0, v_bar=1.0, alpha=5.0, m=1)
    StabilityParams(**good)
    with pytest.raises(ValueError, match="rho"):
        StabilityParams(**{**good, "rho": 0.0})
    with pytest.raises(ValueError, match="nonnegative"):
        StabilityParams(**{**good, "theta": -1.0})
    with pytest.raises(ValueError, match="alpha"):
        StabilityParams(**{**good, "alpha": 1.0})
    with pytest.raises(ValueError, match="m must"):
        StabilityParams(**{**good, "m": 0})
    with pytest.raises(ValueError, match="2\\*rho"):
        StabilityParams(**{**good, "theta": 2.0})
    with pytest.raises(ValueError, match="2\\*v"):
        StabilityParams(**{**good, "v_bar": 2.5})
    with pytest.raises(ValueError, match="finite"):
        StabilityParams(**{**good, "beta": float("nan")})


@settings(max_examples=100, deadline=None)
@given(
    rho=st.floats(min_value=0.1, max_value=5.0),
    theta_frac=st.floats(min_value=0.0, max_value=0.9),
    lip_K=st.floats(min_value=0.0, max_value=5.0),
    beta=st.floats(min_value=0.0, max_value=5.0),
    v=st.floats(min_value=0.1, max_value=5.0),
    vbar_frac=st.floats(min_value=0.1, max_value=0.95),
    alpha=st.floats(min_value=1.1, max_value=6.0),
    m=st.integers(min_value=1, max_value=3),
    h_frac=st.floats(min_value=1e-6, max_value=0.999),
)
def test_decay_rate_positive_below_threshold(
    rho, theta_frac, lip_K, beta, v, vbar_frac, alpha, m, h_frac
):
    params = StabilityParams(
        rho=rho,
        theta=math.sqrt(2.0 * rho * theta_frac),
        lip_K=lip_K,
        beta=beta,
        v=v,
        v_bar=2.0 * v * vbar_frac,
        alpha=alpha,
        m=m,
    )
    thr = stability_threshold(params)
    assert thr.h_star > 0
    h = h_frac * min(thr.h_star, 1e6)
    assert decay_rate(params, h) > 0


# ------------------------------------------------------------------
# Dissipativity
# ------------------------------------------------------------------

def test_dissipativity_stable_passes(stable):
    grid = np.linspace(-3.0, 3.0, 121).reshape(-1, 1)
    report = check_dissipativity(stable, 2.0, grid)
    assert report.passed
    assert report.margin == pytest.approx(0.0, abs=1e-12)
    assert report.gamma == 2.0
    assert report.sample_count == 121


def test_dissipativity_unstable_fails(unstable):
    report = check_dissipativity(unstable, 0.1, np.array([[0.1]]))
    assert not report.passed
    # 2x(2x - x^5) + x^2 + 0.1 x^2 at x = 0.1
    assert report.margin == pytest.approx(0.050998, abs=1e-9)


def test_dissipativity_validation(stable):
    with pytest.raises(ValueError, match="gamma"):
        check_dissipativity(stable, 0.0, np.array([[1.0]]))
    with pytest.raises(ValueError, match="sample_points"):
        check_dissipativity(stable, 1.0, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least one"):
        check_dissipativity(stable, 1.0, np.zeros((0, 1)))


def test_dissipativity_explicit_tolerance(unstable):
    # a generous flat tolerance flips the frozen 0.050998 margin to a pass
    report = check_dissipativity(unstable, 0.1, np.array([[0.1]]), tolerance=0.1)
    assert report.passed
    assert report.margin == pytest.approx(0.050998, abs=1e-9)


# ------------------------------------------------------------------
# stability_study
# ------------------------------------------------------------------

def test_stability_study_structure(stable, stable_params):
    report = stability_study(
        stable,
        ["semi-tamed-euler", "semi-tamed-milstein"],
        [0.25, 0.125],
        paths=32,
        seed=SEED,
        params=stable_params,
    )
    assert len(report.entries) == 4
    kinds = [(e.scheme, e.stepsize) for e in report.entries]
    assert kinds == [
        (SchemeKind.SEMI_TAMED_EULER, 0.25),
        (SchemeKind.SEMI_TAMED_EULER, 0.125),
        (SchemeKind.SEMI_TAMED_MILSTEIN, 0.25),
        (SchemeKind.SEMI_TAMED_MILSTEIN, 0.125),
    ]
    for entry in report.entries:
        assert entry.curve.values[0] == 1.0
        assert entry.curve.paths == 32
    assert report.threshold is not None
    assert report.threshold.h_star == pytest.approx(0.25, abs=1e-15)
    assert report.params is stable_params


def test_stability_study_without_params(stable):
    report = stability_study(stable, ["em"], [0.25], paths=16, seed=SEED)
    assert report.params is None
    assert report.threshold is None
    assert len(report.entries) == 1
