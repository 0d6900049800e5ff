"""Error studies, moment curves, thresholds, decay rates, dissipativity."""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import threading
import tracemalloc
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
    builtin_problem,
    check_dissipativity,
    decay_rate,
    fit_power_law,
    mean_square_curve,
    stability_study,
    stability_threshold,
    strong_error_table,
)
from tamedsde import analysis, schemes
from tamedsde.analysis import CHUNK_PATHS
from tamedsde.paths import _coarsen_increments

from conftest import MODELS, SEED, make_diagonal_2d


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
    with pytest.raises(ValueError, match="distinct"):
        fit_power_law([0.1, 0.1], [0.5, 0.25])


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


def _drawing_threads(monkeypatch):
    """Record the thread of every ``_draw_increments`` call."""
    idents = []
    real_draw = analysis._draw_increments

    def draw(*args):
        idents.append(threading.get_ident())
        return real_draw(*args)

    monkeypatch.setattr(analysis, "_draw_increments", draw)
    return idents


@pytest.mark.parametrize("rows", [505, 2])
def test_split_draw_is_bitwise_and_capped(monkeypatch, rows):
    """However a chunk's rows are split across threads, the block is the one
    drawn on the caller's thread, and at most min(threads, rows, cores)
    threads draw it."""
    lo, steps, dim_noise = 3 * CHUNK_PATHS, 512, 2
    want = analysis._stack_increments(SEED, lo, lo + rows, steps, dim_noise, 2.0)
    idents = _drawing_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cores in (1, 3):
            monkeypatch.setattr(analysis, "_available_cores", lambda: cores)
            for threads in (1, 2, 8):
                idents.clear()
                got = analysis._stack_increments(SEED, lo, lo + rows, steps, dim_noise, 2.0,
                                                 threads)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert len(idents) == rows and threading.get_ident() in idents
                width = min(threads, rows, cores)
                assert (len(set(idents)) > 1) == (width > 1)
                assert len(set(idents)) <= width
    finally:
        sys.setswitchinterval(interval)


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


def test_overflowing_gaps_report_an_infinite_stderr():
    """Finite endpoints whose squared gap overflows give an infinite RMS and
    an infinite standard error, never NaN."""
    problem = SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=lambda x, j: 0.0 * x,
        diffusion_derivative_product=lambda x, j1, j2: 0.0 * x,
        initial_value=np.array([1e160]),
        horizon=1.0,
    )
    report = _study(problem, "semi-tamed-euler", [1.0, 0.5], paths=4, seed=SEED,
                    reference_steps=8)
    assert np.isposinf(report.rms_errors).all()
    assert np.isposinf(report.stderrs).all()
    assert not report.excluded_paths.any()


def _doomed():
    """Deterministic cascade: zero diffusion, pure quintic, large start.
    Untamed Euler overflows on every path within a few steps of h <= 1/2;
    the tamed schemes do not."""
    return SdeProblem(
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


def test_all_paths_blown_raises():
    with pytest.raises(EvaluationError, match="every path blew up"):
        _study(
            _doomed(), "em", stepsizes=[0.5], paths=4, seed=SEED, reference_steps=64
        )


def _whole_block_errors(problem, kinds, ref_kind, steps_list, reference_steps, inc):
    """One chunk's squared terminal gaps, each study grid coarsened from the
    whole fine block at once and integrated in one pass."""
    step = schemes.step_function
    h_ref = problem.horizon / reference_steps
    [ref_final] = schemes._propagate(problem, [step(ref_kind)], inc, h_ref)
    sq_err = np.empty((inc.shape[0], len(kinds), len(steps_list)))
    with np.errstate(over="ignore", invalid="ignore"):
        for ih, steps in enumerate(steps_list):
            coarse = _coarsen_increments(inc, reference_steps // steps)
            for ks, kind in enumerate(kinds):
                [final] = schemes._propagate(
                    problem, [step(kind)], coarse, problem.horizon / steps
                )
                gap = final - ref_final
                sq_err[:, ks, ih] = np.sum(gap * gap, axis=1)
    return sq_err


_TILE_CASES = {
    # name: (problem, schemes, stepsizes, reference steps)
    "two-schemes": (
        lambda: builtin_problem("ginzburg-landau-unstable"),
        ["semi-tamed-milstein", "semi-tamed-euler"],
        [1.0, 2.0**-2, 2.0**-5],
        64,
    ),
    "diagonal-2d": (
        make_diagonal_2d,
        ["tamed-milstein", "semi-tamed-milstein", "em"],
        [1.0, 2.0**-3],
        32,
    ),
    "em-excluded": (
        lambda: builtin_problem("ginzburg-landau-unstable", horizon=2.0),
        ["em", "semi-tamed-euler"],
        [2.0, 2.0**-1, 2.0**-2],
        32,
    ),
    "em-all-dead": (_doomed, ["em", "tamed-euler"], [0.5, 2.0**-3], 64),
}


@pytest.mark.parametrize("tile_bytes", [1, 3 * CHUNK_PATHS * 16, None])
@pytest.mark.parametrize("case", sorted(_TILE_CASES))
def test_tile_pass_matches_the_whole_block_loop(monkeypatch, case, tile_bytes):
    """Coarsening one tile at a time gives every chunk's squared gaps bitwise
    and takes the same steps per scheme as coarsening the whole block, also
    with tiles of one step or of a step count that divides no grid, a
    stepsize equal to the horizon, a short last chunk, two noises, and runs
    whose paths die, some or all of them, before the last tile."""
    make_problem, names, hs, reference_steps = _TILE_CASES[case]
    problem = make_problem()
    kinds = [SchemeKind(name) for name in names]
    ref_kind = SchemeKind.SEMI_TAMED_MILSTEIN
    paths = 3 * CHUNK_PATHS - 100
    steps_list = [int(round(problem.horizon / h)) for h in hs]
    calls = {"whole": {}, "tiles": {}}

    def counted(step_function, tally):
        def make(scheme):
            step, key = step_function(scheme), SchemeKind.from_name(scheme)

            def counted_step(*args):
                tally[key] = tally.get(key, 0) + 1
                return step(*args)

            return counted_step

        return make

    monkeypatch.setattr(schemes, "step_function", counted(schemes.step_function, calls["whole"]))
    ranges = analysis._chunk_ranges(paths)
    expected = [
        _whole_block_errors(
            problem, kinds, ref_kind, steps_list, reference_steps,
            analysis._stack_increments(SEED, lo, hi, reference_steps, problem.dim_noise,
                                       problem.horizon),
        )
        for lo, hi in ranges
    ]
    monkeypatch.undo()

    parts = []
    real_run_chunks = analysis._run_chunks

    def run_chunks(worker, paths, threads):
        parts.extend(real_run_chunks(worker, paths, threads))
        return parts

    monkeypatch.setattr(analysis, "_run_chunks", run_chunks)
    monkeypatch.setattr(analysis, "step_function", counted(analysis.step_function, calls["tiles"]))
    if tile_bytes is not None:
        monkeypatch.setattr(schemes, "_TILE_BYTES", tile_bytes)
    try:
        strong_error_table(problem, names, hs, paths=paths, seed=SEED,
                           reference_steps=reference_steps)
    except EvaluationError:
        assert case == "em-all-dead"  # raised after every chunk has run

    assert len(parts) == len(expected) == len(ranges)
    for got, want in zip(parts, expected):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert calls["tiles"] == calls["whole"]
    dead = [np.isnan(np.concatenate(expected)[:, ks]).any() for ks in range(len(kinds))]
    if case == "em-excluded":
        assert dead[0] and not np.isnan(np.concatenate(expected)[:, 0]).all()
    if case == "em-all-dead":
        assert np.isnan(np.concatenate(expected)[:, 0]).all() and not dead[1]
        # em runs stop stepping once every path is dead, tiles left or not
        assert calls["tiles"][SchemeKind.EULER_MARUYAMA] < len(ranges) * sum(steps_list)


def test_study_holds_no_coarse_block(unstable):
    """A chunk holds its fine block and at most a tile-sized coarse slice:
    coarsening the whole 16 MiB block for h = 2^-11 would add 8 MiB."""
    paths, reference_steps = CHUNK_PATHS, 2**12
    block = paths * reference_steps * 8
    tracemalloc.start()
    try:
        _study(unstable, "semi-tamed-euler", [2.0**-1, 2.0**-6, 2.0**-11], paths=paths,
               seed=SEED, reference_steps=reference_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block < peak < block + 4 * 2**20


@pytest.mark.parametrize("driver", ["strong-error-table", "mean-square-curve"])
def test_chunks_step_in_order_on_the_callers_thread(unstable, monkeypatch, driver):
    """At two threads a chunk's draws are split, but every step runs on the
    caller's thread and chunk k's steps all come before chunk k+1's."""
    local = threading.local()
    steps = []
    real_stack, real_step_function = analysis._stack_increments, analysis.step_function

    def stack(seed, lo, hi, *args):
        local.chunk = lo
        return real_stack(seed, lo, hi, *args)

    def step_function(scheme):
        step = real_step_function(scheme)

        def recorded(*args):
            steps.append((local.chunk, threading.get_ident()))
            return step(*args)

        return recorded

    idents = _drawing_threads(monkeypatch)
    monkeypatch.setattr(analysis, "_available_cores", lambda: 2)
    monkeypatch.setattr(analysis, "_stack_increments", stack)
    monkeypatch.setattr(analysis, "step_function", step_function)
    paths = 3 * CHUNK_PATHS - 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        if driver == "strong-error-table":
            strong_error_table(unstable, ["semi-tamed-euler", "em"], [2.0**-2, 2.0**-4],
                               paths=paths, seed=SEED, reference_steps=1024, threads=2)
        else:
            mean_square_curve(unstable, "em", 2.0**-10, paths=paths, seed=SEED, threads=2)
    finally:
        sys.setswitchinterval(interval)
    assert len(idents) == paths and len(set(idents)) == 2
    assert {ident for _, ident in steps} == {threading.get_ident()}
    chunks = [chunk for chunk, _ in steps]
    assert chunks == sorted(chunks)
    assert sorted(set(chunks)) == [lo for lo, _ in analysis._chunk_ranges(paths)]


def test_a_helper_draw_error_reaches_the_caller(unstable, monkeypatch):
    """An error in a helper thread's draw is raised by the study, and no
    step runs on a block with undrawn rows."""
    caller = threading.get_ident()
    real_draw, real_step_function = analysis._draw_increments, analysis.step_function
    steps = []

    def draw(*args):
        if threading.get_ident() != caller:
            raise MemoryError("helper draw failed")
        return real_draw(*args)

    def step_function(scheme):
        steps.append(scheme)
        return real_step_function(scheme)

    monkeypatch.setattr(analysis, "_available_cores", lambda: 2)
    monkeypatch.setattr(analysis, "_draw_increments", draw)
    monkeypatch.setattr(analysis, "step_function", step_function)
    with pytest.raises(MemoryError, match="helper draw failed"):
        strong_error_table(unstable, ["em"], [2.0**-2, 2.0**-4], paths=CHUNK_PATHS,
                           seed=SEED, reference_steps=1024, threads=2)
    assert steps == []


def test_short_streams_start_no_thread(unstable, monkeypatch):
    """An 80-normal stream is too short for a split draw to pay, so even at
    eight threads and cores the draws stay on the caller's thread."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(analysis, "_available_cores", lambda: 8)
    idents = _drawing_threads(monkeypatch)
    curve = mean_square_curve(unstable, "em", 1.0 / 80, paths=2 * CHUNK_PATHS, seed=SEED,
                              threads=8)
    assert curve.times.size == 81
    assert started == [] and set(idents) == {threading.get_ident()}


def test_two_threads_keep_one_block_live(unstable, monkeypatch):
    """Chunks run one after another, so at two threads the traced peak stays
    near one chunk's increment block instead of two."""
    paths, reference_steps = 2 * CHUNK_PATHS, 2**12
    block = CHUNK_PATHS * reference_steps * 8
    monkeypatch.setattr(analysis, "_available_cores", lambda: 2)
    tracemalloc.start()
    try:
        _study(unstable, "semi-tamed-euler", [2.0**-1, 2.0**-6], paths=paths, seed=SEED,
               reference_steps=reference_steps, threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / block < 1.5


def test_grid_moments_keep_a_bounded_buffer(stable):
    """The moment observer sums a bounded block of gridpoints at a time, so a
    long curve's traced peak stays near its increment block instead of
    adding a squared norm per path and gridpoint."""
    steps = 2**12
    block = CHUNK_PATHS * steps * 8
    tracemalloc.start()
    try:
        mean_square_curve(stable, "semi-tamed-milstein", stable.horizon / steps,
                          paths=CHUNK_PATHS, seed=SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / block < 1.25


def test_stepsize_must_divide_horizon(unstable):
    with pytest.raises(ValueError, match="divide"):
        _study(unstable, "em", [0.3], paths=8, seed=SEED)


@pytest.mark.parametrize(
    "stepsize, shown",
    [(math.nan, "nan"), (0.0, "0.0"), (-0.25, "-0.25"), (1e-320, "1e-320"), (2.0**-1074, "5e-324")],
)
def test_drivers_refuse_a_stepsize_that_is_not_positive(stable, stepsize, shown):
    """A subnormal stepsize is positive, but horizon / stepsize overflows."""
    if stepsize > 0:
        message = f"stepsize {shown} is too small"
    else:
        message = f"stepsize must be positive, got {shown}"
    with pytest.raises(ValueError, match=message):
        mean_square_curve(stable, "em", stepsize, paths=8, seed=SEED)
    with pytest.raises(ValueError, match=message):
        strong_error_table(stable, ["em"], [0.25, stepsize], paths=8, seed=SEED)
    with pytest.raises(ValueError, match=message):
        stability_study(stable, ["em"], [stepsize], paths=8, seed=SEED)


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
    """The drivers refuse, and the refusal offers no override."""
    with pytest.raises(ValueError, match="commut") as err:
        MILSTEIN_DRIVER_CALLS[driver](swapped_2d)
    assert "override" not in str(err.value)


def _no_chunks(worker, paths, threads):
    raise AssertionError("a refused study must not integrate anything")


def test_stability_study_refuses_before_its_first_curve(swapped_2d, monkeypatch):
    """A refused scheme late in the list, or an empty list, stops the study
    before any curve."""
    monkeypatch.setattr(analysis, "_run_chunks", _no_chunks)
    with pytest.raises(ValueError, match="commut"):
        stability_study(swapped_2d, ["em", "semi-tamed-milstein"], [2**-8], paths=4096, seed=1)
    with pytest.raises(ValueError, match="does not divide"):
        stability_study(swapped_2d, ["em"], [0.25, 0.3], paths=8, seed=SEED)
    with pytest.raises(ValueError, match="paths must be >= 1"):
        stability_study(swapped_2d, ["em"], [0.25], paths=0, seed=SEED)
    with pytest.raises(ValueError, match="need at least one scheme"):
        stability_study(swapped_2d, [], [0.25], paths=8, seed=SEED)
    with pytest.raises(ValueError, match="need at least one stepsize"):
        stability_study(swapped_2d, ["em"], [], paths=8, seed=SEED)


# Each Monte Carlo driver on one or two short grids, sized by keyword.
DRIVERS = pytest.mark.parametrize(
    "driver",
    [
        lambda p, **kw: strong_error_table(p, ["em"], [0.25, 0.125], seed=SEED, **kw),
        lambda p, **kw: mean_square_curve(p, "em", 0.25, seed=SEED, **kw),
        lambda p, **kw: stability_study(p, ["em"], [0.25], seed=SEED, **kw),
    ],
    ids=["strong-error-table", "mean-square-curve", "stability-study"],
)


@DRIVERS
def test_drivers_refuse_more_paths_than_stream_indices(unstable, monkeypatch, driver):
    """Path indices are one 32-bit spawn word: 2**32 paths are the most a
    driver accepts, and it refuses more before any work."""
    monkeypatch.setattr(analysis, "_run_chunks", _no_chunks)
    with pytest.raises(ValueError, match=r"paths must be <= 4294967296, got 4294967297"):
        driver(unstable, paths=2**32 + 1)
    with pytest.raises(AssertionError, match="must not integrate"):
        driver(unstable, paths=2**32)  # accepted: it reaches the chunk runner


@pytest.mark.parametrize("threads", [0, -1])
@DRIVERS
def test_drivers_refuse_fewer_than_one_thread(unstable, monkeypatch, driver, threads):
    """A thread count below one is refused before any work, also on streams
    too short for a chunk's draws to be split across threads."""
    monkeypatch.setattr(analysis, "_run_chunks", _no_chunks)
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        driver(unstable, paths=8, threads=threads)


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

    def observe(n, x):
        live_sq = np.sum(x * x, axis=1)[np.isfinite(x).all(axis=1)]
        counts[n] = live_sq.size
        s2[n] = np.sum(live_sq ** 1)
        s4[n] = np.sum(live_sq ** 2)

    analysis._batch_endpoints(problem, [kind], increments, h, observe)
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
        # the observer sums 128 gridpoints per block at batch 64
        ("stable-1d", "semi-tamed-milstein", 2.0**-7, "all"),  # five blocks and one row
        ("diagonal-2d", "semi-tamed-euler", 2.0**-7, "all"),  # two blocks and one row
        ("unstable-1d-long", "em", 0.125, "late"),  # the last path dies at gridpoint 919
    ],
)
def test_grid_moments_match_the_defining_formula_bitwise(
    case, kind, h, survivors, stable, unstable_long
):
    problem = {
        "stable-1d": stable,
        "unstable-1d": unstable_long,
        "unstable-1d-huge-start": _with_start(unstable_long, [2.0**300]),
        "unstable-1d-long": _with_start(unstable_long, [1.0], horizon=128.0),
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
    elif survivors == "late":  # paths still die after the first two blocks
        rows = analysis._MOMENT_BYTES // (8 * batch)
        assert counts[rows - 1] > counts[2 * rows] > 0 == counts[-1]
    else:
        assert np.all(counts[1:] == 0) and np.all(s2[1:] == 0.0)


# ------------------------------------------------------------------
# Closed-form threshold and decay rate
# ------------------------------------------------------------------

def test_stable_params_match_the_stable_model(stable_params, stable):
    """The fixture's constants are those of dX = (aX - cX^5) dt + bX dW."""
    a, b, c = MODELS["ginzburg-landau-stable"]
    p = stable_params
    assert (p.rho, p.theta, p.lip_K, p.v, p.v_bar) == (-a, b, abs(a), c, c)
    # the built-in's derivative-product factor (b**2 rounds to 2.0000000000000004)
    assert p.beta == stable.diffusion_derivative_product(np.array([1.0]), 0, 0)[0] == 2.0


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


_EDGE_BASE = dict(rho=2.0, theta=1.0, lip_K=2.0, beta=2.0, v=1.0, v_bar=1.0, alpha=5.0, m=1)


@pytest.mark.parametrize(
    "overrides, h1, h2, gamma",
    [
        (dict(rho=1e308), 0.25, 6.666666666666666e307, None),
        (
            dict(lip_K=1.7e308, v=1e308, v_bar=1e308),
            2.941176470588236e-309,
            1.764705882352941e-308,
            None,
        ),
        (dict(lip_K=1e-200, v=1e-200, v_bar=1e-200), 5e199, 3.0, None),
        (dict(lip_K=1e-200, v=1e-200, v_bar=1e-200, beta=0.0), 5e199, 3e200, None),
        (dict(rho=1.5e308, theta=1.4e154), 0.25, 3.4666666666666674e307, 1.0400000000000002e308),
        (dict(m=10**200), 0.25, 0.0, None),
    ],
    ids=["huge-rho", "huge-K-v", "tiny-K-v", "tiny-K-v-beta-0", "huge-theta-squared", "huge-m"],
)
def test_threshold_beyond_the_float_formulas(overrides, h1, h2, gamma):
    """Bounds whose float formula overflows, underflows or raises are the
    exact values rounded once; an exact bound below the float range is 0."""
    params = StabilityParams(**{**_EDGE_BASE, **overrides})
    thr = stability_threshold(params)
    assert (thr.h1, thr.h2, thr.h_star) == (h1, h2, min(h1, h2))
    if gamma is not None:
        assert decay_rate(params, 1.0 / 16) == gamma


def _float_formulas(p, h):
    """h2, the two h1 branches and gamma_h by the plain float formulas; NaN
    where a numerator or denominator is subnormal."""
    m2 = float(p.m) ** 2
    load = (m2 / 4.0) * (m2 + p.m) * p.beta + p.lip_K
    gap = 2.0 * p.rho - p.theta**2
    pairs = [(gap, load), (p.v - p.v_bar / 2.0, p.lip_K * p.v)]
    pairs += [(2.0 * p.v, (2.0 * p.lip_K + p.v_bar) * p.v_bar), (gap - load * h, 1.0)]
    tiny = sys.float_info.min
    return [
        math.nan if 0 < abs(n) < tiny or 0 < d < tiny else n / d if d > 0 else math.inf
        for n, d in pairs
    ]


def _exact_formulas(p, h):
    """The same four values in exact arithmetic, each rounded once."""
    rho, theta, lip_K, beta, v, v_bar, m = map(
        Fraction, (p.rho, p.theta, p.lip_K, p.beta, p.v, p.v_bar, p.m)
    )
    load = (m * m / 4) * (m * m + m) * beta + lip_K
    gap = 2 * rho - theta * theta
    pairs = [(gap, load), (v - v_bar / 2, lip_K * v)]
    pairs += [(2 * v, (2 * lip_K + v_bar) * v_bar), (gap - load * Fraction(h), 1)]
    values = []
    for n, d in pairs:
        try:
            values.append(float(n / d) if d > 0 else math.inf)
        except OverflowError:
            values.append(math.inf)
    return values


@pytest.mark.parametrize(
    "lip_K, v", [(1e-10, 3e-313), (3e-150, 7e-163)], ids=["subnormal-v", "subnormal-K-v"]
)
def test_threshold_from_subnormal_operands_is_exact(lip_K, v):
    """A subnormal numerator or denominator has lost precision, so its
    finite positive float quotient is not trusted: h1 is the exact value
    (5e9 in the first case, where the float formula gives 5060056332.67)."""
    params = StabilityParams(**{**_EDGE_BASE, "lip_K": lip_K, "v": v, "v_bar": v})
    h2, h1_first, h1_second, _ = _exact_formulas(params, 0.0)
    thr = stability_threshold(params)
    assert (thr.h1, thr.h2) == (min(h1_first, h1_second), h2)
    if lip_K == 1e-10:
        assert thr.h1 == 5e9


_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(
    rho=_LOG_UNIFORM,
    u=_UNIT,
    lip_K=_LOG_UNIFORM,
    beta=_LOG_UNIFORM,
    v=_LOG_UNIFORM,
    u_bar=_UNIT,
    m=st.integers(min_value=1, max_value=4),
    h_frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_threshold_is_the_float_formula_or_the_exact_value(
    rho, u, lip_K, beta, v, u_bar, m, h_frac
):
    """Every bound and gamma_h is the float formula's value where that is
    finite and positive from normal operands, bit for bit, and the exact
    value rounded once elsewhere; none is NaN."""
    try:
        params = StabilityParams(
            rho=rho,
            theta=math.sqrt(2.0 * rho * u),
            lip_K=lip_K,
            beta=beta,
            v=v,
            v_bar=2.0 * v * u_bar,
            alpha=5.0,
            m=m,
        )
    except ValueError:
        return
    thr = stability_threshold(params)
    h = h_frac * thr.h_star
    has_gamma = 0 < h < thr.h_star
    floats = _float_formulas(params, h if has_gamma else 0.0)
    exact = _exact_formulas(params, h if has_gamma else 0.0)
    h2, h1_first, h1_second, gamma = (
        f if 0 < f < math.inf else e for f, e in zip(floats, exact)
    )
    h1 = min(h1_first, h1_second)
    assert [x.hex() for x in (thr.h1, thr.h2, thr.h_star)] == [
        x.hex() for x in (h1, h2, min(h1, h2))
    ]
    if has_gamma:
        assert decay_rate(params, h).hex() == gamma.hex()


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
    with pytest.raises(ValueError, match="2\\*rho"):  # theta^2 beyond the float range
        StabilityParams(**{**good, "theta": 1e200})
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


# ------------------------------------------------------------------
# stability_study
# ------------------------------------------------------------------

def test_stability_study_structure(stable):
    report = stability_study(
        stable,
        ["semi-tamed-euler", "semi-tamed-milstein"],
        [0.25, 0.125],
        paths=32,
        seed=SEED,
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
