"""Error studies, moment curves, thresholds, decay rates, dissipativity."""

from __future__ import annotations

import math

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
    empirical_moment_bound,
    fit_power_law,
    mean_square_curve,
    stability_study,
    stability_threshold,
    strong_error_study,
    strong_error_table,
)
from tamedsde.analysis import CHUNK_PATHS

from conftest import SEED


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

def test_self_reference_gives_exact_zero(unstable):
    """Studying the reference scheme on the reference grid couples a path
    to itself: the gap is exactly zero and the fit is marked NaN."""
    report = strong_error_study(
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
    report = strong_error_study(
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


def test_single_scheme_wrapper_matches_table(unstable):
    hs = [2.0**-2, 2.0**-3]
    report = strong_error_study(
        unstable, "semi-tamed-euler", hs, paths=96, seed=SEED, reference_steps=64
    )
    table = strong_error_table(
        unstable, ["semi-tamed-euler"], hs, paths=96, seed=SEED, reference_steps=64
    )
    twin = table[SchemeKind.SEMI_TAMED_EULER]
    assert np.array_equal(report.rms_errors, twin.rms_errors)
    assert np.array_equal(report.stderrs, twin.stderrs)
    assert report.fit_order == twin.fit_order


def test_thread_count_does_not_change_bits(unstable):
    hs = [2.0**-2, 2.0**-3]
    kwargs = dict(paths=3 * CHUNK_PATHS - 100, seed=SEED, reference_steps=64)
    serial = strong_error_study(unstable, "semi-tamed-milstein", hs, **kwargs)
    threaded = strong_error_study(
        unstable, "semi-tamed-milstein", hs, threads=4, **kwargs
    )
    assert np.array_equal(serial.rms_errors, threaded.rms_errors)
    assert np.array_equal(serial.stderrs, threaded.stderrs)
    assert serial.fit_order == threaded.fit_order
    assert serial.fit_constant == threaded.fit_constant


def test_blown_paths_are_excluded(unstable_long):
    """Untamed Euler on the doubled horizon loses paths; the study drops
    them from the average instead of polluting it."""
    report = strong_error_study(
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
        strong_error_study(
            doomed, "em", stepsizes=[0.5], paths=4, seed=SEED, reference_steps=64
        )


def test_stepsize_must_divide_horizon(unstable):
    with pytest.raises(ValueError, match="divide"):
        strong_error_study(unstable, "em", [0.3], paths=8, seed=SEED)


def test_stepsizes_must_nest_in_reference(unstable):
    with pytest.raises(ValueError, match="nest"):
        strong_error_study(
            unstable, "em", [0.25], paths=8, seed=SEED, reference_steps=6
        )


def test_study_argument_validation(unstable):
    with pytest.raises(ValueError, match="paths"):
        strong_error_study(unstable, "em", [0.25], paths=0, seed=SEED)
    with pytest.raises(ValueError, match="stepsize"):
        strong_error_study(unstable, "em", [], paths=8, seed=SEED)
    with pytest.raises(ValueError, match="scheme"):
        strong_error_table(unstable, [], [0.25], paths=8, seed=SEED)


# ------------------------------------------------------------------
# Moment curves and bounds
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


def test_moment_bound_matches_curve_peak(stable):
    curve = mean_square_curve(stable, "semi-tamed-milstein", 0.25, paths=64, seed=SEED)
    bound = empirical_moment_bound(
        stable, "semi-tamed-milstein", 0.25, paths=64, p=2, seed=SEED
    )
    assert bound.order == 2
    assert bound.blown_up_count == 0
    assert bound.value == float(np.nanmax(curve.values))


def test_moment_bound_higher_orders(stable):
    b2 = empirical_moment_bound(stable, "semi-tamed-milstein", 0.25, 64, p=2, seed=SEED)
    b4 = empirical_moment_bound(stable, "semi-tamed-milstein", 0.25, 64, p=4, seed=SEED)
    b6 = empirical_moment_bound(stable, "semi-tamed-milstein", 0.25, 64, p=6, seed=SEED)
    # x0 = 1 makes every p-th moment start at 1; higher moments can only
    # amplify spread, so the bounds are ordered
    assert 1.0 <= b2.value <= b4.value <= b6.value


def test_moment_bound_rejects_odd_order(stable):
    with pytest.raises(ValueError, match="2, 4, 6"):
        empirical_moment_bound(stable, "em", 0.25, 8, p=3, seed=SEED)


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
