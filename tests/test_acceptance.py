"""Acceptance gate: nine end-to-end checks at experiment scale.

Each test prints exactly one ``criterion N: PASS/FAIL`` line and asserts
the same condition, so a red criterion is visible in both the pytest
report and the captured output. Run with

    pytest tests/test_acceptance.py -v -s

to watch the lines land as the studies finish. The heavyweight Monte
Carlo study behind criteria 1, 2 and 9 runs once per module and is
shared; everything here finishes in about a minute on a workstation.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from conftest import SEED, make_diagonal_2d, make_gbm, make_swapped_2d
from tamedsde import (
    SchemeKind,
    SdeProblem,
    StabilityParams,
    builtin_problem,
    check_commutativity,
    coarsen,
    decay_rate,
    fit_power_law,
    generate_paths,
    mean_square_curve,
    stability_threshold,
    step_function,
    strong_error_table,
    tame,
)
from tamedsde.analysis import _batch_endpoints, _stack_increments
from tamedsde.cli import main
from tamedsde.paths import _coarsen_increments

THREADS = 8


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_study():
    # shared by criteria 1, 2 and 9: both semi-tamed schemes against one
    # fine proxy reference, full experiment width
    problem = builtin_problem("ginzburg-landau-unstable")
    stepsizes = [2.0**-k for k in range(6, 12)]
    return strong_error_table(
        problem,
        [SchemeKind.SEMI_TAMED_MILSTEIN, SchemeKind.SEMI_TAMED_EULER],
        stepsizes,
        paths=5000,
        seed=SEED,
        reference_steps=2**14,
        threads=THREADS,
    )


def test_criterion_1_milstein_strong_order(full_study):
    report = full_study[SchemeKind.SEMI_TAMED_MILSTEIN]
    r_full = report.fit_order

    started = time.perf_counter()
    smoke = strong_error_table(
        builtin_problem("ginzburg-landau-unstable"),
        [SchemeKind.SEMI_TAMED_MILSTEIN],
        [2.0**-k for k in range(5, 10)],
        paths=500,
        seed=SEED,
        threads=THREADS,
    )
    elapsed = time.perf_counter() - started
    r_smoke = smoke[SchemeKind.SEMI_TAMED_MILSTEIN].fit_order

    ok = 0.85 <= r_full <= 1.15 and 0.8 <= r_smoke <= 1.2 and elapsed < 30.0
    _verdict(
        1,
        ok,
        f"semi-tamed Milstein order r={r_full:.4f} in [0.85, 1.15]; "
        f"smoke r={r_smoke:.4f} in [0.8, 1.2] ({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_semi_tamed_euler_order(full_study):
    r = full_study[SchemeKind.SEMI_TAMED_EULER].fit_order
    _verdict(
        2, 0.35 <= r <= 0.65, f"semi-tamed Euler order r={r:.4f} in [0.35, 0.65]"
    )


def test_criterion_3_exact_order_oracle():
    # geometric Brownian motion: varphi == 0 makes the semi-tamed step
    # coincide with the classical Milstein step bit-for-bit, and the
    # closed-form solution replaces the proxy reference
    a, b = 1.5, 1.0
    problem = make_gbm(a, b)
    paths, fine = 2000, 2**9
    stepsizes = [2.0**-k for k in range(4, 10)]

    increments = np.stack(
        [
            generate_paths(
                seed=314159, path_index=k, steps_fine=fine, dim_noise=1, horizon=1.0
            ).increments
            for k in range(paths)
        ]
    )
    w_terminal = increments.sum(axis=(1, 2))
    exact = float(problem.initial_value[0]) * np.exp(
        (a - 0.5 * b * b) * 1.0 + b * w_terminal
    )

    step = step_function(SchemeKind.SEMI_TAMED_MILSTEIN)
    bitwise = True
    rms = []
    for h in stepsizes:
        steps = int(round(1.0 / h))
        coarse = increments.reshape(paths, steps, fine // steps, 1).sum(axis=2)
        states = np.tile(problem.initial_value, (paths, 1))
        for n in range(steps):
            dw = coarse[:, n, :]
            proposed = step(problem, states, dw, h)
            classical = (
                states
                + (a * states) * h
                + (b * states) * dw
                + 0.5 * (b * b * states) * (dw * dw - h)
            )
            bitwise = bitwise and np.array_equal(proposed, classical)
            states = proposed
        rms.append(float(np.sqrt(np.mean((states[:, 0] - exact) ** 2))))

    fit = fit_power_law(stepsizes, rms)
    ok = bitwise and 0.9 <= fit.order <= 1.1
    _verdict(
        3,
        ok,
        f"classical-Milstein step equality bitwise={bitwise}; "
        f"closed-form order r={fit.order:.4f} in [0.9, 1.1]",
    )


def test_pairwise_milstein_term_exact_order():
    # two-noise geometric Brownian motion dX = X dt + 0.6 X dW1 + 0.9 X dW2:
    # the j1 < j2 term of the Milstein correction carries order 1 here, and
    # the closed-form solution is the reference (without the cross term the
    # fitted order drops to about 0.6)
    sigma = (0.6, 0.9)
    problem = SdeProblem(
        dim_state=1,
        dim_noise=2,
        phi=lambda x: x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=lambda x, j: sigma[j] * x,
        diffusion_derivative_product=lambda x, j1, j2: sigma[j1] * sigma[j2] * x,
        initial_value=np.array([1.0]),
        horizon=1.0,
        commutative=True,
    )
    paths, fine = 2000, 2**8
    stepsizes = [2.0**-k for k in range(3, 9)]
    increments = _stack_increments(SEED, 0, paths, fine, 2, 1.0)
    w_terminal = increments.sum(axis=1)
    drift = 1.0 - 0.5 * (sigma[0] ** 2 + sigma[1] ** 2)
    exact = np.exp(drift + sigma[0] * w_terminal[:, 0] + sigma[1] * w_terminal[:, 1])
    rms = []
    for h in stepsizes:
        coarse = _coarsen_increments(increments, int(round(h * fine)))
        final, blown = _batch_endpoints(problem, SchemeKind.SEMI_TAMED_MILSTEIN, coarse, h)
        assert not blown.any()
        rms.append(float(np.sqrt(np.mean((final[:, 0] - exact) ** 2))))
    order = fit_power_law(stepsizes, rms).order
    assert 0.85 <= order <= 1.15, f"pairwise Milstein order r={order:.4f}"


def _reference_params() -> StabilityParams:
    return StabilityParams(
        rho=2.0,
        theta=math.sqrt(2.0),
        lip_K=2.0,
        beta=2.0,
        v=1.0,
        v_bar=1.0,
        alpha=5.0,
        m=1,
    )


def test_criterion_4_stability_threshold():
    thr = stability_threshold(_reference_params())
    ok = (
        abs(thr.h1 - 0.25) <= 1e-12
        and abs(thr.h2 - 2.0 / 3.0) <= 1e-12
        and abs(thr.h_star - 0.25) <= 1e-12
    )
    _verdict(
        4,
        ok,
        f"h1={thr.h1!r} h2={thr.h2!r} h_star={thr.h_star!r} "
        f"(expected 0.25, 2/3, 0.25 within 1e-12)",
    )


def test_criterion_5_mean_square_decay():
    h = 1.0 / 16.0
    gamma = decay_rate(_reference_params(), h)
    curve = mean_square_curve(
        builtin_problem("ginzburg-landau-stable"),
        SchemeKind.SEMI_TAMED_MILSTEIN,
        h,
        paths=5000,
        seed=SEED,
        threads=THREADS,
    )
    # deterministic initial value: E||xi||^2 = 1
    envelope = np.exp(-gamma * curve.times) * (
        1.0 + 5.0 * curve.stderr / curve.values
    )
    violations = int(np.sum(curve.values > envelope))
    blown = int(curve.blown_by_time[-1])
    ok = violations == 0 and blown == 0 and abs(gamma - 1.8125) <= 1e-12
    _verdict(
        5,
        ok,
        f"gamma_h={gamma!r}; {violations} envelope violations over "
        f"{curve.times.size} gridpoints, {blown} blow-ups",
    )


def test_criterion_6_scheme_comparison_quarter_step():
    problem = builtin_problem("ginzburg-landau-stable")
    terminal = {}
    for kind in (
        SchemeKind.SEMI_TAMED_EULER,
        SchemeKind.SEMI_TAMED_MILSTEIN,
        SchemeKind.TAMED_EULER,
        SchemeKind.TAMED_MILSTEIN,
    ):
        curve = mean_square_curve(
            problem, kind, 0.25, paths=5000, seed=SEED, threads=THREADS
        )
        terminal[kind] = float(curve.values[-1])
    semi = (terminal[SchemeKind.SEMI_TAMED_EULER], terminal[SchemeKind.SEMI_TAMED_MILSTEIN])
    tamed = (terminal[SchemeKind.TAMED_EULER], terminal[SchemeKind.TAMED_MILSTEIN])
    ok = all(s < t for s in semi for t in tamed)
    _verdict(
        6,
        ok,
        f"terminal second moments at h=1/4: semi-tamed Euler={semi[0]:.3g}, "
        f"semi-tamed Milstein={semi[1]:.3g} each below tamed Euler={tamed[0]:.3g}, "
        f"tamed Milstein={tamed[1]:.3g}",
    )


def test_criterion_7_property_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)

    # taming bound, strict on both sides, over wide magnitude scales
    directions = rng.standard_normal((10_000, 3))
    scales = np.exp(rng.uniform(-6.0, 6.0, (10_000, 1)))
    hs = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), 10_000))
    taming_ok = True
    for v, h in zip(directions * scales, hs):
        norm = float(np.linalg.norm(v))
        tamed_norm = float(np.linalg.norm(tame(v, float(h))))
        taming_ok = taming_ok and tamed_norm < min(norm, 1.0 / float(h))

    # coarsening algebra on random bundles
    coarsen_ok = True
    for i in range(10):
        bundle = generate_paths(
            seed=777, path_index=i, steps_fine=64, dim_noise=2, horizon=1.5
        )
        chained = coarsen(coarsen(bundle, 2), 4).increments
        direct = coarsen(bundle, 8).increments
        coarsen_ok = coarsen_ok and float(np.max(np.abs(chained - direct))) <= 1e-12
        telescoped = coarsen(bundle, 64).increments[0]
        total = bundle.increments.sum(axis=0)
        coarsen_ok = coarsen_ok and float(np.max(np.abs(telescoped - total))) <= 1e-12

    # least-squares fit is exact on synthetic power laws
    fit_ok = True
    grid = 2.0 ** -np.arange(2, 9, dtype=np.float64)
    for _ in range(50):
        constant = float(np.exp(rng.uniform(-3.0, 3.0)))
        order = float(rng.uniform(0.3, 2.0))
        fit = fit_power_law(grid, constant * grid**order)
        fit_ok = fit_ok and fit.residual < 1e-12 and abs(fit.order - order) < 1e-9

    # commutativity checker: diagonal noise passes, swapped columns fail
    points = rng.uniform(-2.0, 2.0, (64, 2))
    comm_ok = (
        check_commutativity(make_diagonal_2d(), points).passed
        and not check_commutativity(make_swapped_2d(), points).passed
    )

    # decay rate is strictly positive on valid parameters below threshold
    decay_ok = True
    for _ in range(300):
        rho = float(np.exp(rng.uniform(-1.5, 1.5)))
        v = float(np.exp(rng.uniform(-1.0, 1.0)))
        params = StabilityParams(
            rho=rho,
            theta=float(math.sqrt(2.0 * rho * rng.uniform(0.0, 0.9))),
            lip_K=float(rng.uniform(0.01, 3.0)),
            beta=float(rng.uniform(0.01, 3.0)),
            v=v,
            v_bar=float(2.0 * v * rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(1.1, 6.0)),
            m=int(rng.integers(1, 5)),
        )
        h_star = stability_threshold(params).h_star
        for frac in (0.02, 0.5, 0.98):
            decay_ok = decay_ok and decay_rate(params, frac * h_star) > 0.0

    elapsed = time.perf_counter() - started
    ok = taming_ok and coarsen_ok and fit_ok and comm_ok and decay_ok and elapsed < 10.0
    _verdict(
        7,
        ok,
        f"taming={taming_ok} coarsening={coarsen_ok} fit={fit_ok} "
        f"commutativity={comm_ok} decay={decay_ok} ({elapsed:.1f}s < 10s)",
    )


def test_criterion_8_thread_reproducibility(tmp_path):
    payload = {
        "kind": "converge",
        "model": "ginzburg-landau-unstable",
        "schemes": ["semi-tamed-milstein", "semi-tamed-euler"],
        "stepsizes": "2^-5..2^-8",
        "paths": 1200,
        "seed": SEED,
        "reference_steps": 2048,
    }
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(payload, indent=2) + "\n")

    codes = []
    for threads, label in ((1, "serial"), (8, "pooled")):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(
                main(
                    [
                        "converge",
                        "--config",
                        str(config),
                        "--out",
                        str(tmp_path / label),
                        "--threads",
                        str(threads),
                    ]
                )
            )
    same_csv = (tmp_path / "serial" / "convergence.csv").read_bytes() == (
        tmp_path / "pooled" / "convergence.csv"
    ).read_bytes()
    same_fit = (tmp_path / "serial" / "fit.txt").read_bytes() == (
        tmp_path / "pooled" / "fit.txt"
    ).read_bytes()
    ok = codes == [0, 0] and same_csv and same_fit
    _verdict(
        8,
        ok,
        f"1 vs 8 worker threads: convergence.csv identical={same_csv}, "
        f"fit.txt identical={same_fit}",
    )


def test_criterion_9_steps_to_precision(full_study):
    # step count to reach RMS error 1e-3, extrapolated from the fitted
    # power laws rms = C * h^r of the shared study (horizon T = 1)
    target = 1e-3

    def steps_needed(report):
        h_at_target = (target / report.fit_constant) ** (1.0 / report.fit_order)
        return 1.0 / h_at_target

    n_milstein = steps_needed(full_study[SchemeKind.SEMI_TAMED_MILSTEIN])
    n_euler = steps_needed(full_study[SchemeKind.SEMI_TAMED_EULER])
    ratio = n_euler / n_milstein
    ok = ratio >= 8.0
    _verdict(
        9,
        ok,
        f"steps for rms<=1e-3: semi-tamed Euler ~{n_euler:.0f}, semi-tamed "
        f"Milstein ~{n_milstein:.0f}, ratio {ratio:.1f}x >= 8x",
    )
