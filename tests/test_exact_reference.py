"""An exact pathwise reference for the built-in Ginzburg-Landau models.

Both built-ins are ``dX = (aX - cX^5) dt + bX dW`` with c = 1: the unstable
one has (a, b) = (2, 1) and the stable one (-2, sqrt 2). With
``Phi_t = exp((a - b^2/2) t + b W_t)``, Ito's formula gives
``d(X/Phi) = -c Phi^4 (X/Phi)^5 dt``, so

    X_T = Phi_T x0 (1 + 4 c x0^4 int_0^T Phi_s^4 ds)^(-1/4)

for either sign of x0. Only the time integral needs the grid; the trapezoid
rule on the fine Brownian increments is first order in the fine step. With
diagonal two-noise diffusion ``b_1 X dW_1 + b_2 X dW_2``, which commutes,
``Phi`` carries ``b_1 W_1 + b_2 W_2`` and ``(b_1^2 + b_2^2)/2`` instead.

These tests check the formula and compare the shipped schemes with it; the
shipped strong-error study still measures against a fine semi-tamed
Milstein reference.
"""

import math

import numpy as np
import pytest

from conftest import MODELS, SEED, make_two_noise_quintic
from tamedsde import SchemeKind, builtin_problem, fit_power_law
from tamedsde.analysis import _batch_endpoints, _stack_increments
from tamedsde.paths import _coarsen_increments


def exact_terminal(a, b, c, x0, increments, horizon):
    """``X_T`` on every path of a (paths, steps, m) increment block, for the
    diffusion ``sum_j b[j] X dW_j`` (``b`` a number when m = 1)."""
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    paths, steps, m = increments.shape
    dt = horizon / steps
    w = np.zeros((paths, steps + 1, m))
    np.cumsum(increments, axis=1, out=w[:, 1:])
    log_phi = w @ b
    log_phi += (a - 0.5 * float(b @ b)) * dt * np.arange(steps + 1)
    phi_T = np.exp(log_phi[:, -1])
    quartic = np.exp(4.0 * log_phi, out=log_phi)
    integral = dt * (quartic.sum(axis=1) - 0.5 * (quartic[:, 0] + quartic[:, -1]))
    return phi_T * x0 * (1.0 + 4.0 * c * x0**4 * integral) ** -0.25


def _increments(paths, steps, horizon, dim_noise=1):
    return _stack_increments(SEED, 0, paths, steps, dim_noise, horizon)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("x0", [1.0, -0.5])
def test_without_the_quintic_the_formula_is_geometric_brownian_motion(name, x0):
    a, b, _ = MODELS[name]
    horizon = builtin_problem(name).horizon
    inc = _increments(64, 256, horizon)
    w_T = np.cumsum(inc[:, :, 0], axis=1)[:, -1]
    gbm = x0 * np.exp((a - 0.5 * b * b) * horizon + b * w_T)
    assert np.array_equal(exact_terminal(a, b, 0.0, x0, inc, horizon), gbm)


def test_the_formula_is_odd_in_the_start():
    a, b, c = MODELS["ginzburg-landau-unstable"]
    inc = _increments(64, 256, 1.0)
    assert np.array_equal(
        exact_terminal(a, b, c, -0.7, inc, 1.0), -exact_terminal(a, b, c, 0.7, inc, 1.0)
    )


def test_the_reference_converges_at_first_order_in_the_fine_steps():
    """On one Brownian path set drawn at 2^14 steps, the RMS change of the
    reference falls by about 4 for each 4-fold refinement."""
    a, b, c = MODELS["ginzburg-landau-unstable"]
    inc = _increments(512, 2**14, 1.0)
    ends = [
        exact_terminal(a, b, c, 1.0, _coarsen_increments(inc, factor), 1.0)
        for factor in (16, 4, 1)
    ]
    coarse, mid = (
        float(np.sqrt(np.mean((lo - hi) ** 2))) for lo, hi in zip(ends, ends[1:])
    )
    order = math.log(coarse / mid) / math.log(4.0)
    assert 0.9 <= order <= 1.1, (coarse, mid)
    assert mid < 2.5e-4


def _study_rms(problem, kind, reference, inc, stepsizes):
    """RMS terminal gap of ``kind`` against ``reference`` per stepsize, each
    grid coarsened from the fine block ``inc``."""
    rms = []
    for h in stepsizes:
        factor = int(round(h * inc.shape[1] / problem.horizon))
        [final] = _batch_endpoints(problem, [kind], inc, h, factor=factor)
        gap = final[:, 0] - reference
        rms.append(math.sqrt(float(np.sum(gap * gap)) / gap.size))
    return rms


def test_smoke_study_against_the_exact_reference_keeps_first_order():
    """The smoke config's study (500 paths, h = 2^-5..2^-9, 4096 fine steps):
    semi-tamed Milstein against the exact reference fits inside criterion 1's
    smoke band [0.8, 1.2], while the committed fit against the fine Milstein
    reference reads a steeper order."""
    problem = builtin_problem("ginzburg-landau-unstable")
    a, b, c = MODELS[problem.label]
    inc = _increments(500, 4096, problem.horizon)
    stepsizes = [2.0**-k for k in range(5, 10)]
    kind = SchemeKind.SEMI_TAMED_MILSTEIN
    exact = exact_terminal(a, b, c, 1.0, inc, problem.horizon)
    [milstein] = _batch_endpoints(problem, [kind], inc, problem.horizon / 4096)
    vs_exact = fit_power_law(stepsizes, _study_rms(problem, kind, exact, inc, stepsizes))
    vs_milstein = fit_power_law(
        stepsizes, _study_rms(problem, kind, milstein[:, 0], inc, stepsizes)
    )
    assert 0.8 <= vs_exact.order <= 1.2, vs_exact.order
    assert vs_milstein.order == pytest.approx(1.132069690446065, abs=1e-12)
    assert vs_exact.order < vs_milstein.order


def test_pairwise_milstein_term_on_a_superlinear_drift():
    """Two commuting noises ``b_j X dW_j`` with the quintic drift: semi-tamed
    Milstein converges at first order to the exact two-noise solution."""
    a, b, c = 2.0, (0.6, 0.8), 1.0
    problem = make_two_noise_quintic(a, b, c)
    inc = _increments(500, 4096, 1.0, dim_noise=2)
    exact = exact_terminal(a, b, c, 1.0, inc, 1.0)
    stepsizes = [2.0**-k for k in range(5, 10)]
    rms = _study_rms(problem, SchemeKind.SEMI_TAMED_MILSTEIN, exact, inc, stepsizes)
    order = fit_power_law(stepsizes, rms).order
    assert 0.8 <= order <= 1.2, order
