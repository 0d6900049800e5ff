"""The exact multi-step mean square of a scheme, from a deterministic oracle.

For d = m = 1, an odd drift and ``g(x) = bx``, one step from ``-x`` with the
draw ``-dW`` lands on minus the step from ``x`` with ``dW``, so ``|Y_{n+1}|``
given ``|Y_n| = r`` is a Markov chain on ``r >= 0``. The oracle holds its law
as weights on a log grid of ``r`` over ``[e^-80, e^140]``, 40 points per
e-fold, plus the point ``r = 0``, where every such scheme stays. Each
(grid point, node) pair of an 80-node Gauss-Hermite rule goes once through
``step_function``, and its image is split over its two neighbouring grid
points so that both the mass and ``r^2`` stay exact. Mass above the top is
lost. The transition is the same at every step, so it is built once per
(scheme, h) and applied as one pair of ``np.bincount`` calls per step.

Monte Carlo cannot check these curves: on the stable model the mean square
sits on paths of probability about 1e-13. The oracle leaves ``em`` out: its
untamed steps send mass above the top, which this grid loses rather than
counts as blown.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from conftest import MODELS, make_gbm
from tamedsde import builtin_problem, decay_rate, step_function
from test_one_step_mean_square import one_step_factor

TAMING = ["tamed-euler", "semi-tamed-euler", "tamed-milstein", "semi-tamed-milstein"]

# r = 0, then e^-80 .. e^140 at 40 points per e-fold
GRID = np.concatenate([[0.0], np.exp(-80.0 + np.arange(220 * 40 + 1) / 40.0)])
SQUARES = GRID * GRID
# probabilists' Gauss-Hermite rule, weights normalised to the N(0, 1) law
NODES, WEIGHTS = hermegauss(80)
WEIGHTS = WEIGHTS / math.sqrt(2.0 * math.pi)


def _split(y):
    """The lower neighbour ``k`` of each ``0 <= y < GRID[-1]`` and the share
    ``theta`` of its unit mass that goes to ``k + 1``, so that the
    mass and ``r^2`` are exact."""
    k = np.searchsorted(GRID, y, side="right") - 1
    theta = (y * y - SQUARES[k]) / (SQUARES[k + 1] - SQUARES[k])
    return k, theta


def mean_square_curve(problem, scheme, h, steps):
    """``E|Y_n|^2`` for ``n = 0 .. steps`` from the problem's initial value."""
    r = GRID[1:]
    x = np.repeat(r, NODES.size)[:, None]
    dW = np.tile(math.sqrt(h) * NODES, r.size)[:, None]
    y = np.abs(step_function(scheme)(problem, x, dW, h)[:, 0])
    kept = y < GRID[-1]
    source = np.repeat(np.arange(1, GRID.size), NODES.size)[kept]
    weight = np.tile(WEIGHTS, r.size)[kept]
    lo, theta = _split(y[kept])
    # the point r = 0 keeps its mass
    source, lo = np.append(source, 0), np.append(lo, 0)
    to_lo, to_hi = np.append(weight * (1 - theta), 1.0), np.append(weight * theta, 0.0)

    k, theta = _split(np.abs(problem.initial_value))
    mass = np.zeros(GRID.size)
    mass[k], mass[k + 1] = 1 - theta, theta
    curve = [mass @ SQUARES]
    for _ in range(steps):
        moved = mass[source]
        mass = np.bincount(lo, moved * to_lo, GRID.size)
        mass += np.bincount(lo + 1, moved * to_hi, GRID.size)
        curve.append(mass @ SQUARES)
    return np.array(curve)


@pytest.mark.parametrize("a, b", [(1.5, 1.0), (-2.0, math.sqrt(2.0))])
def test_oracle_is_exact_on_gbm(a, b):
    """On ``dX = aX dt + bX dW`` a semi-tamed Milstein step multiplies the
    mean square by ``R(h) = (1 + ah)^2 + b^2 h + b^4 h^2 / 2`` exactly."""
    h, steps = 1 / 16, 80
    factor = (1 + a * h) ** 2 + b * b * h + b**4 * h * h / 2
    curve = mean_square_curve(make_gbm(a, b), "semi-tamed-milstein", h, steps)
    assert curve[-1] == pytest.approx(factor**steps, rel=5e-14)


@pytest.mark.parametrize(
    "scheme, h, values",
    [
        ("semi-tamed-milstein", 1 / 4, {20: 1.941e-2}),
        ("semi-tamed-milstein", 0.4, {12: 5.274, 50: 1.478e3}),
        ("semi-tamed-euler", 0.45, {44: 2.215e-2}),
        ("semi-tamed-euler", 0.55, {36: 107.0}),
    ],
)
def test_semi_tamed_curves_cross_the_exact_threshold(scheme, h, values):
    """On the stable model from ``x0 = 1`` the semi-tamed schemes decay below
    their exact thresholds (1/3 for Milstein, 1/2 for Euler) and grow at
    every step above them, to ``t <= 20``."""
    a, b, _ = MODELS["ginzburg-landau-stable"]
    quartic = b**4 / 2 if scheme.endswith("milstein") else 0.0
    grows = h > -(2 * a + b * b) / (a * a + quartic)
    steps = max(values)
    curve = mean_square_curve(builtin_problem("ginzburg-landau-stable"), scheme, h, steps)
    for n, value in values.items():
        assert curve[n] == pytest.approx(value, rel=1e-3)
    if grows:
        assert np.all(np.diff(curve) > 0)
    else:
        assert curve[-1] < 0.1 * curve[0]


@pytest.mark.parametrize("h", [1 / 16, 1 / 4, 0.45])
@pytest.mark.parametrize("scheme", TAMING)
def test_one_oracle_step_is_the_exact_three_node_value(scheme, h):
    """``x0 = 1`` is a grid point, the 80-node rule integrates the one-step
    moment of degree four exactly, and each image's split keeps ``r^2``, so
    the oracle's first step is the three-node value up to rounding."""
    problem = builtin_problem("ginzburg-landau-stable")
    curve = mean_square_curve(problem, scheme, h, 1)
    assert curve[0] == 1.0
    assert curve[1] == pytest.approx(one_step_factor(problem, scheme, 1.0, h), rel=1e-12)


def test_tamed_euler_grows_where_the_semi_tamed_schemes_decay():
    """At h = 1/8, below both semi-tamed thresholds, tamed Euler's mean square
    from ``x0 = 1`` grows: far out it multiplies by ``1 + b^2 h`` per step."""
    curve = mean_square_curve(builtin_problem("ginzburg-landau-stable"), "tamed-euler", 1 / 8, 40)
    assert curve[8] == pytest.approx(0.105, rel=0.01)
    assert curve[40] == pytest.approx(22.3, rel=0.01)


def test_criterion_6_ordering_holds_in_exact_arithmetic():
    """At h = 1/4 and t = 5 each semi-tamed scheme ends more than a thousand
    times below each tamed one, where criterion 6 asks only for below."""
    problem = builtin_problem("ginzburg-landau-stable")
    terminal = {scheme: mean_square_curve(problem, scheme, 1 / 4, 20)[-1] for scheme in TAMING}
    expected = {
        "semi-tamed-euler": 1.197e-4,
        "semi-tamed-milstein": 1.941e-2,
        "tamed-euler": 104.0,
        "tamed-milstein": 2869.0,
    }
    for scheme, value in expected.items():
        assert terminal[scheme] == pytest.approx(value, rel=1e-3), scheme
    for semi in ("semi-tamed-euler", "semi-tamed-milstein"):
        for tamed in ("tamed-euler", "tamed-milstein"):
            assert 1000 * terminal[semi] < terminal[tamed], (semi, tamed)


@pytest.mark.parametrize(
    "h, terminal, envelope",
    [
        (1 / 16, 4.752e-7, 1.159e-4),
        pytest.param(
            0.2, 1.982e-3, 9.119e-4,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: at h = 0.2 the exact mean square crosses "
                "the coded envelope exp(-gamma_h t) at t = 3.6",
            ),
        ),
    ],
    ids=["h1/16", "h0.2"],
)
def test_semi_tamed_milstein_curve_within_the_decay_envelope(stable, stable_params, h,
                                                              terminal, envelope):
    """Criterion 5's envelope ``exp(-gamma_h t)`` against the exact mean
    square from ``x0 = 1`` at every gridpoint to t = 5, where the two end at
    ``terminal`` and ``envelope``."""
    steps = round(5 / h)
    curve = mean_square_curve(stable, "semi-tamed-milstein", h, steps)
    bound = np.exp(-decay_rate(stable_params, h) * h * np.arange(steps + 1))
    assert curve[-1] == pytest.approx(terminal, rel=1e-3)
    assert bound[-1] == pytest.approx(envelope, rel=1e-3)
    assert np.all(curve <= bound)
