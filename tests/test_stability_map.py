"""An exact mean-square stability map over the built-ins' family.

Both built-ins are members of ``dX = (aX - cX^5) dt + bX dW``. Near zero the
quintic vanishes, and far out a semi-tamed step moves the state by at most
one through it, so at both ends one step of semi-tamed Euler or Milstein
multiplies the mean square by its linear factor

    R_E(h) = (1 + ah)^2 + b^2 h
    R_M(h) = R_E(h) + b^4 h^2 / 2

(see ``tests/test_one_step_mean_square.py``, whose exact three-node rule this
module reuses). ``R - 1 = h (2a + b^2) + h^2 (a^2 + q)`` with ``q = 0`` or
``b^4 / 2``, so each scheme is stable exactly for ``h < -(2a + b^2)/(a^2 + q)``:
a positive threshold exactly when the SDE's zero solution is mean-square
stable, ``2a + b^2 < 0``, and none when it is not. That is the paper's claim
that the schemes' stability condition and the equation's keep uniform. The
tamed schemes damp the linear part too, so far out they grow at every h.
"""

import math

import numpy as np
import pytest

from conftest import SEED
from tamedsde import SdeProblem, StabilityParams, stability_threshold
from test_mean_square_oracle import mean_square_curve
from test_one_step_mean_square import one_step_factor

SMALL, LARGE = 1e-3, 1e12
STEPSIZES = (1 / 64, 1 / 16, 1 / 8, 1 / 4, 0.45, 1.0)


def make_quintic(a, b, c):
    """``dX = (aX - cX^5) dt + bX dW`` with ``L^1 g_1 = b^2 x``."""
    b_sq = b * b
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: a * x,
        varphi=lambda x: -c * x**5,
        diffusion_column=lambda x, j: b * x,
        diffusion_derivative_product=lambda x, j1, j2: b_sq * x,
        initial_value=np.array([1.0]),
        horizon=1.0,
    )


def _members(count):
    """Seeded ``(a, b, c)`` with ``|a|, c`` in ``[e^-2, e^2]``: every other
    member is stable (``a < 0``, ``b^2 < 1.9 |a|``), the rest are unstable
    through loud noise (``b^2 > 2.1 |a|``) or a growing drift (``a > 0``).
    ``b^2`` stays 5% off ``2 |a|``, so that a threshold near the stability
    boundary ``2a + b^2 = 0`` stays well above rounding."""
    rng = np.random.default_rng(SEED)
    members = []
    for k in range(count):
        a = -math.exp(rng.uniform(-2, 2))
        if k % 2 == 0:
            ratio = rng.uniform(0.05, 1.9)
        elif k % 4 == 1:
            ratio = rng.uniform(2.1, 4.0)
        else:
            a, ratio = -a, rng.uniform(0.05, 4.0)
        members.append((a, math.sqrt(abs(a) * ratio), math.exp(rng.uniform(-2, 2))))
    return members


# the random members, then (a, b^2, c) = (-2, 3, 1)
MEMBERS = _members(16) + [(-2.0, math.sqrt(3.0), 1.0)]
MEMBER_IDS = [f"a{a:+.3f}-b{b:.3f}-c{c:.3f}" for a, b, c in MEMBERS]


def linear_factor(a, b, h, milstein):
    b_sq = b * b
    return (1 + a * h) ** 2 + b_sq * h + (b_sq * b_sq * h * h / 2 if milstein else 0.0)


def exact_threshold(a, b, milstein):
    """``-(2a + b^2)/(a^2 + q)``: the scheme is stable exactly below it."""
    b_sq = b * b
    return -(2 * a + b_sq) / (a * a + (b_sq * b_sq / 2 if milstein else 0.0))


@pytest.mark.parametrize("a, b, c", MEMBERS, ids=MEMBER_IDS)
@pytest.mark.parametrize("scheme", ["semi-tamed-euler", "semi-tamed-milstein"])
def test_semi_tamed_factor_is_the_linear_factor_at_both_ends(scheme, a, b, c):
    problem = make_quintic(a, b, c)
    milstein = scheme.endswith("milstein")
    for x0 in (SMALL, LARGE):
        for h in STEPSIZES:
            assert one_step_factor(problem, scheme, x0, h) == pytest.approx(
                linear_factor(a, b, h, milstein), rel=1e-8
            ), (x0, h)


@pytest.mark.parametrize("a, b, c", MEMBERS, ids=MEMBER_IDS)
@pytest.mark.parametrize("scheme", ["semi-tamed-euler", "semi-tamed-milstein"])
def test_exact_threshold_is_positive_exactly_when_the_sde_is_stable(scheme, a, b, c):
    """A stable member's scheme decays just below its threshold and grows just
    above it; an unstable member's scheme grows at every stepsize."""
    problem = make_quintic(a, b, c)
    threshold = exact_threshold(a, b, scheme.endswith("milstein"))
    assert (threshold > 0) == (2 * a + b * b < 0)
    for x0 in (SMALL, LARGE):
        if threshold > 0:
            assert one_step_factor(problem, scheme, x0, 0.9 * threshold) < 1.0
            assert one_step_factor(problem, scheme, x0, 1.1 * threshold) > 1.0
        else:
            for h in STEPSIZES:
                assert one_step_factor(problem, scheme, x0, h) > 1.0, (x0, h)


@pytest.mark.parametrize("a, b, c", MEMBERS, ids=MEMBER_IDS)
@pytest.mark.parametrize("scheme", ["tamed-euler", "tamed-milstein"])
def test_tamed_schemes_grow_far_out_at_every_stepsize(scheme, a, b, c):
    """Far out the whole drift moves the state by at most one, so the factor
    is ``1 + b^2 h`` (plus ``b^4 h^2 / 2``), above one whatever ``a`` is."""
    problem = make_quintic(a, b, c)
    b_sq = b * b
    for h in STEPSIZES:
        quartic = b_sq * b_sq * h * h / 2 if scheme.endswith("milstein") else 0.0
        factor = one_step_factor(problem, scheme, LARGE, h)
        assert factor == pytest.approx(1 + b_sq * h + quartic, rel=1e-8), h
        assert factor > 1.0, h


@pytest.mark.parametrize(
    "h, values, rate",
    [(0.1, (3.789e-2, 1.780e-2, 3.926e-3), -0.151136), (0.125, (0.2075, 0.2833, 0.528), 0.062257)],
    ids=["h0.1", "h0.125"],
)
def test_whole_curves_cross_the_exact_threshold_below_the_coded_one(h, values, rate):
    """(a, b^2, c) = (-2, 3, 1) from x0 = 1: the exact semi-tamed Milstein
    threshold is 2/17, the coded h* is 0.25. The exact mean square at t = 5,
    10 and 20 decays at h = 0.1 and grows at h = 0.125, and over the last 10
    steps it changes at the linear rate ``ln R_M(h) / h``."""
    a, b, c = MEMBERS[-1]
    steps = round(20 / h)
    curve = mean_square_curve(make_quintic(a, b, c), "semi-tamed-milstein", h, steps)
    for t, value in zip((5, 10, 20), values):
        assert curve[round(t / h)] == pytest.approx(value, rel=1e-3), t
    linear_rate = math.log(linear_factor(a, b, h, milstein=True)) / h
    assert math.log(curve[-1] / curve[-11]) / (10 * h) == pytest.approx(linear_rate, rel=1e-6)
    assert linear_rate == pytest.approx(rate, abs=1e-6)


# the first two random members, both stable
@pytest.mark.parametrize("a, b, c", MEMBERS[0:4:2], ids=MEMBER_IDS[0:4:2])
def test_whole_curves_decay_below_and_grow_above_the_exact_threshold(a, b, c):
    """From x0 = 1 the exact mean square at the first gridpoint with t >= 20
    lies below its mid-run value at 0.8 times semi-tamed Milstein's exact
    threshold, and above it at 1.25 times."""
    assert 2 * a + b * b < 0
    problem = make_quintic(a, b, c)
    for factor, decays in ((0.8, True), (1.25, False)):
        h = factor * exact_threshold(a, b, milstein=True)
        steps = math.ceil(20 / h)
        curve = mean_square_curve(problem, "semi-tamed-milstein", h, steps)
        assert (curve[-1] < curve[steps // 2]) == decays, factor


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 1 and 17: the coded h* = 0.25 exceeds semi-tamed "
    "Milstein's exact threshold 2/17 at (a, b^2, c) = (-2, 3, 1)",
)
def test_coded_threshold_is_within_the_exact_semi_tamed_milstein_threshold():
    """The family's own constants: rho = -a, theta = |b|, K = |a|, beta = b^2,
    v = v_bar = c, alpha = 5 and m = 1."""
    a, b_sq, c = -2.0, 3.0, 1.0
    params = StabilityParams(
        rho=-a, theta=math.sqrt(b_sq), lip_K=abs(a), beta=b_sq,
        v=c, v_bar=c, alpha=5.0, m=1,
    )
    exact = -(2 * a + b_sq) / (a * a + b_sq * b_sq / 2)
    assert exact == pytest.approx(2 / 17)
    assert stability_threshold(params).h_star <= exact
