"""The exact one-step mean square of every taming scheme on the stable model.

The stable built-in is ``dX = (aX - cX^5) dt + bX dW`` with d = m = 1 and
linear diffusion, so one step of a tamed or semi-tamed scheme from a fixed
state is a polynomial of degree at most two in the normal draw (the taming
factor depends on the state only). ``E|Y_1|^2`` is then a moment of degree
four, which the three-node Gauss-Hermite rule integrates exactly, here
through ``step_function`` itself.

Near zero the quintic vanishes, and far out its tamed contribution moves the
state by at most one. So at both ends ``E|Y_1|^2 / x0^2`` is the scheme's
linear per-step factor on ``dX = aX dt + bX dW``:

    semi-tamed Euler     R_E = (1 + ah)^2 + b^2 h
    semi-tamed Milstein  R_M = (1 + ah)^2 + b^2 h + b^4 h^2 / 2
    tamed Euler          1 + b^2 h                  (far out)
    tamed Milstein       1 + b^2 h + b^4 h^2 / 2    (far out)

With a = -2 and b^2 = 2, ``R_E < 1`` exactly for h < -(2a + b^2)/a^2 = 1/2 and
``R_M < 1`` for h < -(2a + b^2)/(a^2 + b^4/2) = 1/3. The tamed schemes damp
the linear part too, so far out they grow at every h > 0.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from conftest import MODELS, make_two_noise_quintic
from tamedsde import decay_rate, step_function

A, B, _ = MODELS["ginzburg-landau-stable"]

# probabilists' Gauss-Hermite rule, weights normalised to the N(0, 1) law
NODES, WEIGHTS = hermegauss(3)
WEIGHTS = WEIGHTS / math.sqrt(2.0 * math.pi)


def one_step_factor(problem, scheme, x0, h):
    """``E|Y_1|^2 / x0^2`` for one step of ``scheme`` from ``x0``, exactly."""
    x = np.full((NODES.size, 1), x0)
    y = step_function(scheme)(problem, x, math.sqrt(h) * NODES[:, None], h)
    return float(WEIGHTS @ (y[:, 0] * y[:, 0])) / (x0 * x0)


def linear_factor(h, milstein, tamed=False):
    """The per-step mean-square factor of the scheme on the linear part."""
    drift = 1.0 if tamed else (1.0 + A * h) ** 2
    return drift + B * B * h + (B**4 * h * h / 2 if milstein else 0.0)


@pytest.mark.parametrize("x0, rel", [(1e-3, 1e-9), (1e6, 1e-5)])
@pytest.mark.parametrize("scheme", ["semi-tamed-euler", "semi-tamed-milstein"])
def test_semi_tamed_factor_is_the_linear_factor_at_both_ends(stable, scheme, x0, rel):
    milstein = scheme.endswith("milstein")
    for h in (1 / 16, 1 / 8, 1 / 4, 0.32, 0.345, 0.45, 0.55):
        assert one_step_factor(stable, scheme, x0, h) == pytest.approx(
            linear_factor(h, milstein), rel=rel
        )


@pytest.mark.parametrize(
    "scheme, below, above, threshold",
    [("semi-tamed-milstein", 0.32, 0.345, 1 / 3), ("semi-tamed-euler", 0.45, 0.55, 1 / 2)],
)
def test_semi_tamed_exact_threshold(stable, scheme, below, above, threshold):
    """The factor crosses one between ``below`` and ``above``, at both ends
    of the state range, where the closed form puts the threshold."""
    quartic = B**4 / 2 if scheme.endswith("milstein") else 0.0
    assert -(2 * A + B * B) / (A * A + quartic) == pytest.approx(threshold)
    assert below < threshold < above
    for x0 in (1e-3, 1e6):
        assert one_step_factor(stable, scheme, x0, below) < 1.0
        assert one_step_factor(stable, scheme, x0, above) > 1.0


@pytest.mark.parametrize("scheme", ["tamed-euler", "tamed-milstein"])
def test_tamed_schemes_grow_far_out_at_every_stepsize(stable, scheme):
    milstein = scheme.endswith("milstein")
    for h in (1 / 16, 1 / 8, 1 / 4):
        factor = one_step_factor(stable, scheme, 1e6, h)
        assert factor == pytest.approx(linear_factor(h, milstein, tamed=True), rel=1e-5)
        assert factor > 1.0


def test_semi_tamed_milstein_two_noise_factor_near_zero():
    """m = 2, ``dX = (aX - cX^5) dt + sum_j b_j X dW_j``: near zero the step
    is ``1 + ah + S + (S^2 - Bh)/2`` with ``S = sum_j b_j dW_j ~ N(0, Bh)``
    and ``B = b_1^2 + b_2^2``, so its factor is ``(1 + ah)^2 + Bh + B^2 h^2 / 2``.
    The cross term ``b_1 b_2 dW_1 dW_2`` is needed for that; the tensor
    rule of two three-node rules integrates the degree-four moment exactly."""
    b = (0.6, 1.2)
    big_b = b[0] ** 2 + b[1] ** 2
    problem = make_two_noise_quintic(A, b)
    nodes = np.stack(np.meshgrid(NODES, NODES, indexing="ij"), axis=-1).reshape(-1, 2)
    weights = np.outer(WEIGHTS, WEIGHTS).reshape(-1)
    x0 = 1e-3
    x = np.full((nodes.shape[0], 1), x0)
    for h in (1 / 16, 1 / 8, 1 / 4, 0.45):
        y = step_function("semi-tamed-milstein")(problem, x, math.sqrt(h) * nodes, h)
        factor = float(weights @ (y[:, 0] * y[:, 0])) / (x0 * x0)
        exact = (1 + A * h) ** 2 + big_b * h + big_b**2 * h * h / 2
        assert factor == pytest.approx(exact, rel=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the coded gamma_h exceeds the exact one-step "
    "decay rate of semi-tamed Milstein near zero",
)
@pytest.mark.parametrize("h", [1 / 16, 1 / 8, 0.2, 0.24])
def test_semi_tamed_milstein_one_step_within_the_decay_envelope(stable, stable_params, h):
    factor = one_step_factor(stable, "semi-tamed-milstein", 1e-3, h)
    assert factor <= math.exp(-decay_rate(stable_params, h) * h)
