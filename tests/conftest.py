"""Shared fixtures: built-in problems, reference constants, toy models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tamedsde import SdeProblem, StabilityParams, builtin_problem

# Everything deterministic hangs off this seed.
SEED = 20260816

# (a, b, c) of each built-in model dX = (aX - cX^5) dt + bX dW
MODELS = {
    "ginzburg-landau-unstable": (2.0, 1.0, 1.0),
    "ginzburg-landau-stable": (-2.0, math.sqrt(2.0), 1.0),
}


@pytest.fixture
def unstable():
    return builtin_problem("ginzburg-landau-unstable")


@pytest.fixture
def stable():
    return builtin_problem("ginzburg-landau-stable")


@pytest.fixture
def unstable_long():
    # Same dynamics, doubled horizon: 8 steps at h = 1/4, enough for the
    # untamed quintic cascade to overflow float64 (4 steps cannot).
    return builtin_problem("ginzburg-landau-unstable", horizon=2.0)


@pytest.fixture
def stable_params():
    return StabilityParams(
        rho=2.0,
        theta=float(np.sqrt(2.0)),
        lip_K=2.0,
        beta=2.0,
        v=1.0,
        v_bar=1.0,
        alpha=5.0,
        m=1,
    )


def make_gbm(a: float = 1.5, b: float = 1.0) -> SdeProblem:
    """Linear test equation dX = a X dt + b X dW with empty one-sided part."""
    b_sq = b * b
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: a * x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=lambda x, j: b * x,
        diffusion_derivative_product=lambda x, j1, j2: b_sq * x,
        initial_value=np.array([1.0]),
        horizon=1.0,
        label="gbm",
    )


@pytest.fixture
def gbm():
    return make_gbm()


def make_diagonal_2d(sigma=(0.5, 1.5)) -> SdeProblem:
    """Two independent noises acting on their own coordinates (commutative):
    g_j = sigma_j x_j e_j, so L^j1 g_j2 = sigma_j^2 x_j e_j if j1 == j2 = j,
    and 0 otherwise."""

    def diffusion(x, j):
        out = np.zeros_like(x)
        out[..., j] = sigma[j] * x[..., j]
        return out

    def product(x, j1, j2):
        out = np.zeros_like(x)
        if j1 == j2:
            out[..., j1] = sigma[j1] ** 2 * x[..., j1]
        return out

    return SdeProblem(
        dim_state=2,
        dim_noise=2,
        phi=lambda x: -x,
        varphi=lambda x: -(x**3),
        diffusion_column=diffusion,
        diffusion_derivative_product=product,
        initial_value=np.array([1.0, 0.5]),
        horizon=1.0,
        label="diagonal-2d",
    )


def make_swapped_2d() -> SdeProblem:
    """g_0 = (x_2, 0), g_1 = (0, x_1): the classic non-commutative pair.
    L^0 g_1 = (0, x_2) and L^1 g_0 = (x_1, 0); L^j g_j = 0."""

    def diffusion(x, j):
        out = np.zeros_like(x)
        if j == 0:
            out[..., 0] = x[..., 1]
        else:
            out[..., 1] = x[..., 0]
        return out

    def product(x, j1, j2):
        out = np.zeros_like(x)
        if (j1, j2) == (0, 1):
            out[..., 1] = x[..., 1]
        elif (j1, j2) == (1, 0):
            out[..., 0] = x[..., 0]
        return out

    return SdeProblem(
        dim_state=2,
        dim_noise=2,
        phi=lambda x: -x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=diffusion,
        diffusion_derivative_product=product,
        initial_value=np.array([1.0, 2.0]),
        horizon=1.0,
        label="swapped-2d",
    )


def make_cubic_noise() -> SdeProblem:
    """dX = -X^3 dt + X^3 dW: the diffusion grows fast enough to blow paths
    up, and L g = g g' = 3 x^5."""
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: 0.0 * x,
        varphi=lambda x: -(x**3),
        diffusion_column=lambda x, j: x**3,
        diffusion_derivative_product=lambda x, j1, j2: 3.0 * x**5,
        initial_value=np.array([1.0]),
        horizon=4.0,
    )


def make_two_noise_quintic(a=2.0, b=(0.6, 0.8), c=1.0) -> SdeProblem:
    """dX = (aX - cX^5) dt + b_1 X dW_1 + b_2 X dW_2: commuting noises with
    L^j1 g_j2 = b_j1 b_j2 x."""
    return SdeProblem(
        dim_state=1,
        dim_noise=2,
        phi=lambda x: a * x,
        varphi=lambda x: -c * x**5,
        diffusion_column=lambda x, j: b[j] * x,
        diffusion_derivative_product=lambda x, j1, j2: b[j1] * b[j2] * x,
        initial_value=np.array([1.0]),
        horizon=1.0,
    )


def make_nan_gap() -> SdeProblem:
    """Two noises whose derivative products are sqrt(x) for (0, 1) and -x
    for (1, 0): the gap is x + sqrt(x), and NaN at every negative state."""
    products = {(0, 1): np.sqrt, (1, 0): np.negative}
    products[0, 0] = products[1, 1] = np.positive  # never read by its tests
    return SdeProblem(
        dim_state=1,
        dim_noise=2,
        phi=lambda x: -x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=lambda x, j: x,
        diffusion_derivative_product=lambda x, j1, j2: products[j1, j2](x),
        initial_value=np.array([1.0]),
        horizon=1.0,
        label="nan-gap",
    )


@pytest.fixture
def diagonal_2d():
    return make_diagonal_2d()


@pytest.fixture
def swapped_2d():
    return make_swapped_2d()
