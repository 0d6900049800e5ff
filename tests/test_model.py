"""Model construction, drift composition, derivative products, commutativity."""

from __future__ import annotations

import numpy as np
import pytest

from tamedsde import (
    EvaluationError,
    SdeProblem,
    builtin_problem,
    builtin_problem_names,
    check_commutativity,
    check_dissipativity,
    drift_full,
    levy_product_coefficient,
)
from tamedsde.model import FD_RELATIVE_STEP, _fd_levy_product

from conftest import make_diagonal_2d, make_swapped_2d


# ------------------------------------------------------------------
# Built-in registry
# ------------------------------------------------------------------

def test_builtin_names_sorted():
    names = builtin_problem_names()
    assert names == sorted(names)
    assert "ginzburg-landau-unstable" in names
    assert "ginzburg-landau-stable" in names


def test_unknown_builtin_lists_valid_names():
    with pytest.raises(ValueError) as err:
        builtin_problem("no-such-model")
    message = str(err.value)
    for name in builtin_problem_names():
        assert name in message


def test_builtin_defaults():
    unstable = builtin_problem("ginzburg-landau-unstable")
    assert unstable.dim_state == 1
    assert unstable.dim_noise == 1
    assert unstable.horizon == 1.0
    assert unstable.initial_value == pytest.approx([1.0])
    stable = builtin_problem("ginzburg-landau-stable")
    assert stable.horizon == 5.0
    assert stable.commutative is True


def test_builtin_horizon_override():
    problem = builtin_problem("ginzburg-landau-unstable", horizon=2.0)
    assert problem.horizon == 2.0
    assert problem.label == "ginzburg-landau-unstable"


# ------------------------------------------------------------------
# Construction validation
# ------------------------------------------------------------------

def _valid_kwargs():
    return dict(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: -x,
        varphi=lambda x: -(x**3),
        diffusion_column=lambda x, j: x,
        initial_value=np.array([1.0]),
        horizon=1.0,
    )


def test_rejects_bad_dimensions():
    with pytest.raises(ValueError, match="dim_state"):
        SdeProblem(**{**_valid_kwargs(), "dim_state": 0})
    with pytest.raises(ValueError, match="dim_noise"):
        SdeProblem(**{**_valid_kwargs(), "dim_noise": -1})


def test_rejects_bad_horizon():
    with pytest.raises(ValueError, match="horizon"):
        SdeProblem(**{**_valid_kwargs(), "horizon": 0.0})
    with pytest.raises(ValueError, match="horizon"):
        SdeProblem(**{**_valid_kwargs(), "horizon": float("inf")})


def test_rejects_initial_value_mismatch():
    with pytest.raises(ValueError, match="initial_value"):
        SdeProblem(**{**_valid_kwargs(), "initial_value": np.array([1.0, 2.0])})
    with pytest.raises(ValueError, match="finite"):
        SdeProblem(**{**_valid_kwargs(), "initial_value": np.array([np.nan])})


def test_rejects_miswired_coefficients():
    # phi returning the wrong shape is caught at construction.
    with pytest.raises(ValueError, match="phi"):
        SdeProblem(**{**_valid_kwargs(), "phi": lambda x: np.zeros(3)})
    with pytest.raises(ValueError, match="diffusion_column"):
        SdeProblem(**{**_valid_kwargs(), "diffusion_column": lambda x, j: np.zeros(2)})


def test_single_noise_marks_commutative():
    problem = SdeProblem(**_valid_kwargs())
    assert problem.commutative is True


# ------------------------------------------------------------------
# drift_full
# ------------------------------------------------------------------

def test_drift_full_hand_values(unstable, stable):
    assert drift_full(unstable, np.array([1.0])) == pytest.approx([1.0])
    assert drift_full(stable, np.array([2.0])) == pytest.approx([-36.0])


def test_drift_full_broadcasts(unstable):
    xs = np.array([[0.0], [1.0], [-1.0]])
    out = drift_full(unstable, xs)
    assert out.shape == (3, 1)
    assert out[:, 0] == pytest.approx([0.0, 1.0, -1.0])


def test_drift_full_names_offending_component():
    problem = SdeProblem(
        **{**_valid_kwargs(), "varphi": lambda x: np.where(np.abs(x) > 2, np.inf, -x)}
    )
    with pytest.raises(EvaluationError, match="varphi"):
        drift_full(problem, np.array([3.0]))


# ------------------------------------------------------------------
# Diffusion derivative products
# ------------------------------------------------------------------

def test_levy_product_hand_values(unstable, stable):
    assert levy_product_coefficient(unstable, np.array([1.0]), 0, 0) == pytest.approx([1.0])
    assert levy_product_coefficient(stable, np.array([1.0]), 0, 0) == pytest.approx([2.0])


def test_levy_product_index_validation(unstable):
    with pytest.raises(ValueError, match="j1"):
        levy_product_coefficient(unstable, np.array([1.0]), 1, 0)
    with pytest.raises(ValueError, match="j2"):
        levy_product_coefficient(unstable, np.array([1.0]), 0, -1)


@pytest.mark.parametrize("name", ["ginzburg-landau-unstable", "ginzburg-landau-stable"])
def test_finite_difference_matches_closed_form(name):
    """FD fallback vs closed form on the built-ins: 1e-4 relative on [-2, 2]."""
    problem = builtin_problem(name)
    grid = np.linspace(-2.0, 2.0, 101).reshape(-1, 1)
    closed = levy_product_coefficient(problem, grid, 0, 0)
    fd = _fd_levy_product(problem, grid, 0, 0)
    scale = np.maximum(np.abs(closed), 1e-12)
    assert np.max(np.abs(fd - closed) / scale) < 1e-4
    # tighter structural bound: linear diffusion makes the central
    # difference exact up to rounding at the FD scale
    lipschitz = 2.0  # both built-in derivative products are at most 2-Lipschitz
    norms = np.abs(grid[:, 0])
    bound = 10.0 * FD_RELATIVE_STEP * (1.0 + norms) * lipschitz
    assert np.all(np.abs(fd - closed)[:, 0] <= bound)


def test_finite_difference_on_nonlinear_diffusion():
    # g = x^2 has L g = 2 x^3; the probe direction now varies with x.
    problem = SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: -x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=lambda x, j: x**2,
        initial_value=np.array([1.0]),
        horizon=1.0,
    )
    grid = np.linspace(-2.0, 2.0, 101).reshape(-1, 1)
    fd = levy_product_coefficient(problem, grid, 0, 0)
    exact = 2.0 * grid**3
    scale = np.maximum(np.abs(exact), 1e-8)
    assert np.max(np.abs(fd - exact) / scale) < 1e-4


def test_finite_difference_reports_nonfinite_probes():
    def exploding(x, j):
        return np.where(np.abs(x) > 5.0, np.inf, x)

    problem = SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: -x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=exploding,
        initial_value=np.array([1.0]),
        horizon=1.0,
    )
    with pytest.raises(EvaluationError, match="non-finite"):
        levy_product_coefficient(problem, np.array([10.0]), 0, 0)


# ------------------------------------------------------------------
# Commutativity checks
# ------------------------------------------------------------------

def test_single_noise_commutes_exactly(unstable):
    report = check_commutativity(unstable, np.linspace(-2, 2, 7).reshape(-1, 1))
    assert report.max_violation == 0.0
    assert report.passed
    assert report.sample_count == 7


def test_single_noise_check_evaluates_no_coefficient():
    """With one noise there is no column pair, so the check touches no
    derivative product and reports a zero violation."""
    calls = []

    def product(x, j1, j2):
        calls.append((j1, j2))
        return x

    problem = SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: -x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=lambda x, j: x,
        diffusion_derivative_product=product,
        initial_value=np.array([1.0]),
        horizon=1.0,
    )
    calls.clear()
    report = check_commutativity(problem, np.array([[0.5], [2.0]]))
    assert calls == []
    assert (report.max_violation, report.sample_count, report.passed) == (0.0, 2, True)


def test_diagonal_noise_commutes():
    problem = make_diagonal_2d()
    points = np.random.default_rng(3).uniform(-2, 2, size=(25, 2))
    report = check_commutativity(problem, points)
    assert report.passed
    # finite-difference default tolerance applies (no closed form given)
    assert report.tolerance == pytest.approx(1e-4)


def test_swapped_noise_fails():
    problem = make_swapped_2d()
    report = check_commutativity(problem, np.array([[1.0, 2.0]]))
    assert not report.passed
    # L^0 g_1 = (0, x_2) vs L^1 g_0 = (x_1, 0): gap norm sqrt(1 + 4)
    assert report.max_violation == pytest.approx(np.sqrt(5.0), rel=1e-3)


def test_closed_form_default_tolerance(stable):
    report = check_commutativity(stable, np.array([[1.0]]))
    assert report.tolerance == pytest.approx(1e-8)


def test_commutativity_rejects_bad_points(unstable):
    with pytest.raises(ValueError, match="sample_points"):
        check_commutativity(unstable, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="at least one"):
        check_commutativity(unstable, np.zeros((0, 1)))


@pytest.mark.parametrize("shape", [(3, 2), (0, 1), (2, 1, 1)], ids=["width", "empty", "rank"])
def test_structural_checks_share_the_sample_point_rule(unstable, shape):
    """Both structural checks refuse the same points with the same message."""
    with pytest.raises(ValueError, match="sample_points") as commutativity:
        check_commutativity(unstable, np.zeros(shape))
    with pytest.raises(ValueError, match="sample_points") as dissipativity:
        check_dissipativity(unstable, 1.0, np.zeros(shape))
    assert str(commutativity.value) == str(dissipativity.value)
