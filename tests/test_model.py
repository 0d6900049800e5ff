"""Model construction, drift composition, derivative products, commutativity."""

from __future__ import annotations

import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedsde import (
    EvaluationError,
    SdeProblem,
    builtin_problem,
    builtin_problem_names,
    check_commutativity,
    check_dissipativity,
    drift_full,
    levy_product_coefficient,
    step_function,
)
from conftest import (
    SEED,
    make_cubic_noise,
    make_diagonal_2d,
    make_gbm,
    make_nan_gap,
    make_swapped_2d,
    make_two_noise_quintic,
)


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
    assert check_commutativity(stable, stable.initial_value).passed


def test_builtin_horizon_override():
    problem = builtin_problem("ginzburg-landau-unstable", horizon=2.0)
    assert problem.horizon == 2.0
    assert problem.label == "ginzburg-landau-unstable"


BUILTINS = ["ginzburg-landau-unstable", "ginzburg-landau-stable"]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_quintic_is_exactly_odd(name):
    """varphi(-x) == -varphi(x) bit for bit, signed zeros and infinities
    included; numpy's ``x**5`` was not, on about 4% of negative inputs."""
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((4096, 1)) * 10.0 ** rng.integers(-80, 62, size=(4096, 1))
    x = np.concatenate([x, [[0.0], [-0.0], [np.inf], [-np.inf], [1e62], [1e-300]]])
    varphi = builtin_problem(name).varphi
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(_bits(varphi(-x)), _bits(-varphi(x)))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e61, max_value=1e61, allow_nan=False))
def test_builtin_quintic_is_within_four_ulp(x):
    """-x^5 from three products carries four rounding factors, (1 + d)^2 of
    the square and one per later product, so it lies within 4 ulp of the
    exact value (a search near binade tops found 2.98 ulp)."""
    got = builtin_problem("ginzburg-landau-stable").varphi(np.array([x]))[0]
    exact = -Fraction(x) ** 5
    assert abs(Fraction(float(got)) - exact) <= 4 * Fraction(math.ulp(abs(float(exact))))


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_problems_pickle(name):
    """Built-in coefficients are module-level functions, so a problem
    pickles and steps bit for bit the same after unpickling."""
    problem = builtin_problem(name, horizon=2.0)
    copy = pickle.loads(pickle.dumps(problem))
    assert copy.label == problem.label and copy.horizon == 2.0
    assert copy.varphi is problem.varphi
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((64, 1)) * 3.0
    dw = rng.standard_normal((64, 1)) * 0.25
    for kind in ("em", "tamed-euler", "semi-tamed-euler", "tamed-milstein", "semi-tamed-milstein"):
        step = step_function(kind)
        assert np.array_equal(_bits(step(copy, x, dw, 0.0625)), _bits(step(problem, x, dw, 0.0625)))


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
        diffusion_derivative_product=lambda x, j1, j2: x,
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


def test_rejects_a_problem_without_a_derivative_product():
    kwargs = _valid_kwargs()
    del kwargs["diffusion_derivative_product"]
    with pytest.raises(TypeError, match="diffusion_derivative_product"):
        SdeProblem(**kwargs)


def test_rejects_a_derivative_product_of_the_wrong_shape():
    """Every ordered pair is evaluated at the initial state, so a product
    that is a (..., 1) column on a 2-d state only off the diagonal is
    refused too."""
    problem = make_diagonal_2d()

    def product(x, j1, j2):
        return problem.diffusion_derivative_product(x, j1, j2)[..., : 1 + (j1 == j2)]

    with pytest.raises(ValueError, match=r"diffusion_derivative_product\(x, 0, 1\)"):
        dataclasses.replace(problem, diffusion_derivative_product=product)


def test_single_noise_marks_commutative():
    """One noise commutes with itself, with nothing declared: the check
    passes with a zero violation at the one tolerance."""
    problem = SdeProblem(**_valid_kwargs())
    report = check_commutativity(problem, np.array([[0.5], [-3.0]]))
    assert (report.max_violation, report.passed, report.tolerance) == (0.0, True, 1e-8)


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


def central_levy_product(problem, x, j1, j2):
    """Reference ``(L^j1 g_j2)(x)``: a central difference of g_j2 along
    g_j1(x), with step ``1e-6 * max(1, ||x||)``. Exact for constant
    directions and second-order accurate otherwise."""
    direction = problem.diffusion_column(x, j1)
    eps = 1e-6 * np.maximum(1.0, np.linalg.norm(x, axis=-1, keepdims=True))
    upper = problem.diffusion_column(x + eps * direction, j2)
    lower = problem.diffusion_column(x - eps * direction, j2)
    return (upper - lower) / (2.0 * eps)


_PRODUCT_PROBLEMS = {
    "ginzburg-landau-unstable": lambda: builtin_problem("ginzburg-landau-unstable"),
    "ginzburg-landau-stable": lambda: builtin_problem("ginzburg-landau-stable"),
    "gbm": make_gbm,
    "diagonal-2d": make_diagonal_2d,
    "swapped-2d": make_swapped_2d,
    "cubic-noise": make_cubic_noise,
    "two-noise-quintic": make_two_noise_quintic,
}


@pytest.mark.parametrize("name", sorted(_PRODUCT_PROBLEMS))
def test_closed_form_products_match_a_central_difference(name):
    """Every closed-form ``L^j1 g_j2`` the tests ship, for every ordered
    pair, against a central difference on states in [-2, 2]^d."""
    problem = _PRODUCT_PROBLEMS[name]()
    points = np.random.default_rng(SEED).uniform(-2.0, 2.0, size=(101, problem.dim_state))
    for j1 in range(problem.dim_noise):
        for j2 in range(problem.dim_noise):
            closed = levy_product_coefficient(problem, points, j1, j2)
            reference = central_levy_product(problem, points, j1, j2)
            assert closed.shape == points.shape, (j1, j2)
            np.testing.assert_allclose(closed, reference, rtol=1e-6, atol=1e-8)


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
    assert report.tolerance == 1e-8


def test_swapped_noise_fails():
    problem = make_swapped_2d()
    report = check_commutativity(problem, np.array([[1.0, 2.0]]))
    assert not report.passed
    # L^0 g_1 = (0, x_2) vs L^1 g_0 = (x_1, 0): gap norm sqrt(1 + 4)
    assert report.max_violation == math.sqrt(5.0)


def test_non_finite_gap_fails_the_check():
    """sqrt(x) is NaN at a negative state; that NaN gap must not hide the
    gap of 2 at x = 1, and counts as an infinite violation itself."""
    problem = make_nan_gap()
    report = check_commutativity(problem, np.array([[1.0]]))
    assert (report.max_violation, report.passed) == (2.0, False)
    report = check_commutativity(problem, np.arange(-3.0, 4.0).reshape(-1, 1))
    assert (report.max_violation, report.passed) == (math.inf, False)
    assert report.sample_count == 7
    # the squared gap overflows at 1e200: a failure, and no float warning
    report = check_commutativity(problem, np.array([[1e200]]))
    assert (report.max_violation, report.passed) == (math.inf, False)


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
