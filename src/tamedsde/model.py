"""SDE problem descriptions with split drift and commutative-noise checks.

A problem is the Ito equation

    dX(t) = (phi(X) + varphi(X)) dt + g(X) dW(t),      X(0) = x0,

on states of dimension ``d`` driven by an ``m``-dimensional Brownian motion.
The drift is split *by the caller* into a regular part ``phi`` (globally
Lipschitz) and a one-sided Lipschitz part ``varphi`` (typically the
superlinear polynomial term); integration schemes tame only ``varphi``.
The split is never inferred from the composed drift.

``g`` is exposed column-wise: ``diffusion_column(x, j)`` returns the state
vector multiplying the j-th Brownian component. The Milstein-type schemes
additionally need the products

    (L^j1 g_j2)(x) = sum_k g[k, j1](x) * d g_j2 / d x_k (x),

i.e. the directional derivative of column j2 along column j1. Every problem
supplies these in closed form through ``diffusion_derivative_product``. The
symmetric-product form of the Milstein correction is valid only for
commutative noise (``L^j1 g_j2 == L^j2 g_j1``); :func:`check_commutativity`
tests that numerically on sample points. A problem declares nothing about
its noise: on more than one noise, the Milstein schemes run only where the
check passes on a fixed cloud of states around the initial value.

All coefficient callables must accept arrays whose *last* axis is the state
dimension and broadcast over any leading axes (the Monte Carlo drivers
evaluate whole batches of states at once). Plain elementwise numpy
expressions satisfy this automatically.

Noise columns are indexed 0-based: ``0 <= j < dim_noise``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "SdeProblem",
    "CommutativityReport",
    "drift_full",
    "levy_product_coefficient",
    "check_commutativity",
    "builtin_problem",
    "builtin_problem_names",
    "DEFAULT_TOLERANCE_CLOSED_FORM",
]

# Commutativity tolerance on the norm of ``L^j1 g_j2 - L^j2 g_j1``.
DEFAULT_TOLERANCE_CLOSED_FORM = 1e-8


class EvaluationError(RuntimeError):
    """A model coefficient produced a non-finite or malformed value."""


@dataclass(frozen=True)
class SdeProblem:
    """An SDE with explicitly split drift and column-wise diffusion.

    Parameters
    ----------
    dim_state : int
        State dimension d >= 1.
    dim_noise : int
        Number m >= 1 of independent driving Brownian components.
    phi : callable
        Regular drift part; maps (..., d) arrays to (..., d) arrays.
    varphi : callable
        One-sided Lipschitz drift part (the part schemes tame); same
        signature as ``phi``.
    diffusion_column : callable
        ``diffusion_column(x, j)`` returns the j-th diffusion column
        g_j(x) as an (..., d) array, for 0 <= j < dim_noise.
    diffusion_derivative_product : callable
        Closed form for ``(L^j1 g_j2)(x)``; signature ``(x, j1, j2)``,
        returning an (..., d) array for every ordered pair of noise indices.
    initial_value : array_like
        Deterministic initial state of length d.
    horizon : float
        Positive terminal time T.
    label : str
        Human-readable name used in reports and CSV output.
    """

    dim_state: int
    dim_noise: int
    phi: Callable[[np.ndarray], np.ndarray]
    varphi: Callable[[np.ndarray], np.ndarray]
    diffusion_column: Callable[[np.ndarray, int], np.ndarray]
    diffusion_derivative_product: Callable[[np.ndarray, int, int], np.ndarray]
    initial_value: np.ndarray
    horizon: float
    label: str = "sde-problem"

    def __post_init__(self) -> None:
        if not isinstance(self.dim_state, (int, np.integer)) or self.dim_state < 1:
            raise ValueError(f"dim_state must be a positive integer, got {self.dim_state!r}")
        if not isinstance(self.dim_noise, (int, np.integer)) or self.dim_noise < 1:
            raise ValueError(f"dim_noise must be a positive integer, got {self.dim_noise!r}")
        horizon = float(self.horizon)
        if not math.isfinite(horizon) or horizon <= 0.0:
            raise ValueError(f"horizon must be a finite positive real, got {self.horizon!r}")
        object.__setattr__(self, "horizon", horizon)

        x0 = np.asarray(self.initial_value, dtype=np.float64).reshape(-1)
        if x0.shape != (self.dim_state,):
            raise ValueError(
                f"initial_value must have length dim_state={self.dim_state}, "
                f"got shape {np.shape(self.initial_value)}"
            )
        if not np.all(np.isfinite(x0)):
            raise ValueError("initial_value must be finite")
        object.__setattr__(self, "initial_value", x0)

        # Fail fast on miswired coefficients: every callable must return a
        # length-d vector at the initial state, for every noise index.
        noise = range(self.dim_noise)
        calls = [("phi", self.phi, ()), ("varphi", self.varphi, ())]
        calls += [("diffusion_column", self.diffusion_column, (j,)) for j in noise]
        calls += [
            ("diffusion_derivative_product", self.diffusion_derivative_product, pair)
            for pair in itertools.product(noise, repeat=2)
        ]
        for name, fn, index in calls:
            out = np.asarray(fn(x0, *index), dtype=np.float64)
            if out.shape != (self.dim_state,):
                call = ", ".join(["x", *map(str, index)])
                raise ValueError(
                    f"{name}({call}) must return a length-{self.dim_state} "
                    f"vector at the initial state, got shape {out.shape}"
                )


@dataclass(frozen=True)
class CommutativityReport:
    """Result of a numerical commutativity check.

    ``passed`` is true iff ``max_violation <= tolerance``. For
    single-noise problems the violation is exactly zero by construction
    and no evaluations are performed.
    """

    max_violation: float
    sample_count: int
    passed: bool
    tolerance: float


def drift_full(problem: SdeProblem, x: np.ndarray) -> np.ndarray:
    """Evaluate the composed drift ``f(x) = phi(x) + varphi(x)``.

    Raises
    ------
    EvaluationError
        If either drift part returns a non-finite value; the message names
        the offending component.
    """
    x = np.asarray(x, dtype=np.float64)
    parts = []
    for name, fn in (("phi", problem.phi), ("varphi", problem.varphi)):
        out = np.asarray(fn(x), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise EvaluationError(
                f"{name} returned a non-finite value on problem {problem.label!r}"
            )
        parts.append(out)
    return parts[0] + parts[1]


def _check_noise_index(problem: SdeProblem, j: int, name: str) -> None:
    if not 0 <= j < problem.dim_noise:
        raise ValueError(
            f"{name} must satisfy 0 <= {name} < dim_noise={problem.dim_noise}, got {j}"
        )


def levy_product_coefficient(
    problem: SdeProblem, x: np.ndarray, j1: int, j2: int
) -> np.ndarray:
    """Evaluate the Milstein coefficient ``(L^j1 g_j2)(x)`` from the
    problem's closed form. Noise indices are 0-based."""
    _check_noise_index(problem, j1, "j1")
    _check_noise_index(problem, j2, "j2")
    with np.errstate(over="ignore", invalid="ignore"):
        out = problem.diffusion_derivative_product(np.asarray(x, dtype=np.float64), j1, j2)
        return np.asarray(out, dtype=np.float64)


def _sample_states(problem: SdeProblem, sample_points) -> np.ndarray:
    """``sample_points`` as a nonempty ``(n, d)`` float array of states."""
    points = np.atleast_2d(np.asarray(sample_points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != problem.dim_state or points.shape[0] == 0:
        raise ValueError(
            f"sample_points must be an (n, {problem.dim_state}) array of at least one "
            f"state, got shape {points.shape}"
        )
    return points


def check_commutativity(
    problem: SdeProblem, sample_points: Sequence[np.ndarray] | np.ndarray
) -> CommutativityReport:
    """Test ``L^j1 g_j2 == L^j2 g_j1`` numerically on sample states.

    The maximum Euclidean norm of the mismatch over all unordered column
    pairs and all sample points is compared against
    ``DEFAULT_TOLERANCE_CLOSED_FORM``. A non-finite mismatch counts as an
    infinite violation.
    """
    points = _sample_states(problem, sample_points)
    worst = 0.0
    for j1 in range(problem.dim_noise):
        for j2 in range(j1 + 1, problem.dim_noise):
            forward = levy_product_coefficient(problem, points, j1, j2)
            backward = levy_product_coefficient(problem, points, j2, j1)
            with np.errstate(over="ignore", invalid="ignore"):
                gap = np.sqrt(np.sum((forward - backward) ** 2, axis=-1))
            # np.max of a gap holding a NaN is NaN, which max() would drop.
            peak = float(np.max(gap))
            worst = max(worst, math.inf if math.isnan(peak) else peak)
    return CommutativityReport(
        max_violation=worst,
        sample_count=points.shape[0],
        passed=worst <= DEFAULT_TOLERANCE_CLOSED_FORM,
        tolerance=DEFAULT_TOLERANCE_CLOSED_FORM,
    )


def _default_check_points(problem: SdeProblem) -> np.ndarray:
    """The 16 states the Milstein gate checks: a deterministic cloud around
    the initial state, scaled to its size."""
    rng = np.random.default_rng(12345)
    scale = 1.0 + float(np.sqrt(np.sum(problem.initial_value**2)))
    offsets = rng.standard_normal((16, problem.dim_state))
    return problem.initial_value[None, :] + scale * offsets


_SQRT2 = float(np.sqrt(2.0))


# Coefficients of the built-in problems live at module level so that the
# problems pickle (by reference to these functions).


def _linear_growth(x):
    return 2.0 * x


def _linear_decay(x):
    return -2.0 * x


def _quintic_decay(x):
    """``-x^5`` by multiplication.

    Exactly odd, and as fast on negative states as on positive ones: numpy's
    ``x**5`` takes a slow path on each negative base.
    """
    x2 = x * x
    return -(x2 * x2 * x)


def _identity_column(x, j):
    return x


def _sqrt2_column(x, j):
    return _SQRT2 * x


def _identity_product(x, j1, j2):
    return x


def _doubled_product(x, j1, j2):
    return 2.0 * x


# name: (phi, varphi, diffusion column, its derivative product, default horizon)
_BUILTINS = {
    # dX = (2X - X^5) dt + X dW: linear growth 2X makes the zero solution
    # mean-square unstable; the quintic term is the one-sided part.
    "ginzburg-landau-unstable": (
        _linear_growth, _quintic_decay, _identity_column, _identity_product, 1.0
    ),
    # dX = (-2X - X^5) dt + sqrt(2) X dW: contractive linear part, same
    # quintic term; mean-square stable for the exact solution.
    "ginzburg-landau-stable": (
        _linear_decay, _quintic_decay, _sqrt2_column, _doubled_product, 5.0
    ),
}


def builtin_problem_names() -> list[str]:
    """Names accepted by :func:`builtin_problem`, sorted."""
    return sorted(_BUILTINS)


def builtin_problem(name: str, horizon: Optional[float] = None) -> SdeProblem:
    """Construct a built-in test problem by name.

    Parameters
    ----------
    name : str
        One of :func:`builtin_problem_names`.
    horizon : float, optional
        Override the problem's default terminal time.
    """
    try:
        phi, varphi, column, product, default_horizon = _BUILTINS[name]
    except KeyError:
        valid = ", ".join(builtin_problem_names())
        raise ValueError(f"unknown built-in problem {name!r}; valid names: {valid}") from None
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=phi,
        varphi=varphi,
        diffusion_column=column,
        diffusion_derivative_product=product,
        initial_value=np.array([1.0]),
        horizon=default_horizon if horizon is None else horizon,
        label=name,
    )
