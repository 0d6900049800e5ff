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

i.e. the directional derivative of column j2 along column j1. Problems may
supply these in closed form through ``diffusion_derivative_product``;
otherwise a central finite difference is used. The symmetric-product form
of the Milstein correction is valid only for commutative noise
(``L^j1 g_j2 == L^j2 g_j1``); :func:`check_commutativity` tests that
numerically on user-supplied sample points.

All coefficient callables must accept arrays whose *last* axis is the state
dimension and broadcast over any leading axes (the Monte Carlo drivers
evaluate whole batches of states at once). Plain elementwise numpy
expressions satisfy this automatically.

Noise columns are indexed 0-based: ``0 <= j < dim_noise``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    "DEFAULT_TOLERANCE_FINITE_DIFF",
]

# Relative step for the finite-difference fallback; the actual step is
# FD_RELATIVE_STEP * max(1, ||x||) along the direction g_j1(x).
FD_RELATIVE_STEP = 1e-6

# Default commutativity tolerances: tight when derivative products come in
# closed form, looser when they go through the finite-difference fallback.
DEFAULT_TOLERANCE_CLOSED_FORM = 1e-8
DEFAULT_TOLERANCE_FINITE_DIFF = 1e-4


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
    diffusion_derivative_product : callable, optional
        Closed form for ``(L^j1 g_j2)(x)``; signature ``(x, j1, j2)``.
        When omitted, a central finite difference is used instead.
    initial_value : array_like
        Deterministic initial state of length d.
    horizon : float
        Positive terminal time T.
    label : str
        Human-readable name used in reports and CSV output.
    commutative : bool or None
        Known-structure flag. ``True`` declares the noise commutative
        (trusted by the Milstein schemes), ``False`` declares it not,
        ``None`` means unknown and triggers a numerical check at first
        Milstein use. Single-noise problems are always commutative.
    """

    dim_state: int
    dim_noise: int
    phi: Callable[[np.ndarray], np.ndarray]
    varphi: Callable[[np.ndarray], np.ndarray]
    diffusion_column: Callable[[np.ndarray, int], np.ndarray]
    initial_value: np.ndarray
    horizon: float
    label: str = "sde-problem"
    diffusion_derivative_product: Optional[
        Callable[[np.ndarray, int, int], np.ndarray]
    ] = None
    commutative: Optional[bool] = field(default=None)

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
        # length-d vector at the initial state.
        for name, fn in (("phi", self.phi), ("varphi", self.varphi)):
            out = np.asarray(fn(x0), dtype=np.float64)
            if out.shape != (self.dim_state,):
                raise ValueError(
                    f"{name} must map length-{self.dim_state} states to "
                    f"length-{self.dim_state} vectors, got shape {out.shape}"
                )
        for j in range(self.dim_noise):
            col = np.asarray(self.diffusion_column(x0, j), dtype=np.float64)
            if col.shape != (self.dim_state,):
                raise ValueError(
                    f"diffusion_column(x, {j}) must return a length-"
                    f"{self.dim_state} vector, got shape {col.shape}"
                )

        if self.dim_noise == 1 and self.commutative is None:
            # One driving noise always commutes with itself.
            object.__setattr__(self, "commutative", True)


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


def _fd_levy_product(
    problem: SdeProblem, x: np.ndarray, j1: int, j2: int
) -> np.ndarray:
    """Central finite difference for (L^j1 g_j2)(x).

    Differentiates g_j2 along the direction g_j1(x) with step
    FD_RELATIVE_STEP * max(1, ||x||); exact for constant directions and
    second-order accurate otherwise.
    """
    direction = np.asarray(problem.diffusion_column(x, j1), dtype=np.float64)
    norm_x = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    eps = FD_RELATIVE_STEP * np.maximum(1.0, norm_x)
    upper = np.asarray(problem.diffusion_column(x + eps * direction, j2), dtype=np.float64)
    lower = np.asarray(problem.diffusion_column(x - eps * direction, j2), dtype=np.float64)
    return (upper - lower) / (2.0 * eps)


def _levy_product(problem: SdeProblem, x: np.ndarray, j1: int, j2: int) -> np.ndarray:
    """``(L^j1 g_j2)(x)`` without index or finiteness checks.

    The step kernel uses this: on a path that is blowing up, a non-finite
    value flows into the state and is counted as a blow-up.
    """
    if problem.diffusion_derivative_product is not None:
        return np.asarray(
            problem.diffusion_derivative_product(x, j1, j2), dtype=np.float64
        )
    return _fd_levy_product(problem, x, j1, j2)


def levy_product_coefficient(
    problem: SdeProblem, x: np.ndarray, j1: int, j2: int
) -> np.ndarray:
    """Evaluate the Milstein coefficient ``(L^j1 g_j2)(x)``.

    Uses the problem's closed form when present, otherwise the central
    finite-difference fallback. Noise indices are 0-based.

    Raises
    ------
    EvaluationError
        If the finite-difference fallback hits a non-finite value.
    """
    _check_noise_index(problem, j1, "j1")
    _check_noise_index(problem, j2, "j2")
    with np.errstate(over="ignore", invalid="ignore"):
        value = _levy_product(problem, np.asarray(x, dtype=np.float64), j1, j2)
    if problem.diffusion_derivative_product is None and not np.all(np.isfinite(value)):
        raise EvaluationError(
            f"finite-difference evaluation of the diffusion derivative product "
            f"hit a non-finite value on problem {problem.label!r}"
        )
    return value


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
    problem: SdeProblem,
    sample_points: Sequence[np.ndarray] | np.ndarray,
    tolerance: Optional[float] = None,
) -> CommutativityReport:
    """Test ``L^j1 g_j2 == L^j2 g_j1`` numerically on sample states.

    The maximum Euclidean norm of the mismatch over all unordered column
    pairs and all sample points is compared against ``tolerance``
    (defaults: 1e-8 with a closed-form derivative product, 1e-4 with the
    finite-difference fallback).
    """
    if tolerance is None:
        tolerance = (
            DEFAULT_TOLERANCE_CLOSED_FORM
            if problem.diffusion_derivative_product is not None
            else DEFAULT_TOLERANCE_FINITE_DIFF
        )
    points = _sample_states(problem, sample_points)
    worst = 0.0
    for j1 in range(problem.dim_noise):
        for j2 in range(j1 + 1, problem.dim_noise):
            forward = levy_product_coefficient(problem, points, j1, j2)
            backward = levy_product_coefficient(problem, points, j2, j1)
            gap = np.sqrt(np.sum((forward - backward) ** 2, axis=-1))
            worst = max(worst, float(np.max(gap)))
    return CommutativityReport(
        max_violation=worst,
        sample_count=points.shape[0],
        passed=worst <= tolerance,
        tolerance=float(tolerance),
    )


_SQRT2 = float(np.sqrt(2.0))


def _make_unstable_cubic() -> SdeProblem:
    # dX = (2X - X^5) dt + X dW: linear growth 2X makes the zero solution
    # mean-square unstable; the quintic term is the one-sided part.
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: 2.0 * x,
        varphi=lambda x: -(x**5),
        diffusion_column=lambda x, j: x,
        diffusion_derivative_product=lambda x, j1, j2: x,
        initial_value=np.array([1.0]),
        horizon=1.0,
        label="ginzburg-landau-unstable",
        commutative=True,
    )


def _make_stable() -> SdeProblem:
    # dX = (-2X - X^5) dt + sqrt(2) X dW: contractive linear part, same
    # quintic term; mean-square stable for the exact solution.
    return SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: -2.0 * x,
        varphi=lambda x: -(x**5),
        diffusion_column=lambda x, j: _SQRT2 * x,
        diffusion_derivative_product=lambda x, j1, j2: 2.0 * x,
        initial_value=np.array([1.0]),
        horizon=5.0,
        label="ginzburg-landau-stable",
        commutative=True,
    )


_BUILTIN_FACTORIES = {
    "ginzburg-landau-unstable": _make_unstable_cubic,
    "ginzburg-landau-stable": _make_stable,
}


def builtin_problem_names() -> list[str]:
    """Names accepted by :func:`builtin_problem`, sorted."""
    return sorted(_BUILTIN_FACTORIES)


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
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        valid = ", ".join(builtin_problem_names())
        raise ValueError(f"unknown built-in problem {name!r}; valid names: {valid}") from None
    problem = factory()
    return problem if horizon is None else replace(problem, horizon=horizon)
