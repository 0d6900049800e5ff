"""One-step integrators for split-drift SDEs, with and without taming.

Five explicit schemes over a uniform grid of step ``h``, all driven by
pre-generated Brownian increments (step functions are pure and never draw
randomness):

``em``
    Euler-Maruyama, ``x + f(x) h + g(x) dW`` with the composed drift
    ``f = phi + varphi``. Diverges on superlinear drifts.
``tamed-euler``
    Euler with the whole drift tamed: ``x + tame(f(x), h) h + g(x) dW``.
``semi-tamed-euler``
    Euler with only the one-sided part tamed:
    ``x + phi(x) h + tame(varphi(x), h) h + g(x) dW``.
``tamed-milstein``
    Tamed Euler plus the commutative Milstein correction.
``semi-tamed-milstein``
    Semi-tamed Euler plus the commutative Milstein correction; first
    strong order on commutative noise while keeping the regular drift
    part untamed.

``tame(v, h) = v / (1 + h ||v||)`` caps the magnitude of a tamed drift
contribution ``tame(v, h) * h`` at one regardless of ``v``: below one in
exact arithmetic, and exactly one after rounding once ``h ||v|| >= 2**53``.

The Milstein correction uses the symmetric product form

    1/2 sum_{j1, j2} (L^j1 g_j2)(x) (dW_j1 dW_j2 - delta_{j1 j2} h),

grouped over unordered pairs, which is valid only when the noise
commutes; ``integrate`` refuses Milstein variants on multi-noise problems
that fail the commutativity check.

The five differ in two switches, read off the scheme: which drift part is
tamed (``SchemeKind.taming``) and whether the correction is added
(``SchemeKind.is_milstein``). One parameterized step implements them all,
and one batch propagator runs any of them, in lockstep, over a block of paths.

Step functions broadcast: ``x`` may be ``(d,)`` or ``(batch, d)`` with
``dW`` shaped ``(m,)`` or ``(batch, m)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import SdeProblem, _default_check_points, check_commutativity
from .paths import PathBundle, _coarsen_increments

# Upper bound on the bytes of the time-major increment tile _propagate walks,
# and the paths the fine walk copies into it per numpy call (see _time_major).
_TILE_BYTES = 1 << 20
_COPY_PATHS = 16

__all__ = [
    "SchemeKind",
    "Trajectory",
    "tame",
    "milstein_correction",
    "step_function",
    "require_supported",
    "integrate",
]


class SchemeKind(enum.Enum):
    """The five supported schemes; values are the stable CLI names."""

    EULER_MARUYAMA = "em"
    TAMED_EULER = "tamed-euler"
    SEMI_TAMED_EULER = "semi-tamed-euler"
    TAMED_MILSTEIN = "tamed-milstein"
    SEMI_TAMED_MILSTEIN = "semi-tamed-milstein"

    @classmethod
    def from_name(cls, name: "str | SchemeKind") -> "SchemeKind":
        if isinstance(name, cls):
            return name
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(kind.value for kind in cls)
            raise ValueError(f"unknown scheme {name!r}; valid names: {valid}") from None

    @property
    def is_milstein(self) -> bool:
        return self in (SchemeKind.TAMED_MILSTEIN, SchemeKind.SEMI_TAMED_MILSTEIN)

    @property
    def taming(self) -> str:
        """Drift part the step tames: "none", "full" (phi + varphi) or "varphi"."""
        if self is SchemeKind.EULER_MARUYAMA:
            return "none"
        return "varphi" if self.value.startswith("semi-") else "full"


def tame(v: np.ndarray, h: float) -> np.ndarray:
    """Damp a drift vector: ``v / (1 + h ||v||)`` (Euclidean norm).

    ``||tame(v, h)|| <= min(||v||, 1/h)`` up to rounding, so the tamed
    contribution ``tame(v, h) * h`` has norm at most one. ``h`` must be finite
    and nonnegative. A row of finite entries gives a finite result (see
    ``_tame``), a row with an infinite or NaN entry gives entries of NaN or
    zero, and nothing warns.
    """
    if not 0 <= h < math.inf:  # refuses NaN too
        raise ValueError(f"h must be finite and nonnegative, got {h}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _tame(np.asarray(v, dtype=np.float64), h)


def _tame(v: np.ndarray, h: float) -> np.ndarray:
    """``tame`` for a float64 scalar or ``(..., d)`` array and a finite
    ``h >= 0``, unchecked.

    One entry's norm is its magnitude, a longer row's ``sqrt`` of its sum of
    squares (``np.add.reduce`` is the summation ``np.sum`` runs, minus its
    wrapper). A row of finite entries whose damping ``1 + h ||v||`` is not
    finite (or NaN, at ``h = 0``) is divided by its largest magnitude ``s``
    first: with ``u = v / s`` its damping is ``1 + h (s ||u||)``, and where
    that is still not finite the row is ``u / (1/s + h ||u||)``.
    """
    one = v.ndim == 0 or v.shape[-1] == 1
    if one and h <= 1:  # h |v| <= |v|: a finite entry's damping is finite
        return v / (1.0 + h * np.abs(v))
    with np.errstate(over="ignore", invalid="ignore"):
        damp = 1.0 + h * _norm(v)
        if not np.isfinite(damp).all():
            s = np.abs(v) if one else np.abs(v).max(axis=-1, keepdims=True)
            wide = np.isfinite(s) & ~np.isfinite(damp)
            s = np.where(wide, s, 1.0)
            u = v / s
            unit = _norm(u)
            damp = np.where(wide, 1.0 + h * (s * unit), damp)
            far = wide & ~np.isfinite(damp)
            v = np.where(far, u, v)
            damp = np.where(far, 1.0 / s + h * unit, damp)
        return v / damp


def _norm(v: np.ndarray) -> np.ndarray:
    if v.ndim == 0 or v.shape[-1] == 1:
        return np.abs(v)
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


def milstein_correction(
    problem: SdeProblem, x: np.ndarray, dW: np.ndarray, h: float
) -> np.ndarray:
    """Commutative Milstein correction term at state ``x``.

    Computes ``1/2 sum_j (L^j g_j)(x) (dW_j^2 - h)`` plus one term per
    unordered pair ``j1 < j2`` of ``(L^j1 g_j2)(x) dW_j1 dW_j2`` (the
    ordered pair sum collapsed under commutativity).
    """
    x = np.asarray(x, dtype=np.float64)
    dW = np.asarray(dW, dtype=np.float64)
    product = problem.diffusion_derivative_product
    corr = None
    for j in range(problem.dim_noise):
        dw_j = dW[..., j : j + 1]
        coeff = np.asarray(product(x, j, j), dtype=np.float64)
        term = 0.5 * coeff * (dw_j * dw_j - h)
        corr = term if corr is None else corr + term
    for j1 in range(problem.dim_noise):
        for j2 in range(j1 + 1, problem.dim_noise):
            coeff = np.asarray(product(x, j1, j2), dtype=np.float64)
            corr = corr + coeff * (dW[..., j1 : j1 + 1] * dW[..., j2 : j2 + 1])
    return corr


def step_function(scheme: "str | SchemeKind"):
    """The pure one-step map ``(problem, x, dW, h) -> x_next`` of a scheme.

    The step is ``x + drift h + sum_j g_j(x) dW_j``, plus
    :func:`milstein_correction` for the Milstein schemes. The scheme's
    ``taming`` picks the drift term: ``phi + varphi`` ("none"),
    ``tame(phi + varphi, h)`` ("full") or ``phi + tame(varphi, h)``
    ("varphi"). The additions run in this order for every scheme, and each
    coefficient is evaluated once per step. The tamed schemes refuse an ``h``
    that is negative, infinite or NaN.
    """
    kind = SchemeKind.from_name(scheme)
    taming, milstein = kind.taming, kind.is_milstein

    def step(problem, x, dW, h):
        if taming != "none" and not 0 <= h < math.inf:
            raise ValueError(f"h must be finite and nonnegative, got {h}")
        x = np.asarray(x, dtype=np.float64)
        dW = np.asarray(dW, dtype=np.float64)
        if taming == "varphi":
            x_next = x + problem.phi(x) * h + _tame(problem.varphi(x), h) * h
        else:
            drift = problem.phi(x) + problem.varphi(x)
            x_next = x + (_tame(drift, h) if taming == "full" else drift) * h
        noise = problem.diffusion_column(x, 0) * dW[..., 0:1]
        for j in range(1, problem.dim_noise):
            noise = noise + problem.diffusion_column(x, j) * dW[..., j : j + 1]
        x_next = x_next + noise
        if milstein:
            x_next = x_next + milstein_correction(problem, x, dW, h)
        return x_next

    return step


def require_supported(problem: SdeProblem, scheme: "str | SchemeKind") -> SchemeKind:
    """Validate that ``scheme`` may be applied to ``problem``.

    Milstein variants demand commutative noise. One noise always commutes
    with itself, so no coefficient is evaluated; on more than one, the
    problem must pass :func:`check_commutativity` on a fixed cloud of
    states. Any other problem is refused, with no override, since the
    symmetric correction is not the Milstein term on noise that does not
    commute.
    """
    scheme = SchemeKind.from_name(scheme)
    if not scheme.is_milstein or problem.dim_noise == 1:
        return scheme
    report = check_commutativity(problem, _default_check_points(problem))
    if not report.passed:
        raise ValueError(
            f"problem {problem.label!r} fails the commutativity check "
            f"(max violation {report.max_violation:.3e} > tolerance "
            f"{report.tolerance:.3e}); {scheme.value} requires commutative noise"
        )
    return scheme


@dataclass(frozen=True)
class Trajectory:
    """One integrated path on a uniform grid.

    ``states[k]`` is the state at ``times[k]``. After a blow-up (first
    non-finite state) every remaining row holds the NaN sentinel and
    ``blew_up`` is set.
    """

    times: np.ndarray
    states: np.ndarray
    blew_up: bool
    step: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(
    problem: SdeProblem, scheme: "str | SchemeKind", bundle: PathBundle
) -> Trajectory:
    """Apply a scheme along one increment bundle.

    Steps ``N = bundle.steps_fine`` times with ``h = bundle.horizon / N``.
    Blow-up is flagged, not raised: from the first non-finite state on, every
    grid row holds the NaN sentinel, and ``blew_up`` is read off the final
    row. The path runs as a batch of one through the Monte Carlo propagator,
    whose observer ``observe(n, x)`` records each row.

    Raises
    ------
    ValueError
        If the bundle's noise dimension does not match the problem's, or
        a Milstein variant is requested for noise that fails the
        commutativity check (see :func:`require_supported`).
    """
    scheme = require_supported(problem, scheme)
    if bundle.dim_noise != problem.dim_noise:
        raise ValueError(
            f"bundle has dim_noise={bundle.dim_noise} but problem "
            f"{problem.label!r} has dim_noise={problem.dim_noise}"
        )
    n_steps = bundle.steps_fine
    h = bundle.horizon / n_steps
    states = np.full((n_steps + 1, problem.dim_state), np.nan)

    def observe(n, x):
        states[n] = x[0]

    _propagate(problem, [step_function(scheme)], bundle.increments[None], h, observe)
    times = np.arange(n_steps + 1) * h
    blew_up = bool(np.isnan(states[-1]).any())
    return Trajectory(times=times, states=states, blew_up=blew_up, step=h)


def _time_major(increments, factor=1):
    """Yield the (batch, m) increments of each step of a (batch, steps, m)
    block, summed over ``factor`` consecutive steps.

    The block is walked in slices of ``factor`` times one tile of steps, each
    written into one time-major buffer of at most ``_TILE_BYTES``, so each
    step reads adjacent memory. A coarser grid (``factor > 1``) sums its slice
    straight into the buffer's rows. The fine walk copies its slice
    ``_COPY_PATHS`` paths at a time: path rows sit a power of two apart on the
    usual grids, and a copy over every path at once would map all of them to
    one cache set. The buffer serves the whole walk, so a yielded row holds
    its step's increments only until the next one is taken.
    """
    batch, steps, m = increments.shape
    tile = max(1, _TILE_BYTES // max(1, batch * m * increments.itemsize))
    timed = np.empty(min(tile, steps // factor) * batch * m, dtype=increments.dtype)
    for first in range(0, steps, factor * tile):
        part = increments[:, first : first + factor * tile]
        n = part.shape[1] // factor
        rows = timed[: n * batch * m].reshape(n, batch, m)
        if factor > 1:
            _coarsen_increments(part, factor, out=rows.swapaxes(0, 1))
        else:
            for lo in range(0, batch, _COPY_PATHS):
                rows[:, lo : lo + _COPY_PATHS] = part[lo : lo + _COPY_PATHS].swapaxes(0, 1)
        yield from rows


def _propagate(problem, steps, increments, h, observe=None, factor=1):
    """Integrate a (batch, steps, m) increment block, coarsened by ``factor``,
    with every step function in ``steps`` in lockstep over one walk.

    Every run starts from the initial value. A path whose state turns
    non-finite is frozen to the NaN sentinel, its only record of the blow-up;
    a run with no finite path left takes no further step, and the walk ends
    once no run is live. ``observe(n, x)``, passed only with one step
    function, sees the states at every gridpoint ``n`` reached. Returns the
    terminal states of each step function.
    """
    batch = increments.shape[0]
    xs = [np.tile(problem.initial_value, (batch, 1)) for _ in steps]
    live = list(range(len(steps)))
    with np.errstate(over="ignore", invalid="ignore"):
        if observe is not None:
            observe(0, xs[0])
        for n, dW in enumerate(_time_major(increments, factor), 1):
            for k in tuple(live):
                x = xs[k] = steps[k](problem, xs[k], dW, h)
                # one reduction on the common path: the sum of the entries is
                # finite only if every entry is; a sum that overflows from
                # finite entries costs a row mask that kills nothing
                if not math.isfinite(np.add.reduce(x, axis=None)):
                    finite = np.isfinite(x).all(axis=1)
                    x[~finite] = np.nan
                    if not finite.any():
                        live.remove(k)
                if observe is not None:
                    observe(n, x)
            if not live:
                break
    return xs
