"""Step maps: hand-checked values, exactness identities, taming, blow-up."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tamedsde import (
    SchemeKind,
    SdeProblem,
    builtin_problem,
    drift_full,
    generate_paths,
    integrate,
    mean_square_curve,
    milstein_correction,
    require_supported,
    step_function,
    tame,
)
from tamedsde import analysis, schemes
from tamedsde.model import levy_product_coefficient
from tamedsde.paths import _coarsen_increments

from conftest import (
    SEED,
    make_cubic_noise,
    make_diagonal_2d,
    make_gbm,
    make_nan_gap,
    make_swapped_2d,
    make_two_noise_quintic,
)

X = np.array([1.0])
H = 0.1
DW0 = np.array([0.0])


# ------------------------------------------------------------------
# Scheme registry
# ------------------------------------------------------------------

def test_scheme_names_round_trip():
    for kind in SchemeKind:
        assert SchemeKind.from_name(kind.value) is kind
        assert SchemeKind.from_name(kind) is kind
    # the README's scheme table: (taming, Milstein correction)
    table = {
        "em": ("none", False),
        "tamed-euler": ("full", False),
        "semi-tamed-euler": ("varphi", False),
        "tamed-milstein": ("full", True),
        "semi-tamed-milstein": ("varphi", True),
    }
    for kind in SchemeKind:
        assert (kind.taming, kind.is_milstein) == table[kind.value]


def test_unknown_scheme_lists_valid_names():
    with pytest.raises(ValueError) as err:
        SchemeKind.from_name("milstein")
    for kind in SchemeKind:
        assert kind.value in str(err.value)


# ------------------------------------------------------------------
# tame
# ------------------------------------------------------------------

def test_tame_hand_value():
    assert tame(np.array(-1.0), 1.0) == pytest.approx(-0.5)
    assert tame(np.array([3.0, 4.0]), 0.2) == pytest.approx([1.5, 2.0])  # ||v|| = 5


def test_tame_zero_and_negative_h():
    assert np.array_equal(tame(np.array([0.0, 0.0]), 0.5), np.zeros(2))
    assert np.array_equal(tame(np.array([2.0]), 0.0), np.array([2.0]))
    for v, h in (
        (np.array([1.0]), -0.1),
        (np.array([1.0, 2.0]), float("nan")),
        (np.array([0.0]), math.inf),
        (np.array([1.0, 2.0]), math.inf),
    ):
        with pytest.raises(ValueError, match="nonnegative"):
            tame(v, h)


def test_tame_bounds_vectorized():
    rng = np.random.default_rng(SEED)
    v = rng.uniform(-1e6, 1e6, size=(200, 3))
    for h in (1e-3, 0.1, 1.0):
        out = tame(v, h)
        norms = np.linalg.norm(out, axis=-1)
        assert np.all(norms * h < 1.0)
        assert np.all(norms <= np.linalg.norm(v, axis=-1) + 1e-12)


@settings(max_examples=80, deadline=None)
@given(
    v=st.lists(
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    h=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
)
def test_tame_contribution_below_one(v, h):
    out = tame(np.array(v), h)
    assert float(np.linalg.norm(out)) * h < 1.0 + 1e-12


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _tame_formula(v, h):
    """``v / (1 + h ||v||)`` with the norm of one entry its magnitude, and of
    more the root of the sum of squares, taken over ``v / max|v|`` and scaled
    back in a row of finite entries whose sum of squares overflows."""
    if v.ndim == 0 or v.shape[-1] == 1:
        norm = np.abs(v)
    else:
        norm = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
        scale = np.abs(v).max(axis=-1, keepdims=True)
        rescaled = scale * np.sqrt(np.sum((v / scale) ** 2, axis=-1, keepdims=True))
        norm = np.where(np.isinf(norm) & np.isfinite(scale), rescaled, norm)
    return v / (1.0 + h * norm)


def test_private_tame_matches_tame_bitwise():
    rng = np.random.default_rng(SEED)
    for d in (1, 2, 5):
        overflow = np.full((4, d), 1e200) * rng.choice([-1.0, 1.0], size=(4, d))
        overflow[1, 1:] = 0.0  # one overflowing entry among zeros
        batches = [
            rng.standard_normal((64, d)) * 10.0 ** rng.integers(-3, 4, size=(64, 1)),
            np.zeros((3, d)),
            overflow,  # v*v overflows
            # rows that overflow beside rows that do not, and non-finite rows
            np.vstack([overflow, np.ones((2, d)), np.full((1, d), np.inf),
                       np.full((1, d), np.nan), np.full((1, d), 1e-170)]),
        ]
        for v in batches:
            for h in (0.0, 1e-3, 0.5, 10.0):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    fast, checked = schemes._tame(v, h), tame(v, h)
                    expected = _tame_formula(v, h)
                assert np.array_equal(_bits(fast), _bits(expected)), (d, h)
                assert np.array_equal(_bits(checked), _bits(expected)), (d, h)
        # finite rows whose squares overflow warn about nothing and stay finite
        out = tame(overflow, 0.5)
        assert np.isfinite(out).all() and (np.linalg.norm(out, axis=-1) > 1.99).all()


def test_tame_of_an_overflowing_square_is_near_one_over_h():
    assert np.array_equal(tame(np.array([1e155]), 0.1), [10.0])
    assert tame(np.float64(1e155), 0.1) == 10.0
    # once h |v| >= 2**53 the sum 1 + h |v| rounds to h |v|: exactly 1/h
    assert tame(np.array([2.0**53]), 1.0)[0] == 1.0
    assert tame(np.array([2.0**53 - 1]), 1.0)[0] < 1.0


def test_tame_past_the_float_range_is_its_limit():
    """Where ``h ||v||`` overflows (only for h > 1) the result is
    ``v / ||v|| / h``, and where ``||v||`` itself overflows it is
    ``v / (1 + h ||v||)`` up to rounding; neither is zero. A row with an
    infinite entry gives NaN there and zero elsewhere. Nothing warns."""
    assert np.array_equal(tame(np.array([1e308]), 10.0), [0.1])
    assert tame(np.float64(-1e308), 10.0) == -0.1
    assert np.array_equal(tame(np.array([1e308, 0.0]), 10.0), [0.1, 0.0])
    rows = np.array([[1e308, 0.0], [3.0, 4.0], [0.0, 0.0]])
    out = tame(rows, 10.0)
    assert np.array_equal(out[0], [0.1, 0.0])
    # rows where h ||v|| stays finite keep the plain formula's bits
    assert np.array_equal(_bits(out[1:]), _bits(rows[1:] / [[1.0 + 10.0 * 5.0], [1.0]]))
    # a norm that itself passes the float range: 1/h up to rounding at h = 0.5,
    # the limit v / ||v|| / h at h = 2
    huge = np.array([1.5e308, 1.5e308])
    np.testing.assert_allclose(tame(huge, 0.5), [2**0.5, 2**0.5], rtol=1e-15)
    np.testing.assert_allclose(tame(huge, 2.0), [0.5**0.5 / 2, 0.5**0.5 / 2], rtol=1e-15)
    out = tame(np.vstack([huge, rows]), 0.5)
    np.testing.assert_allclose(out[0], [2**0.5, 2**0.5], rtol=1e-15)
    assert np.array_equal(_bits(out[1:]), _bits(tame(rows, 0.5)))
    for v, expected in [
        ([[1.5e308, np.inf]], [[0.0, np.nan]]),
        ([[np.inf, 1.0]], [[np.nan, 0.0]]),
        ([np.inf], [np.nan]),
    ]:
        np.testing.assert_array_equal(tame(np.array(v), 0.5), expected)


@pytest.mark.skipif(
    np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
    reason="long double is no wider than float64 here",
)
def test_tame_matches_a_long_double_reference_across_the_float_range():
    """``v / (1 + h ||v||)`` computed in long double, where no square or
    product of float64 values overflows, and rounded once to float64. The
    float64 result takes up to a handful of roundings (the squares, their
    sum, the root, the damping and the division), so it stays within 4 ulp
    of the reference, and gives exact zeros where the reference is zero."""
    rng = np.random.default_rng(SEED)
    wide = np.longdouble
    for d in (1, 2, 3, 4):
        v = 10.0 ** rng.uniform(-300, np.log10(1.7e308), size=(4000, d))
        v *= rng.choice([-1.0, 1.0], size=v.shape)
        v[rng.random(v.shape) < 0.15] = 0.0
        v[:3] = [[1.7e308] * d, [0.0] * d, [1e-300] * d]
        w = v.astype(wide)
        norm = np.sqrt(np.sum(w * w, axis=-1, keepdims=True))
        for h in (0.0, 1e-3, 0.5, 1.0, 2.0, 10.0, 1e3):
            reference = (w / (1 + wide(h) * norm)).astype(np.float64)
            out = schemes._tame(v, h)
            zero = reference == 0.0
            assert np.array_equal(_bits(out[zero]), _bits(reference[zero])), (d, h)
            ulps = np.abs(out[~zero] - reference[~zero]) / np.spacing(np.abs(reference[~zero]))
            assert ulps.max(initial=0.0) <= 4.0, (d, h, ulps.max())


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1e300),
    b=st.floats(min_value=0.0, max_value=1e300),
    h=st.floats(min_value=1e-6, max_value=10.0),
    sign=st.sampled_from([-1.0, 1.0]),
    d=st.integers(min_value=1, max_value=4),
)
def test_tame_norm_is_monotone_and_paths_agree(a, b, h, sign, d):
    """``||tame(v, h)||`` does not fall as ``||v||`` grows, up to the two
    roundings of ``||v|| / (1 + h ||v||)``; the scalar and vector paths agree
    bitwise, and a vector along one axis gives the scalar's entry."""
    lo, hi = sorted((a, b))
    scalar_lo, scalar_hi = tame(np.float64(sign * lo), h), tame(np.float64(sign * hi), h)
    assert np.array_equal(_bits(tame(np.array([sign * hi]), h)), _bits(scalar_hi))
    assert abs(scalar_hi) >= abs(scalar_lo) * (1.0 - 4 * np.finfo(float).eps)
    axis = np.zeros(d)
    axis[-1] = sign * hi
    assert np.array_equal(_bits(tame(axis, h)[-1]), _bits(scalar_hi))
    spread = np.full(d, hi / d)
    assert np.isfinite(tame(spread, h)).all()
    assert np.linalg.norm(tame(spread, h)) * h <= 1.0 + 1e-12


def test_tamed_steps_keep_the_h_check(unstable):
    for h in (-0.1, float("nan"), math.inf):
        for kind in SchemeKind:
            step = step_function(kind)
            if kind.taming == "none":  # em checks no h; its state is then not finite
                assert np.isfinite(step(unstable, X, DW0, h)).all() == np.isfinite(h)
            else:
                with pytest.raises(ValueError, match="nonnegative"):
                    step(unstable, X, DW0, h)


def _counted(problem):
    """``problem`` with a counter on every coefficient call, keyed
    ``("phi",)``, ``("varphi",)``, ``("g", j)`` and ``("L", j1, j2)``."""
    calls = Counter()

    def count(name, fn):
        def wrapper(x, *index):
            calls[(name, *index)] += 1
            return fn(x, *index)

        return wrapper

    counted = dataclasses.replace(
        problem,
        phi=count("phi", problem.phi),
        varphi=count("varphi", problem.varphi),
        diffusion_column=count("g", problem.diffusion_column),
        diffusion_derivative_product=count("L", problem.diffusion_derivative_product),
    )
    calls.clear()  # construction evaluates every callable once
    return counted, calls


@pytest.mark.parametrize(
    "make",
    [lambda: builtin_problem("ginzburg-landau-unstable"), make_two_noise_quintic],
    ids=["m1", "m2"],
)
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_one_step_evaluates_each_coefficient_once(make, kind):
    """``phi``, ``varphi`` and each column once; a Milstein step also each
    product ``(j1, j2)`` with ``j1 <= j2`` once, and never ``(1, 0)``."""
    problem, calls = _counted(make())
    m = problem.dim_noise
    step_function(kind)(problem, np.full((3, 1), 0.5), np.full((3, m), 0.1), H)
    expected = {("phi",): 1, ("varphi",): 1} | {("g", j): 1 for j in range(m)}
    if kind.is_milstein:
        expected |= {("L", j1, j2): 1 for j1 in range(m) for j2 in range(j1, m)}
    assert dict(calls) == expected


# ------------------------------------------------------------------
# Hand-checked single steps (x=1, h=0.1, dW=0 on the unstable model)
# ------------------------------------------------------------------

def test_step_hand_values(unstable):
    assert step_function("em")(unstable, X, DW0, H) == pytest.approx([1.1])
    assert step_function("tamed-euler")(unstable, X, DW0, H) == pytest.approx(
        [1.0909090909090908], abs=1e-15
    )
    assert step_function("semi-tamed-euler")(unstable, X, DW0, H) == pytest.approx(
        [1.1090909090909093], abs=1e-15
    )
    assert step_function("tamed-milstein")(unstable, X, DW0, H) == pytest.approx(
        [1.0409090909090908], abs=1e-15
    )
    assert step_function("semi-tamed-milstein")(unstable, X, DW0, H) == pytest.approx(
        [1.0590909090909093], abs=1e-15
    )


def test_milstein_correction_hand_value(unstable):
    # 1/2 * Lg(1) * (0 - h) with Lg(x) = x
    assert milstein_correction(unstable, X, DW0, H) == pytest.approx([-0.05])


def test_correction_with_nonzero_increment(unstable):
    dw = np.array([0.3])
    assert milstein_correction(unstable, X, dw, H) == pytest.approx(
        [0.5 * (0.09 - 0.1)]
    )


def test_steps_are_pure(unstable):
    x = np.array([1.0])
    dw = np.array([0.25])
    for kind in SchemeKind:
        before_x, before_dw = x.copy(), dw.copy()
        out = step_function(kind)(unstable, x, dw, H)
        assert np.array_equal(x, before_x)
        assert np.array_equal(dw, before_dw)
        assert out is not x


def test_steps_broadcast_over_batches(unstable):
    xs = np.linspace(0.5, 1.5, 6).reshape(-1, 1)
    dws = np.linspace(-0.2, 0.2, 6).reshape(-1, 1)
    for kind in SchemeKind:
        fn = step_function(kind)
        batched = fn(unstable, xs, dws, H)
        assert batched.shape == (6, 1)
        rows = np.stack([fn(unstable, xs[i], dws[i], H) for i in range(6)])
        assert np.array_equal(batched, rows)


# ------------------------------------------------------------------
# The step kernel against the out-of-place formula
# ------------------------------------------------------------------

def _reference_step(problem, x, dW, h, taming, milstein):
    """The step formula with every operation out of place."""
    x = np.asarray(x, dtype=np.float64)
    dW = np.asarray(dW, dtype=np.float64)

    def tamed(v):
        return _tame_formula(v, h)

    if taming == "varphi":
        x_next = x + problem.phi(x) * h + tamed(problem.varphi(x)) * h
    else:
        drift = problem.phi(x) + problem.varphi(x)
        x_next = x + (tamed(drift) if taming == "full" else drift) * h
    noise = problem.diffusion_column(x, 0) * dW[..., 0:1]
    for j in range(1, problem.dim_noise):
        noise = noise + problem.diffusion_column(x, j) * dW[..., j : j + 1]
    x_next = x_next + noise
    if milstein:
        corr = None
        for j in range(problem.dim_noise):
            dw = dW[..., j : j + 1]
            term = 0.5 * levy_product_coefficient(problem, x, j, j) * (dw * dw - h)
            corr = term if corr is None else corr + term
        for j1 in range(problem.dim_noise):
            for j2 in range(j1 + 1, problem.dim_noise):
                coeff = levy_product_coefficient(problem, x, j1, j2)
                corr = corr + coeff * (dW[..., j1 : j1 + 1] * dW[..., j2 : j2 + 1])
        x_next = x_next + corr
    return x_next


def _rank_one_2d():
    """g_j(x) = c_j x_1 (1, 1): L^j1 g_j2 = c_j1 c_j2 x_1 (1, 1)."""
    scale = (0.5, 1.5)
    return SdeProblem(
        dim_state=2,
        dim_noise=2,
        phi=lambda x: -x,
        varphi=lambda x: -(x**3),
        diffusion_column=lambda x, j: scale[j] * x[..., :1] * np.ones(2),
        diffusion_derivative_product=(
            lambda x, j1, j2: scale[j1] * scale[j2] * x[..., :1] * np.ones(2)
        ),
        initial_value=np.array([1.0, 0.5]),
        horizon=1.0,
    )


def _coefficients_of_dtype(phi_dtype, dtype):
    """phi returning ``phi_dtype`` arrays and the other coefficients
    ``dtype`` ones. No float32 or int64 temporary may take a float64 result
    in place (it would be rounded or refused), and no float64 temporary a
    longdouble one. The derivative product is float64 whatever it returns."""

    def cast(fn, to):
        return lambda x, *noise: np.asarray(fn(x), dtype=np.float64).astype(to)

    with np.errstate(invalid="ignore"):  # int64 casts of non-finite states
        return SdeProblem(
            dim_state=1,
            dim_noise=1,
            phi=cast(lambda x: x + 1.0, phi_dtype),
            varphi=cast(lambda x: -(x**3), dtype),
            diffusion_column=cast(lambda x: 0.5 * x, dtype),
            diffusion_derivative_product=cast(lambda x: 0.25 * x, dtype),
            initial_value=np.array([1.0]),
            horizon=1.0,
        )


_STEP_PROBLEMS = {
    "unstable": lambda: builtin_problem("ginzburg-landau-unstable"),
    "stable": lambda: builtin_problem("ginzburg-landau-stable"),
    "diagonal-2d": make_diagonal_2d,
    "swapped-2d": make_swapped_2d,
    "rank-one-2d": _rank_one_2d,
    "float32-coefficients": lambda: _coefficients_of_dtype(np.float32, np.float32),
    "int64-coefficients": lambda: _coefficients_of_dtype(np.int64, np.int64),
    "longdouble-coefficients": lambda: _coefficients_of_dtype(np.float64, np.longdouble),
}


@st.composite
def _step_inputs(draw):
    name = draw(st.sampled_from(sorted(_STEP_PROBLEMS)))
    problem = _STEP_PROBLEMS[name]()
    d, m = problem.dim_state, problem.dim_noise
    batch = draw(st.integers(min_value=1, max_value=6))
    # a (d,) state with (batch, m) noise broadcasts to a (batch, d) step
    x_shape = draw(st.sampled_from([(batch, d), (d,)]))
    values = st.floats(allow_nan=True, allow_infinity=True, width=64)
    scaled = st.floats(min_value=-1e3, max_value=1e3) | values
    x = draw(hnp.arrays(np.float64, x_shape, elements=scaled))
    dW = draw(hnp.arrays(np.float64, (batch, m), elements=st.floats(-3.0, 3.0) | values))
    h = draw(st.floats(min_value=0.0, max_value=2.0))
    # a numpy scalar h takes part in dtype promotion like any operand
    h = draw(st.sampled_from([float, np.float64, np.float32, np.longdouble]))(h)
    return name, problem, x, dW, h


@settings(max_examples=400, deadline=None)
@given(_step_inputs())
def test_step_matches_the_out_of_place_formula_bitwise(inputs):
    name, problem, x, dW, h = inputs
    for kind in SchemeKind:
        with np.errstate(all="ignore"):  # also longdouble values beyond float64
            want = _reference_step(problem, x, dW, h, kind.taming, kind.is_milstein)
            got = step_function(kind)(problem, x, dW, h)
            assert got.shape == want.shape and got.dtype == want.dtype, (name, kind.value)
            # IEEE 754 leaves the sign and payload of a NaN from two NaN operands
            # open; _propagate replaces every non-finite row with one NaN
            nan = np.isnan(got)
            assert np.array_equal(nan, np.isnan(want)), (name, kind.value)
            assert np.array_equal(_bits(got[~nan]), _bits(want[~nan])), (name, kind.value)
            # a longdouble step agrees beyond float64 too
            assert np.array_equal(got, want, equal_nan=True), (name, kind.value)


# ------------------------------------------------------------------
# Structural identities
# ------------------------------------------------------------------

def test_empty_one_sided_part_reduces_to_euler(gbm):
    """With varphi = 0 the semi-tamed Euler step is plain Euler, bitwise."""
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(0.2, 3.0, size=(50, 1))
    dws = rng.normal(0.0, np.sqrt(H), size=(50, 1))
    euler = step_function("em")(gbm, xs, dws, H)
    semi = step_function("semi-tamed-euler")(gbm, xs, dws, H)
    assert np.array_equal(euler, semi)


def test_empty_one_sided_part_reduces_to_milstein(gbm):
    """With varphi = 0 the semi-tamed Milstein step is classical Milstein."""
    a, b = 1.5, 1.0
    b2 = b * b
    rng = np.random.default_rng(SEED + 1)
    xs = rng.uniform(0.2, 3.0, size=(50, 1))
    dws = rng.normal(0.0, np.sqrt(H), size=(50, 1))
    classical = xs + (a * xs) * H + (b * xs) * dws + 0.5 * (b2 * xs) * (dws * dws - H)
    semi = step_function("semi-tamed-milstein")(gbm, xs, dws, H)
    assert np.array_equal(classical, semi)


def test_schemes_coincide_without_noise_small_h(unstable):
    # With dW = 0 the five schemes differ only through taming, which is an
    # O(h^2) perturbation of the drift: gaps must shrink quadratically.
    x = np.array([1.3])
    gaps = []
    for h in (1e-3, 5e-4):
        dw = np.array([0.0])
        em = step_function("em")(unstable, x, dw, h)
        milstein_part = milstein_correction(unstable, x, dw, h)
        states = [
            step_function("tamed-euler")(unstable, x, dw, h),
            step_function("semi-tamed-euler")(unstable, x, dw, h),
            step_function("tamed-milstein")(unstable, x, dw, h) - milstein_part,
            step_function("semi-tamed-milstein")(unstable, x, dw, h) - milstein_part,
        ]
        gaps.append(max(float(np.max(np.abs(s - em))) for s in states))
    assert gaps[0] < 2e-5
    # halving h divides the taming defect by about 4
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)


def test_taming_defect_second_order(unstable):
    # tame(v, h) - v = -v h ||v|| / (1 + h ||v||): check the defect times h
    # (the per-step drift perturbation) decays like h^2.
    v = drift_full(unstable, np.array([1.3]))
    defects = []
    for h in (1e-3, 5e-4):
        defects.append(float(np.abs((tame(v, h) - v) * h).max()))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.01)


# ------------------------------------------------------------------
# Commutativity gate
# ------------------------------------------------------------------

def test_milstein_refused_on_noncommutative(swapped_2d):
    with pytest.raises(ValueError, match="commut"):
        require_supported(swapped_2d, "semi-tamed-milstein")


def test_euler_ignores_commutativity(swapped_2d):
    assert require_supported(swapped_2d, "em") is SchemeKind.EULER_MARUYAMA


def test_milstein_refused_on_a_nan_gap():
    # the default cloud around x0 = 1 holds negative states, where the gap is NaN
    with pytest.raises(ValueError, match="max violation inf > tolerance"):
        require_supported(make_nan_gap(), "semi-tamed-milstein")


def test_gate_evaluates_nothing_on_one_noise():
    """One noise always commutes, so the gate runs no check: after
    construction, no diffusion column or derivative product is evaluated."""
    calls = []

    def column(x, j):
        calls.append(j)
        return x

    def product(x, j1, j2):
        calls.append((j1, j2))
        return x

    problem = SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: -x,
        varphi=lambda x: -(x**3),
        diffusion_column=column,
        diffusion_derivative_product=product,
        initial_value=np.array([1.0]),
        horizon=1.0,
    )
    calls.clear()
    for kind in (SchemeKind.TAMED_MILSTEIN, SchemeKind.SEMI_TAMED_MILSTEIN):
        assert require_supported(problem, kind.value) is kind
    assert calls == []


def test_sampled_check_passes_diagonal(diagonal_2d):
    kind = require_supported(diagonal_2d, "semi-tamed-milstein")
    assert kind is SchemeKind.SEMI_TAMED_MILSTEIN


# ------------------------------------------------------------------
# integrate
# ------------------------------------------------------------------

def test_integrate_grid_and_values(unstable):
    bundle = generate_paths(seed=SEED, path_index=3, steps_fine=16, dim_noise=1, horizon=1.0)
    traj = integrate(unstable, "semi-tamed-milstein", bundle)
    assert traj.times.shape == (17,)
    assert traj.states.shape == (17, 1)
    assert traj.step == pytest.approx(1.0 / 16)
    assert traj.times[-1] == pytest.approx(1.0)
    assert not traj.blew_up
    assert np.all(np.isfinite(traj.states))
    # replay by hand
    x = unstable.initial_value.copy()
    fn = step_function("semi-tamed-milstein")
    for n in range(16):
        x = fn(unstable, x, bundle.increments[n], traj.step)
    assert np.array_equal(traj.final_state, x)


def test_integrate_rejects_noise_mismatch(unstable):
    bundle = generate_paths(seed=SEED, path_index=0, steps_fine=8, dim_noise=2, horizon=1.0)
    with pytest.raises(ValueError, match="dim_noise"):
        integrate(unstable, "em", bundle)


def test_euler_blow_up_is_flagged(unstable_long):
    """Frozen divergent draw: the quintic cascade overflows within 8 steps."""
    bundle = generate_paths(seed=SEED, path_index=0, steps_fine=8, dim_noise=1, horizon=2.0)
    traj = integrate(unstable_long, "em", bundle)
    assert traj.blew_up
    assert np.isnan(traj.final_state[0])
    # states up to the recorded prefix stay finite, the tail is NaN sentinel
    finite = np.isfinite(traj.states[:, 0])
    assert finite[0]
    assert not finite[-1]
    # once NaN, always NaN
    first_bad = int(np.argmin(finite))
    assert not finite[first_bad:].any()


def test_tamed_variants_survive_divergent_draw(unstable_long):
    bundle = generate_paths(seed=SEED, path_index=0, steps_fine=8, dim_noise=1, horizon=2.0)
    for name in ("tamed-euler", "semi-tamed-euler", "tamed-milstein", "semi-tamed-milstein"):
        traj = integrate(unstable_long, name, bundle)
        assert not traj.blew_up, name
        assert np.all(np.isfinite(traj.states))


def test_blow_up_census_contrast(unstable_long):
    """Monte Carlo contrast at h = 1/4, T = 2: untamed Euler loses a visible
    fraction of paths while every tamed variant keeps all of them."""
    paths = 400
    counts = {name: 0 for name in ("em", "tamed-euler", "semi-tamed-euler",
                                   "tamed-milstein", "semi-tamed-milstein")}
    for k in range(paths):
        bundle = generate_paths(seed=SEED, path_index=k, steps_fine=8, dim_noise=1, horizon=2.0)
        for name in counts:
            if integrate(unstable_long, name, bundle).blew_up:
                counts[name] += 1
    assert counts["em"] >= 1
    for name, n_blown in counts.items():
        if name != "em":
            assert n_blown == 0, name


def test_integrate_is_a_batch_of_one(unstable_long):
    """Per-path integrate equals the batch propagator bitwise, NaN included."""
    paths = 64
    bundles = [
        generate_paths(seed=SEED, path_index=k, steps_fine=8, dim_noise=1, horizon=2.0)
        for k in range(paths)
    ]
    stacked = np.stack([b.increments for b in bundles])
    for kind in SchemeKind:
        [batch_final] = analysis._batch_endpoints(unstable_long, [kind], stacked, 0.25)
        batch_blown = np.isnan(batch_final).any(axis=1)
        trajs = [integrate(unstable_long, kind, b) for b in bundles]
        final = np.stack([t.final_state for t in trajs])
        assert np.array_equal(final, batch_final, equal_nan=True), kind
        assert np.array_equal([t.blew_up for t in trajs], batch_blown), kind
        if kind is SchemeKind.EULER_MARUYAMA:
            assert 0 < np.sum(batch_blown) < paths
        else:
            assert not np.any(batch_blown), kind


def test_blow_up_under_cubic_noise_milstein_is_counted():
    """A Milstein step on a path that is blowing up yields a counted
    blow-up, not an error."""
    problem = make_cubic_noise()
    curve = mean_square_curve(problem, "semi-tamed-milstein", 0.5, paths=64, seed=1)
    assert 0 < curve.blown_up_count < 64
    blown = [
        k
        for k in range(64)
        if integrate(
            problem, "semi-tamed-milstein", generate_paths(1, k, 8, 1, 4.0)
        ).blew_up
    ]
    assert len(blown) == curve.blown_up_count


def test_integrate_milstein_gate(swapped_2d):
    bundle = generate_paths(seed=SEED, path_index=0, steps_fine=8, dim_noise=2, horizon=1.0)
    with pytest.raises(ValueError, match="commut"):
        integrate(swapped_2d, "tamed-milstein", bundle)


# ------------------------------------------------------------------
# Batch propagator: time-major tiles and the finiteness check
# ------------------------------------------------------------------

def _naive_propagate(problem, step, increments, h):
    """Reference loop: reads increments[:, n, :] and masks rows every step."""
    x = np.tile(problem.initial_value, (increments.shape[0], 1))
    alive = np.ones(increments.shape[0], dtype=bool)
    states = [x.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(increments.shape[1]):
            x = step(problem, x, increments[:, n, :], h)
            finite = np.isfinite(x).all(axis=1)
            x[~finite] = np.nan
            alive &= finite
            states.append(x.copy())
            if not alive.any():
                break
    return x, ~alive, states


TILE = 4
BATCH = 2 * schemes._COPY_PATHS + 5  # three copy blocks, the last one short


@pytest.mark.parametrize(
    "make_problem",
    [make_diagonal_2d, make_cubic_noise, lambda: builtin_problem("ginzburg-landau-unstable", 2.0)],
    ids=["diagonal-2d", "cubic-noise", "unstable"],
)
def test_propagate_tiles_match_naive_loop(monkeypatch, make_problem):
    problem = make_problem()
    m = problem.dim_noise
    monkeypatch.setattr(schemes, "_TILE_BYTES", TILE * BATCH * m * 8)
    for steps in (1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3):
        base = analysis._stack_increments(SEED, 0, BATCH, steps, m, problem.horizon)
        blocks = {"drawn": base}
        if steps > TILE + 1:
            mid = base.copy()
            mid[[1, BATCH - 2], TILE + 1, :] = 1e300  # paths blow up inside the second tile
            blocks["mid-tile"] = mid
        if steps >= 3:
            dead = base.copy()
            dead[:, 0, :] = 1e300  # every path dies at step 2: the last steps never run
            blocks["all-dead"] = dead
        # a view of a time-major array is copied like any other block
        blocks["time-major"] = np.ascontiguousarray(base.swapaxes(0, 1)).swapaxes(0, 1)
        h = problem.horizon / steps
        for label, inc in blocks.items():
            for kind in SchemeKind:
                step = step_function(kind)
                seen = []
                [final] = schemes._propagate(
                    problem, [step], inc, h, lambda n, x: seen.append((n, x.copy()))
                )
                blown = np.isnan(final).any(axis=1)
                ref_final, ref_blown, ref_states = _naive_propagate(problem, step, inc, h)
                where = (steps, label, kind.value)
                assert [n for n, _ in seen] == list(range(len(ref_states))), where
                for (_, x), ref in zip(seen, ref_states):
                    assert np.array_equal(_bits(x), _bits(ref)), where
                assert np.array_equal(_bits(final), _bits(ref_final)), where
                assert np.array_equal(blown, ref_blown), where
                if label == "mid-tile":
                    assert blown[[1, BATCH - 2]].all(), where
                if label == "all-dead":
                    assert blown.all() and len(seen) <= 3 < steps + 1, where


_TIME_MAJOR_CASES = [
    pytest.param(BATCH, 24 * 7, m, factor, tile_steps, id=f"m{m}-f{factor}-{label}")
    for m in (1, 2, 3)
    for factor in (1, 2, 3, 8)
    for tile_steps, label in ((1, "one-step"), (5, "non-dividing"), (None, "default"))
] + [
    # a converge chunk's width and coarsest factor: 256 > 128 summands, so
    # numpy's pairwise sum splits each reduced run
    pytest.param(512, 256 * 8, 1, 256, None, id="wide-f256-default"),
]


@pytest.mark.parametrize("batch, steps, m, factor, tile_steps", _TIME_MAJOR_CASES)
def test_time_major_rows_are_the_coarsened_block_and_share_one_buffer(
    monkeypatch, batch, steps, m, factor, tile_steps
):
    """The walk yields the rows of the whole block coarsened at once, bitwise,
    from one time-major buffer that every tile refills. A coarse tile is
    summed straight into that buffer's strided rows, so this also pins that
    the sum into a strided ``out`` keeps the bits of the path-major sum."""
    # 168, 84, 56 and 21 coarse steps on the narrow block: a tile of 5 divides none
    base = analysis._stack_increments(SEED, 0, batch, steps, m, 1.0)
    if tile_steps is not None:
        monkeypatch.setattr(schemes, "_TILE_BYTES", tile_steps * batch * m * 8)
    want = _coarsen_increments(base, factor).swapaxes(0, 1)
    copies = [row.copy() for row in schemes._time_major(base, factor)]
    assert np.array_equal(_bits(np.stack(copies)), _bits(want))
    if tile_steps is not None:
        rows = list(schemes._time_major(base, factor))
        assert all(np.shares_memory(rows[0], row) for row in rows[tile_steps::tile_steps])


def test_lockstep_runs_match_single_runs_and_a_dead_run_takes_no_step(unstable_long):
    """Schemes stepped in lockstep end where each one stepped alone does; a
    run whose last path has died takes no further step while the others
    run to the end."""
    inc = analysis._stack_increments(SEED, 0, 64, 32, 1, 8.0)
    em, tamed = step_function("em"), step_function("tamed-euler")
    [em_final] = schemes._propagate(unstable_long, [em], inc, 0.25)
    doomed = inc[np.isnan(em_final).any(axis=1)]  # paths on which em blows up within the 32 steps
    assert 0 < len(doomed) < 64
    for block in (inc, doomed):
        alone = [schemes._propagate(unstable_long, [s], block, 0.25)[0] for s in (em, tamed)]
        calls = {"em": 0, "tamed-euler": 0}

        def counted(name, step):
            def counted_step(*args):
                calls[name] += 1
                return step(*args)

            return counted_step

        together = schemes._propagate(
            unstable_long, [counted("em", em), counted("tamed-euler", tamed)], block, 0.25
        )
        for final, ref_final in zip(together, alone):
            assert np.array_equal(_bits(final), _bits(ref_final))
        assert not np.isnan(together[1]).any() and calls["tamed-euler"] == 32
    assert np.isnan(together[0]).all() and calls["em"] < 32


def _propagate_one_step(rows):
    """Run _propagate for one step of a stub that jumps to ``rows``."""
    rows = np.array(rows, dtype=np.float64)
    problem = make_diagonal_2d()
    increments = np.zeros((rows.shape[0], 1, problem.dim_noise))
    [final] = schemes._propagate(problem, [lambda p, x, dW, h: rows.copy()], increments, 0.1)
    return final, np.isnan(final).any(axis=1)


def test_propagate_keeps_finite_rows_whose_sum_overflows():
    rows = [[1e308, 1e308], [1e308, -1.0], [2.0, 1e308], [-1e308, 3.0]]
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.add.reduce(np.array(rows), axis=None))
    final, blown = _propagate_one_step(rows)
    assert not blown.any()
    assert np.array_equal(final, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagate_kills_exactly_the_non_finite_row(bad):
    rows = [[1.0, 2.0], [3.0, bad], [1e308, 1e308]]
    final, blown = _propagate_one_step(rows)
    assert blown.tolist() == [False, True, False]
    assert np.isnan(final[1]).all()
    assert np.array_equal(final[[0, 2]], [[1.0, 2.0], [1e308, 1e308]])
