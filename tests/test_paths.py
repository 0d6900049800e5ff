"""Increment generation, stream keys, and coarsening."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedsde import PathBundle, analysis, coarsen, generate_paths
from tamedsde.paths import (
    _draw_increments,
    _generator,
    _restart_state,
    _scale_increments,
    _stream_keys,
)

from conftest import SEED


# ------------------------------------------------------------------
# Determinism and independence
# ------------------------------------------------------------------

def test_same_seed_same_increments():
    a = generate_paths(seed=SEED, path_index=7, steps_fine=64, dim_noise=2, horizon=1.0)
    b = generate_paths(seed=SEED, path_index=7, steps_fine=64, dim_noise=2, horizon=1.0)
    assert np.array_equal(a.increments, b.increments)
    assert a.step == pytest.approx(1.0 / 64)


def test_different_path_index_different_stream():
    a = generate_paths(seed=SEED, path_index=0, steps_fine=64, dim_noise=1, horizon=1.0)
    b = generate_paths(seed=SEED, path_index=1, steps_fine=64, dim_noise=1, horizon=1.0)
    assert not np.array_equal(a.increments, b.increments)


def test_increment_shape_and_dtype():
    bundle = generate_paths(seed=1, path_index=0, steps_fine=10, dim_noise=3, horizon=2.0)
    assert bundle.increments.shape == (10, 3)
    assert bundle.increments.dtype == np.float64
    assert bundle.step == pytest.approx(0.2)


def test_argument_validation():
    with pytest.raises(ValueError, match="steps_fine"):
        generate_paths(seed=1, path_index=0, steps_fine=0, dim_noise=1, horizon=1.0)
    with pytest.raises(ValueError, match="dim_noise"):
        generate_paths(seed=1, path_index=0, steps_fine=4, dim_noise=0, horizon=1.0)
    for horizon in (-1.0, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            generate_paths(seed=1, path_index=0, steps_fine=4, dim_noise=1, horizon=horizon)
    with pytest.raises(ValueError, match="seed"):
        generate_paths(seed=-1, path_index=0, steps_fine=4, dim_noise=1, horizon=1.0)
    with pytest.raises(ValueError, match="path_index"):
        generate_paths(seed=1, path_index=-1, steps_fine=4, dim_noise=1, horizon=1.0)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        generate_paths(seed=1, path_index=2**32, steps_fine=4, dim_noise=1, horizon=1.0)
    for seed, index in ((1.5, 0), (np.float64(2.0), 0), (1, 1.5), (1, np.float64(3.0))):
        with pytest.raises(TypeError):
            generate_paths(seed=seed, path_index=index, steps_fine=4, dim_noise=1, horizon=1.0)
    last = generate_paths(seed=1, path_index=2**32 - 1, steps_fine=4, dim_noise=1, horizon=1.0)
    assert np.array_equal(last.increments, _seed_sequence_draw(1, 2**32 - 1, 4, 1, 1.0))


# ------------------------------------------------------------------
# Stream keys and draws pinned to numpy's SeedSequence -> Philox
# ------------------------------------------------------------------

EDGE_SEEDS = [
    0, 1, 7, 2**31 + 5, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 12345,
    2**128 - 1, 2**128, 2**200 + 7, 2**300 - 1, SEED,
]


def _seed_sequence_key(seed, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Philox(ss).state["state"]["key"]


def _seed_sequence_draw(seed, index, steps, dim_noise, horizon):
    """The per-path formula the streams are defined by."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.normal(loc=0.0, scale=np.sqrt(horizon / steps), size=(steps, dim_noise))


def _assert_keys_match(seed, lo, hi):
    keys = _stream_keys(seed, lo, hi)
    assert keys.dtype == np.uint64 and keys.shape == (hi - lo, 2)
    expected = np.array([_seed_sequence_key(seed, i) for i in range(lo, hi)])
    assert np.array_equal(keys, expected), (seed, lo, hi)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_stream_keys_match_seed_sequence(seed):
    for lo, hi in ((0, 600), (3990, 4100), (2**32 - 40, 2**32)):
        _assert_keys_match(seed, lo, hi)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**256 - 1),
    lo=st.integers(min_value=1, max_value=2**32 - 64),
    width=st.integers(min_value=1, max_value=64),
)
def test_stream_keys_match_seed_sequence_anywhere(seed, lo, width):
    _assert_keys_match(seed, lo, lo + width)


@pytest.mark.parametrize("steps", [1, 20, 80, 2**14])
@pytest.mark.parametrize("m", [1, 2])
def test_draws_match_seed_sequence_bitwise(steps, m):
    # 509..1029 spans the chunk boundaries at 512 and 1024; fewer paths on
    # the 2^14-step grid keep the block small
    lo, hi = (509, 1030) if steps <= 80 else (509, 517)
    block = analysis._stack_increments(SEED, lo, hi, steps, m, 2.0)
    expected = np.stack([_seed_sequence_draw(SEED, i, steps, m, 2.0) for i in range(lo, hi)])
    assert block.shape == (hi - lo, steps, m)
    assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))
    for i in (lo, 512, hi - 1):
        bundle = generate_paths(seed=SEED, path_index=i, steps_fine=steps, dim_noise=m, horizon=2.0)
        assert np.array_equal(bundle.increments.view(np.uint64), expected[i - lo].view(np.uint64))


def _restarted_draw(gen, key, steps, state):
    out = np.empty((steps, 1))
    assert _draw_increments(gen, key, out, state) is out
    return _scale_increments(out, steps, 1.0)


def test_restarted_generator_carries_no_state():
    # odd normal counts leave Philox's output buffer part-used
    gen = _generator()
    keys = _stream_keys(SEED, 40, 43).tolist()
    first = _restarted_draw(gen, keys[0], 3, _restart_state())
    second = _restarted_draw(gen, keys[2], 5, _restart_state())
    again = _restarted_draw(gen, keys[0], 7, _restart_state())
    assert np.array_equal(first, _seed_sequence_draw(SEED, 40, 3, 1, 1.0))
    assert np.array_equal(second, _restarted_draw(_generator(), keys[2], 5, _restart_state()))
    assert np.array_equal(second, _seed_sequence_draw(SEED, 42, 5, 1, 1.0))
    assert np.array_equal(again, _seed_sequence_draw(SEED, 40, 7, 1, 1.0))
    state = _restart_state()  # one dict restarts every stream of a slice
    assert np.array_equal(_restarted_draw(gen, keys[2], 5, state), second)
    assert np.array_equal(_restarted_draw(gen, keys[0], 7, state), again)
    assert np.array_equal(_restarted_draw(gen, keys[0], 3, state), first)


def test_concurrent_chunk_draws_match_sequential_ones():
    """Each chunk builds and restarts its own generator, so threads drawing
    chunks at once get the sequential blocks bit for bit."""
    ranges = [(lo, lo + 128) for lo in range(0, 128 * 32, 128)]
    expected = [analysis._stack_increments(SEED, lo, hi, 20, 2, 1.0) for lo, hi in ranges]
    got = [None] * len(ranges)
    workers = 4  # more than the two cores a small host has
    start = threading.Barrier(workers)

    def work(first):
        start.wait(timeout=30)
        for k in range(first, len(ranges), workers):
            got[k] = analysis._stack_increments(SEED, *ranges[k], 20, 2, 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for block, want in zip(got, expected):
        assert block is not None
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))


def test_scaling_a_zero_draw_gives_positive_zero():
    # Generator.normal(0.0, s) returns 0.0 + s * z, and 0.0 + (-0.0) is +0.0
    scale = np.sqrt(1.0 / 4)
    expected = 0.0 + scale * -0.0
    assert not np.signbit(expected)
    scaled = _scale_increments(np.array([[-0.0]]), 4, 1.0)
    assert scaled[0, 0] == 0.0 and not np.signbit(scaled[0, 0])
    assert np.array_equal(scaled.view(np.uint64), np.array([[expected]]).view(np.uint64))


# ------------------------------------------------------------------
# Distributional sanity (frozen seed, deterministic thresholds)
# ------------------------------------------------------------------

def test_increment_moments():
    h = 2.0**-10
    draws = np.concatenate(
        [
            generate_paths(seed=SEED, path_index=k, steps_fine=1000, dim_noise=1, horizon=1000 * h).increments[:, 0]
            for k in range(100)
        ]
    )
    n = draws.size
    assert n == 100_000
    assert abs(draws.mean()) < 4.0 * np.sqrt(h / n)
    assert abs(draws.var() - h) / h < 0.05


def test_increment_normality():
    scipy_stats = pytest.importorskip("scipy.stats")
    h = 2.0**-10
    draws = generate_paths(
        seed=SEED, path_index=0, steps_fine=10_000, dim_noise=1, horizon=10_000 * h
    ).increments[:, 0]
    stat, _ = scipy_stats.kstest(draws / np.sqrt(h), "norm")
    # 99% KS band for n = 1e4
    assert stat < 1.628 / np.sqrt(draws.size)


def test_cross_stream_correlation():
    a = generate_paths(seed=SEED, path_index=0, steps_fine=4096, dim_noise=1, horizon=4.0)
    b = generate_paths(seed=SEED, path_index=1, steps_fine=4096, dim_noise=1, horizon=4.0)
    corr = np.corrcoef(a.increments[:, 0], b.increments[:, 0])[0, 1]
    assert abs(corr) < 0.04


# ------------------------------------------------------------------
# Coarsening
# ------------------------------------------------------------------

def test_coarsen_telescopes():
    fine = generate_paths(seed=SEED, path_index=2, steps_fine=256, dim_noise=2, horizon=1.0)
    coarse = coarsen(fine, 4)
    assert coarse.steps_fine == 64
    assert coarse.step == pytest.approx(1.0 / 64)
    # block sums reproduce the coarse increments exactly
    manual = fine.increments.reshape(64, 4, 2).sum(axis=1)
    assert np.max(np.abs(coarse.increments - manual)) < 1e-12
    # total displacement is preserved
    assert np.max(np.abs(coarse.increments.sum(axis=0) - fine.increments.sum(axis=0))) < 1e-12


def test_coarsen_rejects_nondivisor():
    bundle = generate_paths(seed=1, path_index=0, steps_fine=10, dim_noise=1, horizon=1.0)
    with pytest.raises(ValueError, match="divide"):
        coarsen(bundle, 3)
    with pytest.raises(ValueError, match="factor"):
        coarsen(bundle, 0)


def test_coarsen_identity():
    bundle = generate_paths(seed=1, path_index=0, steps_fine=8, dim_noise=1, horizon=1.0)
    again = coarsen(bundle, 1)
    assert np.array_equal(again.increments, bundle.increments)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=3),
)
def test_coarsen_associativity(seed, m):
    bundle = generate_paths(seed=seed, path_index=0, steps_fine=32, dim_noise=m, horizon=1.0)
    two_stage = coarsen(coarsen(bundle, 2), 4)
    one_stage = coarsen(bundle, 8)
    assert two_stage.steps_fine == one_stage.steps_fine == 4
    assert np.max(np.abs(two_stage.increments - one_stage.increments)) < 1e-12


# ------------------------------------------------------------------
# Bundle records
# ------------------------------------------------------------------

def test_bundle_is_frozen():
    bundle = generate_paths(seed=1, path_index=0, steps_fine=4, dim_noise=1, horizon=1.0)
    with pytest.raises(AttributeError):
        bundle.seed = 2
    assert isinstance(bundle, PathBundle)
