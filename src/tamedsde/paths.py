"""Reproducible Brownian increments on nested time grids.

Monte Carlo drivers need two things from the noise source: independent
streams per sample path that do not depend on execution order, and coupled
coarse/fine views of the same Brownian path so a study scheme on a coarse
grid can be compared against a reference scheme on a fine grid of the same
realization.

Streams are counter-based: path ``i`` of seed ``s`` draws from a Philox
generator whose 128-bit key is bit-identical to the one numpy derives from
``SeedSequence(entropy=s, spawn_key=(i,))``, so any subset of paths can be
generated in any order, bit-exactly. A Philox stream is fully set by its key,
so the keys of a whole range of paths are derived in one vectorized pass of
numpy's seed-sequence hashing, and a single generator is restarted per path
by setting its state. Each path's standard normals are drawn straight into
its row of one block, and the block is scaled once, bit-identical to
drawing ``normal(0, sqrt(h))`` per path. Path indices lie in
``[0, 2**32)``: the derivation covers spawn keys of one 32-bit word.
Coarsening sums blocks of fine increments, which is exactly the restriction
of the same Brownian path to the coarser grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["PathBundle", "generate_paths", "coarsen"]


@dataclass(frozen=True)
class PathBundle:
    """Brownian increments of one sample path on a uniform grid.

    ``increments[n, j]`` is the j-th Brownian component's increment over
    ``[n*h, (n+1)*h]`` with ``h = horizon / steps_fine``; each entry is
    N(0, h).
    """

    seed: int
    path_index: int
    horizon: float
    steps_fine: int
    dim_noise: int
    increments: np.ndarray

    @property
    def step(self) -> float:
        return self.horizon / self.steps_fine


# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MAX_PATHS = 2**32  # path indices are one 32-bit spawn word


def _stream_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of paths ``lo..hi-1``, shape ``(hi - lo, 2)`` uint64.

    Row ``k`` equals the key of ``Philox(SeedSequence(entropy=seed,
    spawn_key=(lo + k,)))``. Mixing the seed alone gives the pool that the
    spawned sequence holds before its spawn word (padding the seed with
    zeros to the pool size leaves the pool unchanged), and the hash constant
    then depends only on how often it has been used, so the spawn word's
    ``hashmix`` + ``mix`` into each pool word and ``generate_state``'s
    output hashing vectorize over the path indices.
    """
    pool = np.random.SeedSequence(entropy=seed).pool
    words = max(1, -(-operator.index(seed).bit_length() // 32))
    uses = 4 * _POOL_SIZE + 4 * max(0, words - _POOL_SIZE)
    index = np.arange(lo, hi, dtype=np.uint32)
    hash_a = _INIT_A * pow(_MULT_A, uses, 2**32) & _MASK32
    hash_b = _INIT_B
    state = np.empty((hi - lo, _POOL_SIZE), dtype=np.uint32)
    for w in range(_POOL_SIZE):
        # hashmix(index) against the pool word's hash constant, then mix
        value = index ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value *= np.uint32(hash_a)
        value ^= value >> np.uint32(16)
        pool_term = np.uint32(_MIX_MULT_L * int(pool[w]) & _MASK32)
        mixed = pool_term - np.uint32(_MIX_MULT_R) * value
        mixed ^= mixed >> np.uint32(16)
        # generate_state: one output word per pool word
        mixed ^= np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        mixed *= np.uint32(hash_b)
        mixed ^= mixed >> np.uint32(16)
        state[:, w] = mixed
    wide = state.astype(np.uint64)
    return wide[:, 0::2] | wide[:, 1::2] << np.uint64(32)  # low word first


def _generator() -> np.random.Generator:
    """A reusable Philox generator; :func:`_draw_increments` sets its state."""
    return np.random.Generator(np.random.Philox(0))  # fixed seed: no OS entropy


def _restart_state() -> dict:
    """A Philox state dict at counter 0 with an empty buffer and no key yet.

    This is exactly the state of a Philox freshly built from a stream's seed
    sequence, once the stream's key is put in ``["state"]["key"]``. Setting
    ``bit_generator.state`` copies the values out at once, so one dict can
    restart any number of streams on one thread.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_increments(
    gen: np.random.Generator, key, out: np.ndarray, state: dict
) -> np.ndarray:
    """Fill ``out`` with the standard normals of the stream with Philox ``key``.

    ``key`` is the stream's two key words, ideally as Python ints (numpy
    converts an array row element by element). ``gen`` is restarted from
    ``state``, a :func:`_restart_state` dict whose key is swapped for
    ``key``, so nothing carries over from the stream drawn before. A caller
    drawing many streams passes one dict for all of them, which saves
    building it per stream. :func:`_scale_increments` turns the normals into
    increments.
    """
    state["state"]["key"] = key
    gen.bit_generator.state = state
    return gen.standard_normal(out=out)


def _scale_increments(z: np.ndarray, steps: int, horizon: float) -> np.ndarray:
    """Scale standard normals in place into N(0, horizon/steps) increments.

    ``Generator.normal(0.0, s)`` returns ``0.0 + s * z`` per element, so
    this equals it bitwise; adding the zero last turns a ``-0.0`` product
    into ``+0.0`` as that formula does.
    """
    z *= math.sqrt(horizon / steps)
    z += 0.0
    return z


def generate_paths(
    seed: int, path_index: int, steps_fine: int, dim_noise: int, horizon: float
) -> PathBundle:
    """Generate the increments of one path as a deterministic function of
    ``(seed, path_index)``.

    Raises
    ------
    TypeError
        If the seed or path index is not an integer.
    ValueError
        If ``steps_fine < 1``, ``dim_noise < 1``, ``horizon`` is not finite
        and positive, the seed or path index is negative, or
        ``path_index >= 2**32``.
    """
    if steps_fine < 1:
        raise ValueError(f"steps_fine must be >= 1, got {steps_fine}")
    if dim_noise < 1:
        raise ValueError(f"dim_noise must be >= 1, got {dim_noise}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be a finite positive real, got {horizon}")
    seed, path_index = operator.index(seed), operator.index(path_index)
    if seed < 0 or path_index < 0:
        raise ValueError("seed and path_index must be nonnegative integers")
    if path_index >= _MAX_PATHS:
        raise ValueError(f"path_index must be below 2**32, got {path_index}")
    key = _stream_keys(seed, path_index, path_index + 1).tolist()[0]
    increments = np.empty((steps_fine, dim_noise))
    _draw_increments(_generator(), key, increments, _restart_state())
    _scale_increments(increments, steps_fine, horizon)
    return PathBundle(
        seed=seed,
        path_index=path_index,
        horizon=float(horizon),
        steps_fine=int(steps_fine),
        dim_noise=int(dim_noise),
        increments=increments,
    )


def _coarsen_increments(
    increments: np.ndarray, factor: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sum blocks of ``factor`` consecutive steps of a (..., steps, m) array,
    into ``out`` if given."""
    *lead, steps, m = increments.shape
    return increments.reshape(*lead, steps // factor, factor, m).sum(axis=-2, out=out)


def coarsen(bundle: PathBundle, factor: int) -> PathBundle:
    """Restrict a bundle to a grid ``factor`` times coarser.

    Row ``k`` of the result is the sum of fine rows ``k*factor`` through
    ``(k+1)*factor - 1``: the same Brownian path seen on fewer gridpoints.
    ``factor`` must divide the bundle's step count exactly.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if bundle.steps_fine % factor != 0:
        raise ValueError(
            f"factor {factor} does not divide steps_fine={bundle.steps_fine}"
        )
    if factor == 1:
        return bundle
    return PathBundle(
        seed=bundle.seed,
        path_index=bundle.path_index,
        horizon=bundle.horizon,
        steps_fine=bundle.steps_fine // factor,
        dim_noise=bundle.dim_noise,
        increments=_coarsen_increments(bundle.increments, factor),
    )

