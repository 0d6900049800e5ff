"""Reproducible Brownian increments on nested time grids.

Monte Carlo drivers need two things from the noise source: independent
streams per sample path that do not depend on execution order, and coupled
coarse/fine views of the same Brownian path so a study scheme on a coarse
grid can be compared against a reference scheme on a fine grid of the same
realization.

Streams are counter-based: path ``i`` of seed ``s`` draws from a Philox
generator keyed by ``SeedSequence(entropy=s, spawn_key=(i,))``, so any
subset of paths can be generated in any order, bit-exactly. Coarsening sums
blocks of fine increments, which is exactly the restriction of the same
Brownian path to the coarser grid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["PathBundle", "generate_paths", "coarsen", "dump_bundle", "load_bundle"]

_MAGIC = b"STMLPATH"
_HEADER = struct.Struct("<8sQIId")  # magic, seed, steps, noise dim, horizon


@dataclass(frozen=True)
class PathBundle:
    """Brownian increments of one sample path on a uniform grid.

    ``increments[n, j]`` is the j-th Brownian component's increment over
    ``[n*h, (n+1)*h]`` with ``h = horizon / steps_fine``; each entry is
    N(0, h). ``coarse_factor`` records how many original fine steps one
    row of this bundle aggregates (1 for freshly generated bundles).
    """

    seed: int
    path_index: int
    horizon: float
    steps_fine: int
    dim_noise: int
    increments: np.ndarray
    coarse_factor: int = 1

    @property
    def step(self) -> float:
        return self.horizon / self.steps_fine


def _draw_increments(
    seed: int, path_index: int, steps: int, dim_noise: int, horizon: float
) -> np.ndarray:
    """The (steps, dim_noise) increment block for one (seed, path) stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    gen = np.random.Generator(np.random.Philox(ss))
    scale = np.sqrt(horizon / steps)
    return gen.normal(loc=0.0, scale=scale, size=(steps, dim_noise))


def generate_paths(
    seed: int, path_index: int, steps_fine: int, dim_noise: int, horizon: float
) -> PathBundle:
    """Generate the increments of one path as a deterministic function of
    ``(seed, path_index)``.

    Raises
    ------
    ValueError
        If ``steps_fine < 1``, ``dim_noise < 1``, ``horizon <= 0`` or the
        seed/path index are negative.
    """
    if steps_fine < 1:
        raise ValueError(f"steps_fine must be >= 1, got {steps_fine}")
    if dim_noise < 1:
        raise ValueError(f"dim_noise must be >= 1, got {dim_noise}")
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if seed < 0 or path_index < 0:
        raise ValueError("seed and path_index must be nonnegative integers")
    increments = _draw_increments(seed, path_index, steps_fine, dim_noise, horizon)
    return PathBundle(
        seed=int(seed),
        path_index=int(path_index),
        horizon=float(horizon),
        steps_fine=int(steps_fine),
        dim_noise=int(dim_noise),
        increments=increments,
    )


def _coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum blocks of ``factor`` consecutive steps of a (..., steps, m) array."""
    *lead, steps, m = increments.shape
    return increments.reshape(*lead, steps // factor, factor, m).sum(axis=-2)


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
        coarse_factor=bundle.coarse_factor * factor,
    )


def dump_bundle(bundle: PathBundle, path: str) -> None:
    """Write a bundle to a flat binary file (debugging aid).

    Layout: a 32-byte header (magic ``STMLPATH``, seed as u64, step count
    as u32, noise dimension as u32, horizon as f64, all little-endian)
    followed by the increments as row-major little-endian float64. The
    header carries grid metadata only; path index and coarsening factor
    are not persisted.
    """
    header = _HEADER.pack(
        _MAGIC,
        bundle.seed,
        bundle.steps_fine,
        bundle.dim_noise,
        bundle.horizon,
    )
    payload = np.ascontiguousarray(bundle.increments, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_bundle(path: str) -> PathBundle:
    """Read a bundle written by :func:`dump_bundle`, bit-exactly."""
    with open(path, "rb") as fh:
        raw_header = fh.read(_HEADER.size)
        if len(raw_header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, seed, steps, dim_noise, horizon = _HEADER.unpack(raw_header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        payload = fh.read()
    expected = steps * dim_noise * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    increments = np.frombuffer(payload, dtype="<f8").reshape(steps, dim_noise).copy()
    return PathBundle(
        seed=seed,
        path_index=0,
        horizon=horizon,
        steps_fine=steps,
        dim_noise=dim_noise,
        increments=increments,
    )
