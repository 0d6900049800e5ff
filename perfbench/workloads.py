"""Workload definitions: generated configs and closed-form work counts.

Every workload is one experiment config that the benchmark writes itself and
runs through the CLI entry (``cli.load_config`` + ``cli.run``). The seed is
the only input that varies between runs; everything else is fixed here.

Why these three:

converge
    Strong-error table on the unstable Ginzburg-Landau model: the paper's
    full-width grid (h = 2^-6..2^-11 against a 2^14-step reference) at a
    reduced path count. Bound by the step kernel, so a step or propagator
    change shows here.
converge-t2
    The same inputs at ``threads=2``. The only workload where chunk
    scheduling in ``analysis`` matters; its CSV bytes must equal those of
    ``converge``.
stability
    The shipped stability grid: many short streams (20-80 steps) and
    per-gridpoint moment accumulation. Dominated by per-stream generator
    set-up, so a draw-caching change shows here and a step-kernel change
    barely does.

The ``tiny`` size keeps the same structure (two chunks, every scheme) at a
fraction of the work; it exists for the benchmark's own smoke tests.
"""

from __future__ import annotations

import math

DEFAULT_SEED = 20260816
NAMES = ("converge", "converge-t2", "stability")

# Paths per work unit in tamedsde.analysis (CHUNK_PATHS); the closed-form
# counts below follow its fixed chunking.
CHUNK_PATHS = 512

CONVERGE_SCHEMES = ["semi-tamed-milstein", "semi-tamed-euler"]
ALL_SCHEMES = ["em", "tamed-euler", "semi-tamed-euler", "tamed-milstein", "semi-tamed-milstein"]
MILSTEIN = {"tamed-milstein", "semi-tamed-milstein"}

# Acceptance bounds on the fitted strong orders (paper criteria 1 and 2).
ORDER_BOUNDS = {"semi-tamed-milstein": (0.85, 1.15), "semi-tamed-euler": (0.35, 0.65)}

# Structural constants of ginzburg-landau-stable, as in configs/stability_grid.json.
# They give h* = min(h1, h2) = min(0.25, 2/3) = 0.25; below it the semi-tamed
# Milstein second moment must contract.
STABILITY_PARAMS = {
    "rho": 2.0, "theta": math.sqrt(2.0), "lip_K": 2.0, "beta": 2.0,
    "v": 1.0, "v_bar": 1.0, "alpha": 5.0, "m": 1,
}
H_STAR = 0.25

_SIZES = {
    # converge: (paths, finest stepsize exponent, reference steps) with
    # stepsizes 2^-6 down to the finest; stability: paths
    "full": {"converge": (1024, 11, 2**14), "stability": 5000},
    "tiny": {"converge": (600, 9, 2**12), "stability": 600},
}


def threads_for(name: str) -> int:
    return 2 if name == "converge-t2" else 1


def config_document(name: str, seed: int, size: str, output_dir: str) -> dict:
    """The experiment config a workload runs, as a JSON-ready dict."""
    if name != "stability":
        paths, finest, reference = _SIZES[size]["converge"]
        return {
            "kind": "converge",
            "model": "ginzburg-landau-unstable",
            "schemes": CONVERGE_SCHEMES,
            "stepsizes": [2.0**-k for k in range(6, finest + 1)],
            "paths": paths,
            "seed": seed,
            "reference_steps": reference,
            "reference_scheme": "semi-tamed-milstein",
            "output_dir": output_dir,
        }
    return {
        "kind": "stability",
        "model": "ginzburg-landau-stable",
        "schemes": ALL_SCHEMES,
        "stepsizes": [0.25, 0.125, 0.0625],
        "paths": _SIZES[size]["stability"],
        "seed": seed,
        "stability_params": STABILITY_PARAMS,
        "output_dir": output_dir,
    }


def grid_steps(horizon: float, h: float) -> int:
    return int(round(horizon / h))


def expected_counts(doc: dict, horizon: float, dim_noise: int) -> dict:
    """Closed-form work counts of one pass of ``doc``.

    Keys match the tracer's exact counters: ``paths.draw_calls``,
    ``paths.normals``, ``analysis.chunks``, ``model.coeff_calls``,
    ``schemes.step_calls.<scheme>`` and ``schemes.path_steps.<scheme>``.
    Coefficient calls per step: phi, varphi and one diffusion column per
    noise, plus one derivative product per unordered noise pair for the
    Milstein schemes.
    """
    paths = doc["paths"]
    chunks = math.ceil(paths / CHUNK_PATHS)
    steps = [grid_steps(horizon, h) for h in doc["stepsizes"]]
    step_calls = {s: 0 for s in ALL_SCHEMES}
    path_steps = {s: 0 for s in ALL_SCHEMES}
    if doc["kind"] == "converge":
        fans = 1
        draws = paths
        normals = paths * doc["reference_steps"] * dim_noise
        ref = doc["reference_scheme"]
        step_calls[ref] += chunks * doc["reference_steps"]
        path_steps[ref] += paths * doc["reference_steps"]
        for scheme in doc["schemes"]:
            step_calls[scheme] += chunks * sum(steps)
            path_steps[scheme] += paths * sum(steps)
    else:
        fans = len(doc["schemes"]) * len(steps)
        draws = fans * paths
        normals = len(doc["schemes"]) * paths * sum(steps) * dim_noise
        for scheme in doc["schemes"]:
            step_calls[scheme] += chunks * sum(steps)
            path_steps[scheme] += paths * sum(steps)
    per_step = {
        s: 2 + dim_noise + (dim_noise * (dim_noise + 1) // 2 if s in MILSTEIN else 0)
        for s in ALL_SCHEMES
    }
    counts = {
        "paths.draw_calls": draws,
        "paths.normals": normals,
        "analysis.chunks": fans * chunks,
        "model.coeff_calls": sum(step_calls[s] * per_step[s] for s in ALL_SCHEMES),
    }
    for s in ALL_SCHEMES:
        counts[f"schemes.step_calls.{s}"] = step_calls[s]
        counts[f"schemes.path_steps.{s}"] = path_steps[s]
    return counts
