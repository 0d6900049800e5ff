"""Config parsing with line-anchored errors, runners, byte-stable outputs."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tamedsde
from tamedsde import cli
from tamedsde.analysis import StabilityThreshold
from tamedsde.cli import KINDS, ConfigError, load_config, main, run
from tamedsde.model import SdeProblem

from conftest import SEED

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path: Path, payload, name: str = "exp.json") -> str:
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def line_of(path: str, needle: str) -> int:
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


def converge_payload(**overrides):
    payload = {
        "kind": "converge",
        "model": "ginzburg-landau-unstable",
        "schemes": ["semi-tamed-milstein", "semi-tamed-euler"],
        "stepsizes": [0.25, 0.125, 0.0625],
        "paths": 600,
        "seed": SEED,
    }
    payload.update(overrides)
    return payload


# ------------------------------------------------------------------
# load_config
# ------------------------------------------------------------------

def test_load_converge_config(tmp_path):
    path = write_config(tmp_path, converge_payload(reference_steps=128))
    cfg = load_config(path)
    assert cfg.kind == "converge"
    assert cfg.model == "ginzburg-landau-unstable"
    assert cfg.schemes == ["semi-tamed-milstein", "semi-tamed-euler"]
    assert cfg.stepsizes == [0.25, 0.125, 0.0625]
    assert cfg.paths == 600
    assert cfg.seed == SEED
    assert cfg.reference_steps == 128
    assert cfg.reference_scheme == "semi-tamed-milstein"
    assert cfg.output_dir is None
    assert cfg.gnuplot is False


def test_stepsize_range_descending(tmp_path):
    path = write_config(tmp_path, converge_payload(stepsizes="2^-2..2^-4"))
    cfg = load_config(path)
    assert cfg.stepsizes == [0.25, 0.125, 0.0625]


def test_stepsize_range_ascending(tmp_path):
    path = write_config(tmp_path, converge_payload(stepsizes="2^-4 .. 2^-2"))
    cfg = load_config(path)
    assert cfg.stepsizes == [0.0625, 0.125, 0.25]


def test_bad_range_string(tmp_path):
    path = write_config(tmp_path, converge_payload(stepsizes="h/2..h/8"))
    with pytest.raises(ConfigError, match="cannot parse stepsize range"):
        load_config(path)


def test_invalid_json_reports_line(tmp_path):
    path = write_config(tmp_path, '{\n  "kind": "check",\n  model: 3\n}\n')
    with pytest.raises(ConfigError, match=rf"{path}:3: invalid JSON"):
        load_config(path)


def test_non_object_document(tmp_path):
    path = write_config(tmp_path, "[1, 2, 3]\n")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(path)


def test_missing_kind(tmp_path):
    path = write_config(tmp_path, {"model": "ginzburg-landau-stable"})
    with pytest.raises(ConfigError, match='missing required key "kind"'):
        load_config(path)


def test_unknown_kind_lists_valid(tmp_path):
    path = write_config(tmp_path, {"kind": "frobnicate"})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    for kind in KINDS:
        assert kind in str(err.value)


def test_unknown_key_is_line_anchored(tmp_path):
    path = write_config(tmp_path, converge_payload(bogus=3))
    lineno = line_of(path, '"bogus"')
    with pytest.raises(ConfigError, match=rf"{path}:{lineno}: unknown key 'bogus'"):
        load_config(path)


def test_missing_required_key(tmp_path):
    payload = converge_payload()
    del payload["paths"]
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match="requires key 'paths'"):
        load_config(path)


def test_unknown_model_lists_names(tmp_path):
    path = write_config(tmp_path, converge_payload(model="heston"))
    with pytest.raises(ConfigError, match="ginzburg-landau-stable"):
        load_config(path)


def test_unknown_scheme_rejected(tmp_path):
    path = write_config(tmp_path, converge_payload(schemes=["runge-kutta"]))
    lineno = line_of(path, '"schemes"')
    with pytest.raises(ConfigError, match=rf"{path}:{lineno}.*unknown scheme"):
        load_config(path)


@pytest.mark.parametrize(
    "payload, anchor, message",
    [
        (lambda: converge_payload(horizon=0), "horizon", "horizon must be positive, got 0"),
        (
            lambda: {"kind": "check", "model": "ginzburg-landau-stable", "gamma": -1.0},
            "gamma",
            "gamma must be positive, got -1.0",
        ),
        (lambda: converge_payload(model=3), "model", "model must be a string, got 3"),
        (
            lambda: converge_payload(schemes=[]),
            "schemes",
            "schemes must be a nonempty list of scheme names",
        ),
        (
            lambda: converge_payload(schemes="em"),
            "schemes",
            "schemes must be a nonempty list of scheme names",
        ),
        (
            lambda: converge_payload(stepsizes=[0.25, "0.1"]),
            "stepsizes",
            "stepsizes entries must be finite positive reals, got '0.1'",
        ),
        (
            lambda: converge_payload(reference_scheme="rk4"),
            "reference_scheme",
            "unknown scheme 'rk4'; valid names: em, tamed-euler, semi-tamed-euler, "
            "tamed-milstein, semi-tamed-milstein",
        ),
        (
            lambda: threshold_payload(stability_params=[1]),
            "stability_params",
            "stability_params must be an object",
        ),
        (
            lambda: threshold_payload(
                stability_params={**threshold_payload()["stability_params"], "rho": "2"}
            ),
            "rho",
            "stability_params.rho must be a number",
        ),
        (
            lambda: {"kind": "check", "model": "ginzburg-landau-stable", "tolerance": 1e-3},
            "tolerance",
            "unknown key 'tolerance' for kind 'check'",
        ),
    ],
    ids=[
        "horizon-zero",
        "gamma-negative",
        "model-not-a-string",
        "schemes-empty",
        "schemes-a-string",
        "stepsizes-string-entry",
        "reference-scheme-unknown",
        "stability-params-a-list",
        "param-a-string",
        "check-tolerance",
    ],
)
def test_invalid_values_rejected_at_their_line(tmp_path, payload, anchor, message):
    path = write_config(tmp_path, payload())
    lineno = line_of(path, f'"{anchor}"')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"


def test_run_refuses_an_unknown_kind(tmp_path):
    """A hand-built config of an unknown kind is refused before its output
    directory is made."""
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        run(cli.ExperimentConfig(kind="bogus", output_dir=str(out)))
    assert str(err.value) == "<config>: unknown kind 'bogus'"
    assert not out.exists()


def test_boolean_is_not_a_number(tmp_path):
    path = write_config(tmp_path, converge_payload(paths=True))
    with pytest.raises(ConfigError, match="paths must be a number"):
        load_config(path)


def test_fractional_paths_rejected(tmp_path):
    path = write_config(tmp_path, converge_payload(paths=10.5))
    with pytest.raises(ConfigError, match="paths must be an integer"):
        load_config(path)


def test_paths_bounded_by_stream_indices(tmp_path):
    """Path indices are one 32-bit spawn word, so 2**32 paths is the most."""
    assert load_config(write_config(tmp_path, converge_payload(paths=2**32))).paths == 2**32
    for raw, shown in ((2**32 + 1, "4294967297"), (1e20, "1e+20")):
        path = write_config(tmp_path, converge_payload(paths=raw))
        lineno = line_of(path, '"paths"')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:{lineno}: paths must be <= 4294967296, got {shown}"


@pytest.mark.parametrize("kind", ["converge", "stability", "simulate"])
def test_repeated_scheme_rejected(tmp_path, capsys, kind):
    """A scheme listed twice would run and be written twice; it fails at load."""
    out = tmp_path / "out"
    payload = converge_payload(kind=kind, schemes=["em", "semi-tamed-euler", "em"])
    path = write_config(tmp_path, {**payload, "output_dir": str(out)})
    lineno = line_of(path, '"schemes"')
    assert main([kind, "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:{lineno}: schemes lists 'em' more than once\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("kind", ["converge", "stability", "simulate", "threshold"])
def test_repeated_stepsize_rejected(tmp_path, capsys, kind):
    """A stepsize listed twice would be run and written twice (converge
    dropped the repeat); it fails at load, compared as a float."""
    out = tmp_path / "out"
    if kind == "threshold":
        payload = threshold_payload(stepsizes=[0.25, 0.125, 0.25])
    else:
        payload = converge_payload(kind=kind, stepsizes=[0.25, 0.125, 0.25], paths=2)
    path = write_config(tmp_path, {**payload, "output_dir": str(out)})
    lineno = line_of(path, '"stepsizes"')
    assert main([kind, "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:{lineno}: stepsizes lists 0.25 more than once\n"
    )
    assert not out.exists()
    path = write_config(tmp_path, {**payload, "stepsizes": [1, 0.5, 1.0]})
    with pytest.raises(ConfigError, match="stepsizes lists 1.0 more than once"):
        load_config(path)


def test_check_config_refuses_horizon(tmp_path, capsys):
    """The checks sample states, not a time grid, so a check config has no
    horizon to set."""
    out = tmp_path / "out"
    payload = {"kind": "check", "model": "ginzburg-landau-stable", "horizon": 2.0}
    path = write_config(tmp_path, {**payload, "output_dir": str(out)})
    lineno = line_of(path, '"horizon"')
    assert main(["check", "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:{lineno}: unknown key 'horizon' for kind 'check'\n"
    )
    assert not out.exists()


def test_negative_stepsize_rejected(tmp_path):
    path = write_config(tmp_path, converge_payload(stepsizes=[0.25, -0.125]))
    with pytest.raises(ConfigError, match="positive reals"):
        load_config(path)


def test_empty_stepsizes_rejected(tmp_path):
    path = write_config(tmp_path, converge_payload(stepsizes=[]))
    with pytest.raises(ConfigError, match="nonempty"):
        load_config(path)


@pytest.mark.parametrize(
    "stepsizes, shown",
    [
        ('"2^1100..2^1101"', "2^1100"),  # beyond float range
        ('"2^-1074..2^-1076"', "2^-1075"),  # underflows to zero
        ("[1e400, 0.125]", "inf"),  # JSON reads 1e400 as inf
        ("[0.125, " + str(10**400) + "]", str(10**400)),  # an int beyond float range
        ("[0.125, NaN]", "nan"),
    ],
    ids=["range-overflow", "range-underflow", "list-inf", "list-huge-int", "list-nan"],
)
def test_nonfinite_or_zero_stepsizes_rejected(tmp_path, capsys, stepsizes, shown):
    """Both stepsize forms get one check: finite and positive, else exit 2
    with the message anchored at the stepsizes key."""
    payload = threshold_payload(output_dir=str(tmp_path / "out"), stepsizes="@")
    text = json.dumps(payload, indent=2).replace('"@"', stepsizes)
    path = write_config(tmp_path, text)
    lineno = line_of(path, '"stepsizes"')
    with pytest.raises(ConfigError, match=rf"{path}:{lineno}: .*finite positive") as err:
        load_config(path)
    assert str(err.value).endswith(f"got {shown}")
    assert main(["threshold", "--config", path]) == 2
    assert f"{path}:{lineno}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stepsize_range_keeps_subnormals(tmp_path, capsys):
    """load_config keeps a subnormal stepsize; a kind that steps refuses it,
    since horizon / stepsize overflows, at its line with exit 2."""
    path = write_config(tmp_path, threshold_payload(stepsizes="2^-1073..2^-1074"))
    assert load_config(path).stepsizes == [2.0**-1073, 2.0**-1074]
    out = tmp_path / "out"
    for stepsizes, shown in (([1e-320], "1e-320"), ("2^-1074..2^-1074", "5e-324")):
        payload = converge_payload(kind="stability", stepsizes=stepsizes, output_dir=str(out))
        path = write_config(tmp_path, payload)
        lineno = line_of(path, '"stepsizes"')
        assert main(["stability", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:{lineno}: stepsize {shown} is too small"
        )
        assert not out.exists()


def test_a_block_numpy_cannot_index_is_a_config_error(tmp_path, capsys):
    """A grid whose increment block, min(paths, CHUNK_PATHS) x steps x m
    float64s (one path for simulate), exceeds numpy's index range is refused
    at the line that set its steps, with exit 2 and no directory."""
    out = tmp_path / "out"
    cases = [
        # 5e300 steps: no array has that many rows
        ("stability", converge_payload(kind="stability", stepsizes=[1e-300]), "stepsizes"),
        ("simulate", converge_payload(kind="simulate", stepsizes=[1e-300]), "stepsizes"),
        # 2^61 steps for 512 paths is 2^73 bytes
        ("converge", converge_payload(reference_steps=2**61), "reference_steps"),
        # the default reference is 8 x 2^61 steps, 2^64 bytes even for one path
        ("converge", converge_payload(stepsizes=[2.0**-60, 2.0**-61], paths=1), "stepsizes"),
    ]
    for kind, payload, key in cases:
        path = write_config(tmp_path, {**payload, "output_dir": str(out)})
        assert main([kind, "--config", path]) == 2
        err = capsys.readouterr().err
        lineno = line_of(path, f'"{key}"')
        assert err.startswith(f"error: {path}:{lineno}: ")
        assert "more than numpy can index" in err
        assert not out.exists()
    # one 2^59-step path is 2^62 bytes: simulate passes the check, where a
    # stability chunk of two paths would not
    payload = converge_payload(kind="simulate", stepsizes=[2.0**-59], paths=2)
    problem = cli.builtin_problem(payload["model"])
    cli._validate_grid(load_config(write_config(tmp_path, payload)), problem)
    payload["kind"] = "stability"
    with pytest.raises(ConfigError, match="more than numpy can index"):
        cli._validate_grid(load_config(write_config(tmp_path, payload)), problem)


@pytest.mark.parametrize(
    "payload, key, raw, message",
    [
        (converge_payload(), "horizon", str(10**400), "horizon must be finite"),
        (converge_payload(), "horizon", "Infinity", "horizon must be finite"),
        (
            {"kind": "check", "model": "ginzburg-landau-stable"},
            "sample_low",
            "NaN",
            "sample_low must be finite",
        ),
    ],
    ids=["horizon-huge-int", "horizon-inf", "sample-low-nan"],
)
def test_nonfinite_reals_rejected(tmp_path, payload, key, raw, message):
    payload = {**payload, key: "@"}
    path = write_config(tmp_path, json.dumps(payload, indent=2).replace('"@"', raw))
    lineno = line_of(path, f'"{key}"')
    with pytest.raises(ConfigError, match=rf"{path}:{lineno}: {message}"):
        load_config(path)


def test_param_block_huge_values(tmp_path):
    payload = threshold_payload()
    payload["stability_params"]["rho"] = 10**400
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match="invalid stability_params: rho must be finite"):
        load_config(path)
    payload["stability_params"].update(rho=2.0, m=2.5)
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match="m must be an integer"):
        load_config(path)


def test_param_block_unknown_key_anchored(tmp_path):
    payload = {
        "kind": "threshold",
        "stability_params": {
            "rho": 2.0,
            "theta": 1.0,
            "lip_K": 2.0,
            "beta": 2.0,
            "v": 1.0,
            "v_bar": 1.0,
            "alpha": 5.0,
            "m": 1,
            "zeta": 9.0,
        },
    }
    path = write_config(tmp_path, payload)
    lineno = line_of(path, '"zeta"')
    with pytest.raises(ConfigError, match=rf"{path}:{lineno}.*'zeta'"):
        load_config(path)


def test_param_block_missing_keys(tmp_path):
    payload = {"kind": "threshold", "stability_params": {"rho": 2.0}}
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match="missing keys: alpha, beta"):
        load_config(path)


def test_param_block_invalid_values(tmp_path):
    payload = {
        "kind": "threshold",
        "stability_params": {
            "rho": -1.0,
            "theta": 1.0,
            "lip_K": 2.0,
            "beta": 2.0,
            "v": 1.0,
            "v_bar": 1.0,
            "alpha": 5.0,
            "m": 1,
        },
    }
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match="invalid stability_params.*rho"):
        load_config(path)


def test_sample_bounds_ordering(tmp_path):
    payload = {
        "kind": "check",
        "model": "ginzburg-landau-stable",
        "sample_low": 1.0,
        "sample_high": -1.0,
    }
    path = write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match="sample_high must exceed sample_low"):
        load_config(path)


def test_gnuplot_must_be_boolean(tmp_path):
    path = write_config(tmp_path, converge_payload(gnuplot="yes"))
    with pytest.raises(ConfigError, match="gnuplot must be a boolean"):
        load_config(path)


def test_shipped_configs_parse():
    configs = sorted((REPO / "configs").glob("*.json"))
    assert configs
    for config in configs:
        cfg = load_config(str(config))
        assert cfg.kind in KINDS


@pytest.mark.parametrize("config", ["stability_grid.json", "threshold_stable.json"])
def test_shipped_stability_params_equal_the_fixture(config, stable_params):
    """The hand-typed constants of the shipped configs are the tested ones."""
    assert load_config(str(REPO / "configs" / config)).stability_params == stable_params


def _run_experiments_script():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", REPO / "scripts" / "run_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = _run_experiments_script()


def _output_dir(config: str) -> Path:
    return Path(json.loads((REPO / "configs" / config).read_text())["output_dir"])


# Every committed result directory, from the script that writes results/:
# (subcommand, config under configs/, name under results/)
COMMITTED_RESULTS = [
    (kind, config, _output_dir(config).name) for kind, config in SCRIPT.DESK_JOBS
]


def test_job_list_covers_configs_and_results():
    """Every shipped config is a job of the script, and every directory
    under results/ is the output of a desk job."""
    jobs = SCRIPT.DESK_JOBS + [SCRIPT.FULL_JOB]
    assert sorted(config for _, config in jobs) == sorted(
        p.name for p in (REPO / "configs").glob("*.json")
    )
    for kind, config in jobs:
        assert load_config(str(REPO / "configs" / config)).kind == kind
    for _, config in SCRIPT.DESK_JOBS:
        assert _output_dir(config).parent == Path("results")
    assert sorted(p.name for p in (REPO / "results").iterdir()) == sorted(
        name for *_, name in COMMITTED_RESULTS
    )


def test_script_reports_how_a_result_file_changed():
    describe = SCRIPT.describe_change
    old = b"scheme,h,t\nem,0.25,2.0e-300\nh1=0.25 x=inf\n"
    assert describe(None, old) == "new file"
    assert describe(old, old) == "unchanged"
    moved = b"scheme,h,t\nem,0.25,2.2e-300\nh1=0.25 x=inf\n"
    assert describe(old, moved) == "changed, largest relative change of a number 0.1"
    assert describe(old, old.replace(b"h1", b"h2")) == "changed beyond its numbers"
    assert describe(old, old.replace(b"inf", b"1.0")).endswith("number inf")


@pytest.mark.parametrize(
    "kind, config, name", COMMITTED_RESULTS, ids=[name for *_, name in COMMITTED_RESULTS]
)
def test_committed_results_reproduce(tmp_path, kind, config, name):
    out = tmp_path / name
    assert main([kind, "--config", str(REPO / "configs" / config), "--out", str(out)]) == 0
    expected = REPO / "results" / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


_FIT_SCRIPT = """
import csv, sys
from tamedsde import fit_power_law
rows = list(csv.DictReader(open(sys.argv[1])))
for scheme in dict.fromkeys(row["scheme"] for row in rows):
    own = [row for row in rows if row["scheme"] == scheme]
    print(scheme, fit_power_law([float(r["h"]) for r in own], [float(r["rms_error"]) for r in own]))
"""


def _cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as fh:
            return re.search(r"\bavx2\b", fh.read()) is not None
    except OSError:
        return False


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_committed_fit_does_not_depend_on_the_blas_kernel(monkeypatch):
    """The smoke study's fits, each in a fresh process with OpenBLAS left to
    pick its kernel or forced to another, print the same bytes."""
    csv_path = str(REPO / "results" / "convergence_smoke" / "convergence.csv")
    outputs = []
    for core in [None, "Prescott"] + (["Haswell"] if _cpu_has_avx2() else []):
        if core is None:
            monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_CORETYPE", core)
        proc = _run_python("-c", _FIT_SCRIPT, csv_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "semi-tamed-milstein PowerLawFit(order=" in outputs[0]
    assert outputs == [outputs[0]] * len(outputs)


# ------------------------------------------------------------------
# run(): converge
# ------------------------------------------------------------------

def test_converge_outputs(tmp_path):
    path = write_config(
        tmp_path,
        converge_payload(
            reference_steps=128,
            output_dir=str(tmp_path / "out"),
            gnuplot=True,
        ),
    )
    written = run(load_config(path))
    names = [Path(p).name for p in written]
    assert names == ["convergence.csv", "fit.txt", "convergence.gp"]

    csv_lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert csv_lines[0] == "scheme,h,rms_error,stderr,excluded_paths"
    assert len(csv_lines) == 1 + 2 * 3
    first = csv_lines[1].split(",")
    assert first[0] == "semi-tamed-milstein"
    assert first[1] == "0.25"
    assert float(first[2]) > 0
    assert float(first[3]) > 0
    assert first[4] == "0"
    # scheme blocks follow config order; stepsizes descend within a block
    assert [row.split(",")[0] for row in csv_lines[1:]] == (
        ["semi-tamed-milstein"] * 3 + ["semi-tamed-euler"] * 3
    )
    assert [row.split(",")[1] for row in csv_lines[1:4]] == ["0.25", "0.125", "0.0625"]

    fit_lines = (tmp_path / "out" / "fit.txt").read_text().splitlines()
    assert fit_lines[0].startswith("# least-squares fit")
    assert fit_lines[1].startswith("scheme=semi-tamed-milstein C=")
    assert " r=" in fit_lines[1] and " residual=" in fit_lines[1]

    gp = (tmp_path / "out" / "convergence.gp").read_text()
    assert "set logscale xy" in gp
    assert "convergence.csv" in gp


@pytest.mark.parametrize(
    "stepsizes, message",
    [
        ([0.125], "converge needs at least two distinct stepsizes"),
        ([0.125, 0.125], "stepsizes lists 0.125 more than once"),
    ],
    ids=["one", "repeated"],
)
def test_converge_needs_two_distinct_stepsizes(tmp_path, capsys, stepsizes, message):
    """An order fit needs two stepsizes; a config with fewer fails at load,
    and so does one whose second stepsize repeats the first."""
    out = tmp_path / "out"
    path = write_config(tmp_path, converge_payload(stepsizes=stepsizes, output_dir=str(out)))
    lineno = line_of(path, '"stepsizes"')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"
    assert main(["converge", "--config", path]) == 2
    assert f"{path}:{lineno}:" in capsys.readouterr().err
    assert not out.exists()


def test_converge_nan_fit_writes_nothing(tmp_path, capsys, monkeypatch):
    """A refusal in the last file of a result leaves none of its files behind."""
    real_table = cli.strong_error_table

    def nan_fit_table(*args, **kwargs):
        return {
            kind: dataclasses.replace(report, fit_constant=math.nan)
            for kind, report in real_table(*args, **kwargs).items()
        }

    monkeypatch.setattr(cli, "strong_error_table", nan_fit_table)
    out = tmp_path / "out"
    path = write_config(tmp_path, converge_payload(paths=8, output_dir=str(out), gnuplot=True))
    assert main(["converge", "--config", path]) == 3
    assert "refusing to write NaN" in capsys.readouterr().err
    assert not out.exists()


def test_converge_without_a_possible_fit_writes_fit_none(tmp_path, monkeypatch):
    """Every squared gap overflows, so no stepsize has a finite RMS error: the
    CSV holds the infinite values, fit.txt says no fit was possible, and the
    run succeeds without writing NaN."""
    problem = SdeProblem(
        dim_state=1,
        dim_noise=1,
        phi=lambda x: x,
        varphi=lambda x: 0.0 * x,
        diffusion_column=lambda x, j: 0.0 * x,
        diffusion_derivative_product=lambda x, j1, j2: 0.0 * x,
        initial_value=np.array([1e160]),
        horizon=1.0,
    )
    monkeypatch.setattr(cli, "builtin_problem", lambda name, horizon=None: problem)
    out = tmp_path / "out"
    payload = converge_payload(
        schemes=["semi-tamed-euler"], stepsizes=[1.0, 0.5], paths=4,
        reference_steps=8, output_dir=str(out),
    )
    assert main(["converge", "--config", write_config(tmp_path, payload)]) == 0
    assert (out / "convergence.csv").read_text().splitlines()[1:] == [
        "semi-tamed-euler,1.0,inf,inf,0",
        "semi-tamed-euler,0.5,inf,inf,0",
    ]
    assert (out / "fit.txt").read_text().splitlines()[1:] == [
        "scheme=semi-tamed-euler fit=none "
        "(fewer than two stepsizes with a finite positive rms_error)"
    ]


def test_converge_byte_determinism_across_threads(tmp_path):
    base = converge_payload(reference_steps=128)
    path1 = write_config(tmp_path, {**base, "output_dir": str(tmp_path / "a")}, "a.json")
    path2 = write_config(tmp_path, {**base, "output_dir": str(tmp_path / "b")}, "b.json")
    assert main(["converge", "--config", path1]) == 0
    assert main(["converge", "--config", path2, "--threads", "4"]) == 0
    for name in ("convergence.csv", "fit.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_converge_seed_changes_output(tmp_path):
    base = converge_payload(reference_steps=128, stepsizes=[0.25, 0.125], paths=64)
    path = write_config(tmp_path, {**base, "output_dir": str(tmp_path / "a")})
    assert main(["converge", "--config", path]) == 0
    assert main(["converge", "--config", path, "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
    a = (tmp_path / "a" / "convergence.csv").read_bytes()
    b = (tmp_path / "b" / "convergence.csv").read_bytes()
    assert a != b


def test_converge_rejects_nonnested_reference(tmp_path):
    path = write_config(
        tmp_path,
        converge_payload(reference_steps=100, output_dir=str(tmp_path / "out")),
    )
    with pytest.raises(ConfigError, match="nest"):
        run(load_config(path))


def test_converge_rejects_nondividing_stepsize(tmp_path):
    path = write_config(
        tmp_path,
        converge_payload(stepsizes=[0.25, 0.3], output_dir=str(tmp_path / "out")),
    )
    with pytest.raises(ConfigError, match="0.3 does not divide"):
        run(load_config(path))
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------
# run(): stability
# ------------------------------------------------------------------

def test_stability_outputs(tmp_path):
    payload = {
        "kind": "stability",
        "model": "ginzburg-landau-stable",
        "schemes": ["semi-tamed-euler"],
        "stepsizes": [0.25],
        "paths": 64,
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
        "gnuplot": True,
    }
    path = write_config(tmp_path, payload)
    written = run(load_config(path))
    assert [Path(p).name for p in written] == ["stability.csv", "stability.gp"]
    lines = (tmp_path / "out" / "stability.csv").read_text().splitlines()
    assert lines[0] == "scheme,h,t,mean_square,blown_up_count"
    assert len(lines) == 1 + 21  # T=5 at h=1/4
    first = lines[1].split(",")
    assert first == ["semi-tamed-euler", "0.25", "0.0", "1.0", "0"]
    last = lines[-1].split(",")
    assert last[2] == "5.0"
    assert float(last[3]) < 1e-3
    assert last[4] == "0"


def test_stability_truncates_after_total_loss(tmp_path):
    # all EM paths eventually blow up on the doubled-horizon unstable model
    # at a long horizon; rows must stop at the last surviving gridpoint
    payload = {
        "kind": "stability",
        "model": "ginzburg-landau-unstable",
        "schemes": ["em"],
        "stepsizes": [0.25],
        "paths": 16,
        "seed": SEED,
        "horizon": 64.0,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    run(load_config(path))
    lines = (tmp_path / "out" / "stability.csv").read_text().splitlines()
    assert 1 < len(lines) < 1 + 257  # header + fewer than all 257 gridpoints
    for row in lines[1:]:
        cells = row.split(",")
        # inf is legitimate here (alive paths whose square overflows);
        # nan must never reach a numeric column
        assert cells[3] != "nan"
        float(cells[3])


# ------------------------------------------------------------------
# run(): simulate
# ------------------------------------------------------------------

def test_simulate_outputs(tmp_path):
    payload = {
        "kind": "simulate",
        "model": "ginzburg-landau-stable",
        "schemes": ["semi-tamed-milstein"],
        "stepsizes": [0.25],
        "paths": 2,
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    written = run(load_config(path))
    assert [Path(p).name for p in written] == [
        "trajectory_semi-tamed-milstein_h0.25_p0.csv",
        "trajectory_semi-tamed-milstein_h0.25_p1.csv",
    ]
    lines = Path(written[0]).read_text().splitlines()
    assert lines[0] == "t,x_1"
    assert len(lines) == 1 + 21
    assert lines[1].split(",") == ["0.0", "1.0"]
    times = [float(row.split(",")[0]) for row in lines[1:]]
    assert times == pytest.approx([0.25 * k for k in range(21)])


def test_simulate_accepts_a_seed_beyond_float_range(tmp_path):
    """Seeds are any nonnegative integer, including ones no float can hold."""
    payload = {
        "kind": "simulate",
        "model": "ginzburg-landau-stable",
        "schemes": ["em"],
        "stepsizes": [0.25],
        "paths": 1,
        "seed": 10**400,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    assert load_config(path).seed == 10**400
    assert main(["simulate", "--config", path]) == 0
    lines = (tmp_path / "out" / "trajectory_em_h0.25_p0.csv").read_text().splitlines()
    assert len(lines) == 1 + 21
    assert lines[1] == "0.0,1.0"


def test_simulate_truncates_blown_path(tmp_path, capsys):
    payload = {
        "kind": "simulate",
        "model": "ginzburg-landau-unstable",
        "schemes": ["em"],
        "stepsizes": [0.25],
        "paths": 1,
        "seed": SEED,
        "horizon": 2.0,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    written = run(load_config(path))
    assert len(written) == 1
    lines = Path(written[0]).read_text().splitlines()
    # path 0 at this seed overflows before the final gridpoint
    assert len(lines) < 1 + 9
    for row in lines[1:]:
        for cell in row.split(","):
            assert cell not in ("nan", "inf", "-inf")
    err = capsys.readouterr().err
    assert "blew up" in err


def test_simulate_rejects_nondividing_stepsize_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    payload = {
        "kind": "simulate",
        "model": "ginzburg-landau-stable",
        "schemes": ["em"],
        "stepsizes": [0.0625, 0.3],
        "paths": 1,
        "seed": SEED,
        "output_dir": str(out),
    }
    path = write_config(tmp_path, payload)
    assert main(["simulate", "--config", path]) == 2
    err = capsys.readouterr().err
    lineno = line_of(path, '"stepsizes"')
    assert f"{path}:{lineno}: stepsize 0.3 does not divide" in err
    assert not out.exists() or list(out.iterdir()) == []


# ------------------------------------------------------------------
# run(): threshold and check
# ------------------------------------------------------------------

def threshold_payload(**overrides):
    payload = {
        "kind": "threshold",
        "stability_params": {
            "rho": 2.0,
            "theta": 1.4142135623730951,
            "lip_K": 2.0,
            "beta": 2.0,
            "v": 1.0,
            "v_bar": 1.0,
            "alpha": 5.0,
            "m": 1,
        },
        "stepsizes": [0.0625, 0.25],
    }
    payload.update(overrides)
    return payload


def test_threshold_output(tmp_path):
    path = write_config(tmp_path, threshold_payload(output_dir=str(tmp_path / "out")))
    written = run(load_config(path))
    lines = Path(written[0]).read_text().splitlines()
    assert lines[0] == "h1=0.25"
    assert lines[1] == "h2=0.6666666666666665"
    assert lines[2] == "h_star=0.25"
    assert lines[3] == "# gamma_h per requested stepsize"
    assert lines[4] == "h=0.0625 gamma_h=1.8124999999999996"
    assert lines[5] == "h=0.25 gamma_h=n/a (outside (0, h_star))"


def test_threshold_without_stepsizes(tmp_path):
    payload = threshold_payload(output_dir=str(tmp_path / "out"))
    del payload["stepsizes"]
    path = write_config(tmp_path, payload)
    written = run(load_config(path))
    lines = Path(written[0]).read_text().splitlines()
    assert len(lines) == 3


def test_threshold_infinite_branches(tmp_path):
    payload = threshold_payload(output_dir=str(tmp_path / "out"))
    payload["stability_params"].update(lip_K=0.0, beta=0.0)
    del payload["stepsizes"]
    path = write_config(tmp_path, payload)
    written = run(load_config(path))
    lines = Path(written[0]).read_text().splitlines()
    # K = 0 keeps only the second h1 branch; beta = 0 blanks h2
    assert lines[0] == "h1=2.0"
    assert lines[1] == "h2=inf"
    assert lines[2] == "h_star=2.0"


@pytest.mark.parametrize(
    "v, h1", [(1e308, "2e-308"), (1e307, "2.0000000000000002e-307")], ids=["1e308", "1e307"]
)
def test_threshold_near_the_float_maximum(tmp_path, v, h1):
    """Overflowing products give the true bound, not a NaN written as inf."""
    payload = threshold_payload(output_dir=str(tmp_path / "out"))
    payload["stability_params"].update(theta=1.0, v=v, v_bar=v)
    written = run(load_config(write_config(tmp_path, payload)))
    lines = Path(written[0]).read_text().splitlines()
    assert lines[:3] == [f"h1={h1}", "h2=1.0", f"h_star={h1}"]
    assert lines[4:] == [f"h={h} gamma_h=n/a (outside (0, h_star))" for h in ("0.0625", "0.25")]


@pytest.mark.parametrize(
    "overrides, lines",
    [
        (
            dict(rho=1.5e308, theta=1.4e154),
            ["h1=0.25", "h2=3.4666666666666674e+307", "h_star=0.25"]
            + ["h=0.0625 gamma_h=1.0400000000000002e+308"],
        ),
        (
            dict(m=10**200),
            ["h1=0.25", "h2=0.0", "h_star=0.0"]
            + ["h=0.0625 gamma_h=n/a (outside (0, h_star))"],
        ),
    ],
    ids=["huge-theta-squared", "huge-m"],
)
def test_main_threshold_beyond_the_float_formulas(tmp_path, capsys, overrides, lines):
    """Constants whose float formulas raise give the exact bounds, exit 0."""
    out = tmp_path / "out"
    payload = threshold_payload(output_dir=str(out))
    payload["stability_params"].update(overrides)
    assert main(["threshold", "--config", write_config(tmp_path, payload)]) == 0
    written = (out / "threshold.txt").read_text().splitlines()
    assert written[:3] + written[4:5] == lines
    assert capsys.readouterr().err == ""


def test_main_threshold_theta_squared_beyond_the_float_range_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    payload = threshold_payload(output_dir=str(out))
    payload["stability_params"]["theta"] = 1e200
    path = write_config(tmp_path, payload)
    assert main(["threshold", "--config", path]) == 2
    anchor = f"{path}:{line_of(path, 'stability_params')}"
    message = "invalid stability_params: need 2*rho > theta^2 for mean-square stability"
    assert capsys.readouterr().err == f"error: {anchor}: {message}\n"
    assert not out.exists()


def test_threshold_nan_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """Only +inf is written as inf; a NaN bound is refused."""
    monkeypatch.setattr(
        cli, "stability_threshold", lambda params: StabilityThreshold(math.nan, 1.0, math.nan)
    )
    out = tmp_path / "out"
    path = write_config(tmp_path, threshold_payload(output_dir=str(out)))
    assert main(["threshold", "--config", path]) == 3
    assert "refusing to write NaN" in capsys.readouterr().err
    assert not out.exists()


def test_check_output_stable(tmp_path):
    payload = {
        "kind": "check",
        "model": "ginzburg-landau-stable",
        "gamma": 2.0,
        "sample_low": -3.0,
        "sample_high": 3.0,
        "sample_count": 101,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    written = run(load_config(path))
    text = Path(written[0]).read_text()
    assert "model=ginzburg-landau-stable" in text
    assert "samples=101 over [-3.0, 3.0]" in text
    assert "commutativity: passed=True max_violation=0.0" in text
    assert "dissipativity: passed=True gamma=2.0" in text


def test_check_output_unstable_fails_dissipativity(tmp_path):
    payload = {
        "kind": "check",
        "model": "ginzburg-landau-unstable",
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    written = run(load_config(path))
    text = Path(written[0]).read_text()
    assert "commutativity: passed=True" in text
    assert "dissipativity: passed=False" in text


# ------------------------------------------------------------------
# main(): exit codes and overrides
# ------------------------------------------------------------------

def test_main_success_prints_written_files(tmp_path, capsys):
    path = write_config(tmp_path, threshold_payload(output_dir=str(tmp_path / "out")))
    assert main(["threshold", "--config", path]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "out" / "threshold.txt") in out


def test_main_config_error_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, converge_payload(model="heston"))
    assert main(["converge", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_kind_mismatch_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, threshold_payload(output_dir=str(tmp_path / "out")))
    assert main(["check", "--config", path]) == 2
    assert "does not match" in capsys.readouterr().err


def test_main_missing_output_dir_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, threshold_payload())
    assert main(["threshold", "--config", path]) == 2
    assert "no output directory" in capsys.readouterr().err


def test_main_unreadable_config_is_exit_2(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_main_runtime_failure_is_exit_3(tmp_path, capsys):
    """A run that fails before its first file exits 3 and leaves no output
    directory."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    path = write_config(tmp_path, threshold_payload(output_dir=str(blocker / "out")))
    assert main(["threshold", "--config", path]) == 3
    assert "error:" in capsys.readouterr().err
    out = tmp_path / "out"
    # a 2^50-step reference needs an 8 PiB block: numpy can index it, but its
    # allocation fails at once
    payload = converge_payload(paths=1, reference_steps=2**50, output_dir=str(out))
    assert main(["converge", "--config", write_config(tmp_path, payload)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_main_rejects_bad_overrides(tmp_path, capsys):
    """--seed, --paths and --out obey the config's rules and name the config
    they override; a kind without seed and paths keys has no flag for them."""
    out = tmp_path / "out"
    converge = write_config(tmp_path, converge_payload(output_dir=str(out)), "converge.json")
    threshold = write_config(tmp_path, threshold_payload(output_dir=str(out)))
    for kind, path, flag, value, message in [
        ("converge", converge, "--seed", "-1", f"{converge}: --seed must be >= 0, got -1"),
        ("converge", converge, "--paths", "0", f"{converge}: --paths must be >= 1, got 0"),
        (
            "converge", converge, "--paths", "4294967297",
            f"{converge}: --paths must be <= 4294967296, got 4294967297",
        ),
        ("threshold", threshold, "--out", "", f"{threshold}: --out must be a nonempty string"),
        ("threshold", threshold, "--threads", "0", "--threads must be >= 1"),
    ]:
        assert main([kind, "--config", path, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    check = {"kind": "check", "model": "ginzburg-landau-stable", "output_dir": str(out)}
    check = write_config(tmp_path, check, "check.json")
    for kind, path in (("threshold", threshold), ("check", check)):
        for flag in ("--seed", "--paths"):
            with pytest.raises(SystemExit) as exc:
                main([kind, "--config", path, flag, "5"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


def test_main_paths_override(tmp_path, capsys):
    payload = {
        "kind": "simulate",
        "model": "ginzburg-landau-stable",
        "schemes": ["semi-tamed-euler"],
        "stepsizes": [0.25],
        "paths": 1,
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, payload)
    assert main(["simulate", "--config", path, "--paths", "3"]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 3


def test_main_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "ginzburg-landau-stable  (d=1, m=1, T=5.0)" in out
    assert "ginzburg-landau-unstable  (d=1, m=1, T=1.0)" in out


def _declared_scripts() -> dict:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    # The child imports the same tamedsde as this test, installed or not.
    src = str(Path(tamedsde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_console_script_and_module_entry():
    # What pyproject.toml declares, run the way the generated wrapper runs it.
    target = _declared_scripts().get("tamedsde")
    assert target == "tamedsde.cli:main"
    module_name, func = target.split(":")
    entry = _run_python(
        "-c",
        f"import sys; from {module_name} import {func}; sys.exit({func}())",
        "list-models",
    )
    assert entry.returncode == 0, entry.stderr
    assert "ginzburg-landau-unstable" in entry.stdout
    module = _run_python("-m", "tamedsde.cli", "list-models")
    assert module.returncode == 0, module.stderr
    assert module.stdout == entry.stdout


@pytest.mark.skipif(
    shutil.which("tamedsde") is None,
    reason="tamedsde console script not on PATH (package not installed)",
)
def test_installed_console_script():
    exe = shutil.which("tamedsde")
    proc = subprocess.run([exe, "list-models"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "ginzburg-landau-unstable" in proc.stdout
    module = _run_python("-m", "tamedsde.cli", "list-models")
    assert module.returncode == 0, module.stderr
    assert module.stdout == proc.stdout


def test_run_experiments_script_runs_from_a_checkout(tmp_path):
    """The shipped-experiments script finds the package without PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_experiments.py"), "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--full" in proc.stdout


# ------------------------------------------------------------------
# Package surface
# ------------------------------------------------------------------

def test_every_export_resolves():
    """Each ``__all__`` name exists on its module, so a deletion that leaves
    an export behind fails here."""
    modules = [tamedsde] + [
        importlib.import_module(f"tamedsde.{info.name}")
        for info in pkgutil.iter_modules(tamedsde.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}: {missing}"
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(exported) <= set(namespace), module.__name__


# The package's exports before it re-exported each module's own __all__.
PINNED_EXPORTS = [
    "SdeProblem", "CommutativityReport", "EvaluationError", "builtin_problem",
    "builtin_problem_names", "check_commutativity", "drift_full", "levy_product_coefficient",
    "PathBundle", "generate_paths", "coarsen", "SchemeKind", "Trajectory", "integrate",
    "tame", "require_supported", "step_function", "milstein_correction",
    "ConvergenceReport", "PowerLawFit", "MomentCurve", "StabilityParams",
    "StabilityThreshold", "StabilityReport", "StabilityCurveEntry", "DissipativityReport",
    "fit_power_law", "strong_error_table", "mean_square_curve", "stability_threshold",
    "decay_rate", "check_dissipativity", "stability_study", "__version__",
]


def test_pinned_exports_survive():
    """No name the package exported is dropped, and each is its module's object."""
    assert len(set(PINNED_EXPORTS)) == 34
    assert set(PINNED_EXPORTS) <= set(tamedsde.__all__)
    modules = (tamedsde.model, tamedsde.paths, tamedsde.schemes, tamedsde.analysis)
    for name in PINNED_EXPORTS[:-1]:
        homes = [module for module in modules if name in module.__all__]
        assert len(homes) == 1, name
        assert getattr(tamedsde, name) is getattr(homes[0], name)


def test_readme_python_examples_run(capsys):
    """The README's Python blocks run in order in one namespace, so a renamed
    or reshaped API fails here instead of leaving the docs stale."""
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "[1.80901607] False\n"
    assert namespace["cubic"].dim_state == 1
