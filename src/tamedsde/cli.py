"""Experiment harness: JSON-configured runs with reproducible file outputs.

One experiment is one JSON document. The schema is strict: the ``kind`` key
selects the experiment (converge, stability, simulate, threshold, check),
each kind has a fixed set of required and optional keys, and any unknown
key is rejected with a message anchored to its line in the file.

Outputs land in the configured (or ``--out``) directory:

converge
    ``convergence.csv`` (scheme, h, rms_error, stderr, excluded_paths) and
    ``fit.txt`` with one power-law fit line per scheme, or ``fit=none``
    where fewer than two stepsizes have a finite positive RMS error.
stability
    ``stability.csv`` (scheme, h, t, mean_square, blown_up_count). Moments
    average surviving paths only; gridpoints where no path survives are
    omitted rather than averaged.
simulate
    One ``trajectory_<scheme>_h<h>_p<k>.csv`` per requested path with
    columns t, x_1..x_d, truncated at the last finite state if the path
    blew up (a warning goes to stderr).
threshold
    ``threshold.txt`` with h1, h2, h_star and a gamma_h table at the
    requested stepsizes.
check
    ``check.txt`` with the commutativity and dissipativity reports.

Identical (config, seed) produce byte-identical CSV files on every run and
for every ``--threads`` value: floats are written in shortest round-trip
form, Monte Carlo reductions are fixed-order, and NaN never appears in a
numeric column (blow-ups are reported in count columns).

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime or
model-evaluation failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .analysis import (
    CHUNK_PATHS,
    StabilityParams,
    _nested_steps,
    _steps_for,
    check_dissipativity,
    decay_rate,
    stability_study,
    stability_threshold,
    strong_error_table,
)
from .model import (
    EvaluationError,
    builtin_problem,
    builtin_problem_names,
    check_commutativity,
)
from .paths import _MAX_PATHS, generate_paths
from .schemes import SchemeKind, integrate

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run", "main"]

_PARAM_KEYS = [f.name for f in fields(StabilityParams)]

# _require_number bounds of every numeric key; the --seed/--paths overrides
# use the same rules.
_NUMBER_RULES = {
    "paths": dict(integral=True, minimum=1, maximum=_MAX_PATHS),
    "seed": dict(integral=True, minimum=0),
    "horizon": dict(positive=True),
    "reference_steps": dict(integral=True, minimum=1),
    "gamma": dict(positive=True),
    "sample_low": {},
    "sample_high": {},
    "sample_count": dict(integral=True, minimum=1),
}


class ConfigError(Exception):
    """Invalid experiment configuration (exit code 2)."""


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    kind: str
    model: Optional[str] = None
    schemes: list[str] = field(default_factory=list)
    stepsizes: list[float] = field(default_factory=list)
    paths: int = 0
    seed: int = 0
    horizon: Optional[float] = None
    output_dir: Optional[str] = None
    reference_steps: Optional[int] = None
    reference_scheme: str = SchemeKind.SEMI_TAMED_MILSTEIN.value
    stability_params: Optional[StabilityParams] = None
    gamma: float = 1.0
    sample_low: float = -2.0
    sample_high: float = 2.0
    sample_count: int = 101
    gnuplot: bool = False
    source_path: str = "<config>"
    source_text: str = field(default="", repr=False)

    def anchor(self, key: str) -> str:
        """``path:line`` locator of a key in the source document."""
        needle = f'"{key}"'
        for lineno, line in enumerate(self.source_text.splitlines(), 1):
            if needle in line:
                return f"{self.source_path}:{lineno}"
        return self.source_path


def _fail(cfg: ExperimentConfig, key: str, message: str) -> ConfigError:
    return ConfigError(f"{cfg.anchor(key)}: {message}")


def _as_float(raw) -> float:
    """``raw`` as a float: NaN if it is not a real number, infinite if it is
    an integer beyond float range."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return math.nan
    try:
        return float(raw)
    except OverflowError:
        return math.inf if raw > 0 else -math.inf


def _require_number(cfg, raw, key, *, integral=False, minimum=None, maximum=None, positive=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise _fail(cfg, key, f"{key} must be a number, got {raw!r}")
    if integral and isinstance(raw, float) and not raw.is_integer():
        raise _fail(cfg, key, f"{key} must be an integer, got {raw!r}")
    value = int(raw) if integral else _as_float(raw)
    if not integral and not math.isfinite(value):
        raise _fail(cfg, key, f"{key} must be finite, got {raw!r}")
    if positive and not value > 0:
        raise _fail(cfg, key, f"{key} must be positive, got {raw!r}")
    if minimum is not None and value < minimum:
        raise _fail(cfg, key, f"{key} must be >= {minimum}, got {raw!r}")
    if maximum is not None and value > maximum:
        raise _fail(cfg, key, f"{key} must be <= {maximum}, got {raw!r}")
    return value


def _require_dir(cfg, raw, key) -> str:
    if not isinstance(raw, str) or not raw:
        raise _fail(cfg, key, f"{key} must be a nonempty string")
    return raw


_RANGE_RE = re.compile(r"2\^(-?\d+)\s*\.\.\s*2\^(-?\d+)")


def _parse_stepsizes(cfg: ExperimentConfig, raw) -> list[float]:
    """Stepsizes from a list of reals or a ``"2^a..2^b"`` range; every entry,
    in either form, must be finite, positive and not equal to an earlier one."""
    if isinstance(raw, str):
        match = _RANGE_RE.fullmatch(raw.strip())
        if match is None:
            raise _fail(
                cfg,
                "stepsizes",
                f'cannot parse stepsize range {raw!r}; expected e.g. "2^-6..2^-11"',
            )
        first, last = int(match.group(1)), int(match.group(2))
        direction = 1 if last >= first else -1
        exponents = range(first, last + direction, direction)
        entries = ((f"2^{k}", 2.0**k if k < 1024 else math.inf) for k in exponents)
    elif isinstance(raw, list) and raw:
        entries = ((repr(item), _as_float(item)) for item in raw)
    else:
        raise _fail(
            cfg,
            "stepsizes",
            "stepsizes must be a nonempty list of positive reals or an exponent range string",
        )
    values = []
    for shown, value in entries:  # lazily: a bad range fails within 2100 entries
        if not (math.isfinite(value) and value > 0):
            raise _fail(
                cfg, "stepsizes", f"stepsizes entries must be finite positive reals, got {shown}"
            )
        if value in values:
            raise _fail(cfg, "stepsizes", f"stepsizes lists {shown} more than once")
        values.append(value)
    return values


def _parse_stability_params(cfg: ExperimentConfig, raw) -> StabilityParams:
    if not isinstance(raw, dict):
        raise _fail(cfg, "stability_params", "stability_params must be an object")
    unknown = set(raw).difference(_PARAM_KEYS)
    if unknown:
        key = sorted(unknown)[0]
        raise _fail(cfg, key, f"unknown stability_params key {key!r}")
    missing = set(_PARAM_KEYS).difference(raw)
    if missing:
        raise _fail(
            cfg,
            "stability_params",
            f"stability_params missing keys: {', '.join(sorted(missing))}",
        )
    for name in _PARAM_KEYS:
        if isinstance(raw[name], bool) or not isinstance(raw[name], (int, float)):
            raise _fail(cfg, name, f"stability_params.{name} must be a number")
    try:
        return StabilityParams(
            **{name: _as_float(raw[name]) for name in _PARAM_KEYS if name != "m"},
            m=_require_number(cfg, raw["m"], "m", integral=True),
        )
    except ValueError as exc:
        raise _fail(cfg, "stability_params", f"invalid stability_params: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate one experiment JSON document.

    Raises :class:`ConfigError` with a ``path:line`` anchored message on
    any syntactic or semantic problem.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"{path}:1: config must be a JSON object")

    cfg = ExperimentConfig(kind="", source_path=path, source_text=text)

    kind = document.get("kind")
    if kind is None:
        raise ConfigError(f"{path}:1: missing required key \"kind\"")
    if kind not in KINDS:
        cfg.kind = "?"
        raise _fail(cfg, "kind", f"unknown kind {kind!r}; valid kinds: {', '.join(KINDS)}")
    cfg.kind = kind

    required, optional, _ = _KINDS[kind]
    allowed = required | optional | {"kind"}
    for key in document:
        if key not in allowed:
            raise _fail(cfg, key, f"unknown key {key!r} for kind {kind!r}")
    for key in sorted(required):
        if key not in document:
            raise _fail(cfg, "kind", f"kind {kind!r} requires key {key!r}")

    if "model" in document:
        model = document["model"]
        if not isinstance(model, str):
            raise _fail(cfg, "model", f"model must be a string, got {model!r}")
        if model not in builtin_problem_names():
            raise _fail(
                cfg,
                "model",
                f"unknown model {model!r}; valid names: {', '.join(builtin_problem_names())}",
            )
        cfg.model = model
    if "schemes" in document:
        raw = document["schemes"]
        if not isinstance(raw, list) or not raw:
            raise _fail(cfg, "schemes", "schemes must be a nonempty list of scheme names")
        for k, name in enumerate(raw):
            try:
                SchemeKind.from_name(name)
            except ValueError as exc:
                raise _fail(cfg, "schemes", str(exc)) from None
            if name in raw[:k]:
                raise _fail(cfg, "schemes", f"schemes lists {name!r} more than once")
        cfg.schemes = list(raw)
    if "stepsizes" in document:
        cfg.stepsizes = _parse_stepsizes(cfg, document["stepsizes"])
        if kind == "converge" and len(cfg.stepsizes) < 2:
            raise _fail(cfg, "stepsizes", "converge needs at least two distinct stepsizes")
    for key, rule in _NUMBER_RULES.items():
        if key in document:
            setattr(cfg, key, _require_number(cfg, document[key], key, **rule))
    if "output_dir" in document:
        cfg.output_dir = _require_dir(cfg, document["output_dir"], "output_dir")
    if "reference_scheme" in document:
        try:
            cfg.reference_scheme = SchemeKind.from_name(document["reference_scheme"]).value
        except ValueError as exc:
            raise _fail(cfg, "reference_scheme", str(exc)) from None
    if "stability_params" in document:
        cfg.stability_params = _parse_stability_params(cfg, document["stability_params"])
    if cfg.sample_high <= cfg.sample_low:
        raise _fail(cfg, "sample_high", "sample_high must exceed sample_low")
    if "gnuplot" in document:
        if not isinstance(document["gnuplot"], bool):
            raise _fail(cfg, "gnuplot", "gnuplot must be a boolean")
        cfg.gnuplot = document["gnuplot"]
    return cfg


def _fmt(value) -> str:
    """Shortest round-trip decimal form; refuses NaN in numeric output."""
    number = float(value)
    if math.isnan(number):
        raise EvaluationError("refusing to write NaN into a numeric column")
    return repr(number)


def _row(cells) -> str:
    """One CSV row: text as is, integers as counts, reals through :func:`_fmt`."""
    return ",".join(
        cell if isinstance(cell, str)
        else str(int(cell)) if isinstance(cell, (int, np.integer))
        else _fmt(cell)
        for cell in cells
    )


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sample_points(cfg: ExperimentConfig):
    """Evenly spaced states over [sample_low, sample_high]; every built-in
    model has a scalar state."""
    return np.linspace(cfg.sample_low, cfg.sample_high, cfg.sample_count).reshape(-1, 1)


def _validate_grid(cfg: ExperimentConfig, problem) -> None:
    """Refuse a grid that does not fit the horizon, or whose increment block
    (one chunk of paths, or one path for simulate) numpy cannot index."""
    try:
        if cfg.kind == "converge":
            _, steps = _nested_steps(problem.horizon, cfg.stepsizes, cfg.reference_steps)
        else:
            # a check config has no stepsizes, and so no block
            steps = max((_steps_for(problem.horizon, h) for h in cfg.stepsizes), default=0)
    except ValueError as exc:
        raise _fail(cfg, "stepsizes", str(exc)) from None
    rows = 1 if cfg.kind == "simulate" else min(cfg.paths, CHUNK_PATHS)
    size = rows * steps * problem.dim_noise * 8
    if size > np.iinfo(np.intp).max:
        raise _fail(
            cfg, "stepsizes" if cfg.reference_steps is None else "reference_steps",
            f"the finest grid's increment block for {rows} path(s) needs about "
            f"2^{math.log2(size):.0f} bytes, more than numpy can index",
        )


# Each runner takes the config, the problem run() built from it (None for
# threshold) and the thread count, and returns or yields (file name, lines)
# pairs; run() writes them.
# Runners that write several files from one result build all their lines
# first, so a late refusal in _fmt leaves no partial output.


def _fit_line(r) -> str:
    """One scheme's ``fit.txt`` line; ``fit=none`` where the report has no fit."""
    if math.isnan(r.fit_order):
        reason = "fewer than two stepsizes with a finite positive rms_error"
        return f"scheme={r.scheme.value} fit=none ({reason})"
    return (
        f"scheme={r.scheme.value} C={_fmt(r.fit_constant)} "
        f"r={_fmt(r.fit_order)} residual={_fmt(r.fit_residual)}"
    )


def _run_converge(cfg: ExperimentConfig, problem, threads: int):
    table = strong_error_table(
        problem,
        cfg.schemes,
        cfg.stepsizes,
        cfg.paths,
        cfg.seed,
        reference_steps=cfg.reference_steps,
        reference_scheme=cfg.reference_scheme,
        threads=threads,
    )
    reports = [table[SchemeKind.from_name(name)] for name in cfg.schemes]
    rows = ["scheme,h,rms_error,stderr,excluded_paths"] + [
        _row((r.scheme.value, h, r.rms_errors[i], r.stderrs[i], r.excluded_paths[i]))
        for r in reports
        for i, h in enumerate(r.stepsizes)
    ]
    fit_lines = ["# least-squares fit of rms_error = C * h^r per scheme"]
    fit_lines += [_fit_line(r) for r in reports]
    files = [("convergence.csv", rows), ("fit.txt", fit_lines)]
    if cfg.gnuplot:
        plots = ", \\\n     ".join(
            f"'convergence.csv' skip 1 using 2:(strcol(1) eq '{name}' ? $3 : 1/0) "
            f"with linespoints title '{name}'"
            for name in cfg.schemes
        )
        files.append(("convergence.gp", [
            "set logscale xy", "set datafile separator ','", "set xlabel 'h'",
            "set ylabel 'rms error'", "set key top left", "plot " + plots,
        ]))
    return files


def _run_stability(cfg: ExperimentConfig, problem, threads: int):
    report = stability_study(
        problem,
        cfg.schemes,
        cfg.stepsizes,
        cfg.paths,
        cfg.seed,
        threads=threads,
    )
    rows = ["scheme,h,t,mean_square,blown_up_count"]
    for entry in report.entries:
        c = entry.curve
        for n in range(c.times.size):
            if c.counts[n] == 0:
                break  # no survivors from here on; nothing honest to average
            cells = (entry.scheme.value, entry.stepsize, c.times[n], c.values[n])
            rows.append(_row((*cells, c.blown_by_time[n])))
    files = [("stability.csv", rows)]
    if cfg.gnuplot:
        files.append(("stability.gp", [
            "set logscale y", "set datafile separator ','", "set xlabel 't'",
            "set ylabel 'mean square'",
            "plot 'stability.csv' skip 1 using 3:4 with points title 'E||Y||^2'",
        ]))
    return files


def _run_simulate(cfg: ExperimentConfig, problem, threads: int):
    """Yields each trajectory as soon as it is integrated, so no run holds
    every path in memory."""
    header = "t," + ",".join(f"x_{k + 1}" for k in range(problem.dim_state))
    for name in cfg.schemes:
        kind = SchemeKind.from_name(name)
        for h in cfg.stepsizes:
            n_steps = _steps_for(problem.horizon, h)
            for k in range(cfg.paths):
                bundle = generate_paths(
                    cfg.seed, k, n_steps, problem.dim_noise, problem.horizon
                )
                traj = integrate(problem, kind, bundle)
                # a blown path's rows from its blow-up on are the NaN sentinel
                rows = [header] + [
                    _row((t, *x)) for t, x in zip(traj.times, traj.states)
                    if not np.isnan(x).any()
                ]
                if traj.blew_up:
                    print(
                        f"warning: {kind.value} path {k} at h={h} blew up; "
                        f"trajectory truncated at step {len(rows) - 2}",
                        file=sys.stderr,
                    )
                yield f"trajectory_{kind.value}_h{float(h)!r}_p{k}.csv", rows


def _run_threshold(cfg: ExperimentConfig, problem, threads: int):
    params = cfg.stability_params
    thr = stability_threshold(params)
    lines = [
        f"{name}={_fmt(value)}"
        for name, value in (("h1", thr.h1), ("h2", thr.h2), ("h_star", thr.h_star))
    ]
    if cfg.stepsizes:
        lines.append("# gamma_h per requested stepsize")
        for h in cfg.stepsizes:
            if 0 < h < thr.h_star:
                lines.append(f"h={_fmt(h)} gamma_h={_fmt(decay_rate(params, h))}")
            else:
                lines.append(f"h={_fmt(h)} gamma_h=n/a (outside (0, h_star))")
    return [("threshold.txt", lines)]


def _run_check(cfg: ExperimentConfig, problem, threads: int):
    points = _sample_points(cfg)
    commutativity = check_commutativity(problem, points)
    dissipativity = check_dissipativity(problem, cfg.gamma, points)
    lines = [
        f"model={problem.label}",
        f"samples={points.shape[0]} over [{_fmt(cfg.sample_low)}, {_fmt(cfg.sample_high)}]",
        (
            f"commutativity: passed={commutativity.passed} "
            f"max_violation={_fmt(commutativity.max_violation)} "
            f"tolerance={_fmt(commutativity.tolerance)}"
        ),
        (
            f"dissipativity: passed={dissipativity.passed} gamma={_fmt(dissipativity.gamma)} "
            f"margin={_fmt(dissipativity.margin)}"
        ),
    ]
    return [("check.txt", lines)]


# Each kind's required config keys, optional config keys and runner.
_KINDS = {
    "converge": (
        {"model", "schemes", "stepsizes", "paths", "seed"},
        {"horizon", "output_dir", "reference_steps", "reference_scheme", "gnuplot"},
        _run_converge,
    ),
    "stability": (
        {"model", "schemes", "stepsizes", "paths", "seed"},
        {"horizon", "output_dir", "stability_params", "gnuplot"},
        _run_stability,
    ),
    "simulate": (
        {"model", "schemes", "stepsizes", "paths", "seed"},
        {"horizon", "output_dir"},
        _run_simulate,
    ),
    "threshold": ({"stability_params"}, {"stepsizes", "output_dir"}, _run_threshold),
    "check": (
        {"model"},
        {"output_dir", "gamma", "sample_low", "sample_high", "sample_count"},
        _run_check,
    ),
}
KINDS = tuple(_KINDS)


def run(config: ExperimentConfig, threads: int = 1) -> list[str]:
    """Execute one experiment; returns the list of files written. The output
    directory is made just before the first file is written, so a run that
    fails before then, on its config or at run time, leaves none behind."""
    if config.output_dir is None:
        raise ConfigError(
            f"{config.source_path}: no output directory (set output_dir or pass --out)"
        )
    if config.kind not in _KINDS:
        raise ConfigError(f"{config.source_path}: unknown kind {config.kind!r}")
    required, _, runner = _KINDS[config.kind]
    problem = None
    if "model" in required:
        problem = builtin_problem(config.model, horizon=config.horizon)
        _validate_grid(config, problem)
    written = []
    for name, lines in runner(config, problem, threads):
        if not written:
            os.makedirs(config.output_dir, exist_ok=True)
        path = os.path.join(config.output_dir, name)
        _write_lines(path, lines)
        written.append(path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamedsde",
        description="Strong-approximation SDE experiments with tamed schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, (required, optional, _) in _KINDS.items():
        cmd = sub.add_parser(kind, help=f"run a {kind!r} experiment from a JSON config")
        cmd.add_argument("--config", required=True, help="path to the experiment JSON")
        for key, text in (("seed", "the config seed"), ("paths", "the path count")):
            if key in required | optional:
                cmd.add_argument(f"--{key}", type=int, default=None, help=f"override {text}")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument(
            "--threads", type=int, default=1,
            help="threads that draw increments (output is identical)",
        )
    sub.add_parser("list-models", help="list built-in model names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-models":
        for name in builtin_problem_names():
            problem = builtin_problem(name)
            print(
                f"{name}  (d={problem.dim_state}, m={problem.dim_noise}, "
                f"T={problem.horizon})"
            )
        return 0
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                f"{cfg.anchor('kind')}: config kind {cfg.kind!r} does not match "
                f"subcommand {args.command!r}"
            )
        for key in ("seed", "paths"):
            raw = getattr(args, key, None)
            if raw is not None:
                setattr(cfg, key, _require_number(cfg, raw, f"--{key}", **_NUMBER_RULES[key]))
        if args.out is not None:
            cfg.output_dir = _require_dir(cfg, args.out, "--out")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        written = run(cfg, threads=args.threads)
    except (ConfigError, ValueError, EvaluationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
