"""Fresh-process side of the benchmark (started by run.py, not by hand).

``worker.py setup CONFIG``
    Times ``import tamedsde.cli`` + ``cli.load_config`` + building the
    model, and prints the seconds.
``worker.py measure ...``
    Runs timed passes of one workload through ``cli.load_config`` +
    ``cli.run`` for about ``--seconds`` seconds, checks every pass's output
    files, runs a set-up probe after each pass, and prints one JSON object
    with the samples and metrics. With
    ``--trace 1`` it alternates untraced and traced passes and reports the
    per-layer numbers of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (same directory as this file)
import workloads  # noqa: E402

MIN_SETUP_PROBES = 5


def _import_cli():
    import tamedsde.cli as cli

    expected = ROOT / "src" / "tamedsde"
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"imported tamedsde from {cli.__file__}, expected {expected}")
    return cli


def setup(config_path: str) -> None:
    start = time.perf_counter()
    cli = _import_cli()
    cfg = cli.load_config(config_path)
    cli.builtin_problem(cfg.model, horizon=cfg.horizon)
    print(repr(time.perf_counter() - start))


class Runner:
    """Runs and checks passes of one workload in this process."""

    def __init__(self, name: str, size: str, config_path: str, work: Path):
        import numpy  # not at module level: ``setup`` times the first import

        self.cli = _import_cli()
        from tamedsde import analysis

        self.analysis = analysis
        self.numpy_version = numpy.__version__
        self.name, self.size, self.config_path, self.work = name, size, config_path, work
        self.threads = workloads.threads_for(name)
        with open(config_path, encoding="utf-8") as fh:
            self.doc = json.load(fh)
        problem = self.cli.builtin_problem(self.doc["model"])
        self.horizon, self.dim_noise = problem.horizon, problem.dim_noise
        self.expected = workloads.expected_counts(self.doc, self.horizon, self.dim_noise)
        # path-steps integrated per pass, reference included
        self.path_steps = sum(v for k, v in self.expected.items() if k.startswith("schemes.path_steps."))
        self.reference: bytes | None = None
        self._verdicts: dict[bytes, list[str]] = {}

    def run_pass(self, threads: int, config_path: str, out_dir: Path, tracer=None) -> dict:
        """One ``load_config`` + ``run``; returns timings, output bytes and problems."""
        record = {"role": "timed" if tracer is None else "traced", "problems": []}
        if tracer is not None:
            tracer.install()
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            cfg = self.cli.load_config(config_path)
            record["load_config_s"] = time.perf_counter() - wall0
            cfg.output_dir = str(out_dir)
            self.cli.run(cfg, threads=threads)
            record["wall_s"] = time.perf_counter() - wall0
            record["cpu_s"] = time.process_time() - cpu0
        except Exception:  # a failing pass is counted, not fatal
            record["problems"].append(traceback.format_exc(limit=3))
            return record
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["output"] = b"".join((out_dir / f).read_bytes() for f in self._files())
        return record

    def _files(self) -> list[str]:
        if self.doc["kind"] == "converge":
            return ["convergence.csv", "fit.txt"]
        return ["stability.csv"]

    def check(self, record: dict) -> None:
        """Append output-check failures of a finished pass to its record."""
        output = record.pop("output", None)
        if output is None:
            return
        if output not in self._verdicts:
            self._verdicts[output] = self._check_content(output)
        record["problems"] += self._verdicts[output]
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            record["problems"].append("output bytes differ from the reference pass")

    def _check_content(self, output: bytes) -> list[str]:
        text = output.decode("utf-8")
        if self.doc["kind"] == "converge":
            csv_text, _, fit_text = text.partition("# least-squares fit")
            return checks.check_converge(self.doc, csv_text, fit_text, self.size)
        return checks.check_stability(self.doc, text, self.size, self.horizon)

    def warm_up(self) -> dict | None:
        """Fill caches before timing; for converge-t2, fix the reference bytes.

        The threads=1 pass of converge-t2 produces the bytes every timed
        threads=2 pass must reproduce (the CSV of converge); its record is
        returned so that a failure counts as a failed attempt.
        """
        if self.threads > 1:
            record = self.run_pass(1, self.config_path, self.work / "ref")
            record["role"] = "reference"
            self.check(record)
            return record
        warm_config = self.work / "warmup.json"
        warm_doc = workloads.config_document(self.name, workloads.DEFAULT_SEED, "tiny", str(self.work / "warm"))
        warm_config.write_text(json.dumps(warm_doc))
        self.run_pass(self.threads, str(warm_config), self.work / "warm")
        return None


def measure(args) -> dict:
    work = Path(args.work)
    runner = Runner(args.workload, args.size, args.config, work)
    reference = runner.warm_up()
    records = [] if reference is None else [reference]
    start = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        plan = [False, True, True]  # then alternate while time remains
        while True:
            traced = plan.pop(0) if plan else records[-1]["role"] == "timed"
            tracer = Tracer(runner.cli, runner.analysis) if traced else None
            record = runner.run_pass(runner.threads, args.config, work / "out", tracer)
            runner.check(record)
            if tracer is not None and "wall_s" in record:
                record["layers"] = _layers(runner, tracer, record)
            records.append(record)
            if not plan and _out_of_time(records, start, args.seconds):
                break
    else:
        # one set-up probe after each pass, so that set-up time is sampled
        # across the same window as the passes
        setup_s = []
        while True:
            record = runner.run_pass(runner.threads, args.config, work / "out")
            runner.check(record)
            records.append(record)
            setup_s.append(_setup_probe(args.config))
            if _out_of_time(records, start, args.seconds):
                break
        while len(setup_s) < MIN_SETUP_PROBES:
            setup_s.append(_setup_probe(args.config))
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = _summary(runner, records, peak_rss_kib, args.trace)
    if "metrics" in summary and not args.trace:
        summary["metrics"]["setup_s"] = statistics.median(setup_s)
    return summary


def _setup_probe(config: str) -> float:
    """Set-up seconds measured in a fresh interpreter (``worker.py setup``)."""
    proc = subprocess.run(
        [sys.executable, __file__, "setup", config],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def _out_of_time(records: list[dict], start: float, seconds: float) -> bool:
    """True when another pass of typical length would overrun ``seconds``."""
    walls = [r["wall_s"] for r in records if r["role"] != "reference" and "wall_s" in r]
    typical = statistics.median(walls) if walls else 0.0
    return time.perf_counter() - start + typical > seconds


def _layers(runner: Runner, tracer, record: dict) -> dict:
    from tracer import EXACT_COUNTS, layer_metrics

    layers = layer_metrics(tracer, runner.threads, record["load_config_s"])
    for key in EXACT_COUNTS:
        if layers[key] != runner.expected[key]:
            record["problems"].append(
                f"trace count {key} = {layers[key]}, closed form {runner.expected[key]}"
            )
    return layers


def _summary(runner: Runner, records: list[dict], peak_rss_kib: int, trace: bool) -> dict:
    failed = [r for r in records if r["problems"]]
    untraced = [r for r in records if r["role"] == "timed" and "wall_s" in r]
    out = {
        "attempted": len(records),
        "failed": len(failed),
        "problems": sorted({p for r in failed for p in r["problems"]}),
        "numpy": runner.numpy_version,
        "wall_s_samples": [r["wall_s"] for r in untraced],
    }
    if not untraced:
        return out
    wall = statistics.median(r["wall_s"] for r in untraced)
    if not trace:
        out["metrics"] = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "path_steps_per_s": runner.path_steps / wall,
            "peak_rss_mb": peak_rss_kib / 1024.0,
        }
        return out
    traced = [r for r in records if "layers" in r]
    if not traced:
        return out
    layers = {
        key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]
    }
    for key in layers:
        if isinstance(traced[0]["layers"][key], int):
            values = {r["layers"][key] for r in traced}
            if len(values) > 1:
                out["failed"] = len(records)
                out["problems"].append(f"trace count {key} differs between passes: {sorted(values)}")
            layers[key] = traced[0]["layers"][key]
    layers["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall - 1.0
    out["metrics"] = layers
    out["traced_wall_s_samples"] = [r["wall_s"] for r in traced]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("config")
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("--workload", choices=workloads.NAMES, required=True)
    p_measure.add_argument("--config", required=True)
    p_measure.add_argument("--work", required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_measure.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.config)
    else:
        print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
