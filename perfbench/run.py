#!/usr/bin/env python3
"""tamedsde benchmark: end-to-end and per-layer numbers for three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload converge --seed 20260816 --seconds 35 --trace 0

``--workload`` is ``converge``, ``converge-t2``, ``stability`` or ``all``.
Each workload is one experiment config generated from ``--seed`` and run
in-process through ``cli.load_config`` + ``cli.run`` (see workloads.py for
what each one exercises and why). Every pass's output files are checked
(checks.py); a failed check makes the run incorrect and the exit code 1.

With ``--trace 0`` the run prints the end-to-end metrics:

wall_s            median wall time of one pass (config load + run + write)
cpu_s             median process CPU time of one pass (all threads)
path_steps_per_s  path-steps integrated per pass, reference included,
                  divided by wall_s; the count is exact from the config
peak_rss_mb       peak resident set of the fresh worker process (MiB)
setup_s           median over fresh processes, one after each pass, of
                  import tamedsde.cli + load_config + building the model

With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (tracer.py), plus trace.overhead_frac.
The traced run also checks that its exact counts equal their closed-form
values from the config (workloads.expected_counts).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details: machine and version stamp, samples, tail
percentile when the sample count allows, error rate and any failures.
Running the workloads needs ``src/tamedsde`` next to this directory; without
it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
WORKER_TIMEOUT_S = 170


def per_layer_units() -> dict[str, str]:
    units = {
        "paths.draw_calls": "count",
        "paths.normals": "count",
        "paths.draw_s": "s",
        "paths.us_per_stream": "us",
        "paths.ns_per_normal": "ns",
        "model.coeff_calls": "count",
        "model.coeff_calls_per_step": "count",
        "model.coeff_s": "s",
        "schemes.step_calls": "count",
        "schemes.path_steps": "count",
        "schemes.step_self_s": "s",
        "schemes.ns_per_path_step": "ns",
        "analysis.chunks": "count",
        "analysis.chunk_busy_s": "s",
        "analysis.worker_busy_frac": "ratio",
        "analysis.propagate_self_s": "s",
        "analysis.stack_self_s": "s",
        "analysis.chunk_self_s": "s",
        "analysis.reduce_s": "s",
        "analysis.live_path_step_frac": "ratio",
        "analysis.chunk_increment_mb": "MiB",
        "cli.load_config_s": "s",
        "cli.write_s": "s",
        "cli.bytes_written": "bytes",
        "trace.overhead_frac": "ratio",
    }
    for scheme in workloads.ALL_SCHEMES:
        for metric in ("step_calls", "path_steps", "step_self_s", "ns_per_path_step"):
            units[f"schemes.{metric}.{scheme}"] = units[f"schemes.{metric}"]
    return units


def machine_stamp(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "seed": seed,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """L2/L3 sizes as the kernel reports them for cpu0 (empty if unavailable)."""
    found = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                found[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return found


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest of p90/p95/p99 with at least ten samples beyond it."""
    best = None
    ordered = sorted(samples)
    for p in (90, 95, 99):
        if len(ordered) * (100 - p) / 100 >= 10:
            best = {"p": p, "value": statistics.quantiles(ordered, n=100)[p - 1]}
    return best


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, work: Path) -> tuple[dict, dict]:
    """Run one workload; returns (details, result) for printing."""
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workloads.config_document(name, seed, size, str(work / "out")), indent=1))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "measure", "--workload", name, "--config", str(config), "--work", str(work),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]
    report = json.loads(_check_output(cmd, WORKER_TIMEOUT_S).splitlines()[-1])
    metrics = report.get("metrics", {})
    units = END_TO_END_UNITS if not trace else per_layer_units()
    missing = sorted(set(units) - set(metrics))
    problems = report["problems"] + [f"metric {m} was not measured" for m in missing]
    attempted = max(report["attempted"], 1)
    failed = report["failed"] + (1 if missing and not report["failed"] else 0)
    details = {
        "workload": name,
        "trace": trace,
        "size": size,
        "seconds": seconds,
        "stamp": {**machine_stamp(seed), "numpy": report.get("numpy")},
        "wall_s_samples": report["wall_s_samples"],
        "wall_s_tail": tail_percentile(report["wall_s_samples"]),
        "error_rate": failed / attempted,
        "problems": problems,
    }
    if trace:
        details["traced_wall_s_samples"] = report.get("traced_wall_s_samples", [])
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    return details, result


def _check_output(cmd: list[str], timeout: float) -> str:
    """Run a worker to completion and return its stdout; raise on failure."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tamedsde benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "tamedsde" / "cli.py").is_file():
        print(f"error: no tamedsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    work_base = ROOT / ".perfbench_work"
    results = {}
    try:
        for name in names:
            work = work_base / f"{name}-{os.getpid()}"
            try:
                details, result = run_workload(name, args.seed, args.seconds, args.trace, args.size, work)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                print(f"error: workload {name} did not produce a result: {exc}", file=sys.stderr)
                return 2
            finally:
                shutil.rmtree(work, ignore_errors=True)
            for key, metric in result["metrics"].items():
                print(f"{name:12s} {key:42s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
            print(json.dumps({"details": details}))
            results[name] = result
    finally:
        if work_base.is_dir() and not any(work_base.iterdir()):
            work_base.rmdir()
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
