#!/usr/bin/env python3
"""Run the shipped experiment configs end to end.

Executes every config under configs/ through the CLI and collects the
outputs under results/ at the repository root (the per-config
``output_dir`` values are relative, so the script changes into the
repository root first). The wide convergence study behind the headline
order fits takes minutes of compute and is skipped unless ``--full``
is given; everything else finishes in seconds.

For each file a job writes, the script prints whether its bytes changed
and, if they did, the largest relative change among its numbers (a file
whose text differs beyond its numbers is reported as such).
"""

import argparse
import contextlib
import io
import math
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tamedsde.cli import main as run_cli  # noqa: E402  (needs the path above)

# (subcommand, config file)
DESK_JOBS = [
    ("check", "check_models.json"),
    ("threshold", "threshold_stable.json"),
    ("converge", "convergence_smoke.json"),
    ("stability", "stability_grid.json"),
    ("simulate", "simulate_sample.json"),
]
FULL_JOB = ("converge", "convergence_full.json")

# A decimal number or inf that is not part of a word such as ``h1``.
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf))(?![\w.])")


def _relative_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def describe_change(old, new: bytes) -> str:
    """How the bytes ``new`` differ from ``old`` (``None``: no file before)."""
    if old is None:
        return "new file"
    if old == new:
        return "unchanged"
    old_parts = _NUMBER.split(old.decode("utf-8"))
    new_parts = _NUMBER.split(new.decode("utf-8"))
    if len(old_parts) != len(new_parts) or old_parts[0::2] != new_parts[0::2]:
        return "changed beyond its numbers"
    worst = max(
        _relative_change(float(a), float(b)) for a, b in zip(old_parts[1::2], new_parts[1::2])
    )
    return f"changed, largest relative change of a number {worst:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the shipped experiment configs into results/"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the wide convergence study (minutes of compute)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=8,
        help="worker threads for the Monte Carlo jobs (output is identical)",
    )
    args = parser.parse_args(argv)

    os.chdir(ROOT)

    jobs = DESK_JOBS + ([FULL_JOB] if args.full else [])
    for kind, name in jobs:
        cli_argv = [kind, "--config", str(ROOT / "configs" / name), "--threads", str(args.threads)]
        print(f"== {kind}: configs/{name}")
        before = {path: path.read_bytes() for path in ROOT.glob("results/**/*") if path.is_file()}
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):  # the CLI prints each file it wrote
            code = run_cli(cli_argv)
        for line in printed.getvalue().splitlines():
            path = ROOT / line
            print(f"{line}: {describe_change(before.get(path), path.read_bytes())}")
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
    print("== done; outputs under results/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
