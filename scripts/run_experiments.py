#!/usr/bin/env python3
"""Run the shipped experiment configs end to end.

Executes every config under configs/ through the CLI and collects the
outputs under results/ at the repository root (the per-config
``output_dir`` values are relative, so the script changes into the
repository root first). The wide convergence study behind the headline
order fits takes minutes of compute and is skipped unless ``--full``
is given; everything else finishes in seconds.
"""

import argparse
import os
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
        code = run_cli(cli_argv)
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code
    print("== done; outputs under results/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
