"""The benchmark's own quick tests: ``python3 -m pytest perfbench``.

Smoke runs of every workload at the tiny size, traced and untraced, check
the result schema and that the printed metric names and units are exactly
those BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_benchmark_json_matches_the_printed_metrics():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    details = json.loads(lines[-2])["details"]
    assert details["stamp"]["seed"] == 7 and details["stamp"]["numpy"]
    assert not (ROOT / ".perfbench_work").exists()


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "converge", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_closed_form_counts_of_the_full_workloads():
    converge = workloads.config_document("converge", 1, "full", "out")
    counts = workloads.expected_counts(converge, 1.0, 1)
    assert counts["schemes.path_steps.semi-tamed-milstein"] == 1024 * (2**14 + 4032)
    assert counts["schemes.path_steps.semi-tamed-euler"] == 1024 * 4032
    assert counts["paths.draw_calls"] == 1024 and counts["analysis.chunks"] == 2
    stability = workloads.config_document("stability", 1, "full", "out")
    counts = workloads.expected_counts(stability, 5.0, 1)
    assert counts["paths.draw_calls"] == 75_000 and counts["analysis.chunks"] == 150
    assert counts["model.coeff_calls"] == 10 * 140 * (3 * 3 + 2 * 4)


def test_checks_reject_a_wrong_output():
    doc = workloads.config_document("converge", 1, "tiny", "out")
    rows = ["scheme,h,rms_error,stderr,excluded_paths"]
    for scheme in doc["schemes"]:
        for k, h in enumerate(doc["stepsizes"]):
            rows.append(f"{scheme},{h!r},{0.1 * h},0.0,{1 if k == 2 else 0}")
    fit = "scheme=semi-tamed-milstein C=1 r=1.0 residual=0\nscheme=semi-tamed-euler C=1 r=0.9 residual=0\n"
    problems = checks.check_converge(doc, "\n".join(rows) + "\n", fit, "tiny")
    assert any("excluded_paths" in p for p in problems)
    assert any("semi-tamed-euler: fitted order" in p for p in problems)
    assert not any("semi-tamed-milstein: fitted order" in p for p in problems)
