"""Self-test of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python -m pytest -q perfbench/test_perfbench.py

It takes a few minutes: every workload runs traced, twice, at full size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import repro.kernel.dispatch  # noqa: E402
import repro.runtime.actors  # noqa: E402
from perfbench import run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Counts that must repeat exactly for one seed (time-free regression
#: evidence), per the benchmark's documentation.
DETERMINISTIC = (
    "messages_per_update",
    "bytes_per_update",
    "core.backdate_calls",
    "relational.terms_built",
    "durability.records",
    "durability.snapshots",
    "serving.backend_reads",
    "warehouse.queries_saved",
)


def _counts(name: str, seed: int, checks: run.Checks) -> dict:
    tracer = Tracer()
    iteration = run.run_iteration(name, seed, checks, tracer=tracer)
    run.check_traced(name, iteration, tracer, checks)
    metrics = run.layer_metrics(tracer, iteration)
    metrics["messages_per_update"] = iteration["messages"] / iteration["updates"]
    metrics["bytes_per_update"] = iteration["bytes"] / iteration["updates"]
    return {key: metrics[key] for key in DETERMINISTIC}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_one_seed(name):
    run.OUT_DIR.mkdir(exist_ok=True)
    checks = run.Checks()
    first = _counts(name, 7, checks)
    second = _counts(name, 7, checks)
    assert first == second
    assert checks.failures == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_passes_every_gate(name):
    run.OUT_DIR.mkdir(exist_ok=True)
    checks = run.Checks()
    run.run_iteration(name, 12345, checks)
    run.consistency_run(name, 12345, checks)
    assert checks.attempted > 0
    assert checks.failures == []


def test_patches_are_undone_after_a_traced_run():
    checks = run.Checks()
    run.OUT_DIR.mkdir(exist_ok=True)
    run.run_iteration("eca-batch8", 1, checks, tracer=Tracer())
    assert repro.runtime.actors.dispatch_event is repro.kernel.dispatch.dispatch_event


def test_declared_metrics_match_emitted_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = run.Checks()
    run.OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    iteration = run.run_iteration("eca-batch8", 1, checks, tracer=tracer)
    per_layer = run.layer_metrics(tracer, iteration)
    per_layer["runtime.tracing_overhead"] = 0.0
    per_layer["runtime.reference_s"] = 0.1
    assert {m["name"] for m in declared["per_layer"]} == set(per_layer)
    assert {m["name"] for m in declared["end_to_end"]} == set(run.UNITS)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert run.unit(metric["name"]) == metric["unit"], metric["name"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eca-uqs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
