"""Tests of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import instances  # noqa: E402
import workloads  # noqa: E402
from instances import Spec  # noqa: E402

TINY = {
    "walk": Spec(n=32, m=64, epsilon=0.5, pivot="first", instances=2),
    "scan": Spec(n=16, m=128, epsilon=0.5, pivot="greedy", instances=2),
    "desk": Spec(n=8, m=16, epsilon=0.5, pivot="first", instances=2, columns_every=2),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(workload, trace):
    result, detail = workloads.run_workload(workload, 3, 0.0, trace, spec=TINY[workload],
                                            references={})
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if not trace)
    assert set(detail["digests"]) == set(range(TINY[workload].instances))


def test_wrong_reference_digest_counts_as_failure():
    spec = TINY["scan"]
    good, detail = workloads.run_workload("scan", 5, 0.0, False, spec=spec, references={})
    recorded = [detail["digests"][i] for i in range(spec.instances)]
    refs = {"scan": {"spec": spec.key(), "seeds": {"5": recorded}}}
    matched, detail = workloads.run_workload("scan", 5, 0.0, False, spec=spec, references=refs)
    assert detail["references"] and matched["failed"] == 0
    refs["scan"]["seeds"]["5"] = [dict(recorded[0], sigma="0" * 16), recorded[1]]
    result, _ = workloads.run_workload("scan", 5, 0.0, False, spec=spec, references=refs)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["pass_ratio"]["value"] == pytest.approx(1 - 1 / result["attempted"])


def test_walk_trace_counts_decompositions_and_phases_add_up():
    result, _ = workloads.run_workload("walk", 0, 0.0, True, spec=TINY["walk"], references={})
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["matrix_core.eigh_per_step"] == 8
    assert m["matrix_core.eigvalsh_per_step"] == 2
    assert m["selector.candidates_evaluated"] == m["selector.steps"]
    phases = ["entry_s", "preconditions_s", "select_next_s", "post_step_s",
              "trace_assembly_s", "self_s"]
    assert sum(m[f"selector.{p}"] for p in phases) == pytest.approx(m["selector.run_s"])


def test_default_seed_has_references_for_every_instance():
    refs = instances.load_references()
    for name, spec in workloads.SPECS.items():
        recorded = instances.expected(refs, name, spec, 0)
        assert recorded is not None and len(recorded) == spec.instances


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "_traces"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "walk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
