"""tools/behaviour_diff.py on the desk instances of one seed: the working
tree against itself reports nothing, and a copy of src with greedy's pick
reversed is reported and fails the run."""

import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("sigma_t", "certificate", "stdout", "stderr", "exit", "trace_schema")


@pytest.fixture()
def diff(monkeypatch, capsys):
    """The tool's exit code and JSON line against a src folder, run in-process
    on the desk workload only; the environment and sys.path it changes are
    restored afterwards."""
    spec = importlib.util.spec_from_file_location("behaviour_diff",
                                                  ROOT / "tools" / "behaviour_diff.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "WORKLOADS", ("desk",))
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, os.environ.get(name, "1"))

    def run(base_src):
        code = tool.main(["--base-src", str(base_src), "--seeds", "0"])
        return code, json.loads(capsys.readouterr().out)

    return run


def test_tree_against_itself_reports_nothing(diff):
    code, report = diff(ROOT / "src")
    assert code == 0
    assert [report[key] for key in COUNTS] == [0] * len(COUNTS)
    assert report["trace_ints"] == report["trace_flags"] == report["examples"] == {}
    assert report["runs"] == 48 and len(report["trace_floats"]) == 9
    assert all(move == {"rel": 0.0, "at": None} for move in report["trace_floats"].values())
    assert report["references"] == {"checked": 8, "mismatches": 0, "first": []}


def test_reversed_greedy_pick_is_reported(diff, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    selector = src / "rinv" / "selector.py"
    text, pick = selector.read_text(), "np.where(ok, after, np.inf).argmin()"
    assert text.count(pick) == 1
    selector.write_text(text.replace(pick, "np.where(ok, after, -np.inf).argmax()"))
    code, report = diff(src)
    assert code == 1
    assert report["sigma_t"] > 0 and report["certificate"] > 0 and report["stdout"] > 0
    assert "/greedy/" in report["examples"]["sigma_t"]
    assert report["references"]["mismatches"] == 0  # the working tree's own check
