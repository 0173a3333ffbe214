"""t and sigma against the benchmark's recorded references.

perfbench/references.json holds t and a digest of sigma for every instance of
the three benchmark workloads at seeds 0-63, and perfbench/instances.py builds
those instances. Seeds 0-3 (76 instances) are recomputed here through
tools/behaviour_diff.py's reference check, so a change that moves the walk's
floats is checked against the recorded selections. Both files are read, never
written; the workload specs come from the keys stored with the references.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "behaviour_diff.py"
SEEDS = range(4)


def _load_tool():
    spec = importlib.util.spec_from_file_location("behaviour_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


behaviour_diff = _load_tool()
instances = behaviour_diff._instances_module()
REFERENCES = instances.load_references()


@pytest.mark.parametrize("workload", sorted(REFERENCES))
def test_selection_matches_references(workload):
    instances = json.loads(REFERENCES[workload]["spec"])["instances"]
    report = behaviour_diff.check_references(SEEDS, [workload])
    assert report == {"checked": len(SEEDS) * instances, "mismatches": 0, "first": []}
