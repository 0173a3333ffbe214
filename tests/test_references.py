"""t and sigma against the benchmark's recorded references.

perfbench/references.json holds t and a digest of sigma for every instance of
the three benchmark workloads at seeds 0-63, and perfbench/instances.py builds
those instances. Seeds 0-3 (76 instances) are recomputed here, so a change
that moves the walk's floats is checked against the recorded selections.
Both files are read, never written; the workload specs come from the keys
stored with the references.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import rinv

INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
SEEDS = range(4)


def _load_instances():
    spec = importlib.util.spec_from_file_location("perfbench_instances", INSTANCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


instances = _load_instances()
REFERENCES = instances.load_references()


@pytest.mark.parametrize("workload", sorted(REFERENCES))
def test_selection_matches_references(workload):
    spec = instances.Spec(**json.loads(REFERENCES[workload]["spec"]))
    got, want = [], []
    for seed in SEEDS:
        expected = instances.expected(REFERENCES, workload, spec, seed)
        assert expected is not None and len(expected) == spec.instances
        for dec in instances.make_instances(spec, seed):
            result = rinv.run_selection(dec, spec.epsilon, pivot_rule=spec.pivot)
            got.append({"t": result.schedule.steps_t,
                        "sigma": instances.sigma_digest(result.sigma)})
        want.extend(expected)
    assert got == want
