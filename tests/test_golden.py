"""Certificates and step traces against a recorded golden file.

tests/data/golden_desk.json holds, for every instance of the benchmark's
`desk` spec (n = 24, frame and columns modes alternating) at seeds 0-3 under
both pivots, the certificate JSON and the trace records that `rinv select
--trace --output` writes. sigma, t, the booleans, the integers and the key
order must match exactly; certificate and trace floats within 1e-10
relative. perfbench/instances.py builds the instances and is read, never
written. `python tests/test_golden.py` rewrites the data file from the
current code.
"""

import importlib.util
import json
import math
from pathlib import Path

import rinv

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "perfbench" / "instances.py"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_desk.json"
SEEDS = range(4)
PIVOTS = ("first", "greedy")
RTOL = 1e-10


def _load_instances():
    spec = importlib.util.spec_from_file_location("perfbench_instances", INSTANCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


instances = _load_instances()
DESK = instances.Spec(n=24, m=48, epsilon=0.5, pivot="first", instances=8, columns_every=2)


def _runs():
    """One record per (seed, instance, pivot): the certificate and traces as
    the CLI writes them."""
    records = []
    for seed in SEEDS:
        for index, dec in enumerate(instances.make_instances(DESK, seed)):
            for pivot in PIVOTS:
                result = rinv.run_selection(dec, DESK.epsilon, pivot_rule=pivot)
                cert = rinv.verify(dec, DESK.epsilon, result.sigma)
                records.append({
                    "seed": seed, "index": index, "pivot": pivot,
                    "certificate": cert.to_json_dict(),
                    "traces": [tr.to_dict() for tr in result.traces],
                })
    return records


def _assert_close(got, want, where):
    """Equal structure, key order, booleans, integers and strings; floats
    within RTOL relative."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, where


def _load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_golden_covers_desk_spec():
    golden = _load_golden()
    assert [(r["seed"], r["index"], r["pivot"]) for r in golden] == [
        (seed, index, pivot) for seed in SEEDS for index in range(DESK.instances) for pivot in PIVOTS
    ]


def test_certificates_and_traces_match_golden():
    golden = _load_golden()
    # A JSON round trip, so tuples and numpy scalars compare as the CLI writes them.
    got = json.loads(json.dumps(_runs()))
    assert len(got) == len(golden)
    for g, w in zip(got, golden):
        where = f"seed {w['seed']} instance {w['index']} {w['pivot']}"
        assert g["certificate"]["sigma"] == w["certificate"]["sigma"], where
        assert g["certificate"]["t"] == w["certificate"]["t"], where
        _assert_close(g, w, where)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        for record in _runs():
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
