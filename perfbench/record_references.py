"""Record the sigma references that benchmark runs are checked against.

    python3 perfbench/record_references.py --seeds 0-31

For every workload and seed, runs the selection in-process on each instance
and stores t and the digest of the selection order in perfbench/references.json.
Run it only at a commit whose selections are trusted: a later run of a
recorded seed counts any differing t or sigma as a failed operation.
"""

import argparse
import json

import run

run.bootstrap()

import rinv  # noqa: E402
import instances  # noqa: E402
import workloads  # noqa: E402


def record(seeds) -> dict:
    out = {}
    for name, spec in workloads.SPECS.items():
        per_seed = {}
        for seed in seeds:
            entries = []
            for dec in instances.make_instances(spec, seed):
                result = rinv.run_selection(dec, spec.epsilon, pivot_rule=spec.pivot)
                entries.append({"t": result.schedule.steps_t,
                                "sigma": instances.sigma_digest(result.sigma)})
            per_seed[str(seed)] = entries
        out[name] = {"spec": spec.key(), "seeds": per_seed}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    references = record(range(first, last + 1))
    with open(instances.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
