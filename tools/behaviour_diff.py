"""Diff what two source trees of rinv select, certify and trace.

    python3 tools/behaviour_diff.py --base HEAD^
    python3 tools/behaviour_diff.py --base-src ../other/src --seeds 0

The instances are the benchmark's: perfbench/instances.py builds them from
the specs stored in perfbench/references.json, and this tool only reads those
two files. The instances of the chosen seeds (default 0, 9, ..., 63) are
written once as Matrix Market files. Each tree then runs, in its own
subprocess with one BLAS thread, through rinv.cli.main: `select --trace
--output` under both pivots on every instance, and `verify` and `oracle` on
the desk instances.

--base <rev> checks the revision out with `git worktree add` into a
temporary folder and removes it afterwards; --base-src <dir> takes a `src`
folder directly. The working tree's `src` is the other side. The working
tree's sigma and t are also checked against every recorded entry of
perfbench/references.json (only the --seeds given, if any).

Prints one JSON line: mismatches of sigma and t, counts of differing
certificates, stdout, stderr, exit codes, trace schemas, trace integers and
trace flags, and for each float trace key the largest relative move and where
it happened. Exits 1 on any difference but a float move, which is reported
only, 2 if a tree's worker fails, and 0 otherwise.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIFF_SEEDS = tuple(range(0, 64, 9))
WORKLOADS = ("walk", "scan", "desk")
PIVOTS = ("first", "greedy")
COUNTS = ("sigma_t", "certificate", "stdout", "stderr", "exit", "trace_schema")


def _instances_module():
    spec = importlib.util.spec_from_file_location("perfbench_instances",
                                                  ROOT / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _specs(instances, workloads):
    refs = instances.load_references()
    return refs, {w: instances.Spec(**json.loads(refs[w]["spec"])) for w in workloads}


def write_jobs(folder: Path, seeds):
    """Write the instances as Matrix Market files under folder; return the
    jobs, each a name and the argv of one rinv command with {out} for the
    tree's output folder."""
    from rinv.cli import mmwrite

    instances = _instances_module()
    _, specs = _specs(instances, WORKLOADS)
    jobs = []
    for workload, spec in specs.items():
        for seed in seeds:
            for index, dec in enumerate(instances.make_instances(spec, seed)):
                name = f"{workload}/{seed}/{index}"
                where = folder / name.replace("/", "-")
                where.mkdir()
                mmwrite(where / "L.mtx", dec.L)
                args = ["--L", str(where / "L.mtx")]
                if dec.mode == instances.Mode.CLASSICAL_COLUMNS:
                    args += ["--mode", "columns"]
                else:
                    mmwrite(where / "V.mtx", dec.V)
                    args += ["--V", str(where / "V.mtx")]
                for pivot in PIVOTS:
                    run, out = f"{name}/{pivot}", "{out}/" + f"{name}/{pivot}".replace("/", "-")
                    walk = args + ["--epsilon", repr(spec.epsilon), "--pivot", pivot]
                    jobs.append((f"{run}/select", ["select", *walk, "--trace", out + ".jsonl",
                                                   "--output", out + ".json"]))
                    if workload == "desk":
                        jobs.append((f"{run}/verify", ["verify", *args, "--certificate",
                                                       out + ".json"]))
                        jobs.append((f"{run}/oracle", ["oracle", *walk]))
    return jobs


def worker(src: str, jobs_path: str, out: str) -> None:
    """Run each job through rinv.cli.main of the tree at src; write
    {name: [exit, stdout, stderr, output file, trace file]} to out/results.json."""
    import rinv.cli

    if Path(rinv.cli.__file__).resolve().parents[1] != Path(src).resolve():
        sys.exit(f"rinv imported from {rinv.cli.__file__}, not from {src}")
    results = {}
    for name, argv in json.loads(Path(jobs_path).read_text()):
        argv = [arg.replace("{out}", out) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = rinv.cli.main(argv)
        files = [Path(argv[argv.index(flag) + 1]) if flag in argv else None
                 for flag in ("--output", "--trace")]
        results[name] = [code, stdout.getvalue(), stderr.getvalue(),
                         *(f.read_text() if f and f.exists() else None for f in files)]
    Path(out, "results.json").write_text(json.dumps(results))


def _start(src: Path, jobs_path: Path, out: Path):
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, __file__, "--worker", str(src), str(jobs_path),
                             str(out)], env=env)


def _rel(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _flat(line: dict, prefix=""):
    """A trace line's (key, value) pairs, nested dicts flattened to a.b keys."""
    for key, value in line.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def compare(base: dict, head: dict) -> dict:
    """The report of two workers' results, as described in the module docstring."""
    report = dict.fromkeys(COUNTS, 0)
    report.update(runs=len(base), trace_ints={}, trace_flags={}, trace_floats={}, examples={})

    def count(kind, name, key=None):
        report["examples"].setdefault(kind, name)
        if key is None:
            report[kind] += 1
        else:
            report[kind][key] = report[kind].get(key, 0) + 1

    for name, b in base.items():
        h = head.get(name)
        if h is None:
            count("exit", name)
            continue
        for kind, i in (("exit", 0), ("stdout", 1), ("stderr", 2)):
            if b[i] != h[i]:
                count(kind, name)
        if not name.endswith("/select"):
            continue
        if b[3] != h[3]:
            count("certificate", name)
        cert_b, cert_h = (json.loads(x) if x else {} for x in (b[3], h[3]))
        if [cert_b.get(k) for k in ("sigma", "t")] != [cert_h.get(k) for k in ("sigma", "t")]:
            count("sigma_t", name)
        lines_b, lines_h = ([dict(_flat(json.loads(x))) for x in (t or "").splitlines()]
                            for t in (b[4], h[4]))
        if len(lines_b) != len(lines_h):
            count("trace_schema", name)
            continue
        for step, (lb, lh) in enumerate(zip(lines_b, lines_h), 1):
            if [(k, type(v)) for k, v in lb.items()] != [(k, type(v)) for k, v in lh.items()]:
                count("trace_schema", name)
                continue
            for key, vb in lb.items():
                vh, floats = lh[key], report["trace_floats"]
                if isinstance(vb, float):
                    rel = _rel(vb, vh)
                    if rel >= floats.get(key, {"rel": 0.0})["rel"]:
                        floats[key] = {"rel": rel, "at": f"{name} step {step}" if rel else None}
                elif vb != vh:
                    count("trace_flags" if isinstance(vb, bool) else "trace_ints", name, key)
    return report


def check_references(seeds, workloads) -> dict:
    """sigma and t of the working tree, in-process, against the recorded
    references of the given seeds (every recorded seed if None)."""
    import rinv

    instances = _instances_module()
    refs, specs = _specs(instances, workloads)
    checked, mismatches = 0, []
    for workload, spec in specs.items():
        for seed in seeds if seeds is not None else sorted(map(int, refs[workload]["seeds"])):
            want = instances.expected(refs, workload, spec, seed)
            for index, dec in enumerate(instances.make_instances(spec, seed)):
                result = rinv.run_selection(dec, spec.epsilon, pivot_rule=spec.pivot)
                got = {"t": result.schedule.steps_t, "sigma": instances.sigma_digest(result.sigma)}
                checked += 1
                if want is None or got != want[index]:
                    mismatches.append(f"{workload}/{seed}/{index}")
    return {"checked": checked, "mismatches": len(mismatches), "first": mismatches[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", help="git revision to compare the working tree with")
    side.add_argument("--base-src", type=Path, help="src folder to compare the working tree with")
    parser.add_argument("--seeds", help="comma-separated workload seeds (default 0,9,...,63; "
                        "the references check then takes only these)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None

    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(ROOT / "src"))
    tmp = Path(tempfile.mkdtemp(prefix="behaviour-diff-"))
    worktree, procs = tmp / "base", []
    try:
        if args.base:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                            str(worktree), args.base], check=True)
            base_src = worktree / "src"
        else:
            base_src = args.base_src
        (tmp / "instances").mkdir()
        jobs = write_jobs(tmp / "instances", seeds or DIFF_SEEDS)
        (tmp / "jobs.json").write_text(json.dumps(jobs))
        for side, src in (("old", base_src), ("new", ROOT / "src")):
            procs.append(_start(src, tmp / "jobs.json", tmp / side))
        references = check_references(seeds, WORKLOADS)
        if any([proc.wait() for proc in procs]):
            sys.stderr.write("behaviour_diff: a worker failed\n")
            return 2
        old, new = (json.loads((tmp / side / "results.json").read_text())
                    for side in ("old", "new"))
    finally:
        for proc in procs:
            proc.kill()  # a no-op for a worker that has exited
            proc.wait()
        if args.base and worktree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(worktree)],
                           check=False)
        shutil.rmtree(tmp, ignore_errors=True)
    report = compare(old, new)
    report["references"] = references
    print(json.dumps({"base": args.base or str(args.base_src), **report}))
    failed = any(report[key] for key in COUNTS + ("trace_ints", "trace_flags"))
    failed = failed or references["mismatches"]
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:5])
    else:
        sys.exit(main())
