"""Benchmark of the rinv barrier walk: walk, scan and desk workloads.

    python3 perfbench/run.py --workload walk --seed 0 --seconds 34 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run. Earlier lines hold the environment record and the run
detail (sample counts, tail percentiles, sigma digests, errors). See
perfbench/NOTES.md for the metric definitions and the choice of workloads.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("walk", "scan", "desk")


def bootstrap():
    """Force single-threaded BLAS before numpy loads, then import rinv from src."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rinv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rinv package under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import rinv

    if Path(rinv.__file__).resolve().parent != SRC / "rinv":
        raise SystemExit(f"perfbench: imported rinv from {rinv.__file__}, not {SRC}")


def _git_commit():
    """Commit of the checkout read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    result, detail = workloads.run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
