"""The three rinv benchmark workloads: walk, scan and desk.

Each workload is a closed loop with one client: the next operation starts when
the previous one has finished. A run first makes a fixed set of instances from
the workload seed, then cycles over them until the measuring time is up,
always completing at least one full pass so that every instance is checked.

- walk: in-process run_selection + verify, first-feasible pivot, n=256, m=512.
  Dense n x n decompositions dominate (8 eigh and 2 eigvalsh per step) and the
  pivot evaluates one candidate per step.
- scan: in-process, greedy pivot, n=64, m=4096. The pivot evaluates every
  remaining candidate (36,828 per instance); the decompositions are 64 x 64.
- desk: `rinv select --trace --output`, `rinv verify --certificate` and
  `rinv oracle` as three processes, one at a time, on n=24 instances that
  alternate between frame mode (m=48, t=3) and columns mode. Process start,
  imports and Matrix Market I/O dominate.
"""

import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np
import rinv
import rinv.cli
from rinv.decomposition import Mode
from rinv.errors import RinvError
from scipy.io import mmwrite

import instances
import tracing
from instances import Spec

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
TRACES = HERE / "_traces"

SPECS = {
    "walk": Spec(n=256, m=512, epsilon=0.5, pivot="first", instances=3),
    "scan": Spec(n=64, m=4096, epsilon=0.5, pivot="greedy", instances=8),
    "desk": Spec(n=24, m=48, epsilon=0.5, pivot="first", instances=8, columns_every=2),
}
SETUP_REPEATS = 7
IMPORT_PROBES = 3
COMMAND_TIMEOUT_S = 60
CLI = "from rinv.cli import console_main; console_main()"

# Calibration. On a shared machine the speed one process gets drifts by tens
# of percent over minutes, which would swamp the run-to-run spread. So an
# untraced run also times a fixed kernel next to every timed operation and
# scales each timing median by the kernel's reference time below over the
# kernel's median in the run: the figures are seconds at the speed the machine
# had when the references were measured (a shared 2-core x86-64 machine,
# OpenBLAS 0.3.31, Python 3.11.7). The kernels use numpy and the interpreter
# only, never rinv.
CALIBRATION_REF_S = {"eigh": 0.0098, "mix": 0.0115, "spawn": 0.21}  # per repetition
# Kernel and repetitions timed before each operation: about a tenth of its time.
OP_KERNEL = {"walk": ("eigh", 32), "scan": ("mix", 8), "desk": ("spawn", 1)}


def eigh_kernel() -> float:
    """Seconds for one dense eigh of a fixed 256 x 256 symmetric matrix, the
    bulk of a walk solve."""
    S = np.random.default_rng(0).standard_normal((256, 256))
    S = S + S.T
    t0 = perf_counter()
    np.linalg.eigh(S)
    return perf_counter() - t0


def mix_kernel() -> float:
    """Seconds for one eigh_kernel plus 250 small matrix-vector products in a
    Python loop: the interpreter-bound candidate tests of a scan solve."""
    rng = np.random.default_rng(1)
    M, W = rng.standard_normal((64, 64)), rng.standard_normal((250, 64))
    t0 = perf_counter()
    for w in W:
        Mw = M @ w
        float(w @ Mw)
        y = M.T @ Mw
        float(y @ y)
    return perf_counter() - t0 + eigh_kernel()


def spawn_kernel() -> float:
    """Seconds for a fresh interpreter that imports numpy: the kind of work that
    dominates a desk command and a set-up probe."""
    return run_python(["-c", "import numpy"])[3]


KERNELS = {"eigh": eigh_kernel, "mix": mix_kernel, "spawn": spawn_kernel}


# Runs in a fresh interpreter: import rinv, then validate every instance.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import rinv
t1 = time.perf_counter()
import instances
decs = instances.make_instances(instances.Spec(**json.loads(sys.argv[1])), int(sys.argv[2]))
t2 = time.perf_counter()
for dec in decs:
    rinv.validate(dec)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "validate_s": t3 - t2}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_python(args, timeout=COMMAND_TIMEOUT_S):
    """Run the interpreter with `args`; return (exit code, stdout, stderr, wall seconds)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=SRC.parent,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


class Run:
    """Counters, samples and correctness state of one benchmark run."""

    def __init__(self, workload: str, spec: Spec, seed: int, references: dict):
        self.spec = spec
        self.op_kernel = OP_KERNEL[workload]
        self.seed = seed
        self.expected = instances.expected(references, workload, spec, seed)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}   # instance index -> {"t", "sigma"}
        self.ratios = {}    # instance index -> lambda_min / bound
        self.samples = {}   # metric name -> instance index -> list of values
        self.tracer = None

    def operation(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def check_selection(self, index: int, order, t: int, passes: bool, ratio: float) -> bool:
        """Check one selection against the reference and earlier repeats."""
        got = {"t": int(t), "sigma": instances.sigma_digest(order)}
        first = self.digests.setdefault(index, got)
        self.ratios[index] = ratio
        ok = passes and len(order) == t and got == first
        if self.expected is not None:
            ok = ok and got == self.expected[index]
        return self.operation(ok, f"instance {index}: {got}, passes={passes}")

    def sample(self, name: str, value: float, index: int = 0):
        self.samples.setdefault(name, {}).setdefault(index, []).append(value)

    def calibrate(self, kernel: str, reps: int = 1):
        self.sample(f"kernel {kernel}", sum(KERNELS[kernel]() for _ in range(reps)) / reps)

    def speed_factor(self, kernel: str) -> float:
        """Reference time of a calibration kernel over its median time in this run."""
        return CALIBRATION_REF_S[kernel] / statistics.median(self.samples[f"kernel {kernel}"][0])

    def typical(self, name: str) -> float:
        """Mean over instances of each instance's median, so the instance mix is fixed."""
        per_instance = self.samples.get(name, {}).values()
        return statistics.fmean(statistics.median(v) for v in per_instance) if per_instance else 0.0

    def count(self, name: str) -> int:
        return sum(map(len, self.samples.get(name, {}).values()))


def _measure(run: Run, seconds: float, operation, trace: bool):
    """Closed loop over the instances until `seconds` pass and every instance ran.

    operation(index) returns {metric: value}, or None when it failed. An
    untraced run times the calibration kernel before every operation. A traced
    run alternates whole passes without and with the tracer installed, so that
    drift during the run does not bias the overhead ratio; traced samples are
    stored under "traced <metric>".
    """
    n = run.spec.instances
    start = perf_counter()
    k = 0
    while k < (2 if trace else 1) * n or perf_counter() - start < seconds:
        index, traced = k % n, trace and (k // n) % 2 == 1
        if traced:
            run.tracer.current_instance = index
            with run.tracer.installed():
                values = operation(index)
        else:
            if not trace:
                run.calibrate(*run.op_kernel)
            values = operation(index)
        for name, value in (values or {}).items():
            run.sample(f"traced {name}" if traced else name, value, index)
        k += 1


# --- walk and scan ---------------------------------------------------------

def _solve(run: Run, dec, index: int):
    spec = run.spec
    t0 = perf_counter()
    try:
        result = rinv.run_selection(dec, spec.epsilon, pivot_rule=spec.pivot)
        cert = rinv.verify(dec, spec.epsilon, result.sigma)
    except RinvError as exc:
        run.operation(False, f"instance {index}: {type(exc).__name__}: {exc}")
        return None
    elapsed = perf_counter() - t0
    ok = run.check_selection(index, result.sigma, result.schedule.steps_t, cert.passes,
                             cert.lambda_min / cert.guarantee_bound)
    return {"solve_s": elapsed} if ok else None


def in_process(run: Run, decs, seconds: float, trace: bool):
    if not trace:
        spec_json = json.dumps(asdict(run.spec))
        for _ in range(SETUP_REPEATS):
            run.calibrate("spawn")
            code, out, err, _ = run_python(["-c", SETUP_PROBE, spec_json, str(run.seed)])
            if code != 0:
                raise RuntimeError(f"setup probe failed: {err.strip()}")
            probe = json.loads(out)
            run.sample("setup_s", probe["import_s"] + probe["validate_s"])
    _measure(run, seconds, lambda index: _solve(run, decs[index], index), trace)


# --- desk -------------------------------------------------------------------

def _write_instance(dec, folder: Path, index: int):
    """Matrix Market files of one instance; returns the instance flags for the CLI."""
    L_path = folder / f"L{index}.mtx"
    mmwrite(str(L_path), dec.L, precision=17)
    if dec.mode == Mode.CLASSICAL_COLUMNS:
        return ["--L", str(L_path), "--mode", "columns"]
    V_path = folder / f"V{index}.mtx"
    mmwrite(str(V_path), dec.V, precision=17)
    return ["--L", str(L_path), "--V", str(V_path)]


def _subprocess_cli(argv):
    try:
        code, out, _, elapsed = run_python(["-c", CLI, *argv])
    except subprocess.TimeoutExpired:
        return None, "", COMMAND_TIMEOUT_S
    return code, out, elapsed


def _in_process_cli(argv):
    out = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = rinv.cli.main(argv)
    return code, out.getvalue(), perf_counter() - t0


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _session(run: Run, flags, folder: Path, index: int, cli):
    """select, verify and oracle on one instance; None when any of them failed."""
    eps = str(run.spec.epsilon)
    cert_path, trace_path = folder / f"cert{index}.json", folder / f"trace{index}.jsonl"
    for path in (cert_path, trace_path):
        path.unlink(missing_ok=True)
    code, out, t_select = cli(["select", *flags, "--epsilon", eps,
                               "--trace", str(trace_path), "--output", str(cert_path)])
    cert = _json_or_none(out)
    ok = code == 0 and cert is not None and cert_path.is_file() and trace_path.is_file()
    if ok:
        with open(trace_path, encoding="utf-8") as fh:
            order = [json.loads(line)["chosen_index"] - 1 for line in fh]
        ok = sorted(order) == [i - 1 for i in cert["sigma"]]
    if ok:
        ok = run.check_selection(index, order, cert["t"], cert["passes"],
                                 cert["lambda_min"] / cert["bound"])
    else:
        run.operation(False, f"instance {index}: select exited {code}")
    code, out, t_verify = cli(["verify", *flags, "--certificate", str(cert_path)])
    checked = _json_or_none(out)
    ok &= run.operation(code == 0 and checked is not None and checked["match"]
                        and checked["recomputed_passes"],
                        f"instance {index}: verify exited {code}")
    code, out, t_oracle = cli(["oracle", *flags, "--epsilon", eps])
    report = _json_or_none(out)
    ok &= run.operation(code == 0 and report is not None and cert is not None
                        and report["sigma"] == cert["sigma"],
                        f"instance {index}: oracle exited {code}")
    if not ok:
        return None
    return {"solve_s": t_select, "session_s": t_select + t_verify + t_oracle,
            "output_bytes": cert_path.stat().st_size + trace_path.stat().st_size}


def desk(run: Run, decs, seconds: float, trace: bool):
    folder = WORK / f"desk-{os.getpid()}"
    folder.mkdir(parents=True, exist_ok=True)
    try:
        flags = [_write_instance(dec, folder, i) for i, dec in enumerate(decs)]
        if not trace:
            for _ in range(SETUP_REPEATS):
                run.calibrate("spawn")
                code, _, err, elapsed = run_python(["-c", "import rinv.cli"])
                if code != 0:
                    raise RuntimeError(f"import rinv.cli failed: {err.strip()}")
                run.sample("setup_s", elapsed)

        cli = _in_process_cli if trace else _subprocess_cli
        _measure(run, seconds, lambda index: _session(run, flags[index], folder, index, cli),
                 trace)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


# --- results ----------------------------------------------------------------

def _tail(values):
    """Sample count and the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return {"samples": n, "percentile": None, "value": None}
    pct = int(100 * (n - 10) / n)
    qs = statistics.quantiles(values, n=100, method="inclusive")
    return {"samples": n, "percentile": pct, "value": qs[pct - 1]}


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def _import_probe():
    found = {"rinv.cli": [], "scipy.io": []}
    for _ in range(IMPORT_PROBES):
        code, _, err, _ = run_python(["-X", "importtime", "-c", "import rinv.cli"])
        if code != 0:
            raise RuntimeError(f"import rinv.cli failed: {err.strip()}")
        for name, seconds in tracing.parse_importtime(err).items():
            found[name].append(seconds)
    return {"cli.import_s": (_median_or_zero(found["rinv.cli"]), "s"),
            "cli.scipy_io_import_s": (_median_or_zero(found["scipy.io"]), "s")}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: Spec | None = None, references: dict | None = None):
    """Run one workload; returns (result line dict, detail dict)."""
    spec = spec or SPECS[workload]
    if references is None:
        references = instances.load_references()
    run = Run(workload, spec, seed, references)
    if trace:
        run.tracer = tracing.Tracer()
    decs = instances.make_instances(spec, seed)
    run_python(["-c", "import rinv.cli"])  # byte-compile the sources before timing
    (desk if workload == "desk" else in_process)(run, decs, seconds, trace)

    # A walk or scan session is one solve; a desk session is select + verify + oracle.
    session = "session_s" if workload == "desk" else "solve_s"
    detail = {"workload": workload, "seed": seed, "spec": asdict(spec),
              "references": run.expected is not None, "digests": run.digests,
              "lambda_ratio_min": min(run.ratios.values(), default=None),
              "errors": run.errors[:20],
              "tails": {k: _tail([x for xs in v.values() for x in xs])
                        for k, v in sorted(run.samples.items())}}
    if trace:
        units = run.count(f"traced {session}")
        metrics = tracing.layer_metrics(run.tracer.arrays(), max(units, 1))
        untraced = run.typical(session)
        overhead = run.typical(f"traced {session}") / untraced - 1.0 if untraced else 0.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        metrics["cli.output_bytes"] = (run.typical("output_bytes"), "bytes")
        metrics.update(_import_probe())
        TRACES.mkdir(exist_ok=True)
        spans_path = TRACES / f"{workload}-seed{seed}.npz"
        run.tracer.save(spans_path)
        detail["spans"] = str(spans_path.relative_to(HERE.parent))
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "desk"
                                   else resource.RUSAGE_SELF)
        spawn, op = run.speed_factor("spawn"), run.speed_factor(run.op_kernel[0])
        detail["calibration"] = {
            "factors": {"spawn": spawn, run.op_kernel[0]: op},
            "raw_s": {name: run.typical(name) for name in ("setup_s", "solve_s", session)}}
        metrics = {
            "setup_s": (run.typical("setup_s") * spawn, "s"),
            "solve_s": (run.typical("solve_s") * op, "s"),
            "session_s": (run.typical(session) * op, "s"),
            "pass_ratio": (1.0 - run.failed / run.attempted, "ratio"),
            "lambda_ratio_mean": (statistics.fmean(run.ratios.values())
                                  if run.ratios else 0.0, "ratio"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    return result, detail
