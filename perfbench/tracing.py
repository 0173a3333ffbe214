"""Outside-in layer tracing for the rinv benchmark.

Spans are recorded by replacing module attributes of rinv (and
numpy.linalg.eigh / eigvalsh) with timing wrappers for the duration of a
traced run; the sources under src/ are never touched. A call site inside rinv
that looks a name up in its module's globals at call time therefore shows up
as a span. Spans are kept in flat in-memory arrays (a scan run records close
to a million) and written out once, when the run ends.
"""

import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import rinv
import rinv.certificate
import rinv.cli
import rinv.oracle
import rinv.selector


def _matrix_order(args, kwargs):
    return np.shape(args[0])[-1]


def _retry_slack(args, kwargs):
    slack = args[6] if len(args) > 6 else kwargs.get("slack", 0.0)
    return float(slack > 0.0)


def _subset_count(args, kwargs):
    dec, t = args[0], args[1]
    return math.comb(dec.m, t)


# (span name, modules whose attribute of that name is replaced, note taken from the call)
TARGETS = [
    ("main", [rinv.cli], None),
    ("mmread", [rinv.cli], None),
    ("validate", [rinv.selector, rinv.cli], None),
    ("run_selection", [rinv.selector, rinv.cli, rinv], None),
    ("compute_schedule", [rinv.selector], None),
    ("check_step_preconditions", [rinv.selector], None),
    ("select_next", [rinv.selector], None),
    ("candidate_feasible", [rinv.selector], _retry_slack),
    ("potential", [rinv.selector], None),
    ("potential_split", [rinv.selector], None),
    ("check_interlacing", [rinv.selector], None),
    ("shifted_inverse", [rinv.selector], None),
    ("verify", [rinv.certificate, rinv.cli, rinv], None),
    ("compare_to_guarantee", [rinv.cli], None),
    ("exhaustive_best_subset", [rinv.oracle], _subset_count),
    ("eigh", [np.linalg], _matrix_order),
    ("eigvalsh", [np.linalg], _matrix_order),
]
NAMES = [name for name, _, _ in TARGETS]


class Tracer:
    """In-memory span recorder: name, start, end, parent span, instance and a note.

    The note is a number taken from the call's arguments: the matrix order of an
    eigh/eigvalsh call, 1 for a candidate test on the retry pass, or the subset
    count of an oracle enumeration; NaN elsewhere.
    """

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.note = array("d")
        self.current_instance = -1
        self._stack = []

    def wrap(self, name, fn, note=None):
        code = NAMES.index(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.instance.append(self.current_instance)
            self.note.append(note(args, kwargs) if note else math.nan)
            self.end.append(math.nan)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Replace every target attribute with a traced wrapper; restore on exit."""
        saved = []
        try:
            for name, modules, note in TARGETS:
                wrapper = self.wrap(name, getattr(modules[0], name), note)
                for module in modules:
                    saved.append((module, name, getattr(module, name)))
                    setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "instance": np.frombuffer(self.instance, dtype=np.int32),
                "note": np.frombuffer(self.note)}

    def save(self, path):
        """Write every span to a compressed .npz file (span names in `names`)."""
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def layer_metrics(spans: dict, units: int) -> dict:
    """Per-layer figures from the spans of `units` traced operations.

    Times and counts are means per operation (a walk/scan solve or a desk
    session); per-step figures divide by the number of selector steps.
    """
    name, parent, note = spans["name"], spans["parent"], spans["note"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    code = {n: i for i, n in enumerate(NAMES)}
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    under_run = parent_name == code["run_selection"]
    in_run = under_run.copy()  # the span lies somewhere inside a run_selection span
    while True:
        deeper = under_run | (has_parent & in_run[np.maximum(parent, 0)])
        if np.array_equal(deeper, in_run):
            break
        in_run = deeper

    def mask(*names):
        return np.isin(name, [code[n] for n in names])

    eigh, eigvalsh = mask("eigh") & in_run, mask("eigvalsh") & in_run
    decomp = eigh | eigvalsh
    steps = int(np.sum(mask("select_next") & under_run))
    per_step = max(steps, 1)
    run_s = float(dur[mask("run_selection")].sum())
    decomp_s = float(dur[decomp].sum())
    evaluated = int(mask("candidate_feasible").sum())
    oracle = mask("exhaustive_best_subset")
    enumerate_s = float(dur[oracle].sum())

    def total(*names, where=True, values=dur):
        return float(values[mask(*names) & where].sum())

    raw = {
        "selector.steps": (steps, "count"),
        "selector.run_s": (run_s, "s"),
        "selector.entry_s": (total("validate", "compute_schedule", where=under_run), "s"),
        "selector.preconditions_s": (total("check_step_preconditions"), "s"),
        "selector.select_next_s": (total("select_next"), "s"),
        "selector.scan_s": (total("select_next", values=self_time)
                            + total("candidate_feasible"), "s"),
        "selector.candidates_evaluated": (evaluated, "count"),
        "selector.retry_scans": (int(np.sum(mask("candidate_feasible") & (note > 0))), "count"),
        "selector.post_step_s": (total("potential", "check_interlacing", "eigvalsh",
                                       where=under_run), "s"),
        "selector.trace_assembly_s": (total("potential_split", where=under_run), "s"),
        "selector.self_s": (total("run_selection", values=self_time), "s"),
        "matrix_core.decomp_s": (decomp_s, "s"),
        "matrix_core.shifted_inverse_calls": (int(mask("shifted_inverse").sum()), "count"),
        "decomposition.validate_s": (total("validate"), "s"),
        "decomposition.validate_calls": (int(mask("validate").sum()), "count"),
        "certificate.verify_s": (total("verify"), "s"),
        "oracle.enumerate_s": (enumerate_s, "s"),
        "cli.mmread_s": (total("mmread"), "s"),
        "cli.main_self_s": (total("main", values=self_time), "s"),
    }
    out = {key: (value / units, unit) for key, (value, unit) in raw.items()}
    out["selector.scan_yield"] = (steps / evaluated if evaluated else 0.0, "ratio")
    out["matrix_core.eigh_per_step"] = (int(eigh.sum()) / per_step, "count")
    out["matrix_core.eigvalsh_per_step"] = (int(eigvalsh.sum()) / per_step, "count")
    out["matrix_core.decomp_share"] = (decomp_s / run_s if run_s else 0.0, "ratio")
    out["matrix_core.decomp_n3_per_step"] = (float(np.sum(note[decomp] ** 3)) / per_step,
                                             "n3_computed")
    out["oracle.subsets_per_s"] = (float(note[oracle].sum()) / enumerate_s
                                   if enumerate_s else 0.0, "1/s")
    return out


def parse_importtime(stderr: str, modules=("rinv.cli", "scipy.io")) -> dict:
    """Cumulative import seconds of the named modules from `python -X importtime`."""
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            module = parts[2].strip()
            if module in modules:
                found[module] = int(parts[1]) / 1e6
    return found
