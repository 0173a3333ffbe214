"""What `import rinv.cli` costs beyond numpy: no generated record code
(dataclasses), no oracle and no numpy.ma, each checked in a fresh
interpreter, and neither of the first two once select and verify have run;
the oracle's names still resolve on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rinv
from rinv import Decomposition, random_tight_frame, run_selection

SRC = str(Path(rinv.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports rinv from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_dataclasses_oracle_or_numpy_ma():
    out = _fresh("import sys, rinv.cli; "
                 "print([k for k in ('dataclasses', 'rinv.oracle', 'numpy.ma') if k in sys.modules])")
    assert out == "[]\n"


def test_select_and_verify_load_no_dataclasses_or_oracle(ramp24, tmp_path):
    # Running the commands, not only importing rinv.cli: select under both
    # pivots with --trace and --output, then verify of the certificate.
    files = [str(tmp_path / "cert.json"), str(tmp_path / "trace.jsonl")]
    out = _fresh(
        "import contextlib, io, sys\n"
        "from rinv.cli import main\n"
        f"instance, (cert, trace) = {ramp24!r}, {files!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['select', *instance, '--epsilon', '0.5', '--pivot', pivot,\n"
        "                   '--trace', trace, '--output', cert]) for pivot in ('greedy', 'first')]\n"
        "    codes.append(main(['verify', *instance, '--certificate', cert]))\n"
        "print(codes, [k for k in ('dataclasses', 'rinv.oracle') if k in sys.modules])\n"
    )
    assert out == "[0, 0, 0] []\n"


def test_oracle_names_resolve_on_first_use():
    out = _fresh(
        "import json, sys, rinv, rinv.cli\n"
        "assert 'rinv.oracle' not in sys.modules\n"
        "star = {}\n"
        "exec('from rinv import *', star)\n"
        "import rinv.oracle as oracle\n"
        "print(json.dumps([\n"
        "    rinv.compare_to_guarantee is oracle.compare_to_guarantee,\n"
        "    rinv.exhaustive_best_subset is oracle.exhaustive_best_subset,\n"
        "    rinv.cli.compare_to_guarantee is oracle.compare_to_guarantee,\n"
        "    sorted(k for k in star if not k.startswith('__')),\n"
        "]))\n"
    )
    *same, star = json.loads(out)
    assert same == [True, True, True]
    assert star == sorted(rinv.__all__) and len(star) == 16


def test_trace_line_nests_preconditions_as_an_object():
    dec = Decomposition(L=np.diag(np.linspace(1.0, 2.0, 8)), V=random_tight_frame(8, 16, 0))
    line = run_selection(dec, 0.5).traces[0].to_dict()
    assert type(line["preconditions"]) is dict
    assert list(line) == ["step", "chosen_index", "barrier_before", "barrier_after",
                          "phi_before", "phi_after", "phi_image", "phi_kernel",
                          "kernel_frob_sq", "candidates_scanned", "quadform_margin",
                          "potential_margin", "preconditions"]
    assert list(json.loads(json.dumps(line))["preconditions"]) == [
        "potential_ok", "barrier_window_ok", "kernel_mass_ok", "averaging_ok"]
