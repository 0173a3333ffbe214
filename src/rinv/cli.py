"""Command-line front end.

Subcommands: select (run + certify), verify (recheck a certificate),
oracle (exhaustive comparison), gen (emit a random tight frame), bench
(barrier selection vs. random subsets). Matrices travel as Matrix Market
files; certificates as JSON; step traces as JSON lines. Indices are
1-based in all user-facing output.

Exit codes: 0 success, 1 usage or I/O error, 2 certificate failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .certificate import gram_min_eigenvalue, verify
from .decomposition import Decomposition, Mode, random_tight_frame, validate
from .errors import CertificateFormatError, ParameterError, RinvError
from .selector import PIVOT_FIRST, PIVOT_GREEDY, run_selection

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT_FAIL = 2
# The most entries (m * n) mmread allocates: 1 GiB of float64.
MM_MAX_ENTRIES = 2**27


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _count(text: str) -> int:
    """argparse type of --n, --m, --seed and --trials: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def mmread(path) -> np.ndarray:
    """Dense float64 matrix from a Matrix Market file.

    Reads the array and coordinate formats, real, integer or (coordinate
    only) pattern entries, and general, symmetric or skew-symmetric
    symmetry. Repeated coordinate entries are summed. Anything else, and a
    declared m * n above MM_MAX_ENTRIES, raises ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        banner = fh.readline().split()
        header = [word.lower() for word in banner[1:]]
        if banner[:1] != ["%%MatrixMarket"] or len(header) != 4 or header[0] != "matrix":
            raise ValueError("missing '%%MatrixMarket matrix ...' banner")
        fmt, field, symmetry = header[1:]
        if (fmt not in ("array", "coordinate") or field not in ("real", "integer", "pattern")
                or symmetry not in ("general", "symmetric", "skew-symmetric")
                or (fmt, field) == ("array", "pattern")):
            raise ValueError(f"unsupported matrix type '{fmt} {field} {symmetry}'")
        line = fh.readline()
        while line and (not line.strip() or line.lstrip().startswith("%")):
            line = fh.readline()
        size = [int(word) for word in line.split()]
        values = np.array(fh.read().split(), dtype=float)
    if len(size) != (3 if fmt == "coordinate" else 2) or min(size) < 0:
        raise ValueError(f"bad size line {line.strip()!r}")
    m, n = size[:2]
    if m * n > MM_MAX_ENTRIES:
        raise ValueError(f"declared size {m} x {n} exceeds {MM_MAX_ENTRIES} entries")
    skew = symmetry == "skew-symmetric"
    if symmetry != "general" and m != n:
        raise ValueError(f"a {symmetry} matrix must be square, got {m} x {n}")
    width = 2 if field == "pattern" else 3
    if fmt == "coordinate":
        count = size[2] * width
    elif symmetry == "general":
        count = m * n
    else:
        count = n * (n + 1) // 2 - skew * n
    if values.size != count:
        raise ValueError(f"expected {count} values after the size line, found {values.size}")
    if fmt == "coordinate":
        entries = values.reshape(-1, width)
        index = entries[:, :2]
        # checked here: numpy would read row 0 - 1 = -1 as the last row
        if not np.all((index == np.floor(index)) & (index >= 1) & (index <= (m, n))):
            raise ValueError(f"coordinate index outside 1..{m} x 1..{n}")
        i, j = (index - 1).astype(np.int64).T
        values = entries[:, 2] if width == 3 else np.ones(len(entries))
    elif symmetry == "general":
        j, i = np.divmod(np.arange(count), m)  # column-major
    else:
        j, i = np.triu_indices(n, skew)  # the lower triangle, column-major
    if symmetry != "general":
        off = i != j
        i, j = np.r_[i, j[off]], np.r_[j, i[off]]
        values = np.r_[values, (-1.0 if skew else 1.0) * values[off]]
    M = np.bincount(i * n + j, weights=values, minlength=m * n)  # int64 when empty
    return M.reshape(m, n).astype(float, copy=False)


def mmwrite(path, M) -> None:
    """Write M as a Matrix Market `array real general` file: one value per
    line in column-major order, with 17 significant digits (`%.16e`)."""
    m, n = M.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n%\n{m} {n}\n")
        fh.write("".join(f"{x:.16e}\n" for x in M.T.ravel().tolist()))


def _read_matrix(path):
    try:
        return mmread(path)
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        raise RinvError(f"cannot parse Matrix Market file {path}: {exc}") from exc


def _load_decomposition(args):
    """The instance of args, unchecked: run_selection validates it for select,
    oracle and bench, and _cmd_verify validates it for verify."""
    L = _read_matrix(args.L)
    mode = Mode.CLASSICAL_COLUMNS if args.mode == "columns" else Mode.FRAME
    if args.V is not None:
        V = _read_matrix(args.V)
    else:
        V = np.eye(L.shape[0])
    return Decomposition(L=L, V=V, mode=mode)


def _json_lines(traces) -> str:
    return "".join(json.dumps(tr.to_dict()) + "\n" for tr in traces)


def _emit(payload: dict, output=None, log=None, traces=()):
    """Print payload as JSON after writing it to output (os.devnull if not given)
    and traces, as JSON lines, to the open file log. output opens first: if it
    cannot, nothing is written."""
    text, lines = json.dumps(payload, indent=2) + "\n", _json_lines(traces)
    with open(output or os.devnull, "w", encoding="utf-8", newline="\n") as out:
        out.write(text)
        if log is not None:
            log.write(lines)
    sys.stdout.write(text)


def _cmd_select(args):
    """Opens --trace (os.devnull if not given) before the walk, so a trace that
    cannot be opened stops the command before the walk runs."""
    dec = _load_decomposition(args)
    with open(args.trace or os.devnull, "w", encoding="utf-8", newline="\n") as log:
        try:
            result = run_selection(dec, args.epsilon, pivot_rule=args.pivot)
        except RinvError as exc:
            if exc.traces is not None:  # a step failed; no --output
                log.write(_json_lines(exc.traces))
            raise
        cert = verify(dec, args.epsilon, result.sigma)
        _emit(cert.to_json_dict(), args.output, log, result.traces)
    return EXIT_OK if cert.passes else EXIT_CERT_FAIL


def _read_certificate(path, m: int):
    """The stored JSON object, its epsilon and its 0-based sigma; sigma's
    entries must be distinct 1-based indices in [1, m], and passes a JSON boolean."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise RinvError(f"cannot read certificate {path}: {exc}") from exc
    if not isinstance(stored, dict):
        raise CertificateFormatError(f"certificate {path} is not a JSON object")
    epsilon, sigma = stored.get("epsilon"), stored.get("sigma", [])
    if type(epsilon) not in (int, float) or not 0.0 < epsilon < 1.0:
        raise CertificateFormatError(
            f"certificate {path}: epsilon must be a number in (0, 1), got {epsilon!r}"
        )
    if type(sigma) is not list or any(type(i) is not int for i in sigma):
        raise CertificateFormatError(
            f"certificate {path}: sigma must be a list of 1-based integer indices"
        )
    bad = next((i for i in sigma if not 1 <= i <= m), None)
    if bad is not None:
        raise CertificateFormatError(f"certificate {path}: sigma entry {bad} is outside [1, {m}]")
    ranked = sorted(sigma)
    repeat = next((i for i, j in zip(ranked, ranked[1:]) if i == j), None)
    if repeat is not None:
        raise CertificateFormatError(f"certificate {path}: sigma entry {repeat} is repeated")
    if type(stored.get("passes")) is not bool:
        raise CertificateFormatError(
            f"certificate {path}: passes must be true or false, got {stored.get('passes')!r}"
        )
    return stored, float(epsilon), [i - 1 for i in sigma]


def _cmd_verify(args):
    dec = validate(_load_decomposition(args))
    stored, epsilon, sigma = _read_certificate(args.certificate, dec.m)
    cert = verify(dec, epsilon, sigma)
    match = stored["passes"] == cert.passes
    _emit(
        {
            "stored_passes": stored["passes"],
            "recomputed_passes": cert.passes,
            "match": match,
            "recomputed": cert.to_json_dict(),
        },
        args.output,
    )
    return EXIT_OK if match and cert.passes else EXIT_CERT_FAIL


def __getattr__(name):
    """compare_to_guarantee, imported from rinv.oracle on first use (PEP 562)."""
    if name == "compare_to_guarantee":
        from .oracle import compare_to_guarantee

        return compare_to_guarantee
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_oracle(args):
    """Looks compare_to_guarantee up on the module at call time, where a
    caller may have replaced it."""
    dec = _load_decomposition(args)
    report = sys.modules[__name__].compare_to_guarantee(dec, args.epsilon, pivot_rule=args.pivot)
    _emit(report.to_json_dict(), args.output)
    return EXIT_OK


def _cmd_gen(args):
    """Refuses, before it draws anything, an m x n that mmread would not read back."""
    if args.m * args.n > MM_MAX_ENTRIES:
        raise ParameterError(f"--m x --n = {args.m} x {args.n} exceeds {MM_MAX_ENTRIES} entries")
    V = random_tight_frame(args.n, args.m, args.seed)
    mmwrite(args.output, V)
    return EXIT_OK


def _cmd_bench(args):
    """The selection's lambda_min against that of args.trials random
    t-subsets."""
    import statistics

    dec = _load_decomposition(args)
    result = run_selection(dec, args.epsilon, pivot_rule=args.pivot)
    cert = verify(dec, args.epsilon, result.sigma)
    t = len(result.sigma)
    rng = np.random.default_rng(args.seed)
    random_vals = []
    for _ in range(args.trials if t else 0):
        # The Gram of the same rows verify forms, without verify's schedule per trial.
        subset = sorted(rng.choice(dec.m, size=t, replace=False).tolist())
        random_vals.append(gram_min_eigenvalue(dec.V[subset] @ dec.L.T))
    payload = {
        "t": t,
        "bound": cert.guarantee_bound,
        "barrier_lambda": None if t == 0 else cert.lambda_min,
        "random_trials": len(random_vals),
        "random_lambda_min": min(random_vals) if random_vals else None,
        "random_lambda_median": statistics.median(random_vals) if random_vals else None,
        "random_lambda_max": max(random_vals) if random_vals else None,
        "random_above_bound": sum(v > cert.guarantee_bound for v in random_vals),
        "vacuous": result.vacuous,
    }
    _emit(payload, args.output)
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="rinv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_instance_flags(p, walk=True):
        p.add_argument("--L", required=True, help="Matrix Market file with the operator L")
        p.add_argument("--V", help="Matrix Market m x n array, row i is v_i (default: standard basis)")
        p.add_argument("--mode", choices=["frame", "columns"], default="frame")
        if walk:
            p.add_argument("--epsilon", type=float, required=True)
            p.add_argument("--pivot", choices=[PIVOT_FIRST, PIVOT_GREEDY], default=PIVOT_FIRST)
        p.add_argument("--output", help="also write the JSON result to this path")

    p = sub.add_parser("select", help="run the barrier selection and certify the result")
    add_instance_flags(p)
    p.add_argument("--trace", help="write per-step diagnostics as JSON lines to this path")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("verify", help="recheck a stored JSON certificate")
    add_instance_flags(p, walk=False)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="compare the selection to the exhaustive optimum")
    add_instance_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a random tight-frame instance")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--m", type=_count, required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--output", required=True, help="Matrix Market output path for V")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="barrier selection vs. random same-size subsets")
    add_instance_flags(p)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RinvError as exc:
        sys.stderr.write(f"rinv: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"rinv: i/o error: {exc}\n")
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())
