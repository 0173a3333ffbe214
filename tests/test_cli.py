"""CLI round trips, exit codes, and output formats."""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st
from scipy.io import mmread, mmwrite

import rinv
import rinv.certificate
import rinv.cli
import rinv.selector
from rinv.cli import main


@pytest.fixture()
def id4(tmp_path):
    path = tmp_path / "id4.mtx"
    mmwrite(str(path), np.eye(4), precision=17)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestSelect:
    def test_identity_instance(self, id4, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["select", "--L", id4, "--epsilon", "0.5", "--output", str(out)])
        assert code == 0
        cert = read_json(out)
        assert cert["sigma"] == [1]
        assert cert["passes"] is True
        assert cert["t"] == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed == cert

    def test_trace_jsonl(self, id4, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["select", "--L", id4, "--epsilon", "0.9", "--trace", str(trace)]
        )
        assert code == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == 3  # floor(0.81 * 4)
        assert [l["step"] for l in lines] == [1, 2, 3]
        assert all(l["preconditions"]["averaging_ok"] for l in lines)

    @pytest.mark.parametrize("unwritable", ["--output", "--trace"])
    def test_unwritable_file_leaves_the_other_empty(self, id4, tmp_path, capsys, unwritable):
        # A select that cannot open one of its files exits 1 with one i/o
        # error line, prints nothing and writes nothing to the other file.
        paths = {"--output": tmp_path / "cert.json", "--trace": tmp_path / "trace.jsonl"}
        paths[unwritable] = tmp_path / "missing" / paths[unwritable].name
        flags = [str(part) for pair in paths.items() for part in pair]
        assert main(["select", "--L", id4, "--epsilon", "0.9", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rinv: i/o error: ")
        assert captured.err.count("\n") == 1
        written = next(path for flag, path in paths.items() if flag != unwritable)
        assert not written.exists() or written.read_text() == ""

    def test_failed_walk_keeps_the_completed_steps(self, tmp_path, capsys, monkeypatch):
        # At RI_TOLERANCE_SCALE = 3e7 the walk on the CI's 24 x 24 ramp
        # instance fails at step 5: --trace keeps the 4 steps before it, as
        # chosen at scale 1, one error line is printed and --output is not made.
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))
        L, V = tmp_path / "L.mtx", tmp_path / "V.mtx"
        rinv.cli.mmwrite(L, Q * np.linspace(1.0, 2.0, 24))
        assert main(["gen", "--n", "24", "--m", "48", "--output", str(V)]) == 0
        flags = ["select", "--L", str(L), "--V", str(V), "--epsilon", "0.8"]
        full, partial, cert = (tmp_path / f for f in ("full.jsonl", "partial.jsonl", "cert.json"))
        assert main([*flags, "--trace", str(full)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("RI_TOLERANCE_SCALE", "3e7")
        assert main([*flags, "--trace", str(partial), "--output", str(cert)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rinv: error: barrier invariant failed: the Gram of the 5 ")
        assert captured.err.count("\n") == 1
        assert not cert.exists()
        chosen = [[json.loads(line)["chosen_index"] for line in path.read_text().splitlines()]
                  for path in (partial, full)]
        assert len(chosen[1]) > 4 and len(chosen[0]) == 4 and chosen[0] == chosen[1][:4]

    def test_epsilon_out_of_range(self, id4, capsys):
        for command in ("select", "oracle", "bench"):
            assert main([command, "--L", id4, "--epsilon", "1.5"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "rinv: error: epsilon must be in (0, 1), got 1.5\n"

    def test_non_square_L_without_V(self, tmp_path, capsys):
        lpath = tmp_path / "L.mtx"
        mmwrite(str(lpath), np.ones((2, 3)), precision=17)
        assert main(["select", "--L", str(lpath), "--epsilon", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rinv: error: L must be square")

    @pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["overflow", "underflow"])
    def test_norm_outside_float_range_exits_1(self, tmp_path, capsys, scale):
        lpath = tmp_path / "L.mtx"
        mmwrite(str(lpath), scale * np.eye(4), precision=17)
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps({"sigma": [1], "epsilon": 0.5, "passes": True}))
        for args in (["select", "--epsilon", "0.5"], ["oracle", "--epsilon", "0.5"],
                     ["bench", "--epsilon", "0.5"], ["verify", "--certificate", str(cert_path)]):
            assert main(args + ["--L", str(lpath)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("rinv: error: ||L||_F^2 = ")
            assert "is outside the float range" in captured.err

    def test_missing_file(self, tmp_path):
        assert main(["select", "--L", str(tmp_path / "nope.mtx"), "--epsilon", "0.5"]) == 1

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("this is not a matrix market file\n")
        assert main(["select", "--L", str(bad), "--epsilon", "0.5"]) == 1

    def test_byte_identical_reruns(self, id4, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["select", "--L", id4, "--epsilon", "0.7", "--output", str(a)]) == 0
        assert main(["select", "--L", id4, "--epsilon", "0.7", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGen:
    def test_gen_then_select(self, tmp_path, capsys):
        vpath = tmp_path / "V.mtx"
        assert main(["gen", "--n", "3", "--m", "6", "--seed", "7", "--output", str(vpath)]) == 0
        lpath = tmp_path / "L.mtx"
        mmwrite(str(lpath), np.eye(3), precision=17)
        code = main(["select", "--L", str(lpath), "--V", str(vpath), "--epsilon", "0.7"])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["passes"] is True

    def test_round_trip_bit_identical(self, tmp_path):
        from rinv import random_tight_frame

        vpath = tmp_path / "V.mtx"
        assert main(["gen", "--n", "4", "--m", "9", "--seed", "11", "--output", str(vpath)]) == 0
        V = np.asarray(mmread(str(vpath)), dtype=float)
        assert np.array_equal(V, random_tight_frame(4, 9, 11))

    def test_infeasible(self, tmp_path, capsys):
        assert main(["gen", "--n", "4", "--m", "3", "--output", str(tmp_path / "v.mtx")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rinv: error: a tight frame needs m >= n (got m=3, n=4)\n"
        assert not (tmp_path / "v.mtx").exists()

    def test_oversize_exits_1_before_drawing(self, tmp_path, capsys, monkeypatch):
        # m x n above MM_MAX_ENTRIES, which mmread would refuse, is rejected
        # before random_tight_frame allocates anything.
        def no_draw(*args):
            raise AssertionError("random_tight_frame was called")

        monkeypatch.setattr(rinv.cli, "random_tight_frame", no_draw)
        out = tmp_path / "V.mtx"
        assert main(["gen", "--n", "1000000", "--m", "1000000", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "rinv: error: --m x --n = 1000000 x 1000000 exceeds 134217728 entries\n"
        )
        assert not out.exists()

    def test_size_cap_boundary(self, tmp_path, monkeypatch):
        # m x n at the cap is written; one row more is refused.
        monkeypatch.setattr(rinv.cli, "MM_MAX_ENTRIES", 6)
        assert main(["gen", "--n", "2", "--m", "3", "--output", str(tmp_path / "a.mtx")]) == 0
        assert main(["gen", "--n", "2", "--m", "4", "--output", str(tmp_path / "b.mtx")]) == 1
        assert not (tmp_path / "b.mtx").exists()

    def test_python_dash_m(self, tmp_path):
        from rinv import random_tight_frame

        vpath = tmp_path / "V.mtx"
        env = dict(os.environ)
        src = str(Path(rinv.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rinv", "gen", "--n", "3", "--m", "6", "--seed", "7",
             "--output", str(vpath)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        V = np.asarray(mmread(str(vpath)), dtype=float)
        assert np.array_equal(V, random_tight_frame(3, 6, 7))


def _scipy_dense(path):
    M = mmread(str(path))
    return np.asarray(M.toarray() if scipy.sparse.issparse(M) else M, dtype=float)


def _hand_written(fmt, field, symmetry):
    """A Matrix Market file written out by hand, with comments, blank lines
    and (coordinate) a repeated entry."""
    values = {"real": ["1.5", "-2.25e1", "0.5", "3", "7.125", "-1e-3"],
              "integer": ["1", "-22", "2", "3", "7", "-4"], "pattern": []}[field]
    size = "2 3" if symmetry == "general" else "3 3"
    if fmt == "array":
        body = values[: {"general": 6, "symmetric": 6, "skew-symmetric": 3}[symmetry]]
    else:
        entries = {"general": ["1 1", "2 3", "1 1", "2 1"],
                   "symmetric": ["1 1", "2 1", "3 2", "2 1"],
                   "skew-symmetric": ["2 1", "3 1", "3 2", "3 1"]}[symmetry]
        body = [f"{e} {v}" for e, v in zip(entries, values)] if values else entries
        size += f" {len(entries)}"
    lines = [f"%%MatrixMarket matrix {fmt} {field} {symmetry}", "% hand-written", "",
             size, *body]
    return "\n".join(lines) + "\n"


def _example(field, symmetry):
    rng = np.random.default_rng(3)
    B = rng.integers(-3, 4, (4, 4)) if field == "integer" else rng.standard_normal((4, 4))
    B[rng.random((4, 4)) < 0.4] = 0
    if symmetry == "symmetric":
        return B + B.T
    if symmetry == "skew-symmetric":
        return B - B.T
    return B[:3]


class TestMatrixMarket:
    @pytest.mark.parametrize("symmetry", ["general", "symmetric", "skew-symmetric"])
    @pytest.mark.parametrize("field", ["real", "integer", "pattern"])
    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    def test_reader_matches_scipy(self, tmp_path, fmt, field, symmetry):
        hand = tmp_path / "hand.mtx"
        hand.write_text(_hand_written(fmt, field, symmetry))
        if (fmt, field) == ("array", "pattern"):
            with pytest.raises(ValueError):
                mmread(str(hand))
            with pytest.raises(ValueError):
                rinv.cli.mmread(str(hand))
            return
        written = tmp_path / "written.mtx"
        M = _example(field, symmetry)
        if field == "pattern":
            M = M != 0
        mmwrite(str(written), scipy.sparse.coo_matrix(M) if fmt == "coordinate" else M,
                field=field, symmetry=symmetry, precision=17)
        assert written.read_text().startswith(f"%%MatrixMarket matrix {fmt} {field} {symmetry}\n")
        for path in (hand, written):
            ours = rinv.cli.mmread(str(path))
            assert ours.dtype == np.float64
            assert ours.flags.c_contiguous
            assert np.array_equal(ours, _scipy_dense(path))

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket tensor array real general\n1 1\n1\n",
            "%%MatrixMarket matrix array complex general\n1 1\n1 0\n",
            "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1\n",
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n",
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\nx\n4\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 0 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n3 1 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 4 1\n",
            "%%MatrixMarket matrix coordinate real general\n100000000000000000000 1 0\n",
            "%%MatrixMarket matrix coordinate real general\n1000000 1000000 1\n1 1 1\n",
            "",
        ],
        ids=["bad-banner", "complex", "hermitian", "too-few-entries", "too-many-entries",
             "not-a-number", "index-zero", "index-above-m", "index-above-n", "size-overflow",
             "size-above-cap", "empty-file"],
    )
    def test_malformed_exits_1(self, id4, tmp_path, capsys, text):
        bad = tmp_path / "bad.mtx"
        bad.write_text(text)
        for flags in (["--L", str(bad)], ["--L", id4, "--V", str(bad)]):
            assert main(["select", *flags, "--epsilon", "0.5"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"rinv: error: cannot parse Matrix Market file {bad}: ")
            assert captured.err.count("\n") == 1

    def test_declared_size_cap(self, tmp_path, monkeypatch):
        # m * n at the cap is read; one entry more is rejected before any allocation.
        monkeypatch.setattr(rinv.cli, "MM_MAX_ENTRIES", 6)
        path = tmp_path / "coo.mtx"
        for (m, n), ok in (((2, 3), True), ((7, 1), False)):
            path.write_text(f"%%MatrixMarket matrix coordinate real general\n{m} {n} 1\n1 1 5\n")
            if ok:
                assert rinv.cli.mmread(str(path)).shape == (m, n)
                continue
            with pytest.raises(ValueError, match="declared size 7 x 1 exceeds 6 entries"):
                rinv.cli.mmread(str(path))

    def test_cli_import_leaves_scipy_out(self):
        # Nor statistics, which pulls in decimal and fractions.
        env = dict(os.environ)
        src = str(Path(rinv.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, rinv.cli; print([k for k in sys.modules "
                "if k.split('.')[0] in ('scipy', 'statistics')])")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_commands_leave_numpy_ma_out(self, tmp_path):
        # numpy.ma costs 10-14 ms of a desk-size process. numpy 2 loads it
        # lazily (np.unique and np.median do), so one fresh interpreter runs
        # every command in turn and names the first that loads it.
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))
        rinv.cli.mmwrite(str(tmp_path / "L.mtx"), Q * np.linspace(1.0, 2.0, 8))
        rinv.cli.mmwrite(str(tmp_path / "Q.mtx"), Q)  # unit columns, for columns mode
        instance = ["--L", "L.mtx", "--V", "V.mtx"]
        commands = [
            ["gen", "--n", "8", "--m", "16", "--output", "V.mtx"],
            ["select", *instance, "--epsilon", "0.5", "--output", "cert.json"],
            ["select", *instance, "--epsilon", "0.5", "--pivot", "greedy"],
            ["select", "--L", "Q.mtx", "--mode", "columns", "--epsilon", "0.5"],
            ["select", "--L", "Q.mtx", "--mode", "columns", "--epsilon", "0.5", "--pivot", "greedy"],
            ["verify", *instance, "--certificate", "cert.json"],
            ["oracle", *instance, "--epsilon", "0.5"],
            ["bench", *instance, "--epsilon", "0.5", "--trials", "5"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "import numpy\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    sys.exit('preloaded')\n"
            "from rinv.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(argv[0], code, 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(rinv.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode and proc.stderr == "preloaded\n":
            pytest.skip("import numpy alone loads numpy.ma (numpy < 2)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"{argv[0]} 0 False" for argv in commands]

    def test_gen_bytes_match_scipy(self, tmp_path):
        ours, reference = tmp_path / "V.mtx", tmp_path / "ref.mtx"
        assert main(["gen", "--n", "5", "--m", "9", "--seed", "1", "--output", str(ours)]) == 0
        mmwrite(str(reference), rinv.random_tight_frame(5, 9, 1), precision=17)
        assert ours.read_bytes() == reference.read_bytes()


class TestVerify:
    def test_reverify_matches(self, id4, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["select", "--L", id4, "--epsilon", "0.5", "--output", str(cert_path)]) == 0
        capsys.readouterr()
        code = main(["verify", "--L", id4, "--certificate", str(cert_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["match"] is True
        assert report["recomputed_passes"] is True

    def test_overflowed_delta_is_null(self, id4, tmp_path, capsys):
        # At epsilon = 1e-310 the run is vacuous and delta = (1 - eps) / (4 eps)
        # overflows; select and verify print it as null, not as Infinity,
        # which RFC 8259 JSON does not have.
        def strict(text):
            def reject(constant):
                raise ValueError(f"not JSON: {constant}")

            return json.loads(text, parse_constant=reject)

        cert_path = tmp_path / "cert.json"
        assert main(["select", "--L", id4, "--epsilon", "1e-310", "--output", str(cert_path)]) == 0
        cert = strict(capsys.readouterr().out)
        assert (cert["delta"], cert["vacuous"], cert["passes"]) == (None, True, True)
        assert strict(cert_path.read_text()) == cert
        assert main(["verify", "--L", id4, "--certificate", str(cert_path)]) == 0
        assert strict(capsys.readouterr().out)["recomputed"] == cert

    def test_failing_certificate_exits_2(self, tmp_path, capsys):
        # two columns mapping to the same direction: dependent selection
        lpath = tmp_path / "L.mtx"
        mmwrite(str(lpath), np.array([[1.0, 1.0], [0.0, 0.0]]), precision=17)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"sigma": [1, 2], "epsilon": 0.9, "passes": True}))
        code = main(["verify", "--L", str(lpath), "--certificate", str(cert_path)])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["recomputed_passes"] is False
        assert report["match"] is False

    def test_zero_operator_exits_1(self, tmp_path, capsys):
        lpath, vpath = tmp_path / "zero.mtx", tmp_path / "frame.mtx"
        mmwrite(str(lpath), np.zeros((3, 3)), precision=17)
        mmwrite(str(vpath), rinv.random_tight_frame(3, 6, 1), precision=17)
        cert_path = tmp_path / "c.json"
        cert_path.write_text(json.dumps({"sigma": [1], "epsilon": 0.5, "passes": True}))
        code = main(["verify", "--L", str(lpath), "--V", str(vpath),
                     "--certificate", str(cert_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rinv: error: ")
        assert "zero operator" in captured.err

    @pytest.mark.parametrize(
        "stored, message",
        [
            ({"sigma": [1], "passes": True}, "epsilon"),
            ({"sigma": ["x"], "epsilon": 0.5, "passes": True}, "sigma"),
            ([1, 2], "JSON object"),
            ({"sigma": [1], "epsilon": 3, "passes": True}, "epsilon"),
            ({"sigma": [1], "epsilon": 0.5, "passes": "false"}, "passes"),
            ({"sigma": [1], "epsilon": 0.5, "passes": "yes"}, "passes"),
            ({"sigma": [1], "epsilon": 0.5, "passes": 1}, "passes"),
            ({"sigma": [1], "epsilon": 0.5, "passes": None}, "passes"),
            ({"sigma": [1], "epsilon": 0.5}, "passes"),
        ],
        ids=["missing-epsilon", "non-integer-sigma", "top-level-list", "epsilon-out-of-range",
             "passes-string-false", "passes-string-yes", "passes-number", "passes-null",
             "missing-passes"],
    )
    def test_malformed_certificate_exits_1(self, id4, tmp_path, capsys, stored, message):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(stored))
        assert main(["verify", "--L", id4, "--certificate", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rinv: error: certificate ")
        assert message in captured.err

    @pytest.mark.parametrize("entry", [0, 5, -2], ids=["zero", "m-plus-1", "negative"])
    def test_certificate_index_out_of_range_exits_1(self, id4, tmp_path, capsys, entry):
        # sigma is 1-based in a certificate, so the error names the entry and [1, m].
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"sigma": [1, entry], "epsilon": 0.5, "passes": True}))
        assert main(["verify", "--L", id4, "--certificate", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"rinv: error: certificate {cert_path}: sigma entry {entry} "
                                "is outside [1, 4]\n")

    @pytest.mark.parametrize("sigma, entry", [([1, 1], 1), ([4, 2, 3, 2], 2)])
    def test_certificate_repeated_index_exits_1(self, id4, tmp_path, capsys, sigma, entry):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"sigma": sigma, "epsilon": 0.5, "passes": True}))
        assert main(["verify", "--L", id4, "--certificate", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"rinv: error: certificate {cert_path}: sigma entry {entry} "
                                "is repeated\n")

    def test_deeply_nested_certificate_exits_1(self, id4, tmp_path, capsys):
        # json.load raises RecursionError, not ValueError, past its nesting limit.
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["verify", "--L", id4, "--certificate", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rinv: error: cannot read certificate {cert_path}: ")
        assert captured.err.count("\n") == 1


def _counting_validate(monkeypatch):
    """Calls of validate through rinv.cli or rinv.selector, the two names it runs under."""
    calls, validate = [], rinv.selector.validate

    def counting(dec):
        calls.append(dec)
        return validate(dec)

    for module in (rinv.cli, rinv.selector):
        monkeypatch.setattr(module, "validate", counting)
    return calls


class TestValidation:
    @pytest.mark.parametrize("command", ["select", "verify", "oracle", "bench"])
    def test_each_command_validates_once(self, id4, tmp_path, capsys, monkeypatch, command):
        # run_selection validates for select, oracle and bench; verify does
        # not validate, so rinv verify does it itself.
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"sigma": [1], "epsilon": 0.5, "passes": True}))
        calls = _counting_validate(monkeypatch)
        rest = ["--certificate", str(cert)] if command == "verify" else ["--epsilon", "0.5"]
        assert main([command, "--L", id4] + rest) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["select", "oracle"])
    def test_non_frame_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # V = 2 I sums to 4 I, not I.
        lpath, vpath = tmp_path / "L.mtx", tmp_path / "V.mtx"
        mmwrite(str(lpath), np.eye(3), precision=17)
        mmwrite(str(vpath), 2.0 * np.eye(3), precision=17)
        calls = _counting_validate(monkeypatch)
        assert main([command, "--L", str(lpath), "--V", str(vpath), "--epsilon", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "rinv: error: sum of outer products deviates from identity: defect ")
        assert len(calls) == 1


class TestOracleAndBench:
    def test_oracle_subcommand(self, id4, capsys):
        assert main(["oracle", "--L", id4, "--epsilon", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound"] == pytest.approx(0.25)
        assert report["algo_lambda"] == pytest.approx(1.0)
        assert report["oracle_lambda"] == pytest.approx(1.0)

    def test_bench_subcommand(self, tmp_path, capsys):
        lpath = tmp_path / "L.mtx"
        mmwrite(str(lpath), np.eye(6), precision=17)
        code = main(
            ["bench", "--L", str(lpath), "--epsilon", "0.7", "--trials", "20", "--seed", "1"]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["random_trials"] == 20
        assert stats["barrier_lambda"] == pytest.approx(1.0)
        assert stats["random_lambda_max"] <= 1.0 + 1e-12

    def test_bench_schedules_once_and_scores_like_verify(self, tmp_path, capsys, monkeypatch):
        L, V = np.diag(np.linspace(1.0, 2.0, 6)), rinv.random_tight_frame(6, 12, 1)
        lpath, vpath = tmp_path / "L.mtx", tmp_path / "V.mtx"
        mmwrite(str(lpath), L, precision=17)
        mmwrite(str(vpath), V, precision=17)
        calls = []
        schedule = rinv.selector._schedule

        def spy(*args):
            calls.append(args)
            return schedule(*args)

        # run_selection and compute_schedule (verify's) both schedule through _schedule.
        monkeypatch.setattr(rinv.selector, "_schedule", spy)
        code = main(["bench", "--L", str(lpath), "--V", str(vpath), "--epsilon", "0.8",
                     "--trials", "20", "--seed", "3"])
        assert code == 0 and len(calls) == 2  # run_selection and verify of the selection
        stats = json.loads(capsys.readouterr().out)
        t = stats["t"]
        assert t > 1 and stats["random_trials"] == 20
        # The subsets bench draws, each scored by verify.
        rng = np.random.default_rng(3)
        dec = rinv.Decomposition(L=L, V=V)
        vals = [rinv.verify(dec, 0.8, sorted(rng.choice(12, size=t, replace=False).tolist())).lambda_min
                for _ in range(20)]
        assert stats["random_lambda_min"] == min(vals)
        assert stats["random_lambda_max"] == max(vals)

    def test_bench_json_bytes(self, tmp_path, capsys):
        # An even trial count, so the median is the mean of the two middle
        # values: the bytes must be those of statistics.median's float.
        L, V = np.diag(np.linspace(1.0, 2.0, 6)), rinv.random_tight_frame(6, 12, 1)
        lpath, vpath = tmp_path / "L.mtx", tmp_path / "V.mtx"
        mmwrite(str(lpath), L, precision=17)
        mmwrite(str(vpath), V, precision=17)
        code = main(["bench", "--L", str(lpath), "--V", str(vpath), "--epsilon", "0.8",
                     "--trials", "20", "--seed", "3"])
        assert code == 0
        dec = rinv.Decomposition(L=L, V=V)
        cert = rinv.verify(dec, 0.8, rinv.run_selection(dec, 0.8).sigma)
        t, rng = len(cert.sigma), np.random.default_rng(3)
        vals = [rinv.verify(dec, 0.8, sorted(rng.choice(12, size=t, replace=False).tolist())).lambda_min
                for _ in range(20)]
        assert t > 1 and len(set(vals)) > 2
        expected = {
            "t": t, "bound": cert.guarantee_bound, "barrier_lambda": cert.lambda_min,
            "random_trials": 20, "random_lambda_min": min(vals),
            "random_lambda_median": statistics.median(vals), "random_lambda_max": max(vals),
            "random_above_bound": sum(v > cert.guarantee_bound for v in vals), "vacuous": False,
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("trials", [0, 1, 2, 9])
    def test_bench_median_is_statistics_median(self, tmp_path, capsys, trials):
        # Odd and even counts, and none: the median is taken without np.median.
        # At 9 trials the middle value differs from both of its neighbours.
        L, V = np.diag(np.linspace(1.0, 2.0, 6)), rinv.random_tight_frame(6, 12, 1)
        lpath, vpath = tmp_path / "L.mtx", tmp_path / "V.mtx"
        mmwrite(str(lpath), L, precision=17)
        mmwrite(str(vpath), V, precision=17)
        assert main(["bench", "--L", str(lpath), "--V", str(vpath), "--epsilon", "0.8",
                     "--trials", str(trials), "--seed", "3"]) == 0
        stats = json.loads(capsys.readouterr().out)
        dec = rinv.Decomposition(L=L, V=V)
        t, rng = stats["t"], np.random.default_rng(3)
        vals = [rinv.verify(dec, 0.8, sorted(rng.choice(12, size=t, replace=False).tolist())).lambda_min
                for _ in range(trials)]
        assert stats["random_lambda_median"] == (statistics.median(vals) if vals else None)


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("gen", "--n", "-1"), ("gen", "--m", "-3"), ("gen", "--seed", "-1"),
        ("bench", "--seed", "-1"), ("bench", "--trials", "-3"), ("bench", "--trials", "2.5"),
    ])
    def test_negative_integer_flag_exits_1(self, id4, tmp_path, capsys, command, flag, value):
        args = {"gen": {"--n": "2", "--m": "3", "--output": str(tmp_path / "v.mtx")},
                "bench": {"--L": id4, "--epsilon": "0.5"}}[command]
        args[flag] = value
        assert main([command] + [word for item in args.items() for word in item]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: rinv {command} ")
        assert captured.err.endswith(f"rinv {command}: error: argument {flag}: "
                                     f"expected a non-negative integer, got '{value}'\n")
        assert not (tmp_path / "v.mtx").exists()

    def test_unknown_flag(self, id4):
        assert main(["select", "--L", id4, "--epsilon", "0.5", "--bogus"]) == 1

    def test_pivot_only_for_walk_commands(self, id4, tmp_path, capsys):
        # verify reads epsilon and sigma from the certificate and runs no walk.
        cert_path = tmp_path / "cert.json"
        assert main(["select", "--L", id4, "--epsilon", "0.5", "--pivot", "greedy",
                     "--output", str(cert_path)]) == 0
        for command in ("oracle", "bench"):
            assert main([command, "--L", id4, "--epsilon", "0.5", "--pivot", "greedy"]) == 0
        capsys.readouterr()
        assert main(["verify", "--L", id4, "--certificate", str(cert_path),
                     "--pivot", "first"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: rinv ")
        assert captured.err.endswith("rinv: error: unrecognized arguments: --pivot first\n")
        assert main(["verify", "--help"]) == 0
        usage = capsys.readouterr().out
        assert "--certificate" in usage
        assert "--pivot" not in usage and "--epsilon" not in usage

    @pytest.mark.parametrize("command", ["select", "verify", "oracle", "bench"])
    def test_unwritable_output_prints_nothing(self, id4, tmp_path, capsys, command):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"sigma": [1], "epsilon": 0.5, "passes": True}))
        rest = ["--certificate", str(cert_path)] if command == "verify" else ["--epsilon", "0.5"]
        output = tmp_path / "missing" / "out.json"
        assert main([command, "--L", id4, *rest, "--output", str(output)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rinv: i/o error: ")
        assert captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def fuzz_instance(tmp_path_factory):
    """A 24 x 24 L (V the standard basis, so m = 24) and the certificate path."""
    folder = tmp_path_factory.mktemp("fuzz")
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))
    rinv.cli.mmwrite(str(folder / "L.mtx"), Q * np.linspace(1.0, 2.0, 24))
    return str(folder / "L.mtx"), folder / "cert.json"


# Strings from a fixed alphabet (quote, backslash, NUL, non-ASCII, a lone
# surrogate): st.text's full alphabet costs a ~2 s charmap build on first use.
_TEXT = st.text("a\u03c3\"\\\x00\ud800", max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.integers(10**30, 10**40) | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=10,
)
_CERTIFICATE = st.fixed_dictionaries({
    "sigma": st.lists(st.integers(1, 24), max_size=6, unique=True),
    "epsilon": st.sampled_from([0.5, 0.5, 0.25, 0.75]),
    "passes": st.booleans(),
})


@st.composite
def _near_valid(draw):
    """A valid certificate, as it is or with one field replaced, or without passes."""
    cert = draw(_CERTIFICATE)
    key = draw(st.sampled_from([None, None, "sigma", "epsilon", "passes", "no passes"]))
    if key == "no passes":
        del cert["passes"]
    elif key:
        cert[key] = draw(st.lists(st.integers(-1, 26), max_size=6)
                         | st.sampled_from([0.0, 1.0, -0.5, 2]) | st.floats() | _JSON)
    return cert


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=(_JSON | _near_valid()).map(json.dumps))
@example(text="[" * 100_000 + "]" * 100_000)
@example(text='{"sigma": [1], "epsilon": 0.5, "passes": ' + "9" * 5000 + "}")
@example(text='{"sigma": [1, 2], "epsilon": NaN, "passes": true}')
@example(text='{"sigma": [1, 2], "epsilon": 0.5, "passes": true}')
def test_verify_any_certificate_exits_cleanly(fuzz_instance, text):
    """Any certificate text gives exit 0, 1 or 2 and no exception; exit 1
    prints one error line and nothing on stdout."""
    L_path, cert_path = fuzz_instance
    cert_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--L", L_path, "--certificate", str(cert_path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("rinv: error: ")
        assert err.getvalue().count("\n") == 1
    else:
        report = json.loads(out.getvalue())
        assert (code == 0) is (report["match"] and report["recomputed_passes"])
