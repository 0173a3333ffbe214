"""CLI round trips, exit codes, and output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
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
        env = dict(os.environ)
        src = str(Path(rinv.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, rinv.cli; print([k for k in sys.modules if k.split('.')[0] == 'scipy'])"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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


def _counting_validate(monkeypatch):
    """Calls of validate through rinv.cli or rinv.selector, the two names it runs under."""
    calls, validate = [], rinv.selector.validate

    def counting(dec, tol=None):
        calls.append(dec)
        return validate(dec, tol)

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
