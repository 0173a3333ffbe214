"""Tolerance configuration and the RI_TOLERANCE_SCALE knob."""

import json
import re

import numpy as np
import pytest

from rinv import (
    Decomposition,
    exhaustive_best_subset,
    random_tight_frame,
    run_selection,
    validate,
    verify,
)
from rinv.cli import main
from rinv.errors import ParameterError, RinvError
from rinv.tolerances import Tolerances, default_tolerances


def test_defaults_unscaled():
    assert default_tolerances() == Tolerances()


def test_env_scale(monkeypatch):
    monkeypatch.setenv("RI_TOLERANCE_SCALE", "10")
    scaled = default_tolerances()
    base = Tolerances()
    for name in Tolerances._fields:
        assert getattr(scaled, name) == getattr(base, name) * 10


def test_env_scale_identity(monkeypatch):
    monkeypatch.setenv("RI_TOLERANCE_SCALE", "1")
    assert default_tolerances() == Tolerances()


BAD_SCALES = ["abc", "nan", "0", "-1", "inf", "1e400"]


@pytest.mark.parametrize("text", BAD_SCALES)
def test_env_scale_not_finite_positive(monkeypatch, text):
    monkeypatch.setenv("RI_TOLERANCE_SCALE", text)
    with pytest.raises(ParameterError, match=f"RI_TOLERANCE_SCALE .*{re.escape(repr(text))}"):
        default_tolerances()


@pytest.mark.parametrize("text", BAD_SCALES)
def test_env_scale_not_finite_positive_exits_1(ramp24, monkeypatch, capsys, text):
    # An instance the walk solves at the default scale.
    monkeypatch.setenv("RI_TOLERANCE_SCALE", text)
    assert main(["select", *ramp24, "--epsilon", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("rinv: error: RI_TOLERANCE_SCALE")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("scale", ["1e-3", "1", "1e3"])
def test_scale_keeps_the_cli_results(ramp24, monkeypatch, tmp_path, capsys, scale):
    # The slacks move over six decades and the 24 x 24 ramp's results do
    # not: both pivots' sigma, the verify of a certificate written at scale
    # 1 and the oracle's two subsets.
    walk, cert = [*ramp24, "--epsilon", "0.5"], tmp_path / "cert.json"
    monkeypatch.delenv("RI_TOLERANCE_SCALE", raising=False)
    assert main(["select", *walk, "--output", str(cert)]) == 0
    monkeypatch.setenv("RI_TOLERANCE_SCALE", scale)
    capsys.readouterr()
    got = []
    for argv in (["select", *walk], ["select", *walk, "--pivot", "greedy"],
                 ["verify", *ramp24, "--certificate", str(cert)], ["oracle", *walk]):
        assert main(argv) == 0
        got.append(json.loads(capsys.readouterr().out))
    first, greedy, report, oracle = got
    assert [first["sigma"], first["passes"]] == [[1, 2, 3], True]
    assert [greedy["sigma"], greedy["passes"]] == [[13, 33, 44], True]
    assert [report["match"], report["recomputed_passes"]] == [True, True]
    assert [oracle["sigma"], oracle["oracle_sigma"]] == [[1, 2, 3], [17, 33, 44]]


def _ramp():
    # The walk takes two steps here; its one-vector Gram at the first has its
    # only eigenvalue at the top of the spectrum.
    return Decomposition(L=np.diag(np.linspace(1.0, 2.0, 6)), V=random_tight_frame(6, 12, 3))


SCALE_REACHES = {
    # slack: (a scale, the instance, built at scale 1, the entry that reads
    # the slack, its outcome at scale 1 and at the scale)
    "identity_defect": (1e3, lambda: Decomposition(L=np.eye(3), V=(1 + 1e-6) * np.eye(3)),
                        lambda dec: validate(dec) is dec, "DecompositionError", True),
    # The generated frame's defect is about 1e-15, above 1e-18 x n.
    "frame_generation": (1e-8, lambda: None, lambda _: random_tight_frame(8, 16, 0).shape,
                         (16, 8), "DecompositionError"),
    # The two rows' Gram has lambda_min about 5e-9 x the larger squared norm.
    "independence": (1e3, lambda: Decomposition(L=np.eye(2), V=np.array([[1.0, 0.0], [1.0, 1e-4]])),
                     lambda dec: verify(dec, 0.5, [0, 1]).independent, True, False),
    # The second vector's squared norm is above the first's by 1e-10 relative.
    "oracle_tie": (1e3, lambda: Decomposition(L=np.eye(2), V=np.diag([1.0, np.sqrt(1.0 + 1e-10)])),
                   lambda dec: exhaustive_best_subset(dec, 1)[0], [1], [0]),
    "kernel_threshold": (1e8, _ramp, lambda dec: run_selection(dec, 0.8).sigma,
                         [0, 1], "InvariantViolation"),
}


@pytest.mark.parametrize("slack", SCALE_REACHES)
def test_scale_reaches_each_entry(monkeypatch, slack):
    # RI_TOLERANCE_SCALE is the only way to set a slack: each public entry
    # that reads one reads it from the environment when it is called.
    scale, instance, entry, at_one, at_scale = SCALE_REACHES[slack]
    dec, outcomes = instance(), []
    for value in (1.0, scale):
        monkeypatch.setenv("RI_TOLERANCE_SCALE", repr(value))
        try:
            outcomes.append(entry(dec))
        except RinvError as exc:
            outcomes.append(type(exc).__name__)
    assert outcomes == [at_one, at_scale]
