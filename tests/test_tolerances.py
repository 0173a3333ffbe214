"""Tolerance configuration and the RI_TOLERANCE_SCALE knob."""

import re

import numpy as np
import pytest

from rinv import random_tight_frame
from rinv.cli import main, mmwrite
from rinv.errors import ParameterError
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
def test_env_scale_not_finite_positive_exits_1(monkeypatch, tmp_path, capsys, text):
    # A 24 x 48 ramp instance the walk solves at the default scale.
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))
    lpath, vpath = tmp_path / "L.mtx", tmp_path / "V.mtx"
    mmwrite(str(lpath), Q * np.linspace(1.0, 2.0, 24))
    mmwrite(str(vpath), random_tight_frame(24, 48, 0))
    args = ["select", "--L", str(lpath), "--V", str(vpath), "--epsilon", "0.5"]
    monkeypatch.setenv("RI_TOLERANCE_SCALE", text)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("rinv: error: RI_TOLERANCE_SCALE")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
