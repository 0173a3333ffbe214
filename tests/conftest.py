import numpy as np
import pytest

import rinv.cli
import rinv.selector


@pytest.fixture()
def empty_schedule_cache(monkeypatch):
    """The schedule's one entry of ||L||_2^2 emptied for one test, so what a
    test counts does not depend on what an earlier test scheduled."""
    monkeypatch.setattr(rinv.selector, "_last_spec_sq", None)


@pytest.fixture(scope="session")
def ramp24(tmp_path_factory):
    """["--L", L, "--V", V] for the installed-script smoke's instance: L a
    24 x 24 rotation scaled by linspace(1, 2) and V `rinv gen --n 24 --m 48`.
    At epsilon 0.5 the walk takes t = 3 steps."""
    folder = tmp_path_factory.mktemp("ramp24")
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))
    rinv.cli.mmwrite(folder / "L.mtx", Q * np.linspace(1.0, 2.0, 24))
    assert rinv.cli.main(["gen", "--n", "24", "--m", "48", "--output", str(folder / "V.mtx")]) == 0
    return ["--L", str(folder / "L.mtx"), "--V", str(folder / "V.mtx")]
