"""Seeded instances and sigma references for the rinv benchmark.

Every instance is a pure function of (workload spec, workload seed, instance
index). The operator is L = Q diag(linspace(1, 2, n)) with Q from the QR of a
seeded Gaussian matrix, so srank(L) is about 0.58 n and t = floor(eps^2 srank)
is about 0.146 n at eps = 0.5. Frame vectors come from rinv's own
`random_tight_frame`. The program under test only ever sees the matrices.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import rinv
from rinv.decomposition import Mode

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. `instances` is the fixed instance count per seed."""

    n: int
    m: int
    epsilon: float
    pivot: str
    instances: int
    columns_every: int = 0  # every k-th instance (k > 0) is a columns-mode one

    def key(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def make_instance(spec: Spec, seed: int, index: int) -> rinv.Decomposition:
    rng = np.random.default_rng([seed, index])
    Q, _ = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))
    ramp = np.linspace(1.0, 2.0, spec.n)
    if spec.columns_every and index % spec.columns_every == spec.columns_every - 1:
        # Row-scaled Q with its columns renormalised: unit columns, srank < n.
        L = ramp[:, None] * Q
        L = L / np.linalg.norm(L, axis=0)
        return rinv.Decomposition(L=L, V=np.eye(spec.n), mode=Mode.CLASSICAL_COLUMNS)
    V = rinv.random_tight_frame(spec.n, spec.m, int(rng.integers(2**63)))
    return rinv.Decomposition(L=Q * ramp, V=V, mode=Mode.FRAME)


def make_instances(spec: Spec, seed: int):
    return [make_instance(spec, seed, i) for i in range(spec.instances)]


def sigma_digest(sigma) -> str:
    """Digest of the 0-based selection order."""
    text = ",".join(str(int(i)) for i in sigma)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def expected(references: dict, workload: str, spec: Spec, seed: int):
    """Per-instance {"t", "sigma"} records for this seed, or None if not recorded."""
    entry = references.get(workload)
    if not entry or entry.get("spec") != spec.key():
        return None
    return entry["seeds"].get(str(seed))
