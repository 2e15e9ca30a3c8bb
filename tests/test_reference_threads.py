"""Two-stage answers do not depend on the OpenBLAS thread count.

NumPy's ``np.linalg.solve`` at n=128 gives different low bits at one
and two OpenBLAS threads; the prepared solvers' one-LU reference
(``getrf`` once, per-column ``getrs``) does not. This suite solves a
two-stage n=128 batch in two fresh interpreters, one per thread count,
and compares the bytes of ``x`` and ``reference``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import hashlib, json
import numpy as np
from repro.amc.config import HardwareConfig
from repro.core.multistage import MultiStageSolver
from repro.utils.blas import blas_threads
from repro.workloads.matrices import random_vector, wishart_matrix

n = 128
matrix = wishart_matrix(n, rng=7)
bs = [random_vector(n, rng=100 + i) for i in range(4)]
prepared = MultiStageSolver(HardwareConfig.paper_variation(), stages=2).prepare(
    matrix, rng=0
)
results = prepared.solve_many(bs, rng=1)
digest = lambda rows: hashlib.sha256(b"".join(r.tobytes() for r in rows)).hexdigest()
print(json.dumps({
    "threads": blas_threads(),
    "x": digest([r.x for r in results]),
    "reference": digest([r.reference for r in results]),
}))
"""


def _run(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_stage_bits_independent_of_blas_threads():
    one, two = _run(1), _run(2)
    if two["threads"] is not None and two["threads"] < 2:
        pytest.skip("OpenBLAS runs one thread on this host")
    assert one["reference"] == two["reference"]
    assert one["x"] == two["x"]
