"""Perf engine bench: times the batched/cached hot paths against the
pre-optimization reference implementations and writes the
``BENCH_perf_engine.json`` trajectory artifact at the repo root.

Three comparisons, matching the engine's three layers:

1. ``exact_effective_matrix`` on a 64x64 array — reference cell-by-cell
   assembly + per-column solves (``method="loop"``) vs. the Schur/banded
   engine (target >= 10x).
2. The tier-1-scale Fig. 7 variation sweep — sequential ``run_trials``
   vs. trial-batched ``run_trials_batched`` (target >= 3x).
3. 64 right-hand sides against one programmed one-stage solver —
   sequential ``PreparedBlockAMC.solve`` loop vs. multi-RHS
   ``solve_many``.

Every comparison first asserts numerical equivalence (1e-10) so a
"speedup" can never come from computing something different.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import paper_scale
from benchmarks.perf_harness import PerfReport, time_call
from repro.amc.config import HardwareConfig
from repro.analysis.accuracy import accuracy_sweep, run_trials, run_trials_batched
from repro.analysis.reporting import format_table
from repro.circuits.generators import build_mvm_circuit
from repro.circuits.mna import assemble_mna
from repro.core.blockamc import BlockAMCSolver
from repro.core.multistage import MultiStageSolver
from repro.core.original import OriginalAMCSolver
from repro.crossbar.parasitics import (
    exact_effective_matrix,
    exact_effective_matrix_batch,
)
from repro.workloads.matrices import random_vector, wishart_matrix

#: Tier-1-scale sweep shape (the CI-friendly Fig. 7 configuration).
SWEEP_SIZES = (8, 16, 32)
SWEEP_TRIALS = 3

#: Loud-regression guards for the perf smoke. The committed artifact
#: documents the actual measured speedups (>= 10x / >= 3x at merge
#: time); the asserted floors leave headroom for noisy CI machines.
MIN_EXACT_SPEEDUP = 6.0
MIN_SWEEP_SPEEDUP = 2.0
MIN_SOLVE_MANY_SPEEDUP = 4.0
#: The ISSUE-5 acceptance floor: a >= 32-RHS multi-stage batch must beat
#: the sequential solve loop by at least 3x (measured ~20x at merge).
MIN_MULTISTAGE_SPEEDUP = 3.0
#: The ISSUE-8 acceptance floor: columnar build+assemble must beat the
#: cell-by-cell object pipeline by at least 5x (measured ~7x at merge).
MIN_COLUMNAR_SPEEDUP = 5.0
#: The batched exact extractor's win is amortization of the block
#: assembly; the per-trial LAPACK sweep dominates and cannot be stacked
#: without changing bits, so the honest floor is modest (measured ~1.4x
#: at 16x16; parity at 64x64).
MIN_BATCHED_EXACT_SPEEDUP = 1.05

_report = PerfReport()


def _sweep_args():
    sizes = SWEEP_SIZES if not paper_scale() else (8, 16, 32, 64, 128)
    trials = SWEEP_TRIALS if not paper_scale() else 40
    return sizes, trials


def test_exact_effective_matrix_64x64(report):
    rng = np.random.default_rng(7)
    g = rng.uniform(0.0, 1e-4, size=(64, 64))

    reference = exact_effective_matrix(g, 1.0, method="loop")
    fast = exact_effective_matrix(g, 1.0)
    assert np.max(np.abs(fast - reference)) < 1e-10

    old_s = time_call(lambda: exact_effective_matrix(g, 1.0, method="loop"), repeats=2)
    new_s = time_call(lambda: exact_effective_matrix(g, 1.0), repeats=5)
    speedup = _report.add(
        "exact_effective_matrix_64x64",
        old_s,
        new_s,
        detail="cell-loop assembly + per-column solves vs Schur engine",
    )
    report(
        "perf_exact_effective",
        format_table(
            ["path", "ms"],
            [["loop (reference)", old_s * 1e3], ["schur engine", new_s * 1e3]],
            title=f"exact_effective_matrix 64x64 — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_EXACT_SPEEDUP


def test_variation_sweep_tier1(report):
    config = HardwareConfig.paper_variation()
    sizes, trials = _sweep_args()

    def sequential():
        return run_trials(
            {
                "original-amc": lambda: OriginalAMCSolver(config),
                "blockamc-1stage": lambda: BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=70,
        )

    def batched():
        return run_trials_batched(
            {
                "original-amc": OriginalAMCSolver(config),
                "blockamc-1stage": BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=70,
        )

    seq_records = sequential()
    bat_records = batched()
    seq_table = accuracy_sweep(seq_records)
    bat_table = accuracy_sweep(bat_records)
    for solver, by_size in seq_table.items():
        for size, (mean, std) in by_size.items():
            b_mean, b_std = bat_table[solver][size]
            assert abs(mean - b_mean) < 1e-10
            assert abs(std - b_std) < 1e-10

    old_s = time_call(sequential, repeats=2)
    new_s = time_call(batched, repeats=3)
    speedup = _report.add(
        "variation_sweep_tier1",
        old_s,
        new_s,
        detail=(
            f"Fig.7 Wishart sweep, sizes={sizes}, trials={trials}, "
            "2 solvers, sequential run_trials vs run_trials_batched"
        ),
    )
    report(
        "perf_variation_sweep",
        format_table(
            ["path", "ms"],
            [["run_trials (sequential)", old_s * 1e3], ["run_trials_batched", new_s * 1e3]],
            title=f"tier-1 variation sweep — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_SWEEP_SPEEDUP


def test_solve_many_64rhs(report):
    config = HardwareConfig.paper_variation()
    matrix = wishart_matrix(32, rng=0)
    rhs = [random_vector(32, rng=i) for i in range(64)]
    prepared = BlockAMCSolver(config).prepare(matrix, rng=5)

    def sequential():
        gen = np.random.default_rng(9)
        return [prepared.solve(b, gen) for b in rhs]

    def many():
        return prepared.solve_many(rhs, np.random.default_rng(9))

    seq_results = sequential()
    many_results = many()
    worst = max(
        float(np.max(np.abs(a.x - b.x))) for a, b in zip(seq_results, many_results)
    )
    assert worst < 1e-10

    old_s = time_call(sequential, repeats=2)
    new_s = time_call(many, repeats=3)
    speedup = _report.add(
        "solve_many_64rhs_32x32",
        old_s,
        new_s,
        detail="64 RHS on one programmed BlockAMC: solve loop vs solve_many",
    )
    report(
        "perf_solve_many",
        format_table(
            ["path", "ms"],
            [["solve() loop", old_s * 1e3], ["solve_many()", new_s * 1e3]],
            title=f"64-RHS multi-solve — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_SOLVE_MANY_SPEEDUP


def test_multistage_solve_many_32rhs(report):
    """Batched two-stage recursion vs the sequential solve loop.

    32 right-hand sides against one prepared two-stage tree. The batched
    path must be **bit-identical** (not 1e-10: the recursion delegates
    to the shared kernel, so exact equality is the contract — see
    ``tests/test_kernel_equivalence.py``) and at least 3x faster.
    """
    config = HardwareConfig.paper_variation()
    matrix = wishart_matrix(32, rng=0)
    rhs = [random_vector(32, rng=i) for i in range(32)]
    prepared = MultiStageSolver(config, stages=2).prepare(matrix, rng=5)

    def sequential():
        gen = np.random.default_rng(9)
        return [prepared.solve(b, gen) for b in rhs]

    def many():
        return prepared.solve_many(rhs, np.random.default_rng(9))

    seq_results = sequential()
    many_results = many()
    for a, b in zip(seq_results, many_results):
        assert np.array_equal(a.x, b.x)
        assert a.relative_error == b.relative_error

    old_s = time_call(sequential, repeats=2)
    new_s = time_call(many, repeats=3)
    speedup = _report.add(
        "multistage_solve_many_32rhs_32x32",
        old_s,
        new_s,
        detail=(
            "32 RHS on one prepared two-stage tree: solve loop vs "
            "matrix-valued solve_many (bit-identical asserted)"
        ),
    )
    report(
        "perf_multistage_solve_many",
        format_table(
            ["path", "ms"],
            [["solve() loop", old_s * 1e3], ["solve_many()", new_s * 1e3]],
            title=f"32-RHS two-stage multi-solve — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_MULTISTAGE_SPEEDUP


def test_netlist_assembly_columnar(report):
    """Columnar struct-of-arrays pipeline vs the cell-by-cell reference.

    Times the full netlist-to-MNA pipeline (build + assemble): the
    reference path appends ~100k element objects and stamps them one by
    one; the columnar path interns node arrays, appends contiguous
    value columns, and bulk-stamps whole runs. The assembled systems
    must be **byte-identical** — same node order, same branch order,
    same sparse structure, same floats — so the speedup can never come
    from assembling a different (even reordered) system.
    """
    n = 128 if not paper_scale() else 256
    rng = np.random.default_rng(11)
    g_pos = rng.uniform(1e-6, 1e-4, size=(n, n))
    g_neg = rng.uniform(1e-6, 1e-4, size=(n, n))
    v_in = rng.uniform(-1.0, 1.0, size=n)

    def reference():
        circuit, _ = build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, r_wire=1.0)
        return assemble_mna(circuit)

    def columnar():
        circuit, _ = build_mvm_circuit(
            g_pos, g_neg, v_in, 1e-4, r_wire=1.0, columnar=True
        )
        return assemble_mna(circuit)

    ref_sys = reference()
    col_sys = columnar()
    assert col_sys.node_index == ref_sys.node_index
    assert col_sys.branch_index == ref_sys.branch_index
    assert col_sys.dense == ref_sys.dense
    if ref_sys.dense:
        assert col_sys.matrix.tobytes() == ref_sys.matrix.tobytes()
    else:
        assert col_sys.matrix.data.tobytes() == ref_sys.matrix.data.tobytes()
        assert col_sys.matrix.indices.tobytes() == ref_sys.matrix.indices.tobytes()
        assert col_sys.matrix.indptr.tobytes() == ref_sys.matrix.indptr.tobytes()

    old_s = time_call(reference, repeats=2)
    new_s = time_call(columnar, repeats=3)
    speedup = _report.add(
        f"netlist_assembly_columnar_{n}x{n}",
        old_s,
        new_s,
        detail=(
            f"MVM ladder build+assemble at {n}x{n}: cell-by-cell objects "
            "vs ColumnarCircuit bulk stamping (byte-identical MNA system)"
        ),
    )
    report(
        "perf_netlist_columnar",
        format_table(
            ["path", "ms"],
            [["object pipeline", old_s * 1e3], ["columnar pipeline", new_s * 1e3]],
            title=f"columnar MVM build+assemble {n}x{n} — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_COLUMNAR_SPEEDUP


def test_exact_parasitics_batched(report):
    """Batched exact extraction vs the per-trial scalar loop, 64 trials.

    The batched engine amortizes Schur block assembly and input
    validation across the stack; the back-substitution sweep stays
    per-trial LAPACK (stacking it would change low-order bits).
    Bit-identity per trial is asserted, not approximate closeness.
    """
    trials, n = 64, 16
    rng = np.random.default_rng(13)
    g = rng.uniform(0.0, 1e-4, size=(trials, n, n))
    r_wire = 1.0

    def scalar_loop():
        return np.stack([exact_effective_matrix(g[t], r_wire) for t in range(trials)])

    def batched():
        return exact_effective_matrix_batch(g, r_wire)

    assert np.array_equal(scalar_loop(), batched())

    old_s = time_call(scalar_loop, repeats=3)
    new_s = time_call(batched, repeats=5)
    speedup = _report.add(
        f"exact_parasitics_batched_{trials}trials",
        old_s,
        new_s,
        detail=(
            f"{trials} stacked {n}x{n} exact extractions: per-trial scalar "
            "loop vs batched Schur assembly (bit-identical per trial)"
        ),
    )
    report(
        "perf_exact_batched",
        format_table(
            ["path", "ms"],
            [["scalar loop", old_s * 1e3], ["batched engine", new_s * 1e3]],
            title=f"batched exact parasitics {trials}x{n}x{n} — {speedup:.2f}x",
        ),
    )
    assert speedup >= MIN_BATCHED_EXACT_SPEEDUP


def test_write_artifact():
    """Write BENCH_perf_engine.json (runs last: file-order collection)."""
    assert _report.entries, "perf comparisons must run before the artifact writes"
    path = _report.write()
    assert path.exists()
