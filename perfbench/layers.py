"""Per-layer measurements of the traced pass.

Two sources, both from outside the program:

- **probes**: timed calls into each layer's public functions on the
  workload's own matrices and solvers (``prepare_entry``,
  ``execute_batch``, ``PreparedOriginalAMC.solve``,
  ``run_trials_batched``, ``encode_frame``/``decode_frame``,
  ``publish_block``/``AttachedBlock``), each wrapped in a benchmark span
  kept in memory;
- **spans**: the ``repro.obs`` spans the program writes when tracing is
  enabled, reduced to per-stage self time (a span's duration minus the
  part its children cover).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from repro.analysis.accuracy import run_trials_batched
from repro.serve import (
    SOLVER_KINDS,
    PreparedKey,
    ServiceConfig,
    execute_batch,
    matrix_digest,
    prepare_entry,
)
from repro.serve.net import AttachedBlock, decode_frame, encode_frame, publish_block
from repro.serve.net.protocol import array_to_bytes
from repro.workloads.matrices import random_vector
from repro.workloads.traffic import TRAFFIC_FAMILIES

#: Right-hand sides per kernel probe batch (the service's default batch cap).
BATCH = 16
#: Trials per ``run_trials_batched`` probe.
PROBE_TRIALS = 8


def _median_time(fn, budget_s: float = 0.1, min_calls: int = 3) -> float:
    """Median wall seconds of calls to ``fn`` within a time budget."""
    times = []
    spent = 0.0
    while len(times) < min_calls or spent < budget_s:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def probe_layers(grid: dict, seed: int, tracer) -> tuple[dict, list[dict]]:
    """Time each layer's public entry points on the workload's grid.

    ``grid`` holds the workload's ``families``, ``sizes`` and
    ``solvers``. Returns ``(metrics, rows)``: metrics are means over the
    grid's cells, rows the per-cell breakdown.
    """
    hardware = ServiceConfig().default_hardware
    rng = np.random.default_rng(seed)
    rows = []
    scalar_us = []
    trial_us = []
    frame_us, frame_bytes, publish_us = [], [], []
    for family in grid["families"]:
        for n in grid["sizes"]:
            matrix = TRAFFIC_FAMILIES[family](n, rng)
            bs = [random_vector(n, rng) for _ in range(BATCH)]
            seeds = list(range(BATCH))
            for solver in grid["solvers"]:
                key = PreparedKey(matrix_digest(matrix), hardware.cache_key(), solver, 0)
                with tracer.start_span("bench.prepare_entry", attributes={"n": n}):
                    entry = prepare_entry(key, matrix, hardware)
                with tracer.start_span("bench.execute_batch", attributes={"n": n}):
                    lean = _median_time(lambda: execute_batch(entry, bs, seeds, lean=True))
                    full = _median_time(lambda: execute_batch(entry, bs, seeds))
                    single = _median_time(
                        lambda: execute_batch(entry, bs[:1], seeds[:1], lean=True)
                    )
                rows.append(
                    {
                        "family": family,
                        "n": n,
                        "solver": solver,
                        "prepare_ms": entry.prepare_seconds * 1e3,
                        "kernel_us_per_rhs": lean / BATCH * 1e6,
                        "assembly_us_per_rhs": (full - lean) / BATCH * 1e6,
                        "kernel_b1_us": single * 1e6,
                    }
                )
            with tracer.start_span("bench.original_amc_solve", attributes={"n": n}):
                prepared = SOLVER_KINDS["original-amc"](hardware).prepare(
                    matrix, np.random.default_rng(0)
                )
                solve_rng = np.random.default_rng(1)
                scalar_us.append(
                    _median_time(lambda: prepared.solve(bs[0], solve_rng)) * 1e6
                )
            with tracer.start_span("bench.run_trials_batched", attributes={"n": n}):
                solvers = {name: SOLVER_KINDS[name](hardware) for name in grid["solvers"]}
                start = time.perf_counter()
                run_trials_batched(
                    solvers, TRAFFIC_FAMILIES[family], [n], PROBE_TRIALS, seed=seed
                )
                trial_us.append(
                    (time.perf_counter() - start)
                    / (PROBE_TRIALS * len(solvers))
                    * 1e6
                )
            with tracer.start_span("bench.frame", attributes={"n": n}):
                header = {"type": "solve", "id": 1, "n": n, "digest": key.matrix_digest,
                          "seed": 1, "dtypes": ["float64"]}
                blobs = [array_to_bytes(bs[0])]
                frame = encode_frame(header, blobs)
                frame_bytes.append(len(frame))
                frame_us.append(
                    _median_time(lambda: decode_frame(encode_frame(header, blobs)[4:]))
                    * 1e6
                )
            with tracer.start_span("bench.publish_block", attributes={"n": n}):
                block = np.stack(bs)

                def publish_attach_release():
                    attached = AttachedBlock(publish_block(block, block))
                    attached.release()

                publish_us.append(_median_time(publish_attach_release) * 1e6)

    def mean(name):
        return float(np.mean([row[name] for row in rows]))

    metrics = {
        "core.kernel_us_per_rhs": mean("kernel_us_per_rhs"),
        "core.kernel_b1_us": mean("kernel_b1_us"),
        "core.assembly_us_per_rhs": mean("assembly_us_per_rhs"),
        "core.batched_trial_us": float(np.mean(trial_us)),
        "amc.scalar_solve_us": float(np.mean(scalar_us)),
        "serve.prepare_ms": mean("prepare_ms"),
        "net.frame_us": float(np.mean(frame_us)),
        "net.frame_bytes": float(np.mean(frame_bytes)),
        "net.publish_us": float(np.mean(publish_us)),
    }
    return metrics, rows


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Span name -> self times (seconds) of every span with that name.

    A span's self time is its duration minus the union of the intervals
    its children cover (clipped to the span).
    """
    children = defaultdict(list)
    for span in spans:
        if span.get("parent_id"):
            children[span["parent_id"]].append(span)
    out = defaultdict(list)
    for span in spans:
        start, end = span["start_s"], span["end_s"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["span_id"], ()), key=lambda s: s["start_s"]):
            lo, hi = max(child["start_s"], cursor), min(child["end_s"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["name"]].append(max(0.0, end - start - covered))
    return dict(out)


def stage_table(spans: list[dict], names: dict[str, str]) -> dict:
    """``{metric: {p50_ms, p95_ms, count}}`` for the span names given."""
    selfs = self_times(spans)
    table = {}
    for span_name, metric in names.items():
        values = sorted(selfs.get(span_name, ()))
        if not values:
            continue
        table[metric] = {
            "p50_ms": values[len(values) // 2] * 1e3,
            "p95_ms": values[min(len(values) - 1, int(0.95 * len(values)))] * 1e3,
            "count": len(values),
        }
    return table


SERVE_STAGES = {
    "serve.queue": "serve.stage.queue_ms",
    "serve.prepare": "serve.stage.prepare_ms",
    "serve.execute": "serve.stage.execute_ms",
    "serve.assemble": "serve.stage.assemble_ms",
}
NET_STAGES = {
    "client.request": "net.stage.client_ms",
    "server.request": "net.stage.server_ms",
    "shard.queue": "net.stage.shard_queue_ms",
    "shard.solve": "net.stage.shard_solve_ms",
}
CAMPAIGN_STAGES = {"campaign.unit": "campaigns.stage.unit_ms"}


#: Per-layer metric -> (unit, the end-to-end metric it should move).
#: The first block is measured on every workload; the rest only where
#: the layer takes part.
LAYER_METRICS = {
    "core.kernel_us_per_rhs": (
        "us", "throughput_rps: serve-hot, net-tcp; flat on serve-churn, campaign-mc"
    ),
    "core.kernel_b1_us": ("us", "throughput_rps: serve-churn"),
    "core.assembly_us_per_rhs": (
        "us", "throughput_rps: serve-hot (full results); flat on net-tcp (lean)"
    ),
    "core.batched_trial_us": ("us", "trials_per_s: campaign-mc only"),
    "amc.scalar_solve_us": ("us", "throughput_rps: serve-churn; setup_s everywhere"),
    "serve.prepare_ms": ("ms", "setup_s: serve-*, net-tcp; throughput_rps: serve-churn"),
    "net.frame_us": ("us", "throughput_rps: net-tcp; flat elsewhere"),
    "net.frame_bytes": ("bytes", "throughput_rps: net-tcp; flat elsewhere"),
    "net.publish_us": ("us", "throughput_rps: net-tcp"),
    "obs.overhead_pct": ("%", "none; the tracing ceiling is 5%"),
    "run.parent_cpu_ms_per_op": ("ms", "cpu_ms_per_op: all"),
    "serve.cache_hit_rate": ("ratio", "throughput_rps: serve-churn"),
    "serve.cache_evictions": ("count", "throughput_rps: serve-churn"),
    "serve.mean_batch_size": ("count", "throughput_rps, latency_p50_ms: serve-hot"),
    "serve.batches": ("count", "throughput_rps, latency_p50_ms: serve-hot"),
    "serve.metrics_snapshot_ms": ("ms", "latency_p99_ms, peak_rss_mb: serve-hot on long runs"),
    "net.worker_cpu_ms_per_req": ("ms", "throughput_rps, latency_p99_ms, cpu_ms_per_op: net-tcp"),
    "net.parent_cpu_ms_per_req": ("ms", "throughput_rps, cpu_ms_per_op: net-tcp"),
    "net.worker_threads": ("count", "throughput_rps, latency_p99_ms: net-tcp"),
    "campaigns.unit_ms": ("ms", "trials_per_s: campaign-mc"),
    "campaigns.overhead_share": ("ratio", "trials_per_s: campaign-mc"),
}
STAGE_MOVES = {
    "serve.stage": "latency_*: serve-hot, serve-churn",
    "net.stage": "latency_*: net-tcp",
    "campaigns.stage": "trials_per_s: campaign-mc",
}


def collect(measured: dict, traced: dict, spans: list[dict], probes: dict) -> dict:
    """Every per-layer metric the measured workload supports, with units."""
    values = dict(probes)
    ops = max(1, measured["ops"])
    values["obs.overhead_pct"] = (
        (measured["ops"] / measured["wall_s"]) / (traced["ops"] / traced["wall_s"]) - 1.0
    ) * 100.0
    values["run.parent_cpu_ms_per_op"] = measured["parent_cpu_s"] * 1e3 / ops
    if "cache_hit_rate" in measured:
        for name in ("cache_hit_rate", "cache_evictions", "mean_batch_size", "batches",
                     "metrics_snapshot_ms"):
            values[f"serve.{name}"] = measured[name]
    if measured.get("worker_threads"):
        values["net.worker_cpu_ms_per_req"] = measured["worker_cpu_s"] * 1e3 / ops
        values["net.parent_cpu_ms_per_req"] = measured["parent_cpu_s"] * 1e3 / ops
        values["net.worker_threads"] = float(np.mean(measured["worker_threads"]))
    if "unit_ms" in measured:
        values["campaigns.unit_ms"] = statistics.median(measured["unit_ms"])
        values["campaigns.overhead_share"] = 1.0 - measured["unit_exec_s"] / measured["wall_s"]
    out = {
        name: {"value": value, "unit": LAYER_METRICS[name][0], "moves": LAYER_METRICS[name][1]}
        for name, value in values.items()
    }
    stages = {**SERVE_STAGES, **NET_STAGES, **CAMPAIGN_STAGES}
    for metric, stats in stage_table(spans, stages).items():
        moves = STAGE_MOVES[metric.rsplit(".", 1)[0]]
        for quantile in ("p50", "p95"):
            out[f"{metric[:-3]}.{quantile}_ms"] = {
                "value": stats[f"{quantile}_ms"], "unit": "ms", "moves": moves,
                "samples": stats["count"],
            }
    return out


def print_table(per_layer: dict) -> None:
    for name, item in per_layer.items():
        print(f"{name:34s} {item['value']:12.6g} {item['unit']:6s} -> {item['moves']}")
