"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced pass: an untraced and a traced
phase of equal length (their throughput ratio is the tracing overhead),
the program's own ``repro.obs`` spans reduced to per-stage self time,
and timed calls into each layer's public functions. Either way every
answer is checked against the sequential reference, human-readable
lines go to stdout, the full record goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json`` and the last
stdout line is the JSON summary
``{"correct", "attempted", "failed", "metrics"}`` whose metric names
are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) lists of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

#: Longest traced phase: span files grow with every request.
TRACE_PHASE_S = 5.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop_processes(spawned) -> None:
    """Stop this process's shared-memory tracker; wait out every child.

    Attaching result blocks starts a ``multiprocessing`` resource
    tracker in this process; the net workers start their own.
    """
    import harness
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    left = harness.wait_gone(set(spawned) | harness.descendants())
    if left:
        print(f"warning: processes still running: {sorted(left)}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import layers
    import workloads
    from repro.obs import Tracer, read_spans
    from repro.obs import tracer as obs

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"available: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = SCRATCH / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "metadata": harness.run_metadata()}
    bench_tracer = Tracer(service="perfbench")
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, work)
        phase_s = args.seconds if not args.trace else min(TRACE_PHASE_S, args.seconds / 3)
        measured = workload.run_phase(phase_s)
        setup_s = statistics.median(measured["setups_s"])
        record["setup_runs_s"] = measured["setups_s"]
        if args.trace:
            trace_dir = work / "spans"
            traced = workload.run_phase(phase_s, trace_dir=str(trace_dir))
            spans = read_spans(trace_dir)
            with bench_tracer.start_span("bench.probes"):
                probes, rows = layers.probe_layers(workload.grid(), args.seed, bench_tracer)
        problems = workload.verify()
        accuracy = workload.accuracy()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        obs.disable()
        _stop_processes(getattr(workload, "spawned", ()))

    loop = measured["loop"]
    record.update(
        attempted=loop.attempted,
        failed=loop.failed,
        failures=loop.failures,
        latency_samples=len(loop.latencies_s),
        max_in_flight=loop.max_in_flight,
        accuracy=accuracy,
        problems=problems,
        rounds=[
            {"ops_per_s": r.completed / r.wall_s, "samples": len(r.latencies_s),
             "p50_ms": statistics.median(r.latencies_s) * 1e3}
            for r in measured.get("round_loops", ())
        ],
    )
    print(f"# {tag}: {loop.attempted} attempted, {loop.failed} failed {loop.failures}, "
          f"{len(loop.latencies_s)} latency samples")
    print(f"# metadata: {json.dumps(record['metadata'])}")
    if args.trace:
        source = layers.collect(measured, traced, spans, probes)
        record.update(per_layer=source, probe_rows=rows)
        layers.print_table(source)
        names = [m["name"] for m in contract["per_layer"]]
    else:
        source = harness.end_to_end(measured, setup_s, accuracy, serve=workload.unit == "req")
        record["end_to_end"] = source
        for name, item in source.items():
            print(f"{name:24s} {item['value']:14.6g} {item['unit']}")
        names = [m["name"] for m in contract["end_to_end"]]
    for problem in problems:
        print(f"INCORRECT: {problem}")
    metrics = {
        name: {"value": source[name]["value"], "unit": source[name]["unit"]} for name in names
    }

    results = SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    bench_tracer.export(SCRATCH / "traces" / f"{tag}.jsonl")
    print(json.dumps({"correct": not problems, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
