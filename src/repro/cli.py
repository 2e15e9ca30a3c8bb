"""Command-line interface.

``python -m repro`` exposes the experiment suites so the paper's curves
can be regenerated without writing code:

    python -m repro list
    python -m repro run fig7-wishart --quick --csv out.csv
    python -m repro costs --size 512
    python -m repro solve --size 64 --hardware variation
    python -m repro campaign run fig7-variation --workers 4
    python -m repro campaign status fig7-variation

Exit code is 0 on success; validation problems print to stderr and
return 2 (argparse convention).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.amc.config import HardwareConfig
from repro.errors import ReproError
from repro.analysis.accuracy import accuracy_sweep, run_trials_batched
from repro.analysis.costmodel import ARCHITECTURES, savings_vs_original, solver_cost_breakdown
from repro.analysis.export import records_to_csv, sweep_to_csv
from repro.analysis.reporting import format_table
from repro.core.blockamc import BlockAMCSolver
from repro.core.feasibility import assess_feasibility
from repro.core.multistage import MultiStageSolver
from repro.core.original import OriginalAMCSolver
from repro.serve import (
    SOLVER_KINDS,
    ResiliencePolicy,
    ServiceConfig,
    SolverService,
    run_sequential,
)
from repro.workloads.matrices import random_vector, wishart_matrix
from repro.workloads.suites import get_suite, list_suites
from repro.workloads.traffic import TRAFFIC_FAMILIES, drive_network, mixed_traffic

#: One matrix-family table for the whole surface: `repro check`,
#: `repro submit`, and traffic generation stay in sync by construction.
MATRIX_FAMILIES = TRAFFIC_FAMILIES

HARDWARE_FACTORIES = {
    "ideal": HardwareConfig.ideal,
    "ideal-mapping": HardwareConfig.paper_ideal_mapping,
    "variation": HardwareConfig.paper_variation,
    "interconnect": HardwareConfig.paper_interconnect,
}


def _solver_factories(hardware_factory):
    return {
        "original-amc": lambda: OriginalAMCSolver(hardware_factory()),
        "blockamc-1stage": lambda: BlockAMCSolver(hardware_factory()),
        "blockamc-2stage": lambda: MultiStageSolver(hardware_factory(), stages=2),
    }


def _cmd_list(_args) -> int:
    print("Available suites (paper figure experiments):")
    for name in list_suites():
        suite = get_suite(name)
        print(f"  {name:20s} {suite.figure}")
    return 0


def _cmd_run(args) -> int:
    suite = get_suite(args.suite, quick=args.quick)
    # The trial-batched engine produces records identical to the
    # sequential run_trials (bit-identical random draws; enforced by
    # benchmarks/bench_perf_engine.py) at a fraction of the wall clock.
    solvers = {
        name: factory()
        for name, factory in _solver_factories(suite.hardware_factory).items()
    }
    records = run_trials_batched(
        solvers, suite.matrix_factory, suite.sizes, suite.trials, seed=args.seed
    )
    table = accuracy_sweep(records)
    solvers = sorted(table)
    rows = [
        [size] + [table[name][size][0] for name in solvers] for size in suite.sizes
    ]
    print(
        format_table(
            ["size"] + solvers,
            rows,
            title=f"{suite.name} ({suite.figure}) — mean relative error, "
            f"{suite.trials} trials/size",
        )
    )
    if args.csv:
        sweep_to_csv(table, args.csv)
        records_to_csv(records, str(args.csv) + ".raw.csv")
        print(f"\nwrote {args.csv} and {args.csv}.raw.csv")
    return 0


def _cmd_costs(args) -> int:
    rows = []
    for arch in ARCHITECTURES:
        breakdown = solver_cost_breakdown(arch, args.size)
        rows.append([arch, breakdown.total_area_mm2, breakdown.total_power_w * 1e3])
    print(
        format_table(
            ["solver", "area mm^2", "power mW"],
            rows,
            title=f"Fig. 10 cost model at n = {args.size}",
        )
    )
    savings = savings_vs_original(args.size)
    for arch, values in savings.items():
        print(
            f"{arch}: saves {values['area']*100:.1f}% area, "
            f"{values['power']*100:.1f}% power vs original AMC"
        )
    return 0


def _cmd_solve(args) -> int:
    hardware = HARDWARE_FACTORIES[args.hardware]
    matrix = wishart_matrix(args.size, rng=args.seed)
    b = random_vector(args.size, rng=args.seed + 1)
    rng = np.random.default_rng(args.seed + 2)
    solver = (
        MultiStageSolver(hardware(), stages=args.stages)
        if args.stages > 1
        else BlockAMCSolver(hardware())
    )
    result = solver.solve(matrix, b, rng=rng)
    print(f"solver:          {result.solver}")
    print(f"size:            {result.size}")
    print(f"relative error:  {result.relative_error:.3e}")
    print(f"analog time:     {result.analog_time_s*1e6:.3f} us")
    print(f"operations:      {result.operation_counts}")
    return 0


def _service_config(args) -> ServiceConfig:
    resilience = ResiliencePolicy(
        deadline_s=args.deadline_ms * 1e-3 if args.deadline_ms else None,
        shed_latency_s=args.shed_ms * 1e-3 if args.shed_ms else None,
        fallback=args.fallback,
    )
    return ServiceConfig(
        workers=args.workers,
        max_batch_size=args.max_batch,
        max_linger_s=args.linger_ms * 1e-3,
        default_solver=args.solver,
        default_hardware=HARDWARE_FACTORIES[args.hardware](),
        cache_capacity=args.cache_capacity,
        resilience=resilience,
        trace_dir=args.trace_dir,
    )


def _print_typed_error(exc: ReproError) -> None:
    """Report a service refusal as its typed error class, not a traceback.

    ``repro submit --deadline-ms 1`` prints ``DeadlineExceededError``,
    a shed request prints ``OverloadedError`` with the server's
    retry-after hint — the wire taxonomy, surfaced verbatim.
    """
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is not None:
        print(f"retry after: {retry_after:.3f}s", file=sys.stderr)


def _cmd_serve(args) -> int:
    if args.port is not None:
        return _cmd_serve_net(args)
    requests = mixed_traffic(
        args.requests,
        unique_matrices=args.unique_matrices,
        sizes=tuple(args.sizes),
        deadline_s=args.deadline_ms * 1e-3 if args.deadline_ms else None,
        seed=args.seed,
    )
    config = _service_config(args)
    print(
        f"serving {len(requests)} mixed requests "
        f"({len({r.digest for r in requests})} distinct matrices) "
        f"on {config.workers} workers, max batch {config.max_batch_size}"
    )
    with SolverService(config) as service:
        tickets = [service.submit_request(request) for request in requests]
        results = [ticket.result() for ticket in tickets]
        metrics = service.metrics()
    print(metrics.table(title="service metrics"))
    if args.check:
        reference, _ = run_sequential(requests, config)
        identical = all(
            np.array_equal(a.x, b.x) for a, b in zip(reference, results)
        )
        print(f"bit-identical to sequential reference: {identical}")
        if not identical:
            return 1
    return 0


def _cmd_serve_net(args) -> int:
    """`repro serve --port N`: TCP front-end over process workers."""
    import time

    from repro.serve.net import NetClient, NetServer, NetServerConfig, QuotaPolicy

    quota = (
        QuotaPolicy(rate_per_s=args.quota_rps, burst=args.quota_burst)
        if args.quota_rps is not None
        else None
    )
    config = NetServerConfig(
        host=args.host, port=args.port, service=_service_config(args), quota=quota
    )
    with NetServer(config) as server:
        host, port = server.address
        print(
            f"listening on {host}:{port} "
            f"({config.service.workers} process workers"
            + (f", quota {quota.rate_per_s:g} req/s" if quota else "")
            + ")"
        )
        if args.requests < 1:
            # Serve until interrupted (the operational mode). SIGTERM —
            # what process supervisors send — shuts down as gracefully
            # as Ctrl-C.
            import signal

            def _interrupt(signum, frame):
                raise KeyboardInterrupt

            try:
                signal.signal(signal.SIGTERM, _interrupt)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print("\nshutting down")
                return 0
        # Drive a loopback workload through the wire (the demo mode).
        requests = mixed_traffic(
            args.requests,
            unique_matrices=args.unique_matrices,
            sizes=tuple(args.sizes),
            deadline_s=args.deadline_ms * 1e-3 if args.deadline_ms else None,
            seed=args.seed,
        )
        with NetClient(host, port) as client:
            outcomes = drive_network(client, requests, max_rounds=3)
            metrics = client.metrics()
        failures = [o for o in outcomes if isinstance(o, Exception)]
        print(
            f"{len(outcomes) - len(failures)}/{len(outcomes)} requests ok "
            f"over the wire ({len(failures)} typed failures)"
        )
        print(metrics.table(title="service metrics (over the wire)"))
        if args.check:
            reference, _ = run_sequential(requests, config.service)
            identical = all(
                isinstance(outcome, Exception) or np.array_equal(ref.x, outcome.x)
                for ref, outcome in zip(reference, outcomes)
            )
            print(f"bit-identical to sequential reference: {identical}")
            if not identical or failures:
                return 1
    return 0


def _cmd_submit(args) -> int:
    matrix = MATRIX_FAMILIES[args.family](args.size, np.random.default_rng(args.seed))
    rhs = [random_vector(args.size, rng=args.seed + 1 + i) for i in range(args.rhs)]
    try:
        if args.connect is not None:
            results, metrics = _submit_over_wire(args, matrix, rhs)
        else:
            config = _service_config(args)
            with SolverService(config) as service:
                tickets = [
                    service.submit(matrix, b, seed=i) for i, b in enumerate(rhs)
                ]
                results = [ticket.result() for ticket in tickets]
                metrics = service.metrics()
    except ReproError as exc:
        _print_typed_error(exc)
        return 1
    if args.metrics_json:
        # Machine-readable mode: exactly one JSON document on stdout.
        print(metrics.as_json())
        return 0
    errors = [result.relative_error for result in results]
    print(f"solver:            {results[0].solver}")
    print(f"matrix:            {args.family} {args.size}x{args.size}")
    print(f"right-hand sides:  {args.rhs}")
    print(f"mean rel. error:   {float(np.mean(errors)):.3e}")
    print(f"worst rel. error:  {float(np.max(errors)):.3e}")
    print(metrics.table(title="service metrics"))
    return 0


def _submit_over_wire(args, matrix, rhs):
    """Submit the right-hand sides to a running ``repro serve --port`` server."""
    from repro.errors import ValidationError
    from repro.serve.net import NetClient

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValidationError(
            f"--connect expects HOST:PORT, got {args.connect!r}"
        )
    deadline_ms = args.deadline_ms if args.deadline_ms else None
    with NetClient(host, int(port_text), tenant=args.tenant) as client:
        tickets = [
            client.submit(
                matrix,
                b,
                solver=args.solver,
                seed=i,
                deadline_s=deadline_ms * 1e-3 if deadline_ms else None,
            )
            for i, b in enumerate(rhs)
        ]
        results = [ticket.result(client.timeout_s) for ticket in tickets]
        return results, client.metrics()


def _cmd_report(args) -> int:
    from repro.analysis.reporting import write_report

    path = write_report(
        args.out, quick=args.quick, seed=args.seed, suites=args.suite
    )
    print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    hardware = HARDWARE_FACTORIES[args.hardware]()
    matrix = MATRIX_FAMILIES[args.family](args.size, np.random.default_rng(args.seed))
    report = assess_feasibility(
        matrix, config=hardware, max_array_size=args.max_array
    )
    print(
        f"feasibility: {'OK' if report.feasible else 'BLOCKED'} "
        f"(worst severity: {report.worst_severity})"
    )
    print(f"stability margin:   {report.stability_margin:.4g}")
    print(f"condition number:   {report.condition:.4g}")
    if report.predicted_error is not None:
        print(f"predicted error:    {report.predicted_error:.4g}")
    print(f"recommended stages: {report.recommended_stages}")
    print("\nfindings:")
    for finding in report.findings:
        print(f"  [{finding.severity:7s}] {finding.topic}: {finding.message}")
    return 0 if report.feasible else 1


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------


def _campaign_spec(args):
    from repro.campaigns import get_campaign

    return get_campaign(args.name, quick=not args.paper)


def _campaign_store_root(args):
    from pathlib import Path

    if args.store is not None:
        return Path(args.store)
    return Path("campaign_runs") / args.name


def _cmd_campaign_list(args) -> int:
    from repro.campaigns import expand, get_campaign, list_campaigns

    print("Registered campaigns:")
    for name in list_campaigns(quick=not args.paper):
        spec = get_campaign(name, quick=not args.paper)
        print(
            f"  {name:24s} {len(expand(spec)):3d} units "
            f"({len(spec.variants)} variants x {len(spec.families)} families "
            f"x {len(spec.sizes)} sizes, {spec.trials} trials)  {spec.title}"
        )
    return 0


def _cmd_campaign_run(args) -> int:
    import os

    from repro.campaigns import RetryPolicy, run_campaign
    from repro.obs import tracer as obs_tracer

    if args.trace_dir is not None:
        # Environment propagation (like REPRO_CHAOS): the driver and
        # every pool worker pick it up via configure_from_env().
        os.environ[obs_tracer.TRACE_ENV] = args.trace_dir
    spec = _campaign_spec(args)
    root = _campaign_store_root(args)
    retry = RetryPolicy(max_attempts=args.max_attempts) if args.max_attempts else None

    def progress(unit, completed, total):
        print(f"  [{completed}/{total}] {unit.describe()}", flush=True)

    run = run_campaign(
        spec,
        root,
        workers=args.workers,
        max_units=args.max_units,
        start_method=args.start_method,
        progress=progress,
        retry=retry,
        requeue_quarantined=args.requeue_quarantined,
    )
    mode = "inline" if args.workers <= 1 else f"{args.workers} process workers"
    print(
        f"campaign {spec.name}: {run.completed_units} units executed, "
        f"{run.skipped_units} already complete, {run.remaining_units} remaining "
        f"({mode}, {run.elapsed_s:.2f}s) -> {root}"
    )
    if run.quarantined_units:
        print(
            f"quarantined {run.quarantined_units} poison unit(s); inspect with "
            "`repro campaign status`, requeue with --requeue-quarantined"
        )
    if not run.finished:
        print("campaign incomplete; rerun `repro campaign run` (or `resume`) to finish")
    return 0


def _cmd_campaign_status(args) -> int:
    import json

    from repro.campaigns import ArtifactStore, campaign_status

    spec = _campaign_spec(args)
    status = campaign_status(spec, ArtifactStore(_campaign_store_root(args)))
    if args.json:
        print(
            json.dumps(
                {
                    "name": spec.name,
                    "digest": spec.digest(),
                    "total_units": status.total_units,
                    "completed_units": status.completed_units,
                    "pending": [unit.key for unit in status.pending],
                    "quarantined": [unit.key for unit in status.quarantined],
                    "progress_percent": status.progress_percent,
                    "units_per_s": status.units_per_s,
                    "eta_s": status.eta_s,
                    "finished": status.finished,
                }
            )
        )
        return 0 if status.finished else 1
    print(
        f"campaign {spec.name} [{spec.digest()[:12]}]: "
        f"{status.completed_units}/{status.total_units} units complete"
    )
    progress = f"progress: {status.progress_percent:.1f}%"
    if status.units_per_s > 0.0:
        progress += f", {status.units_per_s:.2f} units/s"
    if status.eta_s is not None:
        progress += f", eta {status.eta_s:.1f}s compute"
    print(progress)
    for unit in status.pending:
        print(f"  pending: {unit.describe()}")
    for unit in status.quarantined:
        print(f"  quarantined: {unit.describe()}")
    return 0 if status.finished else 1


def _cmd_campaign_report(args) -> int:
    from pathlib import Path

    from repro.campaigns import (
        ArtifactStore,
        campaign_records,
        campaign_report,
        campaign_tables,
        records_to_campaign_csv,
    )

    spec = _campaign_spec(args)
    store = ArtifactStore(_campaign_store_root(args))
    # Aggregate the store once, render every requested output from it.
    grouped = campaign_records(spec, store, strict=not args.partial)
    # Artifacts first: a closed stdout (e.g. piping into head) must not
    # prevent the requested files from being written.
    written = []
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(campaign_report(spec, store, grouped=grouped))
        written.append(out)
    if args.csv:
        written.extend(records_to_campaign_csv(spec, store, args.csv, grouped=grouped))
    print(campaign_tables(spec, store, grouped=grouped))
    for path in written:
        print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


def _cmd_trace(args) -> int:
    from repro.obs import report as obs_report

    if args.trace_command == "export":
        count = obs_report.export_spans(args.dir, args.out)
        print(f"wrote {count} spans -> {args.out}")
        return 0 if count else 1
    spans = obs_report.read_spans(args.dir)
    if not spans:
        print(f"no spans found under {args.dir}", file=sys.stderr)
        return 1
    if args.trace_command == "summary":
        print(obs_report.format_summary(spans))
    else:  # slowest
        for root in obs_report.slowest_traces(spans, limit=args.limit):
            print(obs_report.render_tree(root))
            print()
    return 0


def _cmd_campaign_diff(args) -> int:
    from repro.campaigns import ArtifactStore, store_diff

    diffs = store_diff(ArtifactStore(args.store_a), ArtifactStore(args.store_b))
    if not diffs:
        print("stores are bit-identical")
        return 0
    for line in diffs:
        print(line)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BlockAMC (DATE 2024) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment suites").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one suite and print its figure's series")
    run.add_argument("suite", choices=list_suites())
    run.add_argument("--quick", action="store_true", help="CI-size sweep (default full)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--csv", type=str, default=None, help="write series to CSV")
    run.set_defaults(func=_cmd_run)

    costs = sub.add_parser("costs", help="print the Fig. 10 cost model")
    costs.add_argument("--size", type=int, default=512)
    costs.set_defaults(func=_cmd_costs)

    solve = sub.add_parser("solve", help="solve one random system and print telemetry")
    solve.add_argument("--size", type=int, default=64)
    solve.add_argument("--stages", type=int, default=1)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--hardware", choices=sorted(HARDWARE_FACTORIES), default="variation"
    )
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser(
        "check", help="assess AMC feasibility of a workload before solving"
    )
    check.add_argument("--size", type=int, default=64)
    check.add_argument("--family", choices=sorted(MATRIX_FAMILIES), default="wishart")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--max-array", type=int, default=256)
    check.add_argument(
        "--hardware", choices=sorted(HARDWARE_FACTORIES), default="variation"
    )
    check.set_defaults(func=_cmd_check)

    def add_service_args(parser):
        parser.add_argument("--workers", type=int, default=2)
        parser.add_argument("--max-batch", type=int, default=16)
        parser.add_argument(
            "--linger-ms", type=float, default=2.0,
            help="micro-batch linger window (milliseconds)",
        )
        parser.add_argument("--cache-capacity", type=int, default=32)
        parser.add_argument(
            "--solver", choices=sorted(SOLVER_KINDS), default="blockamc-1stage"
        )
        parser.add_argument(
            "--hardware", choices=sorted(HARDWARE_FACTORIES), default="variation"
        )
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument(
            "--deadline-ms", type=float, default=None,
            help="per-request deadline (milliseconds); expired requests "
            "fail fast with DeadlineExceededError",
        )
        parser.add_argument(
            "--shed-ms", type=float, default=None,
            help="shed load when the estimated queue latency exceeds this "
            "(milliseconds); shed requests get OverloadedError",
        )
        parser.add_argument(
            "--fallback", choices=("none", "digital"), default="none",
            help="degradation ladder: answer analog solver failures with "
            "the digital reference solve (tagged degraded)",
        )
        parser.add_argument(
            "--trace-dir", type=str, default=None,
            help="enable repro.obs tracing; spans land as JSONL under this "
            "directory (inspect with `repro trace summary DIR`)",
        )

    serve = sub.add_parser(
        "serve",
        help="run a mixed-traffic workload through the repro.serve solver service",
    )
    serve.add_argument("--requests", type=int, default=64)
    serve.add_argument("--unique-matrices", type=int, default=6)
    serve.add_argument(
        "--sizes", type=int, nargs="+", default=[16, 24, 32],
        help="matrix sizes in the traffic working set",
    )
    serve.add_argument(
        "--check", action="store_true",
        help="also run the sequential reference and verify bit-identical results",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="serve over TCP with process workers (0 = ephemeral port); "
        "with --requests 0, serve until interrupted",
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind address for --port mode",
    )
    serve.add_argument(
        "--quota-rps", type=float, default=None,
        help="per-tenant token-bucket rate (requests/second; --port mode)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=8.0,
        help="per-tenant token-bucket burst size (--port mode)",
    )
    add_service_args(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one matrix (many right-hand sides) to the service"
    )
    submit.add_argument("--size", type=int, default=32)
    submit.add_argument("--family", choices=sorted(MATRIX_FAMILIES), default="wishart")
    submit.add_argument("--rhs", type=int, default=8, help="right-hand sides to submit")
    submit.add_argument(
        "--connect", type=str, default=None, metavar="HOST:PORT",
        help="submit over TCP to a running `repro serve --port` server "
        "instead of an in-process service",
    )
    submit.add_argument(
        "--tenant", type=str, default=None,
        help="tenant name for per-tenant quotas (--connect mode)",
    )
    submit.add_argument(
        "--metrics-json", action="store_true",
        help="print the service metrics snapshot as one JSON document "
        "instead of the human-readable summary",
    )
    add_service_args(submit)
    submit.set_defaults(func=_cmd_submit)

    report = sub.add_parser(
        "report", help="run all suites and write a markdown report"
    )
    report.add_argument("--out", type=str, default="repro_report.md")
    report.add_argument("--quick", action="store_true")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--suite", action="append", default=None, help="restrict to named suite(s)"
    )
    report.set_defaults(func=_cmd_report)

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    from repro.campaigns import list_campaigns

    campaign = sub.add_parser(
        "campaign",
        help="declarative, resumable, multiprocess experiment campaigns",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_args(parser, with_name=True):
        if with_name:
            parser.add_argument("name", choices=list_campaigns())
            parser.add_argument(
                "--store", type=str, default=None,
                help="artifact store directory (default campaign_runs/<name>)",
            )
        parser.add_argument(
            "--paper", action="store_true",
            help="paper-scale grid (default is the quick CI grid)",
        )

    clist = campaign_sub.add_parser("list", help="list registered campaigns")
    add_campaign_args(clist, with_name=False)
    clist.set_defaults(func=_cmd_campaign_list)

    for verb, help_text in (
        ("run", "run a campaign (skips already-completed units)"),
        ("resume", "resume an interrupted campaign (alias of run)"),
    ):
        crun = campaign_sub.add_parser(verb, help=help_text)
        add_campaign_args(crun)
        crun.add_argument(
            "--workers", type=int, default=0,
            help="process workers (0/1 = inline, >=2 = multiprocess)",
        )
        crun.add_argument(
            "--max-units", type=int, default=None,
            help="stop after N units (controlled interruption; store stays resumable)",
        )
        crun.add_argument(
            "--start-method", choices=("fork", "spawn", "forkserver"), default=None,
            help="multiprocessing start method (default: fork when available)",
        )
        crun.add_argument(
            "--max-attempts", type=int, default=None,
            help="retry failed/crashed units up to N attempts, then quarantine "
            "(default: first failure aborts the run)",
        )
        crun.add_argument(
            "--requeue-quarantined", action="store_true",
            help="clear quarantine records and retry poison units",
        )
        crun.add_argument(
            "--trace-dir", type=str, default=None,
            help="enable repro.obs tracing (exports REPRO_TRACE_DIR so "
            "pool workers trace their units too)",
        )
        crun.set_defaults(func=_cmd_campaign_run)

    cstatus = campaign_sub.add_parser(
        "status", help="show completed/pending units (exit 1 while incomplete)"
    )
    add_campaign_args(cstatus)
    cstatus.add_argument(
        "--json", action="store_true",
        help="print the status as one JSON document (same exit code)",
    )
    cstatus.set_defaults(func=_cmd_campaign_status)

    creport = campaign_sub.add_parser(
        "report", help="aggregate a campaign's artifacts into tables/markdown/CSV"
    )
    add_campaign_args(creport)
    creport.add_argument("--out", type=str, default=None, help="markdown report path")
    creport.add_argument("--csv", type=str, default=None, help="raw-records CSV base path")
    creport.add_argument(
        "--partial", action="store_true",
        help="aggregate whatever completed instead of requiring a finished campaign",
    )
    creport.set_defaults(func=_cmd_campaign_report)

    cdiff = campaign_sub.add_parser(
        "diff", help="compare two artifact stores bit for bit (exit 1 on differences)"
    )
    cdiff.add_argument("store_a")
    cdiff.add_argument("store_b")
    cdiff.set_defaults(func=_cmd_campaign_diff)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    trace = sub.add_parser(
        "trace", help="inspect repro.obs span dumps (from --trace-dir runs)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tsummary = trace_sub.add_parser(
        "summary", help="per-span-name latency table for a trace directory"
    )
    tsummary.add_argument("dir", help="trace directory (or one JSONL dump)")
    tsummary.set_defaults(func=_cmd_trace)

    tslowest = trace_sub.add_parser(
        "slowest", help="render the slowest trace trees with critical paths"
    )
    tslowest.add_argument("dir", help="trace directory (or one JSONL dump)")
    tslowest.add_argument(
        "--limit", type=int, default=5, help="how many traces to render"
    )
    tslowest.set_defaults(func=_cmd_trace)

    texport = trace_sub.add_parser(
        "export", help="merge per-process span files into one sorted JSONL"
    )
    texport.add_argument("dir", help="trace directory (or one JSONL dump)")
    texport.add_argument(
        "--out", type=str, default="trace_export.jsonl", help="output JSONL path"
    )
    texport.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
