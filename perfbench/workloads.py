"""The benchmark's four workloads, driven through the public entry points.

Each workload makes its inputs from the seed, sets the system up (timed,
several times), measures for a given number of seconds, and checks every
answer against the sequential reference afterwards:

- ``serve-hot`` / ``serve-churn``: a closed loop over an in-process
  :class:`~repro.serve.SolverService`;
- ``net-tcp``: the same loop over one :class:`~repro.serve.net.NetClient`
  connection to a :class:`~repro.serve.net.NetServer` with forked
  process workers;
- ``campaign-mc``: the Fig. 7 Monte-Carlo sweep through
  :func:`~repro.campaigns.run_campaign` inline, into fresh stores.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import harness
from repro.analysis.accuracy import run_trials_batched
from repro.campaigns import (
    ArtifactStore,
    expand,
    get_campaign,
    run_campaign,
    store_diff,
    unit_seed_sequence,
)
from repro.obs import tracer as obs
from repro.serve import SOLVER_KINDS, ServiceConfig, SolverService, run_sequential
from repro.serve.net import NetClient, NetServer, NetServerConfig
from repro.workloads.traffic import TRAFFIC_FAMILIES, mixed_traffic

#: Requests each serve generator keeps in flight.
WINDOW = 32
#: Service workers (threads or processes) of every serve workload.
WORKERS = 2

_HOT_TRAFFIC = dict(
    unique_matrices=8,
    sizes=(64, 128),
    solvers=("blockamc-1stage", "blockamc-2stage"),
    skew=1.0,
)


@dataclasses.dataclass(frozen=True)
class ServeSpec:
    """One closed-loop serving workload."""

    name: str
    tier: str  # "thread" or "net"
    traffic: dict
    service: dict
    #: Working sets per run (see :class:`ServeWorkload`).
    rounds: int
    #: Distinct requests per working set; the loop cycles through them.
    base_requests: int


SERVE_SPECS = {
    spec.name: spec
    for spec in (
        ServeSpec("serve-hot", "thread", _HOT_TRAFFIC, {}, rounds=16, base_requests=512),
        ServeSpec(
            "serve-churn",
            "thread",
            dict(
                unique_matrices=48,  # 3x workers x cache_capacity
                sizes=(32, 64),
                solvers=("blockamc-1stage", "original-amc"),
                skew=0.0,
            ),
            {"cache_capacity": 8},
            rounds=8,
            base_requests=512,
        ),
        # Fewer, longer rounds: the tier runs at a third of serve-hot's
        # rate, and each round must keep its own p99.
        ServeSpec("net-tcp", "net", _HOT_TRAFFIC, {}, rounds=4, base_requests=512),
    )
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class _ThreadTier:
    #: Processes the tier started (none: it runs on threads).
    spawned: set = frozenset()

    def __init__(self, config: ServiceConfig):
        self.service = SolverService(config)
        self.submit = self.service.submit_request

    def metrics(self):
        return self.service.metrics()

    def worker_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        self.service.close(wait=False)


class _NetTier:
    def __init__(self, config: ServiceConfig):
        self.server = NetServer(NetServerConfig(service=config)).start()
        try:
            self.client = NetClient(*self.server.address)
        except BaseException:
            self.server.close()
            raise
        self.submit = self.client.submit_request

    def metrics(self):
        return self.client.metrics()

    def worker_pids(self) -> list[int]:
        return [process.pid for process in multiprocessing.active_children()]

    def close(self) -> None:
        # The workers and the shared-memory trackers they start; the
        # trackers outlive their worker by a moment.
        self.spawned = harness.descendants()
        self.client.close()
        self.server.close()


class _Round:
    """One working set of a serve run: its request stream and answers."""

    def __init__(self, stream):
        self.stream = stream
        seen = {}
        for request in stream:
            seen.setdefault(request.digest, request)
        #: One request per distinct matrix: the warm-up set.
        self.warm = list(seen.values())
        #: Stream slot -> (x, reference, rel_error, saturated, analog_time_s)
        #: of the first answer; later answers must repeat it bit for bit.
        self.answers: dict[int, tuple] = {}
        self.mismatches = 0

    def on_answer(self, index: int, result) -> None:
        slot = index % len(self.stream)
        kept = self.answers.get(slot)
        if kept is None:
            self.answers[slot] = (
                result.x,
                result.reference,
                result.relative_error,
                bool(result.saturated),
                result.analog_time_s,
            )
        elif not (same_bits(kept[0], result.x) and same_bits(kept[1], result.reference)):
            self.mismatches += 1


class ServeWorkload:
    """Closed-loop serving workload (in-process or over TCP).

    A run is ``spec.rounds`` rounds, each on a fresh working set drawn
    from the seed: start the tier and prepare the working set (timed:
    one set-up sample, ``setup_s`` is their median), drive the closed
    loop for its share of the seconds, shut the tier down. Pooling
    rounds averages over how the working sets happen to hash onto the
    shards; the p99 is the median of the rounds' p99s, so one round hit
    by a stall elsewhere on the host does not set it.
    """

    unit = "req"

    def __init__(self, name: str, seed: int, scratch: Path):
        self.spec = SERVE_SPECS[name]
        self.seed = seed
        #: Every process a tier started (waited for at the end of the run).
        self.spawned: set[int] = set()
        self.rounds = [
            _Round(mixed_traffic(self.spec.base_requests, seed=child, **self.spec.traffic))
            for child in np.random.SeedSequence(seed).spawn(self.spec.rounds)
        ]

    def _round(self, work: _Round, seconds: float, trace_dir) -> dict:
        start = time.perf_counter()
        tier_class = _NetTier if self.spec.tier == "net" else _ThreadTier
        tier = tier_class(
            ServiceConfig(workers=WORKERS, trace_dir=trace_dir, **self.spec.service)
        )
        try:
            for ticket in [tier.submit(request) for request in work.warm]:
                ticket.result(60.0)
            setup_s = time.perf_counter() - start
            meter = harness.ProcessMeter().start()
            loop = harness.run_closed_loop(
                tier.submit,
                lambda i: work.stream[i % len(work.stream)],
                window=WINDOW,
                seconds=seconds,
                on_answer=work.on_answer,
            )
            meter.stop()
            workers = tier.worker_pids()
            out = {
                "setup_s": setup_s,
                "loop": loop,
                "cpu_s": meter.cpu_s,
                "parent_cpu_s": meter.self_cpu_s,
                "worker_cpu_s": sum(meter.child_cpu_by_pid.get(p, 0.0) for p in workers),
                "worker_threads": [harness.proc_status(p, "Threads") for p in workers],
                "peak_rss_mb": harness.peak_rss_mb(),
            }
            start = time.perf_counter()
            out["service"] = tier.metrics()
            out["metrics_snapshot_ms"] = (time.perf_counter() - start) * 1e3
        finally:
            tier.close()
            self.spawned |= tier.spawned
        return out

    def run_phase(self, seconds: float, trace_dir=None) -> dict:
        """Every round for an equal share of ``seconds``; pooled measurement."""
        share = seconds / len(self.rounds)
        rounds = [self._round(work, share, trace_dir) for work in self.rounds]
        obs.disable()
        loop = harness.merge_loops([r["loop"] for r in rounds])
        services = [r["service"] for r in rounds]
        hits = sum(s.cache.hits for s in services)
        lookups = hits + sum(s.cache.misses for s in services)
        batches = sum(s.batches_executed for s in services)
        return {
            "setups_s": [r["setup_s"] for r in rounds],
            "loop": loop,
            "round_loops": [r["loop"] for r in rounds],
            "ops": loop.completed,
            "wall_s": loop.wall_s,
            "cpu_s": sum(r["cpu_s"] for r in rounds),
            "parent_cpu_s": sum(r["parent_cpu_s"] for r in rounds),
            "worker_cpu_s": sum(r["worker_cpu_s"] for r in rounds),
            "worker_threads": [t for r in rounds for t in r["worker_threads"]],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "cache_evictions": sum(s.cache.evictions for s in services),
            "batches": batches,
            "mean_batch_size": sum(
                s.mean_batch_size * s.batches_executed for s in services
            ) / max(1, batches),
            "metrics_snapshot_ms": statistics.median(r["metrics_snapshot_ms"] for r in rounds),
        }

    def verify(self) -> list[str]:
        """Compare every kept answer with :func:`run_sequential`."""
        problems = []
        config = ServiceConfig(cache_capacity=64, lean_results=True)
        for k, work in enumerate(self.rounds):
            if work.mismatches:
                problems.append(f"round {k}: {work.mismatches} answers differ from earlier ones")
            slots = sorted(work.answers)
            reference, _ = run_sequential([work.stream[i] for i in slots], config)
            bad = sum(
                not (same_bits(work.answers[i][0], ref.x)
                     and same_bits(work.answers[i][1], ref.reference))
                for i, ref in zip(slots, reference)
            )
            if bad:
                problems.append(f"round {k}: {bad} answers differ from run_sequential")
        return problems

    def accuracy(self) -> dict:
        """Deterministic answer statistics over the distinct requests."""
        kept = [w.answers[i] for w in self.rounds for i in sorted(w.answers)]
        return _accuracy(
            [k[2] for k in kept], [k[3] for k in kept], [k[4] for k in kept],
            len(kept),
        )

    def grid(self) -> dict:
        """Families, sizes and solvers of the working set (layer probes)."""
        return {
            "families": self.spec.traffic.get("families", tuple(TRAFFIC_FAMILIES)),
            "sizes": self.spec.traffic["sizes"],
            "solvers": self.spec.traffic["solvers"],
        }


def _accuracy(rel, sat, analog_s, count) -> dict:
    """Deterministic statistics of a fixed set of answers.

    A solve whose analog circuit never settles (an unstable operator,
    as with the Poisson systems) models an infinite solve time; the
    time mean covers the settled answers and the unsettled share is
    reported beside it.
    """
    analog_s = np.asarray(analog_s, dtype=float)
    settled = np.isfinite(analog_s)
    return {
        "rel_error_mean": float(np.mean(rel)),
        "saturated_frac": float(np.mean(sat)),
        "analog_time_us_mean": float(np.mean(analog_s[settled])) * 1e6,
        "unsettled_frac": float(1.0 - np.mean(settled)),
        "accuracy_samples": count,
    }


# ----------------------------------------------------------------------
# campaign-mc
# ----------------------------------------------------------------------

#: Fig. 7 sizes up to 256 (the paper's 512 is left out for run time).
CAMPAIGN_SIZES = (8, 16, 32, 64, 128, 256)
CAMPAIGN_TRIALS = 40
CAMPAIGN_SETUP_REPEATS = 5


class CampaignWorkload:
    """The Fig. 7 Monte-Carlo sweep through ``run_campaign`` inline."""

    unit = "trial"

    def __init__(self, name: str, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.spec = dataclasses.replace(
            get_campaign("fig7-variation", quick=False),
            sizes=CAMPAIGN_SIZES,
            trials=CAMPAIGN_TRIALS,
            seed=seed,
        )
        self.units = expand(self.spec)
        self.trial_solves = len(self.units) * len(self.spec.solvers) * self.spec.trials
        self.stores: list[Path] = []
        self._runs = 0

    def _fresh_dir(self, label: str) -> Path:
        self._runs += 1
        path = self.scratch / f"{label}-{self._runs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _set_up(self) -> float:
        """Spec and store set-up plus a one-trial warm-up sweep.

        The warm-up covers every family and solver at the sizes up to 64,
        so the engine's lazy imports and first-call costs are paid here.
        """
        start = time.perf_counter()
        warm = dataclasses.replace(
            self.spec,
            name="warm-up",
            sizes=tuple(n for n in self.spec.sizes if n <= 64),
            trials=1,
        )
        warm_dir = self._fresh_dir("warm")
        run_campaign(warm, warm_dir, workers=0)
        ArtifactStore(self._fresh_dir("store")).write_manifest(self.spec)
        elapsed = time.perf_counter() - start
        shutil.rmtree(warm_dir, ignore_errors=True)
        return elapsed

    def run_phase(self, seconds: float, trace_dir=None) -> dict:
        """Set up, then run whole campaigns into fresh stores for ``seconds``."""
        setups = [self._set_up() for _ in range(CAMPAIGN_SETUP_REPEATS)]
        if trace_dir is not None:
            obs.configure(trace_dir=trace_dir)
        latencies = []
        unit_ms = []
        unit_exec_s = 0.0
        wall = 0.0
        runs = 0
        per_unit = self.trial_solves // len(self.units)
        meter = harness.ProcessMeter().start()
        start = time.perf_counter()
        # At least two campaigns: one alone has too few trial-solves for
        # its p99 to keep ten samples beyond it.
        while runs < 2 or time.perf_counter() - start < seconds:
            store = self._fresh_dir("store")
            self.stores.append(store)
            marks = []
            submitted = time.perf_counter()
            run_campaign(
                self.spec,
                store,
                workers=0,
                progress=lambda unit, done, total: marks.append(time.perf_counter()),
            )
            wall += time.perf_counter() - submitted
            runs += 1
            for before, after in zip([submitted] + marks[:-1], marks):
                unit_ms.append((after - before) * 1e3)
            # Every trial-solve of a unit becomes available when the
            # unit's record lands in the store.
            latencies.extend(mark - submitted for mark in marks for _ in range(per_unit))
            records = ArtifactStore(store)
            unit_exec_s += sum(
                records.read_meta(unit.key)["runtime"]["elapsed_s"] for unit in self.units
            )
        meter.stop()
        obs.disable()
        loop = harness.LoopResult(
            attempted=runs * self.trial_solves,
            completed=runs * self.trial_solves,
            latencies_s=latencies,
            wall_s=wall,
        )
        return {
            "setups_s": setups,
            "loop": loop,
            "ops": loop.completed,
            "wall_s": wall,
            "cpu_s": meter.cpu_s,
            "parent_cpu_s": meter.self_cpu_s,
            "peak_rss_mb": harness.peak_rss_mb(),
            "unit_ms": unit_ms,
            "unit_exec_s": unit_exec_s,
        }

    def _reference(self, unit):
        solvers = {name: SOLVER_KINDS[name](self.spec.resolve_hardware(unit.variant_index))
                   for name in self.spec.solvers}
        records = run_trials_batched(
            solvers,
            TRAFFIC_FAMILIES[unit.family],
            [unit.size],
            self.spec.trials,
            seed=unit_seed_sequence(self.spec.seed, unit.size_index, self.spec.trials),
        )
        index = {name: i for i, name in enumerate(self.spec.solvers)}
        shape = (len(self.spec.solvers), self.spec.trials)
        rel, sat, analog = np.empty(shape), np.zeros(shape, dtype=bool), np.empty(shape)
        for record in records:
            i = index[record.solver]
            rel[i, record.trial] = record.relative_error
            sat[i, record.trial] = record.saturated
            analog[i, record.trial] = record.analog_time_s
        return {"relative_error": rel, "saturated": sat, "analog_time_s": analog}

    def verify(self) -> list[str]:
        """First store against ``run_trials_batched``; the rest against it."""
        problems = []
        first = ArtifactStore(self.stores[0])
        for unit in self.units:
            arrays, _ = first.load_unit(unit.key)
            for name, expected in self._reference(unit).items():
                if not same_bits(arrays[name], expected):
                    problems.append(f"unit {unit.describe()}: {name} differs")
        for other in self.stores[1:]:
            problems.extend(store_diff(first, ArtifactStore(other)))
        return problems

    def accuracy(self) -> dict:
        store = ArtifactStore(self.stores[0])
        arrays = [store.load_unit(unit.key)[0] for unit in self.units]
        return _accuracy(
            np.concatenate([a["relative_error"].ravel() for a in arrays]),
            np.concatenate([a["saturated"].ravel() for a in arrays]),
            np.concatenate([a["analog_time_s"].ravel() for a in arrays]),
            self.trial_solves,
        )

    def grid(self) -> dict:
        """The sweep's families and solvers at its sizes of 64 and up."""
        return {
            "families": self.spec.families,
            "sizes": tuple(n for n in self.spec.sizes if n >= 64),
            "solvers": self.spec.solvers,
        }


WORKLOADS = {name: ServeWorkload for name in SERVE_SPECS}
WORKLOADS["campaign-mc"] = CampaignWorkload
