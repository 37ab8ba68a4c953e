"""Deploy a workload, time it from outside, and check what came back.

A run renders its inputs, measures one *phase* (set-ups plus measured
deployments), takes the peak RSS, and only then loads or computes the
reference, so neither the oracle nor its memory lands in a measurement.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core import DeployConfig, RecoveryConfig, Strata, build_use_case, calibrate_job
from repro.dist import DistConfig
from repro.kvstore.lsm import LSMStore
from repro.kvstore.memory import MemoryStore
from repro.obs import ObsConfig
from repro.obs.registry import MetricsSnapshot
from repro.pubsub.broker import Broker
from repro.recovery import CheckpointCoordinator
from repro.spe.engine import RunReport
from repro.spe.sink import Sink

from .inputs import Inputs, use_case_config
from .oracle import Check, Reference, ReportKey, check_reports, report_key
from .schedule import FOLLOW, LEAD, Schedule
from .tracing import SpanLog, TimedStore, compose_traced
from .workloads import (
    CHECKPOINT_INTERVAL_S,
    IMAGE_PX,
    RECOAT_DEADLINE_S,
    REPLAY_MIN_ROUNDS,
    SETUP_SAMPLES,
    SETUP_WARMUPS,
    Workload,
)

DIST_WORKERS = 2
#: metrics, queue and checkpoint gauges and the QoS watchdog, without the
#: sampling tracer: a sampled tuple forces the scheduler off its batch
#: path, which would change the plan being measured (see NOTES.md)
TRACED_OBS = ObsConfig(trace_sample_every=0)


def dist_config() -> DistConfig:
    """2 shm workers; slabs sized as the dist throughput benchmark sizes them."""
    return DistConfig(
        workers=DIST_WORKERS,
        transport="shm",
        shm_slab_bytes=IMAGE_PX * IMAGE_PX * 8 + (1 << 20),
    )


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (dist workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class ReceiptSink(Sink):
    """The expert sink: notes when each report arrives and its check key.

    It keeps the integer key, not the payload, so the benchmark's own heap
    stays small and does not lengthen the collector's pauses it measures.
    """

    def __init__(self) -> None:
        super().__init__("bench-expert")
        self.receipts: list[tuple[int, str, ReportKey, float]] = []

    def consume(self, t) -> None:
        now = time.monotonic()
        self.receipts.append((t.layer, t.specimen, report_key(t.payload), now))


@dataclass
class Deployment:
    """What one deployment sent, received and cost."""

    sent: int
    setup_s: float
    t_ready: float
    receipts: list[tuple[int, str, ReportKey, float]]
    due: Callable[[int], float]
    cpu_self_s: float
    cpu_children_s: float
    lag_max_s: float
    report: RunReport
    #: ``cells_evaluated`` of the detect function; None when it ran in a worker
    cells_counted: int | None
    checkpoint_s: list[float] = field(default_factory=list)
    kv: TimedStore | None = None
    metrics: MetricsSnapshot | None = None
    retained: int = 0

    @property
    def t_last(self) -> float | None:
        return max((r[3] for r in self.receipts), default=None)


def _retained(broker: Broker) -> int:
    total = 0
    for name in broker.topics():
        topic = broker.topic(name)
        for partition, end in topic.end_offsets().items():
            total += end - topic.log(partition).start_offset
    return total


def deploy_once(
    wl: Workload,
    inputs: Inputs,
    count: int,
    workdir: Path,
    log: SpanLog | None = None,
    dist: DistConfig | None = None,
) -> Deployment:
    """Set up, send ``count`` layers on the schedule, run to completion.

    ``log`` selects the traced run: observability on, traced functions,
    and a timing proxy around the KV store. ``dist`` replaces the dist
    workload's :func:`dist_config` (the defect repros use it).
    """
    records = inputs.records(count)
    schedule = Schedule(wl.rate_layers_s)
    lsm_dir = workdir / f"lsm-{uuid.uuid4().hex}" if wl.checkpoint else None

    started = time.monotonic()
    store = LSMStore(lsm_dir) if lsm_dir is not None else MemoryStore()
    try:
        sink = ReceiptSink()
        config = use_case_config(wl.cell_edge_px)
        cpu_at_ready: list[float] = []
        if not wl.dist:
            schedule.on_start(lambda: cpu_at_ready.append(_cpu_s(resource.RUSAGE_SELF)))
        timed = TimedStore(store) if log is not None else None
        broker = Broker()
        strata = Strata(
            store=timed if timed is not None else store,
            broker=broker,
            connector_mode="pubsub" if wl.dist else "direct",
            obs=TRACED_OBS if log is not None else None,
        )
        calibrate_job(
            strata.kv, inputs.job_id, inputs.reference_images, wl.cell_edge_px,
            regions=inputs.regions,
        )
        # a layer's parameters before its OT image (see schedule.py)
        pp = schedule.feed(records, LEAD)
        ot = schedule.feed(records, FOLLOW)
        if log is not None:
            detect_fn = compose_traced(
                strata, ot, pp, config, sink, log, checkpointable=wl.checkpoint
            )
        else:
            detect_fn = build_use_case(
                ot, pp, config, strata=strata, sink=sink, checkpointable=wl.checkpoint
            ).detect_fn
        coordinator = None
        checkpoint_s: list[float] = []
        if wl.dist:
            deploy_config = DeployConfig(plan=True, dist=dist or dist_config())
        elif wl.checkpoint:
            coordinator = CheckpointCoordinator(
                strata.kv,
                interval=CHECKPOINT_INTERVAL_S,
                on_epoch_committed=lambda _epoch: checkpoint_s.append(
                    coordinator.last_duration
                ),
            )
            # the graph is bound by the time a collector pulls its first record
            schedule.on_start(coordinator.start_periodic)
            deploy_config = DeployConfig(
                plan=True, recovery=RecoveryConfig(checkpointer=coordinator)
            )
        else:
            deploy_config = DeployConfig(plan=True)

        cpu_self_0 = _cpu_s(resource.RUSAGE_SELF)
        cpu_children_0 = _cpu_s(resource.RUSAGE_CHILDREN)
        try:
            report = strata.deploy(deploy_config)
        finally:
            if coordinator is not None:
                coordinator.stop()
        cpu_self_1 = _cpu_s(resource.RUSAGE_SELF)
        cpu_children_1 = _cpu_s(resource.RUSAGE_CHILDREN)
        t_ready = schedule.started_at
        if t_ready is None:
            raise RuntimeError(f"{wl.name}: the collectors never started")
        if cpu_at_ready:
            cpu_self_0 = cpu_at_ready[0]
        return Deployment(
            sent=count,
            setup_s=t_ready - started,
            t_ready=t_ready,
            receipts=sink.receipts,
            due=schedule.due,
            cpu_self_s=cpu_self_1 - cpu_self_0,
            cpu_children_s=cpu_children_1 - cpu_children_0,
            lag_max_s=schedule.lag_max_s,
            report=report,
            cells_counted=None if wl.dist else detect_fn.cells_evaluated,
            checkpoint_s=checkpoint_s,
            kv=timed,
            metrics=strata.metrics() if log is not None else None,
            retained=_retained(broker),
        )
    finally:
        store.close()
        if lsm_dir is not None:
            shutil.rmtree(lsm_dir, ignore_errors=True)


@dataclass
class Phase:
    """Set-up samples plus the measured deployments of one run."""

    setups_s: list[float]
    deployments: list[Deployment]

    @property
    def sent(self) -> int:
        return sum(d.sent for d in self.deployments)


def run_phase(
    wl: Workload,
    inputs: Inputs,
    seconds: float,
    workdir: Path,
    log: SpanLog | None = None,
) -> Phase:
    """Empty set-ups, then ``seconds`` of measured deployments.

    The set-ups send nothing; after :data:`SETUP_WARMUPS` dropped ones,
    :data:`SETUP_SAMPLES` are timed for ``setup_s``. Paced workloads then
    send ``rate * seconds`` layers in one deployment; burst workloads
    repeat rounds of ``round_layers`` until ``seconds`` have passed.
    """
    setups = [
        deploy_once(wl, inputs, 0, workdir, log).setup_s
        for _ in range(SETUP_WARMUPS + SETUP_SAMPLES)
    ][SETUP_WARMUPS:]
    measured: list[Deployment] = []
    if wl.paced:
        count = max(1, round(wl.rate_layers_s * seconds))
        measured.append(deploy_once(wl, inputs, count, workdir, log))
    else:
        started = time.monotonic()
        while (
            len(measured) < REPLAY_MIN_ROUNDS or time.monotonic() - started < seconds
        ):
            measured.append(deploy_once(wl, inputs, wl.round_layers, workdir, log))
    return Phase(setups_s=setups, deployments=measured)


# -- evaluation ------------------------------------------------------------


def tail_rank(n: int, beyond: int = 10) -> tuple[int, int]:
    """(percentile, 0-based rank) of the highest whole percentile that
    leaves at least ``beyond`` of ``n`` sorted samples above it."""
    percentile = max(0, math.floor(100 * (n - beyond) / n)) if n else 0
    rank = max(0, math.ceil(percentile * n / 100) - 1)
    return percentile, rank


@dataclass
class Evaluation:
    """Output check and end-to-end numbers of one phase."""

    checks: list[Check]
    problems: list[str]
    latencies_s: list[float]
    throughputs_kcells_s: list[float]
    cpu_ms_per_layer: float

    @property
    def attempted(self) -> int:
        return sum(c.sent for c in self.checks)

    @property
    def failed(self) -> int:
        return sum(len(c.failed) for c in self.checks)

    @property
    def correct(self) -> bool:
        return not self.problems and all(c.correct for c in self.checks)

    def reasons(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for check in self.checks:
            for reason in check.failed.values():
                out[reason] = out.get(reason, 0) + 1
        return out


def evaluate(phase: Phase, wl: Workload, inputs: Inputs, reference: Reference) -> Evaluation:
    checks: list[Check] = []
    problems: list[str] = []
    latencies: list[float] = []
    throughputs: list[float] = []
    for d in phase.deployments:
        check = check_reports(
            (
                (layer - inputs.first_layer, spec, key, t)
                for layer, spec, key, t in d.receipts
            ),
            d.sent,
            d.due,
            reference,
            inputs.specimens,
            RECOAT_DEADLINE_S,
        )
        checks.append(check)
        if check.stray:
            problems.append(f"{check.stray} report(s) for layers never sent")
        latencies.extend(check.latencies_s)
        cells = reference.cells_per_layer * d.sent
        if d.cells_counted is not None and d.cells_counted != cells:
            problems.append(
                f"{d.cells_counted} cells evaluated, reference says {cells}"
            )
        if d.t_last is not None and d.t_last > d.t_ready:
            throughputs.append(cells / (d.t_last - d.t_ready) / 1000.0)
    if wl.checkpoint and not sum(len(d.checkpoint_s) for d in phase.deployments):
        problems.append("no checkpoint epoch committed (recovery.epochs_committed == 0)")
    cpu_s = sum(d.cpu_self_s + d.cpu_children_s for d in phase.deployments)
    return Evaluation(
        checks=checks,
        problems=problems,
        latencies_s=latencies,
        throughputs_kcells_s=throughputs,
        cpu_ms_per_layer=cpu_s / max(phase.sent, 1) * 1000.0,
    )


def _median(values: list[float]) -> float:
    """NaN for a run that received nothing; run.py reports it as 0."""
    return statistics.median(values) if values else math.nan


def end_to_end(
    phase: Phase, ev: Evaluation, rss_mb: float
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics, plus what qualifies them for the run record."""
    ordered = sorted(ev.latencies_s)
    percentile, rank = tail_rank(len(ordered))
    metrics = {
        "layer_latency_p50_ms": _median(ordered) * 1000.0,
        "layer_latency_tail_ms": ordered[rank] * 1000.0 if ordered else math.nan,
        "throughput_kcells_s": _median(ev.throughputs_kcells_s),
        "cpu_ms_per_layer": ev.cpu_ms_per_layer,
        "setup_s": statistics.median(phase.setups_s),
        "peak_rss_mb": rss_mb,
    }
    qualifiers = {
        "layers_failed_ratio": ev.failed / max(ev.attempted, 1),
        "layer_latency_tail_percentile": percentile,
        "layer_latency_tail_layers_beyond": len(ordered) - 1 - rank,
        "layers_measured": len(ordered),
        "generator_lag_max_ms": max(d.lag_max_s for d in phase.deployments) * 1000.0,
        "setup_samples": len(phase.setups_s),
        "deployments": len(phase.deployments),
    }
    dist = [d.report.extra["dist"] for d in phase.deployments if "dist" in d.report.extra]
    if dist:
        qualifiers["dist_workers"] = max(len(x["workers"]) for x in dist)
        qualifiers["dist_restarts"] = sum(x["restarts"] for x in dist)
    return metrics, qualifiers
