"""Per-layer metrics of the traced run, named after the program's modules."""

from __future__ import annotations

import statistics
from typing import Iterable

from repro.obs.registry import MetricsSnapshot, Sample

from .inputs import Inputs
from .runner import Evaluation, Phase
from .tracing import DBSCAN, ISOLATE_CELLS, ISOLATE_SPECIMENS, LABEL_CELL, SpanLog

#: end-to-end metrics (untraced run) -> unit
END_TO_END_UNITS = {
    "layer_latency_p50_ms": "ms",
    "layer_latency_tail_ms": "ms",
    "throughput_kcells_s": "kcells/s",
    "cpu_ms_per_layer": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run) -> unit
PER_LAYER_UNITS = {
    "core.isolate_cells.block_row_share": "ratio",
    "core.isolate_cells.ms_per_layer": "ms",
    "core.label_cell.ms_per_layer": "ms",
    "core.isolate_specimens.ms_per_layer": "ms",
    "core.dbscan_correlator.ms_per_layer": "ms",
    "core.dbscan_correlator.points_per_call": "count",
    "core.dbscan_correlator.calls": "count",
    "spe.fused_chain.busy_share": "ratio",
    "spe.fuse_join.busy_share": "ratio",
    "spe.sink.busy_share": "ratio",
    "spe.queue_high_watermark": "count",
    "spe.batch_fill_ratio": "ratio",
    "kvstore.put_calls": "count",
    "kvstore.put_ms_per_layer": "ms",
    "kvstore.bytes_put": "bytes",
    "kvstore.get_calls": "count",
    "recovery.epochs_committed": "count",
    "recovery.checkpoint_ms_p50": "ms",
    "recovery.state_entries": "count",
    "am.render_ms_per_layer": "ms",
    "bench.generator_lag_max_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
}

#: per-layer metrics only the dist workloads print. Neither is gated (see
#: NOTES.md), so these are not in BENCHMARK.json, where they would read 0
#: on every gated run.
DIST_PER_LAYER_UNITS = {
    "dist.workers": "count",
    "dist.coordinator_cpu_ms_per_layer": "ms",
    "dist.worker_cpu_ms_per_layer": "ms",
    "dist.worker_busy_share": "ratio",
    "dist.restarts": "count",
    "dist.duplicates_suppressed": "count",
    "pubsub.records_retained": "count",
}


def _node_kind(name: str) -> str | None:
    """The per-layer bucket of a plan node, by the plan's node naming."""
    if name.startswith("fused["):
        return "fused_chain"
    if name.startswith("fuse:"):
        return "fuse_join"
    if name.startswith("sink:") and not name.startswith("sink:writer:"):
        return "sink"
    return None


def _samples(snapshots: Iterable[MetricsSnapshot | None], name: str) -> list[Sample]:
    return [
        s for snap in snapshots if snap is not None for s in snap.samples if s.name == name
    ]


def per_layer(
    inputs: Inputs,
    base: Evaluation,
    phase: Phase,
    traced: Evaluation,
    log: SpanLog,
) -> dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` and :data:`DIST_PER_LAYER_UNITS`
    metric from one traced phase.

    ``base`` is the untraced phase of the same run, the denominator of
    ``obs.trace_overhead_ratio``. Metrics of a module the workload does
    not run read 0.
    """
    layers = max(phase.sent, 1)
    deployments = phase.deployments
    wall = sum(d.report.wall_seconds for d in deployments)
    worker_snaps = [
        snap
        for d in deployments
        for snap in d.report.extra.get("worker_metrics", {}).values()
    ]
    all_snaps = [d.metrics for d in deployments] + worker_snaps

    m: dict[str, float] = {}
    call_rows = log.rows(ISOLATE_CELLS, "call")
    block_rows = log.rows(ISOLATE_CELLS, "block")
    m["core.isolate_cells.block_row_share"] = (
        block_rows / (call_rows + block_rows) if call_rows + block_rows else 0.0
    )
    for name in (ISOLATE_CELLS, LABEL_CELL, ISOLATE_SPECIMENS, DBSCAN):
        m[f"{name}.ms_per_layer"] = log.seconds(name) * 1000.0 / layers
    calls = log.calls(DBSCAN)
    m[f"{DBSCAN}.points_per_call"] = log.rows(DBSCAN) / calls if calls else 0.0
    m[f"{DBSCAN}.calls"] = float(calls)

    # busy time per node kind: coordinator stats plus dist worker snapshots
    busy = {"fused_chain": 0.0, "fuse_join": 0.0, "sink": 0.0}
    for d in deployments:
        for name, stats in d.report.operator_stats.items():
            kind = _node_kind(name)
            if kind is not None:
                busy[kind] += stats.processing_seconds
    for s in _samples(worker_snaps, "spe_busy_seconds_total"):
        kind = _node_kind(dict(s.labels).get("operator", ""))
        if kind is not None:
            busy[kind] += s.value
    for kind, seconds in busy.items():
        m[f"spe.{kind}.busy_share"] = seconds / wall if wall else 0.0
    watermarks = [s.value for s in _samples(all_snaps, "spe_queue_high_watermark")]
    m["spe.queue_high_watermark"] = max(watermarks, default=0.0)
    fills = [s.value for s in _samples(all_snaps, "spe_batch_fill_ratio")]
    m["spe.batch_fill_ratio"] = statistics.fmean(fills) if fills else 0.0

    stores = [d.kv for d in deployments if d.kv is not None]
    m["kvstore.put_calls"] = float(sum(s.put_calls for s in stores))
    m["kvstore.put_ms_per_layer"] = sum(s.put_seconds for s in stores) * 1000.0 / layers
    m["kvstore.bytes_put"] = float(sum(s.bytes_put for s in stores))
    m["kvstore.get_calls"] = float(sum(s.get_calls for s in stores))

    durations = [s for d in deployments for s in d.checkpoint_s]
    m["recovery.epochs_committed"] = float(len(durations))
    m["recovery.checkpoint_ms_p50"] = (
        statistics.median(durations) * 1000.0 if durations else 0.0
    )
    entries = [
        s.value
        for s in _samples([d.metrics for d in deployments], "strata_checkpoint_state_entries")
    ]
    m["recovery.state_entries"] = max(entries, default=0.0)

    dist = [d.report.extra["dist"] for d in deployments if "dist" in d.report.extra]
    workers = max((len(x["workers"]) for x in dist), default=0)
    m["dist.workers"] = float(workers)
    m["dist.coordinator_cpu_ms_per_layer"] = (
        sum(d.cpu_self_s for d in deployments) * 1000.0 / layers if dist else 0.0
    )
    m["dist.worker_cpu_ms_per_layer"] = (
        sum(d.cpu_children_s for d in deployments) * 1000.0 / layers
    )
    worker_busy = sum(s.value for s in _samples(worker_snaps, "spe_busy_seconds_total"))
    m["dist.worker_busy_share"] = (
        worker_busy / (wall * workers) if wall and workers else 0.0
    )
    m["dist.restarts"] = float(sum(x["restarts"] for x in dist))
    m["dist.duplicates_suppressed"] = float(
        sum(x["duplicates_suppressed_local"] for x in dist)
    )
    m["pubsub.records_retained"] = float(sum(d.retained for d in deployments))

    m["am.render_ms_per_layer"] = inputs.render_s * 1000.0 / inputs.images_rendered
    m["bench.generator_lag_max_ms"] = max(d.lag_max_s for d in deployments) * 1000.0
    m["obs.trace_overhead_ratio"] = (
        traced.cpu_ms_per_layer / base.cpu_ms_per_layer if base.cpu_ms_per_layer else 0.0
    )
    return m
