#!/usr/bin/env python3
"""Repros of the defects found while sizing the benchmark (see NOTES.md).

    python3 perfbench/defects.py paced-scalar
    python3 perfbench/defects.py exhausted-source-checkpoint
    python3 perfbench/defects.py shm-vs-tcp
    python3 perfbench/defects.py shm-burst-loss
    python3 perfbench/defects.py obs-tracer-scalar
    python3 perfbench/defects.py join-input-order
    python3 perfbench/defects.py gc-stalls
    python3 perfbench/defects.py shm-ring-leak

Each prints what it observed; none fails on a defect, they document one.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from repro.core import (  # noqa: E402
    DeployConfig,
    RecoveryConfig,
    Strata,
    build_use_case,
    calibrate_job,
)
from repro.dist import DistConfig  # noqa: E402
from repro.kvstore.lsm import LSMStore  # noqa: E402
from repro.recovery import CheckpointCoordinator  # noqa: E402
from stratabench.inputs import render_inputs, use_case_config  # noqa: E402
from stratabench.runner import ReceiptSink, deploy_once  # noqa: E402
from stratabench.schedule import FOLLOW, LEAD, Schedule  # noqa: E402
from stratabench.tracing import ISOLATE_CELLS, SpanLog, compose_traced  # noqa: E402
from stratabench.workloads import (  # noqa: E402
    CHECKPOINT_INTERVAL_S,
    DEFAULT_SEED,
    IMAGE_PX,
    WORKLOADS,
)

WORKDIR = ROOT / ".perfbench"
CACHE = WORKDIR / "reference"


def paced_scalar(seed: int) -> None:
    """Paced images never form a block: IsolateCells stays per tuple."""
    live = WORKLOADS["ot-live"]
    inputs = render_inputs(seed, live.cell_edge_px, CACHE)
    for label, wl in (
        ("paced 25/s", live),
        ("burst", dataclasses.replace(live, rate_layers_s=None)),
    ):
        log = SpanLog()
        deploy_once(wl, inputs, 100, WORKDIR, log)
        calls = log.rows(ISOLATE_CELLS, "call")
        blocks = log.rows(ISOLATE_CELLS, "block")
        print(f"{label:<11} 5 px cells: block rows {blocks}, per-tuple rows {calls}")


def exhausted_source_checkpoint(seed: int) -> None:
    """Only the OT collector paced: the parameter collector runs dry at
    once, and aligned barriers never pass the fuse join."""
    inputs = render_inputs(seed, 5, CACHE)
    records = inputs.records(100)
    directory = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        strata = Strata(store=LSMStore(directory))
        calibrate_job(
            strata.kv, inputs.job_id, inputs.reference_images, 5, regions=inputs.regions
        )
        schedule = Schedule(WORKLOADS["ot-live"].rate_layers_s)
        build_use_case(
            schedule.feed(records, LEAD), iter(records), use_case_config(5),
            strata=strata, sink=ReceiptSink(), checkpointable=True,
        )
        coordinator = CheckpointCoordinator(strata.kv, interval=CHECKPOINT_INTERVAL_S)
        schedule.on_start(coordinator.start_periodic)
        try:
            recovery = RecoveryConfig(checkpointer=coordinator)
            strata.deploy(DeployConfig(plan=True, recovery=recovery))
        finally:
            coordinator.stop()
        strata.kv.close()
        print(
            f"100 layers over {100 / schedule.rate:.0f} s, a checkpoint every "
            f"{CHECKPOINT_INTERVAL_S} s: {len(coordinator.completed_epochs)} epochs committed"
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def shm_vs_tcp(seed: int) -> None:
    """Coordinator and worker CPU per layer of ot-live-dist, per transport."""
    wl = WORKLOADS["ot-live-dist"]
    inputs = render_inputs(seed, wl.cell_edge_px, CACHE)
    for transport in ("tcp", "shm"):
        config = DistConfig(
            workers=2, transport=transport, shm_slab_bytes=IMAGE_PX * IMAGE_PX * 8 + (1 << 20)
        )
        d = deploy_once(wl, inputs, 150, WORKDIR, dist=config)
        print(
            f"{transport}: coordinator {d.cpu_self_s / d.sent * 1000:.1f} ms/layer, "
            f"workers {d.cpu_children_s / d.sent * 1000:.1f} ms/layer"
        )


def shm_burst_loss(seed: int) -> None:
    """BENCH_dist's shm settings, 240 layers handed over at once."""
    wl = dataclasses.replace(WORKLOADS["ot-live-dist"], rate_layers_s=None)
    inputs = render_inputs(seed, wl.cell_edge_px, CACHE)
    config = DistConfig(
        workers=2, transport="shm", shm_slots=32, produce_batch=8,
        shm_slab_bytes=IMAGE_PX * IMAGE_PX * 8 + (1 << 20),
    )
    d = deploy_once(wl, inputs, 240, WORKDIR, dist=config)
    status = d.report.extra["dist"]
    print(
        f"deploy() returned {len(d.receipts)} of {240 * len(inputs.specimens)} reports; "
        f"restarts {status['restarts']}, failure {status['failure']}"
    )


def shm_ring_leak(seed: int) -> None:
    """Every shm deploy leaves its slab ring mapped in the coordinator."""
    import gc
    import os

    wl = WORKLOADS["ot-replay-dist"]
    inputs = render_inputs(seed, wl.cell_edge_px, CACHE)
    for n in range(1, 6):
        deploy_once(wl, inputs, 10, WORKDIR)
        gc.collect()
        maps = [
            line.split()[0]
            for line in Path("/proc/self/maps").read_text().splitlines()
            if "/dev/shm/" in line
        ]
        mapped = sum(int(b, 16) - int(a, 16) for a, b in (m.split("-") for m in maps))
        print(
            f"after {n} deploy(s): {len(os.listdir('/proc/self/fd'))} open fds, "
            f"{len(maps)} shared-memory mappings, {mapped >> 20} MiB mapped"
        )


def obs_tracer_scalar(seed: int) -> None:
    """``Strata(obs=True)`` samples tuples for tracing, which takes every
    batch off the bulk path: the vectorized chain never sees a block."""
    from repro.obs import ObsConfig

    inputs = render_inputs(seed, 2, CACHE)
    records = inputs.records(120)
    for label, obs in (
        ("obs=None", None),
        ("obs=True", True),
        ("obs, no tracer", ObsConfig(trace_sample_every=0)),
    ):
        strata = Strata(obs=obs)
        calibrate_job(
            strata.kv, inputs.job_id, inputs.reference_images, 2, regions=inputs.regions
        )
        log = SpanLog()
        compose_traced(
            strata, iter(records), iter(records), use_case_config(2), ReceiptSink(), log
        )
        started = time.perf_counter()
        strata.deploy(DeployConfig(plan=True))
        wall = time.perf_counter() - started
        print(
            f"{label:<15} 120 layers, 2 px cells: {wall:.2f} s, IsolateCells rows "
            f"by block {log.rows(ISOLATE_CELLS, 'block')}, "
            f"per tuple {log.rows(ISOLATE_CELLS, 'call')}"
        )


def join_input_order(seed: int) -> None:
    """The fuse join waits on its first input (OT) for up to the 20 ms
    poll timeout while the parameters already sit on its second input."""
    inputs = render_inputs(seed, 5, CACHE)
    records = inputs.records(100)
    for first in ("OT image", "parameters"):
        schedule = Schedule(WORKLOADS["ot-live"].rate_layers_s)
        leader = schedule.feed(records, LEAD)
        follower = schedule.feed(records, FOLLOW)
        # the schedule hands its leading feed's record over first
        ot, pp = (leader, follower) if first == "OT image" else (follower, leader)
        strata = Strata()
        calibrate_job(
            strata.kv, inputs.job_id, inputs.reference_images, 5, regions=inputs.regions
        )
        sink = ReceiptSink()
        build_use_case(ot, pp, use_case_config(5), strata=strata, sink=sink)
        strata.deploy(DeployConfig(plan=True))
        last: dict[int, float] = {}
        for layer, _, _, t in sink.receipts:
            last[layer] = max(last.get(layer, 0.0), t)
        latencies = sorted(
            (t - schedule.due(layer - inputs.first_layer)) * 1000 for layer, t in last.items()
        )
        print(
            f"{first} first: layer latency p50 {latencies[len(latencies) // 2]:.1f} ms "
            f"over {len(latencies)} layers at 25/s"
        )


def gc_stalls(seed: int) -> None:
    """Full garbage collections stall a few percent of paced layers; with
    the start-up heap frozen out of the collector the stalls vanish."""
    import gc

    wl = WORKLOADS["ot-live"]
    inputs = render_inputs(seed, wl.cell_edge_px, CACHE)
    for label in ("default collector", "after gc.freeze()"):
        if label != "default collector":
            gc.collect()
            gc.freeze()
        d = deploy_once(wl, inputs, 300, WORKDIR)
        last: dict[int, float] = {}
        for layer, _, _, t in d.receipts:
            last[layer] = max(last.get(layer, 0.0), t)
        latencies = sorted(
            (t - d.due(layer - inputs.first_layer)) * 1000 for layer, t in last.items()
        )
        stalled = sum(1 for x in latencies if x > latencies[len(latencies) // 2] + 10)
        print(
            f"{label:<18} 300 layers: p50 {latencies[150]:.1f} ms, max "
            f"{latencies[-1]:.1f} ms, {stalled} layers over p50 + 10 ms"
        )
    gc.unfreeze()


REPROS = {
    "paced-scalar": paced_scalar,
    "exhausted-source-checkpoint": exhausted_source_checkpoint,
    "shm-vs-tcp": shm_vs_tcp,
    "shm-burst-loss": shm_burst_loss,
    "obs-tracer-scalar": obs_tracer_scalar,
    "join-input-order": join_input_order,
    "gc-stalls": gc_stalls,
    "shm-ring-leak": shm_ring_leak,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("defect", choices=list(REPROS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    WORKDIR.mkdir(exist_ok=True)
    REPROS[args.defect](args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
