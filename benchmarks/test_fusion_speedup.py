"""Plan-compiler speedup — fig7-style throughput per optimizer pass.

Replays the evaluation build "as fast as possible" (offered rate far above
capacity) through the Alg. 1 pipeline at a fine cell size, where per-cell
tuple transport — queue locks, condvar wake-ups, thread hops — dominates
the analytics. The ablation isolates each pass of
:mod:`repro.spe.plan`: operator fusion (whose block-capable members run
array-at-a-time), batched edge transport, the two combined
(``vectorized``), and keyed replication on top.

Gates: the fused, batched plan must sustain at least 10x the throughput
of the unoptimized threaded plan and 5x that of the unfused plan at the
same batch size, with outputs identical to the synchronous, plan-off
engine. Results land in ``BENCH_fusion.json`` at the repository root so
CI can archive them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import EvaluationWorkload, format_table, run_throughput_experiment
from repro.core import UseCaseConfig
from repro.spe import PlanConfig

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_fusion.json"

#: offered OT images/s — far above capacity, so runs measure saturation.
#: The vectorized plan sustains thousands of images/s, so the offered rate
#: must sit well above that for every variant to stay capacity-bound.
OFFERED_RATE = 2048.0

VARIANTS: dict[str, PlanConfig | None] = {
    "baseline": None,
    "fusion": PlanConfig(fusion=True, edge_batch_size=1),
    "batching": PlanConfig(fusion=False, edge_batch_size=32),
    "vectorized": PlanConfig(fusion=True, edge_batch_size=32),
    "vectorized+replication": PlanConfig(
        fusion=True, edge_batch_size=32, parallelism=4
    ),
}

_results: dict[str, object] = {}


def _total_images() -> int:
    # 48 images keep one-time costs (thread spawn, first-layer threshold
    # loads) under a tenth of the vectorized variant's wall time, so the
    # speedup ratios measure steady-state throughput, not startup.
    return int(os.environ.get("REPRO_BENCH_FUSION_IMAGES", 48))


def _rounds() -> int:
    return int(os.environ.get("REPRO_BENCH_FUSION_ROUNDS", 2))


@pytest.fixture(scope="module")
def transport_workload(profile):
    """Evaluation build with sparse defects: transport-bound by design.

    The optimizer ablation measures *edge transport* (queue locks, condvar
    wake-ups, thread hops), so the workload keeps the DBSCAN correlation
    step off the critical path — dense defect clusters would bury the
    transport signal under analytics compute common to every variant.
    """
    return EvaluationWorkload(
        image_px=profile.image_px,
        layers=profile.layers,
        seed=7,
        defect_rate_per_stack=0.02,
    )


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_fusion_speedup_variant(benchmark, profile, transport_workload, variant):
    config = UseCaseConfig(
        image_px=profile.image_px,
        cell_edge_px=profile.scale_cell_edge(10),  # fine cells: transport-bound
        window_layers=10,
    )
    runs: list = []

    def run_once():
        run = run_throughput_experiment(
            transport_workload,
            config,
            offered_images_s=OFFERED_RATE,
            total_images=_total_images(),
            optimize=VARIANTS[variant],
        )
        runs.append(run)
        return run

    benchmark.pedantic(run_once, rounds=_rounds(), iterations=1)
    # best-of-N: saturation throughput is a capacity, so scheduling noise
    # only ever subtracts from it
    run = max(runs, key=lambda r: r.achieved_images_s)
    _results[variant] = run
    benchmark.extra_info.update(
        variant=variant,
        achieved_images_s=round(run.achieved_images_s, 2),
        kcells_s=round(run.kcells_per_second, 1),
        mean_latency_ms=round(run.mean_latency_s * 1e3, 2),
    )


def test_fusion_speedup_report(benchmark, profile):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only step
    assert len(_results) == len(VARIANTS)
    rows = [
        [
            name,
            round(run.achieved_images_s, 2),
            round(run.kcells_per_second, 1),
            round(run.mean_latency_s * 1e3, 1),
            round(run.p99_latency_s * 1e3, 1),
        ]
        for name, run in _results.items()
    ]
    print("\n=== Plan compiler: throughput & latency per optimizer pass ===")
    print(
        format_table(
            ["variant", "achieved_img_s", "kcells_s", "mean_lat_ms", "p99_lat_ms"],
            rows,
        )
    )

    baseline = _results["baseline"]
    unfused = _results["batching"]
    vectorized = _results["vectorized"]
    vec_speedup = vectorized.kcells_per_second / baseline.kcells_per_second
    vec_over_unfused = vectorized.kcells_per_second / unfused.kcells_per_second
    divergence = _plan_divergence(profile)
    payload = {
        "profile": profile.name,
        "offered_images_s": OFFERED_RATE,
        "total_images": _total_images(),
        "cell_edge_px": profile.scale_cell_edge(10),
        "variants": {
            name: {
                "plan": plan.describe() if plan is not None else "off",
                "achieved_images_s": run.achieved_images_s,
                "kcells_per_second": run.kcells_per_second,
                "mean_latency_s": run.mean_latency_s,
                "p99_latency_s": run.p99_latency_s,
                "cells_evaluated": run.cells_evaluated,
                "wall_seconds": run.wall_seconds,
            }
            for (name, plan), run in zip(VARIANTS.items(), _results.values())
        },
        "vectorized_speedup": vec_speedup,
        "vectorized_over_unfused_batch": vec_over_unfused,
        "divergence": divergence,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"speedup (vectorized over baseline): {vec_speedup:.2f}x, "
        f"over unfused batching: {vec_over_unfused:.2f}x, "
        f"divergence: {divergence} -> {BENCH_JSON}"
    )

    # every variant evaluates the identical workload
    assert all(
        run.cells_evaluated == baseline.cells_evaluated for run in _results.values()
    )
    # fusion + batched transport + array-at-a-time kernels in the chain
    assert vec_speedup >= 10.0, (
        f"vectorized reached only {vec_speedup:.2f}x over the unoptimized plan"
    )
    assert vec_over_unfused >= 5.0, (
        f"vectorized reached only {vec_over_unfused:.2f}x over unfused batching"
    )
    assert divergence == 0, (
        f"vectorized plan diverged from the sync oracle on {divergence} results"
    )


def _plan_divergence(profile) -> int:
    """Count sink results where the vectorized plan differs from the oracle.

    A short deterministic replay runs through the identical workload under
    the synchronous, plan-off engine and the fused, batched plan; the
    result multisets must match exactly (the merge order of specimens
    within a layer is scheduler-dependent, the *set* of reports is not).
    """
    from repro.spe.sink import CollectingSink

    workload = EvaluationWorkload(
        image_px=profile.image_px, layers=6, seed=11, defect_rate_per_stack=0.4
    )
    config = UseCaseConfig(
        image_px=profile.image_px,
        cell_edge_px=profile.scale_cell_edge(10),
        window_layers=3,
    )
    from repro.bench.harness import _prepare
    from repro.core.api import Strata
    from repro.core.usecase import build_use_case

    outputs = []
    for engine_mode, plan in (
        ("sync", None),
        ("threaded", PlanConfig(fusion=True, edge_batch_size=32)),
    ):
        strata = Strata(engine_mode=engine_mode)
        sink = CollectingSink("expert")
        records = list(workload.replay(6))
        build_use_case(
            iter(records), iter(records), config, strata=strata, sink=sink
        )
        _prepare(workload, config, strata)
        strata.deploy(plan)
        outputs.append(
            sorted(repr(sorted(t.payload.items())) for t in sink.results)
        )
    oracle, vectorized = outputs
    if len(oracle) != len(vectorized):
        return abs(len(oracle) - len(vectorized))
    return sum(1 for a, b in zip(oracle, vectorized) if a != b)
