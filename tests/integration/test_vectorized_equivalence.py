"""Vectorized plans are observationally equivalent to scalar plans.

A fused chain runs its block-capable members array-at-a-time, and nothing
else may change: the expert sink sees the same result multiset as the
synchronous, plan-off oracle — whatever the edge batch size, and with
the sampling tracer on — and checkpoints written under the unfused
(scalar, one operator per node) plan and the fused plan restore into
each other (snapshots are keyed by logical node names, not by plan
shape).
"""

from __future__ import annotations

import time

import pytest

from repro.core import (
    DeployConfig,
    Strata,
    UseCaseConfig,
    build_use_case,
    calibrate_job,
    specimen_regions_px,
)
from repro.kvstore.memory import MemoryStore
from repro.recovery import ChaosInjector, CheckpointCoordinator, RecoveryCoordinator
from repro.recovery.storage import CheckpointStorage
from repro.spe import FusedOperator, PlanConfig
from tests.conftest import TEST_IMAGE_PX
from tests.recovery.test_crash_recovery import signature

CELL_EDGE = 5
WINDOW = 4

SCALAR_PLAN = PlanConfig(fusion=False, edge_batch_size=32)
VECTOR_PLAN = PlanConfig(fusion=True, edge_batch_size=32)


def _paced(records, delay):
    for record in records:
        time.sleep(delay)
        yield record


def _build(
    strata, layer_records, reference_images, test_job, delay=0.0, checkpointable=False
):
    config = UseCaseConfig(
        image_px=TEST_IMAGE_PX, cell_edge_px=CELL_EDGE, window_layers=WINDOW
    )
    calibrate_job(
        strata.kv, test_job.job_id, reference_images, CELL_EDGE,
        regions=specimen_regions_px(test_job.specimens, TEST_IMAGE_PX),
    )
    ot = _paced(layer_records, delay) if delay else iter(layer_records)
    pp = _paced(layer_records, delay) if delay else iter(layer_records)
    return build_use_case(
        ot, pp, config, strata=strata, checkpointable=checkpointable
    )


@pytest.fixture(scope="module")
def oracle_signature(layer_records, reference_images, test_job):
    """Sink output of the synchronous, plan-off engine: the baseline."""
    strata = Strata(engine_mode="sync")
    pipeline = _build(strata, layer_records, reference_images, test_job)
    strata.deploy()
    return signature(pipeline.sink.results)


def test_vectorized_plan_output_matches_scalar_plan(
    layer_records, reference_images, test_job, oracle_signature
):
    strata = Strata(engine_mode="threaded")
    pipeline = _build(strata, layer_records, reference_images, test_job)
    # guard against a vacuous pass: the compiled plan must actually
    # contain a vectorized chain before we compare outputs
    assert "mode=vectorized" in strata.explain(VECTOR_PLAN)
    strata.deploy(optimize=VECTOR_PLAN)
    assert signature(pipeline.sink.results) == oracle_signature


def test_vectorized_single_tuple_batches_match(
    layer_records, reference_images, test_job, oracle_signature
):
    """edge_batch_size=1: images reach the chain one at a time, as paced
    input does, and the specimens they fan out into still form blocks."""
    strata = Strata(engine_mode="threaded")
    pipeline = _build(strata, layer_records, reference_images, test_job)
    strata.start(DeployConfig(plan=PlanConfig(fusion=True, edge_batch_size=1)))
    _, nodes = strata._engine.runtime()
    strata.wait(timeout=60)
    assert signature(pipeline.sink.results) == oracle_signature
    block_rows = sum(
        n.operator.block_rows_in
        for n in nodes
        if n.kind == "operator" and isinstance(n.operator, FusedOperator)
    )
    assert block_rows > 0


def test_sampling_tracer_keeps_the_block_path(
    layer_records, reference_images, test_job, oracle_signature
):
    """``obs=True`` traces tuple by tuple; the fused chain still runs blocks."""
    strata = Strata(engine_mode="threaded", obs=True)
    assert strata.obs.config.trace_sample_every > 0
    pipeline = _build(strata, layer_records, reference_images, test_job)
    strata.deploy(DeployConfig(plan=True))
    assert signature(pipeline.sink.results) == oracle_signature
    block_rows = strata.metrics().filter("spe_block_rows_in_total").samples
    assert sum(s.value for s in block_rows) > 0


def test_fused_member_counts_follow_rows_through_blocks(
    layer_records, reference_images, test_job
):
    """Per-member tuple counts are exported for block and scalar members
    alike, and each member's output is the next member's input."""
    strata = Strata(engine_mode="threaded", obs=True)
    _build(strata, layer_records, reference_images, test_job)
    strata.deploy(DeployConfig(plan=True))
    members = {}
    for s in strata.metrics().samples:
        if s.label("fused_into") is not None:
            members.setdefault(s.label("operator"), {})[s.name] = s.value
    chain = ["partition:spec", "partition:cell", "detect:cellLabel"]
    assert set(chain) <= set(members)
    # the head sees every fused OT&pp tuple, one per layer
    assert members["partition:spec"]["spe_tuples_in_total"] == len(layer_records)
    for upstream, downstream in zip(chain, chain[1:]):
        assert (
            members[upstream]["spe_tuples_out_total"]
            == members[downstream]["spe_tuples_in_total"]
            > 0
        )


def _checkpointed_store(layer_records, reference_images, test_job, plan):
    """Run the use case to completion under ``plan``, checkpointing once."""
    store = MemoryStore()
    strata = Strata(engine_mode="threaded")
    _build(
        strata, layer_records, reference_images, test_job,
        delay=0.05, checkpointable=True,
    )
    coordinator = CheckpointCoordinator(store)
    strata.start(checkpointer=coordinator, optimize=plan)
    coordinator.trigger(timeout=15.0)
    strata.wait(timeout=60)
    return store


def test_checkpoint_manifests_identical_across_execution_modes(
    layer_records, reference_images, test_job
):
    """Snapshots are keyed by logical node names: a manifest written under
    the fused plan lists the same nodes and source offsets as one written
    under the unfused plan."""
    scalar = _checkpointed_store(
        layer_records, reference_images, test_job, SCALAR_PLAN
    )
    vectorized = _checkpointed_store(
        layer_records, reference_images, test_job, VECTOR_PLAN
    )
    manifest_scalar = CheckpointStorage(scalar).load_manifest(0)
    manifest_vectorized = CheckpointStorage(vectorized).load_manifest(0)
    assert sorted(manifest_scalar["nodes"]) == sorted(manifest_vectorized["nodes"])
    assert manifest_scalar["sources"] == manifest_vectorized["sources"]


def _crash_then_recover(
    layer_records, reference_images, test_job, crash_plan, recover_plan
):
    """Checkpoint + crash under one plan shape, recover under the other."""
    ckpt_store = MemoryStore()
    strata = Strata(engine_mode="threaded")
    pipeline = _build(
        strata, layer_records, reference_images, test_job,
        delay=0.35, checkpointable=True,
    )
    coordinator = CheckpointCoordinator(ckpt_store)
    strata.start(checkpointer=coordinator, optimize=crash_plan)
    coordinator.trigger(timeout=15.0)
    chaos = ChaosInjector(
        strata._engine, lambda: len(pipeline.sink.results) >= 6, timeout=60.0
    ).start()
    assert chaos.join(timeout=90.0), "chaos kill did not fire"
    partial = signature(pipeline.sink.results)

    strata2 = Strata(engine_mode="threaded")
    pipeline2 = _build(
        strata2, layer_records, reference_images, test_job, checkpointable=True
    )
    recovery = RecoveryCoordinator(ckpt_store)
    strata2.deploy(recover_from=recovery, optimize=recover_plan)
    assert recovery.report is not None
    assert recovery.report.sources_restored  # both collectors rewound
    return partial, signature(pipeline2.sink.results)


def test_crash_under_scalar_plan_recovers_under_vectorized(
    layer_records, reference_images, test_job, oracle_signature
):
    partial, recovered = _crash_then_recover(
        layer_records, reference_images, test_job, SCALAR_PLAN, VECTOR_PLAN
    )
    assert len(partial) < len(oracle_signature), "crash came too late to matter"
    # the vectorized recovery closes the gap exactly: everything the
    # oracle reported, nothing extra, no duplicates
    assert sorted(set(partial) | set(recovered)) == oracle_signature
    assert len(recovered) == len(set(recovered)), "duplicate results delivered"


def test_crash_under_vectorized_plan_recovers_under_scalar(
    layer_records, reference_images, test_job, oracle_signature
):
    partial, recovered = _crash_then_recover(
        layer_records, reference_images, test_job, VECTOR_PLAN, SCALAR_PLAN
    )
    assert len(partial) < len(oracle_signature), "crash came too late to matter"
    assert sorted(set(partial) | set(recovered)) == oracle_signature
    assert len(recovered) == len(set(recovered)), "duplicate results delivered"
