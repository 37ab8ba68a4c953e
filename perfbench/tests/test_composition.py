"""Tracing must not change the program it measures."""

import pytest
from repro.core import DeployConfig, Strata, build_use_case
from stratabench.inputs import render_inputs, use_case_config
from stratabench.runner import ReceiptSink, deploy_once
from stratabench.tracing import ISOLATE_CELLS, SpanLog, compose_traced
from stratabench.workloads import DEFAULT_SEED, WORKLOADS


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return render_inputs(DEFAULT_SEED, 5, tmp_path_factory.mktemp("cache"), layers=12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_composition_explains_like_build_use_case(name, inputs):
    wl = WORKLOADS[name]
    config = use_case_config(wl.cell_edge_px)
    records = inputs.records(3)
    mode = "pubsub" if wl.dist else "direct"
    plain = Strata(connector_mode=mode)
    build_use_case(
        iter(records), iter(records), config, strata=plain, sink=ReceiptSink(),
        checkpointable=wl.checkpoint,
    )
    traced = Strata(connector_mode=mode)
    compose_traced(
        traced, iter(records), iter(records), config, ReceiptSink(), SpanLog(),
        checkpointable=wl.checkpoint,
    )
    deploy = DeployConfig(plan=True)
    assert traced.explain(deploy) == plain.explain(deploy)


def _keys(deployment):
    return sorted(
        (layer, spec, key) for layer, spec, key, _ in deployment.receipts
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_report_the_same(name, inputs, tmp_path):
    wl = WORKLOADS[name]
    count = 30
    untraced = deploy_once(wl, inputs, count, tmp_path)
    log = SpanLog()
    traced = deploy_once(wl, inputs, count, tmp_path, log)
    assert len(untraced.receipts) == count * len(inputs.specimens)
    assert _keys(traced) == _keys(untraced)
    assert log.spans, "the traced run recorded no spans"
    if not wl.dist:
        assert traced.cells_counted == untraced.cells_counted


def test_block_path_survives_tracing(inputs, tmp_path):
    """A burst takes the block path in the traced run too."""
    log = SpanLog()
    deploy_once(WORKLOADS["ot-replay"], inputs, 24, tmp_path, log)
    assert log.rows(ISOLATE_CELLS, "block") > 0
    assert log.rows(ISOLATE_CELLS, "call") == 0
