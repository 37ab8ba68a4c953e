"""The output check flags every kind of failed layer, and only those."""

import pytest
from stratabench.inputs import render_inputs
from stratabench.oracle import (
    STORED_DIR,
    Reference,
    canonical_index,
    check_reports,
    compute_reference,
)
from stratabench.workloads import DEFAULT_SEED, RECOAT_DEADLINE_S

SPECIMENS = frozenset({"S00", "S01"})
PERIOD, WINDOW = 3, 2


def _reference() -> Reference:
    # keys differ per canonical layer, so a wrong mapping shows up
    reports = {
        i: {"S00": (i, 1, 2), "S01": (i, 0, 0)} for i in range(PERIOD + WINDOW - 1)
    }
    return Reference(
        seed=0, cell_edge_px=5, period=PERIOD, window=WINDOW,
        cells_per_layer=10, reports=reports,
    )


def _due(index: int) -> float:
    return 100.0 + index * 0.04


def _clean(sent: int) -> list[tuple[int, str, tuple, float]]:
    reference = _reference()
    return [
        (i, spec, key, _due(i) + 0.01)
        for i in range(sent)
        for spec, key in sorted(reference.expected(i).items())
    ]


def _check(receipts, sent=8):
    return check_reports(
        receipts, sent, _due, _reference(), SPECIMENS, RECOAT_DEADLINE_S
    )


def test_clean_receipts_pass():
    check = _check(_clean(8))
    assert check.correct
    assert check.failed == {}
    assert len(check.latencies_s) == 8
    assert all(abs(lat - 0.01) < 1e-9 for lat in check.latencies_s)


def test_dropped_report_fails_its_layer():
    receipts = [r for r in _clean(8) if not (r[0] == 5 and r[1] == "S01")]
    check = _check(receipts)
    assert list(check.failed) == [5]
    assert "missing" in check.failed[5]


def test_layer_without_reports_fails():
    check = _check([r for r in _clean(8) if r[0] != 6])
    assert list(check.failed) == [6]


def test_duplicated_report_fails_its_layer():
    receipts = _clean(8)
    receipts.append(receipts[7])
    check = _check(receipts)
    assert list(check.failed) == [receipts[7][0]]
    assert "duplicate" in check.failed[receipts[7][0]]


@pytest.mark.parametrize("field", [0, 1, 2])
def test_wrong_count_fails_its_layer(field):
    receipts = _clean(8)
    layer, spec, key, t = receipts[9]
    wrong = list(key)
    wrong[field] += 1
    receipts[9] = (layer, spec, tuple(wrong), t)
    check = _check(receipts)
    assert list(check.failed) == [layer]
    assert "differs" in check.failed[layer]


def test_report_later_than_the_recoat_deadline_fails():
    receipts = _clean(8)
    layer, spec, key, _ = receipts[4]
    receipts[4] = (layer, spec, key, _due(layer) + RECOAT_DEADLINE_S + 0.001)
    check = _check(receipts)
    assert list(check.failed) == [layer]
    assert "deadline" in check.failed[layer]


def test_report_for_a_layer_never_sent_is_stray():
    receipts = _clean(8) + [(8, "S00", (0, 0, 0), _due(8))]
    check = _check(receipts)
    assert check.failed == {}
    assert check.stray == 1
    assert not check.correct


def test_canonical_index_maps_into_the_reference():
    for index in range(200):
        canonical = canonical_index(index, PERIOD, WINDOW)
        assert 0 <= canonical < PERIOD + WINDOW - 1
        assert canonical % PERIOD == index % PERIOD


def test_replayed_reports_repeat_with_the_period(tmp_path):
    """The premise of a one-cycle reference, checked on the real pipeline:
    every report past the first cycle repeats its canonical layer's."""
    inputs = render_inputs(DEFAULT_SEED, 5, tmp_path, layers=12)
    period, window = inputs.period, 10
    full = compute_reference(inputs, count=3 * period)
    short = compute_reference(inputs)
    for index in range(3 * period):
        expected = short.reports[canonical_index(index, period, window)]
        assert full.reports[index] == expected, index


def test_stored_digest_matches_a_fresh_oracle_run(tmp_path):
    inputs = render_inputs(DEFAULT_SEED, 5, tmp_path)
    fresh = compute_reference(inputs)
    stored = (STORED_DIR / Reference.file_name(DEFAULT_SEED, 5, inputs.period)).read_text()
    assert Reference.from_json(stored) == fresh


def test_run_with_no_reports_fails_but_still_has_metrics():
    """Nothing received: every layer fails, and the metrics are NaN (printed
    as 0 in the result line) instead of a crash before the result line."""
    import math
    from types import SimpleNamespace

    from stratabench.runner import Evaluation, Phase, end_to_end

    check = _check([])
    assert not check.correct and len(check.failed) == 8
    ev = Evaluation(
        checks=[check], problems=[], latencies_s=[], throughputs_kcells_s=[],
        cpu_ms_per_layer=1.0,
    )
    nothing = SimpleNamespace(lag_max_s=0.0, report=SimpleNamespace(extra={}))
    phase = Phase(setups_s=[0.01], deployments=[nothing])
    metrics, qualifiers = end_to_end(phase, ev, rss_mb=50.0)
    assert not ev.correct and ev.failed == 8
    assert math.isnan(metrics["layer_latency_p50_ms"])
    assert math.isnan(metrics["layer_latency_tail_ms"])
    assert math.isnan(metrics["throughput_kcells_s"])
    assert qualifiers["layers_failed_ratio"] == 1.0
