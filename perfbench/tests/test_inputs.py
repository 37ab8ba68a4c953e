"""The load generator: consecutive layer ids, a load-matched window."""

import json

import numpy as np
from stratabench import inputs as inputs_module
from stratabench.inputs import (
    STORED_DIR,
    choose_window,
    render_inputs,
    window_file,
    window_load,
)
from stratabench.workloads import DEFAULT_SEED, TARGET_LOAD


def test_records_cycle_the_window_with_consecutive_layer_ids(tmp_path):
    inputs = render_inputs(DEFAULT_SEED, 5, tmp_path, layers=12)
    records = inputs.records(2 * inputs.period + 5)
    assert [r.layer for r in records] == list(
        range(inputs.first_layer, inputs.first_layer + len(records))
    )
    for i, record in enumerate(records):
        assert record.image is inputs.window[i % inputs.period].image
    assert all(b.z_mm > a.z_mm for a, b in zip(records, records[1:]))


def test_choose_window_takes_the_load_closest_to_the_targets():
    rng = np.random.default_rng(3)
    # a calm build with one heavy stretch, as defects make them
    events = rng.poisson(0.4, size=(300, 12))
    events[100:160] += rng.poisson(3.0, size=(60, 12))

    targets = TARGET_LOAD[5]

    def distance(start):
        mean, squares = window_load(events, start, 40)
        return abs(mean / targets[0] - 1) + abs(squares / targets[1] - 1)

    start = choose_window(events, 40, targets)
    assert 0 <= start <= 300 - 40
    assert distance(start) == min(distance(s) for s in range(300 - 40 + 1))
    # neither the calm start nor the middle of the heavy stretch
    assert distance(start) < distance(0) and distance(start) < distance(110)


def test_stored_windows_match_a_fresh_scan(tmp_path, monkeypatch):
    stored = {
        edge: json.loads((STORED_DIR / window_file(DEFAULT_SEED, edge)).read_text())
        for edge in TARGET_LOAD
    }
    # hide the stored files so render_inputs scans the build again
    monkeypatch.setattr(inputs_module, "STORED_DIR", tmp_path / "none")
    fresh = render_inputs(DEFAULT_SEED, 5, tmp_path)
    assert fresh.first_layer == stored[5]["first_layer"]
    for edge, targets in TARGET_LOAD.items():
        cached = json.loads((tmp_path / window_file(DEFAULT_SEED, edge)).read_text())
        assert cached == stored[edge]
        assert abs(cached["events_per_layer"] / targets[0] - 1) < 0.15
        assert abs(cached["window_points_sq"] / targets[1] - 1) < 0.15
