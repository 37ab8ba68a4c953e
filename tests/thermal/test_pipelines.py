"""End-to-end thermal workloads: forecast + reconstruction pipelines.

Deploys both pipelines on a threaded Strata and checks the contract the
benchmarks and examples rely on: every layer yields one result per
region (forecast) or one per plate (reconstruction), the plan compiler
picks the vectorized mode for the estimator/feature chains, unfused
(scalar) and fused (vectorized) plans emit identical results, the power spike raises
predictive QoS alerts ahead of the breach, and the fleet runner treats
both workloads as deterministic first-class kinds.
"""

from __future__ import annotations

import pytest

from repro.core import Strata
from repro.obs.watchdog import PREDICTIVE_CATEGORY, QoSWatchdog
from repro.spe import PlanConfig
from repro.thermal import (
    ThermalPipelineConfig,
    build_forecast_pipeline,
    build_reconstruction_pipeline,
    calibrate_thermal_job,
    resolve_overheat_threshold,
)

from .conftest import small_build_config

REGIONS = 4


def _run_forecast(build, *, watchdog=None, plan_config=None, threshold=None):
    config = ThermalPipelineConfig()
    config.overheat_threshold = threshold
    strata = Strata(engine_mode="threaded")
    pipeline = build_forecast_pipeline(
        iter(build.records),
        iter(build.records),
        build.config,
        config,
        strata=strata,
        watchdog=watchdog,
    )
    calibrate_thermal_job(strata.kv, build, laser=False)
    from repro.core import DeployConfig

    strata.deploy(DeployConfig(plan=plan_config) if plan_config else None)
    return pipeline


def _forecast_keys(results):
    return sorted(
        (
            t.job,
            t.layer,
            t.specimen,
            t.payload["forecast_mean"],
            t.payload["forecast_max"],
            t.payload["filtered_mean"],
            t.payload["innovation_rmse"],
            t.payload["realized_rmse"],
        )
        for t in results
    )


class TestForecastPipeline:
    def test_one_result_per_layer_and_region(self, small_build):
        pipeline = _run_forecast(small_build)
        results = pipeline.sink.results
        assert len(results) == small_build.config.layers * REGIONS
        layers = {t.layer for t in results}
        assert layers == set(range(small_build.config.layers))
        for t in results:
            payload = t.payload
            assert payload["forecast"].shape == (8, 8)
            assert payload["dropped_cells"] == 0  # no dropout in this build
            if t.layer == 0:
                assert payload["realized_rmse"] == -1.0  # no prior forecast
            else:
                assert payload["realized_rmse"] >= 0.0

    def test_forecast_beats_sensor_noise(self, small_build):
        """One-layer-ahead forecasts track the measurements within noise."""
        pipeline = _run_forecast(small_build)
        realized = [
            t.payload["realized_rmse"]
            for t in pipeline.sink.results
            if t.payload["realized_rmse"] >= 0
        ]
        sensor_std = small_build.config.thermal.sensor_var**0.5
        assert sum(realized) / len(realized) < 2.0 * sensor_std

    def test_estimator_chain_compiles_vectorized(self, small_build):
        pipeline = _run_forecast(small_build)
        explain = str(pipeline.strata.explain())
        assert "mode=vectorized" in explain
        assert "detect:forecast" in explain

    def test_scalar_and_vectorized_plans_are_identical(self, small_build):
        scalar = _run_forecast(small_build, plan_config=PlanConfig(fusion=False))
        vectorized = _run_forecast(small_build, plan_config=PlanConfig())
        assert "mode=vectorized" not in str(
            scalar.strata.explain(PlanConfig(fusion=False))
        )
        assert _forecast_keys(scalar.sink.results) == _forecast_keys(
            vectorized.sink.results
        )


class TestPredictiveAlerts:
    def test_spike_raises_alerts_before_the_breach(self, spike_build):
        dog = QoSWatchdog()
        threshold = resolve_overheat_threshold(
            spike_build, ThermalPipelineConfig()
        )
        pipeline = _run_forecast(spike_build, watchdog=dog, threshold=threshold)
        assert len(pipeline.sink.results) == spike_build.config.layers * REGIONS

        alerts = dog.predictive_alerts()
        assert alerts, "the seeded power spike must raise predictive alerts"
        spike_start, spike_end = spike_build.config.spike_layers
        for alert in alerts:
            assert alert.category == PREDICTIVE_CATEGORY
            assert alert.lead_time_s == ThermalPipelineConfig().lead_time_s
            assert alert.predicted_value > alert.threshold == threshold
            # alerts land at/after the first spiked layer, and the filter's
            # thermal memory decays within a few layers after the spike ends
            assert spike_start <= alert.layer <= spike_end + 2
        # the first spiked layer is forecast from the previous layer's
        # plan -- the alert arrives before any spiked heat is deposited
        assert min(alert.layer for alert in alerts) == spike_start

    def test_quiet_without_threshold(self, spike_build):
        dog = QoSWatchdog()
        _run_forecast(spike_build, watchdog=dog, threshold=None)
        assert dog.predictive_alerts() == []


class TestReconstructionPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.am.scanpath import synthesize_thermal_build

        build = synthesize_thermal_build(
            small_build_config(job_id="reconstruct-test", drift_pct=0.03)
        )
        strata = Strata(engine_mode="threaded")
        pipeline = build_reconstruction_pipeline(
            iter(build.records), build.config, strata=strata
        )
        calibrate_thermal_job(strata.kv, build)
        strata.deploy()
        pipeline.build = build
        return pipeline

    def test_one_estimate_per_layer(self, pipeline):
        results = pipeline.sink.results
        assert {t.layer for t in results} == set(
            range(pipeline.build.config.layers)
        )
        for t in results:
            assert t.payload["power_w_hat"] > 0
            assert t.payload["speed_mm_s_hat"] > 0

    def test_recovers_hidden_actual_parameters(self, pipeline):
        actual = {
            r.layer: (r.actual_power_w, r.actual_speed_mm_s)
            for r in pipeline.build.records
        }
        p_errs, v_errs = [], []
        for t in pipeline.sink.results:
            power, speed = actual[t.layer]
            p_errs.append(abs(t.payload["power_w_hat"] - power) / power)
            v_errs.append(abs(t.payload["speed_mm_s_hat"] - speed) / speed)
        assert sum(p_errs) / len(p_errs) < 0.08
        assert sum(v_errs) / len(v_errs) < 0.12

    def test_feature_chain_compiles_vectorized(self, pipeline):
        assert "mode=vectorized" in str(pipeline.strata.explain())


class TestFleetWorkloads:
    def test_thermal_kinds_are_registered(self):
        from repro.fleet.runner import WORKLOAD_KINDS, resolve_workload

        assert "forecast" in WORKLOAD_KINDS and "reconstruct" in WORKLOAD_KINDS
        with pytest.raises(ValueError):
            resolve_workload({"kind": "annealing"})

    @pytest.mark.parametrize("kind", ["forecast", "reconstruct"])
    def test_run_standalone_is_deterministic(self, kind):
        from repro.fleet.runner import run_standalone

        spec = {
            "kind": kind,
            "name": f"{kind}-oracle",
            "layers": 4,
            "image_px": 48,
            "window": 4,
            "seed": 7,
        }
        first = run_standalone(dict(spec))
        second = run_standalone(dict(spec))
        assert first and sorted(map(tuple, first)) == sorted(map(tuple, second))
