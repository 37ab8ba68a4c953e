"""Adaptive re-planning smoke benchmark (BENCH_replan.json).

A skew-injection leg drives the runtime plan-mutation engine end to end:
a paced replay turns hot mid-stream — every tuple after the skew point
lands on one region key and its scrubbing cost jumps — so the fused
chain (5 ms serial service) falls behind the 3 ms offered rate. The cost
model must emit a runtime ``Unfuse``; the regained pipeline parallelism
(2.5 ms/stage in parallel) has to bring post-adapt throughput back to at
least what the static plan sustains before the skew.

The leg replays the identical records through a static plan and gates
divergence 0, mirroring the other benchmark divergence checks. Results
land in ``BENCH_replan.json`` at the repo root for the CI artifact.
"""

import json
import os
import time
from pathlib import Path

from repro.bench import format_table
from repro.core import DeployConfig, Strata
from repro.elastic import ElasticConfig, ReplanConfig
from repro.spe import CollectingSink
from repro.spe.source import Source
from repro.spe.tuples import StreamTuple

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_replan.json"

#: hot-key leg sizing: offered period, per-stage hot cost, record count.
#: 2 * WORK_S > SRC_DELAY > WORK_S, so the fused chain falls behind the
#: source while a single unfused stage still keeps pace with it.
N_RECORDS = int(os.environ.get("REPRO_BENCH_REPLAN_RECORDS", "600"))
SRC_DELAY = float(os.environ.get("REPRO_BENCH_REPLAN_SRC_MS", "3.0")) / 1e3
WORK_S = float(os.environ.get("REPRO_BENCH_REPLAN_WORK_MS", "2.5")) / 1e3
SKEW_AT = N_RECORDS // 3

HOT_KEY = "s0"


class PacedSource(Source):
    """Paced replay that timestamps the onset of the skew phase."""

    def __init__(self, name, records, delay):
        super().__init__(name)
        self._records = list(records)
        self._delay = delay
        self.skew_onset = None

    def __iter__(self):
        for t in self._records:
            if self._delay:
                time.sleep(self._delay)
            if self.skew_onset is None and t.payload.get("hot"):
                self.skew_onset = time.time()
            t.ingest_time = time.monotonic()
            yield t


class TimedSink(CollectingSink):
    """Collects results with their delivery wall time."""

    def __init__(self, name):
        super().__init__(name)
        self.deliveries = []

    def consume(self, t):
        self.deliveries.append((time.time(), t.payload["v"]))
        super().consume(t)


def skew_records():
    """One hot region key: every post-skew tuple lands on ``s0``."""
    out = []
    for i in range(N_RECORDS):
        hot = i >= SKEW_AT
        out.append(
            StreamTuple(
                tau=float(i), job="j", layer=i // 8,
                specimen=HOT_KEY if hot else f"s{i % 3}", portion="p0",
                payload={"v": i, "hot": hot},
            )
        )
    return out


def scrub(t):
    if t.payload.get("hot"):
        time.sleep(WORK_S)
    return [t.derive(payload={**t.payload, "a": t.payload["v"] + 1})]


def enrich(t):
    if t.payload.get("hot"):
        time.sleep(WORK_S)
    return [t.derive(payload={**t.payload, "b": t.payload["v"] * 2})]


def build(records, delay, first, second):
    """source -> fused two-stage chain -> sink (the adaptable plan)."""
    strata = Strata(engine_mode="threaded")
    source = PacedSource("src", records, delay)
    sink = TimedSink("out")
    (
        strata.add_source(source, "raw")
        .detect_event("m1", first)
        .detect_event("m2", second, replicable=False)
        .deliver(sink)
    )
    return strata, source, sink


def result_keys(sink):
    return sorted(
        tuple(sorted((k, v) for k, v in t.payload.items() if k != "hot"))
        for t in sink.results
    )


def divergence(reference, candidate):
    mismatched = sum(1 for a, b in zip(reference, candidate) if a != b)
    return mismatched + abs(len(reference) - len(candidate))


def throughput(deliveries, start, stop):
    inside = [w for w, _ in deliveries if start <= w <= stop]
    span = max(inside) - min(inside) if len(inside) > 1 else 0.0
    return (len(inside) - 1) / span if span > 0 else 0.0


def first_event(controller, kinds):
    for event in controller.events:
        if event["kind"] in kinds:
            return event
    return None


def test_replan_adaptation_smoke(benchmark, capsys):
    # -- hot-key leg: static reference run (same records, same pacing) -----
    strata, _, static_sink = build(skew_records(), SRC_DELAY, scrub, enrich)
    strata.start(DeployConfig(plan=True))
    strata.wait(timeout=300)
    static_ref = result_keys(static_sink)
    pre = [w for w, v in static_sink.deliveries if v < SKEW_AT]
    static_pre_tput = (len(pre) - 1) / (max(pre) - min(pre))

    # -- hot-key leg: adaptive run under the cost model --------------------
    elastic = ElasticConfig(
        tick_s=0.15, cooldown_s=0.0,
        replan=ReplanConfig(
            cooldown_s=0.2, streak_ticks=2,
            # batched edges keep queue_fill tiny, so the unfuse rule is
            # gated on busy_fraction here (same reasoning as the tests)
            unfuse_queue_fill=0.0, refuse_queue_fill=0.0,
            unfuse_busy=0.5, refuse_busy=0.1,
        ),
    )
    state = {}

    def run_once():
        strata, source, sink = build(
            skew_records(), SRC_DELAY, scrub, enrich
        )
        strata.start(DeployConfig(plan=True, elastic=elastic))
        controller = strata.elastic
        strata.wait(timeout=300)
        state.update(
            source=source, sink=sink, controller=controller,
            summary=controller.summary(),
        )

    benchmark.pedantic(run_once, rounds=1, iterations=1)

    controller = state["controller"]
    actions = state["summary"]["actions"]
    adapt = first_event(controller, {"unfuse"})
    assert adapt is not None, f"no runtime adaptation fired: {actions}"
    assert actions.get("unfuse", 0) >= 1
    time_to_adapt = adapt["wall_time"] - state["source"].skew_onset
    assert time_to_adapt > 0

    last_wall = max(w for w, _ in state["sink"].deliveries)
    post_tput = throughput(
        state["sink"].deliveries, adapt["wall_time"], last_wall
    )
    skew_divergence = divergence(static_ref, result_keys(state["sink"]))
    assert skew_divergence == 0
    # the unfused chain must at least restore the pre-skew static rate
    assert post_tput >= static_pre_tput, (
        f"post-adapt {post_tput:.0f}/s < pre-skew static {static_pre_tput:.0f}/s"
    )

    payload = {
        "benchmark": "replan_adaptation",
        "config": {
            "records": N_RECORDS,
            "skew_at": SKEW_AT,
            "source_period_ms": SRC_DELAY * 1e3,
            "hot_stage_cost_ms": WORK_S * 1e3,
        },
        "hot_key": {
            "time_to_adapt_s": round(time_to_adapt, 4),
            "actions": actions,
            "first_action": adapt["kind"],
            "pre_skew_static_throughput": round(static_pre_tput, 2),
            "post_adapt_throughput": round(post_tput, 2),
            "speedup_vs_pre_skew_static": round(
                post_tput / static_pre_tput, 3
            ),
            "divergence": skew_divergence,
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(format_table(
            ["leg", "first action", "time to adapt (s)",
             "throughput (t/s)", "divergence"],
            [
                ["hot-key", adapt["kind"], time_to_adapt, post_tput,
                 skew_divergence],
            ],
        ))
        print(
            f"pre-skew static: {static_pre_tput:.0f} t/s, "
            f"post-adapt: {post_tput:.0f} t/s -> {BENCH_JSON}"
        )
