"""The benchmark's workloads and the constants they share.

Every workload replays the paper's evaluation build (12 specimens, 500 px
OT images, seeded defects) through the public ``Strata`` API with the
README default deploy config (``DeployConfig(plan=True)``) and a window of
``L = 10`` layers. They differ in how images arrive, in the cell size and
in which runtime executes the pipeline, so that each one loads a
different layer of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

IMAGE_PX = 500
DEFECT_RATE_PER_STACK = 0.55
WINDOW_LAYERS = 10
#: the recoat gap: a layer's reports must all arrive within this time
RECOAT_DEADLINE_S = 3.0
LAYER_THICKNESS_MM = 0.04
#: consecutive layers rendered once per seed and cycled (see inputs.py)
DISTINCT_LAYERS = 40
#: load targets per cell edge, which the window is matched to: events per
#: layer over all specimens, and the mean squared number of points one
#: DBSCAN call clusters. Each is the median over seeds 1-14 of the median
#: 40-layer window of the build.
TARGET_LOAD: dict[int, tuple[float, float]] = {
    5: (5.13, 90.9),
    2: (79.5, 5596.0),
}
#: images per second of the open-loop schedule of the paced workloads
LIVE_RATE_LAYERS_S = 25.0
#: period of the aligned checkpoints of ``ot-live-checkpoint``: every few
#: inter-arrival gaps, but not a whole number of them (4.25), so that every
#: run sees the checkpoints at each phase of the layer schedule. At 0.16 s
#: a run keeps the phase it starts with; the tail latency then spread 25 %
#: over ten seeds, at 0.17 s 17 %.
CHECKPOINT_INTERVAL_S = 0.17
#: layers handed over at once in one ``ot-replay`` round
REPLAY_ROUND_LAYERS = 120
#: layers handed over at once in one ``ot-replay-dist`` round: the dist
#: runtime replays about 45 layers/s, so the last layer is back ~1.4 s
#: after the round starts, when every layer of it was due (NOTES.md)
DIST_REPLAY_ROUND_LAYERS = 60
#: empty set-ups (nothing sent) per run before measuring: the first ones
#: of a process pay one-time costs, and their times are dropped
SETUP_WARMUPS = 5
#: empty set-ups per run whose median is ``setup_s``. A set-up takes a few
#: milliseconds in-process (most of it ``calibrate_job``), tens under
#: dist, and single samples vary by ±30 % within a process, so the median
#: needs many
SETUP_SAMPLES = 31
#: the fewest rounds one run of a burst workload measures
REPLAY_MIN_ROUNDS = 3
DEFAULT_SEED = 7
#: measured seconds per run; BENCHMARK.json's run_seconds. A paced run
#: sends 500 layers, so its tail percentile (p98) falls inside the ~5 %
#: of layers that a full garbage collection stalls; at 300 layers (p96)
#: it sat on that edge and flipped between 31 and 51 ms from run to run.
DEFAULT_SECONDS = 20
#: a seed never used while sizing the benchmark; its digest is stored too
HELD_OUT_SEED = 11


@dataclass(frozen=True)
class Workload:
    """One way of feeding the evaluation build to the program."""

    name: str
    why: str
    cell_edge_px: int
    #: images per second on the open-loop schedule; None hands rounds of
    #: ``round_layers`` over at once
    rate_layers_s: float | None
    round_layers: int = REPLAY_ROUND_LAYERS
    dist: bool = False
    checkpoint: bool = False
    #: False: runs only when named with ``--workload``, and is not in
    #: BENCHMARK.json, because its figures are not steady enough to gate
    #: on (NOTES.md)
    gated: bool = True

    @property
    def paced(self) -> bool:
        return self.rate_layers_s is not None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ot-live",
            "paper deployment: images one at a time at 25/s, 5 px cells; "
            "loads the source edge, the scalar cell path of core.functions "
            "and spe transport",
            cell_edge_px=5,
            rate_layers_s=LIVE_RATE_LAYERS_S,
        ),
        Workload(
            "ot-replay",
            "Fig. 7 historic replay as fast as possible, 2 px cells; takes "
            "the vectorized block path and loads DBSCANCorrelator most",
            cell_edge_px=2,
            rate_layers_s=None,
        ),
        Workload(
            "ot-live-dist",
            "ot-live on the distributed runtime (pubsub, 2 shm workers); "
            "paced dist latency; runs only when named, not gated (NOTES.md)",
            cell_edge_px=5,
            rate_layers_s=LIVE_RATE_LAYERS_S,
            dist=True,
            gated=False,
        ),
        Workload(
            "ot-replay-dist",
            "Fig. 7 replay on the distributed runtime (pubsub, 2 shm workers), "
            "5 px cells; runs only when named, not gated (NOTES.md)",
            cell_edge_px=5,
            rate_layers_s=None,
            round_layers=DIST_REPLAY_ROUND_LAYERS,
            dist=True,
            gated=False,
        ),
        Workload(
            "ot-live-checkpoint",
            "ot-live with aligned checkpoints every 0.17 s into an LSM "
            "store; the only workload that loads recovery and kvstore",
            cell_edge_px=5,
            rate_layers_s=LIVE_RATE_LAYERS_S,
            checkpoint=True,
        ),
    )
}
