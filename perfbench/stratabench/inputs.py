"""Input generation: a window of the evaluation build, rendered once per seed.

The seed draws the build (``EvaluationWorkload``: defects, their shapes
and the sensor noise). How much work a layer carries depends on that
draw: over the first 40 layers, events per layer differ fourfold between
seeds, and DBSCAN cost with them. So that every seed carries the same
load, the benchmark does not send the build's first layers. It scans the
whole build once per seed, counting each layer's events per specimen at
every workload's cell edge with the program's own isolation and labeling
functions, and picks for each cell edge the ``DISTINCT_LAYERS``
consecutive layers whose load is closest to fixed targets
(:data:`~stratabench.workloads.TARGET_LOAD`). Those layers are rendered
once and cycled with consecutive layer ids, as
``EvaluationWorkload.replay`` cycles the first ones.

This is the load generator. Its cost is recorded as
``am.render_ms_per_layer`` and kept out of every timed window.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.am.dataset import BuildDataset, LayerRecord
from repro.am.ot import OTImageRenderer
from repro.bench import EvaluationWorkload
from repro.core import (
    IsolateSpecimens,
    LabelSpecimenCells,
    UseCaseConfig,
    calibrate_job,
    specimen_regions_px,
)
from repro.kvstore.memory import MemoryStore
from repro.spe.tuples import StreamTuple

from .workloads import (
    DEFECT_RATE_PER_STACK,
    DISTINCT_LAYERS,
    IMAGE_PX,
    LAYER_THICKNESS_MM,
    TARGET_LOAD,
    WINDOW_LAYERS,
)

STORED_DIR = Path(__file__).resolve().parents[1] / "reference"


@dataclass
class Inputs:
    """The rendered window of one seed plus the calibration images."""

    seed: int
    #: the cell edge whose load the window matches
    cell_edge_px: int
    job_id: str
    first_layer: int
    window: list[LayerRecord]
    reference_images: list
    regions: list[tuple[int, int, int, int]]
    render_s: float

    @property
    def period(self) -> int:
        """Distinct layers; ``records`` repeats them with this period."""
        return len(self.window)

    @property
    def images_rendered(self) -> int:
        return self.period + len(self.reference_images)

    @property
    def specimens(self) -> frozenset[str]:
        """Specimen ids every layer must report on."""
        return frozenset(self.window[0].parameters["specimen_map"])

    def records(self, count: int) -> list[LayerRecord]:
        """``count`` layers in send order; record ``i`` has layer id
        ``first_layer + i``, so event time and z keep rising."""
        out = []
        for i in range(count):
            rep, index = divmod(i, self.period)
            record = self.window[index]
            out.append(
                record
                if rep == 0
                else replace(
                    record,
                    layer=record.layer + rep * self.period,
                    z_mm=record.z_mm + rep * self.period * LAYER_THICKNESS_MM,
                )
            )
        return out


def layer_events(
    dataset: BuildDataset, reference_images: list, regions: list, job_id: str
) -> dict[int, np.ndarray]:
    """Events per (layer, specimen) of the whole build, per target cell edge.

    Uses the program's vectorized detect function over the program's
    specimen isolation, so counts equal what ``detect_event`` emits.
    """
    labels = {}
    for edge in TARGET_LOAD:
        store = MemoryStore()
        calibrate_job(store, job_id, reference_images, edge, regions=regions)
        labels[edge] = LabelSpecimenCells(store, edge)
    isolate = IsolateSpecimens(IMAGE_PX)
    counts: dict[int, list] = {edge: [] for edge in TARGET_LOAD}
    for layer in range(len(dataset)):
        record = dataset.layer_record(layer)
        fused = StreamTuple(
            float(layer), job_id, layer, {"image": record.image, **record.parameters}
        )
        specimens = sorted(isolate(fused), key=lambda t: t.specimen)
        for edge, label in labels.items():
            counts[edge].append([len(label(t)) for t in specimens])
    return {edge: np.asarray(c, dtype=np.int64) for edge, c in counts.items()}


def window_load(events: np.ndarray, start: int, period: int) -> tuple[float, float]:
    """(events per layer, mean squared points per DBSCAN call) of the
    window replayed cyclically; a call sees its specimen's last L layers."""
    window = events[start : start + period]
    points = sum(np.roll(window, shift, axis=0) for shift in range(WINDOW_LAYERS))
    return float(window.sum(axis=1).mean()), float((points.astype(float) ** 2).mean())


def choose_window(events: np.ndarray, period: int, targets: tuple[float, float]) -> int:
    """First layer of the window whose load is closest to ``targets``."""

    def distance(start: int) -> float:
        load = window_load(events, start, period)
        return sum(abs(value / target - 1) for value, target in zip(load, targets))

    return min(range(len(events) - period + 1), key=distance)


def window_file(seed: int, cell_edge_px: int) -> str:
    return f"window-seed{seed}-edge{cell_edge_px}-period{DISTINCT_LAYERS}.json"


def _first_layer(
    seed: int, cell_edge_px: int, dataset, reference_images, regions, job_id, cache_dir
) -> int:
    for directory in (STORED_DIR, cache_dir):
        path = directory / window_file(seed, cell_edge_px)
        if path.is_file():
            return int(json.loads(path.read_text())["first_layer"])
    cache_dir.mkdir(parents=True, exist_ok=True)
    for edge, events in layer_events(dataset, reference_images, regions, job_id).items():
        first = choose_window(events, DISTINCT_LAYERS, TARGET_LOAD[edge])
        events_per_layer, points_sq = window_load(events, first, DISTINCT_LAYERS)
        record = {
            "seed": seed,
            "cell_edge_px": edge,
            "first_layer": first,
            "events_per_layer": events_per_layer,
            "window_points_sq": points_sq,
        }
        path = cache_dir / window_file(seed, edge)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record) + "\n")
        tmp.replace(path)
    chosen = json.loads((cache_dir / window_file(seed, cell_edge_px)).read_text())
    return int(chosen["first_layer"])


def render_inputs(
    seed: int, cell_edge_px: int, cache_dir: Path, layers: int = DISTINCT_LAYERS
) -> Inputs:
    """Render the seed's window whose load at ``cell_edge_px`` is matched.

    ``layers`` other than the default takes the build's first layers
    instead (the self-tests use short windows).
    """
    build = EvaluationWorkload(
        image_px=IMAGE_PX, layers=0, seed=seed, defect_rate_per_stack=DEFECT_RATE_PER_STACK
    )
    started = time.perf_counter()
    reference_images = build.reference_images()
    render_s = time.perf_counter() - started
    regions = specimen_regions_px(build.job.specimens, IMAGE_PX)
    dataset = BuildDataset(build.job, OTImageRenderer(image_px=IMAGE_PX, seed=seed))
    first = 0
    if layers == DISTINCT_LAYERS:
        first = _first_layer(
            seed, cell_edge_px, dataset, reference_images, regions,
            build.job.job_id, cache_dir,
        )
    started = time.perf_counter()
    window = [dataset.layer_record(i) for i in range(first, first + layers)]
    render_s += time.perf_counter() - started
    return Inputs(
        seed=seed,
        cell_edge_px=cell_edge_px,
        job_id=build.job.job_id,
        first_layer=first,
        window=window,
        reference_images=reference_images,
        regions=regions,
        render_s=render_s,
    )


def use_case_config(cell_edge_px: int) -> UseCaseConfig:
    """The Alg. 1 config of a workload: only the cell edge varies."""
    return UseCaseConfig(
        image_px=IMAGE_PX, cell_edge_px=cell_edge_px, window_layers=WINDOW_LAYERS
    )
