"""The output check: every layer against the scalar reference.

The reference runs the same records through ``Strata(engine_mode="sync")``
with the plan compiler off. Each report is reduced to an order-invariant
integer key: events in the window, clusters, and clustered points. Full
payloads are not compared, because DBSCAN border points and float
centroid sums depend on arrival order, which the distributed runtime
changes; cluster count and clustered-point count do not.

Records cycle ``period`` distinct layers with consecutive layer ids, and a
report depends only on the images of its ``window`` layers, so the
reference needs ``period + window - 1`` layers: after that every report
repeats one already computed (see :func:`canonical_index`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.core import DeployConfig, Strata, build_use_case, calibrate_job
from repro.spe.sink import CollectingSink

from .inputs import Inputs, render_inputs, use_case_config
from .workloads import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    IMAGE_PX,
    WINDOW_LAYERS,
    WORKLOADS,
)

ReportKey = tuple[int, int, int]

STORED_DIR = Path(__file__).resolve().parents[1] / "reference"


def report_key(payload: dict) -> ReportKey:
    """(events in the window, clusters, clustered points) of one report."""
    return (
        int(payload["num_events"]),
        int(payload["num_clusters"]),
        sum(int(c["size"]) for c in payload["clusters"]),
    )


def canonical_index(index: int, period: int, window: int) -> int:
    """The reference layer whose report layer ``index`` must repeat.

    Layer ``period * k + r`` sees the images of ``r - window + 1 .. r``
    modulo ``period``. For ``r >= window - 1`` that is layer ``r``'s
    window; otherwise the window wraps the cycle, as layer ``period + r``'s
    does.
    """
    if index < period + window - 1:
        return index
    r = (index - period) % period
    return period + r if r < window - 1 else r


@dataclass
class Reference:
    """Expected report keys per layer and specimen, plus cells per layer."""

    seed: int
    cell_edge_px: int
    period: int
    window: int
    cells_per_layer: int
    reports: dict[int, dict[str, ReportKey]]

    def expected(self, index: int) -> dict[str, ReportKey]:
        return self.reports[canonical_index(index, self.period, self.window)]

    @staticmethod
    def file_name(seed: int, cell_edge_px: int, period: int) -> str:
        return (
            f"seed{seed}-edge{cell_edge_px}-px{IMAGE_PX}-period{period}"
            f"-L{WINDOW_LAYERS}.json"
        )

    def to_json(self) -> str:
        """JSON with one line per reference layer."""
        head = {
            "seed": self.seed,
            "cell_edge_px": self.cell_edge_px,
            "period": self.period,
            "window": self.window,
            "cells_per_layer": self.cells_per_layer,
        }
        layers = ",\n".join(
            f'  "{index}": '
            + json.dumps({s: list(k) for s, k in sorted(by_spec.items())})
            for index, by_spec in sorted(self.reports.items())
        )
        return json.dumps(head)[:-1] + ',\n "reports": {\n' + layers + "\n }\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "Reference":
        data = json.loads(text)
        return cls(
            seed=data["seed"],
            cell_edge_px=data["cell_edge_px"],
            period=data["period"],
            window=data["window"],
            cells_per_layer=data["cells_per_layer"],
            reports={
                int(index): {s: tuple(k) for s, k in by_spec.items()}
                for index, by_spec in data["reports"].items()
            },
        )


def compute_reference(inputs: Inputs, count: int | None = None) -> Reference:
    """Run the scalar sync oracle over ``count`` layers (default: one cycle
    plus one window, all a run needs)."""
    if count is None:
        count = inputs.period + WINDOW_LAYERS - 1
    cell_edge_px = inputs.cell_edge_px
    records = inputs.records(count)
    strata = Strata(engine_mode="sync")
    sink = CollectingSink("reference")
    pipeline = build_use_case(
        iter(records), iter(records), use_case_config(cell_edge_px),
        strata=strata, sink=sink,
    )
    calibrate_job(
        strata.kv, inputs.job_id, inputs.reference_images, cell_edge_px,
        regions=inputs.regions,
    )
    strata.deploy(DeployConfig())
    reports: dict[int, dict[str, ReportKey]] = {}
    for t in sink.results:
        by_spec = reports.setdefault(t.layer - inputs.first_layer, {})
        if t.specimen in by_spec:
            raise RuntimeError(f"reference reported layer {t.layer} {t.specimen} twice")
        by_spec[t.specimen] = report_key(t.payload)
    if sorted(reports) != list(range(count)) or any(
        set(by_spec) != inputs.specimens for by_spec in reports.values()
    ):
        raise RuntimeError("reference run did not report every layer and specimen")
    cells, rem = divmod(pipeline.cells_evaluated, count)
    if rem:
        raise RuntimeError("reference cell count differs between layers")
    return Reference(
        seed=inputs.seed,
        cell_edge_px=cell_edge_px,
        period=inputs.period,
        window=WINDOW_LAYERS,
        cells_per_layer=cells,
        reports=reports,
    )


def load_reference(inputs: Inputs, cache_dir: Path) -> Reference:
    """The stored digest, a cached one, or a freshly computed one."""
    name = Reference.file_name(inputs.seed, inputs.cell_edge_px, inputs.period)
    for directory in (STORED_DIR, cache_dir):
        path = directory / name
        if path.is_file():
            return Reference.from_json(path.read_text())
    reference = compute_reference(inputs)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache_dir / f"{name}.{os.getpid()}.tmp"
    tmp.write_text(reference.to_json())
    tmp.replace(cache_dir / name)
    return reference


def store_references() -> list[Path]:
    """Write the windows and digests of the default and the held-out seed."""
    written = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for edge in sorted({w.cell_edge_px for w in WORKLOADS.values()}):
            inputs = render_inputs(seed, edge, STORED_DIR)
            reference = compute_reference(inputs)
            path = STORED_DIR / Reference.file_name(seed, edge, inputs.period)
            path.write_text(reference.to_json())
            written.append(path)
    return written


@dataclass
class Check:
    """Verdict over the layers one deployment was sent."""

    sent: int
    #: layer index -> why it failed
    failed: dict[int, str]
    #: per-layer latency (last report minus due time), layers with reports
    latencies_s: list[float]
    #: reports for layers that were never sent
    stray: int

    @property
    def correct(self) -> bool:
        return not self.failed and not self.stray


def check_reports(
    receipts: Iterable[tuple[int, str, ReportKey, float]],
    sent: int,
    due: Callable[[int], float],
    reference: Reference,
    specimens: frozenset[str],
    deadline_s: float,
) -> Check:
    """Check ``(layer, specimen, key, receive time)`` receipts.

    A layer fails when its specimens do not each report exactly once,
    when a report's key differs from the reference, or when its last
    report arrives more than ``deadline_s`` after the layer was due.
    """
    by_layer: dict[int, list[tuple[str, ReportKey, float]]] = {}
    stray = 0
    for layer, specimen, key, t in receipts:
        if 0 <= layer < sent:
            by_layer.setdefault(layer, []).append((specimen, key, t))
        else:
            stray += 1
    failed: dict[int, str] = {}
    latencies: list[float] = []
    for index in range(sent):
        got = by_layer.get(index, [])
        if not got:
            failed[index] = "no reports"
            continue
        latency = max(t for _, _, t in got) - due(index)
        latencies.append(latency)
        names = [s for s, _, _ in got]
        expected = reference.expected(index)
        if len(names) != len(set(names)):
            failed[index] = "duplicate report"
        elif set(names) != specimens:
            failed[index] = f"{len(specimens - set(names))} report(s) missing"
        elif any(key != expected[s] for s, key, _ in got):
            failed[index] = "report differs from the reference"
        elif latency > deadline_s:
            failed[index] = f"later than the {deadline_s:g} s recoat deadline"
    return Check(sent=sent, failed=failed, latencies_s=latencies, stray=stray)
