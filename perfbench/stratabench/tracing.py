"""Attribution from outside the program: spans around its public calls.

The traced run composes Alg. 1 through the public verbs with subclasses
of the use case's functions. Each subclass times the call into its
parent class, counts what it passed on, and calls ``super()``; it adds no
method its parent lacks, so the plan compiler chooses the same execution
paths (``process_block``, ``process_many``) it would for the originals.
Spans are keyed by ``(job, layer)``, kept in memory and written out when
the run ends.

Under the distributed runtime the functions run in forked workers and
their spans stay there; dist attribution comes from worker metric
snapshots, ``getrusage`` and ``report.extra["dist"]`` instead.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core import (
    DBSCANCorrelator,
    IsolateCells,
    IsolateSpecimens,
    LabelCell,
    OTImageCollector,
    PrintingParameterCollector,
    Strata,
    UseCaseConfig,
)
from repro.kvstore.api import KVStore, encode_key
from repro.serde import encode_value
from repro.spe.sink import Sink

# span fields: layer name, call path, job, layer, start, end, rows in
Span = tuple[str, str, str, int, float, float, int]


class SpanLog:
    """In-memory spans; ``list.append`` is atomic, so threads share one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def record(
        self, name: str, path: str, job: str, layer: int, start: float, rows: int
    ) -> None:
        self.spans.append((name, path, job, layer, start, time.perf_counter(), rows))

    def seconds(self, name: str) -> float:
        return sum(end - start for n, _, _, _, start, end, _ in self.spans if n == name)

    def rows(self, name: str, path: str | None = None) -> int:
        return sum(
            rows
            for n, p, _, _, _, _, rows in self.spans
            if n == name and (path is None or p == path)
        )

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, call, job, layer, start, end, rows in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name, "call": call, "job": job,
                            "layer": layer, "start": start, "end": end,
                            "rows": rows,
                        }
                    )
                    + "\n"
                )


ISOLATE_SPECIMENS = "core.isolate_specimens"
ISOLATE_CELLS = "core.isolate_cells"
LABEL_CELL = "core.label_cell"
DBSCAN = "core.dbscan_correlator"


class TracedIsolateSpecimens(IsolateSpecimens):
    def __init__(self, image_px: int, plate_mm: float, log: SpanLog) -> None:
        super().__init__(image_px, plate_mm)
        self._log = log

    def __call__(self, t):
        start = time.perf_counter()
        out = super().__call__(t)
        self._log.record(ISOLATE_SPECIMENS, "call", t.job, t.layer, start, 1)
        return out


class TracedIsolateCells(IsolateCells):
    def __init__(self, cell_edge_px: int, log: SpanLog) -> None:
        super().__init__(cell_edge_px)
        self._log = log

    def __call__(self, t):
        start = time.perf_counter()
        out = super().__call__(t)
        self._log.record(ISOLATE_CELLS, "call", t.job, t.layer, start, 1)
        return out

    def process_block(self, block):
        start = time.perf_counter()
        out = super().process_block(block)
        self._log.record(
            ISOLATE_CELLS, "block", block.job[0], int(block.layer[0]), start, len(block)
        )
        return out


class TracedLabelCell(LabelCell):
    def __init__(self, store: KVStore, log: SpanLog) -> None:
        super().__init__(store)
        self._log = log

    def __call__(self, t):
        start = time.perf_counter()
        out = super().__call__(t)
        self._log.record(LABEL_CELL, "call", t.job, t.layer, start, 1)
        return out

    def process_many(self, tuples):
        start = time.perf_counter()
        out = super().process_many(tuples)
        if tuples:
            first = tuples[0]
            self._log.record(LABEL_CELL, "many", first.job, first.layer, start, len(tuples))
        return out

    def process_block(self, block):
        start = time.perf_counter()
        out = super().process_block(block)
        self._log.record(
            LABEL_CELL, "block", block.job[0], int(block.layer[0]), start, len(block)
        )
        return out


class TracedDBSCANCorrelator(DBSCANCorrelator):
    def __init__(self, log: SpanLog, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._log = log

    def __call__(self, job, layer, specimen, events):
        start = time.perf_counter()
        out = super().__call__(job, layer, specimen, events)
        self._log.record(DBSCAN, "call", job, layer, start, len(events))
        return out


class TimedStore(KVStore):
    """Counts and times the calls the program makes into its KV store."""

    def __init__(self, inner: KVStore) -> None:
        self.inner = inner
        self.put_calls = 0
        self.put_seconds = 0.0
        self.bytes_put = 0
        self.get_calls = 0

    def put(self, key, value) -> None:
        start = time.perf_counter()
        self.inner.put(key, value)
        self.put_seconds += time.perf_counter() - start
        self.put_calls += 1
        # sized outside the timed call: the encoding is repeated here
        self.bytes_put += len(encode_key(key)) + len(encode_value(value))

    def get(self, key, default=None):
        self.get_calls += 1
        return self.inner.get(key, default)

    def delete(self, key) -> None:
        self.inner.delete(key)

    def scan(self, start=None, end=None) -> Iterator:
        return self.inner.scan(start, end)

    def close(self) -> None:
        self.inner.close()


def compose_traced(
    strata: Strata,
    ot_records: Iterable,
    pp_records: Iterable,
    config: UseCaseConfig,
    sink: Sink,
    log: SpanLog,
    checkpointable: bool = False,
) -> TracedLabelCell:
    """Alg. 1 exactly as ``build_use_case`` composes it, with traced functions.

    Mirrors ``build_use_case`` for the scalar (``vectorized=False``),
    single-replica config every workload uses; a self-test checks that
    both give the same ``explain()`` plan. Returns the detect function,
    whose ``cells_evaluated`` the output check compares.
    """
    if checkpointable:
        from repro.recovery.dedup import DedupSink

        sink = DedupSink(sink)
    strata.add_source(
        PrintingParameterCollector(pp_records), "pp", checkpointable=checkpointable
    )
    strata.add_source(OTImageCollector(ot_records), "OT", checkpointable=checkpointable)
    strata.fuse("OT", "pp", "OT&pp")
    strata.partition(
        "OT&pp", "spec", TracedIsolateSpecimens(config.image_px, config.plate_mm, log)
    )
    correlator = TracedDBSCANCorrelator(
        log,
        eps_mm=config.resolved_eps_mm,
        min_samples=config.min_samples,
        px_per_mm=config.px_per_mm,
        layer_thickness_mm=config.layer_thickness_mm,
        cell_volume_mm3=config.cell_volume_mm3,
        min_volume_mm3=config.min_volume_mm3,
        render_cluster_image=config.render_cluster_image,
    )
    strata.partition("spec", "cell", TracedIsolateCells(config.cell_edge_px, log))
    detect_fn = TracedLabelCell(strata.kv, log)
    strata.detect_event("cell", "cellLabel", detect_fn)
    strata.correlate_events("cellLabel", "out", config.window_layers, correlator)
    strata.deliver("out", sink)
    return detect_fn
