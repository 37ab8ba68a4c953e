#!/usr/bin/env python3
"""STRATA benchmark: OT layers in, checked defect-cluster reports out.

One workload, one process (peak RSS is a high-water mark, so every run
needs a fresh one)::

    python3 perfbench/run.py --workload ot-live --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
splits the time between an untraced and a traced run and prints the
per-layer metrics. The last stdout line is one JSON object with the keys
``correct``, ``attempted`` (layers sent), ``failed`` (layers failed) and
``metrics``; the line before it, prefixed ``record``, holds the run
record. The exit code is 1 when an output check fails.

Every workload of BENCHMARK.json, untraced then traced, each in its own
process, with a table at the end::

    python3 perfbench/run.py [--seed 7] [--seconds 20]

Run from the repository root; the program is imported from ``src/``.
Spans, results and computed reference digests go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
WORKDIR = ROOT / ".perfbench"
#: run-record entries printed next to the end-to-end metrics
QUALIFIERS_SHOWN = (
    "layers_failed_ratio", "generator_lag_max_ms", "dist_workers", "dist_restarts",
)


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def _number(value: float) -> float:
    """JSON has no NaN or infinity; a run that cannot compute a metric fails."""
    return value if math.isfinite(value) else 0.0


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    load_at_start = os.getloadavg()
    from stratabench.attribution import (
        DIST_PER_LAYER_UNITS,
        END_TO_END_UNITS,
        PER_LAYER_UNITS,
        per_layer,
    )
    from stratabench.inputs import render_inputs
    from stratabench.oracle import load_reference
    from stratabench.record import run_record
    from stratabench.runner import end_to_end, evaluate, peak_rss_mb, run_phase
    from stratabench.tracing import SpanLog
    from stratabench.workloads import WORKLOADS

    wl = WORKLOADS[workload]
    cache = WORKDIR / "reference"
    inputs = render_inputs(seed, wl.cell_edge_px, cache)
    if trace == 0:
        phase = run_phase(wl, inputs, seconds, WORKDIR)
        rss_mb = peak_rss_mb()
        reference = load_reference(inputs, cache)
        evaluations = [evaluate(phase, wl, inputs, reference)]
        metrics, qualifiers = end_to_end(phase, evaluations[0], rss_mb)
        units = END_TO_END_UNITS
    else:
        base = run_phase(wl, inputs, seconds / 2, WORKDIR)
        log = SpanLog()
        traced = run_phase(wl, inputs, seconds / 2, WORKDIR, log)
        reference = load_reference(inputs, cache)
        evaluations = [
            evaluate(base, wl, inputs, reference),
            evaluate(traced, wl, inputs, reference),
        ]
        metrics = per_layer(inputs, evaluations[0], traced, evaluations[1], log)
        qualifiers = {"spans": len(log.spans)}
        log.write(WORKDIR / "spans" / f"{wl.name}-seed{seed}.jsonl")
        units = PER_LAYER_UNITS | (DIST_PER_LAYER_UNITS if wl.dist else {})

    correct = all(ev.correct for ev in evaluations)
    attempted = sum(ev.attempted for ev in evaluations)
    failed = sum(ev.failed for ev in evaluations)
    record = run_record(ROOT, wl.name, seed, seconds, trace, load_at_start, units)
    record.update(qualifiers)
    record["layers_failed"] = failed
    record["layers_sent"] = attempted
    record["failures"] = {}
    for ev in evaluations:
        for reason, count in ev.reasons().items():
            record["failures"][reason] = record["failures"].get(reason, 0) + count
    record["problems"] = [p for ev in evaluations for p in ev.problems]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _number(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    for name, unit in units.items():
        print(f"{wl.name:<20} {name:<40} {metrics[name]:>14.4f} {unit}")
    for key in QUALIFIERS_SHOWN:
        if key in qualifiers:
            print(f"{wl.name:<20} {key:<40} {qualifiers[key]:>14.4f}")
    for problem in record["problems"]:
        print(f"{wl.name}: output check failed: {problem}")
    for reason, count in record["failures"].items():
        print(f"{wl.name}: {count} layer(s) failed: {reason}")
    out = WORKDIR / "results" / f"{wl.name}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"record": record, "result": result}, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every gated workload untraced then traced, each a fresh process; one
    table. An ungated workload runs only when named with ``--workload``."""
    from stratabench.workloads import WORKLOADS

    names = [name for name, wl in WORKLOADS.items() if wl.gated]
    rows: dict[tuple[str, int], tuple[dict, dict]] = {}
    status = 0
    for name in names:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-2]), flush=True)
            if proc.returncode != 0 or len(lines) < 2:
                status = 1
            if len(lines) >= 2 and lines[-2].startswith("record "):
                rows[(name, trace)] = (json.loads(lines[-1]), json.loads(lines[-2][7:]))
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per layer (traced)")):
        print(f"\n{title}")
        print(f"{'metric':<40} {'unit':<9}" + "".join(f"{n:>20}" for n in names))
        metrics = next((rows[k][0]["metrics"] for k in rows if k[1] == trace), {})
        extra = list(QUALIFIERS_SHOWN) if trace == 0 else []
        for metric in list(metrics) + extra:
            unit = metrics[metric]["unit"] if metric in metrics else ""
            cells = []
            for n in names:
                result, record = rows.get((n, trace), ({"metrics": {}}, {}))
                value = result["metrics"].get(metric, {}).get("value", record.get(metric))
                cells.append(f"{value:>20.4f}" if value is not None else f"{'-':>20}")
            print(f"{metric:<40} {unit:<9}" + "".join(cells))
    for name, wl in WORKLOADS.items():
        if not wl.gated:
            print(f"{name}: not run; not in BENCHMARK.json (see NOTES.md), run it with --workload")
    for (n, trace), (result, _) in sorted(rows.items()):
        if not result["correct"]:
            print(f"{n} (trace {trace}): output check failed")
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    _import_program()
    from stratabench.workloads import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--store-reference", action="store_true",
        help="recompute the stored reference digests and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.store_reference:
        from stratabench.oracle import store_references

        for path in store_references():
            print(path.relative_to(ROOT))
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
