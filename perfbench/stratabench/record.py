"""The run record: what machine and code produced a result."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Any

import numpy as np


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at ``root``, read from ``.git`` without a subprocess."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's source files: identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(
    root: Path, workload: str, seed: int, seconds: float, trace: int,
    load_at_start: tuple[float, float, float], units: dict[str, str],
) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "units": units,
    }
