"""Shared measurement helpers: percentiles, memory, provenance, counts."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Environment variables that change how the numeric kernels run.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "PYTHONHASHSEED",
)


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def peak_rss_mb_self() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> List[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pid`` and its
    descendants: an upper bound on the tree's simultaneous peak."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
        pending += _children(current)
    return total_kb / 1024.0


def source_digest(root: Path) -> str:
    """Content hash of the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_describe(root: Path) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def provenance(root: Path, workload: str, seed: int, traced: bool) -> Dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "git_describe": git_describe(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def check_exact_counts(
    root: Path, workload: str, seed: int, digest: str, counts: List[Dict]
) -> Optional[str]:
    """Compare this run's exact counts with an earlier run of the same
    program and seed; record them when there is none.

    Returns a fault description when the counts differ.
    """
    directory = root / ".perfbench" / "counts"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-{seed}-{digest}.json"
    document = json.dumps(counts, sort_keys=True)
    if path.exists():
        earlier = path.read_text()
        if earlier != document:
            return f"exact counts differ from the earlier run recorded in {path.name}"
        return None
    path.write_text(document)
    return None
