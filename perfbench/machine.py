"""Machine fingerprint and memory readings for benchmark results."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import time
from pathlib import Path
from typing import Any, Dict, Optional


#: ``calibration_s`` of the machine ``benchmarks/BENCH_kernel.json`` was
#: recorded on; timed regions are reported scaled to this speed.
REFERENCE_CALIBRATION_S = 0.0644


def calibration_sample() -> float:
    """One timing of the fixed, allocation-free integer loop.

    The loop is the one ``benchmarks/test_kernel_scale.py`` times, so a
    result's ``calibration_s`` relates it to the 0.0644 s reference that
    ``benchmarks/BENCH_kernel.json`` was recorded against.
    """
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - start


def git_commit(root: Path) -> Optional[str]:
    """The commit checked out at ``root``, read from ``.git`` without git.

    Returns ``None`` when ``root`` holds no ``.git`` directory (an exported
    checkout).  Nothing outside ``root`` is read.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path, workload: str, seed: int) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "calibration_s": min(calibration_sample() for _ in range(3)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(allow_none=False),
        "git_commit": git_commit(root),
    }


def parent_peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB.

    ``VmHWM`` lives on the process's own address space, so unlike
    ``getrusage(RUSAGE_SELF)`` it does not inherit the high-water mark of
    the process that exec'd the benchmark.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest child this process waited for.

    Forked shard workers are joined by the coordinator, so their peaks
    land in ``RUSAGE_CHILDREN``; the kernel keeps the maximum over
    children, not the sum.  0 when no child has exited yet.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
