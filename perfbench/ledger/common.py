"""Shared pieces: the run outcome, statistics, memory, calibration, scratch."""

from __future__ import annotations

import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

#: Root of the checkout (``perfbench/ledger/common.py`` -> two levels up).
ROOT = Path(__file__).resolve().parents[2]
#: Where runs keep their throwaway state (caches, journals, trace dumps).
SCRATCH = ROOT / ".perfbench"
WORK = SCRATCH / "work"
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "reference"

#: Number of set-ups per run whose median is ``setup_s``.
N_SETUPS = 3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics by name (untraced measurement).
    e2e: dict = field(default_factory=dict)
    #: Per-layer metrics by name (traced measurement).
    layer: dict = field(default_factory=dict)
    #: Sample count behind each reported percentile/median.
    samples: dict = field(default_factory=dict)
    #: One line per correctness failure.
    errors: list = field(default_factory=list)
    #: Span totals of the traced measurement, written out after the run.
    trace_dump: dict | None = None

    def fail(self, message: str) -> None:
        self.errors.append(message)


def median(values) -> float:
    return float(statistics.median(values))


def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) with linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def calibration_s() -> float:
    """Searchsorted + interpolate over a fixed grid, best of three.

    The same kernel as ``benchmarks/bench_event_hotpath.py``, so host
    drift shows across commits.  It never normalizes a reported metric.
    """
    rng = np.random.default_rng(0)
    x = rng.random(200_000)
    grid = np.sort(rng.random(5000))
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(10):
            idx = np.clip(np.searchsorted(grid, x) - 1, 0, grid.size - 2)
            y = 0.5 * grid[idx] + 0.5 * grid[idx + 1]
            float(y.sum())
        best = min(best, perf_counter() - t0)
    return best


def fresh_dir(name: str) -> Path:
    """An empty directory under the run's work area (removed at exit)."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def budget_reps(seconds: float, rep_times: list[float]) -> bool:
    """Whether another repetition fits in ``seconds`` of measurement.

    At least one repetition always runs; another starts only if the mean
    repetition so far still fits in what is left.
    """
    if not rep_times:
        return True
    spent = sum(rep_times)
    return spent + spent / len(rep_times) <= seconds
