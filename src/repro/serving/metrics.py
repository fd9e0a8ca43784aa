"""Latency and throughput metrics for the serving subsystem.

The serving layer cares about *tail* behaviour, not averages: a scheduler
that doubles throughput while pushing p99 latency past the budget has not
helped anyone.  :class:`LatencyTracker` collects per-request latencies from
worker threads and :class:`LatencySummary` freezes them into the p50/p90/p99
figures the reports and benchmarks consume.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: Default sample-window size for :class:`LatencyTracker`.  Percentiles are
#: computed over the most recent window; the total request count is exact.
DEFAULT_WINDOW = 65_536


def percentile_ms(samples_s: Sequence[float], q: float) -> float:
    """Percentile (0..100) of a list of second-valued samples, in ms."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(samples_s) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples_s, dtype=np.float64), q)) * 1000.0


@dataclass(frozen=True)
class LatencySummary:
    """Frozen latency distribution of a set of requests (milliseconds)."""

    count: int
    mean_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_samples(cls, samples_s: Sequence[float]) -> "LatencySummary":
        if len(samples_s) == 0:
            return cls(count=0, mean_ms=0.0, p50_ms=0.0, p90_ms=0.0,
                       p99_ms=0.0, max_ms=0.0)
        arr = np.asarray(samples_s, dtype=np.float64)
        return cls(
            count=int(arr.size),
            mean_ms=float(arr.mean()) * 1000.0,
            p50_ms=percentile_ms(samples_s, 50.0),
            p90_ms=percentile_ms(samples_s, 90.0),
            p99_ms=percentile_ms(samples_s, 99.0),
            max_ms=float(arr.max()) * 1000.0,
        )

    def rows(self) -> List[tuple]:
        """(key, value) pairs for :func:`repro.analysis.reporting.format_kv`."""
        return [
            ("requests", self.count),
            ("latency mean (ms)", self.mean_ms),
            ("latency p50 (ms)", self.p50_ms),
            ("latency p90 (ms)", self.p90_ms),
            ("latency p99 (ms)", self.p99_ms),
            ("latency max (ms)", self.max_ms),
        ]


class LatencyTracker:
    """Thread-safe accumulator of per-request latencies (seconds).

    Memory is bounded: the most recent ``window`` samples live in a
    preallocated float64 ring (8 B per sample) for percentile computation
    (a service at production rates would otherwise grow without limit),
    while the total recorded count stays exact.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self._lock = threading.Lock()
        self._ring = np.empty(self.window, dtype=np.float64)
        self._total = 0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        with self._lock:
            self._ring[self._total % self.window] = seconds
            self._total += 1

    def __len__(self) -> int:
        """Total number of recorded samples (not capped by the window)."""
        with self._lock:
            return self._total

    def _snapshot(self) -> tuple:
        """``(total, copy of the retained samples in ring order)``."""
        with self._lock:
            return self._total, self._ring[:min(self._total, self.window)].copy()

    def samples(self) -> List[float]:
        """Snapshot copy of the windowed latencies (seconds), oldest first."""
        total, window = self._snapshot()
        return np.roll(window, -(total % self.window)).tolist()

    def quantile_s(self, q: float = 99.0) -> tuple:
        """``(total_count, q-th percentile in seconds)`` over the window.

        The cheap accessor the cluster's retry/hedging timers poll — one
        percentile, no :class:`LatencySummary` construction.
        """
        total, window = self._snapshot()
        if not window.size:
            return total, 0.0
        return total, float(np.percentile(window, q))

    def summary(self) -> LatencySummary:
        total, window = self._snapshot()
        summary = LatencySummary.from_samples(window)
        if total != summary.count:
            # Window rolled over: report the exact total request count with
            # percentiles computed over the retained window.
            summary = LatencySummary(
                count=total,
                mean_ms=summary.mean_ms,
                p50_ms=summary.p50_ms,
                p90_ms=summary.p90_ms,
                p99_ms=summary.p99_ms,
                max_ms=summary.max_ms,
            )
        return summary
