"""Statistics shared by the end-to-end benchmark, its comparer and its tests.

Nothing here imports the program under test: these are the harness's own
definitions of a percentile, a spread and the five end-to-end metrics, so
a change to ``repro.serving.metrics`` cannot move the yardstick.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

import numpy as np

#: Request outcomes a :class:`e2e_drivers.Recorder` stores per request.
PENDING, OK, RAISED, REFUSED = 0, 1, 2, 3

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def highest_supported_percentile(count: int, beyond: int = 10) -> float:
    """The highest candidate percentile with at least ``beyond`` samples past it.

    A p99 of 200 samples rests on two of them; the rule from the
    choosing-metrics guide is to report the highest percentile that still
    has ten samples beyond it.
    """
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= beyond:
            return q
    return TAIL_PERCENTILES[-1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    The same figure the acceptance check takes over ten runs
    (``statistics.quantiles(values, n=4)``).
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative when better)."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


#: A window is cut into slices of this length; with at least MIN_SLICES whole
#: slices, the figure of a *good* slice replaces the whole-window figure.
SLICE_S = 1.0
MIN_SLICES = 3
#: Which slice counts as good: the 10th-percentile one (latency; the 90th
#: for throughput), i.e. between the second and third best of eighteen.
GOOD_SLICE_PERCENTILE = 10.0


def summarize_requests(
    status: np.ndarray,
    t_origin: np.ndarray,
    t_done: np.ndarray,
    correct: np.ndarray,
    slo_ms: float,
    t_first: Optional[float] = None,
) -> Dict[str, float]:
    """End-to-end request figures of one measured window.

    ``status`` holds one outcome per attempted request, ``t_origin`` the
    instant its latency is timed from (just before the call in a closed
    loop, the instant it was *due* in an open loop), ``t_done`` the
    completion callback and ``correct`` whether its output equalled the
    oracle's.  A request that raised, was refused or answered wrongly is
    failed, and a failed request misses the latency limit.

    Throughput, p50 and p95 are those of a **good second** of the window:
    the window is cut into whole seconds, each second gives a rate, a
    median and a 95th percentile, and the 10th-percentile second is
    reported (the 90th for the rate).  Interference on a shared host only
    ever slows a second down, in phases of seconds, so a good second says
    what the program can do while the whole-window median and tail mostly
    say what the neighbours did; over two sets of ten runs this halved the
    run-to-run spread of ``paper_nets_batch1``'s p95 and lowered most
    others.  A regression slows every second, the good ones too.  Counts,
    the p99, the two shares and the ``window_*`` figures are taken over
    the whole window, so a periodic stall still shows there.
    """
    attempted = int(status.size)
    good = (status == OK) & correct
    succeeded = int(good.sum())
    latency_ms = (t_done[good] - t_origin[good]) * 1000.0
    start = float(t_origin.min()) if t_first is None else t_first
    wall_s = float(t_done.max()) - start if attempted else 0.0
    within = int((latency_ms <= slo_ms).sum())
    tail = highest_supported_percentile(succeeded)
    throughput = succeeded / wall_s if wall_s > 0 else 0.0
    p50, p95 = percentile(latency_ms, 50.0), percentile(latency_ms, 95.0)
    window = {"window_throughput_rps": throughput, "window_p50_ms": p50,
              "window_p95_ms": p95}
    slices = int(wall_s / SLICE_S)
    if slices >= MIN_SLICES:
        order = np.argsort(t_done[good], kind="stable")
        done = t_done[good][order]
        cuts = np.searchsorted(done, start + SLICE_S * np.arange(slices + 1))
        rates, medians, tails = [], [], []
        boundary = start
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi == lo:
                continue
            # Rate between the last completion of the previous slice and
            # the last of this one: a continuous figure, not a count.
            rates.append((hi - lo) / (done[hi - 1] - boundary))
            boundary = done[hi - 1]
            values = latency_ms[order[lo:hi]]
            medians.append(percentile(values, 50.0))
            tails.append(percentile(values, 95.0))
        throughput = percentile(rates, 100.0 - GOOD_SLICE_PERCENTILE)
        p50 = percentile(medians, GOOD_SLICE_PERCENTILE)
        p95 = percentile(tails, GOOD_SLICE_PERCENTILE)
    return {
        **window,
        "attempted": attempted,
        "succeeded": succeeded,
        "failed": attempted - succeeded,
        "refused": int((status == REFUSED).sum()),
        "raised": int((status == RAISED).sum()),
        "wrong": int(((status == OK) & ~correct).sum()),
        "wall_s": wall_s,
        "throughput_rps": throughput,
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "latency_p99_ms": percentile(latency_ms, 99.0),
        "tail_percentile": tail,
        "tail_ms": percentile(latency_ms, tail),
        "slo_miss_share": (attempted - within) / attempted if attempted else 0.0,
        "failed_share": (attempted - succeeded) / attempted if attempted else 0.0,
    }
