"""Synthetic load generation against the inference service or a cluster.

Two traffic shapes, one result type:

* **closed loop** (:func:`run_closed_loop`) — submit a burst of requests
  back-to-back and wait for all of them; measures peak sustainable
  throughput at a given offered batch level.
* **open loop** (:func:`drive`) — walk the wall clock through a seeded
  arrival schedule (:func:`poisson_offsets`, :func:`phased_poisson_offsets`
  or a compiled scenario's merged stream) and submit every arrival
  regardless of completions, the way real traffic behaves.  Admission is
  blocking (a saturated target backpressures the clock) or non-blocking
  (a cluster's overload sheds are counted); an ``on_arrival`` hook acts at
  chosen arrivals — publishing a rollout candidate, aborting it — and a
  fault plan or autoscaler rides along on the cluster itself.

Both return a :class:`LoadResult`, a per-arrival ledger: every offered
arrival ends in exactly one of :data:`OUTCOMES`, so lossless accounting
holds by construction, and :func:`matches_baseline` checks every completed
row bit-identical to a single-process baseline over the same inputs.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_kv
from repro.serving.cluster import (
    ClusterOverloadError,
    DeadlineExceededError,
    WorkerCrashError,
)
from repro.serving.metrics import percentile_ms
from repro.serving.service import InferenceService, ServiceReport

__all__ = [
    "OUTCOMES",
    "LoadPhase",
    "LoadResult",
    "drive",
    "matches_baseline",
    "phased_poisson_offsets",
    "poisson_offsets",
    "rollout_hook",
    "run_arrival_schedule",
    "run_closed_loop",
    "settle_rollout",
    "synthetic_images",
    "write_sweep_records",
]


# ---------------------------------------------------------------------------
# arrival schedules — the one schedule-driven core every open-loop load
# shape rides on.  A schedule is a pure function of its rng (never of the
# wall clock), so the same seed always yields a byte-identical arrival
# sequence; the pacing driver then walks the wall clock through it.
# ---------------------------------------------------------------------------

def poisson_offsets(rng: np.random.Generator, offered_rps: float,
                    count: int) -> np.ndarray:
    """Cumulative Poisson arrival offsets (seconds from the run start).

    One vectorized ``exponential`` draw of ``count`` gaps, so seeded
    schedules stay byte-identical (pinned by ``tests/test_scenarios.py``).
    """
    if offered_rps <= 0:
        raise ValueError("offered_rps must be positive")
    return np.cumsum(rng.exponential(1.0 / offered_rps, size=count))


def phased_poisson_offsets(rng: np.random.Generator,
                           phases: Sequence[tuple]) -> tuple:
    """Piecewise-constant-rate Poisson schedule for ``(name, rps, dur)``
    phases: ``(offsets, phase_index)`` arrays.

    Gaps are drawn one at a time and the final draw of each phase, which
    lands past the phase end, is discarded — so seeded phased schedules
    are byte-identical to the historical spike loop.
    """
    offsets: List[float] = []
    phase_index: List[int] = []
    position = 0.0
    for number, (_, offered_rps, duration_s) in enumerate(phases):
        if offered_rps <= 0:
            raise ValueError("offered_rps must be positive in every phase")
        phase_end = position + float(duration_s)
        while True:
            position += rng.exponential(1.0 / offered_rps)
            if position >= phase_end:
                position = phase_end
                break
            offsets.append(position)
            phase_index.append(number)
    return (np.asarray(offsets, dtype=np.float64),
            np.asarray(phase_index, dtype=np.int64))


def run_arrival_schedule(offsets: Sequence[float], arrive,
                         t0: Optional[float] = None) -> float:
    """Pace the wall clock through a precomputed arrival schedule.

    Sleeps until ``t0 + offsets[i]`` then calls ``arrive(i)`` for each
    arrival, never stalling the clock on slow submissions — the open-loop
    contract.  Returns ``t0`` so callers measure wall time and drain
    budgets from the same origin the schedule used.
    """
    if t0 is None:
        t0 = time.perf_counter()
    for index in range(len(offsets)):
        delay = t0 + float(offsets[index]) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        arrive(index)
    return t0


def write_sweep_records(records: Sequence[dict], path: str) -> str:
    """Write sweep records as ``{"records": ...}`` JSON.

    ``path`` of ``"-"`` returns the payload instead of writing a file; any
    other path is written and a ``wrote <path>`` note is returned.
    """
    import json

    payload = json.dumps({"records": list(records)}, indent=2)
    if path == "-":
        return payload
    with open(path, "w") as fh:
        fh.write(payload + "\n")
    return f"wrote {path}"


def synthetic_images(input_shape: Sequence[int], count: int, seed: int = 0,
                     unique: bool = True) -> np.ndarray:
    """Random uint8 request images of shape ``(count,) + input_shape``.

    With ``unique=False`` a smaller set of distinct images is tiled, which
    gives the response cache something to hit.
    """
    rng = np.random.default_rng(seed)
    if unique:
        return rng.integers(0, 256, size=(count, *input_shape)).astype(np.uint8)
    distinct = max(1, count // 4)
    base = rng.integers(0, 256, size=(distinct, *input_shape)).astype(np.uint8)
    reps = -(-count // distinct)
    return np.tile(base, (reps,) + (1,) * len(input_shape))[:count]


# ---------------------------------------------------------------------------
# the one load result and the one open-loop driver
# ---------------------------------------------------------------------------

#: Terminal outcome of one arrival; every arrival ends in exactly one.
OUTCOMES = ("completed", "shed", "deadline_expired", "failed")

#: How long :func:`drive` waits, after the last arrival, for admitted
#: work to resolve before declaring a future hung.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class LoadPhase:
    """Arrival/shed accounting for one phase of a phased schedule."""

    name: str
    offered_rps: float
    duration_s: float
    offered: int
    shed: int

    @property
    def admitted(self) -> int:
        return self.offered - self.shed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one load run (:func:`drive` or :func:`run_closed_loop`).

    A ledger with one entry per offered arrival: ``outcomes[i]`` is its
    terminal :data:`OUTCOMES` entry and ``inputs[i]`` the ``(model, image
    index)`` it submitted, so ``offered == completed + shed +
    deadline_expired + failed`` by construction.  Completed arrivals carry
    their output row (``outputs``) and submit-to-resolve latency
    (``latency_s``), both keyed by arrival index.
    """

    wall_s: float
    #: Arrival times (seconds from the run start), one per arrival.
    offsets: np.ndarray
    inputs: Tuple[Tuple[str, int], ...]
    outcomes: Tuple[str, ...]
    outputs: dict
    latency_s: dict
    retry_after_ms_mean: float = 0.0
    #: The target's own report for a single-model run (``None`` when the
    #: run spans models or nothing was admitted).
    report: Optional[ServiceReport] = None

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return len(self.outputs)

    @property
    def shed(self) -> int:
        return self.outcomes.count("shed")

    @property
    def deadline_expired(self) -> int:
        return self.outcomes.count("deadline_expired")

    @property
    def failed(self) -> int:
        return self.outcomes.count("failed")

    @property
    def achieved_rps(self) -> float:
        """Goodput: completed requests over wall time."""
        if self.wall_s <= 0:
            return float("inf") if self.completed else 0.0
        return self.completed / self.wall_s

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def latency_ms(self, q: float) -> float:
        """Percentile ``q`` of the completed arrivals' latency."""
        return percentile_ms(list(self.latency_s.values()), q)

    def rows(self) -> np.ndarray:
        """Completed output rows stacked in arrival order."""
        return np.stack([self.outputs[i] for i in sorted(self.outputs)])

    def phases(self, phases: Sequence[tuple]) -> Tuple[LoadPhase, ...]:
        """Per-phase counts for the ``(name, rps, duration_s)`` phases the
        schedule was drawn from (:func:`phased_poisson_offsets`)."""
        ends = np.cumsum([float(duration) for _, _, duration in phases])
        which = np.searchsorted(ends, self.offsets, side="right")
        shed = which[np.asarray([o == "shed" for o in self.outcomes],
                                dtype=bool)]
        offered = np.bincount(which, minlength=len(phases))
        shed = np.bincount(shed, minlength=len(phases))
        return tuple(
            LoadPhase(name=name, offered_rps=float(rps),
                      duration_s=float(duration), offered=int(offered[k]),
                      shed=int(shed[k]))
            for k, (name, rps, duration) in enumerate(phases)
        )

    def table(self, title: str = "Load generation") -> str:
        rows = [
            ("offered", self.offered),
            ("completed", self.completed),
            ("shed", self.shed),
            ("deadline expired", self.deadline_expired),
            ("failed", self.failed),
            ("achieved (req/s)", self.achieved_rps),
            ("wall time (s)", self.wall_s),
        ]
        if self.shed:
            rows.append(("retry-after mean (ms)", self.retry_after_ms_mean))
        parts = [format_kv(rows, title=title)]
        if self.report is not None:
            parts += ["", self.report.table()]
        return "\n".join(parts)


def run_closed_loop(
    service: InferenceService, model: str, images: np.ndarray
) -> LoadResult:
    """Submit every image back-to-back, then wait for all responses."""
    count = len(images)
    t0 = time.perf_counter()
    futures = service.submit_batch(model, images)
    outputs = {index: future.result() for index, future in enumerate(futures)}
    return LoadResult(
        wall_s=time.perf_counter() - t0,
        offsets=np.zeros(count),
        inputs=tuple((model, index) for index in range(count)),
        outcomes=("completed",) * count,
        outputs=outputs,
        latency_s={},
        report=service.report(model),
    )


def drive(
    target,
    model,
    images,
    offsets: Sequence[float],
    *,
    slo=None,
    block: bool = True,
    deadline_s: Optional[float] = None,
    on_arrival: Optional[Callable[[int], None]] = None,
) -> LoadResult:
    """Open-loop load: one request per arrival offset, then drain.

    ``target`` is an :class:`InferenceService` or a
    :class:`~repro.serving.cluster.ClusterService`.  ``model`` names one
    model or gives one name per arrival; ``images`` is that model's inputs
    or a mapping model → inputs.  Each arrival submits the next input of
    its model, cycling, so a single-model run offers ``images[i %
    len(images)]``.  ``slo`` is one SLO class or one per arrival.

    ``block=True`` lets a saturated target backpressure the arrival clock
    (the only admission an :class:`InferenceService` has); ``block=False``
    submits non-blocking, so an overloaded cluster's sheds are counted —
    with the router's suggested retry-after — and the clock never stalls.
    ``deadline_s`` is the cluster's end-to-end per-request deadline.
    ``on_arrival(i)`` runs just before arrival ``i`` submits.

    After the last arrival every admitted future is drained; one still
    unresolved :data:`DRAIN_TIMEOUT_S` later raises :class:`RuntimeError`
    — silent loss never reports as success.
    """
    count = len(offsets)
    models = [model] * count if isinstance(model, str) else list(model)
    pools = images if isinstance(images, Mapping) else {model: images}
    slos = [slo] * count if slo is None or isinstance(slo, str) else list(slo)
    kwargs = {} if block else {"block": False}
    if deadline_s is not None:
        kwargs["timeout"] = deadline_s
    cursor = dict.fromkeys(pools, 0)
    inputs: List[Tuple[str, int]] = []
    outcomes = ["completed"] * count
    futures: dict = {}
    submitted: dict = {}
    resolved: dict = {}
    retry_after: List[float] = []

    def arrive(index: int) -> None:
        if on_arrival is not None:
            on_arrival(index)
        name = models[index]
        image_index = cursor[name] % len(pools[name])
        cursor[name] += 1
        inputs.append((name, image_index))
        extra = kwargs if slos[index] is None else dict(kwargs,
                                                        slo=slos[index])
        now = time.perf_counter()
        try:
            future = target.submit(name, pools[name][image_index], **extra)
        except ClusterOverloadError as exc:
            outcomes[index] = "shed"
            retry_after.append(exc.retry_after_s)
            return
        except DeadlineExceededError:
            outcomes[index] = "deadline_expired"
            return
        submitted[index] = now
        future.add_done_callback(
            lambda _f, key=index: resolved.__setitem__(key,
                                                       time.perf_counter()))
        futures[index] = future

    t0 = run_arrival_schedule(offsets, arrive)
    drain_deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    outputs: dict = {}
    for index, future in futures.items():
        try:
            outputs[index] = future.result(
                timeout=max(1.0, drain_deadline - time.perf_counter()))
        # DeadlineExceededError is a TimeoutError too: it must be caught
        # before the drain's own timeout.
        except DeadlineExceededError:
            outcomes[index] = "deadline_expired"
        except WorkerCrashError:
            outcomes[index] = "failed"
        except FuturesTimeoutError:
            raise RuntimeError(
                f"hung future: arrival {index} unresolved "
                f"{DRAIN_TIMEOUT_S:.0f}s after the last arrival — the "
                "target lost track of admitted work") from None
    wall_s = time.perf_counter() - t0
    report = None
    if isinstance(model, str):
        try:
            report = target.report(model)
        except KeyError:  # nothing admitted
            pass
    return LoadResult(
        wall_s=wall_s,
        offsets=np.asarray(offsets, dtype=np.float64),
        inputs=tuple(inputs),
        outcomes=tuple(outcomes),
        outputs=outputs,
        latency_s={index: resolved.get(index, time.perf_counter())
                   - submitted[index] for index in outputs},
        retry_after_ms_mean=(1000.0 * sum(retry_after) / len(retry_after)
                             if retry_after else 0.0),
        report=report,
    )


def matches_baseline(cluster, result: LoadResult, images) -> bool:
    """Whether every completed row of ``result`` is bit-identical to the
    cluster's fault-free single-process baseline over the same inputs.

    ``images`` is what :func:`drive` was given (one model's inputs, or a
    mapping model → inputs).
    """
    if not result.outputs:
        return True
    pools = (images if isinstance(images, Mapping)
             else {result.inputs[0][0]: images})
    baseline = cluster.baseline_service()
    try:
        expected = {name: run_closed_loop(baseline, name, rows).outputs
                    for name, rows in pools.items()}
    finally:
        baseline.close()
    return all(
        np.array_equal(row, expected[result.inputs[index][0]]
                       [result.inputs[index][1]])
        for index, row in result.outputs.items()
    )


def rollout_hook(cluster, network, model: str, publish_index: int,
                 rollback_index: Optional[int] = None,
                 rollout=None) -> Callable[[int], None]:
    """An ``on_arrival`` hook for a live-rollout drill under load.

    Publishes ``network`` as ``model``'s candidate (``rollout`` is its
    :class:`~repro.serving.rollout.RolloutConfig`) when the arrival cursor
    reaches ``publish_index``, so the canary → promote → commit sequence
    rides the drill's own traffic; at ``rollback_index`` an operator
    rollback aborts it (a no-op if the rollout is already terminal).
    """
    def hook(index: int) -> None:
        if index == publish_index:
            cluster.publish(network, model=model, rollout=rollout)
        if index == rollback_index:
            try:
                cluster.rollback(model, reason="drill operator rollback")
            except (KeyError, RuntimeError):
                pass  # already terminal — nothing to abort

    return hook


def settle_rollout(cluster, model: str, timeout_s: float = 15.0) -> dict:
    """Wait (bounded) for ``model``'s rollout to reach a terminal phase and
    return its status record — the live phase if it never does.

    The cluster's control thread keeps ticking the rollout's timeouts, so
    the wait cannot hang past ``timeout_s``.
    """
    deadline = time.perf_counter() + timeout_s
    status = cluster.rollout_status(model)[0]
    while (status["phase"] not in ("committed", "rolled_back")
           and time.perf_counter() < deadline):
        time.sleep(0.05)
        status = cluster.rollout_status(model)[0]
    return status
