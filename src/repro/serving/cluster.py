"""Sharded multi-worker serving: N workers, one digest-addressed model zoo.

The single-process :class:`~repro.serving.service.InferenceService` is
capped by the GIL once the fused kernels saturate one interpreter.
:class:`ClusterService` scales horizontally:

* the packed model zoo is serialized **once** into shared memory
  (:mod:`repro.serving.shm_store`); every same-host worker attaches
  read-only and zero-copy — no per-worker unpack, no N× weight memory —
  while remote workers fetch each artifact's bytes once per host into a
  digest-keyed :class:`~repro.serving.shm_store.HostModelCache`;
* each worker hosts a warmed :class:`InferenceService` (micro-batching,
  fused plans compiled at attach time) and talks to the front end over a
  framed socket (:mod:`repro.serving.transport`): a private Unix-domain
  socket to forked children on one host, UDS or TCP across hosts;
* the front end routes with least-outstanding-requests balancing and
  per-model consistent tie-breaking (:mod:`repro.serving.router`), applies
  admission control (bounded per-worker outstanding windows,
  shed-with-retry-after on overload), supervises worker health (heartbeats
  plus connection loss, crash → respawn/re-admission + requeue of in-flight
  work) and aggregates per-worker
  :class:`~repro.serving.service.ServiceReport` s into a cluster-wide view.

``ClusterService`` duck-types the service surface the load generators use
(``submit`` / ``submit_batch`` / ``infer`` / ``report`` / ``close``), so
:func:`repro.serving.loadgen.run_closed_loop` and ``run_open_loop`` drive a
cluster unmodified.  Outputs are bit-identical to a single-process service
serving the same published artifact regardless of transport
(``tests/test_cluster.py``, ``tests/test_transport.py`` and
``benchmarks/bench_cluster_scaling.py`` gate this).

See ``docs/architecture.md`` for where this layer sits in the system and
``docs/deployment.md`` for the operator's guide (topologies, transport
selection, failure semantics).
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.reporting import format_kv
from repro.serving.autoscale import Autoscaler, AutoscaleConfig, AutoscaleSignals
from repro.serving.cache import CacheStats, LRUResponseCache, response_cache_key
from repro.serving.faults import FaultInjector, FaultPlan
from repro.serving.metrics import LatencyTracker
from repro.serving.rollout import RolloutConfig, RolloutController
from repro.serving.router import (
    SLO_CLASSES,
    LeastOutstandingRouter,
    QuarantinePolicy,
    RouterStats,
    pin_counts_from_shares,
    rendezvous_score,
    validate_slo,
)
from repro.serving.scheduler import TRIGGERS, SchedulerStats
from repro.serving.service import ServiceReport
from repro.serving.shm_store import SharedModelStore, ShmModelHandle, attach_model
from repro.serving.transport import (
    PipeTransport,
    SocketTransport,
    TransportClosed,
    WorkerEndpoint,
    _private_uds_address,
)

__all__ = [
    "AutoscaleConfig",
    "ClusterOverloadError",
    "ClusterReport",
    "ClusterService",
    "DeadlineExceededError",
    "RetryPolicy",
    "RolloutConfig",
    "RolloutController",
    "SLOPolicy",
    "DEFAULT_SLO_POLICIES",
    "WorkerCrashError",
    "WorkerConfig",
    "open_loop_sweep",
    "scaling_sweep",
]


class ClusterOverloadError(RuntimeError):
    """Raised when every worker is at its admission bound (request shed).

    ``retry_after_s`` is the suggested client back-off before retrying.
    """

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(
            f"cluster saturated; retry after {retry_after_s * 1000.0:.1f} ms"
        )
        self.retry_after_s = retry_after_s


class WorkerCrashError(RuntimeError):
    """A request's worker died and the request could not be re-dispatched."""


class DeadlineExceededError(TimeoutError):
    """A request's end-to-end deadline passed before it completed.

    Raised synchronously by :meth:`ClusterService.submit` when the
    deadline expires while still waiting for admission, set on the
    request's future when it expires after admission — in both cases the
    work is dropped (a dispatch is never sent for it once expired, and a
    dispatched-but-expired request's slots are released immediately), so
    a caller that has already timed out never keeps burning worker time.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """When the front end re-dispatches or hedges a slow request.

    All timing is derived from the model's **live p99 latency** (the
    router-side end-to-end tracker) once ``min_samples`` completions have
    been observed; before that the heartbeat timeout stands in — a lost
    first frame must still retry on a cold cluster.  Attempt ``k``'s
    patience is ``timeout_factor × p99 × backoff_factor^(k-1)``: the
    exponential growth is the retry back-off, spacing successive
    re-dispatches apart so a briefly degraded fleet is not flooded with
    duplicates.  The p99-derived base is clamped to
    ``[min_timeout_s, max_timeout_s]``: rescued requests record their
    *full* wait (including retry delays) into the same tracker the next
    patience is derived from, and without the absolute ceiling that
    feedback loop inflates p99 faster than stuck requests can catch it —
    retries would chase a threshold that keeps running away.

    A request whose final attempt also outlives its patience fails
    terminally with :class:`WorkerCrashError` (slots released, never
    leaked) — admitted work always resolves, one way or the other.

    A **retry** moves the request: the unresponsive assignee is demoted
    (its slot stays held and is released by the existing generation-scoped
    accounting when its late answer arrives, or credited when it dies —
    never leaked), a failure is recorded against it for quarantine
    purposes, and the request is force-dispatched to a different worker.

    A **hedge** (``hedge=True``) duplicates the request instead of
    waiting for the full attempt timeout: after ``hedge_factor × p99``
    a second copy is dispatched to another eligible worker *without*
    force (a saturated fleet sheds hedges first) and the first response
    wins — bit-identical outputs make the winner indistinguishable — with
    the loser's slot released by the same late-answer accounting.
    """

    #: Total dispatch attempts per request, including the first.
    max_attempts: int = 3
    #: Attempt timeout as a multiple of the model's live p99.
    timeout_factor: float = 8.0
    #: Exponential growth of successive attempt timeouts (the back-off).
    backoff_factor: float = 2.0
    #: Floor under every derived timeout/delay (p99 of a trivial model can
    #: be tens of microseconds; re-dispatching at that cadence would melt
    #: the cluster).
    min_timeout_s: float = 0.05
    #: Ceiling over every derived timeout/delay — breaks the p99 feedback
    #: loop described above.  Per-attempt back-off still multiplies on
    #: top of the clamped base.
    max_timeout_s: float = 2.0
    #: Dispatch a duplicate after ``hedge_factor`` × p99 instead of
    #: waiting out the attempt timeout.
    hedge: bool = False
    hedge_factor: float = 3.0
    #: Completions observed for a model before its p99 is trusted.
    min_samples: int = 20

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout_factor <= 0 or self.hedge_factor <= 0:
            raise ValueError("timeout_factor and hedge_factor must be > 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        if self.min_timeout_s <= 0:
            raise ValueError("min_timeout_s must be positive")
        if self.max_timeout_s < self.min_timeout_s:
            raise ValueError("max_timeout_s must be >= min_timeout_s")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")


@dataclass(frozen=True)
class SLOPolicy:
    """Per-SLO-class serving defaults: latency budget, deadline, retry.

    One row of the cluster's ``slo_policies`` table.  A request submitted
    with ``slo=<class>`` and no explicit ``timeout`` inherits the class's
    ``deadline_s``; ``max_attempts`` and ``hedge`` override the cluster's
    :class:`RetryPolicy` per class (``None`` keeps the policy's value) —
    an interactive tier typically hedges while the batch tier must not
    burn duplicate capacity.  ``latency_budget_ms`` is the per-request
    latency target the scenario harness measures **SLO attainment**
    against; the admission path itself never reads it.
    """

    slo: str
    #: Per-request latency target (attainment accounting, not enforcement).
    latency_budget_ms: float
    #: Default end-to-end deadline for the class; ``None`` = no deadline.
    deadline_s: Optional[float] = None
    #: Override of ``RetryPolicy.max_attempts`` (``None`` = inherit).
    max_attempts: Optional[int] = None
    #: Override of ``RetryPolicy.hedge`` (``None`` = inherit).
    hedge: Optional[bool] = None

    def __post_init__(self) -> None:
        validate_slo(self.slo)
        if self.latency_budget_ms <= 0:
            raise ValueError("latency_budget_ms must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive or None")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1 or None")


#: Stock per-class policy table: interactive hedges under a tight budget
#: and deadline, standard rides the cluster-wide retry policy, batch gets
#: a loose budget, no deadline and never hedges.  Scenario specs override
#: the budgets per tenant; the table is the fallback.
DEFAULT_SLO_POLICIES: Mapping[str, SLOPolicy] = {
    "interactive": SLOPolicy("interactive", latency_budget_ms=250.0,
                             deadline_s=2.0, hedge=True),
    "standard": SLOPolicy("standard", latency_budget_ms=1000.0,
                          deadline_s=10.0),
    "batch": SLOPolicy("batch", latency_budget_ms=10000.0,
                       deadline_s=None, hedge=False),
}


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable per-worker service configuration."""

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    cache_capacity: int = 0
    chunk_bytes: Optional[int] = None
    threads: Optional[int] = 1
    heartbeat_interval_s: float = 0.2
    #: Kernel-backend spec each worker applies while warming its plans
    #: (:data:`repro.core.backends.BACKEND_CHOICES`).  ``auto`` compiles
    #: where the worker's host allows and silently falls back to NumPy —
    #: selection is per host, so a heterogeneous cluster mixes backends
    #: safely (results are bit-identical by the verification gate).
    backend: str = "auto"


# ---------------------------------------------------------------------------
# front end
# ---------------------------------------------------------------------------

@dataclass
class _Pending:
    """Front-end record of one dispatched request."""

    future: Future
    model: str
    image: np.ndarray
    worker: str
    submitted_at: float
    requeues: int = 0
    #: Router registration generation of ``worker`` when the slot was
    #: acquired — scopes the eventual ``release`` to that incarnation.
    generation: int = 0
    #: Caller's end-to-end deadline (``perf_counter`` clock); ``None`` =
    #: no deadline.  Expired entries are dropped, never dispatched.
    deadline: Optional[float] = None
    #: When the *current* primary dispatch went out (retry/hedge timers).
    dispatched_at: float = 0.0
    #: Dispatch attempts so far (the first dispatch counts).
    attempts: int = 1
    #: A hedge duplicate is already in flight.
    hedged: bool = False
    #: SLO class the request was admitted under (``None`` = unclassed,
    #: treated as ``standard`` by the router's tiered admission).
    slo: Optional[str] = None
    #: Extra live slot holders beyond ``worker`` — demoted slow assignees
    #: and hedge duplicates, as ``{worker_id: generation}``.  Their slots
    #: are released when their (late) answers arrive or credited when
    #: they die; first answer from *any* holder wins the future.
    holders: Dict[str, int] = field(default_factory=dict)
    #: Artifact version the dispatch is tagged with — the model's serving
    #: digest at dispatch time (or the rollout's new digest for a canary
    #: probe).  A worker executes exactly this version, never "whatever is
    #: active locally", so a mid-rollout fleet can never serve a mix of
    #: digests to one request.
    digest: str = ""
    #: Front-end response-cache key (miss path populates the cache on
    #: completion); ``None`` when caching is off or the entry is a probe.
    cache_key: Optional[str] = None
    #: Canary probe: an internal mirror dispatch.  Never retried, never
    #: hedged, never requeued on worker death — its only consumer is the
    #: rollout controller's comparison, and a dropped probe is just a
    #: sample that never happened.
    probe: bool = False


@dataclass
class _Worker:
    """Front-end view of one worker, behind its transport endpoint."""

    worker_id: str
    endpoint: WorkerEndpoint
    spawned_at: float
    ready: bool = False
    pid: Optional[int] = None
    last_heartbeat: float = 0.0
    attach_ms: Dict[str, float] = field(default_factory=dict)
    ready_ms: float = 0.0
    stopping: bool = False
    #: Router registration generation (assigned at ``ready``).
    generation: int = 0
    #: Models this worker attaches/serves; ``None`` = every published model
    #: (the unpinned fleet).
    models: Optional[Set[str]] = None


class _ModelTraffic:
    """Router-side per-model accounting (end-to-end, includes IPC)."""

    def __init__(self) -> None:
        self.latencies = LatencyTracker()
        self.requests = 0
        self.shed = 0
        self.first_submit: Optional[float] = None
        self.last_done: Optional[float] = None
        #: Front-end response-cache counters.  Hits resolve before
        #: admission, so the hit count depends only on the request stream
        #: and the serving digest — never on which worker the request
        #: would have routed to.
        self.cache_hits = 0
        self.cache_misses = 0


@dataclass
class _Rollout:
    """Front-end state of one live rollout: the pure controller plus the
    artifact handles its decisions act on."""

    controller: RolloutController
    old_handle: ShmModelHandle
    new_handle: ShmModelHandle
    #: Terminal phase has been executed (handles flipped / flip-back and
    #: detach of the losing version queued).
    finalized: bool = False
    #: Commit done; the old version awaits detach once no in-flight
    #: request is tagged with it.
    retiring: bool = False


class _CanaryComparison:
    """Pairs one client request with its mirrored canary probe.

    The client always receives the *stable* answer; the probe is an
    internal duplicate against the rollout's new digest.  Once both
    futures resolve, exactly one comparison sample is reported to the
    rollout controller — or none at all when either side failed for
    infrastructure reasons (worker crash, deadline, cluster close): a
    dead worker says nothing about the new weights.  A probe that fails
    where the stable answer succeeded for any *other* reason counts as a
    mismatch — the new version errored on an input the old one serves.
    """

    _NO_SAMPLE_ERRORS = (WorkerCrashError, DeadlineExceededError,
                         ClusterOverloadError)

    def __init__(self, cluster: "ClusterService", model: str,
                 new_digest: str) -> None:
        self._cluster = cluster
        self._model = model
        self._new_digest = new_digest
        self._lock = threading.Lock()
        self._started: Dict[str, float] = {}
        self._results: Dict[str, tuple] = {}

    def watch(self, which: str, future: Future) -> None:
        self._started[which] = time.perf_counter()
        future.add_done_callback(lambda f, w=which: self._done(w, f))

    def _done(self, which: str, future: Future) -> None:
        latency_s = time.perf_counter() - self._started[which]
        error = future.exception()
        value = None if error is not None else future.result()
        with self._lock:
            self._results[which] = (error, value, latency_s)
            if len(self._results) < 2:
                return
            stable_error, stable_value, stable_s = self._results["stable"]
            canary_error, canary_value, canary_s = self._results["canary"]
        if stable_error is not None:
            return  # no stable answer to compare against
        if canary_error is not None:
            if isinstance(canary_error, self._NO_SAMPLE_ERRORS):
                return  # infrastructure loss, not a model verdict
            match = False
        else:
            match = bool(np.array_equal(stable_value, canary_value))
        self._cluster._record_comparison(self._model, self._new_digest,
                                         match, stable_s, canary_s)


@dataclass(frozen=True)
class ClusterReport:
    """Cluster-wide aggregation of per-worker serving reports."""

    workers: int
    models: Tuple[str, ...]
    #: ``{worker_id: {model: ServiceReport}}`` exactly as the workers sent.
    worker_reports: Dict[str, Dict[str, ServiceReport]]
    #: Aggregated per-model view (router-side latency, summed counters).
    aggregated: Dict[str, ServiceReport]
    router: RouterStats
    respawns: int
    requeued: int
    shed: int
    attach_ms_mean: float
    store_bytes: int
    #: Requests dropped because their end-to-end deadline passed.
    deadline_expired: int = 0
    #: Slow-attempt re-dispatches (RetryPolicy timeouts, not crash requeues).
    retries: int = 0
    #: Hedge duplicates dispatched.
    hedges: int = 0
    #: Workers currently quarantined by the router's health layer.
    quarantined: int = 0

    def table(self, model: Optional[str] = None) -> str:
        """Aligned rendering: cluster summary plus one model's aggregate."""
        rows = [
            ("workers", self.workers),
            ("models", ", ".join(self.models)),
            ("dispatched", self.router.dispatched),
            ("shed", self.shed),
            ("requeued", self.requeued),
            ("respawns", self.respawns),
            ("deadline expired", self.deadline_expired),
            ("retries", self.retries),
            ("hedges", self.hedges),
            ("quarantined", self.quarantined),
            ("shm attach mean (ms)", self.attach_ms_mean),
            ("store bytes", self.store_bytes),
        ]
        parts = [format_kv(rows, title="Cluster report")]
        keys = [model] if model else list(self.aggregated)
        for key in keys:
            parts.append(self.aggregated[key].table())
        return "\n\n".join(parts)


def _merge_scheduler_stats(stats: Sequence[SchedulerStats]) -> SchedulerStats:
    """Sum per-worker scheduler counters into one cluster-wide view."""
    triggers = {trigger: 0 for trigger in TRIGGERS}
    batches = []
    for s in stats:
        for name, count in s.trigger_counts.items():
            triggers[name] = triggers.get(name, 0) + count
        batches.extend(s.batches)
    return SchedulerStats(
        submitted=sum(s.submitted for s in stats),
        completed=sum(s.completed for s in stats),
        failed=sum(s.failed for s in stats),
        batch_count=sum(s.batch_count for s in stats),
        batched_requests=sum(s.batched_requests for s in stats),
        trigger_counts=triggers,
        batches=batches,
        max_queue_depth=max((s.max_queue_depth for s in stats), default=0),
    )


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores even inside an
    affinity/cgroup-limited container, which would let the scaling gate
    demand parallelism that does not exist; the scheduler affinity mask is
    the honest number where available.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class _FaultController:
    """The cluster surface a :class:`FaultInjector` fires faults through."""

    def __init__(self, cluster: "ClusterService") -> None:
        self._cluster = cluster

    def worker_ids(self) -> List[str]:
        with self._cluster._lock:
            return sorted(
                w.worker_id for w in self._cluster._workers.values()
                if w.ready and not w.stopping
            )

    def kill(self, worker_id: str) -> None:
        with self._cluster._lock:
            worker = self._cluster._workers.get(worker_id)
        if worker is not None:
            worker.endpoint.kill()

    def stall(self, worker_id: str, seconds: float) -> None:
        with self._cluster._lock:
            worker = self._cluster._workers.get(worker_id)
        if worker is None:
            return
        try:
            worker.endpoint.send(("stall", float(seconds)))
        except (TransportClosed, ValueError, OSError):
            pass  # dying link: close enough to a stall already


class ClusterService:
    """Front end of the sharded serving cluster.

    Parameters
    ----------
    models:
        Serving-zoo model names to publish (ignored when ``store`` already
        holds published handles).
    workers:
        Number of worker processes to spawn.
    store:
        An externally owned :class:`SharedModelStore`; by default the
        cluster builds the models, publishes them and owns the store.
    max_batch_size / max_wait_ms / cache_capacity / chunk_bytes:
        Per-worker :class:`InferenceService` configuration.  Worker response
        caches default to **off** — a cluster-wide cache lives on the
        roadmap, and per-worker caches would make hit rates routing-shaped.
    worker_threads:
        Fused-executor threads per worker (default 1: the cluster already
        provides the process-level parallelism).
    worker_backend:
        Kernel-backend spec workers warm their plans with (``auto`` /
        ``numpy`` / ``cffi``; default ``auto`` — compiled
        kernels where each worker's host allows, NumPy fallback
        otherwise).
    max_outstanding:
        Admission bound per worker (default ``2 × max_batch_size``): enough
        queued work to cut full micro-batches back-to-back, small enough
        that overload sheds instead of building unbounded queues.
    heartbeat_interval_s / heartbeat_timeout_s:
        Worker liveness reporting and the staleness threshold after which
        the supervisor declares a worker dead.
    max_respawns:
        Total crash-respawn budget (default: ``workers``).
    mp_context:
        How the ``pipe`` transport starts its worker processes: ``"fork"``
        / ``"spawn"`` / a context object; default prefers fork (instant
        worker start; the plan module resets its thread pools via
        ``os.register_at_fork``).
    transport:
        ``"pipe"`` (default: ``multiprocessing`` children on a private
        Unix-domain socket), ``"uds"`` / ``"tcp"`` (exec'd ``repro.cli
        cluster-worker`` processes; external workers may dial in too), or a
        ready-made transport object.  Every worker runs the same
        self-registering serve loop; see :mod:`repro.serving.transport`.
    bind:
        ``uds`` / ``tcp`` listen address (``tcp://host:port``,
        ``uds:///path``).  Defaults: TCP loopback on an ephemeral port, or
        a temp-dir socket path.  The resolved address is
        ``cluster.transport.address``.
    expect_workers:
        Additionally wait at startup for this many *externally launched*
        workers to self-register (``uds`` / ``tcp`` only) — the two-
        terminal topology in ``docs/deployment.md``.  ``workers=0`` with
        ``expect_workers>0`` runs the router with no locally spawned
        workers at all.
    reconnect_grace_s:
        After a worker's connection drops while its process is
        still alive, how long requeued work may park waiting for the
        reconnection before the worker is declared dead for good.
    pin_models:
        ``{model: K}`` per-model pinning widths: each listed model routes
        only within the top-``K`` workers of its rendezvous preference
        order, and each worker attaches **only** the artifacts pinned to
        it (unlisted models pin fleet-wide).  Cuts warm time and
        per-worker plan memory on heterogeneous fleets; the cluster keeps
        the attached sets converging on the top-K target as membership
        churns (see :meth:`_refresh_pinning`).
    autoscale:
        An :class:`~repro.serving.autoscale.AutoscaleConfig` enabling the
        elastic control loop: grow the fleet on sustained shedding,
        shrink it on sustained idleness, within the config's bounds
        (``workers`` is clamped into them at startup).  Scale events are
        recorded on :attr:`autoscale_events`; :meth:`scale_up` /
        :meth:`scale_down` expose the same machinery for manual and
        test-driven scale events.
    retry:
        A :class:`RetryPolicy` enabling slow-attempt re-dispatch (and,
        with ``hedge=True``, duplicate dispatch after a p99-based delay;
        first bit-identical response wins).  ``None`` (default) keeps the
        pre-existing behavior: a dispatched request waits for its worker
        however long that takes.
    quarantine:
        A :class:`~repro.serving.router.QuarantinePolicy` enabling
        health-driven ejection of degraded workers from routing
        eligibility, with probation re-admission on clean heartbeats.
    faults:
        A :class:`~repro.serving.faults.FaultPlan` (or a prepared
        :class:`~repro.serving.faults.FaultInjector`) armed against this
        cluster: worker endpoints and inbound delivery are threaded
        through its frame rules, and its scheduler fires crash/stall/
        partition faults at the seeded times.  The fired schedule is on
        :attr:`fault_events`.  Test/benchmark machinery — never enable in
        production serving.
    slo_reserves:
        ``{class: slots}`` enabling SLO-class tiered admission on the
        router: each class may only fill a worker up to
        ``max_outstanding - slots``, so under pressure batch sheds before
        standard before interactive (see
        :func:`~repro.serving.router.default_slo_reserves`).
    slo_policies:
        ``{class: SLOPolicy}`` per-class serving defaults.  A
        ``submit(slo=...)`` without an explicit ``timeout`` inherits the
        class's ``deadline_s``, and the class's ``max_attempts`` /
        ``hedge`` override the cluster :class:`RetryPolicy` for its
        requests.  ``None`` (default) leaves every class on the shared
        knobs — existing unclassed traffic is unaffected.
    """

    def __init__(
        self,
        models: Sequence[str] = ("MicroCNN",),
        workers: int = 2,
        store: Optional[SharedModelStore] = None,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        cache_capacity: int = 0,
        chunk_bytes: Optional[int] = None,
        worker_threads: Optional[int] = 1,
        worker_backend: str = "auto",
        max_outstanding: Optional[int] = None,
        heartbeat_interval_s: float = 0.2,
        heartbeat_timeout_s: float = 3.0,
        max_respawns: Optional[int] = None,
        mp_context=None,
        startup_timeout_s: float = 120.0,
        rng: int = 0,
        word_size: int = 64,
        transport="pipe",
        bind: Optional[str] = None,
        expect_workers: int = 0,
        reconnect_grace_s: float = 15.0,
        pin_models: Optional[Mapping[str, int]] = None,
        autoscale: Optional[AutoscaleConfig] = None,
        retry: Optional[RetryPolicy] = None,
        quarantine: Optional[QuarantinePolicy] = None,
        faults: Optional[FaultPlan] = None,
        slo_reserves: Optional[Mapping[str, int]] = None,
        slo_policies: Optional[Mapping[str, SLOPolicy]] = None,
    ) -> None:
        if expect_workers and (transport == "pipe"
                               or isinstance(transport, PipeTransport)):
            raise ValueError("expect_workers requires the uds or tcp transport")
        if workers < 1 and expect_workers < 1:
            raise ValueError("workers must be at least 1")
        self.autoscaler = (Autoscaler(autoscale) if autoscale is not None
                           else None)
        if autoscale is not None and workers >= 1:
            workers = min(max(workers, autoscale.min_workers),
                          autoscale.max_workers)
        self.transport = self._build_transport(transport, bind, mp_context)
        self._startup_target = workers + expect_workers
        self.reconnect_grace_s = reconnect_grace_s

        self._owns_store = store is None
        self.store = store or SharedModelStore()
        if not self.store.handles():
            self.store.publish_models(models, rng=rng, word_size=word_size)
        self._handles = self.store.handles()
        if pin_models:
            unknown = sorted(set(pin_models) - set(self._handles))
            if unknown:
                raise KeyError(
                    f"pin_models references unpublished models {unknown}; "
                    f"published: {sorted(self._handles)}"
                )
            self._pinning: Optional[Dict[str, int]] = {
                model: int(count) for model, count in pin_models.items()
            }
        else:
            self._pinning = None

        # The response cache is **cluster-wide**: one LRU on the front
        # end, keyed by (model, serving digest, input digest).  Workers
        # run cache-less (cache_capacity=0 in their config) — per-worker
        # caches would make hit rates routing-shaped, where the same
        # repeated request hits or misses depending on which worker the
        # balancer picked.  Digest-keyed entries also make a rollback
        # safe: the rolled-back version's responses can never serve for
        # the restored one.
        self._cache_capacity = cache_capacity
        self._response_cache = (LRUResponseCache(cache_capacity)
                                if cache_capacity else None)
        self.config = WorkerConfig(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            cache_capacity=0,
            chunk_bytes=chunk_bytes,
            threads=worker_threads,
            heartbeat_interval_s=heartbeat_interval_s,
            backend=worker_backend,
        )
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.retry_policy = retry
        #: How long a parked slot waits for its holder's late answer
        #: before the monitor reaps it (the answer frame may be lost for
        #: good under fault injection or a half-dead link).
        self._stale_grace_s = max(5.0, heartbeat_timeout_s)
        self.router = LeastOutstandingRouter(
            max_outstanding=max_outstanding or 2 * max_batch_size,
            pin_counts=self._pinning,
            quarantine=quarantine,
            slo_reserves=slo_reserves,
        )
        if slo_policies is not None:
            for name, slo_policy in slo_policies.items():
                if validate_slo(name) != slo_policy.slo:
                    raise ValueError(
                        f"slo_policies[{name!r}] carries class "
                        f"{slo_policy.slo!r}"
                    )
        self.slo_policies = (dict(slo_policies)
                             if slo_policies is not None else None)
        self.max_respawns = workers if max_respawns is None else max_respawns
        if isinstance(faults, FaultInjector):
            self._faults: Optional[FaultInjector] = faults
        elif faults is not None:
            self._faults = faults.injector()
        else:
            self._faults = None

        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._report_arrived = threading.Condition(self._lock)
        self._report_inbox: Dict[tuple, Dict[str, ServiceReport]] = {}
        self._report_gen = 0
        self._workers: Dict[str, _Worker] = {}
        self._pending: Dict[int, _Pending] = {}
        self._orphans: List[int] = []  #: admitted req ids awaiting a worker
        #: ``{rid: {worker_id: generation}}`` — slots still held for an
        #: already-answered (or expired) request: demoted slow assignees,
        #: losing hedges, and replacements a stale assignee outran.  Each
        #: worker's late answer releases exactly its own slot, scoped to
        #: the incarnation that acquired it.
        self._stale_holders: Dict[int, Dict[str, int]] = {}
        self._traffic: Dict[str, _ModelTraffic] = {}
        self._init_errors: List[str] = []
        self._next_rid = 0
        self._next_worker = 0
        self._respawns = 0
        self._requeued = 0
        self._deadline_expired = 0
        self._retries = 0
        self._hedges = 0
        self._closed = False
        #: Live rollouts, one per model: ``{canonical name: _Rollout}``.
        self._rollouts: Dict[str, "_Rollout"] = {}
        #: Finished rollout controllers (timeline/status after the fact).
        self._rollout_history: List[RolloutController] = []
        #: ``("detached", worker, items, freed_bytes)`` acks, for tests
        #: asserting attach revocation actually freed worker memory.
        self._detach_log: List[tuple] = []
        #: Workers the router launched that have not yet said hello, keyed
        #: by pid (``subprocess.Popen`` or a Popen-shaped process handle).
        self._spawn_pending: Dict[int, subprocess.Popen] = {}
        #: Workers whose link dropped but whose process is alive and
        #: expected to dial back: ``{pid: (popen, deadline)}``.
        self._rejoin_pending: Dict[int, tuple] = {}

        deliver = (self._handle_message if self._faults is None
                   else self._faulty_deliver)
        self.transport.start(deliver=deliver,
                             register=self._register_worker)
        for _ in range(workers):
            self._spawn_worker()

        self._supervisor_thread = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True
        )
        self._supervise_stop = threading.Event()
        self._supervisor_thread.start()

        self._monitor_thread = threading.Thread(
            target=self._monitor_pending, name="cluster-monitor", daemon=True
        )
        self._monitor_thread.start()

        self._wait_ready(startup_timeout_s)

        # Arm the fault schedule only once the fleet is up: scheduled
        # faults are meant to hit a serving cluster, not its startup
        # handshake (frame rules cover the request path from here on).
        if self._faults is not None and not self._faults.started:
            self._faults.start(_FaultController(self),
                               deliver=self._handle_message)

        self._autoscale_thread: Optional[threading.Thread] = None
        if self.autoscaler is not None:
            self._autoscale_thread = threading.Thread(
                target=self._autoscale_loop, name="cluster-autoscale",
                daemon=True,
            )
            self._autoscale_thread.start()

    # ------------------------------------------------------------- lifecycle
    @staticmethod
    def _build_transport(transport, bind: Optional[str], mp_context):
        if not isinstance(transport, str):
            return transport
        if transport == "pipe":
            if bind is not None:
                raise ValueError("bind is only meaningful for uds and tcp")
            return PipeTransport(mp_context=mp_context)
        if transport == "tcp":
            return SocketTransport(bind or "tcp://127.0.0.1:0")
        if transport == "uds":
            return SocketTransport(bind or _private_uds_address())
        raise ValueError(
            f"unknown transport {transport!r}; expected pipe, uds or tcp"
        )

    # ------------------------------------------------------------- pinning
    def _desired_assignment(self, worker_ids: Sequence[str]
                            ) -> Dict[str, Set[str]]:
        """Ideal ``{worker_id: models}`` layout under the pin counts.

        Each model goes to the top-``K`` of ``worker_ids`` by rendezvous
        score (``K`` clamped into ``[1, len(worker_ids)]``; unlisted models
        pin fleet-wide) — the same ordering the router's eligibility layer
        uses, so the attached sets and the routing sets agree.
        """
        ids = list(worker_ids)
        desired: Dict[str, Set[str]] = {wid: set() for wid in ids}
        for model in self._handles:
            count = (len(ids) if self._pinning is None
                     else self._pinning.get(model, len(ids)))
            count = max(1, min(int(count), len(ids)))
            ranked = sorted(
                ids, key=lambda wid: rendezvous_score(model, wid),
                reverse=True,
            )
            for wid in ranked[:count]:
                desired[wid].add(model)
        return desired

    def _prospective_ids(self, new_id: Optional[str] = None) -> List[str]:
        """Worker ids to lay models out over (lock held by caller).

        Live non-stopping workers, plus ``new_id``, plus — during initial
        startup — the ids the remaining planned spawns will get, so the
        first worker up does not attach everything only to strand the
        surplus once its peers arrive.
        """
        ids = {w.worker_id for w in self._workers.values() if not w.stopping}
        if new_id is not None:
            ids.add(new_id)
        for i in range(self._next_worker, self._startup_target):
            ids.add(f"w{i}")
        return sorted(ids)

    def _assigned_models(self, worker_id: str) -> Optional[Set[str]]:
        """Models a fresh ``worker_id`` should attach (lock held by caller);
        ``None`` (attach everything) when pinning is off."""
        if self._pinning is None:
            return None
        desired = self._desired_assignment(self._prospective_ids(worker_id))
        return desired.get(worker_id, set())

    def _spawn_worker(self) -> None:
        """Launch one router-owned worker; it joins when its hello arrives."""
        with self._lock:
            # Launch under the lock: a forked child can say hello before
            # launch_worker returns, and its registration must find its pid
            # pending (or it would be admitted as an external worker).
            process = self.transport.launch_worker()
            self._spawn_pending[process.pid] = process

    def _register_worker(self, channel, hello: dict):
        """Admit a worker that said hello (new spawn or reconnect).

        Runs on the transport's handshake thread.  Returns the endpoint to
        start reading from, or ``None`` to reject (cluster closed).
        """
        pid = hello.get("pid")
        if self._faults is not None:
            # Slow-start fault: hold this (re)registration on the handshake
            # thread — parked work keeps waiting out its reconnect grace.
            delay = self._faults.reconnect_delay_s()
            if delay > 0:
                time.sleep(delay)
        with self._lock:
            if self._closed:
                return None
            worker_id = f"w{self._next_worker}"
            self._next_worker += 1
            assigned = self._assigned_models(worker_id)
            process = self._spawn_pending.pop(pid, None)
            rejoin = self._rejoin_pending.pop(pid, None)
            if rejoin is not None:
                # A reconnect restores capacity the same way a respawn does.
                # External workers have no router-held process (rejoin[0] is
                # None); router-launched ones carry their Popen forward.
                if process is None:
                    process = rejoin[0]
                self._respawns += 1
        endpoint = WorkerEndpoint(worker_id, channel, process)
        if self._faults is not None:
            endpoint = self._faults.wrap_endpoint(endpoint)
        manifest_handles = (list(self._handles.values()) if assigned is None
                            else [self._handles[m] for m in sorted(assigned)])
        manifest = [(h.model, h.digest, h.nbytes, h.shm_name)
                    for h in manifest_handles]
        try:
            endpoint.send(("welcome", worker_id, manifest, self.config))
        except TransportClosed:
            return None
        with self._lock:
            if self._closed:  # raced close(); do not admit
                return None
            self._workers[worker_id] = _Worker(
                worker_id=worker_id,
                endpoint=endpoint,
                spawned_at=time.perf_counter(),
                models=assigned,
            )
        return endpoint

    def _wait_ready(self, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        target = self._startup_target
        while True:
            with self._lock:
                errors = list(self._init_errors)
                ready = sum(1 for w in self._workers.values() if w.ready)
            if errors:
                self.close(drain=False)
                raise RuntimeError(
                    "cluster worker failed to initialize: " + "; ".join(errors)
                )
            if ready >= target:
                return
            if time.perf_counter() > deadline:
                self.close(drain=False)
                raise RuntimeError(
                    f"cluster startup timed out: {ready}/{target} workers ready"
                )
            time.sleep(0.01)

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop workers (draining in-flight work by default) and clean up."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            unjoined = list(self._spawn_pending.values())
            unjoined += [proc for proc, _ in self._rejoin_pending.values()
                         if proc is not None]
            self._spawn_pending.clear()
            self._rejoin_pending.clear()
        self._supervise_stop.set()
        if self._faults is not None:
            # No faults during teardown: drain must mean drain.
            self._faults.stop()
        for worker in workers:
            worker.stopping = True
            worker.endpoint.request_stop()
        deadline = time.perf_counter() + timeout_s
        if drain:
            while time.perf_counter() < deadline:
                with self._lock:
                    if not self._pending and not self._orphans:
                        break
                time.sleep(0.005)
        for worker in workers:
            worker.endpoint.shutdown(
                timeout_s=max(0.1, deadline - time.perf_counter())
            )
        for process in unjoined:  # never registered: nothing to drain
            process.terminate()
        for process in unjoined:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stragglers
                process.kill()
        self._fail_outstanding(RuntimeError("cluster closed"))
        # Stop inbound delivery after the endpoints are finished with.
        self.transport.close()
        if self._supervisor_thread.is_alive():
            self._supervisor_thread.join(timeout=5.0)
        monitor_thread = getattr(self, "_monitor_thread", None)
        if monitor_thread is not None and monitor_thread.is_alive():
            monitor_thread.join(timeout=5.0)
        autoscale_thread = getattr(self, "_autoscale_thread", None)
        if autoscale_thread is not None and autoscale_thread.is_alive():
            autoscale_thread.join(timeout=5.0)
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fail_outstanding(self, error: BaseException) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            self._orphans.clear()
            self._stale_holders.clear()
            self._slot_free.notify_all()
        for entry in pending:
            if not entry.future.done():
                entry.future.set_exception(error)

    # ------------------------------------------------------------- submission
    def canonical_name(self, model: str) -> str:
        for key in self._handles:
            if key.lower() == model.lower():
                return key
        raise KeyError(
            f"model {model!r} is not published; available: {sorted(self._handles)}"
        )

    def _traffic_for(self, model: str) -> _ModelTraffic:
        traffic = self._traffic.get(model)
        if traffic is None:
            traffic = self._traffic.setdefault(model, _ModelTraffic())
        return traffic

    def _cache_lookup(self, key: str, image: np.ndarray
                      ) -> Tuple[Optional[str], Optional[Future]]:
        """Front-end response-cache probe for one request.

        Returns ``(cache_key, resolved_future_or_None)``.  A hit resolves
        *before* admission — no slot, no dispatch, no routing — which is
        what makes the cluster-wide hit rate a property of the request
        stream and the serving digest alone, identical across 1, 2 or N
        workers.  The key includes the model's current serving digest, so
        a rollout commit (or rollback) naturally invalidates: the old
        version's entries can never answer for the new one.
        """
        if self._response_cache is None:
            return None, None
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            digest = self._handles[key].digest
            cache_key = response_cache_key(key, digest, image)
            cached = self._response_cache.get(cache_key)
            if cached is None:
                self._traffic_for(key).cache_misses += 1
                return cache_key, None
            now = time.perf_counter()
            traffic = self._traffic_for(key)
            traffic.cache_hits += 1
            traffic.requests += 1
            if traffic.first_submit is None:
                traffic.first_submit = now
            traffic.last_done = now
        future: Future = Future()
        future.set_running_or_notify_cancel()
        future.set_result(cached)
        return cache_key, future

    def cache_stats(self) -> Optional[CacheStats]:
        """Cluster-wide response-cache counters (``None`` when disabled)."""
        if self._response_cache is None:
            return None
        return self._response_cache.stats()

    def _admit(self, key: str, image: np.ndarray, block: bool,
               deadline: Optional[float], count_shed: bool = True,
               slo: Optional[str] = None,
               cache_key: Optional[str] = None) -> tuple:
        """Acquire a routing slot and register the pending entry.

        Returns ``(rid, worker_id, future)``; the caller is responsible for
        dispatching (:meth:`_dispatch`).  Raises
        :class:`ClusterOverloadError` on shed, :class:`WorkerCrashError`
        when the cluster has no workers left and no replacement is coming
        (waiting would hang forever), ``RuntimeError`` after close.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            traffic = self._traffic_for(key)
            while True:
                if not (self._workers or self._spawn_pending
                        or self._rejoin_pending):
                    # Every worker is gone and the respawn budget is spent —
                    # nothing will ever free a slot.
                    raise WorkerCrashError(
                        "cluster has no workers left and no replacement is coming"
                    )
                # record_shed=False: a blocked submitter polling for a slot
                # is waiting, not shedding — only the client-visible raise
                # below counts as a shed.
                worker_id = self.router.acquire(key, record_shed=False,
                                                slo=slo)
                if worker_id is not None and worker_id in self._workers:
                    break
                if worker_id is not None:
                    # Router raced a worker death; slot is already counted —
                    # undo and retry.
                    self.router.release(worker_id)
                if not block:
                    # count_shed=False marks an internal saturation *probe*
                    # (submit_batch flushing before it waits), which is not
                    # a client-visible shed.
                    if count_shed:
                        traffic.shed += 1
                        self.router.record_shed(slo)
                    raise ClusterOverloadError(
                        self.router.retry_after_s(self.config.max_wait_ms,
                                                  model=key, slo=slo)
                    )
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    # The caller's deadline passed while waiting for a
                    # slot: the work was never dispatched, never executed.
                    self._deadline_expired += 1
                    raise DeadlineExceededError(
                        f"deadline expired after waiting "
                        f"{-remaining * 1000.0:.1f} ms past it for admission"
                    )
                self._slot_free.wait(timeout=0.05 if remaining is None
                                     else min(0.05, remaining))
                if self._closed:
                    raise RuntimeError("cluster is closed")
            now = time.perf_counter()
            traffic.requests += 1
            if traffic.first_submit is None:
                traffic.first_submit = now
            rid = self._next_rid
            self._next_rid += 1
            future: Future = Future()
            future.set_running_or_notify_cancel()
            self._pending[rid] = _Pending(
                future=future, model=key, image=image, worker=worker_id,
                submitted_at=now, deadline=deadline, dispatched_at=now,
                generation=self._workers[worker_id].generation, slo=slo,
                digest=self._handles[key].digest, cache_key=cache_key,
            )
            return rid, worker_id, future

    def _dispatch(self, key: str, assignments: Sequence[tuple]) -> None:
        """Send admitted ``(rid, worker_id, image)`` entries, one queue
        message per worker.

        A worker whose queue was closed under us (its death handler won the
        race) gets its slots released and the requests re-dispatched rather
        than surfacing transport errors to clients.

        Requests whose deadline has already passed are dropped *here*,
        before any frame goes out — an expired request is never executed;
        its slot is released and its future fails with
        :class:`DeadlineExceededError`.
        """
        expired: List[Future] = []
        live: List[tuple] = []
        now = time.perf_counter()
        with self._lock:
            for rid, worker_id, image in assignments:
                entry = self._pending.get(rid)
                if entry is None:  # pragma: no cover - raced recovery
                    continue
                if entry.deadline is not None and now >= entry.deadline:
                    del self._pending[rid]
                    self._deadline_expired += 1
                    self.router.release(worker_id, entry.generation)
                    self._slot_free.notify_all()
                    expired.append(entry.future)
                else:
                    live.append((rid, worker_id, image, entry.digest))
        for future in expired:
            if not future.done():
                future.set_exception(DeadlineExceededError(
                    "deadline expired before dispatch; request dropped "
                    "unexecuted"
                ))
        groups: Dict[str, List[tuple]] = {}
        for rid, worker_id, image, digest in live:
            groups.setdefault(worker_id, []).append((rid, key, image, digest))
        for worker_id, items in groups.items():
            with self._lock:
                worker = self._workers.get(worker_id)
                endpoint = worker.endpoint if worker is not None else None
            delivered = False
            if endpoint is not None:
                try:
                    endpoint.send(("reqs", items))
                    delivered = True
                except (TransportClosed, ValueError, OSError):
                    pass
            if not delivered:
                for rid, _, _, _ in items:
                    with self._lock:
                        entry = self._pending.get(rid)
                        generation = (entry.generation if entry is not None
                                      else None)
                    self.router.release(worker_id, generation)
                    self._redispatch(rid)

    def submit(self, model: str, image: np.ndarray, block: bool = True,
               timeout: Optional[float] = None,
               slo: Optional[str] = None) -> Future:
        """Route one request to a worker; resolves to the output row.

        With ``block=True`` (default — what the closed-loop load generators
        want) submission waits for an admission slot; with ``block=False``
        a saturated cluster sheds immediately by raising
        :class:`ClusterOverloadError` carrying ``retry_after_s``.

        ``timeout`` is an **end-to-end deadline**, not an admission bound:
        if it expires while waiting for admission this call raises
        :class:`DeadlineExceededError` synchronously; if it expires after
        admission the returned future fails with the same error and the
        request's slots are released — expired work queued behind a slow
        worker is dropped at dispatch time, never executed.

        ``slo`` names the request's class (:data:`~repro.serving.router
        .SLO_CLASSES`): with ``slo_reserves`` configured the router admits
        it through its class's tiered bound (batch sheds first), and with
        ``slo_policies`` configured a ``timeout=None`` request inherits
        the class's default ``deadline_s``.
        """
        key = self.canonical_name(model)
        image = np.asarray(image)
        if slo is not None:
            slo = validate_slo(slo)
            if timeout is None and self.slo_policies is not None:
                slo_policy = self.slo_policies.get(slo)
                if slo_policy is not None:
                    timeout = slo_policy.deadline_s
        cache_key, hit = self._cache_lookup(key, image)
        if hit is not None:
            return hit
        deadline = None if timeout is None else time.perf_counter() + timeout
        rid, worker_id, future = self._admit(key, image, block, deadline,
                                             slo=slo, cache_key=cache_key)
        self._dispatch(key, [(rid, worker_id, image)])
        self._maybe_probe(key, image, future)
        return future

    def submit_batch(self, model: str, images: np.ndarray,
                     slo: Optional[str] = None) -> List[Future]:
        """Enqueue one request per leading row of ``images`` (blocking).

        Admissions are coalesced: all of a run's requests routed to one
        worker travel in a single queue message, so a closed-loop burst
        costs a handful of IPC round trips instead of one per request.
        Accumulated admissions are always flushed *before* waiting for a
        slot — a blocked submitter never holds undispatched work, so
        concurrent batch submitters cannot deadlock each other.  Bursts
        larger than the cluster's admission window are paced by
        backpressure, mirroring the single-process semantics.
        """
        key = self.canonical_name(model)
        slo = None if slo is None else validate_slo(slo)
        futures: List[Future] = []
        assignments: List[tuple] = []
        for image in np.asarray(images):
            cache_key, hit = self._cache_lookup(key, image)
            if hit is not None:
                futures.append(hit)
                continue
            try:
                rid, worker_id, future = self._admit(
                    key, image, block=False, deadline=None, count_shed=False,
                    slo=slo, cache_key=cache_key
                )
            except ClusterOverloadError:
                # Saturated: dispatch what we hold, then wait empty-handed.
                if assignments:
                    self._dispatch(key, assignments)
                    assignments = []
                rid, worker_id, future = self._admit(
                    key, image, block=True, deadline=None, slo=slo,
                    cache_key=cache_key
                )
            futures.append(future)
            assignments.append((rid, worker_id, image))
            self._maybe_probe(key, image, future)
        if assignments:
            self._dispatch(key, assignments)
        return futures

    def infer(self, model: str, image: np.ndarray,
              timeout: Optional[float] = None) -> np.ndarray:
        """Blocking single-request inference."""
        return self.submit(model, image).result(timeout=timeout)

    # ------------------------------------------------------------- inbound
    def _handle_message(self, message: tuple) -> None:
        """Inbound dispatch; called from the transport's reader threads.

        Each worker connection has its own reader thread — every branch
        takes the cluster lock, so concurrent delivery is safe.
        """
        kind = message[0]
        if kind == "res" or kind == "err":
            self._handle_response(message)
        elif kind == "hb":
            _, worker_id, _stamp = message
            with self._lock:
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.last_heartbeat = time.perf_counter()
            # Quarantined workers earn probation credit with every
            # heartbeat that arrives with no failure since the last one
            # (no-op unless a quarantine policy is configured).
            self.router.record_clean_heartbeat(worker_id)
        elif kind == "ready":
            self._handle_ready(message)
        elif kind == "attached":
            _, worker_id, model, ms = message
            with self._lock:
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.attach_ms[model] = ms
        elif kind == "prepared":
            self._handle_prepared(message)
        elif kind == "committed":
            _, worker_id, model, digest = message
            with self._lock:
                rollout = self._rollouts.get(model)
                if (rollout is not None
                        and digest == rollout.controller.new_digest):
                    rollout.controller.worker_committed(worker_id)
            self._rollout_tick()
        elif kind == "detached":
            _, worker_id, items, freed = message
            with self._lock:
                self._detach_log.append((worker_id, list(items), int(freed)))
                for model, digest in items:
                    # Straggler cleanup: e.g. a prepare that completed
                    # after its rollout rolled back declared a digest the
                    # bulk revocation never saw.
                    if digest:
                        self.router.revoke_digest(worker_id, model, digest)
        elif kind == "reports":
            _, worker_id, generation, reports = message
            with self._lock:
                self._report_inbox[(worker_id, generation)] = reports
                self._report_arrived.notify_all()
        elif kind == "fetch":
            self._handle_fetch(message)
        elif kind == "conn_lost":
            _, worker_id = message
            with self._lock:
                worker = self._workers.get(worker_id)
            if worker is not None and not worker.stopping:
                self._handle_worker_death(worker)
        elif kind == "init_error":
            _, worker_id, text = message
            with self._lock:
                self._init_errors.append(f"{worker_id}: {text}")
        elif kind == "bye":
            pass

    def _handle_fetch(self, message: tuple) -> None:
        """Serve a remote worker's artifact-bytes request by digest."""
        _, worker_id, digest = message
        with self._lock:
            worker = self._workers.get(worker_id)
        if worker is None:  # pragma: no cover - raced removal
            return
        try:
            payload = np.frombuffer(self.store.payload_view(digest),
                                    dtype=np.uint8)
            reply = ("blob", digest, payload)
        except KeyError as exc:
            reply = ("blob_error", digest, str(exc))
        try:
            worker.endpoint.send(reply)
        except (TransportClosed, ValueError, OSError):
            pass  # dead link: its conn_lost handler owns the cleanup

    def _handle_prepared(self, message: tuple) -> None:
        """A worker acked ``prepare``: the new version is staged on it."""
        _, worker_id, model, digest, ms = message
        straggler: Optional[WorkerEndpoint] = None
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.attach_ms[f"{model}@{digest[:12]}"] = ms
            self.router.declare_digest(worker_id, model, digest)
            rollout = self._rollouts.get(model)
            if (rollout is not None and worker is not None
                    and digest == rollout.controller.new_digest):
                rollout.controller.worker_prepared(worker_id)
                if rollout.controller.phase in ("promoting", "committed"):
                    # A late joiner finished staging after the fleet
                    # already flipped: flip its active pointer too, or
                    # its *untagged* local state would lag the cluster.
                    straggler = worker.endpoint
        if straggler is not None:
            try:
                straggler.send(("commit", model, digest))
            except (TransportClosed, ValueError, OSError):
                pass  # dying link: its death handler discounts the worker
        self._rollout_tick()

    def _handle_ready(self, message: tuple) -> None:
        _, worker_id, pid, attach_ms = message
        orphans: List[int] = []
        prepare_sends: List[Tuple[WorkerEndpoint, tuple]] = []
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:  # pragma: no cover - raced close()
                return
            worker.ready = True
            worker.pid = pid
            worker.attach_ms = dict(attach_ms)
            worker.ready_ms = (time.perf_counter() - worker.spawned_at) * 1000.0
            worker.last_heartbeat = time.perf_counter()
            worker.generation = self.router.add_worker(
                worker_id,
                models=(None if worker.models is None
                        else sorted(worker.models)),
            )
            # Declare the serving version of everything it attached —
            # digest-tagged traffic (canary probes, in-flight rollout
            # requests) may only route to declared holders.
            held = (self._handles if worker.models is None
                    else {m: self._handles[m] for m in worker.models})
            for model, handle in held.items():
                self.router.declare_digest(worker_id, model, handle.digest)
            # A worker joining mid-rollout must stage the new digest too.
            for model, rollout in self._rollouts.items():
                if worker.models is not None and model not in worker.models:
                    continue
                if rollout.controller.done:
                    continue
                rollout.controller.worker_joined(worker_id)
                new = rollout.new_handle
                prepare_sends.append((worker.endpoint, ("prepare", [
                    (new.model, new.digest, new.nbytes, new.shm_name)
                ])))
            orphans, self._orphans = self._orphans, []
            self._slot_free.notify_all()
        for endpoint, frame in prepare_sends:
            try:
                endpoint.send(frame)
            except (TransportClosed, ValueError, OSError):
                pass  # dying link: its death handler discounts the worker
        # Converge attachments before redispatching parked work, so a
        # force-acquire can land on a worker that just gained the model.
        self._refresh_pinning()
        for rid in orphans:
            self._redispatch(rid)

    def _handle_response(self, message: tuple) -> None:
        kind, worker_id, rid, payload = message
        now = time.perf_counter()
        with self._lock:
            entry = self._pending.pop(rid, None)
            if entry is None:
                # Late (duplicate) answer: the request was already won by
                # another holder, requeued past this sender, or expired.
                # Release exactly the *sender's* still-held slot, scoped
                # to the incarnation that acquired it (a same-id
                # re-registration must not lose a slot it never granted).
                holders = self._stale_holders.get(rid)
                if holders is not None:
                    held = holders.pop(worker_id, None)
                    if not holders:
                        del self._stale_holders[rid]
                    if held is not None:
                        self.router.release(worker_id, held[0])
                        self._slot_free.notify_all()
                return
            # First answer wins — with retry/hedging several workers may
            # hold a live slot for this rid (outputs are bit-identical, so
            # *which* copy wins is unobservable).  Release the sender's
            # slot now; the remaining holders' slots are parked until
            # their own late answers arrive (or their deaths credit them,
            # or the stale grace reaps them).
            holders = dict(entry.holders)
            holders[entry.worker] = entry.generation
            sender_generation = holders.pop(worker_id, None)
            if sender_generation is not None:
                self.router.release(worker_id, sender_generation)
                if kind == "res":
                    self.router.record_completion(
                        worker_id, max(0.0, now - entry.dispatched_at))
                else:
                    self.router.record_failure(worker_id)
            # A sender absent from the holder set was already given up on
            # (declared dead; its slots were credited at removal) — there
            # is nothing to release for it, only the live holders to park.
            if holders:
                reap_at = now + self._stale_grace_s
                self._stale_holders[rid] = {
                    holder: (generation, reap_at)
                    for holder, generation in holders.items()
                }
            if not entry.probe:
                # Canary probes are internal mirrors: they must not skew
                # the client-facing latency distribution (the retry
                # policy's p99 is derived from it).
                traffic = self._traffic_for(entry.model)
                traffic.last_done = now
                traffic.latencies.record(max(0.0, now - entry.submitted_at))
            self._slot_free.notify_all()
        if kind == "res":
            result = payload
            if isinstance(result, np.ndarray) and result.flags.writeable:
                result.setflags(write=False)
            if entry.cache_key is not None and self._response_cache is not None:
                self._response_cache.put(entry.cache_key, result)
            entry.future.set_result(result)
        else:
            entry.future.set_exception(RuntimeError(
                f"worker {worker_id} failed request: {payload}"
            ))

    # ------------------------------------------------------------- faults
    def _faulty_deliver(self, message: tuple) -> None:
        """Inbound delivery threaded through the fault plane's frame rules.

        Replaces :meth:`_handle_message` as the transport's deliver
        callback when a fault plan is armed: worker→router hot-path frames
        may be dropped, delivered late (via the injector's timer thread)
        or duplicated before the real handler sees them.
        """
        for delay, msg in self._faults.filter_inbound(message):
            if delay <= 0:
                self._handle_message(msg)
            else:
                self._faults.schedule_delivery(
                    delay, lambda m=msg: self._handle_message(m))

    @property
    def fault_events(self) -> List:
        """Faults the armed plan has actually fired so far, in order
        (:class:`~repro.serving.faults.FaultEvent`; empty without a plan)."""
        return [] if self._faults is None else self._faults.events()

    # ------------------------------------------------------------- deadlines
    def _monitor_pending(self) -> None:
        """Deadline/retry/hedge control loop (20 ms cadence).

        Three sweeps over the pending table: fail dispatched requests
        whose end-to-end deadline passed (releasing every slot they
        hold), re-dispatch requests whose current attempt has outlived
        the retry policy's patience, and hedge requests past the p99-based
        hedge delay.  Parked late-answer slots whose grace expired are
        reaped here too — a lost response frame must not leak admission
        capacity forever.
        """
        while not self._supervise_stop.wait(0.02):
            self._sweep_pending()
            self._rollout_tick()

    def _sweep_pending(self) -> None:
        policy = self.retry_policy
        now = time.perf_counter()
        expired: List[_Pending] = []
        exhausted: List[_Pending] = []
        sends: List[Tuple[WorkerEndpoint, tuple]] = []
        p99_cache: Dict[str, tuple] = {}

        def model_p99(model: str) -> tuple:
            cached = p99_cache.get(model)
            if cached is None:
                traffic = self._traffic.get(model)
                cached = ((0, 0.0) if traffic is None
                          else traffic.latencies.quantile_s(99.0))
                p99_cache[model] = cached
            return cached

        with self._lock:
            if self._closed:
                return
            for rid, entry in list(self._pending.items()):
                if entry.deadline is not None and now >= entry.deadline:
                    # Too late for anyone to want the answer: fail the
                    # future and release every held slot immediately.  The
                    # workers' late answers will find neither a pending
                    # entry nor a parked slot — no double release.
                    del self._pending[rid]
                    self._deadline_expired += 1
                    self.router.release(entry.worker, entry.generation)
                    for holder, generation in entry.holders.items():
                        self.router.release(holder, generation)
                    self._slot_free.notify_all()
                    expired.append(entry)
                    continue
                if policy is None or entry.probe:
                    # Probes are never retried or hedged: a slow or lost
                    # probe is a canary sample that never happened, and
                    # duplicating it would double-count the comparison.
                    continue
                # Per-class overrides: an SLOPolicy row may cap the
                # request's attempts or veto hedging for its class.
                slo_policy = (self.slo_policies.get(entry.slo)
                              if self.slo_policies is not None
                              and entry.slo is not None else None)
                max_attempts = (policy.max_attempts
                                if slo_policy is None
                                or slo_policy.max_attempts is None
                                else slo_policy.max_attempts)
                hedge_enabled = (policy.hedge
                                 if slo_policy is None
                                 or slo_policy.hedge is None
                                 else slo_policy.hedge)
                count, p99_s = model_p99(entry.model)
                if count >= policy.min_samples and p99_s > 0.0:
                    candidate = policy.timeout_factor * p99_s
                else:
                    # Cold start: no latency distribution to scale from
                    # yet.  Fall back to the heartbeat timeout — the same
                    # "worker is unresponsive" bound the supervisor uses —
                    # so a request whose very first frame was lost still
                    # retries instead of waiting for statistics.
                    candidate = self.heartbeat_timeout_s
                base = max(policy.min_timeout_s,
                           min(policy.max_timeout_s, candidate))
                waited = now - entry.dispatched_at
                patience = (
                    base * policy.backoff_factor ** (entry.attempts - 1)
                )
                if waited >= patience and entry.attempts >= max_attempts:
                    # Retry budget exhausted and the final attempt has
                    # outlived its patience too: fail terminally rather
                    # than hang.  Slots are released exactly as on
                    # deadline expiry; a straggler answer arriving later
                    # finds neither a pending entry nor a parked slot.
                    del self._pending[rid]
                    self.router.record_failure(entry.worker)
                    self.router.release(entry.worker, entry.generation)
                    for holder, generation in entry.holders.items():
                        self.router.release(holder, generation)
                    self._slot_free.notify_all()
                    exhausted.append(entry)
                    continue
                if waited >= patience:
                    # Retry: the current assignee has outlived attempt
                    # ``attempts``'s patience.  Demote it (slot parked on
                    # the entry; released by its late answer / death /
                    # grace), record the failure for quarantine purposes
                    # and force-dispatch to a different worker.
                    exclude = [entry.worker, *entry.holders]
                    worker_id = self.router.acquire(
                        entry.model, force=True, record_shed=False,
                        exclude=exclude)
                    if worker_id is None or worker_id not in self._workers:
                        if worker_id is not None:
                            self.router.release(worker_id)
                        continue  # nowhere else to go; re-check next tick
                    self.router.record_failure(entry.worker)
                    entry.holders[entry.worker] = entry.generation
                    worker = self._workers[worker_id]
                    entry.worker = worker_id
                    entry.generation = worker.generation
                    entry.attempts += 1
                    entry.dispatched_at = now
                    self._retries += 1
                    sends.append((worker.endpoint,
                                  ("reqs", [(rid, entry.model, entry.image,
                                             entry.digest)])))
                elif (hedge_enabled and not entry.hedged
                      and count >= policy.min_samples and p99_s > 0.0
                      and waited >= max(policy.min_timeout_s,
                                        min(policy.max_timeout_s,
                                            policy.hedge_factor * p99_s))):
                    # Hedge: dispatch a duplicate *within* the admission
                    # bound (no force — a saturated fleet sheds hedges
                    # first, and a hedge rides its request's own class
                    # tier); first response wins, bit-identical outputs
                    # make the winner unobservable.
                    exclude = [entry.worker, *entry.holders]
                    worker_id = self.router.acquire(
                        entry.model, record_shed=False, exclude=exclude,
                        slo=entry.slo)
                    if worker_id is None or worker_id not in self._workers:
                        if worker_id is not None:
                            self.router.release(worker_id)
                        continue
                    worker = self._workers[worker_id]
                    entry.holders[worker_id] = worker.generation
                    entry.hedged = True
                    self._hedges += 1
                    sends.append((worker.endpoint,
                                  ("reqs", [(rid, entry.model, entry.image,
                                             entry.digest)])))
            # Reap parked late-answer slots whose grace expired: the
            # response frame is considered lost for good.  If it arrives
            # after all, the missing park entry makes it a no-op.
            for rid in list(self._stale_holders):
                holders = self._stale_holders[rid]
                for holder, (generation, reap_at) in list(holders.items()):
                    if now >= reap_at:
                        del holders[holder]
                        self.router.release(holder, generation)
                        self._slot_free.notify_all()
                if not holders:
                    del self._stale_holders[rid]
        for entry in expired:
            if not entry.future.done():
                entry.future.set_exception(DeadlineExceededError(
                    "deadline expired while dispatched; request dropped"
                ))
        for entry in exhausted:
            if not entry.future.done():
                entry.future.set_exception(WorkerCrashError(
                    f"no answer after {entry.attempts} attempt(s); "
                    "retry budget exhausted"
                ))
        for endpoint, message in sends:
            try:
                endpoint.send(message)
            except (TransportClosed, ValueError, OSError):
                pass  # dying link: its death handler requeues the rid

    # ------------------------------------------------------------- supervision
    def _supervise(self) -> None:
        interval = max(0.05, min(self.config.heartbeat_interval_s,
                                 self.heartbeat_timeout_s / 4.0))
        while not self._supervise_stop.wait(interval):
            self._check_workers()

    def _check_workers(self) -> None:
        now = time.perf_counter()
        dead: List[_Worker] = []
        retired: List[_Worker] = []
        with self._lock:
            for worker in self._workers.values():
                if worker.stopping:
                    # A retiring worker drains and exits on its own; once
                    # its endpoint is gone, finalize it (reap resources and
                    # requeue anything it never answered).
                    if not self._closed and not worker.endpoint.alive():
                        retired.append(worker)
                    continue
                alive = worker.endpoint.alive()
                stale = (
                    worker.ready
                    and self.heartbeat_timeout_s > 0
                    and now - worker.last_heartbeat > self.heartbeat_timeout_s
                )
                if not alive or stale:
                    dead.append(worker)
        for worker in dead:
            self._handle_worker_death(worker)
        for worker in retired:
            self._finalize_retired(worker)
        self._check_unjoined(now)

    def _check_unjoined(self, now: float) -> None:
        """Reap workers that died before (re)registering.

        A launched worker process that exits before its hello, or a
        disconnected worker whose process dies (or whose reconnect grace
        expires) while work is parked waiting for it, must convert into a
        respawn or a drained orphan — never a silent hang.
        """
        #: Router-owned processes; ``None`` for an external rejoin entry,
        #: which the router never respawns.
        failed: List = []
        with self._lock:
            for pid, process in list(self._spawn_pending.items()):
                code = process.poll()
                if code is not None:
                    del self._spawn_pending[pid]
                    self._init_errors.append(
                        f"worker pid {pid} exited with code {code} before "
                        f"registering"
                    )
                    failed.append(process)
            for pid, (process, deadline) in list(self._rejoin_pending.items()):
                process_died = process is not None and process.poll() is not None
                if process_died or now > deadline:
                    del self._rejoin_pending[pid]
                    failed.append(process)
        for process in failed:
            if process is not None and process.poll() is None:
                process.terminate()  # pragma: no cover - grace expired
            with self._lock:
                respawn = (process is not None
                           and self._respawns < self.max_respawns
                           and not self._closed)
                if respawn:
                    self._respawns += 1
                orphans, self._orphans = self._orphans, []
                self._slot_free.notify_all()
            if respawn:
                self._spawn_worker()
            # _redispatch re-parks orphans when another replacement is
            # coming, otherwise fails their futures — never leaves them.
            for rid in orphans:
                self._redispatch(rid)

    def _handle_worker_death(self, worker: _Worker) -> None:
        """Recover a dead worker link: respawn/await-reconnect + requeue.

        A worker dies in two ways: the *process* died (respawn if the router
        launched it, budget permitting) or only the *connection* died while
        the process lives — then the worker is expected to dial back within
        ``reconnect_grace_s`` and requeued work may park for it.  Externally
        launched workers are never respawned; they re-admit themselves by
        reconnecting.
        """
        endpoint = worker.endpoint
        with self._lock:
            if worker.worker_id not in self._workers:
                return
            del self._workers[worker.worker_id]
            self.router.remove_worker(worker.worker_id)
            for rollout in self._rollouts.values():
                rollout.controller.worker_gone(worker.worker_id)
            victims = []
            for rid, entry in self._pending.items():
                # A dead hedge/demoted holder's slot was credited by
                # remove_worker; its late answer can never come.
                entry.holders.pop(worker.worker_id, None)
                if entry.worker != worker.worker_id:
                    continue
                if entry.holders:
                    # The primary died but a duplicate of this request is
                    # already in flight on a surviving holder — promote it
                    # instead of requeueing (which would dispatch a third
                    # copy).
                    promoted = next(iter(entry.holders))
                    entry.generation = entry.holders.pop(promoted)
                    entry.worker = promoted
                else:
                    victims.append(rid)
            # Parked late-answer slots of the dead worker: credited by
            # remove_worker, never answering — drop their park entries.
            for rid in list(self._stale_holders):
                self._stale_holders[rid].pop(worker.worker_id, None)
                if not self._stale_holders[rid]:
                    del self._stale_holders[rid]
            # Orphans were parked waiting for *some* replacement to become
            # ready; if the worker that just died was that replacement, the
            # wait is over — re-run them through _redispatch, which either
            # re-parks (another respawn is coming) or fails them.  Leaving
            # them parked would hang their futures forever.
            victims.extend(self._orphans)
            self._orphans = []
            # Link lost but the router-owned process lives: it will
            # reconnect.  An externally launched worker's process is out of
            # sight, so it gets the same reconnect grace on faith — the
            # entry expires (and parked work drains) if it never dials back.
            process = endpoint.surviving_process()
            pid = worker.pid if process is None else process.pid
            rejoining = not self._closed and (
                process is not None
                or (not endpoint.respawnable and pid is not None))
            if rejoining:
                self._rejoin_pending[pid] = (
                    process, time.perf_counter() + self.reconnect_grace_s)
            respawn = (endpoint.respawnable and not rejoining
                       and self._respawns < self.max_respawns
                       and not self._closed)
            if respawn:
                self._respawns += 1
            self._slot_free.notify_all()
        endpoint.reap()
        if respawn:
            self._spawn_worker()
        # Re-pin before requeueing: with per-model pinning the dead worker
        # may have been a model's only attacher, and the victims' force-
        # acquires need a surviving worker that declares their model.
        self._refresh_pinning()
        for rid in victims:
            self._redispatch(rid)
        # The death may have terminated a rollout (last staged holder) or
        # completed a promote (the dead worker was the last pending ack).
        self._rollout_tick()

    def _redispatch(self, rid: int) -> None:
        """Move an admitted request onto a live worker (crash requeue)."""
        endpoint = None
        failed_future: Optional[Future] = None
        failure: Optional[BaseException] = None
        with self._lock:
            entry = self._pending.get(rid)
            if entry is None:
                return
            now = time.perf_counter()
            if entry.deadline is not None and now >= entry.deadline:
                # Expired while losing its worker: drop instead of
                # re-dispatching — never execute past-deadline work.  The
                # primary slot was already handled by whoever called us;
                # surviving hedge holders park for their late answers.
                del self._pending[rid]
                self._deadline_expired += 1
                if entry.holders:
                    reap_at = now + self._stale_grace_s
                    self._stale_holders[rid] = {
                        holder: (generation, reap_at)
                        for holder, generation in entry.holders.items()
                    }
                failed_future = entry.future
                failure = DeadlineExceededError(
                    "deadline expired during crash recovery; request "
                    "dropped unexecuted"
                )
            elif entry.probe:
                # A canary probe that lost its worker is dropped, never
                # moved: re-running it elsewhere would sample a different
                # worker than the router picked, and the rollout
                # controller already discounted the dead holder.  The
                # comparison pair treats the crash as "no sample".
                del self._pending[rid]
                failed_future = entry.future
                failure = WorkerCrashError(
                    f"canary probe {rid} lost its worker; sample dropped"
                )
            else:
                entry.requeues += 1
                self._requeued += 1
                # Retag to the model's *current* serving digest: a requeue
                # may straddle a rollout commit, and the replacement worker
                # is only guaranteed to hold the serving version.  Safe
                # because the serving digest only ever flips after a
                # bit-identical canary — both versions answer alike.
                entry.digest = self._handles[entry.model].digest
                # force=True: this work was admitted once already; shedding
                # it now would turn a worker crash into client-visible
                # errors.  Workers already holding a copy are excluded — a
                # duplicate on the *same* worker id would collide with its
                # own late answer.
                worker_id = self.router.acquire(
                    entry.model, force=True, exclude=list(entry.holders))
                if worker_id is None or worker_id not in self._workers:
                    if worker_id is not None:
                        self.router.release(worker_id)
                    replacement_coming = not self._closed and (
                        any(not w.ready for w in self._workers.values())
                        or bool(self._spawn_pending)
                        or bool(self._rejoin_pending)
                    )
                    if replacement_coming:
                        # Park until the replacement's "ready" drains
                        # orphans (spawned workers and expected reconnects
                        # both end in a "ready"; the supervisor reaps the
                        # ones that never arrive and drains the orphans
                        # again).
                        self._orphans.append(rid)
                        return
                    self._pending.pop(rid, None)
                    failed_future = entry.future
                    failure = WorkerCrashError(
                        f"request {rid} lost its worker and no replacement "
                        f"is available"
                    )
                else:
                    entry.worker = worker_id
                    worker = self._workers[worker_id]
                    entry.generation = worker.generation
                    entry.dispatched_at = now
                    endpoint = worker.endpoint
                    message = ("reqs", [(rid, entry.model, entry.image,
                                         entry.digest)])
        if failed_future is not None:
            if not failed_future.done():
                failed_future.set_exception(failure)
            return
        try:
            endpoint.send(message)
        except (TransportClosed, ValueError, OSError):
            # The replacement's link closed under us.  Its conn_lost event
            # may not have arrived yet, so declare the death ourselves:
            # that removes the worker from the router/worker maps and
            # requeues this rid (it is pending on this worker) along with
            # any other victims.  Each level of this recursion removes one
            # worker, so it is bounded by the worker count — never by luck.
            self.router.release(worker_id, entry.generation)
            self._handle_worker_death(worker)

    # ------------------------------------------------------------- elasticity
    def _refresh_pinning(self) -> None:
        """Converge the attached model sets onto the pinned top-K layout.

        Called after every membership change (ready / death / retire) and
        after pin widths shrink (:meth:`rebalance_pinning`).  Under the
        cluster lock it computes which ready workers are missing models
        the ideal layout assigns them, and which hold a surplus; the
        ``attach`` / ``detach`` messages go out **outside** the lock.
        Each grown model is declared to the router only *after* its
        attach was sent — the channel is FIFO, so a worker always
        processes the attach before any request routed to it for that
        model.  Surplus models are revoked in the opposite order: routing
        eligibility is withdrawn under the lock *before* the ``detach``
        frame goes out, so every request dispatched ahead of the detach
        is already in the worker's FIFO queue and drains before the
        worker's pool drops the version and frees its shm views.  A model
        mid-rollout is never revoked — its layout is frozen until the
        rollout terminates.
        """
        if self._pinning is None:
            return
        sends: List[Tuple[_Worker, List[tuple], List[str]]] = []
        revokes: List[Tuple[_Worker, List[str]]] = []
        with self._lock:
            live = [w for w in self._workers.values() if not w.stopping]
            if not live:
                return
            desired = self._desired_assignment([w.worker_id for w in live])
            for worker in live:
                if worker.models is None or not worker.ready:
                    # Attach-everything workers need nothing; workers still
                    # initializing get their turn from their own ready
                    # handler (their handshake would drop an attach).
                    continue
                want = desired.get(worker.worker_id, set())
                missing = want - worker.models
                surplus = {m for m in worker.models - want
                           if m not in self._rollouts}
                if missing:
                    manifest = [
                        (h.model, h.digest, h.nbytes, h.shm_name)
                        for m in sorted(missing)
                        for h in (self._handles[m],)
                    ]
                    worker.models |= missing
                    sends.append((worker, manifest, sorted(missing)))
                if surplus:
                    for model in sorted(surplus):
                        self.router.remove_worker_model(worker.worker_id,
                                                        model)
                    worker.models -= surplus
                    revokes.append((worker, sorted(surplus)))
        for worker, manifest, models in sends:
            try:
                worker.endpoint.send(("attach", manifest))
            except (TransportClosed, ValueError, OSError):
                continue  # dying link: its death handler re-pins again
            for model in models:
                self.router.add_worker_model(worker.worker_id, model)
                self.router.declare_digest(worker.worker_id, model,
                                           self._handles[model].digest)
        for worker, models in revokes:
            try:
                worker.endpoint.send(
                    ("detach", [(model, "") for model in models]))
            except (TransportClosed, ValueError, OSError):
                pass  # dying link: death already frees everything

    def measured_model_shares(self) -> Dict[str, float]:
        """Observed request count per model since startup.

        This is the live traffic-share signal
        :func:`~repro.serving.router.pin_counts_from_shares` wants:
        actual submissions (admitted requests), not configured guesses.
        """
        with self._lock:
            return {model: float(traffic.requests)
                    for model, traffic in self._traffic.items()
                    if traffic.requests > 0}

    def rebalance_pinning(self, min_workers: int = 1
                          ) -> Optional[Dict[str, int]]:
        """Re-derive pin widths from **measured** traffic shares.

        Feeds :meth:`measured_model_shares` into
        :func:`~repro.serving.router.pin_counts_from_shares` over the
        current live fleet size, updates the router's pin table for the
        models that saw traffic, and converges worker attachments onto
        the new layout.  Returns the applied ``{model: K}`` (``None``
        when pinning is disabled or no traffic has been observed yet) —
        a no-op on unpinned clusters, where every worker already serves
        everything.
        """
        shares = self.measured_model_shares()
        with self._lock:
            if self._pinning is None or not shares:
                return None
            fleet = sum(1 for w in self._workers.values() if not w.stopping)
            if fleet < 1:
                return None
            counts = pin_counts_from_shares(shares, workers=fleet,
                                            min_workers=min_workers)
            self._pinning.update(counts)
            applied = dict(self._pinning)
        self.router.set_pin_counts(applied)
        self._refresh_pinning()
        return applied

    def scale_up(self, count: int = 1) -> int:
        """Spawn up to ``count`` additional workers; returns how many.

        Stops early at the autoscaler's ``max_workers`` bound (when one is
        configured) or after close.  The new workers attach their pinned
        manifests, say ready and join the router like any startup worker.
        """
        spawned = 0
        for _ in range(count):
            with self._lock:
                if self._closed:
                    break
                fleet = (sum(1 for w in self._workers.values()
                             if not w.stopping)
                         + len(self._spawn_pending)
                         + len(self._rejoin_pending))
                if (self.autoscaler is not None
                        and fleet >= self.autoscaler.config.max_workers):
                    break
            self._spawn_worker()
            spawned += 1
        return spawned

    def scale_down(self, count: int = 1) -> int:
        """Gracefully retire up to ``count`` workers; returns how many."""
        retired = 0
        for _ in range(count):
            if not self._retire_worker():
                break
            retired += 1
        return retired

    def _retire_worker(self) -> bool:
        """Drain one worker out of the fleet (the least-loaded ready one).

        The victim leaves the router immediately (no new work routes to
        it; its in-flight slots are credited — late answers still resolve
        their futures, the releases just no-op), gets a graceful ``stop``
        and drains on its own; the supervisor finalizes it once its
        process exits.  Declines (returning ``False``) rather than go
        below the autoscaler's ``min_workers`` (or 1).
        """
        floor = (self.autoscaler.config.min_workers
                 if self.autoscaler is not None else 1)
        with self._lock:
            if self._closed:
                return False
            candidates = [w for w in self._workers.values()
                          if w.ready and not w.stopping]
            if len(candidates) <= max(1, floor):
                return False
            victim = min(
                candidates,
                key=lambda w: self.router.outstanding(w.worker_id),
            )
            victim.stopping = True
            self.router.remove_worker(victim.worker_id)
            self._slot_free.notify_all()
        self._refresh_pinning()
        victim.endpoint.request_stop()
        return True

    def _finalize_retired(self, worker: _Worker) -> None:
        """Reap a drained retiree; requeue anything it never answered.

        A retiring worker that crashed mid-drain (or received a dispatch
        that raced its stop) leaves pending entries behind — they must be
        re-dispatched, not stranded, exactly like a crash victim's.
        """
        with self._lock:
            if self._workers.get(worker.worker_id) is not worker:
                return
            del self._workers[worker.worker_id]
            strays = [rid for rid, entry in self._pending.items()
                      if entry.worker == worker.worker_id]
            self._slot_free.notify_all()
        worker.endpoint.shutdown(timeout_s=5.0)
        for rid in strays:
            self._redispatch(rid)

    @property
    def autoscale_events(self) -> List:
        """Recorded :class:`~repro.serving.autoscale.ScaleEvent` s."""
        return [] if self.autoscaler is None else list(self.autoscaler.events)

    def _autoscale_loop(self) -> None:
        config = self.autoscaler.config
        while not self._supervise_stop.wait(config.interval_s):
            if self._closed:
                return
            stats = self.router.stats()
            with self._lock:
                ready = sum(1 for w in self._workers.values()
                            if w.ready and not w.stopping)
                starting = sum(1 for w in self._workers.values()
                               if not w.ready and not w.stopping)
                pending = (starting + len(self._spawn_pending)
                           + len(self._rejoin_pending))
            decision = self.autoscaler.observe(AutoscaleSignals(
                workers=ready,
                pending=pending,
                dispatched=stats.dispatched,
                shed=stats.shed,
                outstanding=max(0, stats.outstanding),
                window=ready * self.router.max_outstanding,
            ))
            if decision == "grow":
                if self.scale_up(config.grow_step) == 0:
                    self.autoscaler.refund_grow()
            elif decision == "shrink":
                self.scale_down(config.shrink_step)

    def worker_detail(self) -> Dict[str, dict]:
        """Per-worker attach surface: models held, bytes, warm timings.

        This is what the pinning benchmark reads: a pinned heterogeneous
        fleet shows small per-worker ``attach_bytes`` where an
        attach-everything fleet shows the full store on every worker.
        """
        with self._lock:
            detail = {}
            for worker in self._workers.values():
                models = (sorted(self._handles) if worker.models is None
                          else sorted(worker.models))
                detail[worker.worker_id] = {
                    "models": models,
                    "attach_bytes": sum(self._handles[m].nbytes
                                        for m in models),
                    "ready_ms": worker.ready_ms,
                    "attach_ms": dict(worker.attach_ms),
                    "ready": worker.ready,
                    "stopping": worker.stopping,
                }
            return detail

    # ------------------------------------------------------------- rollout
    def publish(self, network, model: Optional[str] = None,
                rollout: Optional[RolloutConfig] = None) -> str:
        """Publish a new version of a served model and start its rollout.

        The new artifact is content-addressed into the store beside the
        serving version, every ready holder of the model is told to
        fetch-ahead and warm it (``prepare``) while the old digest keeps
        serving **every** request, and a :class:`RolloutController` takes
        over: staging → canary (a mirrored fraction of live traffic,
        compared bit-for-bit) → promoting (atomic per-worker active-pointer
        flips) → committed, with auto-rollback on canary mismatch, canary
        latency regression, worker loss or any phase timeout.  Returns
        the new artifact's digest.

        Raises :class:`ValueError` when the bytes are already the serving
        version (content addressing: same bytes = same model) and
        :class:`RuntimeError` when a rollout for the model is already
        live — one rollout per model at a time.
        """
        key = self.canonical_name(model or network.name)
        new_handle = self.store.publish_version(network, name=key)
        sends: List[WorkerEndpoint] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            old_handle = self._handles[key]
            if new_handle.digest == old_handle.digest:
                raise ValueError(
                    f"published bytes are already the serving version of "
                    f"{key!r} ({old_handle.digest[:12]}...)")
            if key in self._rollouts:
                raise RuntimeError(
                    f"a rollout for {key!r} is already live "
                    f"(phase {self._rollouts[key].controller.phase!r}); "
                    f"promote or roll it back first")
            holders = [
                w for w in self._workers.values()
                if w.ready and not w.stopping
                and (w.models is None or key in w.models)
            ]
            controller = RolloutController(
                key, old_handle.digest, new_handle.digest,
                [w.worker_id for w in holders],
                config=rollout, clock=time.monotonic,
            )
            self._rollouts[key] = _Rollout(
                controller=controller, old_handle=old_handle,
                new_handle=new_handle,
            )
            sends = [w.endpoint for w in holders]
        frame = ("prepare", [(new_handle.model, new_handle.digest,
                              new_handle.nbytes, new_handle.shm_name)])
        for endpoint in sends:
            try:
                endpoint.send(frame)
            except (TransportClosed, ValueError, OSError):
                pass  # dying link: its death handler discounts the worker
        self._rollout_tick()  # a holder-less publish finalizes immediately
        return new_handle.digest

    def promote(self, model: str) -> None:
        """Manually promote a canarying rollout (``auto_promote=False``
        flows, or an operator overriding the sample quota)."""
        key = self.canonical_name(model)
        sends: List[WorkerEndpoint] = []
        with self._lock:
            live = self._rollouts.get(key)
            if live is None:
                raise KeyError(f"no live rollout for {model!r}")
            pending = live.controller.begin_promote()
            frame = ("commit", key, live.controller.new_digest)
            for wid in pending:
                worker = self._workers.get(wid)
                if worker is not None:
                    sends.append(worker.endpoint)
        for endpoint in sends:
            try:
                endpoint.send(frame)
            except (TransportClosed, ValueError, OSError):
                pass
        self._rollout_tick()

    def rollback(self, model: str,
                 reason: str = "operator request") -> None:
        """Abort a live rollout: the stable digest keeps (or resumes)
        serving everywhere and the new version is detached fleet-wide.

        Works from any live phase — including mid-promote, where workers
        that already flipped are flipped back (the old version stayed
        resident on every worker precisely for this).  Raises
        :class:`KeyError` when no rollout for the model is live, and
        :class:`RuntimeError` once the rollout committed (roll *forward*
        by publishing the previous artifact again).
        """
        key = self.canonical_name(model)
        with self._lock:
            live = self._rollouts.get(key)
            if live is None:
                raise KeyError(f"no live rollout for {model!r}")
            if live.controller.phase == "committed":
                raise RuntimeError(
                    f"rollout of {key!r} already committed; publish the "
                    f"previous artifact to roll forward instead")
            live.controller.force_rollback(reason)
        self._rollout_tick()

    def rollout_status(self, model: Optional[str] = None) -> List[dict]:
        """Status snapshots of rollouts, live first, then finished ones
        in completion order (see :meth:`RolloutController.status`)."""
        key = None if model is None else self.canonical_name(model)
        with self._lock:
            controllers = [r.controller for r in self._rollouts.values()
                           if r.controller not in self._rollout_history]
            controllers += self._rollout_history
        return [c.status() for c in controllers
                if key is None or c.model == key]

    def rollout_timeline(self, model: str) -> List[dict]:
        """Event timeline of the newest rollout of ``model`` (JSON-stable
        records, see :meth:`RolloutController.timeline`); ``[]`` when the
        model has never been rolled out."""
        key = self.canonical_name(model)
        with self._lock:
            live = self._rollouts.get(key)
            if live is not None:
                return live.controller.timeline()
            for controller in reversed(self._rollout_history):
                if controller.model == key:
                    return controller.timeline()
        return []

    def _record_comparison(self, model: str, new_digest: str, match: bool,
                           stable_latency_s: float,
                           canary_latency_s: float) -> None:
        """One (stable, canary) answer pair resolved — feed the sample."""
        with self._lock:
            live = self._rollouts.get(model)
            if live is None or live.controller.new_digest != new_digest:
                return  # the rollout this probe belonged to is gone
            live.controller.record_comparison(match, stable_latency_s,
                                              canary_latency_s)
        self._rollout_tick()

    def _maybe_probe(self, key: str, image: np.ndarray,
                     primary_future: Future) -> None:
        """Mirror a canary fraction of live traffic to the new digest.

        The probe is admitted only against workers that *declared* the
        new digest, without force and without shed accounting — a
        saturated fleet silently skips the sample rather than inflating
        shed counters or stealing client capacity.  The client's answer
        always comes from the stable dispatch.
        """
        with self._lock:
            live = self._rollouts.get(key)
            if live is None:
                return
            controller = live.controller
            if controller.phase != "canary" or not controller.should_probe():
                return
            new_digest = controller.new_digest
            worker_id = self.router.acquire(key, record_shed=False,
                                            digest=new_digest)
            if worker_id is None or worker_id not in self._workers:
                if worker_id is not None:
                    self.router.release(worker_id)
                return  # no declared holder has room: skip the sample
            now = time.perf_counter()
            rid = self._next_rid
            self._next_rid += 1
            future: Future = Future()
            future.set_running_or_notify_cancel()
            worker = self._workers[worker_id]
            self._pending[rid] = _Pending(
                future=future, model=key, image=image, worker=worker_id,
                submitted_at=now, deadline=now + self._stale_grace_s,
                dispatched_at=now, generation=worker.generation,
                digest=new_digest, probe=True,
            )
            endpoint = worker.endpoint
        comparison = _CanaryComparison(self, key, new_digest)
        comparison.watch("stable", primary_future)
        comparison.watch("canary", future)
        try:
            endpoint.send(("reqs", [(rid, key, image, new_digest)]))
        except (TransportClosed, ValueError, OSError):
            pass  # dying link: the death handler drops the probe

    def _rollout_tick(self) -> None:
        """Drive every live rollout one decision step.

        Runs on the monitor cadence (and inline after every rollout
        event): asks each controller to decide, executes promote
        decisions (commit fan-out), finalizes terminal phases — flipping
        the front end's serving handle on commit, flipping back
        partially-committed workers on rollback — and performs the
        deferred detach of the losing version once no in-flight request
        is tagged with it.  All controller access is under the cluster
        lock; endpoint sends happen outside it.
        """
        sends: List[Tuple[WorkerEndpoint, tuple]] = []
        with self._lock:
            if self._closed:
                return
            for key in list(self._rollouts):
                live = self._rollouts[key]
                controller = live.controller
                if not controller.done:
                    action = controller.decide()
                    if action == "promote":
                        frame = ("commit", key, controller.new_digest)
                        for wid in controller.begin_promote():
                            worker = self._workers.get(wid)
                            if worker is not None:
                                sends.append((worker.endpoint, frame))
                if controller.phase == "committed" and not live.finalized:
                    # The fleet flipped: flip the front end too.  From
                    # here every new admission is tagged (and cached)
                    # under the new digest; the old version is detached
                    # below once the last old-tagged request drains.
                    self.store.activate(key, controller.new_digest)
                    self._handles = self.store.handles()
                    live.finalized = True
                    live.retiring = True
                    self._rollout_history.append(controller)
                elif controller.phase == "rolled_back" and not live.finalized:
                    live.finalized = True
                    info = controller.status()
                    # Flip back any worker that already committed *before*
                    # detaching the new version — the channel is FIFO, so
                    # the flip-back always lands first.
                    flip_back = ("commit", key, controller.old_digest)
                    detach = ("detach", [(key, controller.new_digest)])
                    for wid in info["committed"]:
                        worker = self._workers.get(wid)
                        if worker is not None:
                            sends.append((worker.endpoint, flip_back))
                    # Every worker that was *asked* to prepare gets the
                    # detach — including ones whose prepare is still in
                    # flight (FIFO: their prepare lands first, then the
                    # detach drops it; a never-staged version detaches as
                    # a no-op).
                    staged = (set(info["pending_prepare"])
                              | set(info["prepared"])
                              | set(info["committed"]))
                    for wid in sorted(staged):
                        self.router.revoke_digest(wid, key,
                                                  controller.new_digest)
                        worker = self._workers.get(wid)
                        if worker is not None:
                            sends.append((worker.endpoint, detach))
                    try:
                        self.store.retire_version(controller.new_digest)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                    self._rollout_history.append(controller)
                    del self._rollouts[key]
                    continue
                if live.retiring:
                    old_digest = controller.old_digest
                    in_flight = any(
                        entry.model == key and entry.digest == old_digest
                        for entry in self._pending.values()
                    )
                    if in_flight:
                        continue  # old-tagged work still draining
                    detach = ("detach", [(key, old_digest)])
                    for worker in self._workers.values():
                        if worker.stopping or not worker.ready:
                            continue
                        if (worker.models is not None
                                and key not in worker.models):
                            continue
                        self.router.revoke_digest(worker.worker_id, key,
                                                  old_digest)
                        sends.append((worker.endpoint, detach))
                    try:
                        self.store.retire_version(old_digest)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                    del self._rollouts[key]
        for endpoint, frame in sends:
            try:
                endpoint.send(frame)
            except (TransportClosed, ValueError, OSError):
                pass  # dying link: its death handler owns the cleanup

    # ------------------------------------------------------------- reporting
    def worker_reports(self, timeout: float = 10.0) -> Dict[str, Dict[str, ServiceReport]]:
        """Poll every ready worker for its per-model ``ServiceReport`` s."""
        with self._lock:
            self._report_gen += 1
            generation = self._report_gen
            candidates = [w for w in self._workers.values()
                          if w.ready and not w.stopping]
            targets = []
            for worker in candidates:
                try:
                    worker.endpoint.send(("report", generation))
                except (TransportClosed, ValueError, OSError):  # pragma: no cover
                    continue  # dying worker: a reply can never come
                targets.append(worker)
        deadline = time.perf_counter() + timeout
        collected: Dict[str, Dict[str, ServiceReport]] = {}
        with self._lock:
            while len(collected) < len(targets):
                for worker in targets:
                    key = (worker.worker_id, generation)
                    if key in self._report_inbox:
                        collected[worker.worker_id] = self._report_inbox.pop(key)
                if len(collected) >= len(targets):
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._report_arrived.wait(timeout=min(0.05, remaining))
        return collected

    def report(self, model: str,
               worker_reports: Optional[Dict[str, Dict[str, ServiceReport]]] = None
               ) -> ServiceReport:
        """Aggregated cluster-wide report for one model.

        Shape-compatible with the single-process
        :meth:`InferenceService.report`: latency figures are the front
        end's end-to-end measurements (queueing + IPC + worker service
        time), scheduler/cache counters are summed across workers.
        ``worker_reports`` lets a caller that already polled the workers
        (:meth:`cluster_report`) reuse one IPC round trip for every model.
        """
        key = self.canonical_name(model)
        reports = (self.worker_reports() if worker_reports is None
                   else worker_reports)
        per_worker = [wr[key] for wr in reports.values() if key in wr]
        with self._lock:
            traffic = self._traffic.get(key)
            if traffic is None:
                raise KeyError(f"model {model!r} has not served any requests")
            first, last = traffic.first_submit, traffic.last_done
            requests = traffic.requests
            latency = traffic.latencies.summary()
            front_hits = traffic.cache_hits
            front_misses = traffic.cache_misses
        duration = (last - first) if (first is not None and last is not None) else 0.0
        device = per_worker[0].device if per_worker else "cluster"
        return ServiceReport(
            model=key,
            device=f"{device} ×{len(reports)} workers",
            duration_s=max(0.0, duration),
            requests=requests,
            # Front-end (cluster-wide) cache counters plus whatever the
            # workers saw — workers run cache-less by default, so the
            # front-end numbers *are* the cluster's hit rate.
            cache_hits=front_hits + sum(r.cache_hits for r in per_worker),
            cache_misses=front_misses + sum(r.cache_misses
                                            for r in per_worker),
            latency=latency,
            scheduler=_merge_scheduler_stats([r.scheduler for r in per_worker]),
            cache=None,
        )

    def cluster_report(self) -> ClusterReport:
        """Full cluster view: per-worker reports plus aggregates.

        Polls the workers once and reuses that snapshot for every model's
        aggregation, so the cost is one IPC round trip regardless of how
        many models are published.
        """
        reports = self.worker_reports()
        models = tuple(self._handles)
        aggregated = {}
        for model in models:
            with self._lock:
                served = model in self._traffic
            if served:
                aggregated[model] = self.report(model, worker_reports=reports)
        with self._lock:
            attach_values = [ms for w in self._workers.values()
                             for ms in w.attach_ms.values()]
            shed = sum(t.shed for t in self._traffic.values())
            workers = len(self._workers)
            respawns = self._respawns
            requeued = self._requeued
            deadline_expired = self._deadline_expired
            retries = self._retries
            hedges = self._hedges
        router_stats = self.router.stats()
        return ClusterReport(
            workers=workers,
            models=models,
            worker_reports=reports,
            aggregated=aggregated,
            router=router_stats,
            respawns=respawns,
            requeued=requeued,
            shed=shed,
            attach_ms_mean=(sum(attach_values) / len(attach_values))
            if attach_values else 0.0,
            store_bytes=self.store.total_bytes(),
            deadline_expired=deadline_expired,
            retries=retries,
            hedges=hedges,
            quarantined=router_stats.quarantined,
        )

    # ------------------------------------------------------------- baseline
    def baseline_service(self, **service_kwargs):
        """Single-process :class:`InferenceService` over the same artifacts.

        Attaches the published models locally (zero-copy, same bytes the
        workers serve), which is what makes cluster-vs-single-process
        output comparisons bit-identical rather than merely close.  The
        caller owns the returned service (and should ``close()`` it).
        """
        from repro.serving.pool import ModelPool
        from repro.serving.service import InferenceService

        pool = ModelPool()
        self._baseline_attachments = []
        for model, handle in self._handles.items():
            attached = attach_model(handle)
            self._baseline_attachments.append(attached)
            pool.register(attached.network, name=model, warm=True)
        service_kwargs.setdefault("max_batch_size", self.config.max_batch_size)
        service_kwargs.setdefault("max_wait_ms", self.config.max_wait_ms)
        service_kwargs.setdefault("cache_capacity", self._cache_capacity)
        service_kwargs.setdefault("chunk_bytes", self.config.chunk_bytes)
        return InferenceService(pool=pool, **service_kwargs)


# ---------------------------------------------------------------------------
# scaling sweep (shared by the CLI and benchmarks/bench_cluster_scaling.py)
# ---------------------------------------------------------------------------

def scaling_table(records: Sequence[dict], title: Optional[str] = None) -> str:
    """Render :func:`scaling_sweep` records as an aligned table.

    Single rendering path shared by ``repro.cli serve-bench --workers N``
    and ``benchmarks/bench_cluster_scaling.py`` (same discipline as
    :func:`repro.serving.loadgen.sweep_table`).
    """
    from repro.analysis.reporting import format_table

    return format_table(
        ["workers", "batch", "req/s", "1-proc req/s", "speedup",
         "p50 (ms)", "p99 (ms)", "attach (ms)"],
        [
            [r["workers"], r["batch"], r["req_per_s"],
             r["single_process_rps"],
             f"{r['speedup_vs_single_process']:.2f}x",
             r["latency_p50_ms"], r["latency_p99_ms"],
             r["shm_attach_ms_mean"]]
            for r in records
        ],
        title=title,
    )

def scaling_sweep(
    model: str = "MicroCNN",
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    offered_batch: int = 64,
    requests: int = 256,
    max_wait_ms: float = 2.0,
    seed: int = 0,
    mp_context=None,
    worker_threads: Optional[int] = 1,
    chunk_bytes: Optional[int] = None,
    transport: str = "pipe",
    bind: Optional[str] = None,
    expect_workers: int = 0,
    worker_backend: str = "auto",
) -> List[dict]:
    """Closed-loop cluster throughput vs the single-process service.

    ``worker_backend`` selects the kernel backend both the baseline and
    every worker warm with (``auto``/``numpy``/``cffi``), so
    the comparison stays apples-to-apples; the spec is recorded per sweep
    point.

    ``transport`` selects the worker wire (``pipe`` / ``uds`` / ``tcp``;
    see :mod:`repro.serving.transport`) and is recorded on every sweep
    point, so one BENCH file can compare transports at equal worker
    counts.  ``expect_workers`` waits for externally launched
    ``cluster-worker`` processes on top of the locally spawned ones.

    Publishes ``model`` once into shared memory, measures a single-process
    :class:`InferenceService` over the attached artifact as the baseline,
    then sweeps the worker counts.  Every sweep point's outputs are checked
    bit-identical against the baseline before anything is recorded — both
    sides serve the same published bytes, so equality is exact.

    Warm-up (weight packing, plan compilation, NumPy internals) runs
    through ``engine.run_batch`` on the attached artifact *before* any
    measured service exists, so the recorded throughput and latency
    percentiles cover exactly the measured requests — the same discipline
    as :func:`repro.serving.loadgen.throughput_sweep`.  Cluster workers
    warm themselves at attach time (``ModelPool.register(warm=True)``);
    their residual first-batch cost is part of every sweep point equally.
    """
    from repro.serving.loadgen import run_closed_loop, synthetic_images

    if expect_workers > 0 and len(tuple(worker_counts)) > 1:
        # close() gracefully stops external workers, so only one sweep
        # point can ever see them — the second would hang at startup
        # waiting for registrations that cannot come.
        raise ValueError(
            "expect_workers supports a single worker_counts entry: external "
            "workers exit when the first sweep point's cluster closes"
        )
    store = SharedModelStore()
    try:
        handles = store.publish_models([model], rng=0)
        key = next(iter(handles))
        attached = attach_model(handles[key])
        images = synthetic_images(attached.network.input_shape, requests,
                                  seed=seed)

        from repro.core.engine import PhoneBitEngine
        from repro.serving.pool import ModelPool
        from repro.serving.service import InferenceService

        # One warm pass outside all timings and outside the measured
        # services, so their request counters and latency windows stay
        # exactly the measured run.
        warm_engine = PhoneBitEngine(num_threads=worker_threads,
                                     backend=worker_backend)
        warm_engine.run_batch(attached.network, images[:2],
                              collect_estimate=False, chunk_bytes=chunk_bytes)

        pool = ModelPool(backend=worker_backend)
        pool.register(attached.network, name=key, warm=True)
        baseline = InferenceService(
            pool=pool, engine=warm_engine, max_batch_size=offered_batch,
            max_wait_ms=max_wait_ms, cache_capacity=0, chunk_bytes=chunk_bytes,
        )
        try:
            result = run_closed_loop(baseline, key, images)
        finally:
            baseline.close()
        baseline_out = result.outputs
        baseline_rps = result.achieved_rps

        records: List[dict] = []
        for workers in worker_counts:
            cluster = ClusterService(
                store=store, workers=int(workers),
                max_batch_size=offered_batch, max_wait_ms=max_wait_ms,
                cache_capacity=0, worker_threads=worker_threads,
                worker_backend=worker_backend,
                chunk_bytes=chunk_bytes, mp_context=mp_context,
                transport=transport, bind=bind,
                expect_workers=expect_workers,
            )
            try:
                run = run_closed_loop(cluster, key, images)
                cluster_detail = cluster.cluster_report()
            finally:
                cluster.close()
            if not np.array_equal(run.outputs, baseline_out):
                raise AssertionError(
                    f"cluster outputs diverged from the single-process "
                    f"service at {workers} workers over {transport}"
                )
            report = run.report
            records.append({
                "op": "cluster_scaling",
                "model": key,
                "transport": transport,
                "backend": worker_backend,
                "workers": cluster_detail.workers,
                "batch": int(offered_batch),
                "shape": list(attached.network.input_shape),
                "requests": int(images.shape[0]),
                "req_per_s": run.achieved_rps,
                "requests_per_s": run.achieved_rps,
                "single_process_rps": baseline_rps,
                "speedup_vs_single_process": (
                    run.achieved_rps / baseline_rps if baseline_rps else float("inf")
                ),
                "latency_p50_ms": report.latency.p50_ms,
                "latency_p99_ms": report.latency.p99_ms,
                "mean_batch_size": report.scheduler.mean_batch_size,
                "shm_attach_ms_mean": cluster_detail.attach_ms_mean,
                "store_bytes": cluster_detail.store_bytes,
                "host_cpus": usable_cpus(),
                "bit_identical": True,
            })
        return records
    finally:
        store.close()


def open_loop_sweep(
    model: str = "MicroCNN",
    workers: int = 2,
    offered_batch: int = 32,
    requests: int = 256,
    overload_x: Sequence[float] = (0.5, 1.5, 3.0),
    max_wait_ms: float = 2.0,
    seed: int = 0,
    mp_context=None,
    worker_threads: Optional[int] = 1,
    transport: str = "pipe",
    bind: Optional[str] = None,
    expect_workers: int = 0,
    max_outstanding: Optional[int] = None,
    worker_backend: str = "auto",
) -> List[dict]:
    """Open-loop overload trajectory: shed / retry-after vs offered load.

    ``max_outstanding`` is the **cluster-wide** admission budget for this
    sweep (default: ``offered_batch``), divided across the workers —
    deliberately tighter than the serving default of ``2 × offered_batch``
    *per worker* — so the overload regime actually sheds within a bounded
    request budget instead of parking the whole benchmark inside the
    admission window.

    The closed-loop sweep (:func:`scaling_sweep`) measures peak sustainable
    throughput — it can never observe a shed, because backpressure stalls
    the submitter instead.  This sweep measures what *overload* looks like:
    a fresh cluster is first driven closed-loop to calibrate its capacity,
    then non-blocking Poisson arrivals are offered at each
    ``overload_x`` multiple of that capacity
    (:func:`repro.serving.loadgen.run_open_loop_shedding`).  Each record
    captures the admitted/shed split, the shed rate, the mean suggested
    retry-after and the completed requests' latency percentiles.

    Every completed response is verified bit-identical to the engine's
    direct ``run_batch`` rows over the same published artifact — overload
    must never buy throughput with a correctness drift.
    """
    from repro.core.engine import PhoneBitEngine
    from repro.serving.loadgen import (
        run_closed_loop,
        run_open_loop_shedding,
        synthetic_images,
    )

    if expect_workers > 0:
        # The sweep builds several sequential clusters (calibration + one
        # per overload multiple) and close() gracefully stops external
        # workers, so the second cluster could never reach its startup
        # target — fail fast instead of hanging for startup_timeout_s.
        raise ValueError(
            "open_loop_sweep cannot use expect_workers: it builds multiple "
            "sequential clusters and external workers exit on the first "
            "close(); use router-spawned workers (workers=N) instead"
        )
    store = SharedModelStore()
    try:
        handles = store.publish_models([model], rng=0)
        key = next(iter(handles))
        attached = attach_model(handles[key])
        images = synthetic_images(attached.network.input_shape, requests,
                                  seed=seed)
        engine = PhoneBitEngine(num_threads=worker_threads,
                                backend=worker_backend)
        baseline_rows = engine.run_batch(
            attached.network, images, collect_estimate=False
        ).output.data

        budget = offered_batch if max_outstanding is None else max_outstanding
        window = max(2, budget // max(1, workers))

        def make_cluster() -> ClusterService:
            return ClusterService(
                store=store, workers=workers,
                max_batch_size=offered_batch, max_wait_ms=max_wait_ms,
                cache_capacity=0, worker_threads=worker_threads,
                worker_backend=worker_backend,
                mp_context=mp_context, transport=transport, bind=bind,
                expect_workers=expect_workers, max_outstanding=window,
            )

        # Calibrate: closed-loop capacity of this cluster configuration on
        # this host, so the overload multiples mean the same thing on a
        # laptop and a CI runner.
        cluster = make_cluster()
        try:
            capacity_rps = run_closed_loop(cluster, key, images).achieved_rps
        finally:
            cluster.close()

        records: List[dict] = []
        for multiple in overload_x:
            offered_rps = max(1.0, capacity_rps * float(multiple))
            cluster = make_cluster()
            try:
                run = run_open_loop_shedding(cluster, key, images,
                                             offered_rps=offered_rps,
                                             seed=seed)
                cluster_detail = cluster.cluster_report()
            finally:
                cluster.close()
            for index, row in run.outputs.items():
                if not np.array_equal(row, baseline_rows[index]):
                    raise AssertionError(
                        f"open-loop output {index} diverged from run_batch "
                        f"at {multiple}x capacity over {transport}"
                    )
            latency = run.report.latency if run.report is not None else None
            records.append({
                "op": "cluster_open_loop",
                "model": key,
                "transport": transport,
                "backend": worker_backend,
                "workers": cluster_detail.workers,
                "batch": int(offered_batch),
                "shape": list(attached.network.input_shape),
                "requests": int(images.shape[0]),
                "offered_rps": offered_rps,
                "offered_x_capacity": float(multiple),
                "capacity_rps": capacity_rps,
                "admission_budget": budget,
                "per_worker_window": window,
                "req_per_s": run.achieved_rps,
                "requests_per_s": run.achieved_rps,
                "completed": run.completed,
                "shed": run.shed,
                "shed_rate": run.shed_rate,
                "retry_after_ms_mean": run.retry_after_ms_mean,
                "latency_p50_ms": latency.p50_ms if latency else 0.0,
                "latency_p99_ms": latency.p99_ms if latency else 0.0,
                "host_cpus": usable_cpus(),
                "bit_identical": True,
            })
        return records
    finally:
        store.close()


def open_loop_table(records: Sequence[dict], title: Optional[str] = None) -> str:
    """Render :func:`open_loop_sweep` records as an aligned table."""
    from repro.analysis.reporting import format_table

    return format_table(
        ["transport", "offered ×cap", "offered rps", "done rps", "shed %",
         "retry-after (ms)", "p50 (ms)", "p99 (ms)"],
        [
            [r["transport"], f"{r['offered_x_capacity']:.1f}x",
             r["offered_rps"], r["req_per_s"],
             f"{100.0 * r['shed_rate']:.1f}", r["retry_after_ms_mean"],
             r["latency_p50_ms"], r["latency_p99_ms"]]
            for r in records
        ],
        title=title,
    )
