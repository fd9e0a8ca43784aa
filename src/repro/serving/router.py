"""Request routing, admission control and model pinning for the cluster.

:class:`LeastOutstandingRouter` is pure bookkeeping — no processes, no
queues, no sockets — so the routing policy is unit-testable in isolation
and the cluster front-end (:mod:`repro.serving.cluster`) stays an I/O
shell around it.  Workers are opaque endpoint ids: the router neither
knows nor cares whether an id names a forked child process on a pipe
transport or a remote host that self-registered over TCP
(:mod:`repro.serving.transport`) — membership churn from crashes,
connection losses and re-admissions all arrive as the same
``add_worker`` / ``remove_worker`` calls.  The policy has three layers:

* **Least outstanding requests** — a request goes to the eligible worker
  with the fewest requests currently dispatched-but-unanswered.  This is
  the classic load-balancing improvement over round-robin for workloads
  with variable batch latency: a worker stuck on a big micro-batch simply
  stops winning ties until it drains.
* **Per-model consistent tie-breaking (rendezvous hashing)** — ties are
  broken by the highest-random-weight hash of ``(model, worker)``, so each
  model has a stable preference order over workers.  At low load one
  model's traffic keeps landing on the same workers (warm plans, warm
  caches); when workers join or die, only the affected slots reshuffle.
* **Per-model pinning (rendezvous top-K)** — with :meth:`set_pin_counts`,
  a model routes only within the top-``K`` workers of its rendezvous
  preference order, restricted to workers that have *declared* the model
  (``add_worker(models=...)`` / :meth:`add_worker_model`).  A mixed fleet
  (VGG16 next to MicroCNN) then attaches only its pinned artifacts per
  worker — the cluster keeps the declared sets converging on the top-K
  target as membership churns.

Admission control is a bounded outstanding window per worker
(``max_outstanding``): when every eligible worker is at its bound the
router *sheds* instead of queueing unboundedly, and reports a suggested
retry-after so clients can back off (the cluster surfaces this as
:class:`~repro.serving.cluster.ClusterOverloadError`).  The retry horizon
is computed over the **model's eligible worker set** — a model pinned to
2 of 16 workers drains through 2 workers, not 16.

Admission is **SLO-class tiered** when ``slo_reserves`` is configured:
each request carries a class from :data:`SLO_CLASSES`
(``interactive`` > ``standard`` > ``batch``) and each class may only fill
a worker up to ``max_outstanding - reserve(class)`` slots.  Reserves are
monotone down-tier (interactive ≤ standard ≤ batch), so under pressure
the batch tier sheds first, then standard, and interactive last — lower
tiers can never occupy the slots reserved above them.
:func:`default_slo_reserves` derives a reserve table from a single
*interactive floor* knob.  :meth:`retry_after_s` scales the suggested
back-off by each class's share of the window: a batch client at half the
window is told to wait twice as long as an interactive one.

Slot accounting is exact: :meth:`release` returns a slot only when the
worker actually holds one, and every registration gets a fresh
**generation** (:meth:`add_worker` returns it) so a release scoped to a
dead incarnation of a re-registered worker id is a no-op instead of
stealing a slot the new incarnation never granted.  The invariant
``dispatched == completed + Σ outstanding`` therefore holds across any
interleaving of acquire/release/remove/re-register
(``tests/test_autoscale.py`` drives randomized sequences against it).

A fourth, health-driven layer sits on top (:class:`QuarantinePolicy`):
the cluster feeds per-request outcomes back (:meth:`record_completion` /
:meth:`record_failure`), the router tracks an EWMA completion latency per
worker, and a worker whose latency degrades far beyond the fleet median —
or that fails several requests in a row — is **quarantined**: ejected
from eligibility (like pinning, never to the point of making a model
unservable) until it earns probation re-admission with ``N`` consecutive
clean heartbeats (:meth:`record_clean_heartbeat`).  Quarantine only
shapes *routing preference*; slot accounting and the declared-model
restriction are untouched, so the invariant above is oblivious to it.

Examples
--------
>>> router = LeastOutstandingRouter(max_outstanding=2)
>>> router.add_worker("w0"); router.add_worker("w1")
1
2
>>> first = router.acquire("MicroCNN")
>>> second = router.acquire("MicroCNN")
>>> {first, second} == {"w0", "w1"}  # least-outstanding spreads the pair
True
>>> router.acquire("MicroCNN") in ("w0", "w1")
True
>>> router.acquire("MicroCNN") in ("w0", "w1")
True
>>> router.acquire("MicroCNN") is None  # both at the bound: shed
True
>>> router.release(first)
True
>>> router.acquire("MicroCNN") == first
True
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

__all__ = [
    "SLO_CLASSES",
    "SLO_TIERS",
    "LeastOutstandingRouter",
    "QuarantinePolicy",
    "RouterStats",
    "default_slo_reserves",
    "pin_counts_from_shares",
    "rendezvous_score",
    "validate_slo",
]

#: SLO classes, highest priority first.  Tiered admission sheds the last
#: class first and protects the first class longest.
SLO_CLASSES = ("interactive", "standard", "batch")

#: Class name → tier index (0 = highest priority).
SLO_TIERS = {name: tier for tier, name in enumerate(SLO_CLASSES)}

#: Class a request belongs to when no ``slo`` is given.
SLO_DEFAULT = "standard"


def validate_slo(slo: Optional[str]) -> str:
    """Return the effective SLO class name; raise on an unknown one."""
    if slo is None:
        return SLO_DEFAULT
    if slo not in SLO_TIERS:
        raise ValueError(
            f"unknown SLO class {slo!r}; expected one of {SLO_CLASSES}"
        )
    return slo


def default_slo_reserves(max_outstanding: int,
                         interactive_floor: Optional[int] = None
                         ) -> Dict[str, int]:
    """Reserve table from a single *interactive floor* knob.

    ``interactive_floor`` slots per worker are reserved for the
    interactive tier alone (default: a quarter of the window, at least
    one).  The batch tier is additionally confined to half of whatever
    remains, so it sheds strictly before standard does.

    Examples
    --------
    >>> default_slo_reserves(8)
    {'interactive': 0, 'standard': 2, 'batch': 5}
    >>> default_slo_reserves(16, interactive_floor=4)
    {'interactive': 0, 'standard': 4, 'batch': 10}
    """
    if max_outstanding < 1:
        raise ValueError("max_outstanding must be at least 1")
    if interactive_floor is None:
        interactive_floor = max(1, max_outstanding // 4) \
            if max_outstanding > 1 else 0
    floor = int(interactive_floor)
    if not 0 <= floor < max_outstanding:
        raise ValueError(
            "interactive_floor must be in [0, max_outstanding)"
        )
    remaining = max_outstanding - floor
    batch_extra = remaining - max(1, remaining // 2)
    return {
        "interactive": 0,
        "standard": floor,
        "batch": min(max_outstanding - 1, floor + batch_extra),
    }


def rendezvous_score(model: str, worker: str) -> int:
    """Stable highest-random-weight score for a ``(model, worker)`` pair."""
    digest = hashlib.blake2b(
        f"{model}\x00{worker}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def pin_counts_from_shares(shares: Mapping[str, float], workers: int,
                           min_workers: int = 1) -> Dict[str, int]:
    """Pin-count per model from its traffic share of a ``workers``-size fleet.

    Each model gets ``round(share_fraction * workers)`` workers, clamped to
    ``[min_workers, workers]`` — a model must always be servable somewhere,
    and can never be pinned wider than the fleet.  Shares need not sum to
    one (pass request rates directly); they are normalized here.

    Examples
    --------
    >>> pin_counts_from_shares({"MicroCNN": 3.0, "VGG16": 1.0}, workers=4)
    {'MicroCNN': 3, 'VGG16': 1}
    >>> pin_counts_from_shares({"A": 1.0, "B": 0.0}, workers=8)
    {'A': 8, 'B': 1}
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if min_workers < 1:
        raise ValueError("min_workers must be at least 1")
    total = float(sum(shares.values()))
    counts: Dict[str, int] = {}
    for model, share in shares.items():
        fraction = (share / total) if total > 0 else 1.0
        counts[model] = max(min(min_workers, workers),
                            min(workers, round(fraction * workers)))
    return counts


@dataclass(frozen=True)
class QuarantinePolicy:
    """When to eject a degraded worker, and how it earns its way back.

    A worker is quarantined when either trigger fires:

    * **latency** — its EWMA completion latency exceeds ``latency_factor``
      × the fleet median EWMA, once it has at least ``min_samples``
      completions *and* the fleet has a second worker to compare against
      (a fleet of one has no notion of "slow");
    * **failures** — ``max_consecutive_failures`` requests in a row
      failed on it (crash/timeout/requeue all count; one success resets).

    Quarantine ends by **probation**: ``probation_heartbeats`` consecutive
    clean heartbeats (a heartbeat with no failure since the previous one)
    re-admit the worker with its health counters reset.  A failure during
    probation restarts the count.

    Examples
    --------
    >>> policy = QuarantinePolicy(max_consecutive_failures=2,
    ...                           probation_heartbeats=2)
    >>> router = LeastOutstandingRouter(quarantine=policy)
    >>> router.add_worker("w0"); router.add_worker("w1")
    1
    2
    >>> router.record_failure("w0"); router.record_failure("w0")
    >>> router.quarantined_workers()
    ['w0']
    >>> router.acquire("m")  # w0 no longer eligible
    'w1'
    >>> router.record_clean_heartbeat("w0")
    >>> router.record_clean_heartbeat("w0")
    >>> router.quarantined_workers()
    []
    """

    #: EWMA latency beyond this multiple of the fleet median quarantines.
    latency_factor: float = 4.0
    #: Completions required before the latency trigger may fire.
    min_samples: int = 8
    #: Consecutive failures that quarantine regardless of latency.
    max_consecutive_failures: int = 3
    #: Consecutive clean heartbeats that end a quarantine.
    probation_heartbeats: int = 5
    #: EWMA smoothing factor for per-worker completion latency.
    ewma_alpha: float = 0.2

    def __post_init__(self) -> None:
        if self.latency_factor <= 1.0:
            raise ValueError("latency_factor must exceed 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be at least 1")
        if self.probation_heartbeats < 1:
            raise ValueError("probation_heartbeats must be at least 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")


class _WorkerHealth:
    """Mutable per-worker health state (router lock guards all access)."""

    __slots__ = ("ewma_latency_s", "samples", "consecutive_failures",
                 "quarantined", "probation_clean")

    def __init__(self) -> None:
        self.ewma_latency_s: Optional[float] = None
        self.samples = 0
        self.consecutive_failures = 0
        self.quarantined = False
        self.probation_clean = 0


@dataclass(frozen=True)
class RouterStats:
    """Counters over the router's lifetime."""

    dispatched: int
    completed: int
    shed: int
    workers: int
    quarantined: int = 0

    @property
    def outstanding(self) -> int:
        return self.dispatched - self.completed


class LeastOutstandingRouter:
    """Pick workers by least-outstanding with consistent tie-breaking.

    Parameters
    ----------
    max_outstanding:
        Admission-control bound per worker: :meth:`acquire` returns ``None``
        (shed) when every eligible worker already has this many requests in
        flight.  This bounds every per-worker queue — the cluster's
        backpressure comes from here, not from unbounded OS pipes.
    pin_counts:
        Optional ``{model: K}`` mapping enabling per-model pinning: each
        listed model routes only within the top-``K`` workers of its
        rendezvous order (see :meth:`set_pin_counts`).  Unlisted models
        stay unpinned (any declaring worker is eligible).
    quarantine:
        Optional :class:`QuarantinePolicy` enabling health-driven worker
        ejection.  Without it the feedback methods
        (:meth:`record_completion` etc.) are cheap no-ops.
    slo_reserves:
        Optional ``{class: slots}`` mapping enabling SLO-class tiered
        admission: each class may only fill a worker up to
        ``max_outstanding - slots``.  See :meth:`set_slo_reserves`.
        Without it every class shares the one ``max_outstanding`` bound.
    """

    def __init__(self, max_outstanding: int = 64,
                 pin_counts: Optional[Mapping[str, int]] = None,
                 quarantine: Optional[QuarantinePolicy] = None,
                 slo_reserves: Optional[Mapping[str, int]] = None) -> None:
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be at least 1")
        self.max_outstanding = int(max_outstanding)
        self.quarantine_policy = quarantine
        self._lock = threading.Lock()
        self._slo_reserves: Dict[str, int] = {}
        self._shed_by_class: Dict[str, int] = {name: 0 for name in SLO_CLASSES}
        self._outstanding: Dict[str, int] = {}
        #: Declared servable models per worker; ``None`` = serves any model.
        self._models: Dict[str, Optional[Set[str]]] = {}
        #: Declared resident artifact versions per worker:
        #: ``worker -> model -> {digest}``.  Orthogonal to ``_models``:
        #: the model declaration answers "may this worker serve the
        #: model at all", the digest declaration answers "which exact
        #: artifact versions does it hold" — a rollout stages the new
        #: digest here before any request may be routed to it.
        self._digests: Dict[str, Dict[str, Set[str]]] = {}
        #: Registration generation per worker id (kept after removal so a
        #: re-registration under the same id gets a strictly newer value).
        self._generations: Dict[str, int] = {}
        self._generation_counter = 0
        self._pin_counts: Dict[str, int] = {}
        self._health: Dict[str, _WorkerHealth] = {}
        self._dispatched = 0
        self._completed = 0
        self._shed = 0
        if pin_counts:
            self.set_pin_counts(pin_counts)
        if slo_reserves:
            self.set_slo_reserves(slo_reserves)

    # ------------------------------------------------------------- SLO tiers
    def set_slo_reserves(self,
                         reserves: Optional[Mapping[str, int]]) -> None:
        """Set (or clear, with ``None``) the per-class slot reserves.

        ``{class: slots}`` withholds ``slots`` of every worker's
        ``max_outstanding`` window from that class, leaving them for
        higher tiers.  Reserves must be monotone down-tier (interactive ≤
        standard ≤ batch) — that monotonicity *is* the shed-order
        contract: whenever a class sheds, every class below it already
        sheds too.  Every class must keep at least one usable slot.
        """
        with self._lock:
            if reserves is None:
                self._slo_reserves = {}
                return
            table: Dict[str, int] = {}
            for name, slots in reserves.items():
                validate_slo(name)
                slots = int(slots)
                if not 0 <= slots < self.max_outstanding:
                    raise ValueError(
                        f"reserve for {name!r} must be in "
                        f"[0, {self.max_outstanding})"
                    )
                table[name] = slots
            ordered = [table.get(name, 0) for name in SLO_CLASSES]
            if any(low > high for low, high in zip(ordered, ordered[1:])):
                raise ValueError(
                    "slo_reserves must be monotone down-tier "
                    f"(interactive <= standard <= batch), got {table!r}"
                )
            self._slo_reserves = table

    def slo_reserves(self) -> Dict[str, int]:
        """Snapshot of the configured ``{class: reserved slots}`` table."""
        with self._lock:
            return dict(self._slo_reserves)

    def _slo_bound(self, slo: Optional[str]) -> int:
        """Per-worker admission bound for ``slo`` (lock held by caller)."""
        if not self._slo_reserves:
            return self.max_outstanding
        reserve = self._slo_reserves.get(validate_slo(slo), 0)
        return self.max_outstanding - reserve

    def slo_bounds(self) -> Dict[str, int]:
        """Effective per-worker admission bound per SLO class."""
        with self._lock:
            return {name: self._slo_bound(name) for name in SLO_CLASSES}

    def shed_by_class(self) -> Dict[str, int]:
        """Recorded sheds per SLO class (unclassed sheds count as
        ``standard``)."""
        with self._lock:
            return dict(self._shed_by_class)

    # ------------------------------------------------------------- pinning
    def set_pin_counts(self, pin_counts: Optional[Mapping[str, int]]) -> None:
        """Set (or clear, with ``None``) the per-model pinning widths.

        ``{model: K}`` restricts each listed model to the top-``K`` workers
        of its rendezvous preference order among the workers declaring it.
        ``K`` is clamped to at least 1 at eligibility time, so a pinned
        model is servable whenever *any* declaring worker is registered.
        """
        with self._lock:
            if pin_counts is None:
                self._pin_counts = {}
                return
            for model, count in pin_counts.items():
                if int(count) < 1:
                    raise ValueError(
                        f"pin count for {model!r} must be at least 1"
                    )
            self._pin_counts = {model: int(count)
                                for model, count in pin_counts.items()}

    def pin_counts(self) -> Dict[str, int]:
        """Snapshot of the configured ``{model: K}`` pinning widths."""
        with self._lock:
            return dict(self._pin_counts)

    def _candidates(self, model: str) -> List[str]:
        """Workers declaring ``model`` (lock held by caller)."""
        return [worker for worker, served in self._models.items()
                if served is None or model in served]

    def _eligible(self, model: str) -> List[str]:
        """Eligible worker set for ``model`` (lock held by caller).

        The top-``K`` declaring workers by rendezvous score when the model
        is pinned; every declaring worker otherwise.  Computing the top-K
        over the *declaring* set (not all registered workers) keeps a
        pinned model servable during membership churn: the cluster's
        attach refresh converges the declared sets onto the ideal top-K,
        and routing never outruns an attach.
        """
        candidates = self._candidates(model)
        count = self._pin_counts.get(model)
        if count is not None and count < len(candidates):
            candidates.sort(
                key=lambda worker: rendezvous_score(model, worker),
                reverse=True)
            candidates = candidates[: max(1, count)]
        # Quarantine filters *within* the pinned set, and backs off
        # entirely rather than make a model unservable: with every
        # eligible worker quarantined, the least-bad worker still beats
        # shedding forever.
        healthy = [worker for worker in candidates
                   if not self._is_quarantined(worker)]
        return healthy if healthy else candidates

    def eligible_workers(self, model: str) -> List[str]:
        """Workers ``model`` may currently route to (pinning applied)."""
        with self._lock:
            return sorted(self._eligible(model))

    # ------------------------------------------------------------- membership
    def add_worker(self, worker: str,
                   models: Optional[Sequence[str]] = None) -> int:
        """Register a worker; returns its registration **generation**.

        ``models`` declares which models the worker can serve (``None`` =
        any).  Re-registering a live worker updates the declaration but
        keeps its slots and generation; re-registering a *removed* worker
        id starts a fresh incarnation with a new generation — releases
        scoped to the old generation are no-ops against it.
        """
        with self._lock:
            declared = None if models is None else set(models)
            if worker in self._outstanding:
                self._models[worker] = declared
                return self._generations[worker]
            self._outstanding[worker] = 0
            self._models[worker] = declared
            # A fresh incarnation starts with a clean bill of health — the
            # process (or connection) the bad history belonged to is gone.
            # Its digest declarations died with the old process too.
            self._health.pop(worker, None)
            self._digests.pop(worker, None)
            self._generation_counter += 1
            self._generations[worker] = self._generation_counter
            return self._generation_counter

    def add_worker_model(self, worker: str, model: str) -> None:
        """Declare one more servable model on a registered worker (no-op
        for unknown workers or workers already declared serve-anything)."""
        with self._lock:
            served = self._models.get(worker)
            if served is not None:
                served.add(model)

    def remove_worker_model(self, worker: str, model: str) -> None:
        """Withdraw one model from a worker's served set (pin revocation).

        Also drops every version declaration the worker held for the
        model: a detached artifact must stop attracting digest-tagged
        traffic the moment the front end decides to revoke it, not when
        the worker's detach ack arrives.  No-op for unknown workers or
        serve-anything workers.
        """
        with self._lock:
            served = self._models.get(worker)
            if served is not None:
                served.discard(model)
            by_model = self._digests.get(worker)
            if by_model is not None:
                by_model.pop(model, None)
                if not by_model:
                    self._digests.pop(worker, None)

    def worker_models(self, worker: str) -> Optional[Set[str]]:
        """Declared servable models for ``worker`` (``None`` = any)."""
        with self._lock:
            served = self._models.get(worker)
            return None if served is None else set(served)

    # --------------------------------------------------------- digest layer
    def declare_digest(self, worker: str, model: str, digest: str) -> None:
        """Declare that ``worker`` holds artifact version ``digest`` of
        ``model`` (no-op for unregistered workers).

        Digest-tagged acquires (:meth:`acquire` with ``digest=``) route
        only to declaring holders, so a rollout's canary traffic cannot
        reach a worker before its prepare ack declared the new version.
        """
        with self._lock:
            if worker not in self._outstanding:
                return
            by_model = self._digests.setdefault(worker, {})
            by_model.setdefault(model, set()).add(digest)

    def revoke_digest(self, worker: str, model: str, digest: str) -> None:
        """Withdraw a version declaration (no-op when absent) — the
        worker detached the artifact, or a rollback retired it."""
        with self._lock:
            by_model = self._digests.get(worker)
            if not by_model:
                return
            held = by_model.get(model)
            if held is None:
                return
            held.discard(digest)
            if not held:
                del by_model[model]
            if not by_model:
                self._digests.pop(worker, None)

    def digest_holders(self, model: str, digest: str) -> List[str]:
        """Registered workers declaring ``digest`` of ``model``, sorted."""
        with self._lock:
            return sorted(
                worker for worker in self._outstanding
                if digest in self._digests.get(worker, {}).get(model, ())
            )

    def generation(self, worker: str) -> Optional[int]:
        """Current registration generation of ``worker`` (``None`` if it is
        not registered — removed workers forget nothing, but expose
        nothing either)."""
        with self._lock:
            if worker not in self._outstanding:
                return None
            return self._generations[worker]

    def remove_worker(self, worker: str) -> int:
        """Drop a worker; returns the outstanding count it died with.

        The dropped slots will never see a ``release`` (their responses
        died with the worker), so they are credited to the completed
        counter here — otherwise every crashed in-flight request would
        inflate ``RouterStats.outstanding`` forever, since its re-dispatch
        counts as a fresh acquire.
        """
        with self._lock:
            count = self._outstanding.pop(worker, 0)
            self._models.pop(worker, None)
            self._health.pop(worker, None)
            self._digests.pop(worker, None)
            self._completed += count
            return count

    def workers(self) -> List[str]:
        with self._lock:
            return sorted(self._outstanding)

    def outstanding(self, worker: str) -> int:
        with self._lock:
            return self._outstanding.get(worker, 0)

    # ------------------------------------------------------------- health
    def _is_quarantined(self, worker: str) -> bool:
        """Lock held by caller."""
        health = self._health.get(worker)
        return health is not None and health.quarantined

    def _fleet_median_ewma(self, exclude: str) -> Optional[float]:
        """Median EWMA latency over the *other* live workers (lock held)."""
        values = sorted(
            health.ewma_latency_s
            for worker, health in self._health.items()
            if worker != exclude and worker in self._outstanding
            and health.ewma_latency_s is not None
        )
        if not values:
            return None
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def _health_entry(self, worker: str) -> Optional[_WorkerHealth]:
        """Lock held by caller; ``None`` for unknown workers / no policy."""
        if self.quarantine_policy is None:
            return None
        if worker not in self._outstanding:
            return None
        health = self._health.get(worker)
        if health is None:
            health = self._health[worker] = _WorkerHealth()
        return health

    def record_completion(self, worker: str, latency_s: float) -> None:
        """Feed one successful completion's wall latency into the worker's
        health.  May quarantine the worker if its EWMA latency has degraded
        past ``latency_factor`` × the fleet median (other workers only, so
        a uniformly slow fleet — big model, cold cache — never quarantines
        anyone)."""
        policy = self.quarantine_policy
        with self._lock:
            health = self._health_entry(worker)
            if health is None:
                return
            health.consecutive_failures = 0
            alpha = policy.ewma_alpha
            if health.ewma_latency_s is None:
                health.ewma_latency_s = float(latency_s)
            else:
                health.ewma_latency_s += alpha * (float(latency_s)
                                                  - health.ewma_latency_s)
            health.samples += 1
            if health.quarantined or health.samples < policy.min_samples:
                return
            median = self._fleet_median_ewma(exclude=worker)
            if (median is not None and median > 0.0
                    and health.ewma_latency_s
                    > policy.latency_factor * median):
                health.quarantined = True
                health.probation_clean = 0

    def record_failure(self, worker: str) -> None:
        """Feed one failed request (crash, timeout, requeue) into the
        worker's health; quarantines after ``max_consecutive_failures``
        in a row and restarts any probation in progress."""
        policy = self.quarantine_policy
        with self._lock:
            health = self._health_entry(worker)
            if health is None:
                return
            health.consecutive_failures += 1
            health.probation_clean = 0
            if (not health.quarantined and health.consecutive_failures
                    >= policy.max_consecutive_failures):
                health.quarantined = True

    def record_clean_heartbeat(self, worker: str) -> None:
        """A heartbeat arrived with no failure since the previous one.
        ``probation_heartbeats`` of these in a row end a quarantine with
        the worker's health counters reset."""
        policy = self.quarantine_policy
        with self._lock:
            health = self._health.get(worker)
            if (policy is None or health is None
                    or not health.quarantined
                    or worker not in self._outstanding):
                return
            health.probation_clean += 1
            if health.probation_clean >= policy.probation_heartbeats:
                self._health[worker] = _WorkerHealth()

    def quarantined_workers(self) -> List[str]:
        """Currently quarantined worker ids, sorted."""
        with self._lock:
            return sorted(worker for worker in self._outstanding
                          if self._is_quarantined(worker))

    # ------------------------------------------------------------- routing
    def acquire(self, model: str, force: bool = False,
                record_shed: bool = True,
                exclude: Optional[Sequence[str]] = None,
                slo: Optional[str] = None,
                digest: Optional[str] = None) -> Optional[str]:
        """Reserve a dispatch slot; returns the worker id or ``None`` (shed).

        The caller owns the returned slot and must pair it with
        :meth:`release` (request answered) or :meth:`remove_worker`
        (worker died; in-flight slots die with it).  ``force=True`` ignores
        the admission bound *and* the pinning top-K preference — used when
        re-dispatching work that was already admitted once (crashed-worker
        requeue must not shed) — but never the declared-model restriction:
        a worker that has not attached a model's artifact cannot serve it.
        ``record_shed=False`` keeps a ``None`` return out of the shed
        counter — a backpressured caller polling for a free slot is
        *waiting*, not shedding, and must not inflate the statistic.
        ``exclude`` removes specific workers from consideration — a hedged
        or retried dispatch must land somewhere *other* than the workers
        already holding the request's slots.  ``slo`` names the request's
        class: with :meth:`set_slo_reserves` configured, the class's
        tiered bound replaces ``max_outstanding`` for non-forced acquires,
        so lower tiers shed first and never touch the reserved headroom.
        ``digest`` pins the dispatch to workers *declaring* that artifact
        version of the model (:meth:`declare_digest`) — like the
        declared-model restriction, it holds even under ``force``: a
        version-tagged request must never execute against other weights.
        """
        excluded = frozenset(exclude) if exclude else frozenset()
        slo = validate_slo(slo)
        with self._lock:
            bound = self._slo_bound(slo)
            eligible = (self._candidates(model) if force
                        else self._eligible(model))
            best: Optional[str] = None
            best_key = None
            for worker in eligible:
                if worker in excluded:
                    continue
                if digest is not None and digest not in \
                        self._digests.get(worker, {}).get(model, ()):
                    continue
                count = self._outstanding[worker]
                if count >= bound and not force:
                    continue
                key = (count, -rendezvous_score(model, worker))
                if best_key is None or key < best_key:
                    best, best_key = worker, key
            if best is None:
                if record_shed:
                    self._shed += 1
                    self._shed_by_class[slo] += 1
                return None
            self._outstanding[best] += 1
            self._dispatched += 1
            return best

    def record_shed(self, slo: Optional[str] = None) -> None:
        """Count one client-visible shed (used with ``record_shed=False``)."""
        with self._lock:
            self._shed += 1
            self._shed_by_class[validate_slo(slo)] += 1

    def release(self, worker: str, generation: Optional[int] = None) -> bool:
        """Return one slot on ``worker``; ``True`` iff a held slot came back.

        No-ops (returning ``False``) when the worker is not registered,
        holds no slots, or — with ``generation`` given — has re-registered
        under a newer generation since the slot was acquired.  All three
        are late answers whose slots were already credited to the
        completed counter by :meth:`remove_worker`; counting them again
        would overstate completions and (for the re-registration case)
        steal a slot the new incarnation never granted.
        """
        with self._lock:
            count = self._outstanding.get(worker)
            if count is None or count <= 0:
                return False
            if (generation is not None
                    and generation != self._generations[worker]):
                return False
            self._outstanding[worker] = count - 1
            self._completed += 1
            return True

    def retry_after_s(self, batch_wall_ms: float = 2.0,
                      model: Optional[str] = None,
                      slo: Optional[str] = None) -> float:
        """Suggested client back-off when shedding.

        A saturated cluster drains roughly one batch per eligible worker
        per batch wall time; half that horizon is a reasonable first
        retry.  With ``model`` given the horizon is computed over the
        model's **eligible** worker set — a model pinned to 2 of 16
        workers drains 8× slower than the fleet-wide figure would claim.
        With ``slo`` given the horizon additionally scales by the class's
        share of the window: a batch request admitted through half the
        slots must wait through twice the drain an interactive one would.
        """
        slo = validate_slo(slo)
        with self._lock:
            if model is None:
                workers = max(1, len(self._outstanding))
            else:
                workers = max(1, len(self._eligible(model)))
            tier_factor = self.max_outstanding / max(1, self._slo_bound(slo))
        return max(0.001, (batch_wall_ms / 1000.0) * self.max_outstanding
                   * tier_factor / (2.0 * workers))

    # ------------------------------------------------------------- stats
    def stats(self) -> RouterStats:
        with self._lock:
            return RouterStats(
                dispatched=self._dispatched,
                completed=self._completed,
                shed=self._shed,
                workers=len(self._outstanding),
                quarantined=sum(1 for worker in self._outstanding
                                if self._is_quarantined(worker)),
            )
