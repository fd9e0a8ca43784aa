"""The async micro-batching inference service.

:class:`InferenceService` composes the serving building blocks:

* a :class:`~repro.serving.pool.ModelPool` of warmed networks,
* one :class:`~repro.serving.scheduler.BatchingScheduler` per model whose
  executor stacks queued images into a micro-batch, feeds it through
  ``PhoneBitEngine.run_batch`` (cost estimation disabled on the hot path)
  and splits the batched output back into per-request rows,
* an optional :class:`~repro.serving.cache.LRUResponseCache` keyed on the
  input digest, and
* end-to-end latency metrics distilled into a :class:`ServiceReport`.

Because the batched kernels are bit-exact with per-request execution,
clients cannot observe whether their request was served alone, batched with
strangers, or out of the cache — except through latency.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_kv
from repro.core.engine import PhoneBitEngine, split_batch_output
from repro.core.network import Network
from repro.serving.cache import CacheStats, LRUResponseCache, response_cache_key
from repro.serving.metrics import LatencySummary, LatencyTracker
from repro.serving.pool import ModelPool
from repro.serving.scheduler import BatchingScheduler, BatchRecord, SchedulerStats

#: ``BatchRecord`` → positional row; ``BatchRecord(*row)`` inverts it.
_batch_row = attrgetter(*(f.name for f in fields(BatchRecord)))


@dataclass(frozen=True)
class ServiceReport:
    """Operational summary of one served model."""

    model: str
    device: str
    duration_s: float
    requests: int
    cache_hits: int
    cache_misses: int
    latency: LatencySummary
    scheduler: SchedulerStats
    #: Stats of the *service-wide* response cache (shared by every served
    #: model); the per-model view is ``cache_hits`` / ``cache_misses``.
    cache: Optional[CacheStats] = None

    @property
    def requests_per_s(self) -> float:
        if self.duration_s <= 0:
            return float("inf") if self.requests else 0.0
        return self.requests / self.duration_s

    @property
    def cache_hit_rate(self) -> float:
        """Hit rate of *this model's* cache lookups."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """Plain JSON-able data; :meth:`from_dict` rebuilds an equal report.

        This is the form a cluster worker's ``reports`` frame carries.  The
        scheduler's batch records travel as positional rows, a third of the
        size of one dict per record.
        """
        scheduler = asdict(replace(self.scheduler, batches=[]))
        scheduler["batches"] = [_batch_row(b) for b in self.scheduler.batches]
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "latency": asdict(self.latency),
            "scheduler": scheduler,
            "cache": None if self.cache is None else asdict(self.cache),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceReport":
        """Inverse of :meth:`to_dict` (sequences may arrive as tuples)."""
        scheduler = dict(data["scheduler"])
        scheduler["batches"] = [BatchRecord(*row) for row in scheduler["batches"]]
        cache = data["cache"]
        return cls(**{
            **data,
            "latency": LatencySummary(**data["latency"]),
            "scheduler": SchedulerStats(**scheduler),
            "cache": None if cache is None else CacheStats(**cache),
        })

    def to_record(self) -> dict:
        """JSON-serializable record for the benchmark trajectory."""
        triggers = self.scheduler.trigger_counts
        return {
            "model": self.model,
            "device": self.device,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "requests_per_s": self.requests_per_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "service_cache_hit_rate": self.cache.hit_rate if self.cache else 0.0,
            "latency_mean_ms": self.latency.mean_ms,
            "latency_p50_ms": self.latency.p50_ms,
            "latency_p99_ms": self.latency.p99_ms,
            "batches": self.scheduler.batch_count,
            "mean_batch_size": self.scheduler.mean_batch_size,
            "max_queue_depth": self.scheduler.max_queue_depth,
            "flush_triggers": triggers,
        }

    def table(self) -> str:
        """Aligned plain-text rendering (reporting-module style)."""
        rows: List[tuple] = [
            ("model", self.model),
            ("device", self.device),
            ("duration (s)", self.duration_s),
            ("requests", self.requests),
            ("requests/s", self.requests_per_s),
            ("cache hits", self.cache_hits),
        ]
        if self.cache is not None:
            rows.append(("cache hit rate", f"{100.0 * self.cache_hit_rate:.1f}%"))
            rows.append(
                ("cache hit rate (service-wide)",
                 f"{100.0 * self.cache.hit_rate:.1f}%")
            )
        rows.extend(self.latency.rows()[1:])  # skip duplicate request count
        rows.extend(
            [
                ("micro-batches", self.scheduler.batch_count),
                ("mean batch size", self.scheduler.mean_batch_size),
                ("max queue depth", self.scheduler.max_queue_depth),
                ("batch triggers", ", ".join(
                    f"{name}={count}"
                    for name, count in self.scheduler.trigger_counts.items()
                    if count
                ) or "none"),
            ]
        )
        return format_kv(rows, title=f"Serving report — {self.model}")


class _VersionState:
    """One resident artifact version: its network and its own scheduler.

    Schedulers are per *version*, not per model: a micro-batch is executed
    against exactly one network, so during a rollout (two versions of one
    model live at once) stable and canary requests must never be stacked
    into the same batch.
    """

    def __init__(self, digest: str, network: Network,
                 scheduler: BatchingScheduler) -> None:
        self.digest = digest
        self.network = network
        self.scheduler = scheduler


class _ModelState:
    """Per-model bookkeeping owned by the service.

    Metrics (latency, request and cache counters) aggregate over every
    version served under the name — a rollout does not split the model's
    operational report in two.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self.versions: Dict[str, _VersionState] = {}
        self.latencies = LatencyTracker()
        self.requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.first_submit: Optional[float] = None
        self.last_done: Optional[float] = None


class InferenceService:
    """Serve per-request traffic through dynamic micro-batches.

    Parameters
    ----------
    pool:
        Model pool to serve from (a fresh one by default).
    engine:
        Shared engine; ``run_batch`` is reentrant so one engine serves every
        model.
    max_batch_size:
        Largest micro-batch one scheduler cuts (see
        :class:`BatchingScheduler`).
    max_wait_ms:
        Passed to each scheduler, which validates it but does not wait on
        it (see :class:`BatchingScheduler`).  Kept only because the frozen
        end-to-end harness (``benchmarks/e2e``) passes it; the cluster
        side does not take it.
    cache_capacity:
        LRU response-cache entries; ``0`` disables response caching.
    chunk_size:
        Optional explicit ``run_batch`` chunk bound for very large
        micro-batches; overrides the working-set heuristic.
    chunk_bytes:
        Byte budget for ``run_batch``'s working-set-aware chunk heuristic
        (the CLI's ``--chunk-hint``); ``None`` uses the engine default.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.serving import InferenceService
    >>> with InferenceService(max_batch_size=8, max_wait_ms=1.0) as service:
    ...     image = np.zeros((8, 8, 3), dtype=np.uint8)
    ...     out = service.infer("MicroCNN", image, timeout=60)
    ...     report = service.report("MicroCNN")
    >>> out.shape                  # per-image output row, no batch dim
    (10,)
    >>> report.requests
    1
    """

    def __init__(
        self,
        pool: Optional[ModelPool] = None,
        engine: Optional[PhoneBitEngine] = None,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        cache_capacity: int = 1024,
        chunk_size: Optional[int] = None,
        chunk_bytes: Optional[int] = None,
    ) -> None:
        self.pool = pool or ModelPool()
        self.engine = engine or PhoneBitEngine()
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.chunk_size = chunk_size
        self.chunk_bytes = chunk_bytes
        self.cache = LRUResponseCache(cache_capacity) if cache_capacity else None
        self._lock = threading.Lock()
        self._models: Dict[str, _ModelState] = {}
        self._closed = False

    # ------------------------------------------------------------- plumbing
    def _executor_for(self, network: Network):
        def execute(payloads: Sequence[np.ndarray]) -> List[np.ndarray]:
            batch = np.stack(payloads)
            report = self.engine.run_batch(
                network, batch, chunk_size=self.chunk_size,
                chunk_bytes=self.chunk_bytes, collect_estimate=False,
            )
            # copy=True: responses outlive the batch (cache, client
            # references) and must not pin the shared buffer or alias one
            # another.  Rows are frozen so every response — served fresh or
            # from the cache — is uniformly read-only.
            parts = split_batch_output(
                report.output, [1] * len(payloads), copy=True
            )
            results = []
            for part in parts:
                part.data.setflags(write=False)
                results.append(part.data[0])  # read-only view of frozen copy
            return results

        return execute

    def _state_for(self, model: str,
                   digest: Optional[str] = None) -> tuple:
        # Per-model state (scheduler, metrics, cache namespace) is keyed by
        # the pool's canonical name so "microcnn" and "MicroCNN" share one
        # scheduler and one report rather than splitting traffic in two.
        # Within a model, each resident *version* gets its own scheduler so
        # a micro-batch never mixes artifact digests.
        key = self.pool.canonical_name(model)
        # Build/fetch outside the service lock: a multi-second cold build
        # (VGG16 at 224²) must not stall submissions for hot models.
        network = self.pool.get(key, digest)
        resolved = digest if digest is not None else self.pool.active_digest(key)
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            state = self._models.get(key)
            if state is None:
                state = _ModelState(key)
                self._models[key] = state
            version = state.versions.get(resolved)
            if version is None:
                scheduler = BatchingScheduler(
                    self._executor_for(network),
                    max_batch_size=self.max_batch_size,
                    max_wait_ms=self.max_wait_ms,
                    name=f"serve-{key}" + (f"@{resolved[:12]}" if resolved else ""),
                )
                version = _VersionState(resolved, network, scheduler)
                state.versions[resolved] = version
            return state, version

    def _coerce_image(self, version: _VersionState,
                      image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        expected = version.network.input_shape
        if image.shape != expected:
            raise ValueError(
                f"{version.network.name}: expected one image of shape "
                f"{expected}, got {image.shape}"
            )
        return image

    # ------------------------------------------------------------- requests
    def submit(self, model: str, image: np.ndarray,
               digest: Optional[str] = None) -> Future:
        """Enqueue one inference request; resolves to the output row.

        The result has the network's per-image output shape (no leading
        batch dimension) and is bit-identical to what an unbatched
        ``engine.run`` would produce for the same input.  Responses are
        read-only arrays (they may be shared with the response cache and
        other clients); copy before mutating.

        ``digest`` pins the request to one resident artifact version (a
        rollout's digest-tagged routing); ``None`` serves whatever version
        is active.
        """
        state, version = self._state_for(model, digest)
        image = self._coerce_image(version, image)
        t_submit = time.perf_counter()
        with self._lock:
            state.requests += 1
            if state.first_submit is None:
                state.first_submit = t_submit

        # The response-cache key carries the *artifact digest*, not just the
        # model name: two versions of one model (a rollout's stable and
        # canary weights) produce different rows for the same image, and a
        # rollback must never serve a response computed by the version that
        # was rolled back.
        # NB: "is not None" — the cache defines __len__, so an *empty* cache
        # is falsy and a plain truthiness check would disable it.
        key = (response_cache_key(state.key, version.digest, image)
               if self.cache is not None else None)
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                now = time.perf_counter()
                state.latencies.record(now - t_submit)
                with self._lock:
                    state.cache_hits += 1
                    state.last_done = now
                future: Future = Future()
                future.set_result(cached)
                return future
            with self._lock:
                state.cache_misses += 1

        inner = version.scheduler.submit(image)
        # The client gets a service-owned future resolved only *after* the
        # bookkeeping below has run.  Resolving the scheduler's own future
        # wakes its waiters before done-callbacks fire, so handing that one
        # out would let a client observe a result whose latency sample and
        # cache entry do not exist yet (report() right after result() would
        # undercount).
        outer: Future = Future()
        outer.set_running_or_notify_cancel()  # outer futures are not cancellable

        def _record(done: Future, _state=state, _key=key, _t0=t_submit) -> None:
            now = time.perf_counter()
            with self._lock:
                _state.last_done = now
            if done.cancelled():
                outer.set_exception(CancelledError())
                return
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            result = done.result()
            _state.latencies.record(now - _t0)
            if _key is not None:
                self.cache.put(_key, result)
            outer.set_result(result)

        inner.add_done_callback(_record)
        return outer

    def submit_batch(self, model: str, images: np.ndarray) -> List[Future]:
        """Enqueue one request per leading row of ``images``."""
        return [self.submit(model, image) for image in np.asarray(images)]

    def infer(self, model: str, image: np.ndarray,
              timeout: Optional[float] = None) -> np.ndarray:
        """Blocking single-request inference."""
        return self.submit(model, image).result(timeout=timeout)

    # ------------------------------------------------------------- lifecycle
    def warm(self, model: str, digest: Optional[str] = None) -> None:
        """Start a version's scheduler and run one all-zero batch through it.

        Rollout staging calls this so canary probes are not compared
        cold against a warm stable version.  The batch shows in the
        scheduler's stats only, not in request counts, latencies or cache.
        """
        _, version = self._state_for(model, digest)
        network = version.network
        image = np.zeros(network.input_shape, dtype=network.input_dtype)
        version.scheduler.submit(image).result()

    def retire(self, model: str, digest: str) -> None:
        """Drain and drop one resident version of ``model``.

        Drains and closes the version's scheduler (in-flight requests
        complete against the old network first), drops the version state
        and removes the pool entry — after this, no reference into the
        version's backing storage remains in the service, so the caller
        may safely unmap it.  Retiring the *active* version is refused;
        a version that never served is a no-op beyond the pool removal.
        """
        key = self.pool.canonical_name(model)
        if self.pool.active_digest(key) == digest:
            raise ValueError(
                f"version {digest[:16] or '<unversioned>'}... is the active "
                f"version of {model!r}; swap the active version first")
        with self._lock:
            state = self._models.get(key)
            version = state.versions.pop(digest, None) if state else None
        if version is not None:
            version.scheduler.close(drain=True)
            version.network = None  # type: ignore[assignment]
        self.pool.remove(key, digest)

    def evict(self, model: str) -> None:
        """Drain and drop *every* resident version of ``model``.

        The pin-revocation counterpart of :meth:`retire`: the model is
        being withdrawn from this service entirely (its pin moved to
        another worker), so the active version goes too.  In-flight
        requests drain against their networks first; afterwards no
        reference into any version's backing storage remains here.
        """
        key = self.pool.canonical_name(model)
        with self._lock:
            state = self._models.pop(key, None)
        if state is not None:
            for version in state.versions.values():
                version.scheduler.close(drain=True)
                version.network = None  # type: ignore[assignment]
            state.versions.clear()
        self.pool.evict(key)

    def close(self, drain: bool = True) -> None:
        """Shut every scheduler down (draining pending work by default)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            schedulers = [v.scheduler for s in self._models.values()
                          for v in s.versions.values()]
        for scheduler in schedulers:
            scheduler.close(drain=drain)

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- reporting
    def report(self, model: str) -> ServiceReport:
        """Operational report for one served model."""
        key = self.pool.canonical_name(model)
        with self._lock:
            state = self._models.get(key)
            if state is None:
                raise KeyError(f"model {model!r} has not served any requests")
            first = state.first_submit
            last = state.last_done
            requests = state.requests
            cache_hits = state.cache_hits
            cache_misses = state.cache_misses
            schedulers = [v.scheduler for v in state.versions.values()]
        duration = (last - first) if (first is not None and last is not None) else 0.0
        return ServiceReport(
            model=key,
            device=self.engine.device.soc,
            duration_s=max(0.0, duration),
            requests=requests,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            latency=state.latencies.summary(),
            scheduler=SchedulerStats.merge([s.stats() for s in schedulers]),
            cache=self.cache.stats() if self.cache is not None else None,
        )

    def reports(self) -> Dict[str, ServiceReport]:
        with self._lock:
            names = list(self._models)
        return {name: self.report(name) for name in names}
