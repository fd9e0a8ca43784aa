"""Work-conserving micro-batching scheduler.

Per-request traffic is the worst case for the batched engine: every call
pays the full per-invocation overhead that ``run_batch`` exists to
amortize.  :class:`BatchingScheduler` sits between the two — requests are
queued as they arrive and one worker thread hands them to an executor in
micro-batches.  The policy is **work-conserving**: the moment the worker
is free and anything is pending, it cuts up to ``max_batch_size``
requests.  A lone request on an idle worker runs at once; requests that
arrive while a batch executes queue up and become the next batch, so
batches grow with offered load on their own and no request waits on a
timer in front of an idle executor.

Each batch records why it was cut:

* **size** — at least ``max_batch_size`` requests were pending;
* **idle** — the worker was free and fewer were pending;
* **drain** — :meth:`close` is executing the remaining queue before
  shutdown, so no accepted request is ever dropped.

The scheduler is payload-agnostic: the executor receives the list of queued
payloads and returns one result per payload.  Batching must not change
results — the inference service's executor feeds the whole micro-batch
through ``PhoneBitEngine.run_batch``, whose outputs are bit-identical to
per-request execution.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

#: Why a batch was cut, recorded per batch.
TRIGGERS = ("size", "idle", "drain")

#: How many recent :class:`BatchRecord` entries a scheduler retains.
RECENT_BATCHES = 4_096


@dataclass
class _PendingRequest:
    payload: object
    future: Future
    enqueued_at: float


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """Accounting for one executed micro-batch.

    Slotted: workers ship up to :data:`RECENT_BATCHES` of these per version
    in every report, and the front end holds them all while it merges.
    """

    size: int
    queue_depth: int  #: pending requests at the moment the batch was cut
    trigger: str
    wall_ms: float  #: cut → executor returned (0 when the batch failed)
    failed: bool = False
    wait_ms: float = 0.0  #: the oldest request's queue wait at the cut


@dataclass(frozen=True)
class SchedulerStats:
    """Aggregate view over every batch a scheduler has executed.

    Counters (``batch_count``, ``trigger_counts``, sizes) are exact over
    the scheduler's whole lifetime; ``batches`` holds only the most recent
    records so long-lived services stay memory-bounded.
    """

    submitted: int
    completed: int
    failed: int
    batch_count: int = 0
    batched_requests: int = 0
    trigger_counts: Dict[str, int] = field(
        default_factory=lambda: {trigger: 0 for trigger in TRIGGERS}
    )
    batches: List[BatchRecord] = field(default_factory=list)
    max_queue_depth: int = 0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_count:
            return 0.0
        return self.batched_requests / self.batch_count

    @staticmethod
    def merge(stats: Sequence["SchedulerStats"]) -> "SchedulerStats":
        """Sum several schedulers' stats (versions, workers) into one view.

        Every :data:`TRIGGERS` key is present in the result; merging
        nothing gives all-zero stats.
        """
        triggers = {trigger: 0 for trigger in TRIGGERS}
        for s in stats:
            for name, count in s.trigger_counts.items():
                triggers[name] = triggers.get(name, 0) + count
        return SchedulerStats(
            submitted=sum(s.submitted for s in stats),
            completed=sum(s.completed for s in stats),
            failed=sum(s.failed for s in stats),
            batch_count=sum(s.batch_count for s in stats),
            batched_requests=sum(s.batched_requests for s in stats),
            trigger_counts=triggers,
            batches=[b for s in stats for b in s.batches],
            max_queue_depth=max((s.max_queue_depth for s in stats), default=0),
        )


class BatchingScheduler:
    """Queue requests and run them through an executor in micro-batches.

    Parameters
    ----------
    execute:
        Callable receiving the list of payloads of one micro-batch and
        returning one result per payload (in order).  Runs on the worker
        thread; an exception fails every request in the batch.
    max_batch_size:
        Upper bound on one batch; a longer queue is cut into several.
    max_wait_ms:
        Accepted and validated (it must not be negative) only because the
        frozen end-to-end harness (``benchmarks/e2e``) passes it; the
        work-conserving policy does not read it.
    clock:
        Injectable monotonic clock stamping queue entry, the cut and the
        executor's return (``BatchRecord.wait_ms`` / ``wall_ms``).

    Examples
    --------
    Four requests queued at once with ``max_batch_size=4`` run as one batch:

    >>> with BatchingScheduler(lambda xs: [x * 2 for x in xs],
    ...                        max_batch_size=4) as s:
    ...     futures = s.submit_many(range(4))
    ...     results = [f.result(timeout=30) for f in futures]
    >>> results
    [0, 2, 4, 6]
    >>> s.stats().batches[0].trigger
    'size'
    """

    def __init__(
        self,
        execute: Callable[[Sequence[object]], Sequence[object]],
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        name: str = "scheduler",
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms cannot be negative")
        self._execute = execute
        self.max_batch_size = int(max_batch_size)
        self.name = name
        self._clock = clock or time.monotonic

        self._cond = threading.Condition()
        self._pending: Deque[_PendingRequest] = deque()
        self._closed = False
        self._draining = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._max_queue_depth = 0
        self._batch_count = 0
        self._batched_requests = 0
        self._trigger_counts = {trigger: 0 for trigger in TRIGGERS}
        self._records: Deque[BatchRecord] = deque(maxlen=RECENT_BATCHES)

        self._worker = threading.Thread(
            target=self._run, name=f"{name}-worker", daemon=True
        )
        self._worker.start()

    # ----------------------------------------------------------- submission
    def submit(self, payload: object) -> Future:
        """Enqueue one request; the future resolves to the executor's result."""
        return self.submit_many((payload,))[0]

    def submit_many(self, payloads: Sequence[object]) -> List[Future]:
        """Enqueue several requests at once (one notify, preserving order)."""
        futures: List[Future] = []
        with self._cond:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            now = self._clock()
            for payload in payloads:
                future: Future = Future()
                self._pending.append(_PendingRequest(payload, future, now))
                futures.append(future)
            self._submitted += len(futures)
            self._max_queue_depth = max(self._max_queue_depth, len(self._pending))
            self._cond.notify()
        return futures

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the worker down.

        With ``drain=True`` (the default) every pending request is executed
        before the worker exits; with ``drain=False`` pending requests are
        cancelled.
        """
        with self._cond:
            if not self._closed:
                self._closed = True
                self._draining = drain
                if not drain:
                    while self._pending:
                        request = self._pending.popleft()
                        request.future.cancel()
            self._cond.notify_all()
        if self._worker is not threading.current_thread():
            self._worker.join()
        # The worker only drains what it can reach: if it died abnormally
        # (see _run) — or its death raced the close — requests may still be
        # queued.  They must resolve with an error, never hang a client.
        self._fail_pending(RuntimeError(f"{self.name} worker thread died"))

    def _fail_pending(self, error: BaseException) -> None:
        """Resolve every still-queued request with ``error``."""
        with self._cond:
            pending, self._pending = list(self._pending), deque()
            self._failed += len(pending)
        for request in pending:
            if request.future.set_running_or_notify_cancel():
                try:
                    request.future.set_exception(error)
                except Exception:  # pragma: no cover - defensive
                    pass

    def __enter__(self) -> "BatchingScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- inspection
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def stats(self) -> SchedulerStats:
        with self._cond:
            return SchedulerStats(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                batch_count=self._batch_count,
                batched_requests=self._batched_requests,
                trigger_counts=dict(self._trigger_counts),
                batches=list(self._records),
                max_queue_depth=self._max_queue_depth,
            )

    # ----------------------------------------------------------- worker loop
    def _cut_batch(self) -> tuple:
        """Wait until anything is pending; cut and return the next batch.

        Returns ``(batch, trigger, depth, cut_at, wait_s)``; ``batch`` is
        None when the scheduler is closed and the queue is exhausted.
        """
        with self._cond:
            while True:
                if not self._pending:
                    if self._closed:
                        return None, "", 0, 0.0, 0.0
                    self._cond.wait()
                    continue
                # Stamp before popping: should the clock raise, every
                # request is still queued for _run's failure path.
                cut_at = self._clock()
                wait_s = max(0.0, cut_at - self._pending[0].enqueued_at)
                depth = len(self._pending)
                if depth >= self.max_batch_size:
                    trigger = "size"
                elif self._draining:
                    trigger = "drain"
                else:
                    trigger = "idle"
                batch = []
                for _ in range(min(self.max_batch_size, depth)):
                    request = self._pending.popleft()
                    # Claim the future before executing.  A client may have
                    # cancelled while the request was queued; such requests
                    # are dropped here, and claiming makes later cancel()
                    # calls no-ops so the result/exception hand-off below
                    # cannot race a client-side cancel.
                    if request.future.set_running_or_notify_cancel():
                        batch.append(request)
                if batch:  # else every popped request was already cancelled
                    return batch, trigger, depth, cut_at, wait_s

    def _run(self) -> None:
        try:
            while True:
                batch, trigger, depth, cut_at, wait_s = self._cut_batch()
                if batch is None:
                    return
                self._run_batch(batch, trigger, depth, cut_at, wait_s)
        except BaseException as exc:  # noqa: BLE001 - worker must not hang clients
            # Executor exceptions are forwarded per batch by _run_batch; only
            # infrastructure failures land here (e.g. a poisoned clock).  A
            # dead worker can never cut another batch, so every queued — and
            # every future — request must fail instead of waiting forever.
            with self._cond:
                self._closed = True
                self._cond.notify_all()
            self._fail_pending(
                RuntimeError(f"{self.name} worker thread died: {exc!r}")
            )

    def _run_batch(self, batch: List[_PendingRequest], trigger: str,
                   depth: int, cut_at: float, wait_s: float) -> None:
        error: Optional[BaseException] = None
        results: Sequence[object] = ()
        done_at = cut_at
        try:
            results = self._execute([request.payload for request in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"executor returned {len(results)} results for "
                    f"{len(batch)} requests"
                )
            # Inside the guard: the batch's futures are already claimed, so
            # anything raising past this point — even the injectable clock —
            # must fail the batch, not strand resolved-never futures.
            done_at = self._clock()
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            error = exc

        # Account before resolving, so a client that sees its result also
        # sees the batch in stats().
        with self._cond:
            if error is not None:
                self._failed += len(batch)
            else:
                self._completed += len(batch)
            self._batch_count += 1
            self._batched_requests += len(batch)
            self._trigger_counts[trigger] += 1
            self._records.append(
                BatchRecord(
                    size=len(batch),
                    queue_depth=depth,
                    trigger=trigger,
                    wall_ms=max(0.0, done_at - cut_at) * 1000.0,
                    failed=error is not None,
                    wait_ms=wait_s * 1000.0,
                )
            )

        # The futures were claimed in _cut_batch, so set_result/set_exception
        # cannot race a client cancel; the guard below is a last line of
        # defence keeping the worker alive should a future somehow already
        # be resolved — one wedged future must never kill the loop.
        for index, request in enumerate(batch):
            try:
                if error is not None:
                    request.future.set_exception(error)
                else:
                    request.future.set_result(results[index])
            except Exception:  # pragma: no cover - defensive
                pass
