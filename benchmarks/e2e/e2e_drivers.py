"""Load drivers of the end-to-end benchmark: one generator thread, two loops.

Both loops run on the calling thread and talk to the program through one
callable, ``submit(index) -> Future``; completions arrive on the program's
own threads through ``Future.add_done_callback``.  A closed-loop request is
timed from just before the ``submit`` call, an open-loop request from the
instant it was *due*, so a stalled generator shows as latency (and as
``generator lag``) instead of vanishing.

With ``spans`` given, every request also leaves three spans in memory —
``request`` (origin → completion) and its children ``submit_call`` (the
synchronous call into the layer) and ``await_result`` (return → completion
callback) — which the traced run writes out as JSONL when it ends.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from e2e_stats import OK, RAISED, REFUSED

#: A request that does not complete within this many seconds means the
#: program hung; the driver raises instead of waiting forever.
STALL_TIMEOUT_S = 30.0

#: ``(trace id, name, parent name or None, start, end)``; names are unique
#: within one trace, times are ``perf_counter`` seconds.
Span = Tuple[int, str, Optional[str], float, float]


class Refused(Exception):
    """The program refused the request (admission control said no)."""


class Recorder:
    """Per-request timestamps, outcomes and outputs of one window.

    Arrays are preallocated to ``capacity`` so recording a request costs a
    few stores and the harness's own memory does not depend on how fast
    the program happened to be.
    """

    def __init__(self, capacity: int, out_shape: Sequence[int], out_dtype,
                 spans: Optional[List[Span]] = None) -> None:
        self.capacity = int(capacity)
        self.t_origin = np.zeros(self.capacity)
        self.t_call = np.zeros(self.capacity)
        self.t_return = np.zeros(self.capacity)
        self.t_done = np.zeros(self.capacity)
        self.status = np.zeros(self.capacity, dtype=np.int8)
        #: The future was already resolved when ``submit`` returned.
        self.synchronous = np.zeros(self.capacity, dtype=bool)
        self.outputs = np.zeros((self.capacity, *out_shape), dtype=out_dtype)
        self.spans = spans
        self.count = 0

    def complete(self, index: int, future, now: float) -> None:
        """Store the outcome of request ``index`` (runs on any thread)."""
        self.t_done[index] = now
        error = future.exception()
        if error is None:
            self.outputs[index] = future.result()
            self.status[index] = OK
        else:
            self.status[index] = RAISED
        if self.spans is not None:
            returned = self.t_return[index]
            self.spans.append(
                (index, "submit_call", "request", self.t_call[index], returned))
            self.spans.append((index, "await_result", "request", returned, now))
            self.spans.append(
                (index, "request", None, self.t_origin[index], now))

    def reject(self, index: int, outcome: int, now: float) -> None:
        """``submit`` itself raised: no future, the request ends here."""
        self.t_return[index] = self.t_done[index] = now
        self.status[index] = outcome
        if self.spans is not None:
            self.spans.append(
                (index, "submit_call", "request", self.t_call[index], now))
            self.spans.append(
                (index, "request", None, self.t_origin[index], now))

    def trimmed(self) -> "Recorder":
        """Shrink every array to the ``count`` requests actually issued."""
        for name in ("t_origin", "t_call", "t_return", "t_done", "status",
                     "synchronous", "outputs"):
            setattr(self, name, getattr(self, name)[: self.count])
        return self


def _issue(submit, recorder: Recorder, index: int, origin: float,
           clock, finished: Callable[[], None]) -> None:
    """Make request ``index`` and arrange for its completion to be stored."""
    recorder.t_origin[index] = origin
    recorder.t_call[index] = clock()
    try:
        future = submit(index)
    except Refused:
        recorder.reject(index, REFUSED, clock())
        finished()
        return
    except Exception:  # noqa: BLE001 - any error is a failed request
        recorder.reject(index, RAISED, clock())
        finished()
        return
    recorder.t_return[index] = clock()
    recorder.synchronous[index] = future.done()

    def _done(done_future) -> None:
        recorder.complete(index, done_future, clock())
        finished()

    future.add_done_callback(_done)


def drive_closed(submit, recorder: Recorder, window: int, seconds: float,
                 clock=time.perf_counter) -> Recorder:
    """Keep ``window`` requests outstanding for ``seconds``, then drain.

    The next request is made only when a slot is free, so a slower program
    receives less load; the number outstanding never exceeds ``window``.
    """
    slots = threading.Semaphore(window)
    deadline = clock() + seconds
    index = 0
    while index < recorder.capacity:
        if not slots.acquire(timeout=STALL_TIMEOUT_S):
            raise RuntimeError(f"no request completed in {STALL_TIMEOUT_S} s")
        now = clock()
        if now >= deadline:
            slots.release()
            break
        _issue(submit, recorder, index, now, clock, slots.release)
        index += 1
    recorder.count = index
    for _ in range(window):
        if not slots.acquire(timeout=STALL_TIMEOUT_S):
            raise RuntimeError("requests still outstanding after the window")
    return recorder.trimmed()


def drive_open(submit, recorder: Recorder, offsets: Sequence[float],
               clock=time.perf_counter, sleep=time.sleep) -> Recorder:
    """Make request ``i`` at ``start + offsets[i]`` whatever the program does.

    The clock is never stalled by a slow ``submit``: a request made late is
    still timed from the instant it was due.
    """
    done = threading.Semaphore(0)
    count = min(len(offsets), recorder.capacity)
    start = clock()
    for index in range(count):
        due = start + float(offsets[index])
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        _issue(submit, recorder, index, due, clock, done.release)
    recorder.count = count
    for _ in range(count):
        if not done.acquire(timeout=STALL_TIMEOUT_S):
            raise RuntimeError("requests still outstanding after the schedule")
    return recorder.trimmed()


def write_spans(path: str, workload: str, spans: Sequence[Span]) -> None:
    """One JSON object per line: trace, span, parent, start_us, end_us."""
    if not spans:
        return
    zero = min(span[3] for span in spans)
    with open(path, "w") as fh:
        for trace, name, parent, start, end in spans:
            parent_json = "null" if parent is None else f'"{parent}"'
            fh.write(
                f'{{"workload":"{workload}","trace":{trace},"span":"{name}",'
                f'"parent":{parent_json},"start_us":{(start - zero) * 1e6:.1f},'
                f'"end_us":{(end - zero) * 1e6:.1f}}}\n')


def self_times(spans: Sequence[Span]) -> dict:
    """``{span name: [self seconds per trace]}``: duration minus children.

    Within one trace the self times of all spans add up to the root span,
    which is what lets a reader say where a request's milliseconds went.
    """
    duration: dict = {}
    children: dict = {}
    for trace, name, parent, start, end in spans:
        duration[(trace, name)] = end - start
        if parent is not None:
            key = (trace, parent)
            children[key] = children.get(key, 0.0) + (end - start)
    result: dict = {}
    for (trace, name), seconds in duration.items():
        result.setdefault(name, []).append(
            seconds - children.get((trace, name), 0.0))
    return result
