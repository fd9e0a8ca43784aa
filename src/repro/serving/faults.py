"""Deterministic fault injection for the serving cluster.

Every failure path the cluster claims to survive — crashed workers, lost
connections, stalled processes, dropped/delayed/duplicated frames — used
to be exercised by ad-hoc ``SIGKILL`` s scattered through the test suite.
This module turns chaos into an *input*: a :class:`FaultPlan` is a seeded,
replayable schedule of fault events, and a :class:`FaultInjector` fires it
against a live :class:`~repro.serving.cluster.ClusterService` through
injection points threaded into the transport and cluster layers.

Two kinds of rules:

* **Frame rules** (``drop`` / ``delay`` / ``duplicate``) act on individual
  transport frames.  Outbound request frames pass through a wrapped
  :class:`~repro.serving.transport.WorkerEndpoint`; inbound response
  frames pass through the injector's delivery filter.  Whether a given
  frame is hit is decided by a *seeded* RNG — the decision sequence is a
  pure function of the plan seed and the frame sequence.
* **Scheduled rules** (``crash`` / ``stall`` / ``partition`` /
  ``slow_start``) fire at seed-chosen times against seed-chosen worker
  indexes: SIGKILL a worker, freeze its serve loop (heartbeats stop), cut
  both directions of its frame flow for a window, or delay a reconnecting
  worker's re-registration.

The *schedule* — which faults fire, when, against which target index,
with which parameters — is a pure function of ``(seed, spec)``:
``FaultPlan.from_seed(7, "crash,stall,delay")`` builds the identical
schedule every time (:meth:`FaultPlan.schedule`), which is what makes a
chaos run reproducible and a chaos regression bisectable.  What the
cluster *does* about the faults (retry, hedge, quarantine, requeue) is
the machinery under test; outputs must stay bit-identical throughout.

Examples
--------
>>> plan = FaultPlan.from_seed(7, "crash,delay")
>>> plan.schedule() == FaultPlan.from_seed(7, "crash,delay").schedule()
True
>>> plan.seed, sorted({r.kind for r in plan.rules})
(7, ['crash', 'delay'])
>>> parse_chaos_spec("7:crash,stall").seed
7
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "parse_chaos_spec",
]

#: Recognized fault classes, and which group each belongs to.
FRAME_KINDS = ("drop", "delay", "duplicate")
SCHEDULED_KINDS = ("crash", "stall", "partition", "slow_start")
FAULT_KINDS = FRAME_KINDS + SCHEDULED_KINDS

#: Message kinds frame rules apply to by default: the request/response hot
#: path.  Control traffic (heartbeats, reports, attach) is spared so a
#: frame fault reads as "this request's frame was lost", not "the whole
#: worker went silent" — partitions model the latter.
DEFAULT_FRAME_MESSAGE_KINDS = frozenset({"reqs", "res", "err"})


@dataclass(frozen=True)
class FaultRule:
    """One fault in a plan.

    Frame rules (``drop``/``delay``/``duplicate``) are active inside
    ``[at_s, at_s + duration_s)`` and hit each matching frame with
    ``probability`` (decided by the plan-seeded RNG), at most ``count``
    times.  Scheduled rules fire once at ``at_s`` against the live worker
    whose sorted index is ``target_index`` (modulo the live count).
    """

    kind: str
    at_s: float = 0.0
    duration_s: float = 0.0
    delay_s: float = 0.0
    probability: float = 1.0
    count: int = 1 << 30
    #: Index into the sorted live worker list at fire time (scheduled
    #: rules).  Seed-chosen, so the schedule is reproducible even though
    #: worker ids themselves depend on runtime membership.
    target_index: int = 0
    #: ``"send"`` (router→worker), ``"recv"`` (worker→router) or ``"both"``.
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.direction not in ("send", "recv", "both"):
            raise ValueError(f"invalid direction {self.direction!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class FaultEvent:
    """One fired (or scheduled) fault occurrence."""

    at_s: float
    kind: str
    target: str  #: worker id at fire time, or "*" for frame rules
    param: float  #: duration / delay seconds (0 where meaningless)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"t+{self.at_s:6.3f}s {self.kind:<10} {self.target} ({self.param:.3f})"


class FaultPlan:
    """A seeded, replayable set of fault rules.

    Parameters
    ----------
    rules:
        The fault rules (see :class:`FaultRule`).
    seed:
        Seeds every probabilistic decision the plan makes at runtime
        (which frames a ``drop`` rule hits, scheduled-rule parameters
        drawn by :meth:`from_seed`).  Same seed + same rules → same
        schedule and same frame-decision sequence.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)

    @classmethod
    def from_seed(cls, seed: int, spec: str,
                  horizon_s: float = 2.0) -> "FaultPlan":
        """Generate a plan from a seed and a fault-class spec.

        ``spec`` is a comma-separated list of fault classes, each with an
        optional repeat count: ``"crash,stall*2,partition,delay"``.  Every
        rule's firing time, target index and parameters are drawn from a
        ``numpy`` RNG seeded with ``seed`` — the resulting schedule is a
        pure function of ``(seed, spec, horizon_s)``.

        Scheduled faults land in ``[0.15, 0.85] * horizon_s`` (the load
        must be in flight around them); frame faults are active across
        the whole horizon with moderate probabilities so retries have
        something to recover from without extinguishing goodput.
        """
        rng = np.random.default_rng(int(seed))
        rules: List[FaultRule] = []
        for kind, repeat in _parse_spec(spec):
            for _ in range(repeat):
                at = float(rng.uniform(0.15, 0.85)) * horizon_s
                target = int(rng.integers(0, 1 << 16))
                if kind in FRAME_KINDS:
                    rules.append(FaultRule(
                        kind=kind,
                        at_s=0.0,
                        duration_s=horizon_s,
                        delay_s=float(rng.uniform(0.01, 0.05)),
                        probability=float(rng.uniform(0.05, 0.20)),
                        direction=("both" if kind != "duplicate" else "recv"),
                    ))
                elif kind == "crash":
                    rules.append(FaultRule(kind=kind, at_s=at,
                                           target_index=target))
                elif kind == "stall":
                    rules.append(FaultRule(
                        kind=kind, at_s=at, target_index=target,
                        duration_s=float(rng.uniform(0.2, 0.5)),
                    ))
                elif kind == "partition":
                    rules.append(FaultRule(
                        kind=kind, at_s=at, target_index=target,
                        duration_s=float(rng.uniform(0.1, 0.3)),
                    ))
                else:  # slow_start
                    rules.append(FaultRule(
                        kind=kind, at_s=0.0, target_index=target,
                        delay_s=float(rng.uniform(0.05, 0.2)),
                    ))
        return cls(rules, seed=seed)

    def schedule(self) -> List[FaultEvent]:
        """The deterministic fire schedule (before worker-id resolution).

        Targets are rendered as ``#<index>`` because the concrete worker
        id is only known at fire time; everything else — order, times,
        kinds, parameters — is exact.  Two plans built from the same
        ``(seed, spec)`` compare equal here, which is the replayability
        contract the chaos tests pin.
        """
        events = []
        for rule in sorted(self.rules, key=lambda r: (r.at_s, r.kind)):
            target = ("*" if rule.kind in FRAME_KINDS
                      else f"#{rule.target_index}")
            param = (rule.delay_s if rule.kind in ("delay", "duplicate",
                                                   "slow_start")
                     else rule.duration_s)
            if rule.kind == "drop":
                param = rule.probability
            events.append(FaultEvent(at_s=rule.at_s, kind=rule.kind,
                                     target=target, param=param))
        return events

    def injector(self) -> "FaultInjector":
        """Build a fresh runtime injector for one chaos run."""
        return FaultInjector(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ",".join(r.kind for r in self.rules)
        return f"FaultPlan(seed={self.seed}, rules=[{kinds}])"


def _parse_spec(spec: str) -> List[Tuple[str, int]]:
    """``"crash,stall*2"`` → ``[("crash", 1), ("stall", 2)]``."""
    out: List[Tuple[str, int]] = []
    for item in str(spec).split(","):
        item = item.strip()
        if not item:
            continue
        name, star, repeat_text = item.partition("*")
        name = name.strip().lower()
        if name not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault class {name!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        repeat = 1
        if star:
            try:
                repeat = int(repeat_text)
            except ValueError:
                raise ValueError(
                    f"invalid repeat count in {item!r}; expected CLASS*N"
                ) from None
            if repeat < 1:
                raise ValueError(f"repeat count in {item!r} must be >= 1")
        out.append((name, repeat))
    if not out:
        raise ValueError("empty fault spec")
    return out


def parse_chaos_spec(text: str) -> FaultPlan:
    """Parse the CLI's ``--chaos SEED:PLAN`` argument into a plan.

    ``"7:crash,stall*2,delay"`` → a :class:`FaultPlan` seeded with 7.
    A bare plan with no seed prefix seeds with 0.
    """
    head, sep, tail = str(text).partition(":")
    if sep and head.strip().lstrip("-").isdigit():
        return FaultPlan.from_seed(int(head), tail)
    return FaultPlan.from_seed(0, text)


class _FrameRuleState:
    """Runtime state of one frame rule: its RNG stream and budget."""

    def __init__(self, rule: FaultRule, seed: int, index: int) -> None:
        self.rule = rule
        # Independent per-rule stream: decisions of one rule never shift
        # another's, so adding a rule to a plan perturbs only itself.
        self.rng = np.random.default_rng((int(seed), 1000 + index))
        self.remaining = rule.count

    def decide(self, now_s: float, direction: str) -> bool:
        rule = self.rule
        if self.remaining <= 0:
            return False
        if rule.direction != "both" and rule.direction != direction:
            return False
        if not (rule.at_s <= now_s < rule.at_s + rule.duration_s):
            return False
        if float(self.rng.random()) >= rule.probability:
            return False
        self.remaining -= 1
        return True


class FaultInjector:
    """Runtime executor of one :class:`FaultPlan` against one cluster.

    A clock-driven core like :class:`~repro.serving.autoscale.Autoscaler`:
    it owns no thread.  The cluster calls :meth:`start` with a controller
    (its own adapter exposing ``worker_ids`` / ``kill`` / ``stall``),
    wraps every worker endpoint with :meth:`wrap_endpoint`, filters
    inbound delivery through :meth:`filter_inbound`, and calls
    :meth:`tick` from its control thread.  The injector is single-use —
    build a fresh one per run (:meth:`FaultPlan.injector`).

    Injection points
    ----------------
    * outbound frames — :meth:`wrap_endpoint` intercepts ``send``:
      hot-path frames may be dropped, delayed (delivered late by a later
      :meth:`tick`) or duplicated; a partitioned worker's frames all
      vanish for the window.
    * inbound frames — :meth:`filter_inbound` does the same for
      worker→router messages.
    * scheduled worker faults — :meth:`tick` fires ``crash`` (SIGKILL via
      the controller), ``stall`` (a control message freezes the worker's
      serve loop) and ``partition`` windows once their seeded times are
      due.
    * reconnect slow-start — :meth:`reconnect_delay_s` tells the
      registration path how long to hold a worker's re-admission.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._frame_rules = [
            _FrameRuleState(rule, plan.seed, index)
            for index, rule in enumerate(plan.rules)
            if rule.kind in FRAME_KINDS
        ]
        self._scheduled = sorted(
            (rule for rule in plan.rules if rule.kind in SCHEDULED_KINDS
             and rule.kind != "slow_start"),
            key=lambda r: r.at_s,
        )
        self._slow_start = [r for r in plan.rules if r.kind == "slow_start"]
        self._lock = threading.Lock()
        self._events: List[FaultEvent] = []
        #: ``{worker_id: partition_end}`` on :attr:`_clock`.
        self._partitioned: Dict[str, float] = {}
        self._controller = None
        self._clock: Callable[[], float] = time.perf_counter
        self._t0: Optional[float] = None
        self._stopped = False
        #: Delayed deliveries: heap of (due, seq, fire_fn) on :attr:`_clock`.
        self._delayed: List[tuple] = []
        self._delayed_seq = 0

    # ------------------------------------------------------------- lifecycle
    def start(self, controller,
              clock: Callable[[], float] = time.perf_counter) -> None:
        """Arm the injector: ``t0`` is now on ``clock``, the clock every
        :meth:`tick` ``now`` is read from.  ``controller`` needs
        ``worker_ids()`` → sorted live ids, ``kill(worker_id)`` and
        ``stall(worker_id, seconds)``."""
        with self._lock:
            if self._t0 is not None:
                raise RuntimeError("injector already started (single-use)")
            self._controller = controller
            self._clock = clock
            self._t0 = clock()

    def stop(self) -> None:
        """Disarm for good: frames pass through and nothing fires."""
        with self._lock:
            self._stopped = True
            self._delayed.clear()

    @property
    def started(self) -> bool:
        return self._t0 is not None

    def now_s(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        t0 = self._t0
        return 0.0 if t0 is None else self._clock() - t0

    def events(self) -> List[FaultEvent]:
        """Faults actually fired so far, in firing order."""
        with self._lock:
            return list(self._events)

    def _record(self, kind: str, target: str, param: float) -> None:
        with self._lock:
            self._events.append(FaultEvent(
                at_s=self.now_s(), kind=kind, target=target, param=param,
            ))

    # ------------------------------------------------------------- frames
    def partitioned(self, worker_id: str) -> bool:
        with self._lock:
            end = self._partitioned.get(worker_id)
            if end is None:
                return False
            if self._clock() >= end:
                del self._partitioned[worker_id]
                return False
            return True

    def _message_kind(self, message) -> str:
        try:
            return message[0]
        except Exception:  # pragma: no cover - defensive
            return ""

    def filter_send(self, worker_id: str, message) -> List[Tuple[float, object]]:
        """Frame decision for one outbound message.

        Returns ``[(delay_s, message), ...]`` — empty means dropped, one
        entry means delivered (possibly late), two means duplicated.
        Messages outside the hot path pass through untouched unless the
        worker is partitioned.
        """
        if self._stopped:  # draining/teardown: no faults
            return [(0.0, message)]
        if self.partitioned(worker_id):
            return []
        kind = self._message_kind(message)
        if kind not in DEFAULT_FRAME_MESSAGE_KINDS:
            return [(0.0, message)]
        return self._filter_frame(message, "send", target=worker_id)

    def filter_inbound(self, message) -> List[Tuple[float, object]]:
        """Frame decision for one inbound (worker→router) message."""
        if self._stopped:  # draining/teardown: no faults
            return [(0.0, message)]
        kind = self._message_kind(message)
        worker_id = None
        if kind in ("res", "err", "hb") and len(message) >= 2:
            worker_id = message[1]
        if worker_id is not None and self.partitioned(worker_id):
            return []
        if kind not in DEFAULT_FRAME_MESSAGE_KINDS:
            return [(0.0, message)]
        return self._filter_frame(message, "recv", target=worker_id or "*")

    def _filter_frame(self, message, direction: str,
                      target: str) -> List[Tuple[float, object]]:
        now = self.now_s()
        out: List[Tuple[float, object]] = [(0.0, message)]
        with self._lock:
            for state in self._frame_rules:
                if not state.decide(now, direction):
                    continue
                rule = state.rule
                if rule.kind == "drop":
                    out = []
                elif rule.kind == "delay":
                    out = [(delay + rule.delay_s, m) for delay, m in out]
                elif rule.kind == "duplicate" and out:
                    out = out + [(rule.delay_s, message)]
        for delay, _m in out:
            if delay > 0:
                self._record("delay", target, delay)
        if not out:
            self._record("drop", target, 0.0)
        elif len(out) > 1:
            self._record("duplicate", target, out[-1][0])
        return out

    # ------------------------------------------------------------- endpoints
    def wrap_endpoint(self, endpoint):
        """Wrap a :class:`WorkerEndpoint` with the outbound frame filter."""
        return _FaultyEndpoint(endpoint, self)

    def schedule_delivery(self, delay_s: float, fire: Callable[[], None]) -> None:
        """Run ``fire`` on the first :meth:`tick` ``delay_s`` from now."""
        with self._lock:
            self._delayed_seq += 1
            heapq.heappush(self._delayed,
                           (self._clock() + delay_s, self._delayed_seq, fire))

    # ------------------------------------------------------------- reconnects
    def reconnect_delay_s(self) -> float:
        """Slow-start delay to apply to the next worker (re)registration."""
        with self._lock:
            if not self._slow_start:
                return 0.0
            rule = self._slow_start.pop(0)
        self._record("slow_start", "*", rule.delay_s)
        return rule.delay_s

    # ------------------------------------------------------------- scheduler
    def tick(self, now: float) -> Optional[float]:
        """Fire every scheduled rule and delayed delivery due at ``now``.

        ``now`` is read on the :meth:`start` clock.  Returns when the next
        one falls due (same clock) — the caller's wake-up time — or
        ``None`` when nothing is queued, before :meth:`start` and after
        :meth:`stop`.
        """
        with self._lock:
            if self._t0 is None or self._stopped:
                return None
            rules = []
            while self._scheduled and self._t0 + self._scheduled[0].at_s <= now:
                rules.append(self._scheduled.pop(0))
            fire_now = []
            while self._delayed and self._delayed[0][0] <= now:
                fire_now.append(heapq.heappop(self._delayed)[2])
        fires = [partial(self._fire, rule, now) for rule in rules] + fire_now
        for fire in fires:
            try:
                fire()
            except Exception:  # pragma: no cover - defensive
                pass  # a fault that cannot land must not stop the caller
        with self._lock:
            due = [self._t0 + rule.at_s for rule in self._scheduled[:1]]
            due += [item[0] for item in self._delayed[:1]]
            return min(due, default=None)

    def _fire(self, rule: FaultRule, now: float) -> None:
        ids = sorted(self._controller.worker_ids())
        if not ids:
            return
        worker_id = ids[rule.target_index % len(ids)]
        if rule.kind == "crash":
            self._record("crash", worker_id, 0.0)
            self._controller.kill(worker_id)
        elif rule.kind == "stall":
            self._record("stall", worker_id, rule.duration_s)
            self._controller.stall(worker_id, rule.duration_s)
        elif rule.kind == "partition":
            self._record("partition", worker_id, rule.duration_s)
            with self._lock:
                self._partitioned[worker_id] = now + rule.duration_s


@dataclass
class _FaultyEndpoint:
    """Endpoint decorator applying the injector's outbound frame rules.

    Everything except ``send`` delegates to the wrapped endpoint, so the
    cluster's supervision (``alive`` / ``kill`` / ``reap`` /
    ``surviving_process``) sees the real transport state.
    """

    inner: object
    injector: FaultInjector
    #: filled in __post_init__; declared for dataclass bookkeeping only
    worker_id: str = field(init=False, default="")

    def __post_init__(self) -> None:
        self.worker_id = getattr(self.inner, "worker_id", "")

    def send(self, message) -> None:
        deliveries = self.injector.filter_send(self.worker_id, message)
        for delay, msg in deliveries:
            if delay <= 0:
                self.inner.send(msg)
            else:
                inner = self.inner

                def _late(m=msg) -> None:
                    try:
                        inner.send(m)
                    except Exception:
                        pass  # link died while the frame was in flight

                self.injector.schedule_delivery(delay, _late)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
