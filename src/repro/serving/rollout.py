"""Zero-downtime model rollout state machine.

A rollout replaces the weights a fleet serves for one model **without a
restart and without shedding a single request**, built on the repo's
content addressing: every artifact is its SHA-256 digest, so "new model
version" is just "new digest" and the swap is a pointer flip, never a
data race.  :class:`RolloutController` is the *pure* decision core — no
sockets, no threads, no wall clock (time is injected) — so every phase
transition is unit-testable and property-testable in isolation; the
cluster front-end (:mod:`repro.serving.cluster`) is the I/O shell that
feeds it worker acks, canary comparisons and deaths, and executes the
decisions it returns.

The phases, in order::

    staging ──► canary ──► promoting ──► committed
       │           │            │
       └───────────┴────────────┴──────► rolled_back

* **staging** — the new digest has been published to the artifact store
  and every worker currently serving the model has been told to
  fetch-ahead and warm it (``prepare``).  The *old* digest keeps serving
  every request; nothing routes to the new one yet.  All workers acking
  (or dying — a dead worker cannot gate a rollout) advances to canary.
* **canary** — a configured fraction of the model's traffic is
  *mirrored*: the client's request is still answered by the stable
  digest, and a duplicate probe runs against the new digest on a worker
  that declared it.  Each (stable, canary) answer pair is one
  **comparison sample**: outputs bit-identical or not, plus both
  latencies.  Binarized inference is deterministic, so for an
  equivalent artifact the canary must match bit-for-bit — any mismatch
  is a wrong model, not noise, which is why ``max_mismatches`` defaults
  to zero.
* **promoting** — every worker flips its active version atomically
  (``ModelPool.set_active``); the controller waits for the commit acks.
  The old digest **stays resident** on every worker, so rollback from
  here is the same cheap pointer flip back.
* **committed / rolled_back** — terminal.  Only after commit does the
  fleet detach the old version (attach revocation); only after rollback
  does it detach the new one.

Every transition and every gating fact is appended to :attr:`events` as
a :class:`RolloutEvent` — the replayable timeline the golden tests under
``tests/golden/`` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "ROLLOUT_PHASES",
    "RolloutConfig",
    "RolloutController",
    "RolloutEvent",
]

#: Rollout phases in lifecycle order (two terminal states last).
ROLLOUT_PHASES = (
    "staging", "canary", "promoting", "committed", "rolled_back",
)

#: Phases a rollout can still move out of.
_LIVE_PHASES = ("staging", "canary", "promoting")


@dataclass(frozen=True)
class RolloutConfig:
    """Knobs governing one rollout's pace and its auto-rollback triggers.

    Examples
    --------
    >>> RolloutConfig(canary_fraction=0.25).validate() is None
    True
    >>> RolloutConfig(canary_fraction=1.5).validate()
    Traceback (most recent call last):
        ...
    ValueError: canary_fraction must be in (0, 1]
    """

    #: Fraction of the model's traffic mirrored to the canary digest.
    canary_fraction: float = 0.1
    #: Comparison samples required before promotion may trigger.
    min_canary_samples: int = 8
    #: Mismatched samples tolerated before auto-rollback.  Zero by
    #: default: binarized inference is deterministic, so an equivalent
    #: artifact *must* agree bit-for-bit.
    max_mismatches: int = 0
    #: Auto-rollback when mean canary latency exceeds this multiple of
    #: mean stable latency (requires ``min_canary_samples`` samples).
    latency_factor: float = 3.0
    #: Per-phase deadlines; expiry rolls back (never hangs forever).  The
    #: canary deadline includes waiting for promotion after the gate passed.
    staging_timeout_s: float = 60.0
    canary_timeout_s: float = 120.0
    promote_timeout_s: float = 60.0
    #: Promote automatically once the canary gate passes.  With
    #: ``False`` the rollout waits in canary for an explicit
    #: :meth:`RolloutController.begin_promote` (until ``canary_timeout_s``).
    auto_promote: bool = True

    def validate(self) -> None:
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in (0, 1]")
        if self.min_canary_samples < 1:
            raise ValueError("min_canary_samples must be at least 1")
        if self.max_mismatches < 0:
            raise ValueError("max_mismatches must be non-negative")
        if self.latency_factor <= 1.0:
            raise ValueError("latency_factor must exceed 1")
        for name in ("staging_timeout_s", "canary_timeout_s",
                     "promote_timeout_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class RolloutEvent:
    """One timeline entry: what happened, when, in which phase."""

    #: Seconds since the rollout started (injected clock).
    t_s: float
    #: Phase the rollout was in *after* the event applied.
    phase: str
    #: Machine-readable event kind (``prepared``, ``comparison``,
    #: ``promote``, ``rollback`` ...).
    kind: str
    #: Human-readable detail.
    detail: str = ""

    def as_record(self) -> Dict[str, object]:
        """JSON-stable form for golden-timeline snapshots."""
        return {"t_s": round(self.t_s, 6), "phase": self.phase,
                "kind": self.kind, "detail": self.detail}


@dataclass
class _CanaryStats:
    samples: int = 0
    mismatches: int = 0
    stable_latency_sum_s: float = 0.0
    canary_latency_sum_s: float = 0.0


class RolloutController:
    """Pure state machine for one model's digest rollout.

    Parameters
    ----------
    model:
        Canonical model name being rolled out.
    old_digest / new_digest:
        The currently-served and the candidate artifact digests.
    workers:
        Worker ids that must stage the new digest (the model's current
        holders).  Workers may die mid-rollout (:meth:`worker_gone`);
        a dead worker never gates progress.
    config:
        :class:`RolloutConfig`; validated on construction.
    clock:
        Injectable monotonic clock (seconds).  The controller never
        reads the wall clock itself, so tests drive time explicitly.

    The I/O shell calls the ``worker_*`` / ``record_comparison`` feed
    methods as facts arrive, then :meth:`decide` on its maintenance
    tick; ``decide`` returns ``"promote"``, ``"rollback"`` or ``None``
    and the shell executes the returned action (calling
    :meth:`begin_promote` / :meth:`force_rollback` back in).

    Examples
    --------
    >>> now = [0.0]
    >>> ctl = RolloutController("m", "a" * 64, "b" * 64, ["w0"],
    ...                         RolloutConfig(min_canary_samples=2),
    ...                         clock=lambda: now[0])
    >>> ctl.phase
    'staging'
    >>> ctl.worker_prepared("w0"); ctl.phase
    'canary'
    >>> ctl.record_comparison(True, 0.01, 0.011)
    >>> ctl.record_comparison(True, 0.01, 0.012)
    >>> ctl.decide()
    'promote'
    """

    def __init__(self, model: str, old_digest: str, new_digest: str,
                 workers: Iterable[str],
                 config: Optional[RolloutConfig] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if old_digest == new_digest:
            raise ValueError(
                "rollout requires a new digest: the artifact is already "
                "the served version (content addressing makes identical "
                "bytes the same model)")
        self.model = model
        self.old_digest = old_digest
        self.new_digest = new_digest
        self.config = config or RolloutConfig()
        self.config.validate()
        self._clock = clock if clock is not None else _no_clock
        self._t0 = self._clock()
        self.phase = "staging"
        self._phase_started_s = 0.0
        self.events: List[RolloutEvent] = []
        self._pending_prepare: Set[str] = set(workers)
        self._prepared: Set[str] = set()
        self._pending_commit: Set[str] = set()
        self._committed: Set[str] = set()
        self._canary = _CanaryStats()
        self._probe_counter = 0
        self._rollback_reason: Optional[str] = None
        self._event("start",
                    f"{old_digest[:12]} -> {new_digest[:12]} on "
                    f"{len(self._pending_prepare)} worker(s)")
        if not self._pending_prepare:
            self._roll_back("no workers hold the model; nothing to stage")

    # ------------------------------------------------------------- helpers
    def _now_s(self) -> float:
        return self._clock() - self._t0

    def _event(self, kind: str, detail: str = "") -> None:
        self.events.append(
            RolloutEvent(self._now_s(), self.phase, kind, detail))

    def _enter(self, phase: str, kind: str, detail: str = "") -> None:
        self.phase = phase
        self._phase_started_s = self._now_s()
        self._event(kind, detail)

    @property
    def done(self) -> bool:
        """Terminal — no further transitions will happen."""
        return self.phase in ("committed", "rolled_back")

    @property
    def rollback_reason(self) -> Optional[str]:
        return self._rollback_reason

    # ------------------------------------------------------------- feeds
    def worker_prepared(self, worker: str) -> None:
        """A worker acked ``prepare``: the new digest is attached, warmed
        and registered (inactive) in its pool."""
        if self.done:
            return
        if worker in self._pending_prepare:
            self._pending_prepare.discard(worker)
            self._prepared.add(worker)
            self._event("prepared", worker)
            self._maybe_enter_canary()

    def worker_joined(self, worker: str) -> None:
        """A new worker began serving the model mid-rollout: it must
        stage the new digest too before promotion can proceed."""
        if self.done or worker in self._prepared:
            return
        if worker not in self._pending_prepare:
            self._pending_prepare.add(worker)
            self._event("joined", worker)

    def worker_gone(self, worker: str) -> None:
        """A worker died or was evicted: it gates nothing anymore.

        Losing the *last* staged worker rolls back — with nobody holding
        the new digest there is nothing left to canary or commit.
        """
        if self.done:
            return
        was_known = (worker in self._pending_prepare
                     or worker in self._prepared
                     or worker in self._pending_commit)
        self._pending_prepare.discard(worker)
        self._prepared.discard(worker)
        self._pending_commit.discard(worker)
        if was_known:
            self._event("worker_gone", worker)
        if self.phase == "staging":
            if not self._pending_prepare and not self._prepared:
                self._roll_back("every staging worker died")
            else:
                self._maybe_enter_canary()
        elif self.phase == "canary" and not self._prepared:
            self._roll_back("every canary holder died")
        elif self.phase == "promoting":
            self._maybe_commit()

    def record_comparison(self, match: bool, stable_latency_s: float,
                          canary_latency_s: float) -> None:
        """One mirrored probe resolved: the stable answer and the canary
        answer for the *same input* are in hand."""
        if self.phase != "canary":
            return
        stats = self._canary
        stats.samples += 1
        stats.stable_latency_sum_s += float(stable_latency_s)
        stats.canary_latency_sum_s += float(canary_latency_s)
        if not match:
            stats.mismatches += 1
            self._event("mismatch",
                        f"sample {stats.samples}: canary output diverged")
        else:
            self._event("comparison", f"sample {stats.samples}: match")

    def should_probe(self) -> bool:
        """Deterministically sample the canary fraction of requests.

        Integer-threshold sampling (``int(n*f) > int((n-1)*f)``) spreads
        probes evenly through the stream with no RNG, so replays are
        exact: request ``n`` probes iff the running quota crossed an
        integer.
        """
        if self.phase != "canary" or not self._prepared:
            return False
        self._probe_counter += 1
        fraction = self.config.canary_fraction
        return (int(self._probe_counter * fraction)
                > int((self._probe_counter - 1) * fraction))

    # ------------------------------------------------------------- decisions
    def _maybe_enter_canary(self) -> None:
        if (self.phase == "staging" and not self._pending_prepare
                and self._prepared):
            self._enter("canary", "canary_started",
                        f"{len(self._prepared)} holder(s), fraction="
                        f"{self.config.canary_fraction:g}")

    def _canary_verdict(self) -> Optional[str]:
        """``"promote"`` / ``"rollback"`` / ``None`` (keep sampling)."""
        stats = self._canary
        if stats.mismatches > self.config.max_mismatches:
            return "rollback"
        if stats.samples < self.config.min_canary_samples:
            return None
        if (stats.stable_latency_sum_s > 0.0
                and stats.canary_latency_sum_s
                > self.config.latency_factor * stats.stable_latency_sum_s):
            return "rollback"
        return "promote"

    def decide(self) -> Optional[str]:
        """The maintenance-tick question: act now, and how?

        Returns ``"promote"`` or ``"rollback"`` when the shell should
        act, ``None`` otherwise.  Phase timeouts resolve here too, so a
        stuck rollout (worker never acks, canary never reaches quota)
        always terminates in ``rolled_back`` rather than hanging.
        """
        if self.done:
            return None
        in_phase_s = self._now_s() - self._phase_started_s
        if self.phase == "staging":
            if in_phase_s > self.config.staging_timeout_s:
                self._roll_back(
                    f"staging timed out after {in_phase_s:.1f}s waiting "
                    f"for {sorted(self._pending_prepare)}")
                return "rollback"
            return None
        if self.phase == "canary":
            verdict = self._canary_verdict()
            if verdict == "rollback":
                stats = self._canary
                self._roll_back(
                    f"canary failed: {stats.mismatches} mismatch(es) in "
                    f"{stats.samples} sample(s)"
                    if stats.mismatches > self.config.max_mismatches
                    else "canary latency regression: mean "
                         f"{_mean(stats.canary_latency_sum_s, stats.samples):.6f}s"
                         f" vs stable "
                         f"{_mean(stats.stable_latency_sum_s, stats.samples):.6f}s")
                return "rollback"
            # The deadline covers the whole phase: a canary that passed but
            # was never promoted (shell crashed between decide() and
            # begin_promote(), or no operator promote) must not wedge.
            if in_phase_s > self.config.canary_timeout_s:
                waited = f"canary timed out after {in_phase_s:.1f}s"
                self._roll_back(
                    f"{waited}: passed but never promoted"
                    if verdict == "promote" else
                    f"{waited} with {self._canary.samples}/"
                    f"{self.config.min_canary_samples} samples")
                return "rollback"
            if verdict == "promote" and self.config.auto_promote:
                return "promote"
            return None
        # promoting
        if in_phase_s > self.config.promote_timeout_s:
            self._roll_back(
                f"promote timed out after {in_phase_s:.1f}s waiting for "
                f"{sorted(self._pending_commit)}")
            return "rollback"
        return None

    def begin_promote(self) -> Tuple[str, ...]:
        """Enter ``promoting``; returns the workers that must ack commit."""
        if self.phase != "canary":
            raise ValueError(
                f"cannot promote from phase {self.phase!r}")
        self._pending_commit = set(self._prepared)
        self._enter("promoting", "promote",
                    f"committing on {len(self._pending_commit)} worker(s)")
        self._maybe_commit()
        return tuple(sorted(self._pending_commit))

    def worker_committed(self, worker: str) -> None:
        """A worker acked ``commit``: its active version flipped."""
        if self.phase != "promoting":
            return
        if worker in self._pending_commit:
            self._pending_commit.discard(worker)
            self._committed.add(worker)
            self._event("committed", worker)
            self._maybe_commit()

    def _maybe_commit(self) -> None:
        if self.phase == "promoting" and not self._pending_commit:
            if self._committed:
                self._enter("committed", "complete",
                            f"active digest is {self.new_digest[:12]}")
            else:
                self._roll_back("every promoting worker died")

    def force_rollback(self, reason: str = "operator request") -> None:
        """Abort from any live phase (idempotent once terminal)."""
        if not self.done:
            self._roll_back(reason)

    def _roll_back(self, reason: str) -> None:
        self._rollback_reason = reason
        self._enter("rolled_back", "rollback", reason)

    # ------------------------------------------------------------- reporting
    def canary_summary(self) -> Dict[str, object]:
        stats = self._canary
        return {
            "samples": stats.samples,
            "mismatches": stats.mismatches,
            "stable_mean_latency_s": _mean(
                stats.stable_latency_sum_s, stats.samples),
            "canary_mean_latency_s": _mean(
                stats.canary_latency_sum_s, stats.samples),
        }

    def status(self) -> Dict[str, object]:
        """Snapshot for operators (`cluster.rollout_status()` / CLI)."""
        return {
            "model": self.model,
            "phase": self.phase,
            "old_digest": self.old_digest,
            "new_digest": self.new_digest,
            "pending_prepare": sorted(self._pending_prepare),
            "prepared": sorted(self._prepared),
            "pending_commit": sorted(self._pending_commit),
            "committed": sorted(self._committed),
            "canary": self.canary_summary(),
            "rollback_reason": self._rollback_reason,
            "events": len(self.events),
        }

    def timeline(self) -> List[Dict[str, object]]:
        """The full event timeline as JSON-stable records."""
        return [event.as_record() for event in self.events]


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _no_clock() -> float:
    """Default clock for shells that feed time implicitly: a constant.

    The controller is pure; when nobody injects a clock every event is
    stamped ``t_s=0`` and the timeout logic in :meth:`decide` never
    fires — correct for tests that only exercise the ordering logic.
    The cluster always injects ``time.monotonic``.
    """
    return 0.0
