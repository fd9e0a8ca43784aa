"""Fault-injection plane, end-to-end deadlines, retry/hedging and
slow-worker quarantine.

The unit layers pin the deterministic contracts (a plan's schedule and
frame-decision sequence are pure functions of the seed; quarantine and
probation are pure functions of the recorded health events).  The cluster
layers then inject real faults — stalls, dropped frames, expired
deadlines, link flaps, wall-clock jumps — and assert the robustness
invariants: admitted work always resolves, slots never leak, and every
completed output stays bit-identical to the fault-free baseline.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    ClusterService,
    DeadlineExceededError,
    FaultPlan,
    QuarantinePolicy,
    RetryPolicy,
    WorkerCrashError,
    drive,
    matches_baseline,
    poisson_offsets,
)
from repro.serving.autoscale import FakeClock
from repro.serving.faults import FaultRule, parse_chaos_spec
from repro.serving.loadgen import run_closed_loop, synthetic_images
from repro.serving.router import LeastOutstandingRouter

WAIT_S = 60.0


def make_cluster(**kwargs):
    kwargs.setdefault("models", ("MicroCNN",))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    return ClusterService(**kwargs)


# --------------------------------------------------------------------------
# Plan determinism and the chaos spec grammar
# --------------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.from_seed(7, "crash,stall*2,partition,delay")
        b = FaultPlan.from_seed(7, "crash,stall*2,partition,delay")
        assert a.schedule() == b.schedule()

    def test_different_seed_different_schedule(self):
        spec = "crash,stall,delay"
        assert (FaultPlan.from_seed(1, spec).schedule()
                != FaultPlan.from_seed(2, spec).schedule())

    def test_spec_repeats_expand(self):
        plan = FaultPlan.from_seed(0, "stall*3,crash")
        kinds = sorted(r.kind for r in plan.rules)
        assert kinds == ["crash", "stall", "stall", "stall"]

    def test_unknown_fault_class_raises(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            FaultPlan.from_seed(0, "crash,meteor")

    def test_bad_repeat_counts_raise(self):
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, "stall*x")
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, "stall*0")
        with pytest.raises(ValueError):
            FaultPlan.from_seed(0, "")

    def test_parse_chaos_spec_seed_prefix(self):
        plan = parse_chaos_spec("7:crash,delay")
        assert plan.seed == 7
        assert sorted({r.kind for r in plan.rules}) == ["crash", "delay"]
        # A bare plan defaults to seed 0.
        assert parse_chaos_spec("crash").seed == 0

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="gremlin")
        with pytest.raises(ValueError):
            FaultRule(kind="drop", direction="sideways")
        with pytest.raises(ValueError):
            FaultRule(kind="drop", probability=1.5)


# --------------------------------------------------------------------------
# Frame rules: seeded decisions at the injector level
# --------------------------------------------------------------------------
class TestFrameRules:
    def test_decision_sequence_is_a_pure_function_of_the_seed(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=0.5)],
            seed=3,
        )
        seq = []
        for _ in range(2):
            injector = plan.injector()
            seq.append([len(injector.filter_send("w0", ("reqs", [])))
                        for _ in range(64)])
        assert seq[0] == seq[1]
        assert 0 in seq[0] and 1 in seq[0]  # some dropped, some delivered

    def test_drop_probability_one_drops_every_hot_frame(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=1.0)])
        injector = plan.injector()
        assert injector.filter_send("w0", ("reqs", [])) == []
        assert injector.filter_inbound(("res", "w0", [])) == []

    def test_duplicate_rule_emits_two_deliveries(self):
        plan = FaultPlan(
            [FaultRule(kind="duplicate", duration_s=100.0, probability=1.0,
                       delay_s=0.02, direction="recv")])
        out = plan.injector().filter_inbound(("res", "w0", []))
        assert len(out) == 2
        assert out[1][0] == pytest.approx(0.02)

    def test_delay_rule_defers_delivery(self):
        plan = FaultPlan(
            [FaultRule(kind="delay", duration_s=100.0, probability=1.0,
                       delay_s=0.05)])
        ((delay, message),) = plan.injector().filter_send("w0", ("reqs", []))
        assert delay == pytest.approx(0.05)
        assert message == ("reqs", [])

    def test_control_traffic_is_spared(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=1.0)])
        injector = plan.injector()
        # Heartbeats, readiness and reports are not hot-path frames.
        for message in (("hb", "w0", 1.0), ("ready", "w0"), ("report", {})):
            assert injector.filter_inbound(message) == [(0.0, message)]
        assert injector.filter_send("w0", ("stop",)) == [(0.0, ("stop",))]

    def test_stopped_injector_passes_everything_through(self):
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=100.0, probability=1.0)])
        injector = plan.injector()
        injector.stop()
        message = ("reqs", [(0, "M", None)])
        assert injector.filter_send("w0", message) == [(0.0, message)]
        assert injector.filter_inbound(("res", "w0", [])) == [
            (0.0, ("res", "w0", []))]

    def test_injector_is_single_use(self):
        class Controller:
            def worker_ids(self):
                return []

            def kill(self, worker_id):
                pass

            def stall(self, worker_id, seconds):
                pass

        injector = FaultPlan([], seed=0).injector()
        injector.start(Controller())
        try:
            with pytest.raises(RuntimeError, match="single-use"):
                injector.start(Controller())
        finally:
            injector.stop()


class RecordingController:
    """The cluster surface an injector fires through, as a call log."""

    def __init__(self, ids=("w0", "w1")):
        self.ids = list(ids)
        self.calls = []

    def worker_ids(self):
        return list(self.ids)

    def kill(self, worker_id):
        self.calls.append(("kill", worker_id))

    def stall(self, worker_id, seconds):
        self.calls.append(("stall", worker_id, seconds))


class TestInjectorTicks:
    """The injector owns no thread: faults fire only from ``tick(now)``,
    on the clock :meth:`FaultInjector.start` was given."""

    def start(self, rules, clock):
        injector = FaultPlan(rules, seed=0).injector()
        controller = RecordingController()
        injector.start(controller, clock=clock)
        return injector, controller

    def test_scheduled_rule_fires_on_the_first_tick_at_or_after_its_time(self):
        clock = FakeClock(100.0)
        injector, controller = self.start(
            [FaultRule(kind="crash", at_s=0.5, target_index=1),
             FaultRule(kind="stall", at_s=1.0, duration_s=0.3)], clock)
        assert injector.tick(clock()) == pytest.approx(100.5)
        assert injector.tick(100.4999) == pytest.approx(100.5)
        assert controller.calls == []
        clock.advance(0.5)  # exactly the crash's time
        assert injector.tick(clock()) == pytest.approx(101.0)
        assert controller.calls == [("kill", "w1")]
        clock.advance(0.7)  # past the stall's time
        assert injector.tick(clock()) is None
        assert controller.calls == [("kill", "w1"), ("stall", "w0", 0.3)]
        crash, stall = injector.events()
        assert (crash.kind, crash.target) == ("crash", "w1")
        assert crash.at_s == pytest.approx(0.5)
        assert (stall.kind, stall.at_s) == ("stall", pytest.approx(1.2))

    def test_partition_window_runs_on_the_tick_clock(self):
        clock = FakeClock(5.0)
        injector, _ = self.start(
            [FaultRule(kind="partition", at_s=0.2, duration_s=0.3)], clock)
        clock.advance(0.2)
        assert injector.tick(clock()) is None
        assert injector.filter_send("w0", ("stop",)) == []
        assert injector.filter_inbound(("hb", "w0", 1.0)) == []
        assert injector.filter_send("w1", ("stop",)) == [(0.0, ("stop",))]
        clock.advance(0.3)
        assert not injector.partitioned("w0")

    def test_delayed_frame_is_delivered_on_the_tick_at_its_due_time(self):
        class Endpoint:
            worker_id = "w0"

            def __init__(self):
                self.sent = []

            def send(self, message):
                self.sent.append(message)

        clock = FakeClock(10.0)
        injector, _ = self.start(
            [FaultRule(kind="delay", duration_s=100.0, probability=1.0,
                       delay_s=0.05)], clock)
        inner = Endpoint()
        injector.wrap_endpoint(inner).send(("reqs", []))
        due = injector.tick(clock())
        assert due == pytest.approx(10.05)
        assert injector.tick(due - 1e-9) == due
        assert inner.sent == []
        assert injector.tick(due) is None
        assert inner.sent == [("reqs", [])]

    def test_nothing_fires_before_start_or_after_stop(self):
        rules = [FaultRule(kind="crash", at_s=0.0),
                 FaultRule(kind="stall", at_s=0.1, duration_s=0.1)]
        injector = FaultPlan(rules, seed=0).injector()
        late = []
        injector.schedule_delivery(0.0, lambda: late.append("frame"))
        assert injector.tick(1e12) is None  # not started
        assert late == [] and injector.events() == []
        clock = FakeClock(0.0)
        controller = RecordingController()
        injector.start(controller, clock=clock)
        injector.stop()
        assert injector.tick(1e12) is None
        assert controller.calls == [] and late == []
        assert injector.events() == []


# --------------------------------------------------------------------------
# Slow-worker quarantine (router health layer)
# --------------------------------------------------------------------------
class TestQuarantine:
    def make_router(self, workers=3, **policy):
        policy.setdefault("min_samples", 4)
        policy.setdefault("latency_factor", 2.0)
        policy.setdefault("probation_heartbeats", 3)
        router = LeastOutstandingRouter(
            quarantine=QuarantinePolicy(**policy))
        for i in range(workers):
            router.add_worker(f"w{i}")
        return router

    def feed(self, router, slow="w0", slow_s=0.5, fast_s=0.01, rounds=10):
        for _ in range(rounds):
            for worker in router.workers():
                router.record_completion(
                    worker, slow_s if worker == slow else fast_s)

    def test_slow_worker_is_ejected_from_eligibility(self):
        router = self.make_router()
        self.feed(router)
        assert router.quarantined_workers() == ["w0"]
        for _ in range(24):
            worker = router.acquire("M")
            assert worker != "w0"
            router.release(worker)

    def test_probation_readmits_after_clean_heartbeats(self):
        router = self.make_router(probation_heartbeats=3)
        self.feed(router)
        assert "w0" in router.quarantined_workers()
        for _ in range(2):
            router.record_clean_heartbeat("w0")
        assert "w0" in router.quarantined_workers()  # probation not served
        router.record_clean_heartbeat("w0")
        assert router.quarantined_workers() == []
        # w0 is routable again: drain the fleet and it must be offered.
        seen = set()
        held = []
        for _ in range(6):
            worker = router.acquire("M")
            seen.add(worker)
            held.append(worker)
        assert "w0" in seen
        for worker in held:
            router.release(worker)

    def test_consecutive_failures_quarantine(self):
        router = self.make_router()
        for _ in range(3):  # max_consecutive_failures default
            router.record_failure("w1")
        assert "w1" in router.quarantined_workers()

    def test_completion_resets_the_failure_streak(self):
        router = self.make_router()
        for _ in range(2):
            router.record_failure("w1")
        router.record_completion("w1", 0.01)
        router.record_failure("w1")  # streak restarted: 1 of 3
        assert "w1" not in router.quarantined_workers()

    def test_quarantine_never_empties_the_candidate_set(self):
        router = self.make_router(workers=2)
        for worker in ("w0", "w1"):
            for _ in range(3):
                router.record_failure(worker)
        assert sorted(router.quarantined_workers()) == ["w0", "w1"]
        # Routing falls back to the full candidate set rather than
        # shedding everything.
        assert router.acquire("M") is not None

    def test_fresh_incarnation_starts_healthy(self):
        router = self.make_router()
        self.feed(router)
        assert "w0" in router.quarantined_workers()
        router.remove_worker("w0")
        router.add_worker("w0")
        assert "w0" not in router.quarantined_workers()


# --------------------------------------------------------------------------
# End-to-end deadlines
# --------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_before_dispatch_is_dropped_unexecuted(self):
        with make_cluster(workers=1) as cluster:
            image = synthetic_images((8, 8, 3), 1, seed=0)[0]
            future = cluster.submit("MicroCNN", image, timeout=1e-9)
            with pytest.raises(DeadlineExceededError, match="dropped"):
                future.result(timeout=WAIT_S)
            assert cluster.cluster_report().deadline_expired == 1
            stats = cluster.router.stats()
            assert stats.outstanding == 0  # the slot came back
            # The cluster still serves.
            ok = cluster.submit("MicroCNN", image)
            assert ok.result(timeout=WAIT_S) is not None

    def test_deadline_while_blocked_on_admission_raises_synchronously(self):
        with make_cluster(workers=1, max_outstanding=1) as cluster:
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 1.0))
            time.sleep(0.1)  # let the stall take hold
            image = synthetic_images((8, 8, 3), 1, seed=1)[0]
            blocker = cluster.submit("MicroCNN", image)
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                cluster.submit("MicroCNN", image, timeout=0.2)
            assert time.perf_counter() - t0 < 5.0
            assert blocker.result(timeout=WAIT_S) is not None

    def test_deadline_while_dispatched_fails_future_and_frees_slot(self):
        with make_cluster(workers=1) as cluster:
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 1.0))
            time.sleep(0.1)
            image = synthetic_images((8, 8, 3), 1, seed=2)[0]
            future = cluster.submit("MicroCNN", image, timeout=0.3)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=WAIT_S)
            assert cluster.cluster_report().deadline_expired == 1
            deadline = time.time() + WAIT_S
            while time.time() < deadline:
                if cluster.router.stats().outstanding == 0:
                    break
                time.sleep(0.05)
            assert cluster.router.stats().outstanding == 0

    def test_deadline_error_is_a_timeout(self):
        assert issubclass(DeadlineExceededError, TimeoutError)

    def test_close_from_a_deadline_callback_finishes(self):
        """A done-callback runs on the thread that resolved its future —
        for an expired deadline, the control thread.  ``close()`` called
        there must not join its own thread, and must still unlink the
        store's segments."""
        cluster = make_cluster(workers=1)
        segments = [handle.shm_name
                    for handle in cluster.store.handles().values()]
        outcome = []
        closed = threading.Event()

        def close_cluster(_future):
            try:
                cluster.close()
                outcome.append(threading.current_thread().name)
            except BaseException as exc:  # surfaced by the asserts below
                outcome.append(exc)
            finally:
                closed.set()

        try:
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 1.0))  # FIFO: ahead of the request
            image = synthetic_images((8, 8, 3), 1, seed=2)[0]
            future = cluster.submit("MicroCNN", image, timeout=0.2)
            future.add_done_callback(close_cluster)
            assert closed.wait(WAIT_S)
            assert outcome == ["cluster-control"]
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=0)
            for name in segments:
                assert not os.path.exists(f"/dev/shm/{name}")
        finally:
            cluster.close()
            cluster.store.close()  # idempotent; frees what a failed close left


# --------------------------------------------------------------------------
# Retry and hedging
# --------------------------------------------------------------------------
class TestRetryAndHedging:
    def test_retry_rescues_requests_from_a_stalled_worker(self):
        retry = RetryPolicy(max_attempts=3, min_timeout_s=0.05,
                            max_timeout_s=0.3, min_samples=10**6)
        with make_cluster(workers=2, retry=retry) as cluster:
            images = synthetic_images((8, 8, 3), 12, seed=3)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            victim = next(iter(cluster._workers.values()))
            victim.endpoint.send(("stall", 2.0))
            time.sleep(0.1)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            outputs = np.stack([f.result(timeout=WAIT_S) for f in futures])
            assert np.array_equal(outputs, base.rows())
            detail = cluster.cluster_report()
            assert detail.retries >= 1

    def test_hedge_duplicates_to_a_second_worker(self):
        retry = RetryPolicy(max_attempts=2, min_timeout_s=0.05,
                            max_timeout_s=30.0, timeout_factor=10**6,
                            hedge=True, hedge_factor=1e-6, min_samples=1)
        with make_cluster(workers=2, retry=retry) as cluster:
            images = synthetic_images((8, 8, 3), 12, seed=4)
            # Warm the latency tracker so the hedge delay is defined.
            for future in cluster.submit_batch("MicroCNN", images[:4]):
                future.result(timeout=WAIT_S)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            victim = next(iter(cluster._workers.values()))
            victim.endpoint.send(("stall", 2.0))
            time.sleep(0.1)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            outputs = np.stack([f.result(timeout=WAIT_S) for f in futures])
            assert np.array_equal(outputs, base.rows())
            assert cluster.cluster_report().hedges >= 1

    def test_exhausted_retry_budget_fails_terminally_not_hangs(self):
        # Every hot-path frame in both directions is lost for good: no
        # retry can land, so the request must fail — never hang.
        plan = FaultPlan(
            [FaultRule(kind="drop", duration_s=600.0, probability=1.0)])
        retry = RetryPolicy(max_attempts=2, min_timeout_s=0.05,
                            max_timeout_s=0.1, min_samples=10**6)
        with make_cluster(workers=2, retry=retry, faults=plan) as cluster:
            image = synthetic_images((8, 8, 3), 1, seed=5)[0]
            future = cluster.submit("MicroCNN", image)
            with pytest.raises(WorkerCrashError, match="retry budget"):
                future.result(timeout=WAIT_S)
            deadline = time.time() + WAIT_S
            while time.time() < deadline:
                if cluster.router.stats().outstanding == 0:
                    break
                time.sleep(0.05)
            stats = cluster.router.stats()
            assert stats.outstanding == 0  # every attempt's slot came back
            assert stats.dispatched == stats.completed


# --------------------------------------------------------------------------
# Router counters: the shed count is client-visible sheds only
# --------------------------------------------------------------------------
class TestRouterCounters:
    def test_crash_requeue_with_no_worker_left_is_not_a_shed(self):
        """Requests that lose their only worker fail with
        ``WorkerCrashError``; no client was shed, so the router's shed
        count (the autoscaler's grow signal) must not move."""
        with make_cluster(workers=1, max_respawns=0) as cluster:
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 1.0))  # FIFO: ahead of the requests
            images = synthetic_images((8, 8, 3), 8, seed=12)
            futures = [cluster.submit("MicroCNN", image, block=False)
                       for image in images]
            worker.endpoint.kill()
            for future in futures:
                with pytest.raises(WorkerCrashError):
                    future.result(timeout=WAIT_S)
            report = cluster.cluster_report()
        assert report.shed == 0
        assert report.router.shed == report.shed


# --------------------------------------------------------------------------
# Monotonic heartbeats: wall-clock jumps must not kill workers
# --------------------------------------------------------------------------
class TestClockJumps:
    def test_wall_clock_jump_does_not_respawn_workers(self, monkeypatch):
        """NTP step / DST change: ``time.time`` leaps hours mid-run.

        Worker liveness is judged on monotonic receipt times, so neither
        a forward nor a backward wall-clock jump may read as "every
        heartbeat is stale" (the pre-fix failure: a +1h step killed the
        whole fleet at once).
        """
        offset = [0.0]
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + offset[0])
        with make_cluster(workers=2, heartbeat_interval_s=0.05,
                          heartbeat_timeout_s=0.5) as cluster:
            images = synthetic_images((8, 8, 3), 8, seed=6)
            for jump in (3600.0, -7200.0):
                offset[0] = jump
                for future in cluster.submit_batch("MicroCNN", images):
                    future.result(timeout=WAIT_S)
                # Sit through several heartbeat windows under the jumped
                # clock: supervision must keep seeing live workers.
                time.sleep(0.6)
            detail = cluster.cluster_report()
            assert detail.respawns == 0
            assert detail.workers == 2


# --------------------------------------------------------------------------
# Reconnect storm: flapping links must not leak
# --------------------------------------------------------------------------
class TestReconnectStorm:
    def test_flapping_socket_worker_leaks_nothing(self):
        with make_cluster(transport="tcp", workers=2,
                          heartbeat_timeout_s=5.0) as cluster:
            images = synthetic_images((8, 8, 3), 8, seed=7)
            for _ in range(3):
                futures = [cluster.submit("MicroCNN", img) for img in images]
                victim = next(iter(cluster._workers.values()))
                victim.endpoint.channel.close()  # link blip, process alive
                for future in futures:
                    assert future.result(timeout=WAIT_S) is not None
                deadline = time.time() + WAIT_S
                while time.time() < deadline:
                    with cluster._lock:
                        ready = sum(1 for w in cluster._workers.values()
                                    if w.ready)
                        rejoining = len(cluster._rejoin_pending)
                    if ready >= 2 and rejoining == 0:
                        break
                    time.sleep(0.05)
            with cluster._lock:
                assert len(cluster._workers) == 2
                assert cluster._rejoin_pending == {}
                assert cluster._spawn_pending == {}
                assert cluster._pending == {}
            assert len(cluster.router.workers()) == 2
            stats = cluster.router.stats()
            assert stats.outstanding == 0
            assert stats.dispatched == stats.completed


# --------------------------------------------------------------------------
# The request ledger under thread contention
# --------------------------------------------------------------------------
class TestLedgerStress:
    def test_hedges_retries_and_a_link_blip_leave_an_empty_ledger(self):
        """Reader threads, the monitor's retries and hedges and a link
        blip's death handling all add and strike holders at once, with
        thread switches forced every 10 µs on more workers than cores.
        Every request resolves bit-identically, and once the fleet has
        healed the ledger is empty and every slot is back."""
        retry = RetryPolicy(max_attempts=3, min_timeout_s=0.002,
                            max_timeout_s=0.01, hedge=True,
                            hedge_factor=1e-6, min_samples=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_cluster(transport="tcp", workers=3,
                              retry=retry) as cluster:
                images = synthetic_images((8, 8, 3), 48, seed=11)
                baseline = cluster.baseline_service()
                try:
                    base = run_closed_loop(baseline, "MicroCNN", images)
                finally:
                    baseline.close()
                # Warm the latency tracker so the hedge delay is defined.
                for future in cluster.submit_batch("MicroCNN", images[:4]):
                    future.result(timeout=WAIT_S)
                stalled, blipped, _ = cluster._workers.values()
                stalled.endpoint.send(("stall", 0.5))
                futures = cluster.submit_batch("MicroCNN", images[:24])
                blipped.endpoint.channel.close()  # link blip, process alive
                futures += cluster.submit_batch("MicroCNN", images[24:])
                outputs = np.stack([f.result(timeout=WAIT_S)
                                    for f in futures])
                deadline = time.time() + WAIT_S
                while time.time() < deadline:
                    with cluster._lock:
                        settled = (not cluster._pending
                                   and not cluster._rejoin_pending
                                   and sum(1 for w in cluster._workers.values()
                                           if w.ready) >= 3)
                    if settled:
                        break
                    time.sleep(0.05)
                with cluster._lock:
                    assert cluster._pending == {}
                stats = cluster.router.stats()
                report = cluster.cluster_report()
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(outputs, base.rows())
        assert report.retries + report.hedges >= 1
        assert stats.outstanding == 0
        assert stats.dispatched == stats.completed
        assert stats.shed == report.shed


# --------------------------------------------------------------------------
# The seeded end-to-end chaos run
# --------------------------------------------------------------------------
def chaos_run(plan, workers, requests, seed, deadline_s=None, **kwargs):
    """Poisson arrivals at 150 req/s with non-blocking admission through
    a fault-injected cluster (retries and quarantine on): the load result,
    the faults that fired, and whether completed rows match the baseline.
    Every run also checks that the router counted exactly the
    client-visible sheds."""
    images = synthetic_images((8, 8, 3), requests, seed=seed)
    offsets = poisson_offsets(np.random.default_rng(seed), 150.0, requests)
    with make_cluster(workers=workers, retry=RetryPolicy(),
                      quarantine=QuarantinePolicy(), faults=plan,
                      **kwargs) as cluster:
        result = drive(cluster, "MicroCNN", images, offsets, block=False,
                       deadline_s=deadline_s)
        report = cluster.cluster_report()
        assert report.router.shed == report.shed == result.shed
        return (result, tuple(cluster.fault_events),
                matches_baseline(cluster, result, images))


class TestChaosScenario:
    SPEC = "crash,stall,partition,delay"

    def test_chaos_run_is_lossless_and_bit_identical(self):
        plan = FaultPlan.from_seed(42, self.SPEC, horizon_s=1.0)
        schedule = tuple(plan.schedule())
        result, fired, identical = chaos_run(
            plan, workers=3, requests=96, seed=42, heartbeat_timeout_s=1.0)
        # Every offered request resolved into exactly one bucket — a hung
        # future would have raised inside the driver.
        assert result.offered == 96
        assert (result.completed + result.shed + result.deadline_expired
                + result.failed) == 96
        assert result.failed == 0
        assert identical
        assert len(fired) >= 1
        # The same seed reproduces the same fault schedule.
        replay = FaultPlan.from_seed(42, self.SPEC, horizon_s=1.0)
        assert tuple(replay.schedule()) == schedule

    def test_chaos_run_with_deadlines_accounts_every_request(self):
        plan = FaultPlan.from_seed(11, "stall,delay", horizon_s=0.5)
        result, _, identical = chaos_run(
            plan, workers=2, requests=48, seed=11, deadline_s=5.0,
            heartbeat_timeout_s=1.0)
        assert result.offered == 48
        assert (result.completed + result.shed + result.deadline_expired
                + result.failed) == 48
        assert identical  # whatever completed is bit-exact

    def test_fault_free_control_run(self):
        result, fired, identical = chaos_run(None, workers=2, requests=24,
                                             seed=1)
        assert result.completed == 24
        assert fired == ()
        assert identical
        assert "Load generation" in result.table()
