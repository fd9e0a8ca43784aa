"""Conformance suite for zero-downtime content-addressed model rollout.

Three layers, cheapest first:

* **Pure state machine** — :class:`RolloutController` under an injected
  clock: scripted lifecycles for every transition, a hypothesis property
  over *arbitrary* interleavings of prepare acks, worker deaths, canary
  comparisons and operator aborts (the machine must stay internally
  consistent and always terminate), and a router-level property that
  digest-filtered slot accounting conserves slots.
* **Golden timelines** — the exact event sequence of a scripted commit
  and a scripted auto-rollback, pinned under ``tests/golden/`` (regen
  with ``REPRO_REGEN_GOLDEN=1``).
* **Live cluster** — end-to-end publish → canary → promote → commit
  under real traffic (old version detached, attach bytes freed),
  divergent-artifact auto-rollback (stable digest never stops answering
  bit-identically), a worker crash mid-promote (no hang, no loss,
  consistent final digest), response-cache digest re-keying (a cached
  answer can never outlive its artifact), routing-independent cache hit
  rates, and attach revocation when the pin layout shrinks.
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.models.zoo import build_phonebit_network, micro_cnn_config
from repro.serving import ClusterService, RetryPolicy
from repro.serving.loadgen import (
    drive,
    matches_baseline,
    poisson_offsets,
    rollout_hook,
    run_closed_loop,
    settle_rollout,
    synthetic_images,
)
from repro.serving.rollout import (
    ROLLOUT_PHASES,
    RolloutConfig,
    RolloutController,
)
from repro.serving.router import LeastOutstandingRouter

from pathlib import Path
import json

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

#: Generous wall-clock bound for any single future in these tests.
WAIT_S = 60.0

OLD = "a" * 64
NEW = "b" * 64


def micro_network(rng=0, release=None):
    network = build_phonebit_network(micro_cnn_config(), rng=rng)
    if release is not None:
        network.metadata["release"] = release
    return network


def make_cluster(**kwargs):
    kwargs.setdefault("models", ("MicroCNN",))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    return ClusterService(**kwargs)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_controller(workers=("w0", "w1"), clock=None, **config):
    config.setdefault("canary_fraction", 0.5)
    config.setdefault("min_canary_samples", 2)
    return RolloutController(
        "MicroCNN", OLD, NEW, workers=workers,
        config=RolloutConfig(**config), clock=clock or FakeClock(),
    )


def wait_for(predicate, timeout_s=WAIT_S, interval_s=0.005):
    """Poll ``predicate`` until truthy; raises on timeout.

    The suite's replacement for wall-clock sleeps: waits exactly as long
    as the condition needs, fails loudly when it never comes.
    """
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(f"condition not reached within {timeout_s}s")


# ---------------------------------------------------------------------------
# pure controller: scripted lifecycles
# ---------------------------------------------------------------------------

class TestRolloutController:
    def test_commit_lifecycle(self):
        clock = FakeClock()
        ctl = make_controller(clock=clock)
        assert ctl.phase == "staging"
        ctl.worker_prepared("w0")
        assert ctl.phase == "staging"  # one ack still pending
        ctl.worker_prepared("w1")
        assert ctl.phase == "canary"
        ctl.record_comparison(True, 0.01, 0.011)
        ctl.record_comparison(True, 0.01, 0.009)
        assert ctl.decide() == "promote"
        assert ctl.begin_promote() == ("w0", "w1")
        assert ctl.phase == "promoting"
        ctl.worker_committed("w0")
        assert ctl.phase == "promoting"
        ctl.worker_committed("w1")
        assert ctl.phase == "committed"
        assert ctl.done
        assert ctl.rollback_reason is None

    def test_same_digest_rejected(self):
        with pytest.raises(ValueError, match="already"):
            RolloutController("m", OLD, OLD, workers=("w0",),
                              clock=FakeClock())

    def test_mismatch_rolls_back(self):
        ctl = make_controller()
        ctl.worker_prepared("w0")
        ctl.worker_prepared("w1")
        ctl.record_comparison(False, 0.01, 0.01)
        assert ctl.decide() == "rollback"
        assert ctl.phase == "rolled_back"
        assert "mismatch" in ctl.rollback_reason

    def test_latency_regression_rolls_back(self):
        ctl = make_controller(latency_factor=2.0)
        ctl.worker_prepared("w0")
        ctl.worker_prepared("w1")
        ctl.record_comparison(True, 0.010, 0.100)
        ctl.record_comparison(True, 0.010, 0.100)
        assert ctl.decide() == "rollback"
        assert "latency" in ctl.rollback_reason

    def test_sub_millisecond_latency_regression_rolls_back(self):
        # A 10x slower canary must roll back at batch-1 latencies too.
        ctl = make_controller()
        ctl.worker_prepared("w0")
        ctl.worker_prepared("w1")
        ctl.record_comparison(True, 0.0004, 0.004)
        ctl.record_comparison(True, 0.0004, 0.004)
        assert ctl.decide() == "rollback"
        assert "latency" in ctl.rollback_reason

    def test_phase_timeouts_always_terminate(self):
        for phase, setup in (
            ("staging", lambda c: None),
            ("canary", lambda c: (c.worker_prepared("w0"),
                                  c.worker_prepared("w1"))),
        ):
            clock = FakeClock()
            ctl = make_controller(clock=clock, staging_timeout_s=5.0,
                                  canary_timeout_s=5.0)
            setup(ctl)
            assert ctl.phase == phase
            clock.advance(5.1)
            assert ctl.decide() == "rollback"
            assert ctl.phase == "rolled_back"
            assert "timed out" in ctl.rollback_reason

    def test_promote_timeout_rolls_back(self):
        clock = FakeClock()
        ctl = make_controller(clock=clock, promote_timeout_s=5.0)
        ctl.worker_prepared("w0")
        ctl.worker_prepared("w1")
        ctl.record_comparison(True, 0.01, 0.01)
        ctl.record_comparison(True, 0.01, 0.01)
        ctl.begin_promote()
        ctl.worker_committed("w0")  # w1 never acks
        clock.advance(5.1)
        assert ctl.decide() == "rollback"
        # The flipped worker is reported so the shell can flip it back.
        assert ctl.status()["committed"] == ["w0"]

    def test_last_staged_holder_dying_rolls_back(self):
        ctl = make_controller()
        ctl.worker_prepared("w0")
        ctl.worker_gone("w1")
        assert ctl.phase == "canary"  # w0 alone carries the canary
        ctl.worker_gone("w0")
        assert ctl.phase == "rolled_back"
        assert "died" in ctl.rollback_reason

    def test_dead_worker_never_gates_staging(self):
        ctl = make_controller()
        ctl.worker_prepared("w0")
        ctl.worker_gone("w1")  # would otherwise block canary entry forever
        assert ctl.phase == "canary"

    def test_joined_worker_must_stage_before_commit_set(self):
        ctl = make_controller()
        ctl.worker_prepared("w0")
        ctl.worker_prepared("w1")
        ctl.worker_joined("w2")
        ctl.record_comparison(True, 0.01, 0.01)
        ctl.record_comparison(True, 0.01, 0.01)
        # w2 never acked prepare: it is not in the commit set (the shell
        # flips stragglers when their prepare ack lands after promote).
        assert ctl.begin_promote() == ("w0", "w1")

    def test_begin_promote_requires_canary(self):
        ctl = make_controller()
        with pytest.raises(ValueError, match="cannot promote"):
            ctl.begin_promote()

    def test_force_rollback_idempotent_and_terminal(self):
        ctl = make_controller()
        ctl.force_rollback("drill")
        assert ctl.phase == "rolled_back"
        ctl.force_rollback("second")  # no-op: terminal phases absorb
        assert ctl.rollback_reason == "drill"
        ctl.worker_prepared("w0")  # feeds after terminal are ignored
        assert ctl.status()["prepared"] == []

    def test_should_probe_spreads_exact_fraction(self):
        ctl = make_controller(canary_fraction=0.25)
        ctl.worker_prepared("w0")
        ctl.worker_prepared("w1")
        probes = sum(ctl.should_probe() for _ in range(200))
        assert probes == 50  # integer-threshold sampling is exact

    def test_should_probe_false_outside_canary(self):
        ctl = make_controller()
        assert not ctl.should_probe()  # staging
        ctl.worker_prepared("w0")
        ctl.worker_prepared("w1")
        ctl.force_rollback("drill")
        assert not ctl.should_probe()  # terminal


# ---------------------------------------------------------------------------
# pure controller: property over arbitrary interleavings
# ---------------------------------------------------------------------------

WORKER_IDS = ("w0", "w1", "w2")

_OPS = st.one_of(
    st.tuples(st.just("prepared"), st.sampled_from(WORKER_IDS)),
    st.tuples(st.just("joined"), st.sampled_from(WORKER_IDS)),
    st.tuples(st.just("gone"), st.sampled_from(WORKER_IDS)),
    st.tuples(st.just("committed"), st.sampled_from(WORKER_IDS)),
    st.tuples(st.just("compare"), st.booleans()),
    st.tuples(st.just("probe"), st.none()),
    st.tuples(st.just("tick"), st.floats(0.0, 40.0, allow_nan=False)),
    st.tuples(st.just("begin_promote"), st.none()),
    st.tuples(st.just("operator_rollback"), st.none()),
)


#: Falsifying example of the liveness property: the canary passes but is
#: never promoted, and ``decide()`` used to answer "promote" forever.
_NEVER_PROMOTED = [("prepared", "w0"), ("prepared", "w1"), ("prepared", "w2"),
                   ("compare", True), ("compare", True)]


class TestRolloutStateMachineProperty:
    @example(ops=_NEVER_PROMOTED)
    @given(ops=st.lists(_OPS, max_size=40))
    def test_any_interleaving_stays_consistent_and_terminates(self, ops):
        """Every interleaving of rollout inputs keeps the machine sound.

        Soundness here means: phases are always legal, terminal phases
        absorb, the worker sets partition (no worker simultaneously
        pending and prepared, or pending-commit and committed), a
        committed rollout never carried more mismatches than its budget,
        the event clock is monotone — and after the dust settles the
        machine can always be driven to a terminal phase (no interleaving
        wedges it).
        """
        clock = FakeClock()
        ctl = make_controller(workers=WORKER_IDS, clock=clock,
                              canary_fraction=0.5, min_canary_samples=2,
                              staging_timeout_s=60.0, canary_timeout_s=60.0,
                              promote_timeout_s=60.0)
        terminal_phase = None
        for op, arg in ops:
            if op == "prepared":
                ctl.worker_prepared(arg)
            elif op == "joined":
                ctl.worker_joined(arg)
            elif op == "gone":
                ctl.worker_gone(arg)
            elif op == "committed":
                ctl.worker_committed(arg)
            elif op == "compare":
                ctl.record_comparison(arg, 0.01, 0.01)
            elif op == "probe":
                ctl.should_probe()
            elif op == "tick":
                clock.advance(arg)
                ctl.decide()
            elif op == "begin_promote":
                if ctl.phase == "canary":
                    ctl.begin_promote()
            elif op == "operator_rollback":
                ctl.force_rollback("property abort")

            status = ctl.status()
            assert status["phase"] in ROLLOUT_PHASES
            # Terminal phases absorb: nothing moves a finished rollout.
            if terminal_phase is not None:
                assert status["phase"] == terminal_phase
            elif ctl.done:
                terminal_phase = status["phase"]
            # The per-worker sets partition.
            assert not set(status["pending_prepare"]) & set(status["prepared"])
            assert not set(status["pending_commit"]) & set(status["committed"])
            if status["phase"] == "rolled_back":
                assert status["rollback_reason"]
            if status["phase"] == "committed":
                assert status["committed"]  # someone actually flipped
                assert status["canary"]["mismatches"] == 0
            # The event clock never runs backwards.
            times = [e["t_s"] for e in ctl.timeline()]
            assert times == sorted(times)

        # Liveness: whatever happened above, phase timeouts guarantee the
        # machine terminates once the shell keeps ticking.
        for _ in range(4):
            clock.advance(61.0)
            ctl.decide()
            if ctl.phase == "canary":
                ctl.record_comparison(True, 0.01, 0.01)
        if ctl.phase == "promoting":
            for worker in list(ctl.status()["pending_commit"]):
                ctl.worker_gone(worker)
        assert ctl.done


class TestRouterDigestSlotConservation:
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("declare"), st.sampled_from(("a", "b")),
                  st.sampled_from((OLD, NEW))),
        st.tuples(st.just("revoke"), st.sampled_from(("a", "b")),
                  st.sampled_from((OLD, NEW))),
        st.tuples(st.just("acquire"), st.none(),
                  st.sampled_from((None, OLD, NEW))),
        st.tuples(st.just("release"), st.none(), st.none()),
    ), max_size=60))
    def test_digest_filtered_acquire_conserves_slots(self, ops):
        """Slot accounting holds under any declare/revoke/acquire mix,
        and a digest-filtered acquire only ever lands on a declared
        holder of that digest."""
        router = LeastOutstandingRouter(max_outstanding=3)
        router.add_worker("a")
        router.add_worker("b")
        held = []  # acquired slots we still owe a release for
        shadow = {"a": 0, "b": 0}
        for op, worker, digest in ops:
            if op == "declare":
                router.declare_digest(worker, "m", digest)
            elif op == "revoke":
                router.revoke_digest(worker, "m", digest)
            elif op == "acquire":
                got = router.acquire("m", record_shed=False, digest=digest)
                if got is not None:
                    if digest is not None:
                        assert got in router.digest_holders("m", digest)
                    held.append(got)
                    shadow[got] += 1
            elif op == "release" and held:
                victim = held.pop()
                assert router.release(victim)
                shadow[victim] -= 1
            for name in ("a", "b"):
                assert router.outstanding(name) == shadow[name]
                assert shadow[name] <= 3
        # Every slot still held is releasable exactly once.
        for victim in held:
            assert router.release(victim)
        assert router.outstanding("a") == 0
        assert router.outstanding("b") == 0


# ---------------------------------------------------------------------------
# golden timelines
# ---------------------------------------------------------------------------

class TestGoldenRolloutTimelines:
    def _scripted_commit(self):
        clock = FakeClock()
        ctl = make_controller(clock=clock, canary_fraction=0.5,
                              min_canary_samples=3)
        clock.advance(0.25)
        ctl.worker_prepared("w0")
        clock.advance(0.25)
        ctl.worker_prepared("w1")
        for _ in range(3):
            clock.advance(0.5)
            ctl.record_comparison(True, 0.010, 0.012)
        clock.advance(0.25)
        assert ctl.decide() == "promote"
        ctl.begin_promote()
        clock.advance(0.25)
        ctl.worker_committed("w0")
        clock.advance(0.25)
        ctl.worker_committed("w1")
        return ctl.timeline()

    def _scripted_rollback(self):
        clock = FakeClock()
        ctl = make_controller(clock=clock, canary_fraction=0.5,
                              min_canary_samples=3)
        clock.advance(0.25)
        ctl.worker_prepared("w0")
        clock.advance(0.25)
        ctl.worker_prepared("w1")
        clock.advance(0.5)
        ctl.record_comparison(True, 0.010, 0.012)
        clock.advance(0.5)
        ctl.record_comparison(False, 0.010, 0.012)
        assert ctl.decide() == "rollback"
        return ctl.timeline()

    def _scripted_never_promoted(self):
        clock = FakeClock()
        ctl = make_controller(workers=WORKER_IDS, clock=clock,
                              canary_timeout_s=60.0)
        for op, arg in _NEVER_PROMOTED:
            if op == "prepared":
                ctl.worker_prepared(arg)
            else:
                ctl.record_comparison(arg, 0.01, 0.01)
        actions = []
        for _ in range(4):  # nobody acts on "promote"
            clock.advance(61.0)
            actions.append(ctl.decide())
        assert actions == ["rollback", None, None, None]
        assert "never promoted" in ctl.rollback_reason
        return ctl.timeline()

    def test_scripted_timelines_match_golden(self):
        current = {
            "commit": self._scripted_commit(),
            "rollback": self._scripted_rollback(),
            "never_promoted": self._scripted_never_promoted(),
        }
        path = GOLDEN_DIR / "rollout_timelines.json"
        if REGEN:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(
                json.dumps(current, indent=2, sort_keys=True) + "\n")
        if not path.exists():
            pytest.fail(f"golden file {path} is missing; generate it with "
                        "REPRO_REGEN_GOLDEN=1")
        golden = json.loads(path.read_text())
        assert golden == current

    def test_golden_phases_traverse_lifecycle_in_order(self):
        golden = json.loads(
            (GOLDEN_DIR / "rollout_timelines.json").read_text())
        order = {phase: i for i, phase in enumerate(ROLLOUT_PHASES)}
        for name, events in golden.items():
            ranks = [order[e["phase"]] for e in events]
            assert ranks == sorted(ranks), name
            assert events[0]["kind"] == "start", name
        assert golden["commit"][-1]["kind"] == "complete"
        assert golden["rollback"][-1]["kind"] == "rollback"
        assert golden["never_promoted"][-1]["kind"] == "rollback"


# ---------------------------------------------------------------------------
# live cluster: end-to-end rollout
# ---------------------------------------------------------------------------

def _terminal_status(cluster, model="MicroCNN"):
    status = cluster.rollout_status(model)
    if status and status[0]["phase"] in ("committed", "rolled_back"):
        return status[0]
    return None


class TestLiveRollout:
    def _drive_traffic(self, cluster, images, count, start=0):
        futures = [cluster.submit("MicroCNN", images[(start + i) % len(images)])
                   for i in range(count)]
        return [f.result(timeout=WAIT_S) for f in futures]

    def test_publish_canary_promote_commit_end_to_end(self):
        config = RolloutConfig(canary_fraction=1.0, min_canary_samples=3)
        with make_cluster(cache_capacity=0) as cluster:
            images = synthetic_images((8, 8, 3), 64, seed=21)
            before = self._drive_traffic(cluster, images, 64)
            old_digest = cluster.store.handles()["MicroCNN"].digest
            new_digest = cluster.publish(
                micro_network(release="v2"), rollout=config)
            assert new_digest != old_digest
            # Traffic drives the canary to quota and the commit through.
            for start in range(0, 512, 32):
                self._drive_traffic(cluster, images, 32, start=start)
                if _terminal_status(cluster):
                    break
            status = wait_for(lambda: _terminal_status(cluster))
            assert status["phase"] == "committed"
            assert status["canary"]["samples"] >= 3
            assert status["canary"]["mismatches"] == 0
            # The store's active handle flipped to the new digest.
            assert cluster.store.handles()["MicroCNN"].digest == new_digest
            # Deferred revocation: the old version is detached everywhere
            # and its shm bytes actually freed (worker acks carry counts).
            wait_for(lambda: [
                entry for entry in cluster._detach_log
                if ("MicroCNN", old_digest) in entry[1] and entry[2] > 0
            ])
            wait_for(
                lambda: old_digest not in cluster.store.version_handles(
                    "MicroCNN"))
            # Post-commit answers are bit-identical to pre-rollout ones:
            # the artifact changed bytes, not behaviour.
            after = self._drive_traffic(cluster, images, 64)
            assert np.array_equal(np.stack(before), np.stack(after))
            timeline = [e["kind"] for e in
                        cluster.rollout_timeline("MicroCNN")]
            assert timeline[0] == "start"
            assert timeline[-1] == "complete"

    def test_divergent_artifact_auto_rolls_back(self):
        config = RolloutConfig(canary_fraction=1.0, min_canary_samples=3)
        with make_cluster(cache_capacity=0) as cluster:
            images = synthetic_images((8, 8, 3), 64, seed=22)
            before = self._drive_traffic(cluster, images, 64)
            old_digest = cluster.store.handles()["MicroCNN"].digest
            new_digest = cluster.publish(
                micro_network(rng=7, release="divergent"), rollout=config)
            for start in range(0, 512, 32):
                self._drive_traffic(cluster, images, 32, start=start)
                if _terminal_status(cluster):
                    break
            status = wait_for(lambda: _terminal_status(cluster))
            assert status["phase"] == "rolled_back"
            assert "mismatch" in status["rollback_reason"]
            # The stable digest never stopped serving, and still does.
            assert cluster.store.handles()["MicroCNN"].digest == old_digest
            after = self._drive_traffic(cluster, images, 64)
            assert np.array_equal(np.stack(before), np.stack(after))
            # The rejected artifact is fully retired: detached on every
            # worker and unpublished from the store.
            wait_for(
                lambda: new_digest not in cluster.store.version_handles(
                    "MicroCNN"))
            assert cluster.rollout_status("MicroCNN")[0]["phase"] == \
                "rolled_back"

    @pytest.mark.timeout_s(120)
    def test_worker_crash_mid_promote_no_loss_no_hang(self):
        """Kill a worker in the promoting window: every admitted request
        still resolves, the rollout reaches a terminal phase, and the
        fleet serves exactly one digest's answers afterwards."""
        config = RolloutConfig(canary_fraction=1.0, min_canary_samples=2,
                               auto_promote=False)
        with make_cluster(workers=3, heartbeat_timeout_s=2.0,
                          cache_capacity=0) as cluster:
            images = synthetic_images((8, 8, 3), 64, seed=23)
            baseline = [f.result(timeout=WAIT_S) for f in
                        cluster.submit_batch("MicroCNN", images)]
            cluster.publish(micro_network(release="crash-drill"),
                            rollout=config)
            futures = []

            def sampled_enough():
                futures.extend(
                    cluster.submit("MicroCNN", images[i]) for i in range(8))
                status = cluster.rollout_status("MicroCNN")[0]
                return (status["phase"] == "canary"
                        and status["canary"]["samples"] >= 2)

            wait_for(sampled_enough)
            cluster.promote("MicroCNN")
            victim = next(iter(cluster._workers.values()))
            os.kill(victim.pid, signal.SIGKILL)
            futures.extend(
                cluster.submit("MicroCNN", images[i]) for i in range(32))
            # No hang, no loss: every admitted future resolves with a row
            # (crash requeue re-runs the victim's in-flight work).
            rows = [f.result(timeout=WAIT_S) for f in futures]
            assert all(row.shape == (10,) for row in rows)
            status = wait_for(lambda: _terminal_status(cluster))
            # Whichever way the race resolved, the fleet's answers must
            # be one digest's answers — and both digests answer
            # identically here, so the stream stays bit-stable.
            final = [f.result(timeout=WAIT_S) for f in
                     cluster.submit_batch("MicroCNN", images)]
            assert np.array_equal(np.stack(baseline), np.stack(final))
            if status["phase"] == "committed":
                assert status["committed"]

    def test_publish_same_bytes_rejected(self):
        with make_cluster(workers=1) as cluster:
            wait_for(lambda: cluster.rollout_status() == [])
            with pytest.raises(ValueError, match="already"):
                cluster.publish(micro_network())

    def test_second_rollout_while_live_rejected(self):
        config = RolloutConfig(min_canary_samples=10**6)
        with make_cluster(workers=1) as cluster:
            cluster.publish(micro_network(release="v2"), rollout=config)
            with pytest.raises(RuntimeError, match="already"):
                cluster.publish(micro_network(release="v3"), rollout=config)
            cluster.rollback("MicroCNN", reason="test cleanup")

    @staticmethod
    def drill(seed, rollout, operator_rollback=False, requests=96):
        """Publish a byte-distinct, output-identical v2 a quarter of the
        way through 400 req/s of non-blocking open-loop load (aborting it
        by hand midway through the rest when ``operator_rollback``):
        the load result, the settled rollout status, its timeline, and
        whether every completed row matches the baseline."""
        images = synthetic_images((8, 8, 3), requests, seed=seed)
        offsets = poisson_offsets(np.random.default_rng(seed), 400.0,
                                  requests)
        publish = requests // 4
        rollback = publish + (requests - publish) // 2
        with make_cluster(retry=RetryPolicy(), cache_capacity=0) as cluster:
            hook = rollout_hook(cluster, micro_network(release="drill-v2"),
                                "MicroCNN", publish,
                                rollback if operator_rollback else None,
                                rollout)
            result = drive(cluster, "MicroCNN", images, offsets,
                           block=False, on_arrival=hook)
            status = settle_rollout(cluster, "MicroCNN")
            return (result, status, cluster.rollout_timeline("MicroCNN"),
                    matches_baseline(cluster, result, images))

    def test_operator_rollback_drill(self):
        result, status, _, identical = self.drill(
            5, RolloutConfig(canary_fraction=0.25,
                             min_canary_samples=10**6),
            operator_rollback=True)
        assert status["phase"] == "rolled_back"
        assert status["rollback_reason"] == "drill operator rollback"
        assert result.shed == 0
        assert result.failed == 0
        assert identical

    def test_zero_shed_zero_loss_drill_commits(self):
        result, status, timeline, identical = self.drill(
            6, RolloutConfig(canary_fraction=0.5, min_canary_samples=3))
        assert status["phase"] == "committed"
        assert result.shed == 0
        assert result.failed == 0
        assert result.completed == result.offered
        assert identical
        kinds = [e["kind"] for e in timeline]
        assert kinds[0] == "start" and kinds[-1] == "complete"


# ---------------------------------------------------------------------------
# cluster-wide response cache
# ---------------------------------------------------------------------------

class TestClusterResponseCache:
    def _repeat_stream(self, workers, images, repeats=3):
        with make_cluster(workers=workers, cache_capacity=256) as cluster:
            for _ in range(repeats):
                for future in cluster.submit_batch("MicroCNN", images):
                    future.result(timeout=WAIT_S)
            stats = cluster.cache_stats()
            return stats.hits, stats.misses

    def test_hit_rate_independent_of_worker_count(self):
        """The cache fronts the router, so a repeated request stream
        scores the same hits on 1, 2 or 4 workers — hit rates must not
        be routing-shaped."""
        images = synthetic_images((8, 8, 3), 16, seed=31)
        results = {w: self._repeat_stream(w, images) for w in (1, 2, 4)}
        assert len(set(results.values())) == 1, results
        hits, misses = results[1]
        assert misses == 16  # first pass misses once per distinct image
        assert hits == 32    # every later pass hits every image

    def test_workers_run_cacheless(self):
        """Worker-side caches must stay off: a hit that resolves on one
        worker's private cache would make hit rates routing-shaped
        again (and could outlive a digest flip unkeyed)."""
        with make_cluster(workers=2, cache_capacity=64) as cluster:
            images = synthetic_images((8, 8, 3), 8, seed=32)
            for _ in range(3):
                for future in cluster.submit_batch("MicroCNN", images):
                    future.result(timeout=WAIT_S)
            detail = cluster.cluster_report()
            for report in detail.worker_reports.values():
                for model_report in report.values():
                    assert model_report.cache_hits == 0

    def test_committed_rollout_cannot_serve_stale_cached_response(self):
        """Poisoned-cache regression: answers cached under the old
        digest must be unreachable once a different artifact commits —
        the cache key carries the serving digest."""
        config = RolloutConfig(canary_fraction=1.0, min_canary_samples=1,
                               max_mismatches=10**6)
        with make_cluster(workers=2, cache_capacity=256) as cluster:
            probe = synthetic_images((8, 8, 3), 1, seed=33)[0]
            fill = synthetic_images((8, 8, 3), 64, seed=34)
            old_answer = cluster.infer("MicroCNN", probe, timeout=WAIT_S)
            cluster.infer("MicroCNN", probe, timeout=WAIT_S)
            assert cluster.cache_stats().hits >= 1  # cached under old digest
            # Commit a *divergent* artifact (mismatch budget disarmed):
            # the worst case for a stale cache, because the old cached
            # answer is now wrong.
            divergent = micro_network(rng=7, release="poison")
            cluster.publish(divergent, model="MicroCNN", rollout=config)
            for start in range(0, 256, 32):
                for future in cluster.submit_batch(
                        "MicroCNN", fill[start % 64:start % 64 + 16]):
                    future.result(timeout=WAIT_S)
                if _terminal_status(cluster):
                    break
            status = wait_for(lambda: _terminal_status(cluster))
            assert status["phase"] == "committed"
            misses_before = cluster.cache_stats().misses
            post = cluster.infer("MicroCNN", probe, timeout=WAIT_S)
            # The probe re-missed (its old entry is keyed to a digest
            # that no longer serves) and the answer is the *new*
            # artifact's, computed fresh.
            assert cluster.cache_stats().misses == misses_before + 1
            # baseline_service() attaches the *current* handles — the
            # committed divergent artifact — so this is the new truth.
            baseline = cluster.baseline_service()
            try:
                expected = run_closed_loop(
                    baseline, "MicroCNN", probe[None]).outputs[0]
            finally:
                baseline.close()
            assert np.array_equal(post, expected)
            assert not np.array_equal(post, old_answer) or \
                np.array_equal(old_answer, expected)


# ---------------------------------------------------------------------------
# attach revocation on pin shrink
# ---------------------------------------------------------------------------

class TestAttachRevocation:
    def test_pin_shrink_detaches_and_frees_worker_memory(self):
        """Narrowing a model's pin width must detach the surplus manifest
        and free its shm views on the no-longer-pinned worker — attach
        bytes drop in the accounting *and* in the worker's ack."""
        with make_cluster(models=("MicroCNN", "TinyCNN"), workers=2,
                          pin_models={"MicroCNN": 2, "TinyCNN": 2},
                          cache_capacity=0) as cluster:
            images = synthetic_images((8, 8, 3), 8, seed=41)
            tiny_images = synthetic_images((32, 32, 3), 8, seed=42)
            for model, batch in (("MicroCNN", images),
                                 ("TinyCNN", tiny_images)):
                for future in cluster.submit_batch(model, batch):
                    future.result(timeout=WAIT_S)
            before = cluster.worker_detail()
            assert all(d["models"] == ["MicroCNN", "TinyCNN"]
                       for d in before.values())
            # Shrink TinyCNN's pin width to 1 (the rebalance path with a
            # pinned-by-hand layout) and converge the fleet onto it.
            with cluster._lock:
                cluster._pinning["TinyCNN"] = 1
                applied = dict(cluster._pinning)
            cluster.router.set_pin_counts(applied)
            cluster._refresh_pinning()
            after = cluster.worker_detail()
            shrunk = [wid for wid, d in after.items()
                      if d["models"] == ["MicroCNN"]]
            assert len(shrunk) == 1  # exactly one worker dropped it
            victim = shrunk[0]
            assert after[victim]["attach_bytes"] < \
                before[victim]["attach_bytes"]
            # The worker's detach ack proves the shm views were closed
            # and reports the bytes it freed.
            freed = wait_for(lambda: [
                entry for entry in cluster._detach_log
                if entry[0] == victim
                and any(item[0] == "TinyCNN" for item in entry[1])
            ])
            assert freed[0][2] > 0
            # The surviving holder still serves TinyCNN bit-identically.
            rerun = [f.result(timeout=WAIT_S) for f in
                     cluster.submit_batch("TinyCNN", tiny_images)]
            baseline = cluster.baseline_service()
            try:
                expected = run_closed_loop(baseline, "TinyCNN",
                                           tiny_images).rows()
            finally:
                baseline.close()
            assert np.array_equal(np.stack(rerun), expected)
