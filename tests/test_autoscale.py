"""Elastic scheduling tests: router slot accounting, per-model pinning,
the pure autoscaler core, and cluster-level scale events mid-traffic.

The hypothesis property test drives randomized acquire / release /
remove / re-register / force sequences against the router's accounting
invariant (``dispatched == completed + Σ outstanding``, never negative).
It fails on the pre-fix router — which counted a completion for releases
that returned no slot and let a dead incarnation's late release steal a
slot from a re-registered worker id — and passes on the generation-scoped
one.
"""

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving import (
    AutoscaleConfig,
    ClusterOverloadError,
    ClusterService,
    QuarantinePolicy,
    pin_counts_from_shares,
    drive,
)
from repro.serving.autoscale import Autoscaler, AutoscaleSignals, FakeClock
from repro.serving.loadgen import (
    phased_poisson_offsets,
    run_closed_loop,
    synthetic_images,
)
from repro.serving.router import LeastOutstandingRouter, rendezvous_score

WAIT_S = 60.0


# --------------------------------------------------------------------------
# Router slot accounting (the bugfixes)
# --------------------------------------------------------------------------
class TestRouterAccounting:
    def test_release_without_held_slot_counts_nothing(self):
        router = LeastOutstandingRouter()
        router.add_worker("a")
        assert router.release("a") is False
        stats = router.stats()
        assert stats.completed == 0
        assert stats.outstanding == 0

    def test_double_release_counts_one_completion(self):
        router = LeastOutstandingRouter()
        router.add_worker("a")
        assert router.acquire("M") == "a"
        assert router.release("a") is True
        assert router.release("a") is False
        stats = router.stats()
        assert stats.dispatched == 1
        assert stats.completed == 1
        assert stats.outstanding == 0

    def test_release_scoped_to_dead_generation_is_noop(self):
        router = LeastOutstandingRouter()
        gen1 = router.add_worker("a")
        assert router.acquire("M") == "a"
        # Crash: the in-flight slot is credited by the removal...
        router.remove_worker("a")
        gen2 = router.add_worker("a")  # ...and the same id re-registers.
        assert gen2 > gen1
        # The dead incarnation's late answer must not steal a slot from
        # the new incarnation.
        assert router.release("a", generation=gen1) is False
        assert router.outstanding("a") == 0
        stats = router.stats()
        assert stats.dispatched == stats.completed + stats.outstanding

    def test_release_with_current_generation_returns_slot(self):
        router = LeastOutstandingRouter()
        generation = router.add_worker("a")
        assert router.acquire("M") == "a"
        assert router.release("a", generation=generation) is True
        assert router.outstanding("a") == 0

    def test_reregistering_live_worker_keeps_generation_and_slots(self):
        router = LeastOutstandingRouter()
        generation = router.add_worker("a", models=["M"])
        assert router.acquire("M") == "a"
        assert router.add_worker("a", models=["M", "N"]) == generation
        assert router.outstanding("a") == 1

    def test_retry_after_uses_the_models_eligible_set(self):
        router = LeastOutstandingRouter(max_outstanding=8,
                                        pin_counts={"Pinned": 2})
        for i in range(8):
            router.add_worker(f"w{i}", models=["Pinned", "Free"])
        fleet = router.retry_after_s(2.0)
        free = router.retry_after_s(2.0, model="Free")
        pinned = router.retry_after_s(2.0, model="Pinned")
        assert free == pytest.approx(fleet)
        # Pinned to 2 of 8 workers: the drain horizon is 4x longer.
        assert pinned == pytest.approx(4.0 * fleet)

    @given(st.lists(
        st.tuples(
            st.sampled_from(["add", "acquire", "force", "release",
                             "stale", "remove",
                             "fail", "latency", "hb"]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=80,
    ))
    def test_accounting_invariant_over_random_churn(self, ops):
        # The quarantine policy is deliberately hair-triggered so health
        # events actually flip workers in and out of quarantine during
        # churn — slot accounting must be untouched by any of it.
        router = LeastOutstandingRouter(
            max_outstanding=2,
            quarantine=QuarantinePolicy(min_samples=2, latency_factor=1.5,
                                        max_consecutive_failures=2,
                                        probation_heartbeats=1))
        held = []  # (worker, generation) per successful unreleased acquire
        for op, i in ops:
            worker_id = f"w{i}"
            if op == "add":
                router.add_worker(worker_id)
            elif op in ("acquire", "force"):
                worker = router.acquire("M", force=(op == "force"))
                if worker is not None:
                    held.append((worker, router.generation(worker)))
            elif op == "release" and held:
                worker, generation = held.pop(i % len(held))
                returned = router.release(worker, generation=generation)
                # A slot comes back iff its incarnation is still the
                # registered one; dead-incarnation slots were credited by
                # remove_worker and must not come back again.
                assert returned == (router.generation(worker) == generation)
            elif op == "stale":
                # Generations start at 1, so this can never match.
                assert router.release(worker_id, generation=-1) is False
            elif op == "remove":
                router.remove_worker(worker_id)
            elif op == "fail":
                router.record_failure(worker_id)
            elif op == "latency":
                # i spreads the latencies so some workers degrade past
                # the fleet median and get quarantined.
                router.record_completion(worker_id, 0.01 * (1 + 10 * i))
            elif op == "hb":
                router.record_clean_heartbeat(worker_id)
            stats = router.stats()
            live = sum(1 for worker, generation in held
                       if router.generation(worker) == generation)
            assert stats.outstanding == live
            assert stats.dispatched == stats.completed + stats.outstanding
            assert all(router.outstanding(w) >= 0 for w in router.workers())
            # Health bookkeeping never leaks beyond the registered fleet
            # and never empties a model's candidate set.
            assert set(router.quarantined_workers()) <= set(router.workers())
            if router.workers():
                assert router.eligible_workers("M")


# --------------------------------------------------------------------------
# Per-model pinning eligibility
# --------------------------------------------------------------------------
class TestPinning:
    def test_eligible_is_rendezvous_top_k_of_declaring_workers(self):
        router = LeastOutstandingRouter(pin_counts={"M": 2})
        ids = [f"w{i}" for i in range(5)]
        for worker in ids:
            router.add_worker(worker, models=["M"])
        expected = sorted(
            sorted(ids, key=lambda w: rendezvous_score("M", w),
                   reverse=True)[:2]
        )
        assert router.eligible_workers("M") == expected
        for _ in range(16):
            assert router.acquire("M") in expected
            # drain so the bound never sheds
            for worker in expected:
                router.release(worker)

    def test_unpinned_model_routes_to_every_declaring_worker(self):
        router = LeastOutstandingRouter(pin_counts={"M": 1})
        for i in range(4):
            router.add_worker(f"w{i}", models=["M", "Free"])
        assert len(router.eligible_workers("Free")) == 4
        assert len(router.eligible_workers("M")) == 1

    def test_undeclared_worker_is_never_eligible_even_forced(self):
        router = LeastOutstandingRouter(max_outstanding=2,
                                        pin_counts={"M": 1})
        router.add_worker("holds", models=["M"])
        router.add_worker("lacks", models=["Other"])
        assert router.eligible_workers("M") == ["holds"]
        # Force ignores the admission bound but never the declared-model
        # restriction: a worker without the artifact cannot serve it.
        for _ in range(5):
            assert router.acquire("M", force=True) == "holds"

    def test_force_widens_past_the_pinned_top_k(self):
        router = LeastOutstandingRouter(max_outstanding=1,
                                        pin_counts={"M": 1})
        for i in range(3):
            router.add_worker(f"w{i}", models=["M"])
        (pinned,) = router.eligible_workers("M")
        assert router.acquire("M") == pinned
        assert router.acquire("M") is None  # bound reached: shed
        forced = router.acquire("M", force=True)
        assert forced is not None and forced != pinned

    def test_serve_anything_worker_is_a_candidate_for_pinned_models(self):
        router = LeastOutstandingRouter(pin_counts={"M": 1})
        router.add_worker("anything")  # models=None: serves any model
        assert router.eligible_workers("M") == ["anything"]

    def test_add_worker_model_expands_the_declaration(self):
        router = LeastOutstandingRouter()
        router.add_worker("a", models=["M"])
        assert router.eligible_workers("N") == []
        router.add_worker_model("a", "N")
        assert router.eligible_workers("N") == ["a"]
        assert router.worker_models("a") == {"M", "N"}

    def test_pin_counts_from_shares_is_proportional_and_clamped(self):
        counts = pin_counts_from_shares(
            {"Hot": 3.0, "Cold": 1.0}, workers=4)
        assert counts == {"Hot": 3, "Cold": 1}
        # A zero-share model still gets min_workers; nothing exceeds the
        # fleet.
        counts = pin_counts_from_shares({"A": 1.0, "B": 0.0}, workers=8)
        assert counts == {"A": 8, "B": 1}
        with pytest.raises(ValueError):
            pin_counts_from_shares({"A": 1.0}, workers=0)

    def test_set_pin_counts_rejects_nonpositive(self):
        router = LeastOutstandingRouter()
        with pytest.raises(ValueError):
            router.set_pin_counts({"M": 0})


# --------------------------------------------------------------------------
# Pure autoscaler core
# --------------------------------------------------------------------------
def make_scaler(**overrides):
    clock = FakeClock()
    config = dict(min_workers=1, max_workers=4, grow_consecutive=2,
                  shrink_consecutive=3, idle_utilization=0.25,
                  cooldown_s=1.0)
    config.update(overrides)
    return Autoscaler(AutoscaleConfig(**config), clock=clock), clock


def make_signals(workers=1, pending=0, dispatched=0, shed=0, outstanding=0,
                 window=8):
    return AutoscaleSignals(workers=workers, pending=pending,
                            dispatched=dispatched, shed=shed,
                            outstanding=outstanding, window=window)


class TestAutoscaler:
    def test_first_tick_arms_the_baseline_and_holds(self):
        scaler, _ = make_scaler()
        assert scaler.observe(make_signals(shed=100)) == "hold"

    def test_grow_requires_consecutive_shedding_ticks(self):
        scaler, clock = make_scaler(grow_consecutive=2)
        assert scaler.observe(make_signals(shed=0)) == "hold"  # arm
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=5)) == "hold"  # streak 1
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=9)) == "grow"  # streak 2

    def test_one_burst_then_quiet_does_not_grow(self):
        scaler, clock = make_scaler(grow_consecutive=2)
        scaler.observe(make_signals(shed=0))
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=5)) == "hold"
        clock.advance(1.0)
        # No new sheds: the streak resets, high utilization is not idle.
        assert scaler.observe(
            make_signals(shed=5, outstanding=8, window=8)) == "hold"
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=9)) == "hold"  # streak 1 again

    def test_cooldown_blocks_back_to_back_actions(self):
        scaler, clock = make_scaler(grow_consecutive=1, cooldown_s=10.0)
        scaler.observe(make_signals(shed=0))
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=1)) == "grow"
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=2)) == "hold"  # cooling down
        clock.advance(10.0)
        assert scaler.observe(make_signals(shed=3)) == "grow"

    def test_pending_spawn_holds_instead_of_growing_again(self):
        scaler, clock = make_scaler(grow_consecutive=1, cooldown_s=0.0)
        scaler.observe(make_signals(shed=0))
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=1, pending=1)) == "hold"
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=2, pending=0)) == "grow"

    def test_max_workers_bounds_growth(self):
        scaler, clock = make_scaler(max_workers=2, grow_consecutive=1,
                                    cooldown_s=0.0)
        scaler.observe(make_signals(workers=2, shed=0))
        clock.advance(1.0)
        assert scaler.observe(make_signals(workers=2, shed=5)) == "hold"

    def test_grow_budget_spends_and_refunds(self):
        scaler, clock = make_scaler(grow_consecutive=1, cooldown_s=0.0,
                                    grow_budget=1)
        scaler.observe(make_signals(shed=0))
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=1)) == "grow"
        assert scaler.grows_remaining == 0
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=2)) == "hold"  # budget spent
        scaler.refund_grow()  # the spawn failed to launch
        assert scaler.grows_remaining == 1
        clock.advance(1.0)
        assert scaler.observe(make_signals(shed=3)) == "grow"

    def test_shrink_after_sustained_idleness(self):
        scaler, clock = make_scaler(shrink_consecutive=3, cooldown_s=0.0)
        scaler.observe(make_signals(workers=2, window=16))
        for tick in range(3):
            clock.advance(1.0)
            decision = scaler.observe(
                make_signals(workers=2, window=16, outstanding=0))
            assert decision == ("shrink" if tick == 2 else "hold")

    def test_busy_tick_resets_the_idle_streak(self):
        scaler, clock = make_scaler(shrink_consecutive=2, cooldown_s=0.0,
                                    idle_utilization=0.25)
        scaler.observe(make_signals(workers=2, window=16))
        clock.advance(1.0)
        assert scaler.observe(
            make_signals(workers=2, window=16, outstanding=0)) == "hold"
        clock.advance(1.0)
        # Utilization 0.5 > 0.25: busy, streak resets.
        assert scaler.observe(
            make_signals(workers=2, window=16, outstanding=8)) == "hold"
        clock.advance(1.0)
        assert scaler.observe(
            make_signals(workers=2, window=16, outstanding=0)) == "hold"

    def test_min_workers_bounds_shrinking(self):
        scaler, clock = make_scaler(shrink_consecutive=1, cooldown_s=0.0)
        scaler.observe(make_signals(workers=1))
        for _ in range(5):
            clock.advance(1.0)
            assert scaler.observe(make_signals(workers=1)) == "hold"

    def test_events_record_both_actions(self):
        scaler, clock = make_scaler(grow_consecutive=1, shrink_consecutive=1,
                                    cooldown_s=0.0)
        scaler.observe(make_signals(workers=1, shed=0))
        clock.advance(1.0)
        scaler.observe(make_signals(workers=1, shed=4))
        clock.advance(1.0)
        scaler.observe(make_signals(workers=2, shed=4, window=16))
        assert [e.action for e in scaler.events] == ["grow", "shrink"]
        grow = scaler.events[0]
        assert (grow.workers_before, grow.workers_target) == (1, 2)
        assert grow.shed_delta == 4

    def test_signals_utilization_handles_zero_window(self):
        assert make_signals(window=0, outstanding=0).utilization == 0.0
        assert make_signals(window=0, outstanding=3).utilization == 1.0
        assert make_signals(window=8, outstanding=4).utilization == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_workers=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            AutoscaleConfig(idle_utilization=1.5)
        with pytest.raises(ValueError):
            AutoscaleConfig(grow_budget=-1)
        with pytest.raises(ValueError):
            AutoscaleConfig(interval_s=0.0)


# --------------------------------------------------------------------------
# Cluster-level scale events and pinned fleets
# --------------------------------------------------------------------------
def make_cluster(**kwargs):
    kwargs.setdefault("models", ("MicroCNN",))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    return ClusterService(**kwargs)


def wait_for_worker_count(cluster, count, timeout_s=WAIT_S):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if len(cluster.router.workers()) == count:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"fleet never reached {count} workers; "
        f"router sees {cluster.router.workers()}"
    )


class TestClusterPinning:
    def test_pinned_fleet_attaches_only_assigned_models(self):
        with make_cluster(models=("MicroCNN", "TinyCNN"), workers=3,
                          pin_models={"MicroCNN": 1, "TinyCNN": 2}) as cluster:
            detail = cluster.worker_detail()
            assert len(detail) == 3
            micro = [w for w, d in detail.items() if "MicroCNN" in d["models"]]
            tiny = [w for w, d in detail.items() if "TinyCNN" in d["models"]]
            assert len(micro) == 1
            assert len(tiny) == 2
            assert len(cluster.router.eligible_workers("MicroCNN")) == 1
            assert len(cluster.router.eligible_workers("TinyCNN")) == 2
            # The fleet does not attach-everything: one model's top-K may
            # overlap the other's, but with 1+2 pins over 3 workers at
            # least one worker must hold a strict subset of the store.
            full = sum(h.nbytes for h in cluster.store.handles().values())
            attach_bytes = [d["attach_bytes"] for d in detail.values()]
            assert min(attach_bytes) < full
            assert sum(attach_bytes) < len(detail) * full
            # Pinned routing still answers bit-identically.
            images = synthetic_images((8, 8, 3), 24, seed=3)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            run = run_closed_loop(cluster, "MicroCNN", images)
            assert np.array_equal(run.rows(), base.rows())

    def test_unknown_pinned_model_raises(self):
        with pytest.raises(KeyError):
            make_cluster(pin_models={"NoSuchModel": 1})


class TestClusterScaleEvents:
    def test_scale_up_mid_traffic_is_bit_exact(self):
        with make_cluster(workers=1) as cluster:
            images = synthetic_images((8, 8, 3), 48, seed=5)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            first = cluster.submit_batch("MicroCNN", images[:24])
            assert cluster.scale_up() == 1
            head = [f.result(timeout=WAIT_S) for f in first]
            wait_for_worker_count(cluster, 2)
            second = cluster.submit_batch("MicroCNN", images[24:])
            tail = [f.result(timeout=WAIT_S) for f in second]
            assert np.array_equal(np.stack(head + tail), base.rows())

    def test_scale_down_drains_in_flight_work(self):
        with make_cluster(workers=3) as cluster:
            images = synthetic_images((8, 8, 3), 36, seed=6)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            futures = cluster.submit_batch("MicroCNN", images)
            assert cluster.scale_down() == 1
            outputs = np.stack([f.result(timeout=WAIT_S) for f in futures])
            assert np.array_equal(outputs, base.rows())
            wait_for_worker_count(cluster, 2)

    def test_retiree_is_struck_from_the_ledger_like_a_dead_worker(self):
        """Finalizing a retired worker drops it from each request's holders:
        a request with a copy on another worker (a hedge, a retry) keeps
        waiting for that copy instead of being dispatched a third time."""
        from concurrent.futures import Future

        from repro.serving.cluster import _Pending

        with make_cluster(workers=3) as cluster:
            image = synthetic_images((8, 8, 3), 1, seed=7)[0]
            future: Future = Future()
            with cluster._lock:
                retiree, survivor = sorted(cluster._workers)[:2]
                holders = {}
                for wid in (retiree, survivor):
                    others = [w for w in cluster._workers if w != wid]
                    assert cluster.router.acquire(
                        "MicroCNN", force=True, exclude=others) == wid
                    holders[wid] = cluster._workers[wid].generation
                # Two copies in flight that no worker was sent: only the
                # ledger decides what happens to the request.
                cluster._pending[-1] = _Pending(
                    future=future, model="MicroCNN", image=image,
                    submitted_at=time.perf_counter(), holders=holders)
                victim = cluster._workers[retiree]
                victim.stopping = True
                cluster.router.remove_worker(retiree)
            dispatched = cluster.router.stats().dispatched
            victim.endpoint.request_stop()
            deadline = time.time() + WAIT_S
            while retiree in cluster._workers and time.time() < deadline:
                time.sleep(0.02)
            with cluster._lock:
                assert retiree not in cluster._workers
                assert cluster._pending[-1].holders == {
                    survivor: holders[survivor]}
            assert cluster.router.stats().dispatched == dispatched
            assert cluster.cluster_report().requeued == 0
            # The surviving copy's answer resolves it and frees its slot.
            answer = np.zeros(10, dtype=np.float32)
            cluster._handle_response(("res", survivor, -1, answer))
            assert np.array_equal(future.result(timeout=0), answer)
            with cluster._lock:
                assert cluster._pending == {}
            stats = cluster.router.stats()
            assert stats.outstanding == 0
            assert stats.dispatched == stats.completed

    def test_scale_down_declines_below_the_floor(self):
        with make_cluster(workers=1) as cluster:
            assert cluster.scale_down() == 0
            assert len(cluster.router.workers()) == 1

    def test_autoscaler_grows_under_sustained_shedding(self):
        config = AutoscaleConfig(min_workers=1, max_workers=2,
                                 grow_consecutive=2, shrink_consecutive=10**6,
                                 cooldown_s=0.2, interval_s=0.05)
        with make_cluster(workers=1, max_outstanding=1,
                          autoscale=config) as cluster:
            # Wedge the one worker so its single admission slot stays
            # taken: every non-blocking submit after the first sheds, on
            # any host speed.
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 2.0))
            time.sleep(0.1)  # let the stall take hold
            image = synthetic_images((8, 8, 3), 1, seed=7)[0]
            futures = [cluster.submit("MicroCNN", image, block=False)]
            deadline = time.time() + WAIT_S
            while (time.time() < deadline
                   and len(cluster.router.workers()) < 2):
                try:
                    futures.append(
                        cluster.submit("MicroCNN", image, block=False))
                except ClusterOverloadError:
                    pass
                time.sleep(0.002)
            wait_for_worker_count(cluster, 2)
            assert any(e.action == "grow" for e in cluster.autoscale_events)
            for future in futures:
                future.result(timeout=WAIT_S)

    def test_autoscaler_shrinks_when_idle(self):
        config = AutoscaleConfig(min_workers=1, max_workers=2,
                                 grow_consecutive=10**6, shrink_consecutive=3,
                                 idle_utilization=0.5, cooldown_s=0.1,
                                 interval_s=0.05)
        with make_cluster(workers=2, autoscale=config) as cluster:
            wait_for_worker_count(cluster, 1)
            assert any(e.action == "shrink"
                       for e in cluster.autoscale_events)
            # The shrunk fleet still serves.
            images = synthetic_images((8, 8, 3), 8, seed=8)
            for future in cluster.submit_batch("MicroCNN", images):
                future.result(timeout=WAIT_S)

    def test_autoscale_clamps_initial_worker_count(self):
        config = AutoscaleConfig(min_workers=2, max_workers=3,
                                 grow_consecutive=10**6,
                                 shrink_consecutive=10**6)
        with make_cluster(workers=1, autoscale=config) as cluster:
            assert len(cluster.router.workers()) == 2


def spike_load(cluster, images, phases, seed=0):
    """Phased non-blocking open loop: the load result and its per-phase
    accounting."""
    offsets, _ = phased_poisson_offsets(np.random.default_rng(seed), phases)
    result = drive(cluster, "MicroCNN", images, offsets, block=False)
    return result, result.phases(phases)


class TestSpikeLoad:
    def test_phases_account_offered_and_shed(self):
        with make_cluster(workers=1) as cluster:
            images = synthetic_images((8, 8, 3), 8, seed=9)
            result, phases = spike_load(
                cluster, images, [("warm", 50.0, 0.2), ("spike", 200.0, 0.2)])
            assert [p.name for p in phases] == ["warm", "spike"]
            _, phase_index = phased_poisson_offsets(
                np.random.default_rng(0),
                [("warm", 50.0, 0.2), ("spike", 200.0, 0.2)])
            assert [p.offered for p in phases] == list(
                np.bincount(phase_index, minlength=2))
            assert result.offered == sum(p.offered for p in phases)
            assert result.shed == sum(p.shed for p in phases)
            assert result.completed == result.offered - result.shed
            assert 0.0 <= phases[0].shed_rate <= 1.0

    def test_outputs_match_the_images_they_were_keyed_to(self):
        with make_cluster(workers=1) as cluster:
            images = synthetic_images((8, 8, 3), 4, seed=10)
            result, _ = spike_load(cluster, images, [("only", 100.0, 0.3)])
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            assert result.outputs  # the run admitted something
            for index, row in result.outputs.items():
                assert np.array_equal(row, base.outputs[index % 4])
