"""Tests for the micro-batching inference service and its building blocks."""

import threading
import time

import numpy as np
import pytest

from repro.core.engine import PhoneBitEngine, split_batch_output
from repro.core.tensor import Layout, Tensor
from repro.serving import (
    BatchingScheduler,
    InferenceService,
    LatencySummary,
    LatencyTracker,
    LRUResponseCache,
    ModelPool,
    input_digest,
    run_closed_loop,
    run_open_loop,
    synthetic_images,
)

#: Generous wall-clock bound for any single future in these tests.
WAIT_S = 30.0


def echo_executor(payloads):
    return [p * 2 for p in payloads]


class TestBatchingScheduler:
    def test_size_triggered_flush(self):
        with BatchingScheduler(echo_executor, max_batch_size=4,
                               max_wait_ms=60_000.0) as scheduler:
            futures = [scheduler.submit(i) for i in range(4)]
            results = [f.result(timeout=WAIT_S) for f in futures]
            assert results == [0, 2, 4, 6]
            stats = scheduler.stats()
        assert stats.batch_count == 1
        assert stats.batches[0].size == 4
        assert stats.batches[0].trigger == "size"
        assert stats.completed == 4 and stats.failed == 0

    def test_timeout_triggered_flush(self):
        with BatchingScheduler(echo_executor, max_batch_size=100,
                               max_wait_ms=30.0) as scheduler:
            future = scheduler.submit(21)
            assert future.result(timeout=WAIT_S) == 42
            stats = scheduler.stats()
        assert stats.batch_count == 1
        assert stats.batches[0].trigger == "timeout"
        assert stats.batches[0].size == 1

    def test_manual_flush(self):
        with BatchingScheduler(echo_executor, max_batch_size=100,
                               max_wait_ms=60_000.0) as scheduler:
            futures = [scheduler.submit(i) for i in (1, 2)]
            scheduler.flush()
            assert [f.result(timeout=WAIT_S) for f in futures] == [2, 4]
            assert scheduler.stats().batches[0].trigger == "flush"

    def test_drain_on_shutdown(self):
        scheduler = BatchingScheduler(echo_executor, max_batch_size=100,
                                      max_wait_ms=60_000.0)
        futures = scheduler.submit_many([1, 2, 3])
        scheduler.close()  # drain=True: pending work still completes
        assert [f.result(timeout=WAIT_S) for f in futures] == [2, 4, 6]
        stats = scheduler.stats()
        assert stats.batch_count == 1
        assert stats.batches[0].trigger == "drain"
        assert stats.completed == 3

    def test_close_without_drain_cancels_pending(self):
        scheduler = BatchingScheduler(echo_executor, max_batch_size=100,
                                      max_wait_ms=60_000.0)
        futures = scheduler.submit_many([1, 2])
        scheduler.close(drain=False)
        assert all(f.cancelled() for f in futures)

    def test_submit_after_close_rejected(self):
        scheduler = BatchingScheduler(echo_executor)
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(1)
        with pytest.raises(RuntimeError):
            scheduler.submit_many([1])

    def test_oversized_burst_splits_into_max_size_batches(self):
        # Full batches cut on size; the leftover tail flushes on timeout.
        with BatchingScheduler(echo_executor, max_batch_size=3,
                               max_wait_ms=30.0) as scheduler:
            futures = scheduler.submit_many(list(range(7)))
            assert [f.result(timeout=WAIT_S) for f in futures] == [
                2 * i for i in range(7)
            ]
            stats = scheduler.stats()
        assert all(batch.size <= 3 for batch in stats.batches)
        assert sum(batch.size for batch in stats.batches) == 7
        assert stats.max_queue_depth == 7
        assert stats.trigger_counts["size"] >= 2

    def test_executor_error_fails_the_batch(self):
        def broken(payloads):
            raise ValueError("kernel exploded")

        with BatchingScheduler(broken, max_batch_size=2,
                               max_wait_ms=60_000.0) as scheduler:
            futures = scheduler.submit_many([1, 2])
            for future in futures:
                with pytest.raises(ValueError, match="kernel exploded"):
                    future.result(timeout=WAIT_S)
            stats = scheduler.stats()
        assert stats.failed == 2 and stats.completed == 0
        assert stats.batches[0].failed

    def test_wrong_result_count_is_an_error(self):
        with BatchingScheduler(lambda payloads: [0], max_batch_size=2,
                               max_wait_ms=60_000.0) as scheduler:
            futures = scheduler.submit_many([1, 2])
            with pytest.raises(RuntimeError, match="2 requests"):
                futures[0].result(timeout=WAIT_S)

    def test_rejects_bad_policy_parameters(self):
        with pytest.raises(ValueError):
            BatchingScheduler(echo_executor, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingScheduler(echo_executor, max_wait_ms=-1.0)

    def test_latencies_are_recorded(self):
        with BatchingScheduler(echo_executor, max_batch_size=2,
                               max_wait_ms=60_000.0) as scheduler:
            futures = scheduler.submit_many([1, 2])
            [f.result(timeout=WAIT_S) for f in futures]
            assert len(scheduler.latencies) == 2

    def test_client_cancel_of_queued_request_does_not_kill_the_worker(self):
        # Regression: resolving an already-cancelled future raises
        # InvalidStateError; if that escaped, the worker thread died and the
        # scheduler silently wedged forever.  Cancelled requests are now
        # dropped when the batch is cut (set_running_or_notify_cancel).
        with BatchingScheduler(echo_executor, max_batch_size=100,
                               max_wait_ms=60_000.0) as scheduler:
            doomed = scheduler.submit(1)
            survivor = scheduler.submit(2)
            assert doomed.cancel()  # still queued: cancellable
            scheduler.flush()
            assert survivor.result(timeout=WAIT_S) == 4
            assert doomed.cancelled()
            # The worker must still be alive and serving new requests.
            later = scheduler.submit(5)
            scheduler.flush()
            assert later.result(timeout=WAIT_S) == 10

    def test_batch_of_only_cancelled_requests_is_skipped(self):
        calls = []

        def tracking_executor(payloads):
            calls.append(list(payloads))
            return [p * 2 for p in payloads]

        with BatchingScheduler(tracking_executor, max_batch_size=100,
                               max_wait_ms=60_000.0) as scheduler:
            future = scheduler.submit(1)
            assert future.cancel()
            scheduler.flush()
            follow_up = scheduler.submit(3)
            scheduler.flush()
            assert follow_up.result(timeout=WAIT_S) == 6
        assert [3] in calls and [1] not in calls


class TestSchedulerWorkerDeath:
    """The worker thread dying must fail futures, never hang them.

    Executor exceptions are forwarded per batch; these tests kill the worker
    *infrastructure* instead — a poisoned injectable clock raises inside the
    wait loop, exactly the kind of failure that used to leave queued futures
    unresolved forever.
    """

    @staticmethod
    def poisoned_clock(fail_after):
        """Clock that explodes on the worker thread's ``fail_after``-th call.

        Calls from other threads (submit timestamps) pass through, so the
        failure is deterministic: it always lands inside the worker loop.
        """
        state = {"calls": 0}

        def clock():
            if threading.current_thread().name.endswith("-worker"):
                state["calls"] += 1
                if state["calls"] > fail_after:
                    raise RuntimeError("clock exploded")
            return 0.0

        return clock

    def test_queued_futures_resolve_with_error_on_worker_death(self):
        scheduler = BatchingScheduler(
            echo_executor, max_batch_size=100, max_wait_ms=60_000.0,
            clock=self.poisoned_clock(fail_after=1),
        )
        accepted = []
        for payload in (1, 2, 3):
            try:
                accepted.append(scheduler.submit(payload))
            except RuntimeError:
                break  # worker already died and closed the scheduler
        assert accepted, "first submit must be accepted"
        scheduler.flush()  # wake the parked worker into its fatal clock call
        for future in accepted:
            # Depending on where the clock lands, the batch fails with the
            # raw clock error (claimed futures) or the queued requests fail
            # with the worker-died error — either way, no future may hang.
            with pytest.raises(RuntimeError, match="clock exploded|worker thread died"):
                future.result(timeout=WAIT_S)
        assert scheduler.stats().failed == len(accepted)
        scheduler.close()  # must not hang or raise

    def test_drain_close_after_worker_death_does_not_hang(self):
        scheduler = BatchingScheduler(
            echo_executor, max_batch_size=100, max_wait_ms=60_000.0,
            clock=self.poisoned_clock(fail_after=1),
        )
        future = scheduler.submit(1)
        start = time.perf_counter()
        scheduler.close(drain=True)
        assert time.perf_counter() - start < WAIT_S
        assert future.done()
        with pytest.raises(RuntimeError):
            future.result(timeout=0)

    def test_submit_after_worker_death_raises(self):
        scheduler = BatchingScheduler(
            echo_executor, max_batch_size=100, max_wait_ms=60_000.0,
            clock=self.poisoned_clock(fail_after=0),
        )
        try:
            scheduler.submit(1)
        except RuntimeError:
            pass
        deadline = time.perf_counter() + WAIT_S
        while not scheduler.closed and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert scheduler.closed
        with pytest.raises(RuntimeError):
            scheduler.submit(2)
        scheduler.close()

    def test_base_exception_from_executor_fails_batch_not_worker(self):
        def exploding(payloads):
            raise KeyboardInterrupt  # BaseException, not Exception

        with BatchingScheduler(exploding, max_batch_size=2,
                               max_wait_ms=5.0) as scheduler:
            future = scheduler.submit(1)
            with pytest.raises(BaseException):
                future.result(timeout=WAIT_S)
            follow_up_executor_alive = scheduler.stats().failed == 1
        assert follow_up_executor_alive


class TestLatencyMetrics:
    def test_summary_percentiles(self):
        tracker = LatencyTracker()
        for ms in range(1, 101):
            tracker.record(ms / 1000.0)
        summary = tracker.summary()
        assert summary.count == 100
        assert summary.p50_ms == pytest.approx(50.5)
        assert summary.p99_ms == pytest.approx(99.01)
        assert summary.max_ms == pytest.approx(100.0)
        assert summary.mean_ms == pytest.approx(50.5)

    def test_empty_summary_is_zero(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0 and summary.p99_ms == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyTracker().record(-1.0)

    def test_window_bounds_memory_but_count_stays_exact(self):
        tracker = LatencyTracker(window=10)
        for ms in range(1, 101):
            tracker.record(ms / 1000.0)
        assert len(tracker) == 100            # exact total
        assert len(tracker.samples()) == 10   # bounded window
        summary = tracker.summary()
        assert summary.count == 100
        # Percentiles come from the most recent window (91..100 ms).
        assert summary.max_ms == pytest.approx(100.0)
        assert summary.p50_ms >= 90.0
        with pytest.raises(ValueError):
            LatencyTracker(window=0)


class TestResponseCache:
    def test_lru_eviction_order(self):
        cache = LRUResponseCache(capacity=2)
        a, b, c = (np.arange(3) + i for i in range(3))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is not None  # refresh "a"; "b" becomes LRU
        cache.put("c", c)
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        stats = cache.stats()
        assert stats.evictions == 1 and stats.size == 2

    def test_stats_and_hit_rate(self):
        cache = LRUResponseCache(capacity=4)
        cache.put("k", np.zeros(2))
        assert cache.get("k") is not None
        assert cache.get("missing") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_cached_values_are_read_only(self):
        cache = LRUResponseCache(capacity=1)
        cache.put("k", np.zeros(3))
        value = cache.get("k")
        with pytest.raises(ValueError):
            value[0] = 1.0

    def test_put_does_not_freeze_or_alias_the_callers_array(self):
        # Freezing the caller's own object would race whoever already holds
        # it; a writable array must be copied, not flipped read-only.
        cache = LRUResponseCache(capacity=2)
        mine = np.zeros(3)
        cache.put("k", mine)
        mine[0] = 7.0  # caller's array stays writable...
        assert cache.get("k")[0] == 0.0  # ...and its writes don't poison us
        # An already-frozen array may be shared without copying.
        frozen = np.zeros(3)
        frozen.setflags(write=False)
        cache.put("f", frozen)
        assert cache.get("f") is frozen

    def test_digest_sensitivity(self):
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        base = input_digest("m", image)
        assert input_digest("m", image) == base
        assert input_digest("other", image) != base
        changed = image.copy()
        changed[0, 0] += 1
        assert input_digest("m", changed) != base
        assert input_digest("m", image.reshape(4, 3)) != base
        assert input_digest("m", image.astype(np.uint16)) != base

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUResponseCache(capacity=0)


class TestModelPool:
    def test_lazy_build_is_cached_and_warm(self):
        pool = ModelPool()
        network = pool.get("MicroCNN")
        assert pool.get("microcnn") is network  # case-insensitive, same object
        entry = pool.entry("MicroCNN")
        assert entry.build_ms >= 0.0 and entry.warm_ms >= 0.0
        # Warm means the plan is compiled and its backend already chosen.
        plan = network._plan_cache
        assert plan is not None and plan.is_current(network)
        assert plan.backend_selection is not None

    def test_register_external_network(self, tiny_bnn_network):
        pool = ModelPool()
        pool.register(tiny_bnn_network, name="custom")
        assert pool.get("custom") is tiny_bnn_network
        assert "custom" in pool.loaded()

    def test_available_and_contains(self):
        pool = ModelPool()
        assert "MicroCNN" in pool.available()
        assert "TinyCNN" in pool
        assert pool.loaded() == []

    def test_unknown_model(self):
        pool = ModelPool()
        with pytest.raises(KeyError):
            pool.get("NoSuchNet")
        with pytest.raises(KeyError):
            pool.entry("MicroCNN")  # not loaded yet

    def test_concurrent_first_requests_build_one_copy(self):
        pool = ModelPool()
        results = []

        def fetch():
            results.append(pool.get("MicroCNN"))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT_S)
            assert not thread.is_alive()
        assert len(results) == 4
        assert all(network is results[0] for network in results)

    def test_failed_build_does_not_wedge_waiters(self):
        pool = ModelPool()
        with pytest.raises(KeyError):
            pool.get("NoSuchNet")
        # The build slot must have been released: a retry fails cleanly
        # (rather than deadlocking on a never-set build event) and valid
        # models still load.
        with pytest.raises(KeyError):
            pool.get("NoSuchNet")
        assert pool.get("MicroCNN") is pool.get("MicroCNN")


class TestSplitBatchOutput:
    def test_splits_rows_preserving_metadata(self):
        data = np.arange(24).reshape(6, 4)
        tensor = Tensor(data, Layout.NHWC, packed=True, true_channels=3)
        parts = split_batch_output(tensor, [1, 2, 3])
        assert [p.data.shape[0] for p in parts] == [1, 2, 3]
        assert all(p.packed and p.true_channels == 3 for p in parts)
        np.testing.assert_array_equal(parts[2].data, data[3:])
        assert parts[0].data.base is not None  # default: zero-copy views
        owned = split_batch_output(tensor, [1, 2, 3], copy=True)
        assert all(p.data.base is None for p in owned)
        np.testing.assert_array_equal(owned[2].data, data[3:])

    def test_validates_sizes(self):
        tensor = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            split_batch_output(tensor, [1, 2])
        with pytest.raises(ValueError):
            split_batch_output(tensor, [4, 0])


@pytest.fixture(scope="module")
def shared_pool():
    return ModelPool()


class TestInferenceService:
    def test_outputs_bit_identical_to_unbatched_run(self, shared_pool):
        engine = PhoneBitEngine()
        network = shared_pool.get("MicroCNN")
        rng = np.random.default_rng(7)
        images = rng.integers(0, 256, size=(6, 8, 8, 3)).astype(np.uint8)
        with InferenceService(pool=shared_pool, engine=engine,
                              max_batch_size=4, max_wait_ms=5.0,
                              cache_capacity=0) as service:
            futures = service.submit_batch("MicroCNN", images)
            served = np.stack([f.result(timeout=WAIT_S) for f in futures])
        reference = np.stack(
            [engine.run(network, images[i:i + 1]).output.data[0]
             for i in range(6)]
        )
        np.testing.assert_array_equal(served, reference)

    def test_cache_hit_short_circuits_the_scheduler(self, shared_pool):
        with InferenceService(pool=shared_pool, max_batch_size=4,
                              max_wait_ms=1.0, cache_capacity=16) as service:
            rng = np.random.default_rng(3)
            image = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
            first = service.infer("MicroCNN", image, timeout=WAIT_S)
            batches_after_first = service.report("MicroCNN").scheduler.batch_count
            second = service.infer("MicroCNN", image, timeout=WAIT_S)
            report = service.report("MicroCNN")
            np.testing.assert_array_equal(first, second)
            assert report.cache_hits == 1
            assert report.scheduler.batch_count == batches_after_first
            assert report.cache is not None and report.cache.hits == 1

    def test_cache_can_be_disabled(self, shared_pool):
        with InferenceService(pool=shared_pool, cache_capacity=0,
                              max_wait_ms=1.0) as service:
            assert service.cache is None
            image = np.zeros((8, 8, 3), dtype=np.uint8)
            service.infer("MicroCNN", image, timeout=WAIT_S)
            service.infer("MicroCNN", image, timeout=WAIT_S)
            report = service.report("MicroCNN")
            assert report.cache_hits == 0 and report.cache is None
            assert report.requests == 2

    def test_rejects_wrong_input_shape(self, shared_pool):
        with InferenceService(pool=shared_pool, max_wait_ms=1.0) as service:
            with pytest.raises(ValueError, match="expected one image"):
                service.submit("MicroCNN", np.zeros((4, 4, 3), dtype=np.uint8))

    def test_close_drains_pending_requests(self, shared_pool):
        service = InferenceService(pool=shared_pool, max_batch_size=64,
                                   max_wait_ms=60_000.0, cache_capacity=0)
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(3, 8, 8, 3)).astype(np.uint8)
        futures = service.submit_batch("MicroCNN", images)
        service.close()  # drain-on-shutdown
        for future in futures:
            assert future.result(timeout=WAIT_S).shape == (10,)
        assert service.report("MicroCNN").scheduler.trigger_counts["drain"] >= 1

    def test_submit_after_close_rejected(self, shared_pool):
        service = InferenceService(pool=shared_pool, max_wait_ms=1.0)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit("MicroCNN", np.zeros((8, 8, 3), dtype=np.uint8))

    def test_flush_of_idle_model_is_a_noop(self, shared_pool):
        with InferenceService(pool=shared_pool, max_wait_ms=1.0) as service:
            service.flush("MicroCNN")  # valid model, no traffic yet
            service.flush()  # flush-all on an idle service

    def test_responses_are_read_only(self, shared_pool):
        with InferenceService(pool=shared_pool, max_batch_size=4,
                              max_wait_ms=1.0, cache_capacity=16) as service:
            rng = np.random.default_rng(17)
            image = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
            fresh = service.infer("MicroCNN", image, timeout=WAIT_S)
            hit = service.infer("MicroCNN", image, timeout=WAIT_S)
            for out in (fresh, hit):
                with pytest.raises(ValueError):
                    out[0] = 0.0

    def test_report_fields_and_rendering(self, shared_pool):
        with InferenceService(pool=shared_pool, max_batch_size=4,
                              max_wait_ms=1.0) as service:
            rng = np.random.default_rng(9)
            images = rng.integers(0, 256, size=(5, 8, 8, 3)).astype(np.uint8)
            futures = service.submit_batch("MicroCNN", images)
            [f.result(timeout=WAIT_S) for f in futures]
            report = service.report("MicroCNN")
        assert report.requests == 5
        assert report.latency.count == 5
        assert report.requests_per_s > 0
        record = report.to_record()
        assert record["requests"] == 5
        assert set(record["flush_triggers"]) == {"size", "timeout", "flush", "drain"}
        text = report.table()
        assert "Serving report" in text and "MicroCNN" in text
        assert "latency p99 (ms)" in text
        with pytest.raises(KeyError):
            service.report("VGG16")

    def test_model_names_are_canonicalized(self, shared_pool):
        # "microcnn" and "MicroCNN" must share one scheduler, one set of
        # metrics and one report — not split traffic across two workers.
        with InferenceService(pool=shared_pool, max_batch_size=4,
                              max_wait_ms=1.0, cache_capacity=16) as service:
            rng = np.random.default_rng(21)
            image = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
            service.infer("microcnn", image, timeout=WAIT_S)
            service.infer("MICROCNN", image, timeout=WAIT_S)  # cache hit
            report = service.report("MicroCNN")
            assert report.requests == 2
            assert (report.cache_hits, report.cache_misses) == (1, 1)
            assert report.cache_hit_rate == pytest.approx(0.5)
            assert list(service.reports()) == ["MicroCNN"]

    def test_models_sharing_a_network_name_do_not_share_cache_entries(self):
        # A prod and a canary build of the same architecture wrap networks
        # with identical .name; the response cache must still keep them
        # apart (it is namespaced by pool key, not network name).
        from repro.models import micro_cnn_config
        from repro.models.zoo import build_phonebit_network

        pool = ModelPool()
        prod = build_phonebit_network(micro_cnn_config(), rng=1)
        canary = build_phonebit_network(micro_cnn_config(), rng=2)
        assert prod.name == canary.name  # the hazard under test
        pool.register(prod, name="prod")
        pool.register(canary, name="canary")
        rng = np.random.default_rng(22)
        image = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
        with InferenceService(pool=pool, max_batch_size=4, max_wait_ms=1.0,
                              cache_capacity=16) as service:
            out_prod = service.infer("prod", image, timeout=WAIT_S)
            out_canary = service.infer("canary", image, timeout=WAIT_S)
            assert service.report("canary").cache_hits == 0
        # Different weights: the outputs must differ, proving the canary
        # answer did not come from prod's cache entry.
        assert not np.array_equal(out_prod, out_canary)

    def test_concurrent_clients_one_model(self, shared_pool):
        engine = PhoneBitEngine()
        network = shared_pool.get("MicroCNN")
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, size=(12, 8, 8, 3)).astype(np.uint8)
        reference = np.stack(
            [engine.run(network, images[i:i + 1]).output.data[0]
             for i in range(12)]
        )
        results = {}
        with InferenceService(pool=shared_pool, engine=engine,
                              max_batch_size=4, max_wait_ms=2.0,
                              cache_capacity=0) as service:
            def client(start, stop):
                futures = [
                    (i, service.submit("MicroCNN", images[i]))
                    for i in range(start, stop)
                ]
                for i, future in futures:
                    results[i] = future.result(timeout=WAIT_S)

            threads = [
                threading.Thread(target=client, args=(0, 6)),
                threading.Thread(target=client, args=(6, 12)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WAIT_S)
                assert not thread.is_alive()
        served = np.stack([results[i] for i in range(12)])
        np.testing.assert_array_equal(served, reference)


class TestLoadgen:
    def test_synthetic_images_shapes_and_reuse(self):
        unique = synthetic_images((8, 8, 3), 10, seed=1, unique=True)
        assert unique.shape == (10, 8, 8, 3) and unique.dtype == np.uint8
        tiled = synthetic_images((8, 8, 3), 10, seed=1, unique=False)
        assert tiled.shape == (10, 8, 8, 3)
        # The tiled variant repeats inputs, giving the cache something to hit.
        assert len({t.tobytes() for t in tiled}) < 10

    def test_closed_loop(self, shared_pool):
        with InferenceService(pool=shared_pool, max_batch_size=8,
                              max_wait_ms=2.0, cache_capacity=0) as service:
            images = synthetic_images((8, 8, 3), 8, seed=2)
            result = run_closed_loop(service, "MicroCNN", images)
        assert result.outputs.shape == (8, 10)
        assert result.offered_rps is None
        assert result.achieved_rps > 0
        assert result.report.requests == 8
        assert "closed loop" in result.table()

    def test_open_loop(self, shared_pool):
        with InferenceService(pool=shared_pool, max_batch_size=8,
                              max_wait_ms=2.0, cache_capacity=0) as service:
            images = synthetic_images((8, 8, 3), 6, seed=3)
            result = run_open_loop(service, "MicroCNN", images,
                                   offered_rps=500.0, seed=3)
        assert result.outputs.shape == (6, 10)
        assert result.offered_rps == 500.0
        assert result.report.requests == 6

    def test_open_loop_rejects_bad_rate(self, shared_pool):
        with InferenceService(pool=shared_pool, max_wait_ms=1.0) as service:
            with pytest.raises(ValueError):
                run_open_loop(service, "MicroCNN",
                              synthetic_images((8, 8, 3), 2), offered_rps=0.0)
