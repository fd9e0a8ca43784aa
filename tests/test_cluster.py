"""Tests for the sharded serving cluster: shm store, router, ClusterService."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.model_format import (
    load_network_from_buffer,
    serialize_network,
)
from repro.models.zoo import build_phonebit_network, micro_cnn_config
from repro.serving import (
    AutoscaleConfig,
    ClusterOverloadError,
    ClusterService,
    FaultPlan,
    RetryPolicy,
    SharedModelStore,
)
from repro.serving.faults import FaultRule
from repro.serving.loadgen import run_closed_loop, synthetic_images
from repro.serving.router import LeastOutstandingRouter
from repro.serving.shm_store import attach_model

#: Generous wall-clock bound for any single future in these tests.
WAIT_S = 60.0


def micro_network(rng=0):
    return build_phonebit_network(micro_cnn_config(), rng=rng)


def wait_until(predicate, timeout_s=WAIT_S, poll_s=0.01):
    """Poll ``predicate`` until it holds; returns its last value."""
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(poll_s)
    return predicate()


# ---------------------------------------------------------------------------
# shared-memory model store
# ---------------------------------------------------------------------------

class TestSharedModelStore:
    def test_attach_is_zero_copy_and_read_only(self):
        network = micro_network()
        with SharedModelStore() as store:
            handle = store.publish(network)
            attached = attach_model(handle)
            for layer in attached.network.layers:
                packed = getattr(layer, "weights_packed", None)
                if packed is None:
                    continue
                assert not packed.flags.owndata  # view into the segment
                assert not packed.flags.writeable
            attached.close()

    def test_attached_outputs_bit_identical_to_copy_load(self):
        network = micro_network()
        raw = serialize_network(network)
        copied = load_network_from_buffer(raw)
        images = synthetic_images(network.input_shape, 4, seed=3)
        with SharedModelStore() as store:
            handle = store.publish(network)
            attached = attach_model(handle)
            out_shm = attached.network(images).data
            out_copy = copied(images).data
            assert np.array_equal(out_shm, out_copy)
            attached.close()

    def test_publish_twice_rejected(self):
        with SharedModelStore() as store:
            store.publish(micro_network(), name="m")
            with pytest.raises(ValueError):
                store.publish(micro_network(), name="m")

    def test_close_unlinks_segments(self):
        store = SharedModelStore()
        handle = store.publish(micro_network())
        store.close()
        with pytest.raises(FileNotFoundError):
            attach_model(handle)
        store.close()  # idempotent

    def test_attacher_death_does_not_unlink(self):
        """A crashed attacher must not tear the store down for survivors."""
        with SharedModelStore() as store:
            handle = store.publish(micro_network())

            def _attach_and_die(h):
                from repro.serving.shm_store import attach_model as attach

                attach(h)
                os._exit(1)  # hard death: no cleanup, no atexit

            ctx = multiprocessing.get_context()
            proc = ctx.Process(target=_attach_and_die, args=(handle,))
            proc.start()
            proc.join(timeout=WAIT_S)
            assert proc.exitcode == 1
            time.sleep(0.2)  # give any (wrong) tracker cleanup a chance
            attached = attach_model(handle)  # still there
            assert attached.network.name == "MicroCNN"
            attached.close()

    def test_owner_exit_without_close_reclaims_segments(self):
        """The GC finalizer unlinks segments when close() was never called."""
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.models.zoo import build_phonebit_network, micro_cnn_config\n"
            "from repro.serving.shm_store import SharedModelStore\n"
            "store = SharedModelStore()\n"
            "handle = store.publish(build_phonebit_network(micro_cnn_config()))\n"
            "print(handle.shm_name)\n"
            # no store.close(): interpreter teardown must reclaim
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=WAIT_S, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert result.returncode == 0, result.stderr
        shm_name = result.stdout.strip().splitlines()[-1]
        assert not os.path.exists(f"/dev/shm/{shm_name}")

    def test_owner_sigkill_reclaims_segments(self):
        """The resource tracker unlinks a SIGKILLed owner's segments."""
        code = (
            "import os, signal, sys; sys.path.insert(0, 'src')\n"
            "from repro.models.zoo import build_phonebit_network, micro_cnn_config\n"
            "from repro.serving.shm_store import SharedModelStore\n"
            "store = SharedModelStore()\n"
            "handle = store.publish(build_phonebit_network(micro_cnn_config()))\n"
            "print(handle.shm_name, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=WAIT_S, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        shm_name = result.stdout.strip().splitlines()[-1]
        assert wait_until(
            lambda: not os.path.exists(f"/dev/shm/{shm_name}"), timeout_s=5.0)

    def test_tracker_quiet_after_attacher_exit_and_cache_fetch(self):
        """Attachers never reach the resource tracker; creators balance it."""
        code = (
            "import os, sys; sys.path.insert(0, 'src')\n"
            "from repro.models.zoo import build_phonebit_network, micro_cnn_config\n"
            "from repro.serving.shm_store import (\n"
            "    HostModelCache, SharedModelStore, ShmModelHandle, attach_model)\n"
            "store = SharedModelStore()\n"
            "handle = store.publish(build_phonebit_network(micro_cnn_config()))\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    attach_model(handle)\n"
            "    os._exit(1)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1\n"
            "remote = ShmModelHandle(handle.model, '', handle.nbytes, handle.digest)\n"
            "cache = HostModelCache()\n"
            "attached = cache.attach(\n"
            "    remote, fetch=lambda: bytes(store.payload_view(handle.digest)))\n"
            "assert cache.attach_log == [(handle.digest, 'fetched')]\n"
            "attached.close()\n"
            "cache.close()\n"
            "store.close()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=WAIT_S, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr
        assert "leaked shared_memory" not in result.stderr

    def test_missing_tmpfs_is_a_typed_error(self, monkeypatch):
        from repro.serving import shm_store

        monkeypatch.setattr(shm_store, "_SHM_DIR", "/nonexistent/shm")
        for owner in (shm_store.SharedModelStore, shm_store.HostModelCache):
            with pytest.raises(shm_store.ShmUnavailableError) as raised:
                owner()
            assert isinstance(raised.value, OSError)


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------

class TestLeastOutstandingRouter:
    def test_least_outstanding_wins(self):
        router = LeastOutstandingRouter(max_outstanding=8)
        router.add_worker("a")
        router.add_worker("b")
        first = router.acquire("m")
        assert router.acquire("m") != first  # 0 outstanding beats 1

    def test_consistent_tie_break_is_stable_per_model(self):
        router = LeastOutstandingRouter(max_outstanding=8)
        for worker in ("a", "b", "c"):
            router.add_worker(worker)
        picks = set()
        for _ in range(5):
            worker = router.acquire("model-x")
            picks.add(worker)
            router.release(worker)  # back to all-zero: pure tie-break
        assert len(picks) == 1  # same winner every time

    def test_admission_bound_sheds(self):
        router = LeastOutstandingRouter(max_outstanding=1)
        router.add_worker("a")
        assert router.acquire("m") == "a"
        assert router.acquire("m") is None
        assert router.stats().shed == 1
        assert router.acquire("m", force=True) == "a"  # requeue path ignores bound

    def test_release_for_removed_worker_is_noop(self):
        router = LeastOutstandingRouter(max_outstanding=2)
        router.add_worker("a")
        assert router.acquire("m") == "a"
        assert router.remove_worker("a") == 1
        router.release("a")  # must not crash or resurrect the worker
        assert router.workers() == []

    def test_retry_after_positive(self):
        router = LeastOutstandingRouter(max_outstanding=4)
        router.add_worker("a")
        assert router.retry_after_s(2.0) > 0


# ---------------------------------------------------------------------------
# cluster service
# ---------------------------------------------------------------------------

def make_cluster(**kwargs):
    kwargs.setdefault("models", ("MicroCNN",))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    return ClusterService(**kwargs)


class TestClusterService:
    def test_outputs_bit_identical_to_single_process_service(self):
        with make_cluster() as cluster:
            images = synthetic_images((8, 8, 3), 48, seed=0)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            run = run_closed_loop(cluster, "MicroCNN", images)
            assert np.array_equal(run.rows(), base.rows())
            report = run.report
            assert report.requests == images.shape[0]
            assert report.scheduler.completed == images.shape[0]

    def test_report_aggregates_all_workers(self):
        with make_cluster() as cluster:
            images = synthetic_images((8, 8, 3), 40, seed=1)
            for future in cluster.submit_batch("microcnn", images):
                future.result(timeout=WAIT_S)
            report = cluster.report("MicroCNN")
            assert report.requests == 40
            assert report.latency.count == 40
            detail = cluster.cluster_report()
            assert detail.workers == 2
            assert set(detail.worker_reports) == {"w0", "w1"}
            per_worker = sum(
                wr["MicroCNN"].requests for wr in detail.worker_reports.values()
                if "MicroCNN" in wr
            )
            assert per_worker == 40  # every request landed on some worker

    def test_late_report_reply_is_dropped(self):
        with make_cluster(workers=1) as cluster:
            (worker,) = cluster._workers.values()
            worker.endpoint.send(("stall", 1.0))
            time.sleep(0.1)  # let the stall take hold
            assert cluster.worker_reports(timeout=0.2) == {}
            # The channel is FIFO: once the next poll is answered, the
            # stalled worker's late reply to the first one has arrived.
            assert set(cluster.worker_reports(timeout=WAIT_S)) == {"w0"}
            with cluster._lock:
                assert cluster._report_inbox == {}

    def test_worker_crash_respawns_and_requeues(self):
        with make_cluster(heartbeat_timeout_s=2.0) as cluster:
            images = synthetic_images((8, 8, 3), 32, seed=2)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            victim = next(iter(cluster._workers.values()))
            os.kill(victim.pid, signal.SIGKILL)
            outputs = [f.result(timeout=WAIT_S) for f in futures]
            assert len(outputs) == 32
            # The death may surface as a lost link before the OS reaps the
            # process; the respawn then lands a supervisor tick later and
            # the replacement joins on its hello.
            def replaced():
                detail = cluster.cluster_report()
                return detail.respawns == 1 and detail.workers == 2

            assert wait_until(replaced)
            # Requeued work reran elsewhere: results still bit-identical.
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            assert np.array_equal(np.stack(outputs), base.rows())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc to list a worker's descriptors")
    def test_forked_worker_drops_router_sockets_and_sibling_redials(self):
        """A worker forked after its siblings connected holds none of the
        router's sockets (a copy would keep a sibling's link open past the
        router's close), and a sibling whose link the router drops redials
        and is re-admitted promptly."""
        with make_cluster(workers=2) as cluster:
            assert cluster.scale_up(1) == 1

            def ready_workers():
                with cluster._lock:
                    return [w for w in cluster._workers.values() if w.ready]

            assert wait_until(lambda: len(ready_workers()) == 3)
            by_join = sorted(ready_workers(), key=lambda w: w.spawned_at)
            victim, sibling = by_join[0], by_join[-1]
            router_sockets = {
                f"socket:[{os.fstat(sock.fileno()).st_ino}]"
                for sock in list(cluster.transport._router_sockets)
                if sock.fileno() >= 0
            }
            fd_dir = f"/proc/{sibling.pid}/fd"
            held = {os.readlink(os.path.join(fd_dir, fd))
                    for fd in os.listdir(fd_dir)}
            assert not router_sockets & held

            victim.endpoint.channel.close()
            assert wait_until(lambda: any(
                w.pid == victim.pid and w.worker_id != victim.worker_id
                for w in ready_workers()), timeout_s=2.0)

    def test_no_replacement_left_fails_futures_instead_of_hanging(self):
        """Orphaned requests must resolve even when every respawn dies too."""
        from repro.serving import WorkerCrashError

        with make_cluster(workers=1, max_respawns=1,
                          heartbeat_timeout_s=1.0) as cluster:
            images = synthetic_images((8, 8, 3), 16, seed=6)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            first = next(iter(cluster._workers.values()))
            os.kill(first.pid, signal.SIGKILL)
            # Kill the replacement as soon as it exists — possibly before it
            # is ready, which is exactly the window where requeued work sits
            # parked waiting for it.
            deadline = time.time() + WAIT_S
            while time.time() < deadline:
                with cluster._lock:
                    replacement = next(
                        (w for w in cluster._workers.values()
                         if w.worker_id != first.worker_id), None)
                if replacement is not None:
                    replacement.endpoint.kill()
                    break
                time.sleep(0.005)
            # Every future must resolve — with a result (served before a
            # kill landed) or WorkerCrashError — never hang.
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=WAIT_S))
                except WorkerCrashError:
                    outcomes.append(None)
            assert len(outcomes) == 16

    def test_overload_sheds_with_retry_after(self):
        with make_cluster(workers=1, max_batch_size=2,
                          max_outstanding=2) as cluster:
            images = synthetic_images((8, 8, 3), 32, seed=3)
            shed = None
            accepted = []
            for img in images:
                try:
                    accepted.append(cluster.submit("MicroCNN", img, block=False))
                except ClusterOverloadError as exc:
                    shed = exc
                    break
            assert shed is not None, "tiny admission window must shed a burst"
            assert shed.retry_after_s > 0
            for future in accepted:
                future.result(timeout=WAIT_S)  # accepted work still completes

    def test_blocking_submit_applies_backpressure_not_errors(self):
        with make_cluster(workers=1, max_batch_size=4, max_outstanding=4) as cluster:
            images = synthetic_images((8, 8, 3), 64, seed=4)
            futures = cluster.submit_batch("MicroCNN", images)
            outputs = [f.result(timeout=WAIT_S) for f in futures]
            assert len(outputs) == 64

    def test_unknown_model_raises(self):
        with make_cluster(workers=1) as cluster:
            with pytest.raises(KeyError):
                cluster.submit("NoSuchNet", np.zeros((8, 8, 3), dtype=np.uint8))

    def test_submit_after_close_raises(self):
        cluster = make_cluster(workers=1)
        cluster.close()
        with pytest.raises(RuntimeError):
            cluster.submit("MicroCNN", np.zeros((8, 8, 3), dtype=np.uint8))
        cluster.close()  # idempotent

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_context_worker(self):
        with make_cluster(workers=1, mp_context="spawn",
                          startup_timeout_s=180.0) as cluster:
            image = synthetic_images((8, 8, 3), 1, seed=5)[0]
            out = cluster.infer("MicroCNN", image, timeout=WAIT_S)
            assert out.shape == (10,)


# ---------------------------------------------------------------------------
# thread inventory (docs/architecture.md, "Threads")
# ---------------------------------------------------------------------------

class TestThreadInventory:
    def test_front_end_runs_the_inventoried_threads_and_close_ends_them(self):
        """Autoscaling, a fault plan and retries add no thread: the front
        end runs its accept thread, its one control thread and a reader
        per worker (plus a short-lived handshake per connection)."""
        before = set(threading.enumerate())
        plan = FaultPlan([
            FaultRule(kind="stall", at_s=600.0, duration_s=0.1),
            FaultRule(kind="delay", duration_s=600.0, probability=0.5,
                      delay_s=0.01),
        ], seed=0)

        def ours():
            return sorted(thread.name for thread in threading.enumerate()
                          if thread not in before)

        cluster = make_cluster(
            workers=2, autoscale=AutoscaleConfig(min_workers=2, max_workers=3),
            retry=RetryPolicy(), faults=plan)
        try:
            images = synthetic_images((8, 8, 3), 16, seed=9)
            for future in cluster.submit_batch("MicroCNN", images):
                future.result(timeout=WAIT_S)
            assert wait_until(lambda: "cluster-handshake" not in ours())
            assert ours() == ["cluster-accept", "cluster-control",
                              "cluster-read-w0", "cluster-read-w1"]
        finally:
            cluster.close()
        assert ours() == []
