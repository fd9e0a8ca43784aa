"""Tests for the cluster transport layer: codec, channels, socket clusters.

The cross-host acceptance gate lives here: a ``ClusterService`` over
``SocketTransport`` (TCP loopback and UDS) must produce bit-identical
outputs to the single-process service over the same published bytes,
survive worker connection loss (reconnect + requeue, futures never hang),
and fetch model bytes through the digest-keyed per-host cache.
"""

import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serving import ClusterService, SharedModelStore
from repro.serving.loadgen import run_closed_loop, synthetic_images
from repro.serving.shm_store import (
    HostModelCache,
    ShmModelHandle,
    artifact_digest,
    attach_model,
    cache_segment_name,
)
from repro.serving.transport import (
    Channel,
    TransportClosed,
    decode_message,
    encode_message,
    format_address,
    parse_address,
)

#: Generous wall-clock bound for any single future in these tests.
WAIT_S = 60.0


def roundtrip(message):
    frame = b"".join(encode_message(message))
    return decode_message(memoryview(frame)[4:])


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------

class TestCodec:
    def test_json_skeleton_roundtrip(self):
        assert roundtrip(("hb", "w3", 12.5)) == ("hb", "w3", 12.5)
        assert roundtrip(("stop",)) == ("stop",)

    def test_array_payload_exact(self):
        rng = np.random.default_rng(0)
        for dtype in (np.uint8, np.int32, np.float32, np.float64):
            arr = rng.integers(0, 200, size=(3, 5, 2)).astype(dtype)
            kind, worker, rid, back = roundtrip(("res", "w0", 9, arr))
            assert (kind, worker, rid) == ("res", "w0", 9)
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_hot_path_request_batch(self):
        images = np.arange(2 * 4 * 4 * 3, dtype=np.uint8).reshape(2, 4, 4, 3)
        message = ("reqs", [(0, "MicroCNN", images[0]),
                            (1, "MicroCNN", images[1])])
        kind, items = roundtrip(message)
        assert kind == "reqs"
        for index, (rid, model, image) in enumerate(items):
            assert (rid, model) == (index, "MicroCNN")
            assert np.array_equal(image, images[index])

    def test_noncontiguous_array_roundtrips(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        assert not arr.flags.c_contiguous
        _, back = roundtrip(("res", arr))
        assert np.array_equal(back, arr)

    def test_pickle_fallback_for_dataclass_skeleton(self):
        from repro.serving.cluster import WorkerConfig

        config = WorkerConfig(max_batch_size=7, max_wait_ms=1.5)
        arr = np.ones((2, 2), dtype=np.float32)
        kind, wid, back_config, back_arr = roundtrip(
            ("welcome", "w1", config, arr))
        assert (kind, wid) == ("welcome", "w1")
        assert back_config == config
        assert np.array_equal(back_arr, arr)

    def test_hostile_pickle_skeleton_rejected(self):
        """The frame decoder must refuse classes outside the allowlist."""
        import pickle

        class Evil:
            def __reduce__(self):
                return (print, ("pwned",))

        frame = b"".join(encode_message(("reports", "w0", 1, Evil())))
        with pytest.raises(pickle.UnpicklingError):
            decode_message(memoryview(frame)[4:])
        # eval/getattr-style builtins gadgets are named explicitly out.
        for gadget in (eval, getattr, print):
            frame = b"".join(encode_message(("x", gadget)))
            with pytest.raises(pickle.UnpicklingError):
                decode_message(memoryview(frame)[4:])

    def test_real_service_report_roundtrips_through_allowlist(self):
        """The allowlist must still admit everything workers actually send."""
        from repro.core.engine import PhoneBitEngine
        from repro.serving.pool import ModelPool
        from repro.serving.service import InferenceService

        pool = ModelPool()
        service = InferenceService(pool=pool, engine=PhoneBitEngine(),
                                   max_batch_size=4, cache_capacity=8)
        try:
            images = synthetic_images((8, 8, 3), 6, seed=9)
            for future in service.submit_batch("MicroCNN", images):
                future.result(timeout=WAIT_S)
            reports = service.reports()
        finally:
            service.close()
        kind, wid, gen, back = roundtrip(("reports", "w0", 3, reports))
        assert (kind, wid, gen) == ("reports", "w0", 3)
        assert back["MicroCNN"].requests == reports["MicroCNN"].requests
        assert (back["MicroCNN"].scheduler.completed
                == reports["MicroCNN"].scheduler.completed)

    def test_decoded_arrays_do_not_copy(self):
        arr = np.zeros((64, 64), dtype=np.uint8)
        frame = b"".join(encode_message(("res", arr)))
        _, back = roundtrip(("res", arr))
        # np.frombuffer views the receive buffer instead of copying.
        assert not back.flags.owndata
        assert len(frame) < arr.nbytes + 256  # raw framing, no pickle blowup


class TestAddresses:
    def test_roundtrip(self):
        assert parse_address("tcp://10.0.0.1:9000") == ("tcp", ("10.0.0.1", 9000))
        assert parse_address("uds:///run/x.sock") == ("uds", "/run/x.sock")
        assert format_address("tcp", ("h", 1)) == "tcp://h:1"

    def test_invalid(self):
        for bad in ("tcp://nohost", "uds://", "http://x:1", "plain"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

class TestChannel:
    def test_duplex_send_recv(self):
        left, right = socket.socketpair()
        a, b = Channel(left), Channel(right)
        try:
            image = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
            a.send(("reqs", [(0, "m", image)]))
            kind, items = b.recv()
            assert kind == "reqs" and np.array_equal(items[0][2], image)
            b.send(("res", "w0", 0, image.astype(np.float64)))
            kind, _, rid, row = a.recv()
            assert (kind, rid) == ("res", 0) and row.dtype == np.float64
        finally:
            a.close()
            b.close()

    def test_many_array_frame_exceeds_iov_max(self):
        """One frame with > UIO_MAXIOV buffers must still send (chunked)."""
        left, right = socket.socketpair()
        a, b = Channel(left), Channel(right)
        try:
            items = [(i, "m", np.full((4,), i % 251, dtype=np.uint8))
                     for i in range(1200)]
            done = []
            t = threading.Thread(target=lambda: (a.send(("reqs", items)),
                                                 done.append(True)))
            t.start()
            kind, back = b.recv()
            t.join(timeout=WAIT_S)
            assert done and kind == "reqs" and len(back) == 1200
            assert all(np.all(img == rid % 251) for rid, _, img in back)
        finally:
            a.close()
            b.close()

    def test_recv_raises_on_peer_close(self):
        left, right = socket.socketpair()
        a, b = Channel(left), Channel(right)
        a.close()
        with pytest.raises(TransportClosed):
            b.recv()
        b.close()

    def test_concurrent_sends_frame_cleanly(self):
        left, right = socket.socketpair()
        a, b = Channel(left), Channel(right)
        try:
            count = 40
            threads = [
                threading.Thread(target=lambda i=i: a.send(
                    ("res", "w0", i, np.full((16,), i, dtype=np.int32))))
                for i in range(count)
            ]
            for t in threads:
                t.start()
            seen = set()
            for _ in range(count):
                _, _, rid, row = b.recv()
                assert np.all(row == rid)  # interleaved frames would corrupt
                seen.add(rid)
            for t in threads:
                t.join()
            assert seen == set(range(count))
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# per-host digest cache
# ---------------------------------------------------------------------------

class TestHostModelCache:
    def _published(self, store):
        from repro.models.zoo import build_phonebit_network, micro_cnn_config

        return store.publish(build_phonebit_network(micro_cnn_config()))

    def test_owner_fast_path_no_fetch(self):
        with SharedModelStore() as store:
            handle = self._published(store)
            with HostModelCache() as cache:
                attached = cache.attach(
                    handle,
                    fetch=lambda: pytest.fail("co-hosted attach must not fetch"),
                )
                assert cache.attach_log[-1][1] == "owner-segment"
                attached.close()

    def test_fetch_once_per_host(self):
        """A 'remote' handle fetches once; co-hosted attaches hit the cache."""
        with SharedModelStore() as store:
            handle = self._published(store)
            raw = bytes(store.payload_view(handle.digest))
            remote = ShmModelHandle(model=handle.model, shm_name="",
                                    nbytes=handle.nbytes, digest=handle.digest)
            fetches = []

            def fetch():
                fetches.append(1)
                return raw

            with HostModelCache() as cache:
                first = cache.attach(remote, fetch=fetch)
                assert cache.attach_log[-1][1] == "fetched"
                # A second worker on the same host: fresh cache object,
                # same digest-named segment.
                with HostModelCache() as cache2:
                    second = cache2.attach(remote, fetch=fetch)
                    assert cache2.attach_log[-1][1] == "host-cache"
                    images = synthetic_images((8, 8, 3), 2, seed=1)
                    assert np.array_equal(first.network(images).data,
                                          second.network(images).data)
                    second.close()
                first.close()
            assert len(fetches) == 1

    def test_concurrent_fetch_ahead_one_round_trip_per_digest(self):
        """Two digests resolving simultaneously on one host (the rollout
        fetch-ahead shape: v1 still attaching on a late worker while v2's
        prepare lands) perform exactly one blob round trip *each*.

        The shm-create claim is the host-global lock: per digest, one
        racer fetches and every other attacher waits on its ready flag.
        A barrier inside the fetch path proves the two digests' round
        trips genuinely overlap rather than serializing.
        """
        from repro.models.zoo import build_phonebit_network, micro_cnn_config

        with SharedModelStore() as store:
            v1 = build_phonebit_network(micro_cnn_config())
            v1.metadata["release"] = "r1"
            v2 = build_phonebit_network(micro_cnn_config())
            v2.metadata["release"] = "r2"
            handles = [store.publish_version(v1), store.publish_version(v2)]
            assert handles[0].digest != handles[1].digest
            payloads = {
                h.digest: bytes(store.payload_view(h.digest))
                for h in handles
            }
            remotes = {
                h.digest: ShmModelHandle(model=h.model, shm_name="",
                                         nbytes=h.nbytes, digest=h.digest)
                for h in handles
            }
            fetch_lock = threading.Lock()
            fetches = {h.digest: 0 for h in handles}
            in_flight = threading.Barrier(2, timeout=WAIT_S)
            start = threading.Barrier(4, timeout=WAIT_S)
            results = {}
            errors = []
            caches = [HostModelCache() for _ in range(4)]

            def worker(slot, digest):
                try:
                    def fetch():
                        with fetch_lock:
                            fetches[digest] += 1
                        in_flight.wait()  # both digests fetching at once
                        return payloads[digest]

                    start.wait()
                    attached = caches[slot].attach(remotes[digest],
                                                   fetch=fetch)
                    try:
                        results[slot] = attached.network(
                            synthetic_images((8, 8, 3), 2, seed=7)).data
                    finally:
                        attached.close()
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append((slot, exc))

            threads = [
                threading.Thread(target=worker,
                                 args=(slot, handles[slot % 2].digest))
                for slot in range(4)
            ]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=WAIT_S)
            finally:
                for cache in caches:
                    cache.close()
            assert not errors, errors
            # Exactly one transport round trip per digest, despite two
            # concurrent attachers each.
            assert fetches == {handles[0].digest: 1, handles[1].digest: 1}
            # Both attachers of each digest computed identical outputs.
            assert np.array_equal(results[0], results[2])
            assert np.array_equal(results[1], results[3])

    def _remote_and_claim(self, store):
        """A 'remote' handle plus an empty /dev/shm file under its cache
        name: a claim caught between the publisher's shm_open and its
        ftruncate."""
        handle = self._published(store)
        remote = ShmModelHandle(model=handle.model, shm_name="",
                                nbytes=handle.nbytes, digest=handle.digest)
        path = f"/dev/shm/{cache_segment_name(handle.digest)}"
        open(path, "xb").close()
        return remote, bytes(store.payload_view(handle.digest)), path

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_unsized_claim_is_waited_for_not_fatal(self):
        with SharedModelStore() as store:
            remote, raw, path = self._remote_and_claim(store)

            def finish_publish():
                time.sleep(0.1)
                with open(path, "r+b", buffering=0) as segment:
                    segment.truncate(remote.nbytes + 1)
                    segment.write(raw)
                    segment.write(b"\x01")  # ready flag, after the payload

            publisher = threading.Thread(target=finish_publish)
            publisher.start()
            try:
                with HostModelCache() as cache:
                    attached = cache.attach(remote, fetch=lambda: pytest.fail(
                        "a claimed digest must be waited for, not re-fetched"))
                    assert cache.attach_log[-1][1] == "host-cache"
                    attached.close()
            finally:
                publisher.join(timeout=WAIT_S)
                os.unlink(path)
            assert not publisher.is_alive()

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_unsized_claim_of_dead_publisher_is_reclaimed(self):
        with SharedModelStore() as store:
            remote, raw, path = self._remote_and_claim(store)
            fetches = []

            def fetch():
                fetches.append(1)
                return raw

            with HostModelCache(ready_timeout_s=0.2) as cache:
                attached = cache.attach(remote, fetch=fetch)
                assert cache.attach_log[-1][1] == "fetched"
                attached.close()
            assert fetches == [1]
            assert not os.path.exists(path)  # the cache's own copy is gone

    def test_fetch_digest_mismatch_rejected(self):
        with SharedModelStore() as store:
            handle = self._published(store)
            remote = ShmModelHandle(model=handle.model, shm_name="",
                                    nbytes=handle.nbytes, digest=handle.digest)
            with HostModelCache() as cache:
                with pytest.raises(ValueError):
                    cache.attach(remote, fetch=lambda: b"x" * handle.nbytes)

    def test_no_source_raises(self):
        handle = ShmModelHandle(model="m", shm_name="", nbytes=4,
                                digest=artifact_digest(b"none"))
        with HostModelCache() as cache:
            with pytest.raises(FileNotFoundError):
                cache.attach(handle, fetch=None)


# ---------------------------------------------------------------------------
# socket clusters (the cross-host path, on loopback)
# ---------------------------------------------------------------------------

def make_socket_cluster(transport, **kwargs):
    kwargs.setdefault("models", ("MicroCNN",))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("heartbeat_timeout_s", 5.0)
    return ClusterService(transport=transport, **kwargs)


class TestSocketCluster:
    @pytest.mark.parametrize("transport", ["uds", "tcp"])
    def test_bit_identical_to_single_process(self, transport):
        with make_socket_cluster(transport) as cluster:
            images = synthetic_images((8, 8, 3), 48, seed=0)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            run = run_closed_loop(cluster, "MicroCNN", images)
            assert np.array_equal(run.outputs, base.outputs)
            detail = cluster.cluster_report()
            assert detail.workers == 2
            served = sum(
                wr["MicroCNN"].requests for wr in detail.worker_reports.values()
                if "MicroCNN" in wr
            )
            assert served == images.shape[0]

    def test_forced_digest_fetch_bit_identical(self, monkeypatch):
        """Workers that cannot see the owner's segment fetch over the wire."""
        monkeypatch.setenv("REPRO_CLUSTER_FORCE_FETCH", "1")
        with make_socket_cluster("tcp", workers=2) as cluster:
            images = synthetic_images((8, 8, 3), 24, seed=2)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            run = run_closed_loop(cluster, "MicroCNN", images)
            assert np.array_equal(run.outputs, base.outputs)

    def test_connection_loss_requeues_and_readmits(self):
        """Link death ≠ process death: requeue now, re-admit on reconnect."""
        with make_socket_cluster("tcp") as cluster:
            images = synthetic_images((8, 8, 3), 32, seed=3)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            victim = next(iter(cluster._workers.values()))
            victim.endpoint.channel.close()  # sever the link only
            outputs = [f.result(timeout=WAIT_S) for f in futures]
            assert len(outputs) == 32
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            assert np.array_equal(np.stack(outputs), base.outputs)
            # The disconnected worker's process is alive and dials back in.
            deadline = time.time() + WAIT_S
            while time.time() < deadline:
                with cluster._lock:
                    ready = sum(1 for w in cluster._workers.values() if w.ready)
                if ready >= 2:
                    break
                time.sleep(0.05)
            assert ready >= 2
            assert cluster.cluster_report().respawns >= 1

    def test_worker_process_kill_respawns(self):
        """A dead worker process is respawned via the cluster-worker CLI."""
        with make_socket_cluster("uds", heartbeat_timeout_s=2.0) as cluster:
            images = synthetic_images((8, 8, 3), 24, seed=4)
            futures = [cluster.submit("MicroCNN", img) for img in images]
            victim = next(iter(cluster._workers.values()))
            victim.endpoint.process.kill()
            outputs = [f.result(timeout=WAIT_S) for f in futures]
            assert len(outputs) == 24
            deadline = time.time() + WAIT_S
            while time.time() < deadline:
                with cluster._lock:
                    ready = sum(1 for w in cluster._workers.values() if w.ready)
                if ready >= 2:
                    break
                time.sleep(0.05)
            assert ready >= 2

    def test_external_worker_registration(self, tmp_path):
        """The two-terminal topology: worker starts first, router later."""
        address = f"uds://{tmp_path}/router.sock"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster-worker",
             "--connect", address, "--retry-s", "60"],
            env=env,
        )
        try:
            cluster = ClusterService(
                models=("MicroCNN",), workers=0, expect_workers=1,
                transport="uds", bind=address, max_batch_size=16,
            )
            try:
                images = synthetic_images((8, 8, 3), 16, seed=5)
                baseline = cluster.baseline_service()
                try:
                    base = run_closed_loop(baseline, "MicroCNN", images)
                finally:
                    baseline.close()
                run = run_closed_loop(cluster, "MicroCNN", images)
                assert np.array_equal(run.outputs, base.outputs)
            finally:
                cluster.close()
            assert worker.wait(timeout=WAIT_S) == 0  # graceful stop → exit 0
        finally:
            if worker.poll() is None:
                worker.kill()

    def test_external_worker_link_loss_gets_reconnect_grace(self, tmp_path):
        """A lone external worker's link blip must not fail futures: work
        parks for reconnect_grace_s and the redialing worker serves it."""
        address = f"uds://{tmp_path}/grace.sock"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster-worker",
             "--connect", address, "--retry-s", "60"],
            env=env,
        )
        try:
            cluster = ClusterService(
                models=("MicroCNN",), workers=0, expect_workers=1,
                transport="uds", bind=address, max_batch_size=16,
                reconnect_grace_s=30.0,
            )
            try:
                images = synthetic_images((8, 8, 3), 16, seed=8)
                futures = [cluster.submit("MicroCNN", img) for img in images]
                victim = next(iter(cluster._workers.values()))
                victim.endpoint.channel.close()  # link blip, process alive
                outputs = [f.result(timeout=WAIT_S) for f in futures]
                assert len(outputs) == 16
                baseline = cluster.baseline_service()
                try:
                    base = run_closed_loop(baseline, "MicroCNN", images)
                finally:
                    baseline.close()
                assert np.array_equal(np.stack(outputs), base.outputs)
            finally:
                cluster.close()
            assert worker.wait(timeout=WAIT_S) == 0
        finally:
            if worker.poll() is None:
                worker.kill()

    def test_worker_cli_times_out_without_router(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster-worker",
             "--connect", "tcp://127.0.0.1:9", "--retry-s", "0.2"],
            env=env, capture_output=True, text=True, timeout=WAIT_S,
        )
        assert result.returncode == 1
