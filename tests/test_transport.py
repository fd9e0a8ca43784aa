"""Tests for the cluster transport layer: codec, channels, socket clusters.

The cross-host acceptance gate lives here: a ``ClusterService`` over
``SocketTransport`` (TCP loopback and UDS) must produce bit-identical
outputs to the single-process service over the same published bytes,
survive worker connection loss (reconnect + requeue, futures never hang),
and fetch model bytes through the digest-keyed per-host cache.
"""

import fcntl
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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

    def test_welcome_config_roundtrips(self):
        """``welcome`` carries the config as plain data, rebuilt exactly."""
        from repro.serving.cluster import WorkerConfig

        config = WorkerConfig(max_batch_size=7, chunk_bytes=None,
                              backend="numpy")
        manifest = [("MicroCNN", "ab" * 32, 1024, "repro-seg")]
        kind, wid, back_manifest, back_config = roundtrip(
            ("welcome", "w1", manifest, asdict(config)))
        assert (kind, wid) == ("welcome", "w1")
        assert back_manifest == (tuple(manifest[0]),)
        assert WorkerConfig(**back_config) == config

    def test_hostile_pickle_skeleton_rejected(self):
        """No frame is ever unpickled, and nothing is pickled to send."""
        import pickle

        class Evil:
            def __reduce__(self):
                return (print, ("pwned",))

        # The retired pickle-skeleton frame: codec byte 1, no arrays.
        skeleton = pickle.dumps(("reports", "w0", 1, Evil()))
        body = struct.pack("<BHI", 1, 0, len(skeleton)) + skeleton
        with pytest.raises(ValueError):
            decode_message(memoryview(body))
        for unsendable in (Evil(), object(), print, lambda: None):
            with pytest.raises(TypeError):
                encode_message(("reports", "w0", 1, unsendable))

    def test_real_service_report_roundtrips(self):
        """A worker's ``reports`` payload rebuilds the very same reports."""
        from repro.core.engine import PhoneBitEngine
        from repro.serving.pool import ModelPool
        from repro.serving.service import InferenceService, ServiceReport

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
        records = {model: report.to_dict() for model, report in reports.items()}
        kind, wid, gen, back = roundtrip(("reports", "w0", 3, records))
        assert (kind, wid, gen) == ("reports", "w0", 3)
        assert reports["MicroCNN"].scheduler.batches
        assert {model: ServiceReport.from_dict(record)
                for model, record in back.items()} == reports

    def test_malformed_bodies_raise_value_error(self):
        frame = b"".join(encode_message(
            ("res", "w0", 1, np.arange(6, dtype=np.float32).reshape(2, 3))))
        body = frame[4:]
        for malformed in (b"", b"\x01", body[:-1], body + b"\x00",
                          body.replace(b"<f4", b"<q9"),  # unknown dtype
                          body.replace(b'"res"', b'{res"')):  # bad JSON
            with pytest.raises(ValueError):
                decode_message(memoryview(malformed))

    def test_decoded_arrays_do_not_copy(self):
        arr = np.zeros((64, 64), dtype=np.uint8)
        frame = b"".join(encode_message(("res", arr)))
        _, back = roundtrip(("res", arr))
        # np.frombuffer views the receive buffer instead of copying.
        assert not back.flags.owndata
        assert len(frame) < arr.nbytes + 256  # raw framing, no pickle blowup


def _fuzz_seed_bodies():
    """Valid ``reqs`` / ``res`` / ``welcome`` / ``reports`` frame bodies."""
    from repro.serving.cache import CacheStats
    from repro.serving.cluster import WorkerConfig
    from repro.serving.metrics import LatencySummary
    from repro.serving.scheduler import BatchRecord, SchedulerStats
    from repro.serving.service import ServiceReport

    images = np.arange(2 * 4 * 4 * 3, dtype=np.uint8).reshape(2, 4, 4, 3)
    report = ServiceReport(
        model="MicroCNN", device="cpu", duration_s=0.5, requests=3,
        cache_hits=1, cache_misses=2,
        latency=LatencySummary(3, 1.5, 1.0, 2.0, 2.5, 3.0),
        scheduler=SchedulerStats(
            submitted=2, completed=2, failed=0, batch_count=2,
            batched_requests=2, trigger_counts={"size": 0, "idle": 2, "drain": 0},
            batches=[BatchRecord(1, 1, "idle", 0.25, False, 0.0),
                     BatchRecord(1, 0, "idle", 0.5, False, 0.1)],
            max_queue_depth=1),
        cache=CacheStats(hits=1, misses=2, evictions=0, size=2, capacity=8),
    )
    messages = [
        ("reqs", [(0, "MicroCNN", images[0], ""), (1, "MicroCNN", images[1], "ab")]),
        ("res", "w0", 7, np.linspace(-1.0, 1.0, 10, dtype=np.float32)),
        ("welcome", "w0", [("MicroCNN", "cd" * 32, 4096, "repro-x")],
         asdict(WorkerConfig())),
        ("reports", "w0", 2, {"MicroCNN": report.to_dict()}),
    ]
    return [b"".join(encode_message(m))[4:] for m in messages]


FUZZ_SEED_BODIES = _fuzz_seed_bodies()


@st.composite
def mutated_bodies(draw):
    """A valid frame body with bytes flipped, cut off or appended."""
    body = bytearray(draw(st.sampled_from(FUZZ_SEED_BODIES)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "truncate", "extend")))
        if op == "flip" and body:
            index = draw(st.integers(0, len(body) - 1))
            body[index] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del body[draw(st.integers(0, len(body))):]
        else:
            body += draw(st.binary(min_size=1, max_size=16))
    return bytes(body)


class TestDecoderFuzz:
    def test_seed_bodies_decode(self):
        for body in FUZZ_SEED_BODIES:
            assert decode_message(memoryview(body))[0] in (
                "reqs", "res", "welcome", "reports")

    @given(body=mutated_bodies())
    # np.dtype literal-evals these dtype strings: SyntaxError, not TypeError.
    @example(body=b"\x01\x00\x03,f1\x00\x00\x00\x00\x00")
    @example(body=b"\x02\x00\x03|01\x03\x04\x00\x00")
    def test_mutated_body_decodes_or_raises_value_error(self, body):
        """Any other exception would kill a reader thread, not a link."""
        try:
            decode_message(memoryview(body))
        except ValueError:
            pass


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

        The ``.part`` flock claim is the host-global lock: per digest, one
        racer fetches and every other attacher waits on that lock.
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

    def _remote(self, store):
        """A 'remote' handle (no owner segment to attach), its payload and
        its cache segment's path."""
        handle = self._published(store)
        remote = ShmModelHandle(model=handle.model, shm_name="",
                                nbytes=handle.nbytes, digest=handle.digest)
        path = f"/dev/shm/{cache_segment_name(handle.digest)}"
        return remote, bytes(store.payload_view(handle.digest)), path

    def test_held_claim_is_waited_for_not_refetched(self):
        with SharedModelStore() as store:
            remote, raw, path = self._remote(store)
            # Another worker's claim, held while it "fetches".
            fd = os.open(path + ".part", os.O_RDWR | os.O_CREAT, 0o600)
            fcntl.flock(fd, fcntl.LOCK_EX)

            def finish_publish():
                try:
                    time.sleep(0.1)
                    os.write(fd, raw)
                    os.link(path + ".part", path)
                    os.unlink(path + ".part")
                finally:
                    os.close(fd)  # releases the claim

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
            assert not os.path.exists(path + ".part")

    def test_killed_claimant_is_reclaimed_at_once(self):
        with SharedModelStore() as store:
            remote, raw, path = self._remote(store)
            claimant = subprocess.Popen(
                [sys.executable, "-c",
                 "import fcntl, os, sys\n"
                 f"fd = os.open({path + '.part'!r}, os.O_RDWR | os.O_CREAT)\n"
                 "fcntl.flock(fd, fcntl.LOCK_EX)\n"
                 f"os.write(fd, bytes({len(raw) // 2}))\n"
                 "print('claimed', flush=True)\n"
                 "sys.stdin.read()\n"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            fetches, done = [], {}

            def fetch():
                fetches.append(1)
                return raw

            def waiter():
                done["attached"] = cache.attach(remote, fetch=fetch)
                done["at"] = time.monotonic()

            try:
                assert claimant.stdout.readline() == "claimed\n"
                with HostModelCache() as cache:
                    thread = threading.Thread(target=waiter)
                    thread.start()
                    time.sleep(0.2)
                    assert thread.is_alive() and not fetches  # blocked on it
                    claimant.kill()  # SIGKILL with half the payload written
                    killed_at = time.monotonic()
                    thread.join(timeout=WAIT_S)
                    assert not thread.is_alive()
                    assert done["at"] - killed_at < 1.0
                    assert cache.attach_log[-1][1] == "fetched"
                    done["attached"].close()
            finally:
                claimant.kill()
                claimant.wait(timeout=WAIT_S)
                claimant.stdin.close()
                claimant.stdout.close()
            assert fetches == [1]
            assert not os.path.exists(path + ".part")
            assert not os.path.exists(path)  # the cache's own copy is gone

    def test_wrong_sized_file_at_digest_name_is_replaced(self):
        with SharedModelStore() as store:
            remote, raw, path = self._remote(store)
            # Empty (never sized) and one byte long (the old ready-byte layout).
            for stale in (b"", raw + b"\x01"):
                with open(path, "xb") as handle:
                    handle.write(stale)
                fetches = []
                try:
                    with HostModelCache() as cache:
                        attached = cache.attach(
                            remote, fetch=lambda: fetches.append(1) or raw)
                        assert cache.attach_log == [(remote.digest, "fetched")]
                        assert bytes(attached.segment.buf) == raw
                        attached.close()
                finally:
                    if os.path.exists(path) and os.path.getsize(path) == len(stale):
                        os.unlink(path)  # never replaced: leave no trace
                assert fetches == [1]
                assert not os.path.exists(path)

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


class TestWorkerSession:
    def test_stop_answers_bye_without_a_reports_frame(self):
        """``stop`` drains and says ``bye``; nothing is left for the router
        to decode at close."""
        from repro.serving.cluster import WorkerConfig
        from repro.serving.transport import _serve_session

        left, right = socket.socketpair()
        router, worker = Channel(left), Channel(right)
        # No heartbeat inside the test's window: only session frames.
        config = asdict(WorkerConfig(heartbeat_interval_s=WAIT_S))
        outcome = []
        session = threading.Thread(target=lambda: outcome.append(
            _serve_session(worker, ("welcome", "w0", (), config), None, {},
                           None, log=lambda _line: None)))
        session.start()
        try:
            kinds = [router.recv()[0]]
            router.send(("stop",))
            session.join(timeout=WAIT_S)
            worker.close()
            while True:
                try:
                    kinds.append(router.recv()[0])
                except TransportClosed:
                    break
        finally:
            router.close()
            worker.close()
        assert outcome == ["stop"]
        assert kinds == ["ready", "bye"]

    @staticmethod
    def _listener():
        """A plain UDS listener (no router behind it) and its address."""
        path = os.path.join(tempfile.gettempdir(),
                            f"repro-test-{uuid.uuid4().hex[:8]}.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(16)
        return server, path

    def test_stop_during_artifact_fetch_stops_the_worker(self):
        """A ``stop`` answering the manifest's ``fetch`` ends the worker
        with code 0; it does not take the stop for a lost link and redial."""
        from repro.serving.cluster import WorkerConfig
        from repro.serving.transport import run_cluster_worker

        server, path = self._listener()
        config = asdict(WorkerConfig(heartbeat_interval_s=WAIT_S))
        # An artifact no host cache holds, with no owner segment: fetched.
        manifest = [("MicroCNN", uuid.uuid4().hex * 2, 64, "")]
        seen = []

        def router():
            conn, _ = server.accept()
            server.close()  # a second dial is refused
            channel = Channel(conn)
            try:
                seen.append(channel.recv()[0])
                channel.send(("welcome", "w0", manifest, config))
                seen.append(channel.recv()[0])
                channel.send(("stop",))
                while True:
                    seen.append(channel.recv()[0])
            except TransportClosed:
                pass
            finally:
                channel.close()

        thread = threading.Thread(target=router, daemon=True)
        thread.start()
        try:
            code = run_cluster_worker(format_address("uds", path),
                                      retry_s=0.5, log=lambda _line: None)
            thread.join(timeout=WAIT_S)
        finally:
            server.close()
            os.unlink(path)
        assert not thread.is_alive()
        assert code == 0
        assert seen == ["hello", "fetch"]

    def test_dials_without_welcome_spend_one_retry_budget(self):
        """A listener that accepts and drops every link before ``welcome``
        (a closed cluster) is redialled every poll interval until
        ``retry_s`` is spent, not in a tight loop."""
        from repro.serving.transport import _DIAL_POLL_S, run_cluster_worker

        retry_s = 0.5
        max_dials = round(retry_s / _DIAL_POLL_S) + 1
        server, path = self._listener()
        server.settimeout(0.05)
        dials = [0]
        done = threading.Event()

        def accept_and_close():
            # A runaway loop meets a refused dial after 10x the bound, so
            # it fails this test instead of spinning forever.
            while not done.is_set() and dials[0] < 10 * max_dials:
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                dials[0] += 1
                conn.close()
            server.close()

        thread = threading.Thread(target=accept_and_close, daemon=True)
        thread.start()
        try:
            t0 = time.monotonic()
            code = run_cluster_worker(format_address("uds", path),
                                      retry_s=retry_s, log=lambda _line: None)
            elapsed = time.monotonic() - t0
        finally:
            done.set()
            thread.join(timeout=WAIT_S)
            os.unlink(path)
        assert not thread.is_alive()
        assert code == 1
        assert 1 <= dials[0] <= max_dials
        assert elapsed < retry_s + 0.5


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
            assert np.array_equal(run.rows(), base.rows())
            detail = cluster.cluster_report()
            assert detail.workers == 2
            served = sum(
                wr["MicroCNN"].requests for wr in detail.worker_reports.values()
                if "MicroCNN" in wr
            )
            assert served == images.shape[0]

    def test_malformed_first_frames_close_their_connection(self, monkeypatch):
        """A frame that fails to decode fails its link, not a router thread."""
        import pickle

        def framed(body: bytes) -> bytes:
            return struct.pack("<I", len(body)) + body

        hostile = pickle.dumps(("hello", print))
        malformed = [
            # The retired pickle-skeleton frame (codec byte 1).
            framed(struct.pack("<BHI", 1, 0, len(hostile)) + hostile),
            # A JSON-codec frame whose skeleton is not JSON.
            framed(struct.pack("<BHI", 0, 0, 9) + b'["hello",'),
            # An unknown codec byte followed by garbage.
            framed(struct.pack("<BHI", 7, 0, 3) + b"abc"),
            # Well-formed, but the hello payload is not a dict.
            b"".join(encode_message(("hello", 5))),
        ]
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        with make_socket_cluster("uds", workers=1) as cluster:
            _, path = parse_address(cluster.transport.address)
            for frame in malformed:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    sock.connect(path)
                    sock.sendall(frame)
                    sock.settimeout(2.0)
                    try:
                        assert sock.recv(1) == b""
                    except ConnectionResetError:
                        pass
            images = synthetic_images((8, 8, 3), 4, seed=5)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            run = run_closed_loop(cluster, "MicroCNN", images)
            assert np.array_equal(run.rows(), base.rows())
        assert uncaught == []

    @pytest.mark.parametrize("transport", ["tcp", "pipe"])
    def test_forced_digest_fetch_bit_identical(self, transport, monkeypatch):
        """Workers that cannot see the owner's segment fetch over the wire.

        Under ``pipe`` the two workers are forked from the router and
        contend for the same digest claim on one host.
        """
        monkeypatch.setenv("REPRO_CLUSTER_FORCE_FETCH", "1")
        with make_socket_cluster(transport, workers=2) as cluster:
            images = synthetic_images((8, 8, 3), 24, seed=2)
            baseline = cluster.baseline_service()
            try:
                base = run_closed_loop(baseline, "MicroCNN", images)
            finally:
                baseline.close()
            run = run_closed_loop(cluster, "MicroCNN", images)
            assert np.array_equal(run.rows(), base.rows())

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
            assert np.array_equal(np.stack(outputs), base.rows())
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
                assert np.array_equal(run.rows(), base.rows())
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
                assert np.array_equal(np.stack(outputs), base.rows())
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
