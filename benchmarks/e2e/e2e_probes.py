"""Per-layer micro-probes: public functions of one module, timed from outside.

Every probe calls a layer's public functions on fixed shapes (the kernel
shapes are those of ``BENCH_compiled_backend``) and returns
``{metric name: value}``.  Operation counts and bytes are computed from the
shapes, not measured.  A probe whose function no longer exists reports 0.0
and says so on stderr: ROADMAP item 3 plans deletions, and a missing probe
must not take the five workloads down with it.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from typing import Callable, Dict

import numpy as np

from e2e_stats import percentile

#: Seconds each probe spends timing its call.
PROBE_BUDGET_S = 0.12


def median_seconds(call: Callable[[], object],
                   budget_s: float = PROBE_BUDGET_S) -> float:
    """Median wall time of ``call`` over as many calls as fit the budget."""
    call()  # first call pays lazy set-up
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return percentile(samples, 50.0)


def _kernel_operands(rng):
    rows, n_words, cols = 4096, 8, 256
    a = rng.integers(0, 2 ** 63, size=(rows, n_words), dtype=np.uint64)
    b = rng.integers(0, 2 ** 63, size=(cols, n_words), dtype=np.uint64)
    thresh = rng.integers(0, n_words * 64, size=cols).astype(np.int32)
    flip = rng.integers(0, 2, size=cols).astype(bool)
    return a, b, thresh, flip


def probe_bitpack(rng) -> Dict[str, float]:
    """NumPy reference kernels of ``core.bitpack``."""
    from repro.core import bitpack

    a, b, thresh, flip = _kernel_operands(rng)
    rows, n_words = a.shape
    cols = b.shape[0]
    out = np.zeros((rows, bitpack.words_per_channel(cols, 64)), dtype=np.uint64)
    fused_s = median_seconds(lambda: bitpack.fused_xor_threshold_rows(
        a, b, thresh, flip, out, 0, rows, 64))
    gemm_s = median_seconds(lambda: bitpack.xor_popcount_gemm(a[:1024], b[:128]))
    bits = rng.integers(0, 2, size=(4096, 512), dtype=np.uint8)
    pack_s = median_seconds(lambda: bitpack.pack_bits(bits, 64))
    return {
        "core.bitpack.fused_xor_threshold_rows_gbitops":
            rows * cols * n_words * 64 / fused_s / 1e9,
        "core.bitpack.xor_popcount_gemm_gbitops":
            1024 * 128 * n_words * 64 / gemm_s / 1e9,
        "core.bitpack.pack_bits_mb_per_s": bits.nbytes / pack_s / 1e6,
    }


def probe_backends(rng) -> Dict[str, float]:
    """The same shapes through the compiled backend ``auto`` resolves to."""
    from repro.core import backends, binary_conv, bitpack

    name, impl = backends.resolve_backend("auto")
    if impl is None:
        raise AttributeError(f"no compiled backend (auto resolved to {name})")
    a, b, thresh, flip = _kernel_operands(rng)
    rows, n_words = a.shape
    cols = b.shape[0]
    out = np.zeros((rows, bitpack.words_per_channel(cols, 64)), dtype=np.uint64)
    fused_s = median_seconds(lambda: impl.fused_xor_threshold_rows(
        a, b, thresh, flip, out, 0, rows, 64))
    gemm_out = np.empty((1024, 128), dtype=np.int64)
    gemm_s = median_seconds(lambda: impl.xor_popcount_gemm_rows(
        a[:1024], b[:128], gemm_out, 0, 1024))
    packed = rng.integers(0, 2 ** 63, size=(8, 56, 56, 2), dtype=np.uint64)
    reference, oh, ow = binary_conv.packed_patch_matrix(packed, 3, 1, 1)
    patches = np.empty_like(np.ascontiguousarray(reference))
    patch_s = median_seconds(lambda: impl.packed_patch_rows(
        packed, 3, 1, 1, oh, ow, patches, 0, patches.shape[0]))
    return {
        "core.backends.fused_xor_threshold_rows_gbitops":
            rows * cols * n_words * 64 / fused_s / 1e9,
        "core.backends.xor_popcount_gemm_gbitops":
            1024 * 128 * n_words * 64 / gemm_s / 1e9,
        "core.backends.packed_patch_rows_mb_per_s":
            patches.nbytes / patch_s / 1e6,
    }


def probe_model_format(rng) -> Dict[str, float]:
    """VGG16 at 64x64 through the ``.pbit`` writer and the zero-copy loader."""
    import dataclasses

    from repro.core.model_format import (
        load_network_from_buffer, serialize_network)
    from repro.models.zoo import build_phonebit_network, get_serving_config

    config = dataclasses.replace(
        get_serving_config("VGG16"), input_shape=(64, 64, 3))
    network = build_phonebit_network(config, rng=0)
    raw = serialize_network(network)
    return {
        "core.model_format.serialize_ms":
            median_seconds(lambda: serialize_network(network)) * 1e3,
        "core.model_format.load_zero_copy_ms": median_seconds(
            lambda: load_network_from_buffer(raw, zero_copy=True)) * 1e3,
    }


def probe_scheduler(rng) -> Dict[str, float]:
    """``BatchingScheduler.submit`` over an executor that does nothing."""
    from repro.serving.scheduler import BatchingScheduler

    with BatchingScheduler(lambda payloads: payloads, max_batch_size=32,
                           max_wait_ms=2.0) as scheduler:
        def burst():
            futures = [scheduler.submit(None) for _ in range(256)]
            futures[-1].result(timeout=30)
        per_burst = median_seconds(burst)
    return {"serving.scheduler.noop_submit_us": per_burst / 256 * 1e6}


def probe_cache(rng) -> Dict[str, float]:
    from repro.serving.cache import input_digest

    small = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    large = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    return {
        "serving.cache.input_digest_8x8_us":
            median_seconds(lambda: input_digest("MicroCNN", small)) * 1e6,
        "serving.cache.input_digest_32x32_us":
            median_seconds(lambda: input_digest("TinyCNN", large)) * 1e6,
    }


def probe_transport(rng) -> Dict[str, float]:
    """Framing of real ``reqs``/``res`` tuples and an echo over a UDS pair."""
    from repro.serving.transport import Channel, decode_message, encode_message

    image = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    request = ("reqs", [(7, "MicroCNN", image, "")])
    answers = [("res", "w0", rid, rng.normal(size=10)) for rid in range(32)]
    request_body = memoryview(b"".join(encode_message(request)))[4:]
    answer_bodies = [memoryview(b"".join(encode_message(answer)))[4:]
                     for answer in answers]

    left, right = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    near, far = Channel(left), Channel(right)

    def echo():
        try:
            while True:
                far.send(far.recv())
        except ConnectionError:
            return

    thread = threading.Thread(target=echo, name="probe-echo", daemon=True)
    thread.start()
    try:
        def roundtrip():
            near.send(request)
            near.recv()
        roundtrip_s = median_seconds(roundtrip)
    finally:
        near.close()
        far.close()
        thread.join(timeout=5.0)
    return {
        "serving.transport.encode_reqs1_us":
            median_seconds(lambda: encode_message(request)) * 1e6,
        "serving.transport.decode_reqs1_us":
            median_seconds(lambda: decode_message(request_body)) * 1e6,
        "serving.transport.encode_res32_us": median_seconds(
            lambda: [encode_message(answer) for answer in answers]) * 1e6,
        "serving.transport.decode_res32_us": median_seconds(
            lambda: [decode_message(body) for body in answer_bodies]) * 1e6,
        "serving.transport.uds_roundtrip_us": roundtrip_s * 1e6,
    }


def probe_router(rng) -> Dict[str, float]:
    from repro.serving.router import LeastOutstandingRouter

    router = LeastOutstandingRouter(max_outstanding=64)
    for worker in ("w0", "w1"):
        router.add_worker(worker)

    def cycle():
        for _ in range(256):
            router.release(router.acquire("MicroCNN"))
    return {"serving.router.acquire_release_us":
            median_seconds(cycle) / 256 * 1e6}


def probe_shm_store(rng) -> Dict[str, float]:
    from repro.serving.shm_store import SharedModelStore, attach_model

    publish_ms, attach_ms, store_bytes = [], [], 0
    for _ in range(3):
        with SharedModelStore() as store:
            t0 = time.perf_counter()
            handles = store.publish_models(("MicroCNN",))
            publish_ms.append((time.perf_counter() - t0) * 1e3)
            attached = attach_model(handles["MicroCNN"])
            attach_ms.append(attached.attach_ms)
            store_bytes = store.total_bytes()
            attached.close()
    return {
        "serving.shm_store.publish_ms": percentile(publish_ms, 50.0),
        "serving.shm_store.attach_ms": percentile(attach_ms, 50.0),
        "serving.shm_store.store_bytes": float(store_bytes),
    }


def probe_loadgen(rng) -> Dict[str, float]:
    """How late the program's own pacing loop runs at 1000 req/s, doing nothing."""
    from repro.serving.loadgen import poisson_offsets, run_arrival_schedule

    offsets = poisson_offsets(rng, 1000.0, 500)
    arrived = np.zeros(len(offsets))

    def arrive(index: int) -> None:
        arrived[index] = time.perf_counter()

    start = run_arrival_schedule(offsets, arrive)
    return {"serving.loadgen.pacing_lag_p99_ms":
            percentile((arrived - start - offsets) * 1e3, 99.0)}


PROBES = (probe_bitpack, probe_backends, probe_model_format, probe_scheduler,
          probe_cache, probe_transport, probe_router, probe_shm_store,
          probe_loadgen)


def run_probes(seed: int) -> Dict[str, float]:
    """Every probe's metrics; a probe whose target is gone contributes none."""
    metrics: Dict[str, float] = {}
    for number, probe in enumerate(PROBES):
        rng = np.random.default_rng([int(seed), 1000 + number])
        try:
            metrics.update(probe(rng))
        except (ImportError, AttributeError) as exc:
            print(f"probe {probe.__name__} unavailable: {exc}", file=sys.stderr)
    return metrics
