"""Regression tests for packed-weight caching and batched engine execution."""

import threading

import numpy as np
import pytest

from repro.core import binary_conv
from repro.core.engine import BatchInferenceReport, PhoneBitEngine
from repro.core.layers import BinaryConv2d, BinaryDense
from repro.core.layers import dense as dense_mod
from repro.core.tensor import Tensor


def _count_packs(monkeypatch):
    """Count conv/dense weight packings from now on (``{"conv": n, ...}``)."""
    counts = {"conv": 0, "dense": 0}

    def counting(kind, real):
        def pack(*args, **kwargs):
            counts[kind] += 1
            return real(*args, **kwargs)

        return pack

    monkeypatch.setattr(binary_conv, "pack_weights",
                        counting("conv", binary_conv.pack_weights))
    monkeypatch.setattr(dense_mod, "_pack_dense_weights",
                        counting("dense", dense_mod._pack_dense_weights))
    return counts


class TestConvWeightCache:
    def test_packing_is_lazy_and_cached(self):
        layer = BinaryConv2d(8, 4, 3, rng=0)
        first = layer.weights_packed
        assert layer.weights_packed is first  # cached object, not re-packed

    def test_assignment_invalidates_cache(self, rng):
        layer = BinaryConv2d(8, 4, 3, rng=0)
        before = layer.weights_packed
        new_bits = rng.integers(0, 2, size=(3, 3, 8, 4), dtype=np.uint8)
        layer.weight_bits = new_bits
        after = layer.weights_packed
        assert after is not before
        np.testing.assert_array_equal(
            after, binary_conv.pack_weights(new_bits, word_size=layer.word_size)
        )

    def test_assignment_validates_shape(self):
        layer = BinaryConv2d(8, 4, 3, rng=0)
        with pytest.raises(ValueError):
            layer.weight_bits = np.zeros((3, 3, 8, 5), dtype=np.uint8)

    def test_in_place_mutation_cannot_stale_the_cache(self, rng):
        # weight_bits is derived read-only from the packed words: in-place
        # edits raise (assign to change weights), and mutating the caller's
        # original array cannot reach the layer's packed copy.
        source = rng.integers(0, 2, size=(3, 3, 8, 4), dtype=np.uint8)
        layer = BinaryConv2d(8, 4, 3, weight_bits=source)
        packed_before = layer.weights_packed
        with pytest.raises(ValueError):
            layer.weight_bits[:] = 0
        source[:] = 0
        assert layer.weights_packed is packed_before
        np.testing.assert_array_equal(
            layer.weights_packed,
            binary_conv.pack_weights(layer.weight_bits, word_size=layer.word_size),
        )
        dense = BinaryDense(16, 4, rng=0)
        with pytest.raises(ValueError):
            dense.weight_bits[0, 0] = 1

    def test_repeated_engine_runs_never_pack(
        self, tiny_bnn_network, tiny_images, monkeypatch
    ):
        packs = _count_packs(monkeypatch)
        engine = PhoneBitEngine()
        for _ in range(3):
            engine.run(tiny_bnn_network, tiny_images)
            engine.run_batch(tiny_bnn_network, tiny_images)
        # Layers hold only packed words: nothing on the run path packs.
        assert packs == {"conv": 0, "dense": 0}

    def test_dense_cache_invalidation(self, rng):
        layer = BinaryDense(64, 16, rng=0)
        before = layer.weights_packed
        assert layer.weights_packed is before
        layer.weight_bits = rng.integers(0, 2, size=(64, 16), dtype=np.uint8)
        assert layer.weights_packed is not before
        with pytest.raises(ValueError):
            layer.weight_bits = np.zeros((64, 17), dtype=np.uint8)

    def test_conv_assignment_packs_exactly_once(self, rng, monkeypatch):
        layer = BinaryConv2d(8, 4, 3, rng=0)
        new_bits = rng.integers(0, 2, size=(3, 3, 8, 4), dtype=np.uint8)
        packs = _count_packs(monkeypatch)
        layer.weight_bits = new_bits
        assert packs["conv"] == 1
        packed = layer.weights_packed
        np.testing.assert_array_equal(layer.weight_bits, new_bits)
        x = Tensor(rng.standard_normal((1, 6, 6, 8)).astype(np.float32))
        layer.forward(x)
        assert layer.weights_packed is packed
        assert packs == {"conv": 1, "dense": 0}  # reads and runs never pack

    def test_dense_assignment_packs_once_and_recompiles(
        self, tiny_bnn_network, tiny_images, monkeypatch
    ):
        from repro.core import plan as plan_mod

        engine = PhoneBitEngine()
        before = engine.run_batch(tiny_bnn_network, tiny_images).output.data
        plan_before = plan_mod.get_plan(tiny_bnn_network)
        fc = next(l for l in tiny_bnn_network.layers
                  if isinstance(l, BinaryDense))
        packs = _count_packs(monkeypatch)
        fc.weight_bits = 1 - fc.weight_bits
        assert packs == {"conv": 0, "dense": 1}
        after = engine.run_batch(tiny_bnn_network, tiny_images).output.data
        assert plan_mod.get_plan(tiny_bnn_network) is not plan_before
        assert packs == {"conv": 0, "dense": 1}
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, tiny_bnn_network.forward(tiny_images).data)

    def test_concurrent_readers_and_writer_stay_coherent(self, rng):
        # Stress the lock-free cache: readers hammer ``weights_packed`` while
        # a writer flips between two known weight sets.  Every observed
        # packing must be one of the two valid packings (never torn), and
        # the final state must be coherent.
        bits_a = rng.integers(0, 2, size=(3, 3, 8, 4), dtype=np.uint8)
        bits_b = 1 - bits_a
        layer = BinaryConv2d(8, 4, 3, weight_bits=bits_a)
        valid = {
            binary_conv.pack_weights(b, word_size=layer.word_size).tobytes()
            for b in (bits_a, bits_b)
        }
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                packed = layer.weights_packed
                if packed.tobytes() not in valid:
                    errors.append("torn packing observed")
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for _ in range(200):
            layer.weight_bits = bits_b
            layer.weight_bits = bits_a
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert not errors
        np.testing.assert_array_equal(
            layer.weights_packed,
            binary_conv.pack_weights(layer.weight_bits, word_size=layer.word_size),
        )

    def test_new_weights_change_the_output(self, rng):
        layer = BinaryConv2d(4, 4, 3, padding=1, output_binary=False, rng=0)
        x = Tensor(rng.standard_normal((1, 6, 6, 4)).astype(np.float32))
        out_before = layer.forward(x).data.copy()
        layer.weight_bits = 1 - layer.weight_bits  # flip every weight
        out_after = layer.forward(x).data
        assert not np.array_equal(out_before, out_after)


class TestRunBatch:
    def test_matches_run_output(self, tiny_bnn_network, tiny_images):
        engine = PhoneBitEngine()
        single = engine.run(tiny_bnn_network, tiny_images)
        batched = engine.run_batch(tiny_bnn_network, tiny_images)
        assert isinstance(batched, BatchInferenceReport)
        np.testing.assert_array_equal(single.output.data, batched.output.data)
        assert batched.batch_size == tiny_images.shape[0]

    def test_chunked_matches_unchunked(self, tiny_bnn_network, rng):
        images = rng.integers(0, 256, size=(5, 16, 16, 3)).astype(np.uint8)
        engine = PhoneBitEngine()
        whole = engine.run_batch(tiny_bnn_network, images)
        chunked = engine.run_batch(tiny_bnn_network, images, chunk_size=2)
        np.testing.assert_array_equal(whole.output.data, chunked.output.data)

    def test_per_layer_throughput_report(self, tiny_bnn_network, tiny_images):
        engine = PhoneBitEngine()
        report = engine.run_batch(tiny_bnn_network, tiny_images)
        layer_names = {layer.name for layer in tiny_bnn_network.layers}
        assert set(report.layer_wall_ms) == layer_names
        assert all(ms >= 0.0 for ms in report.layer_wall_ms.values())
        assert set(report.layer_throughput_ips) == layer_names
        assert report.wall_ms_total > 0.0
        assert report.wall_ms_per_image == pytest.approx(
            report.wall_ms_total / report.batch_size
        )
        # The simulated estimate is computed once for the batch.
        assert report.estimate.latency_ms > 0.0

    def test_batched_is_faster_than_sequential_runs(self, tiny_bnn_network, rng):
        import time

        images = rng.integers(0, 256, size=(8, 16, 16, 3)).astype(np.uint8)
        engine = PhoneBitEngine()
        # Warm up both paths (weight packing, NumPy internals).
        engine.run(tiny_bnn_network, images[:1])
        engine.run_batch(tiny_bnn_network, images)

        t0 = time.perf_counter()
        for i in range(images.shape[0]):
            engine.run(tiny_bnn_network, images[i : i + 1])
        sequential_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        engine.run_batch(tiny_bnn_network, images)
        batched_s = time.perf_counter() - t0
        # One vectorized pass amortizes per-call overhead; generous margin to
        # stay robust on noisy CI machines.
        assert batched_s < sequential_s

    def test_duplicate_layer_names_stay_distinct(self, rng):
        # Layers left unnamed share a default name; the per-layer report
        # must not merge them.
        from repro.core.layers import BinaryConv2d, InputConv2d, MaxPool2d
        from repro.core.network import Network

        net = Network("dups", input_shape=(8, 8, 3), input_dtype="uint8")
        net.add(InputConv2d(3, 8, 3, padding=1, rng=1))
        net.add(MaxPool2d(2))
        net.add(BinaryConv2d(8, 8, 3, padding=1, rng=2))
        net.add(MaxPool2d(2))
        net.add(BinaryConv2d(8, 8, 3, padding=1, output_binary=False, rng=3))
        images = rng.integers(0, 256, size=(2, 8, 8, 3)).astype(np.uint8)
        report = PhoneBitEngine().run_batch(net, images)
        assert len(report.layer_wall_ms) == len(net.layers)

    def test_rejects_bad_arguments(self, tiny_bnn_network, tiny_images):
        engine = PhoneBitEngine()
        with pytest.raises(ValueError):
            engine.run_batch(tiny_bnn_network, tiny_images, chunk_size=0)
        with pytest.raises(ValueError):
            engine.run_batch(
                tiny_bnn_network, np.zeros((0, 16, 16, 3), dtype=np.uint8)
            )
