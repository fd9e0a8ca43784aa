"""Tests for the compiled execution plan: fusion, arena, threading, caching.

The load-bearing property is *bit-exactness*: for every zoo entry, thread
count and popcount dispatch path, ``ExecutionPlan.execute`` must reproduce
``Network.forward`` exactly — the fused integer thresholds are extracted
from each layer's own reference computation, so any drift is a bug.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import bitpack
from repro.core import plan as plan_mod
from repro.core.engine import PhoneBitEngine
from repro.core.fusion import BatchNormParams, exact_integer_threshold
from repro.core.layers import (
    BatchNorm2d,
    Binarize,
    BinaryConv2d,
    BinaryDense,
    Flatten,
    InputConv2d,
    MaxPool2d,
)
from repro.core.network import Network
from repro.models.zoo import SERVING_MODELS, build_phonebit_network, get_serving_config

#: Reduced input resolutions so the paper-scale networks stay test-sized;
#: models absent here run at their native resolution.
_TEST_SIZES = {"VGG16": 32, "AlexNet": 67, "YOLOv2 Tiny": 32}

_NETWORK_CACHE = {}


def zoo_network(name):
    """Build (once) a reduced-size network for a serving-zoo entry."""
    if name not in _NETWORK_CACHE:
        config = get_serving_config(name)
        size = _TEST_SIZES.get(config.name)
        if size is not None:
            config = dataclasses.replace(config, input_shape=(size, size, 3))
        _NETWORK_CACHE[name] = build_phonebit_network(config, rng=7)
    return _NETWORK_CACHE[name]


@pytest.fixture(params=["dispatch-default", "dispatch-swar"])
def popcount_dispatch(request, monkeypatch):
    """Exercise both popcount paths (NumPy >= 2 bitwise_count and SWAR)."""
    if request.param == "dispatch-swar":
        monkeypatch.setattr(bitpack, "popcount_words", bitpack.popcount_swar)
    return request.param


class TestExactIntegerThreshold:
    def test_matches_branchless_reference_exhaustively(self, random_batchnorm):
        from repro.core.branchless import branchless_binarize
        from repro.core.fusion import compute_threshold

        bn = random_batchnorm(16, seed=3)
        xi = compute_threshold(bn)
        predicate = lambda x1: branchless_binarize(x1, xi, bn.gamma)
        lo, hi = -40, 40
        threshold, flip = exact_integer_threshold(predicate, 16, lo, hi)
        for x in range(lo, hi + 1):
            candidates = np.full(16, x, dtype=np.int64)
            expected = predicate(candidates).astype(bool)
            got = (candidates >= threshold) ^ flip
            np.testing.assert_array_equal(got, expected, err_msg=f"x1={x}")

    def test_constant_channels(self):
        # Thresholds far outside the range make the bit constant per channel.
        predicate = lambda x1: np.array([1, 0], dtype=np.uint8)
        threshold, flip = exact_integer_threshold(predicate, 2, -5, 5)
        for x in (-5, 0, 5):
            candidates = np.full(2, x, dtype=np.int64)
            got = (candidates >= threshold) ^ flip
            np.testing.assert_array_equal(got, [True, False])

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            exact_integer_threshold(lambda x: x >= 0, 1, 3, 3)


class TestPlanBitExactOnZoo:
    @pytest.mark.parametrize("model", sorted(SERVING_MODELS))
    @pytest.mark.parametrize("threads", [1, 4])
    def test_plan_matches_forward(self, model, threads, popcount_dispatch, rng):
        network = zoo_network(model)
        images = rng.integers(
            0, 256, size=(3,) + network.input_shape
        ).astype(np.uint8)
        expected = network.forward(images)
        plan = plan_mod.get_plan(network)
        assert plan.fused_step_count > 0  # every zoo net has binary blocks
        out = plan.execute(images, threads=threads)
        assert out.data.dtype == expected.data.dtype
        np.testing.assert_array_equal(out.data, expected.data)

    def test_input_range_validation_matches_interpreter(self, rng):
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        shape = (1,) + network.input_shape
        too_wide = rng.integers(0, 256, size=shape).astype(np.int16)
        too_wide[0, 0, 0, 0] = 300  # does not fit input_bits=8
        negative = rng.integers(0, 256, size=shape).astype(np.int16)
        negative[0, 0, 0, 0] = -1
        for bad in (too_wide, negative):
            with pytest.raises(ValueError):
                network.forward(bad)
            with pytest.raises(ValueError):
                plan.execute(bad)

    def test_repeated_execution_reuses_arena(self, rng):
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        images = rng.integers(0, 256, size=(2,) + network.input_shape).astype(np.uint8)
        first = plan.execute(images, threads=1)
        assert len(plan._arenas) == 1  # returned to the free-list
        arena = plan._arenas[0]
        bytes_before = arena.nbytes
        second = plan.execute(images, threads=1)
        assert plan._arenas[0] is arena and arena.nbytes == bytes_before
        np.testing.assert_array_equal(first.data, second.data)

    def test_outputs_are_detached_from_arena(self, rng):
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        images = rng.integers(0, 256, size=(2,) + network.input_shape).astype(np.uint8)
        other = rng.integers(0, 256, size=(2,) + network.input_shape).astype(np.uint8)
        first = plan.execute(images, threads=1)
        snapshot = first.data.copy()
        plan.execute(other, threads=1)  # would clobber an arena-backed view
        np.testing.assert_array_equal(first.data, snapshot)

    def test_concurrent_executions_stay_isolated(self, rng):
        # Regression: the arena must not return to the free-list before the
        # result is detached, or a concurrent execution borrows it and
        # overwrites the output mid-read.
        import threading

        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        batches = [
            rng.integers(0, 256, size=(3,) + network.input_shape).astype(np.uint8)
            for _ in range(2)
        ]
        expected = [network.forward(batch).data for batch in batches]
        mismatches = []

        def worker(index):
            for _ in range(20):
                out = plan.execute(batches[index], threads=1)
                if not np.array_equal(out.data, expected[index]):
                    mismatches.append(index)
                    return

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert not mismatches


class TestUnfusedBlockFolding:
    def _bn(self, channels, seed):
        local = np.random.default_rng(seed)
        gamma = local.uniform(0.3, 1.5, channels) * local.choice([-1.0, 1.0], channels)
        return BatchNormParams(
            gamma=gamma,
            beta=local.normal(0.0, 0.7, channels),
            mean=local.normal(0.0, 3.0, channels),
            var=local.uniform(0.2, 4.0, channels),
        )

    def test_conv_bn_binarize_folds_to_one_step(self, rng):
        net = Network("unfused", input_shape=(12, 12, 3), input_dtype="uint8")
        net.add(InputConv2d(3, 8, 3, padding=1, rng=1, batchnorm=self._bn(8, 1),
                            name="conv1"))
        net.add(BinaryConv2d(8, 16, 3, padding=1, rng=2, output_binary=False,
                             name="conv2"))
        net.add(BatchNorm2d(self._bn(16, 2), name="bn2"))
        net.add(Binarize(name="sign2"))
        net.add(Flatten(name="flatten"))
        net.add(BinaryDense(12 * 12 * 16, 24, rng=3, output_binary=False,
                            name="fc1"))
        net.add(BatchNorm2d(self._bn(24, 4), name="bn_fc"))
        net.add(Binarize(name="sign_fc"))
        net.add(BinaryDense(24, 5, rng=5, output_binary=False, name="fc2"))
        plan = plan_mod.get_plan(net)
        # conv2+bn2+sign2 and fc1+bn_fc+sign_fc each collapse into one step.
        assert len(plan.steps) == len(net.layers) - 4
        spans = [s.layer_stop - s.layer_start for s in plan.steps if s.fused]
        assert spans.count(3) == 2
        images = rng.integers(0, 256, size=(2, 12, 12, 3)).astype(np.uint8)
        expected = net.forward(images)
        np.testing.assert_array_equal(plan.execute(images).data, expected.data)

    def test_bn_without_binarize_is_not_folded(self, rng):
        # The stream entering conv is float (unpacked), so the conv is not
        # lowered as a float head either: nothing in this net is fused.
        net = Network("no-fold", input_shape=(8, 8, 4), input_dtype="float32")
        net.add(BinaryConv2d(4, 8, 3, padding=1, rng=1, output_binary=False,
                             name="conv"))
        net.add(BatchNorm2d(self._bn(8, 9), name="bn"))
        plan = plan_mod.get_plan(net)
        assert plan.fused_step_count == 0
        x = rng.normal(size=(2, 8, 8, 4)).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x).data, net.forward(x).data)


class TestPackedFlatten:
    @pytest.mark.parametrize("model", ["AlexNet", "VGG16", "TinyCNN"])
    def test_whole_word_pixels_flatten_as_a_zero_copy_reshape(self, model):
        network = zoo_network(model)
        plan = plan_mod.get_plan(network)
        (step,) = [s for s in plan.steps
                   if isinstance(s, plan_mod.PackedFlattenStep)]
        assert isinstance(network.layers[step.layer_start], Flatten)
        x = step.probe_input(np.random.default_rng(5))
        ctx = plan_mod._ExecContext(plan_mod.BufferArena(), None, 1)
        got = step.execute(x, ctx, None, None)
        # Bit order is identical: unpack → flatten → repack rewrites no word.
        expected = network.layers[step.layer_start].forward(x)
        assert got.true_channels == expected.true_channels
        np.testing.assert_array_equal(got.data, expected.data)
        assert np.shares_memory(got.data, x.data)

    def test_partial_words_keep_flatten_forward_and_still_lower_the_head(self):
        # MicroCNN flattens 16 channels into 64-bit words: the repack is
        # real, so Flatten.forward runs — but its output is known packed,
        # so the float head fc after it is lowered.
        plan = plan_mod.get_plan(zoo_network("MicroCNN"))
        kinds = [type(step).__name__ for step in plan.steps[-2:]]
        assert kinds == ["LayerStep", "PackedGemmStep"]
        assert plan.steps[-1].acc_threshold is None  # the affine epilogue

    def test_word_size_change_keeps_flatten_forward(self, rng):
        net = Network("w32", input_shape=(4, 4, 3), input_dtype="uint8")
        net.add(InputConv2d(3, 64, 3, padding=1, rng=1, name="conv1"))
        net.add(Flatten(word_size=32, name="flatten"))
        net.add(BinaryDense(4 * 4 * 64, 10, word_size=32, rng=2,
                            output_binary=False, name="fc"))
        plan = plan_mod.get_plan(net)
        assert [type(step).__name__ for step in plan.steps] == [
            "InputConvStep", "LayerStep", "PackedGemmStep"]
        images = rng.integers(0, 256, size=(3, 4, 4, 3)).astype(np.uint8)
        np.testing.assert_array_equal(plan.execute(images).data,
                                      net.forward(images).data)


class TestPlanCacheInvalidation:
    def test_plan_is_cached_and_warm_compiles(self):
        net = zoo_network("MicroCNN")
        net.warm()
        plan = plan_mod.get_plan(net)
        assert plan_mod.get_plan(net) is plan
        assert net._plan_cache is plan

    def test_weight_reassignment_never_serves_stale_plan(self, rng):
        net = build_phonebit_network(get_serving_config("MicroCNN"), rng=11)
        engine = PhoneBitEngine()
        images = rng.integers(0, 256, size=(2,) + net.input_shape).astype(np.uint8)
        before = engine.run_batch(net, images, collect_estimate=False)
        plan_before = plan_mod.get_plan(net)
        conv = next(l for l in net.layers if isinstance(l, BinaryConv2d))
        conv.weight_bits = 1 - conv.weight_bits
        after = engine.run_batch(net, images, collect_estimate=False)
        assert plan_mod.get_plan(net) is not plan_before
        assert not np.array_equal(before.output.data, after.output.data)
        # The recompiled plan matches the layerwise path for the new weights.
        np.testing.assert_array_equal(after.output.data, net.forward(images).data)

    def test_adopt_packed_weights_never_serves_stale_plan(self, rng):
        """Re-adopting packed weights must invalidate the cached plan.

        Packed-only layers (shared-memory attach) keep ``_weight_bits`` as a
        sentinel; the plan snapshot keys on its identity, so every adoption
        must install a *fresh* sentinel — a constant one would let a stale
        plan keep serving the previous filters.
        """
        from repro.core import model_format

        net = build_phonebit_network(get_serving_config("MicroCNN"), rng=11)
        zc = model_format.load_network_from_buffer(
            model_format.serialize_network(net), zero_copy=True
        )
        from repro.core import binary_conv

        engine = PhoneBitEngine()
        images = rng.integers(0, 256, size=(2,) + zc.input_shape).astype(np.uint8)
        before = engine.run_batch(zc, images, collect_estimate=False)
        plan_before = plan_mod.get_plan(zc)
        conv = next(l for l in zc.layers if isinstance(l, BinaryConv2d))
        flipped_bits = 1 - conv.weight_bits  # also exercises lazy unpack
        # A mere inspection read must NOT invalidate the warm plan...
        assert plan_mod.get_plan(zc) is plan_before
        # ...but adopting new packed weights must.
        conv.adopt_packed_weights(
            binary_conv.pack_weights(flipped_bits, word_size=conv.word_size)
        )
        assert plan_mod.get_plan(zc) is not plan_before
        after = engine.run_batch(zc, images, collect_estimate=False)
        assert not np.array_equal(before.output.data, after.output.data)
        np.testing.assert_array_equal(after.output.data, zc.forward(images).data)

    def test_batchnorm_reassignment_invalidates(self, rng, random_batchnorm):
        net = Network("bn-swap", input_shape=(8, 8, 3), input_dtype="uint8")
        net.add(InputConv2d(3, 8, 3, padding=1, rng=1, name="conv1"))
        net.add(BinaryConv2d(8, 8, 3, padding=1, rng=2, output_binary=False,
                             name="conv2"))
        bn = BatchNorm2d(random_batchnorm(8, seed=1), name="bn")
        net.add(bn)
        net.add(Binarize(name="sign"))
        images = rng.integers(0, 256, size=(2, 8, 8, 3)).astype(np.uint8)
        plan_before = plan_mod.get_plan(net)
        baseline = plan_before.execute(images)
        np.testing.assert_array_equal(baseline.data, net.forward(images).data)
        bn.params = random_batchnorm(8, seed=2)
        plan_after = plan_mod.get_plan(net)
        assert plan_after is not plan_before
        np.testing.assert_array_equal(
            plan_after.execute(images).data, net.forward(images).data
        )

    def test_layer_list_change_invalidates(self):
        net = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(net)
        layer = net.layers.pop()
        try:
            assert not plan.is_current(net)
        finally:
            net.layers.append(layer)


class TestEngineIntegration:
    def test_run_and_run_batch_match_unfused_engine(self, tiny_bnn_network,
                                                    tiny_images):
        fused = PhoneBitEngine(use_plan=True, num_threads=2)
        unfused = PhoneBitEngine(use_plan=False)
        np.testing.assert_array_equal(
            fused.run(tiny_bnn_network, tiny_images).output.data,
            unfused.run(tiny_bnn_network, tiny_images).output.data,
        )
        np.testing.assert_array_equal(
            fused.run_batch(tiny_bnn_network, tiny_images).output.data,
            unfused.run_batch(tiny_bnn_network, tiny_images).output.data,
        )

    def test_layer_wall_times_cover_all_layers(self, tiny_bnn_network, tiny_images):
        report = PhoneBitEngine().run_batch(tiny_bnn_network, tiny_images)
        assert set(report.layer_wall_ms) == {
            layer.name for layer in tiny_bnn_network.layers
        }

    def test_chunk_bytes_heuristic_is_monotone_and_bounded(self, tiny_bnn_network):
        engine = PhoneBitEngine()
        small = engine.auto_chunk_size(tiny_bnn_network, 64, chunk_bytes=1)
        large = engine.auto_chunk_size(tiny_bnn_network, 64, chunk_bytes=2**40)
        assert small == 1  # budget below one image still runs one at a time
        assert large == 64
        mid = engine.auto_chunk_size(
            tiny_bnn_network, 64,
            chunk_bytes=4 * plan_mod.get_plan(tiny_bnn_network).per_sample_bytes,
        )
        assert 1 <= mid <= 64
        assert small <= mid <= large
        with pytest.raises(ValueError):
            engine.auto_chunk_size(tiny_bnn_network, 64, chunk_bytes=0)

    def test_chunked_by_bytes_matches_unchunked(self, tiny_bnn_network, rng):
        images = rng.integers(0, 256, size=(5, 16, 16, 3)).astype(np.uint8)
        engine = PhoneBitEngine()
        whole = engine.run_batch(tiny_bnn_network, images)
        per_sample = plan_mod.get_plan(tiny_bnn_network).per_sample_bytes
        chunked = engine.run_batch(
            tiny_bnn_network, images, chunk_bytes=2 * per_sample
        )
        np.testing.assert_array_equal(whole.output.data, chunked.output.data)
        with pytest.raises(ValueError):
            engine.run_batch(tiny_bnn_network, images, chunk_bytes=-1)


class TestThreadConfig:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert plan_mod.default_num_threads() == 3

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "zero")
        with pytest.raises(ValueError):
            plan_mod.default_num_threads()
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.raises(ValueError):
            plan_mod.default_num_threads()

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert plan_mod.default_num_threads() == (os.cpu_count() or 1)


class TestBufferArena:
    def test_views_grow_and_are_reused(self):
        arena = plan_mod.BufferArena()
        a = arena.view("x", (4, 8), np.int64)
        assert a.shape == (4, 8) and a.dtype == np.int64
        before = arena.nbytes
        b = arena.view("x", (2, 8), np.int64)  # smaller: reuses the buffer
        assert arena.nbytes == before
        b[:] = 7
        c = arena.view("x", (16, 16), np.float64)  # larger: grows
        assert c.shape == (16, 16) and arena.nbytes > before
