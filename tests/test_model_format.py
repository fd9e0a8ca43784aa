"""Tests for the compressed ``.pbit`` model format."""

import io

import numpy as np
import pytest

from repro.core import model_format
from repro.core.layers import BatchNorm2d, Dense, FloatConv2d
from repro.core.network import Network


class TestRoundTrip:
    def test_bytes_roundtrip_preserves_outputs(self, tiny_bnn_network, tiny_images):
        buffer = io.BytesIO()
        payload_bytes = model_format.save_network(tiny_bnn_network, buffer)
        assert payload_bytes > 0
        buffer.seek(0)
        restored = model_format.load_network(buffer)
        original = tiny_bnn_network.forward(tiny_images)
        roundtripped = restored.forward(tiny_images)
        np.testing.assert_allclose(original.data, roundtripped.data, rtol=1e-4, atol=1e-3)

    def test_file_roundtrip(self, tmp_path, tiny_bnn_network, tiny_images):
        path = tmp_path / "tiny.pbit"
        model_format.save_network(tiny_bnn_network, str(path))
        restored = model_format.load_network(str(path))
        np.testing.assert_allclose(
            tiny_bnn_network.forward(tiny_images).data,
            restored.forward(tiny_images).data,
            rtol=1e-4, atol=1e-3,
        )

    def test_buffer_load_zero_copy_matches_copy_load(self, tiny_bnn_network,
                                                     tiny_images):
        raw = model_format.serialize_network(tiny_bnn_network)
        copied = model_format.load_network_from_buffer(raw)
        zero_copy = model_format.load_network_from_buffer(raw, zero_copy=True)
        # Bit-identical across load modes: the zero-copy path changes memory
        # ownership, never values.
        np.testing.assert_array_equal(
            copied.forward(tiny_images).data,
            zero_copy.forward(tiny_images).data,
        )

    def test_zero_copy_weights_are_frozen_views(self, tiny_bnn_network):
        raw = bytearray(model_format.serialize_network(tiny_bnn_network))
        network = model_format.load_network_from_buffer(raw, zero_copy=True)
        saw_packed = False
        for layer in network.layers:
            packed = getattr(layer, "weights_packed", None)
            if packed is not None and not isinstance(packed, property):
                saw_packed = True
                assert not packed.flags.owndata  # a view into ``raw``
                assert not packed.flags.writeable
        assert saw_packed

    def test_zero_copy_lazy_weight_bits_round_trip(self, tiny_bnn_network):
        """Unpacked bits materialize lazily and match the original."""
        raw = model_format.serialize_network(tiny_bnn_network)
        network = model_format.load_network_from_buffer(raw, zero_copy=True)
        for original, restored in zip(tiny_bnn_network.layers, network.layers):
            bits = getattr(original, "weight_bits", None)
            if bits is None:
                continue
            np.testing.assert_array_equal(bits, restored.weight_bits)
            # Materializing the bits must not invalidate the packed view.
            assert not restored.weights_packed.flags.owndata

    def test_metadata_and_names_preserved(self, tiny_bnn_network):
        tiny_bnn_network.metadata["dataset"] = "synthetic"
        buffer = io.BytesIO()
        model_format.save_network(tiny_bnn_network, buffer)
        buffer.seek(0)
        restored = model_format.load_network(buffer)
        assert restored.name == tiny_bnn_network.name
        assert restored.metadata["dataset"] == "synthetic"
        assert [l.name for l in restored] == [l.name for l in tiny_bnn_network]

    def test_compressed_file_is_much_smaller_than_float(self, tiny_bnn_network):
        buffer = io.BytesIO()
        model_format.save_network(tiny_bnn_network, buffer)
        file_size = len(buffer.getvalue())
        assert file_size < tiny_bnn_network.full_precision_size_bytes() / 4

    def test_float_layers_roundtrip(self, rng):
        net = Network("float", input_shape=(6, 6, 3), input_dtype="float32")
        net.add(FloatConv2d(3, 4, 3, padding=1, activation="relu", rng=1, name="conv"))
        net.add(BatchNorm2d.identity(4, name="bn"))
        from repro.core.layers import Flatten

        net.add(Flatten(name="flat"))
        net.add(Dense(6 * 6 * 4, 5, activation="softmax", rng=2, name="head"))
        buffer = io.BytesIO()
        model_format.save_network(net, buffer)
        buffer.seek(0)
        restored = model_format.load_network(buffer)
        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        np.testing.assert_allclose(net.forward(x).data, restored.forward(x).data,
                                   rtol=1e-5, atol=1e-5)


class TestErrorHandling:
    def test_bad_magic_rejected(self):
        with pytest.raises(model_format.ModelFormatError):
            model_format.load_network(io.BytesIO(b"NOPE" + b"\x00" * 32))

    def test_bad_version_rejected(self, tiny_bnn_network):
        buffer = io.BytesIO()
        model_format.save_network(tiny_bnn_network, buffer)
        raw = bytearray(buffer.getvalue())
        raw[4] = 99
        with pytest.raises(model_format.ModelFormatError):
            model_format.load_network(io.BytesIO(bytes(raw)))

    def test_unserializable_layer_rejected(self):
        from repro.core.layers.base import Layer

        class Custom(Layer):
            def output_shape(self, input_shape):
                return input_shape

            def forward(self, x):
                return x

        net = Network("custom", input_shape=(4, 4, 1))
        net.add(Custom())
        with pytest.raises(model_format.ModelFormatError):
            model_format.save_network(net, io.BytesIO())


class TestArtifactStability:
    #: SHA-256 of each serving model's ``.pbit`` (``rng=0``; paper nets at
    #: the reduced test resolutions).  Pinned: how layers store weights in
    #: memory must never change the bytes a model serializes to.
    DIGESTS = {
        "TinyCNN": "1446f3dc7b2a791f94c12121285574e49bff56f6c721b184e701dbaf063eb450",
        "MicroCNN": "2dfcf6e73b2cf23e811b4ba903be92bcfb98de5ae15c22f197bd2700c83d10f8",
        "AlexNet": "9a27b34006692a2b87457ee7cbbdacc5df7373bb2bc5c49a8447e59e4b8daa76",
        "YOLOv2 Tiny": "eecb26b7dc26994ff0741c0f76f8bd83f8b36e1ee0f78b0fb7c5ec45f7f9f1b3",
        "VGG16": "a6681c4de0243d85be9a9a9df69ddbd3512ca46d92c684468a593ee78496edf6",
    }
    SIZES = {"VGG16": 32, "AlexNet": 67, "YOLOv2 Tiny": 32}

    @pytest.mark.parametrize("model", sorted(DIGESTS))
    def test_serving_model_bytes_are_pinned(self, model):
        import dataclasses
        import hashlib

        from repro.models.zoo import SERVING_MODELS, build_phonebit_network

        config = SERVING_MODELS[model]()
        if model in self.SIZES:
            side = self.SIZES[model]
            config = dataclasses.replace(config, input_shape=(side, side, 3))
        network = build_phonebit_network(config, rng=0)
        raw = model_format.serialize_network(network)
        assert hashlib.sha256(raw).hexdigest() == self.DIGESTS[model]
        # Both load modes adopt the stored words as they are.
        for zero_copy in (False, True):
            loaded = model_format.load_network_from_buffer(raw, zero_copy=zero_copy)
            for before, after in zip(network.layers, loaded.layers):
                if hasattr(before, "weights_packed"):
                    np.testing.assert_array_equal(after.weights_packed,
                                                  before.weights_packed)
