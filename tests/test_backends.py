"""Tests for the compiled kernel backends and the engine's thread policy.

The load-bearing property is the *bit-exactness spine*: a compiled kernel
may only replace the NumPy reference when its output is bit-for-bit
identical — on synthetic probes, on every step's real filters, and on
whole zoo networks across thread counts and batch sizes.  A host without
a toolchain (simulated via ``REPRO_NO_CC`` + an empty build cache) must
degrade to the NumPy path with unchanged results, never to an error.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import backends, binary_conv, bitpack
from repro.core import plan as plan_mod
from repro.core.backends import cffi_backend
from repro.core.engine import PhoneBitEngine
from repro.core.layers import (
    BinaryConv2d, BinaryDense, Flatten, InputConv2d, MaxPool2d,
)
from repro.core.network import Network
from repro.core.tensor import Layout, Tensor
from repro.core.plan import default_num_threads, positive_int
from repro.models.zoo import SERVING_MODELS, build_phonebit_network, get_serving_config

#: Reduced input resolutions so the paper-scale networks stay test-sized
#: (same idiom as tests/test_plan.py).
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


def compiled_impl():
    """The auto-resolved compiled backend, or skip when none builds here."""
    name, impl = backends.resolve_backend("auto")
    if impl is None:
        pytest.skip("no compiled backend available on this host")
    return name, impl


def isa_impl(isa):
    """The compiled backend pinned to one ISA body of ``_kernels.c``.

    Skips — visibly, with the reason in ``pytest -rs`` — when this host
    cannot execute the body, so a runner without AVX-512 shows up as a
    skip instead of silently testing less.
    """
    _, impl = compiled_impl()
    if isa not in impl.supported_isas:
        pytest.skip(f"ISA body {isa!r} cannot execute on this host "
                    f"(supported: {impl.supported_isas})")
    return impl.with_isa(isa)


#: Row lengths in bytes around every lane boundary of the micro-kernel:
#: below one word, one word ± 1, the 64-byte vector ± 1, the 72-byte rows
#: of the 64-channel 3×3 layers, and a long row.
ROW_BYTES = (1, 7, 8, 9, 31, 63, 64, 65, 72, 1152)


def fused_reference(a, b, thresh, flip, word_size):
    wc = bitpack.words_per_channel(b.shape[0], word_size)
    out = np.zeros((a.shape[0], wc), dtype=bitpack.word_dtype(word_size))
    bitpack.fused_xor_threshold_rows(a, b, thresh, flip, out, 0, a.shape[0],
                                     word_size)
    return out


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate a host with no C compiler and no prebuilt kernel cache."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    monkeypatch.setenv("REPRO_BACKEND_CACHE", str(tmp_path / "empty-cache"))
    backends._reset_for_tests()
    yield
    backends._reset_for_tests()


def _random_words(rng, shape, word_size):
    dtype = bitpack.word_dtype(word_size)
    return rng.integers(0, 2 ** word_size, size=shape, dtype=dtype)


class TestKernelBitExactness:
    """Per-kernel probes of the compiled backend against the NumPy reference."""

    @pytest.mark.parametrize("word_size", [8, 16, 32, 64])
    @pytest.mark.parametrize("cols", [1, 7, 64, 130])
    def test_fused_threshold_kernel(self, word_size, cols, rng):
        _, impl = compiled_impl()
        n_words = 5
        rows = 23
        a = _random_words(rng, (rows, n_words), word_size)
        b = _random_words(rng, (cols, n_words), word_size)
        length = n_words * word_size
        thresh = rng.integers(0, length, size=cols).astype(np.int32)
        flip = rng.integers(0, 2, size=cols).astype(bool)
        wc = bitpack.words_per_channel(cols, word_size)
        out_np = np.zeros((rows, wc), dtype=bitpack.word_dtype(word_size))
        out_c = np.zeros_like(out_np)
        # Split across row ranges so the tiling offsets are exercised.
        for r0, r1 in ((0, 9), (9, rows)):
            bitpack.fused_xor_threshold_rows(
                a, b, thresh, flip, out_np, r0, r1, word_size
            )
            impl.fused_xor_threshold_rows(
                a, b, thresh, flip, out_c, r0, r1, word_size
            )
        np.testing.assert_array_equal(out_np, out_c)

    @pytest.mark.parametrize("word_size", [8, 32, 64])
    def test_xor_popcount_gemm(self, word_size, rng):
        _, impl = compiled_impl()
        a = _random_words(rng, (17, 9), word_size)
        b = _random_words(rng, (12, 9), word_size)
        expected = bitpack.xor_popcount_gemm(a, b)
        got = np.empty_like(expected)
        impl.xor_popcount_gemm_rows(a, b, got, 0, 10)
        impl.xor_popcount_gemm_rows(a, b, got, 10, a.shape[0])
        np.testing.assert_array_equal(expected, got)

    @pytest.mark.parametrize("word_size", [8, 32, 64])
    @pytest.mark.parametrize("geometry", [
        (3, 1, 1), (3, 2, 1), (5, 2, 2), (2, 2, 0), (3, 1, 0),
    ])
    def test_packed_patch_extraction(self, word_size, geometry, rng):
        _, impl = compiled_impl()
        k, stride, padding = geometry
        packed = _random_words(rng, (2, 9, 7, 3), word_size)
        expected, oh, ow = binary_conv.packed_patch_matrix(
            packed, k, stride, padding
        )
        expected = np.ascontiguousarray(expected)
        got = np.empty_like(expected)
        impl.packed_patch_rows(packed, k, stride, padding, oh, ow,
                               got, 0, got.shape[0])
        np.testing.assert_array_equal(expected, got)


class TestMicroKernel:
    """The blocked xor-popcount kernel: every ISA body, every lane boundary."""

    def test_host_isa_bodies_are_reported(self, capsys):
        name, impl = compiled_impl()
        with capsys.disabled():
            print(f"\n[{name}] ISA bodies this host executes: "
                  f"{impl.supported_isas}; in use: {impl.isa}")
        assert impl.supported_isas[0] == "scalar"
        assert impl.isa == impl.supported_isas[-1]
        assert set(impl.supported_isas) <= set(cffi_backend.ISA_BODIES)
        with pytest.raises(ValueError):
            impl.with_isa("sve2")

    @pytest.mark.parametrize("isa", cffi_backend.ISA_BODIES)
    @pytest.mark.parametrize("n_bytes", ROW_BYTES)
    def test_row_lengths_and_tiles(self, isa, n_bytes, rng):
        kernel = isa_impl(isa)
        scalar = isa_impl("scalar")
        rows, cols = 11, 19  # neither a multiple of the 4x16 block
        a = rng.integers(0, 256, size=(rows, n_bytes), dtype=np.uint8)
        b = rng.integers(0, 256, size=(cols, n_bytes), dtype=np.uint8)
        length = 8 * n_bytes
        # Thresholds on both ends of the feasible count range [-1, L].
        thresh = rng.choice([-1, 0, length // 2, length - 1, length],
                            size=cols).astype(np.int32)
        flip = rng.integers(0, 2, size=cols).astype(bool)
        expected_counts = bitpack.xor_popcount_gemm(a, b)
        prepared = kernel.prepare_filters(b)
        for filters in (b, prepared):  # per-call and prepared interleave
            counts = np.full_like(expected_counts, -1)
            for r0, r1 in ((0, 5), (5, rows)):
                kernel.xor_popcount_gemm_rows(a, filters, counts, r0, r1)
            np.testing.assert_array_equal(counts, expected_counts)
        for word_size in (8, 16, 32, 64):
            expected = fused_reference(a, b, thresh, flip, word_size)
            got = np.full_like(expected, 0xA5)  # stale bits must be cleared
            direct = np.full_like(expected, 0x5A)
            for r0, r1 in ((0, 5), (5, rows)):
                kernel.fused_xor_threshold_rows(
                    a, prepared, thresh, flip, got, r0, r1, word_size)
                scalar.fused_xor_threshold_rows(
                    a, b, thresh, flip, direct, r0, r1, word_size)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(got, direct)

    @pytest.mark.parametrize("isa", cffi_backend.ISA_BODIES)
    def test_tile_writes_only_its_rows(self, isa, rng):
        kernel = isa_impl(isa)
        a = rng.integers(0, 256, size=(9, 72), dtype=np.uint8)
        b = rng.integers(0, 256, size=(33, 72), dtype=np.uint8)
        thresh = np.full(33, 288, dtype=np.int32)
        flip = np.zeros(33, dtype=bool)
        out = np.full((9, 1), 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
        kernel.fused_xor_threshold_rows(a, b, thresh, flip, out, 3, 7, 64)
        assert (out[:3] == 0xFFFF_FFFF_FFFF_FFFF).all()
        assert (out[7:] == 0xFFFF_FFFF_FFFF_FFFF).all()
        np.testing.assert_array_equal(
            out[3:7], fused_reference(a, b, thresh, flip, 64)[3:7])

    @pytest.mark.parametrize("isa", cffi_backend.ISA_BODIES)
    def test_offset_unaligned_and_strided_views(self, isa, rng):
        kernel = isa_impl(isa)
        n_bytes, cols = 65, 21
        raw = rng.integers(0, 256, size=1 + 30 * n_bytes, dtype=np.uint8)
        rows = raw[1:].reshape(30, n_bytes)      # odd base address
        a = rows[7:20]                           # contiguous row window
        b = rng.integers(0, 256, size=(cols, n_bytes), dtype=np.uint8)
        expected = bitpack.xor_popcount_gemm(a, b)
        got = np.empty_like(expected)
        kernel.xor_popcount_gemm_rows(a, b, got, 0, a.shape[0])
        np.testing.assert_array_equal(got, expected)
        # A column-strided operand has no packed-row layout to hand to C:
        # it is refused, never read with the wrong stride.
        with pytest.raises((ValueError, TypeError, BufferError)):
            kernel.xor_popcount_gemm_rows(
                rows[:, ::2], np.ascontiguousarray(b[:, ::2]), got, 0, 13)
        with pytest.raises(ValueError):  # mismatched packing widths
            kernel.xor_popcount_gemm_rows(a, b[:, :-1].copy(), got, 0, 13)

    @given(
        rows=st.integers(1, 9), cols=st.integers(1, 40),
        n_bytes=st.integers(1, 80), seed=st.integers(0, 2 ** 16),
        word_size=st.sampled_from([8, 16, 32, 64]),
    )
    def test_fused_matches_numpy_property(self, rows, cols, n_bytes, seed,
                                          word_size):
        _, impl = compiled_impl()
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(rows, n_bytes), dtype=np.uint8)
        b = rng.integers(0, 256, size=(cols, n_bytes), dtype=np.uint8)
        thresh = rng.integers(-1, 8 * n_bytes + 1, size=cols).astype(np.int32)
        flip = rng.integers(0, 2, size=cols).astype(bool)
        expected = fused_reference(a, b, thresh, flip, word_size)
        split = rows // 2
        for isa in impl.supported_isas:
            kernel = impl.with_isa(isa)
            got = np.zeros_like(expected)
            kernel.fused_xor_threshold_rows(
                a, b, thresh, flip, got, 0, split, word_size)
            kernel.fused_xor_threshold_rows(
                a, b, thresh, flip, got, split, rows, word_size)
            np.testing.assert_array_equal(got, expected, err_msg=isa)


def _single_layer_step(layer, input_shape, dtype):
    net = Network("probe", input_shape=input_shape, input_dtype=dtype)
    net.add(layer)
    return plan_mod.compile_plan(net).steps[-1]


class TestInputConvKernel:
    """Compiled exact-integer first layer vs the bit-plane interpreter."""

    @pytest.mark.parametrize("isa", cffi_backend.ISA_BODIES)
    @pytest.mark.parametrize("geometry", [
        (11, 4, 0), (3, 1, 1), (5, 2, 2), (1, 1, 0), (3, 2, 0),
    ])
    @pytest.mark.parametrize("cin,cout,word_size", [
        (3, 96, 64), (3, 16, 64), (1, 17, 8), (3, 40, 32),
    ])
    def test_matches_interpreter(self, isa, geometry, cin, cout, word_size,
                                 random_batchnorm, rng):
        kernel = isa_impl(isa)
        k, stride, padding = geometry
        layer = InputConv2d(cin, cout, k, stride=stride, padding=padding,
                            word_size=word_size, rng=3,
                            batchnorm=random_batchnorm(cout, seed=cout),
                            name="conv1")
        side = k + 3 * stride + 1
        step = _single_layer_step(layer, (side, side, cin), "uint8")
        assert isinstance(step, plan_mod.InputConvStep)
        assert backends.verify_fused_step(kernel, step)
        image = rng.integers(0, 256, size=(3, side, side, cin), dtype=np.uint8)
        image[0] = 0
        image[1] = 255  # |x1| reaches 255 * volume: the int32 accumulator
        x = Tensor(image, Layout.NHWC)
        expected = layer.forward(x)
        operands = step.lower(kernel)
        for row_tile in (None, 3):
            ctx = plan_mod._ExecContext(plan_mod.BufferArena(), None, 1,
                                        row_tile=row_tile)
            got = step.execute(x, ctx, kernel, operands)
            assert got.true_channels == cout
            np.testing.assert_array_equal(got.data, expected.data)

    def test_other_integer_dtypes_keep_the_numpy_path(self, rng):
        name, _ = compiled_impl()
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        plan.select_backend(name)
        image = rng.integers(
            0, 256, size=(2,) + tuple(network.input_shape)).astype(np.int16)
        np.testing.assert_array_equal(
            plan.execute(image, threads=1).data, network.forward(image).data)
        plan.select_backend("numpy")

    def test_oversized_patch_is_not_lowered(self):
        _, impl = compiled_impl()
        layer = InputConv2d(64, 8, 9, rng=1, name="wide")  # 9*9*64 > 4096
        step = _single_layer_step(layer, (12, 12, 64), "uint8")
        assert step.lower(impl) is None
        assert not backends.verify_fused_step(impl, step)


class TestPackedPoolKernel:
    @pytest.mark.parametrize("word_size", [8, 32, 64])
    @pytest.mark.parametrize("geometry", [
        (2, 2, 0), (3, 2, 0), (3, 1, 1), (2, 1, 0), (3, 3, 1),
    ])
    def test_matches_interpreter(self, word_size, geometry, rng):
        _, impl = compiled_impl()
        pool, stride, padding = geometry
        layer = MaxPool2d(pool, stride, padding, name="pool")
        packed = _random_words(rng, (3, 9, 7, 3), word_size)
        x = Tensor(packed, Layout.NHWC, packed=True,
                   true_channels=3 * word_size - 5)
        expected = layer.forward(x)
        n, oh, ow, wc = expected.data.shape
        got = np.full((n * oh * ow, wc), 0xFF, dtype=packed.dtype)
        for r0, r1 in ((0, 7), (7, n * oh * ow)):
            impl.packed_maxpool_rows(packed, pool, stride, padding, oh, ow,
                                     got, r0, r1)
        np.testing.assert_array_equal(got.reshape(expected.data.shape),
                                      expected.data)


class TestFloatHeadStep:
    """Lowered float heads (binary conv/dense, ``output_binary=False``)."""

    @staticmethod
    def _head_network(kind, random_batchnorm):
        """conv1 packs the stream; the head follows (via Flatten for dense).

        ``dense-reshape`` flattens 64 channels (a zero-copy reshape),
        ``dense-repack`` 70 (``Flatten.forward`` repacks); 21 head columns
        leave a partial 16-filter block.
        """
        channels = 64 if kind == "dense-reshape" else 70
        net = Network(f"head-{kind}", input_shape=(9, 9, 3), input_dtype="uint8")
        net.add(InputConv2d(3, channels, 3, padding=1, rng=1, name="conv1",
                            batchnorm=random_batchnorm(channels, seed=1)))
        if kind == "conv":
            net.add(BinaryConv2d(channels, 21, 3, stride=2, padding=1,
                                 output_binary=False, rng=2, name="head",
                                 batchnorm=random_batchnorm(21, seed=2)))
        else:
            net.add(Flatten(name="flatten"))
            net.add(BinaryDense(81 * channels, 21, output_binary=False, rng=2,
                                name="head", batchnorm=random_batchnorm(21, seed=2)))
        return net

    @pytest.mark.parametrize("isa", (None,) + cffi_backend.ISA_BODIES)
    @pytest.mark.parametrize("kind", ["conv", "dense-reshape", "dense-repack"])
    @pytest.mark.parametrize("batch_size", [1, 8, 64])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_forward(self, isa, kind, batch_size, threads,
                             random_batchnorm, rng):
        """``isa=None`` runs the NumPy path: the head GEMM in ``bitpack``."""
        network = self._head_network(kind, random_batchnorm)
        plan = plan_mod.compile_plan(network)
        head = plan.steps[-1]
        assert isinstance(head, plan_mod.PackedGemmStep)
        assert head.acc_threshold is None  # the affine epilogue
        assert isinstance(plan.steps[-2], plan_mod.PackedFlattenStep) == (
            kind == "dense-reshape")
        if isa is not None:
            kernel = isa_impl(isa)
            probe_rng = np.random.default_rng(0)
            for step in plan.steps:
                if step.fused:  # pin every lowered step to this ISA body
                    operands = step.verify(kernel, probe_rng)
                    assert operands is not None, step.describe
                    step.adopt(kernel, operands)
        assert (head.compiled is None) == (isa is None)
        images = rng.integers(0, 256, size=(batch_size, 9, 9, 3), dtype=np.uint8)
        expected = network.forward(images).data
        # 16-row tiles: several tiles per step, so two threads fan out.
        got = plan.execute(images, threads=threads, row_tile=16).data
        assert got.dtype == expected.dtype == np.float32
        np.testing.assert_array_equal(got, expected)

    def test_paper_nets_leave_only_float_layers_on_numpy(self):
        name, _ = compiled_impl()
        for model in ("AlexNet", "VGG16", "YOLOv2 Tiny"):
            plan = plan_mod.get_plan(zoo_network(model))
            report = plan.select_backend(name)
            on_numpy = [key for key, value in report.items() if value == "numpy"]
            assert on_numpy and all(
                "layer Dense(" in key or "layer FloatConv2d(" in key
                for key in on_numpy), (model, on_numpy)
            plan.select_backend("numpy")


class TestPlanMatchesInterpreter:
    """Compiled plans against ``Network.forward``, the end-to-end oracle."""

    @pytest.mark.parametrize("model", sorted(SERVING_MODELS))
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_zoo_plan_equals_forward(self, model, batch_size, rng):
        name, _ = compiled_impl()
        network = zoo_network(model)
        plan = plan_mod.get_plan(network)
        report = plan.select_backend(name)
        # Every lowered step adopted its compiled kernel.
        assert all(value == name for key, value in report.items()
                   if not key.split("] ")[1].startswith("layer "))
        images = rng.integers(
            0, 256, size=(batch_size,) + tuple(network.input_shape)
        ).astype(np.uint8)
        expected = network.forward(images).data
        for threads in (1, 2):
            np.testing.assert_array_equal(
                plan.execute(images, threads=threads).data, expected,
                err_msg=f"{model} batch={batch_size} threads={threads}")
        plan.select_backend("numpy")

    def test_interpreter_never_reaches_a_compiled_kernel(self, monkeypatch):
        name, impl = compiled_impl()
        network = zoo_network("TinyCNN")
        network.warm(name)

        def forbidden(*args, **kwargs):
            raise AssertionError("a compiled kernel was called")

        for method in ("fused_xor_threshold_rows", "xor_popcount_gemm_rows",
                       "packed_patch_rows", "packed_maxpool_rows",
                       "input_conv_threshold_rows"):
            monkeypatch.setattr(type(impl), method, forbidden)
        images = np.zeros((2,) + tuple(network.input_shape), dtype=np.uint8)
        network.forward(images)  # the oracle: pure NumPy
        with pytest.raises(AssertionError, match="compiled kernel"):
            plan_mod.get_plan(network).execute(images, threads=1)
        plan_mod.get_plan(network).select_backend("numpy")

    def test_forward_does_not_import_the_backends_package(self):
        import subprocess
        import sys

        code = (
            "import sys, numpy as np\n"
            "from repro.models.zoo import build_phonebit_network, "
            "get_serving_config\n"
            "net = build_phonebit_network(get_serving_config('MicroCNN'), rng=0)\n"
            "net.forward(np.zeros((1,) + tuple(net.input_shape), np.uint8))\n"
            "assert not [m for m in sys.modules if 'repro.core.backends' in m]\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_run_batch_does_not_import_serving(self):
        import subprocess
        import sys

        code = (
            "import sys, numpy as np\n"
            "from repro.core.engine import PhoneBitEngine\n"
            "from repro.models.zoo import build_phonebit_network, "
            "get_serving_config\n"
            "net = build_phonebit_network(get_serving_config('MicroCNN'), rng=0)\n"
            "PhoneBitEngine().run_batch(\n"
            "    net, np.zeros((1,) + tuple(net.input_shape), np.uint8))\n"
            "assert not [m for m in sys.modules if m.startswith('repro.serving')]\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class TestZooBitExactness:
    """Whole-network equality: compiled selection vs the NumPy plan."""

    @pytest.mark.parametrize("model", sorted(SERVING_MODELS))
    @pytest.mark.parametrize("threads", [1, 4])
    def test_compiled_matches_numpy(self, model, threads, rng):
        name, _ = compiled_impl()
        network = zoo_network(model)
        plan = plan_mod.get_plan(network)
        for batch_size in (1, 17, 64):
            images = rng.integers(
                0, 256, size=(batch_size,) + tuple(network.input_shape)
            ).astype(np.uint8)
            plan.select_backend("numpy")
            reference = plan.execute(images, threads=threads).data.copy()
            report = plan.select_backend(name)
            assert any(value == name for value in report.values()), (
                f"{model}: no step adopted the {name} backend"
            )
            compiled = plan.execute(images, threads=threads).data
            np.testing.assert_array_equal(
                reference, compiled,
                err_msg=f"{model} batch={batch_size} threads={threads}",
            )

    def test_selection_report_shape(self):
        name, _ = compiled_impl()
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        report = plan.select_backend(name)
        assert plan.backend_report()["backend"] == name
        assert set(report.values()) <= {"numpy", name}
        assert plan.backend_report()["isa"] in cffi_backend.ISA_BODIES
        for key, value in report.items():
            # Layer fallbacks never adopt compiled kernels; every lowered
            # step (input conv, conv, pool, dense) does.
            fallback = key.split("] ")[1].startswith("layer ")
            assert value == ("numpy" if fallback else name), key

    def test_selection_is_idempotent_and_switchable(self):
        name, impl = compiled_impl()
        network = zoo_network("MicroCNN")
        plan = plan_mod.get_plan(network)
        first = plan.select_backend(name)
        second = plan.select_backend(name)
        assert first == second
        assert any(
            getattr(step, "compiled", None) is impl for step in plan.steps
        )
        plan.select_backend("numpy")
        assert all(
            getattr(step, "compiled", None) is None for step in plan.steps
        )

    def test_backend_and_operands_switch_as_one_value(self):
        # A run racing select_backend reads ``step.lowering`` once; it must
        # never pair a backend with another backend's operands.
        name, impl = compiled_impl()
        plan = plan_mod.get_plan(zoo_network("MicroCNN"))
        lowered = [step for step in plan.steps if step.fused]
        plan.select_backend(name)
        for step in lowered:
            backend, operands = step.lowering
            assert backend is impl and operands is not None
        plan.select_backend("numpy")
        assert all(step.lowering == (None, None) for step in lowered)


class TestFallback:
    def test_explicit_compiled_backend_raises(self, no_toolchain):
        with pytest.raises(backends.BackendUnavailable):
            backends.resolve_backend("cffi")

    def test_auto_degrades_to_numpy_with_unchanged_results(
        self, no_toolchain, tiny_bnn_network, tiny_images
    ):
        plan = plan_mod.get_plan(tiny_bnn_network)
        report = plan.select_backend("auto")
        assert plan.backend_spec == "numpy"
        assert set(report.values()) == {"numpy"}
        out = plan.execute(tiny_images, threads=1)
        expected = tiny_bnn_network.forward(tiny_images)
        np.testing.assert_array_equal(out.data, expected.data)

    def test_availability_reports_reasons(self, no_toolchain):
        report = backends.availability()
        assert report["numpy"] is None
        assert isinstance(report["cffi"], str)  # a reason, not usable

    def test_engine_runs_with_masked_toolchain(self, no_toolchain,
                                               tiny_bnn_network, tiny_images):
        engine = PhoneBitEngine(num_threads=1)
        result = engine.run_batch(tiny_bnn_network, tiny_images,
                                  collect_estimate=False)
        np.testing.assert_array_equal(
            result.output.data, tiny_bnn_network.forward(tiny_images).data
        )
        assert engine.backend_report(tiny_bnn_network)["backend"] == "numpy"

    def test_mismatching_kernel_is_rejected_per_step(self, monkeypatch, rng):
        name, impl = compiled_impl()

        class Broken:
            """The real backend with one kernel corrupted after the call."""

            name = "broken"

            def __init__(self, inner, kernel):
                self._inner = inner
                self._kernel = kernel

            def __getattr__(self, attr):
                real = getattr(self._inner, attr)
                if attr != self._kernel:
                    return real

                def corrupted(*args, **kwargs):
                    real(*args, **kwargs)
                    out, r0, r1 = args[-3:] if attr != (
                        "fused_xor_threshold_rows") else args[4:7]
                    out[r0:r1] ^= 1  # flip a bit: must be caught by the probe

                return corrupted

        network = zoo_network("TinyCNN")
        plan = plan_mod.get_plan(network)
        plan.select_backend("numpy")
        kernel_of = {  # first match wins
            "float-head": "xor_popcount_gemm_rows",
            "input-conv": "input_conv_threshold_rows",
            "max-pool": "packed_maxpool_rows",
            "flatten(reshape)": None,  # runs no kernel: nothing to corrupt
            "conv(": "fused_xor_threshold_rows",
            "dense(": "fused_xor_threshold_rows",
        }
        seen = set()
        for step in plan.steps:
            if not getattr(step, "fused", False):
                continue
            kind = next(k for k in kernel_of if k in step.describe)
            seen.add(kind)
            assert backends.verify_fused_step(impl, step)
            if kernel_of[kind] is not None:
                assert not backends.verify_fused_step(
                    Broken(impl, kernel_of[kind]), step)
        assert {"input-conv", "conv(", "max-pool", "float-head",
                "flatten(reshape)"} <= seen

        # Whole-plan selection with a wrong input-conv, pool or plain GEMM
        # kernel: exactly those steps stay on NumPy, the rest adopt the
        # backend, and the plan's output is unchanged.
        images = rng.integers(
            0, 256, size=(4,) + tuple(network.input_shape)).astype(np.uint8)
        expected = network.forward(images).data
        for kernel, marker in (("input_conv_threshold_rows", "input-conv"),
                               ("packed_maxpool_rows", "max-pool"),
                               ("xor_popcount_gemm_rows", "float-head")):
            broken = Broken(impl, kernel)
            monkeypatch.setattr(backends, "resolve_backend",
                                lambda spec, b=broken: ("broken", b))
            report = backends.select_for_plan(plan, "cffi")
            for key, value in report.items():
                lowered = not key.split("] ")[1].startswith("layer ")
                rejected = marker in key
                assert value == ("broken" if lowered and not rejected
                                 else "numpy"), key
            np.testing.assert_array_equal(
                plan.execute(images, threads=1).data, expected)
            monkeypatch.undo()
        plan._backend_requested = None
        plan.select_backend("numpy")  # leave the shared plan clean


class TestEngineThreads:
    """The engine's one execution policy: thread precedence, then the floor."""

    def test_explicit_threads_beat_the_environment(self, monkeypatch):
        network = zoo_network("MicroCNN")
        images = np.zeros((2,) + tuple(network.input_shape), dtype=np.uint8)
        handed = []
        real_execute = plan_mod.ExecutionPlan.execute

        def spy(plan, x, threads=None, **kwargs):
            handed.append(threads)
            return real_execute(plan, x, threads=threads, **kwargs)

        monkeypatch.setattr(plan_mod.ExecutionPlan, "execute", spy)
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        for engine, expected in ((PhoneBitEngine(num_threads=5), 5),
                                 (PhoneBitEngine(), None)):
            handed.clear()
            engine.run(network, images)
            engine.run_batch(network, images, collect_estimate=False)
            assert handed == [expected, expected]
        # ``None`` leaves the choice to the plan, where the environment wins.
        assert default_num_threads() == 2

    def test_batch1_paper_net_runs_every_step_inline(self, monkeypatch, rng):
        name, _ = compiled_impl()
        config = dataclasses.replace(get_serving_config("VGG16"),
                                     input_shape=(64, 64, 3))
        network = build_phonebit_network(config, rng=7)

        class NoPool:
            def map(self, *args, **kwargs):
                raise AssertionError("a batch-1 step was fanned out")

        requested = []
        monkeypatch.setattr(plan_mod, "_shared_pool",
                            lambda threads: requested.append(threads) or NoPool())
        image = rng.integers(0, 256, size=(1, 64, 64, 3), dtype=np.uint8)
        engine = PhoneBitEngine(num_threads=2, backend=name)
        engine.run_batch(network, image, collect_estimate=False)
        assert requested == [2]  # fan-out was allowed; the floor declined it


class TestThreadValidation:
    """The single validation path shared by env and CLI counts."""

    @pytest.mark.parametrize("bad", ["0", "-2", "x", "2.5", ""])
    def test_env_override_rejected_consistently(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_NUM_THREADS", bad)
        if bad == "":
            assert default_num_threads() >= 1  # blank means "unset"
        else:
            with pytest.raises(ValueError, match="must be a positive integer"):
                default_num_threads()

    def test_positive_int_accepts_and_rejects(self):
        assert positive_int(4, "n") == 4
        assert positive_int("7", "n") == 7
        assert positive_int(2.0, "n") == 2
        for bad in (0, -1, 2.5, "nope", None):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                positive_int(bad, "n")

    def test_row_tile_validated_by_same_helper(self):
        with pytest.raises(ValueError, match="row_tile must be a positive"):
            plan_mod._row_tiles(100, 1, row_tile=0)


class TestTileWorkFloor:
    """Compiled steps too small to pay for a pool hand-off run inline."""

    def test_small_compiled_step_is_one_tile(self):
        floor = plan_mod._MIN_TILE_WORK
        row_work = 4608  # VGG16 conv2: 64 filters x 72 bytes
        rows = 4096
        assert rows * row_work < 2 * floor
        assert plan_mod._row_tiles(rows, 2, None, row_work) == [(0, rows)]
        assert plan_mod._row_tiles(rows, 1, None, row_work) == [(0, rows)]
        # Without a work estimate (NumPy kernels) the split is unchanged.
        assert len(plan_mod._row_tiles(rows, 2)) == 8

    def test_large_step_still_fans_out_with_floor_sized_tiles(self):
        floor = plan_mod._MIN_TILE_WORK
        row_work = 4608
        rows = 64 * 4096
        tiles = plan_mod._row_tiles(rows, 2, None, row_work)
        assert len(tiles) > 2
        assert tiles[0][0] == 0 and tiles[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        assert all((r1 - r0) * row_work >= floor for r0, r1 in tiles[:-1])

    def test_explicit_row_tile_wins(self):
        tiles = plan_mod._row_tiles(4096, 2, 128, 4608)
        assert tiles[0] == (0, 128) and len(tiles) == 32

    def test_inline_step_does_not_touch_the_pool(self):
        class NoPool:
            def map(self, *args, **kwargs):
                raise AssertionError("a sub-floor step was fanned out")

        ctx = plan_mod._ExecContext(plan_mod.BufferArena(), NoPool(), 2)
        seen = []
        ctx.run_tiles(4096, lambda r0, r1: seen.append((r0, r1)), 4608)
        assert seen == [(0, 4096)]


class TestCliSurface:
    def test_backend_choices_in_lockstep(self):
        from repro import cli

        assert tuple(cli.BACKEND_CHOICES) == tuple(backends.BACKEND_CHOICES)

    def test_parser_accepts_backend(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve-bench", "--backend", "numpy", "--batches", "1"]
        )
        assert args.backend == "numpy"
        worker = parser.parse_args(
            ["cluster-worker", "--connect", "tcp://127.0.0.1:1",
             "--backend", "cffi"]
        )
        assert worker.backend == "cffi"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-bench", "--backend", "fortran"])
