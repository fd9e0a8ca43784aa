"""Convolution layers: bit-plane input conv, fused binary conv, float conv.

``InputConv2d`` and ``BinaryConv2d`` implement the paper's fused
conv + batch-norm + binarize block: the convolution produces the integer
pre-activation ``x1`` via xor/popcount (or and/popcount for the bit-plane
input layer) and the output bit is obtained with the branchless threshold
operator of Eqn. (9), then packed along the channel dimension — all without
materializing intermediate float feature maps.

``FloatConv2d`` is the full-precision convolution used for the last layer of
the benchmark networks (e.g. conv9 of YOLOv2-Tiny), which the paper keeps in
float and accelerates only with vectorized dot products.
"""

from __future__ import annotations

import numpy as np

from repro.core import binary_conv, bitpack
from repro.core.binarize import binarize_sign
from repro.core.branchless import branchless_binarize
from repro.core.fusion import (
    BatchNormParams,
    affine_head_values,
    compute_threshold,
)
from repro.core.layers.base import Layer, ParamCount, require_rng
from repro.core.tensor import Layout, Tensor, conv_output_size


def _default_batchnorm(channels: int) -> BatchNormParams:
    """Identity batch-norm (γ=1, β=0, µ=0, σ²=1)."""
    return BatchNormParams(
        gamma=np.ones(channels),
        beta=np.zeros(channels),
        mean=np.zeros(channels),
        var=np.ones(channels),
    )


def _random_weight_bits(
    rng: np.random.Generator, kernel_size: int, in_channels: int, out_channels: int
) -> np.ndarray:
    """Random ±1 filter bank expressed as bits."""
    return rng.integers(
        0, 2, size=(kernel_size, kernel_size, in_channels, out_channels), dtype=np.uint8
    )


class _FusedBinaryConvBase(Layer):
    """Shared machinery for the two fused binary convolution layers."""

    #: Channel-count limit under which one thread computes 8 filters and
    #: packs their bits in private memory (Sec. VI-B); above it, packing
    #: runs as a separate pass.
    INTEGRATED_PACKING_LIMIT = 256

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        word_size: int = 64,
        output_binary: bool = True,
        weight_bits: np.ndarray | None = None,
        weights_packed: np.ndarray | None = None,
        batchnorm: BatchNormParams | None = None,
        bias: np.ndarray | None = None,
        rng=None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.word_size = word_size
        self.output_binary = output_binary

        if weights_packed is not None:
            if weight_bits is not None:
                raise ValueError("pass weight_bits or weights_packed, not both")
            self.adopt_packed_weights(weights_packed)
        else:
            rng = require_rng(rng)
            if weight_bits is None:
                weight_bits = _random_weight_bits(
                    rng, kernel_size, in_channels, out_channels
                )
            self.weight_bits = weight_bits

        self.batchnorm = batchnorm or _default_batchnorm(out_channels)
        if self.batchnorm.channels != out_channels:
            raise ValueError("batch-norm channel count must match out_channels")
        self.bias = (
            np.zeros(out_channels) if bias is None else np.asarray(bias, dtype=np.float64)
        )
        if self.bias.shape != (out_channels,):
            raise ValueError("bias must have one value per output channel")
        self.threshold = compute_threshold(self.batchnorm, self.bias)
        self.gamma = self.batchnorm.gamma

    @property
    def weight_bits(self) -> np.ndarray:
        """Binary filter bank as bits of shape ``(KH, KW, Cin, Cout)``.

        Derived from :attr:`weights_packed` on every read (read-only: assign
        to change the weights).  Nothing on the execution path reads it,
        so the layer never holds the 8× unpacked copy.
        """
        transposed = np.transpose(self._weights_packed, (1, 2, 3, 0))
        bits = bitpack.unpack_bits(transposed, self.in_channels, axis=2)
        bits.setflags(write=False)
        return bits

    @weight_bits.setter
    def weight_bits(self, bits: np.ndarray) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        expected = (
            self.kernel_size,
            self.kernel_size,
            self.in_channels,
            self.out_channels,
        )
        if bits.shape != expected:
            raise ValueError(f"weight bits must have shape {expected}, got {bits.shape}")
        self.adopt_packed_weights(
            binary_conv.pack_weights(bits, word_size=self.word_size)
        )

    def adopt_packed_weights(self, packed: np.ndarray) -> None:
        """Install a packed filter bank — the layer's only weight storage.

        ``packed`` must be shape ``(Cout, KH, KW, words)`` in the layer's
        word dtype, packed along the input-channel dimension (what
        :func:`repro.core.binary_conv.pack_weights` returns).  The array is
        served as-is (a shared-memory attach stays zero-copy) and frozen.
        """
        packed = np.asarray(packed)
        words = bitpack.words_per_channel(self.in_channels, self.word_size)
        expected = (self.out_channels, self.kernel_size, self.kernel_size, words)
        dtype = bitpack.word_dtype(self.word_size)
        if packed.shape != expected or packed.dtype != dtype:
            raise ValueError(
                f"packed weights must have shape {expected} and dtype {dtype}, "
                f"got {packed.shape} / {packed.dtype}"
            )
        if packed.flags.writeable:
            packed.setflags(write=False)
        # Published as a fresh view: execution plans key their validity on
        # the identity of weights_packed, so every assignment — even of the
        # same array — must change it or a stale plan could keep serving.
        self._weights_packed = packed.view()

    @property
    def weights_packed(self) -> np.ndarray:
        """Packed filters ``(Cout, KH, KW, words)``: frozen, replaced on assignment."""
        return self._weights_packed

    @property
    def uses_integrated_packing(self) -> bool:
        """Whether the workload rule keeps binarize+pack inside the conv thread."""
        return self.in_channels <= self.INTEGRATED_PACKING_LIMIT

    def output_shape(self, input_shape: tuple) -> tuple:
        h, w, c = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {c}"
            )
        oh = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (oh, ow, self.out_channels)

    def fused_output_bits(self, x1: np.ndarray) -> np.ndarray:
        """Output bits for integer pre-activations ``x1`` (Eqn. 9).

        This is the layer's *reference* decision function; the execution
        plan compiler extracts an equivalent integer threshold from it
        (:func:`repro.core.fusion.exact_integer_threshold`) so the fused
        kernels can test the xor-popcount accumulator directly.
        """
        return branchless_binarize(x1, self.threshold, self.gamma)

    def affine_values(self, x1: np.ndarray) -> np.ndarray:
        """Float head values for ``x1``: the folded BN affine, in float32."""
        return affine_head_values(self.batchnorm, self.bias, x1)

    @property
    def x1_magnitude_bound(self) -> int:
        """Largest possible ``|x1|`` — bounds the plan compiler's search."""
        return self.kernel_size ** 2 * self.in_channels

    def _finalize(self, x1: np.ndarray) -> Tensor:
        """Apply the fused threshold (or the float BN affine) to ``x1``."""
        if self.output_binary:
            bits = self.fused_output_bits(x1)
            packed = binary_conv.pack_activations(bits, word_size=self.word_size)
            return Tensor(
                packed, Layout.NHWC, packed=True, true_channels=self.out_channels
            )
        return Tensor(self.affine_values(x1), Layout.NHWC)

    def param_count(self) -> ParamCount:
        # From the geometry: accounting never unpacks weight_bits.
        weights = self.kernel_size ** 2 * self.in_channels * self.out_channels
        binary = weights + self.out_channels  # weights + γ signs
        return ParamCount(binary=binary, float32=self.out_channels)  # thresholds ξ


class InputConv2d(_FusedBinaryConvBase):
    """First-layer convolution on 8-bit integer images via bit-planes (Eqn. 2)."""

    def __init__(self, *args, input_bits: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.input_bits = input_bits

    @property
    def x1_magnitude_bound(self) -> int:
        # The integer convolution of Eqn. (2): |I·W| <= (2^bits - 1)·K²·Cin.
        return ((1 << self.input_bits) - 1) * self.kernel_size ** 2 * self.in_channels

    def forward(self, x: Tensor) -> Tensor:
        if x.packed:
            raise ValueError(f"{self.name}: expected an unpacked integer image")
        image = np.asarray(x.data)
        if image.dtype.kind not in "ui":
            raise ValueError(f"{self.name}: expected an integer image, got {image.dtype}")
        x1 = binary_conv.input_conv2d_bitplanes(
            image,
            self.weights_packed,
            true_channels=self.in_channels,
            kernel_size=self.kernel_size,
            stride=self.stride,
            padding=self.padding,
            input_bits=self.input_bits,
            word_size=self.word_size,
        )
        return self._finalize(x1)


class BinaryConv2d(_FusedBinaryConvBase):
    """Fused binary convolution + batch-norm + binarization layer (Eqn. 1/8/9)."""

    def forward(self, x: Tensor) -> Tensor:
        if x.packed:
            packed = x.data
            true_channels = x.true_channels
        else:
            bits = binarize_sign(x.data)
            packed = binary_conv.pack_activations(bits, word_size=self.word_size)
            true_channels = int(x.data.shape[-1])
        if true_channels != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {true_channels}"
            )
        x1 = binary_conv.binary_conv2d_packed(
            packed,
            self.weights_packed,
            true_channels=self.in_channels,
            kernel_size=self.kernel_size,
            stride=self.stride,
            padding=self.padding,
        )
        return self._finalize(x1)


class FloatConv2d(Layer):
    """Full-precision convolution layer (used for final prediction layers)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
        activation: str | None = None,
        weights: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        rng=None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if activation not in (None, "relu", "leaky_relu"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = use_bias
        self.activation = activation

        rng = require_rng(rng)
        shape = (kernel_size, kernel_size, in_channels, out_channels)
        if weights is None:
            weights = rng.standard_normal(shape) * np.sqrt(2.0 / (kernel_size**2 * in_channels))
        self.weights = np.asarray(weights, dtype=np.float32)
        if self.weights.shape != shape:
            raise ValueError(f"weights must have shape {shape}, got {self.weights.shape}")
        if bias is None:
            bias = np.zeros(out_channels)
        self.bias = np.asarray(bias, dtype=np.float32)

    def output_shape(self, input_shape: tuple) -> tuple:
        h, w, c = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {c}"
            )
        oh = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (oh, ow, self.out_channels)

    def forward(self, x: Tensor) -> Tensor:
        if x.packed:
            raise ValueError(f"{self.name}: float convolution cannot consume packed bits")
        out = binary_conv.conv2d_float_nhwc(
            np.asarray(x.data, dtype=np.float64),
            self.weights,
            stride=self.stride,
            padding=self.padding,
            bias=self.bias if self.use_bias else None,
        )
        if self.activation == "relu":
            out = np.maximum(out, 0.0)
        elif self.activation == "leaky_relu":
            out = np.where(out > 0, out, 0.1 * out)
        return Tensor(out.astype(np.float32), Layout.NHWC)

    def param_count(self) -> ParamCount:
        count = self.weights.size + (self.out_channels if self.use_bias else 0)
        return ParamCount(float32=int(count))
