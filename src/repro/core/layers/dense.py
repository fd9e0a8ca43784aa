"""Dense (fully connected) layers: fused binary and full precision.

``BinaryDense`` mirrors :class:`repro.core.layers.conv.BinaryConv2d` for
1-D activations: the weight matrix is packed along the input-feature
dimension, the dot product uses xor/popcount (Eqn. 1) and the output is
binarized with the fused threshold of Eqn. (8)/(9).  ``Dense`` is the float
classifier head kept at full precision (the last layer of the AlexNet and
VGG16 benchmarks).
"""

from __future__ import annotations

import numpy as np

from repro.core import bitpack
from repro.core.binarize import binarize_sign
from repro.core.branchless import branchless_binarize
from repro.core.fusion import (
    BatchNormParams,
    affine_head_values,
    compute_threshold,
)
from repro.core.layers.base import Layer, ParamCount, require_rng
from repro.core.tensor import Layout, Tensor


def _pack_dense_weights(weight_bits: np.ndarray, word_size: int) -> np.ndarray:
    """Pack a dense weight matrix along its input-feature dimension."""
    return np.ascontiguousarray(
        bitpack.pack_bits(weight_bits, word_size=word_size, axis=0).T
    )


def _default_batchnorm(features: int) -> BatchNormParams:
    return BatchNormParams(
        gamma=np.ones(features),
        beta=np.zeros(features),
        mean=np.zeros(features),
        var=np.ones(features),
    )


class BinaryDense(Layer):
    """Fused binary fully connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
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
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.word_size = word_size
        self.output_binary = output_binary

        if weights_packed is not None:
            if weight_bits is not None:
                raise ValueError("pass weight_bits or weights_packed, not both")
            self.adopt_packed_weights(weights_packed)
        else:
            rng = require_rng(rng)
            if weight_bits is None:
                weight_bits = rng.integers(
                    0, 2, size=(in_features, out_features), dtype=np.uint8
                )
            self.weight_bits = weight_bits

        self.batchnorm = batchnorm or _default_batchnorm(out_features)
        if self.batchnorm.channels != out_features:
            raise ValueError("batch-norm feature count must match out_features")
        self.bias = (
            np.zeros(out_features) if bias is None else np.asarray(bias, dtype=np.float64)
        )
        self.threshold = compute_threshold(self.batchnorm, self.bias)
        self.gamma = self.batchnorm.gamma

    @property
    def weight_bits(self) -> np.ndarray:
        """Binary weight matrix as bits of shape ``(in_features, out_features)``.

        Derived from :attr:`weights_packed` on every read (read-only: assign
        to change the weights); the execution path never reads it.
        """
        bits = bitpack.unpack_bits(
            np.ascontiguousarray(self._weights_packed.T), self.in_features, axis=0
        )
        bits.setflags(write=False)
        return bits

    @weight_bits.setter
    def weight_bits(self, bits: np.ndarray) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.in_features, self.out_features):
            raise ValueError(
                f"weight bits must have shape {(self.in_features, self.out_features)}, "
                f"got {bits.shape}"
            )
        self.adopt_packed_weights(_pack_dense_weights(bits, self.word_size))

    def adopt_packed_weights(self, packed: np.ndarray) -> None:
        """Install a packed weight matrix — the layer's only weight storage.

        ``packed`` must be shape ``(out_features, words)`` in the layer's
        word dtype, packed along the input-feature dimension.  The array is
        served as-is (a shared-memory attach stays zero-copy) and frozen.
        """
        packed = np.asarray(packed)
        words = bitpack.words_per_channel(self.in_features, self.word_size)
        expected = (self.out_features, words)
        dtype = bitpack.word_dtype(self.word_size)
        if packed.shape != expected or packed.dtype != dtype:
            raise ValueError(
                f"packed weights must have shape {expected} and dtype {dtype}, "
                f"got {packed.shape} / {packed.dtype}"
            )
        if packed.flags.writeable:
            packed.setflags(write=False)
        # A fresh view per assignment: plans key their validity on the
        # identity of weights_packed (see the conv layers).
        self._weights_packed = packed.view()

    @property
    def weights_packed(self) -> np.ndarray:
        """Weights packed along the input-feature dimension: (out_features, n_words)."""
        return self._weights_packed

    def output_shape(self, input_shape: tuple) -> tuple:
        features = int(np.prod(input_shape))
        if features != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {features}"
            )
        return (self.out_features,)

    def fused_output_bits(self, x1: np.ndarray) -> np.ndarray:
        """Output bits for integer pre-activations ``x1`` (Eqn. 9).

        Reference decision function consumed by the execution-plan compiler
        (see :meth:`repro.core.layers.conv._FusedBinaryConvBase.fused_output_bits`).
        """
        return branchless_binarize(x1, self.threshold, self.gamma)

    def affine_values(self, x1: np.ndarray) -> np.ndarray:
        """Float head values for ``x1``: the folded BN affine, in float32."""
        return affine_head_values(self.batchnorm, self.bias, x1)

    @property
    def x1_magnitude_bound(self) -> int:
        """Largest possible ``|x1|`` — bounds the plan compiler's search."""
        return self.in_features

    def forward(self, x: Tensor) -> Tensor:
        if x.packed:
            if x.data.ndim != 2:
                raise ValueError(f"{self.name}: packed input must be flattened first")
            packed = x.data
            features = x.true_channels
        else:
            data = np.asarray(x.data).reshape(x.data.shape[0], -1)
            bits = binarize_sign(data)
            packed = bitpack.pack_bits(bits, word_size=self.word_size, axis=1)
            features = data.shape[1]
        if features != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {features}"
            )
        disagree = bitpack.xor_popcount_gemm(packed, self.weights_packed)
        x1 = self.in_features - 2 * disagree
        if self.output_binary:
            bits = self.fused_output_bits(x1)
            out_packed = bitpack.pack_bits(bits, word_size=self.word_size, axis=1)
            return Tensor(out_packed, Layout.NHWC, packed=True,
                          true_channels=self.out_features)
        return Tensor(self.affine_values(x1), Layout.NHWC)

    def param_count(self) -> ParamCount:
        # From the geometry: accounting never unpacks weight_bits.
        binary = self.in_features * self.out_features + self.out_features
        return ParamCount(binary=binary, float32=self.out_features)


class Dense(Layer):
    """Full-precision fully connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        activation: str | None = None,
        weights: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        rng=None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if activation not in (None, "relu", "softmax"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = use_bias
        self.activation = activation

        rng = require_rng(rng)
        if weights is None:
            weights = rng.standard_normal((in_features, out_features)) * np.sqrt(
                2.0 / in_features
            )
        self.weights = np.asarray(weights, dtype=np.float32)
        if self.weights.shape != (in_features, out_features):
            raise ValueError(
                f"weights must have shape {(in_features, out_features)}, "
                f"got {self.weights.shape}"
            )
        self.bias = np.zeros(out_features, dtype=np.float32) if bias is None else np.asarray(
            bias, dtype=np.float32
        )

    def output_shape(self, input_shape: tuple) -> tuple:
        features = int(np.prod(input_shape))
        if features != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {features}"
            )
        return (self.out_features,)

    def forward(self, x: Tensor) -> Tensor:
        if x.packed:
            # A float head following a binary layer consumes the packed bits
            # as ±1 values (the engine unpacks them on the fly).
            bits = bitpack.unpack_bits(x.data, x.true_channels, axis=-1)
            data = (2.0 * bits.astype(np.float64) - 1.0).reshape(x.data.shape[0], -1)
        else:
            data = np.asarray(x.data, dtype=np.float64).reshape(x.data.shape[0], -1)
        out = data @ self.weights.astype(np.float64)
        if self.use_bias:
            out = out + self.bias
        if self.activation == "relu":
            out = np.maximum(out, 0.0)
        elif self.activation == "softmax":
            shifted = out - out.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            out = exp / exp.sum(axis=1, keepdims=True)
        return Tensor(out.astype(np.float32), Layout.NHWC)

    def param_count(self) -> ParamCount:
        count = self.weights.size + (self.out_features if self.use_bias else 0)
        return ParamCount(float32=int(count))
