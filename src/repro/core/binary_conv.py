"""Binary convolution kernels (Eqn. 1) and the bit-plane input convolution (Eqn. 2).

All kernels operate on NHWC activations (the PhoneBit data layout) and store
binary weights packed along the channel dimension, exactly as the OpenCL
kernels in the paper do.  The functional results are bit-exact with a float
reference convolution over ±1 values, which the test-suite verifies.

Spatial zero padding pads packed words with 0, i.e. padded pixels behave as
all-(−1) activations.  The float reference used for verification therefore
pads with −1 as well (``pad_value=-1``); this mirrors how a real BNN kernel
treats padding when ``Len`` in Eqn. (1) is the full kernel volume.

Kernel structure (Sec. V/VI of the paper, mapped to NumPy):

* Patch extraction uses a zero-copy ``sliding_window_view`` over the padded
  activation tensor.  1×1 convolutions never materialize a patch matrix at
  all (pure reshape/stride slicing); K×K convolutions gather the window view
  into the patch matrix with a single vectorized copy instead of a Python
  loop over (kh, kw).
* The all-pairs dot products run through the 2-D tiled popcount GEMMs in
  :mod:`repro.core.bitpack`, which block over both patches and filters so
  broadcast temporaries have a bounded working set.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core import bitpack
from repro.core.binarize import bitplane_weights, split_bitplanes
from repro.core.tensor import conv_output_size, pad_spatial_nhwc


#: Byte budget for one bit-plane's temporaries in
#: :func:`input_conv2d_bitplanes` (patch matrix + int64 GEMM result).
_PLANE_CHUNK_BYTES = 4 << 20


def im2col_nhwc(
    x: np.ndarray,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
    pad_value: float = 0.0,
) -> np.ndarray:
    """Extract convolution patches from an NHWC tensor.

    Returns an array of shape ``(N, OH, OW, KH*KW*C)`` whose last axis is
    ordered ``(kh, kw, c)`` — channels innermost, matching the NHWC layout
    and therefore the packed-word ordering.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected NHWC input, got shape {x.shape}")
    n, h, w, c = x.shape
    oh = conv_output_size(h, kernel_size, stride, padding)
    ow = conv_output_size(w, kernel_size, stride, padding)
    windows = _conv_windows(x, kernel_size, stride, padding, pad_value)
    return np.ascontiguousarray(windows).reshape(n, oh, ow, kernel_size * kernel_size * c)


def _conv_windows(
    x: np.ndarray,
    kernel_size: int,
    stride: int,
    padding: int,
    pad_value: float,
) -> np.ndarray:
    """Strided ``(N, OH, OW, KH, KW, C)`` view of all convolution windows.

    The result is a zero-copy view into the (possibly padded) input with the
    trailing axes ordered ``(kh, kw, c)`` to match the packed NHWC layout.
    """
    padded = pad_spatial_nhwc(x, padding, value=pad_value) if padding else x
    windows = sliding_window_view(padded, (kernel_size, kernel_size), axis=(1, 2))
    # sliding_window_view appends the window axes: (N, OH', OW', C, KH, KW).
    windows = windows[:, ::stride, ::stride]
    return windows.transpose(0, 1, 2, 4, 5, 3)


def gather_patches_nhwc(
    x: np.ndarray,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
    pad_value: float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gather convolution windows into a flat ``(N*OH*OW, KH*KW*C)`` matrix.

    Like :func:`im2col_nhwc` but with an optional preallocated destination;
    ``out`` may have a different dtype than ``x`` (the copy casts), which
    lets the plan executor gather integer image patches directly into a
    reusable float64 arena buffer for the exact-GEMM input convolution.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected NHWC input, got shape {x.shape}")
    n, h, w, c = x.shape
    oh = conv_output_size(h, kernel_size, stride, padding)
    ow = conv_output_size(w, kernel_size, stride, padding)
    if out is None:
        patches = im2col_nhwc(x, kernel_size, stride, padding, pad_value)
        return patches.reshape(n * oh * ow, kernel_size * kernel_size * c)
    windows = _conv_windows(x, kernel_size, stride, padding, pad_value)
    np.copyto(out.reshape(n, oh, ow, kernel_size, kernel_size, c), windows)
    return out


def packed_patch_matrix(
    x_packed: np.ndarray,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Flattened ``(N*OH*OW, KH*KW*Wc)`` patch matrix for packed activations.

    Returns ``(patches, oh, ow)``.  For 1×1 kernels the matrix is a reshape
    of a strided slice — zero-copy when stride is 1 — so pointwise binary
    convolutions skip im2col entirely.

    ``out`` optionally supplies a preallocated ``(N*OH*OW, KH*KW*Wc)``
    destination for the gathered windows; the execution plan's buffer arena
    passes one so repeated inferences reuse a single patch buffer instead of
    allocating (and page-faulting) a fresh one per convolution.  The
    zero-copy 1×1/stride-1 path ignores ``out``.
    """
    x_packed = np.asarray(x_packed)
    if x_packed.ndim != 4:
        raise ValueError(f"expected packed NHWC input, got shape {x_packed.shape}")
    n, h, w, wc = x_packed.shape
    oh = conv_output_size(h, kernel_size, stride, padding)
    ow = conv_output_size(w, kernel_size, stride, padding)
    if kernel_size == 1 and padding == 0:
        sliced = x_packed[:, ::stride, ::stride, :]
        if out is None or stride == 1:
            return sliced.reshape(n * oh * ow, wc), oh, ow
        np.copyto(out.reshape(n, oh, ow, wc), sliced)
        return out, oh, ow
    flat = gather_patches_nhwc(
        x_packed, kernel_size, stride, padding, pad_value=0, out=out
    )
    return flat, oh, ow


def conv2d_float_nhwc(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    pad_value: float = 0.0,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Reference float convolution on NHWC activations.

    Parameters
    ----------
    x:
        Input of shape ``(N, H, W, Cin)``.
    weights:
        Filter bank of shape ``(KH, KW, Cin, Cout)`` with ``KH == KW``.
    stride, padding:
        Convolution stride and symmetric spatial padding.
    pad_value:
        Value used for spatial padding (−1 when emulating binary padding).
    bias:
        Optional per-output-channel bias of shape ``(Cout,)``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    kh, kw, cin, cout = weights.shape
    if kh != kw:
        raise ValueError("only square kernels are supported")
    patches = im2col_nhwc(
        np.asarray(x, dtype=np.float64), kh, stride, padding, pad_value
    )
    flat_w = weights.reshape(kh * kw * cin, cout)
    out = patches @ flat_w
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)
    return out


def pack_weights(weight_bits: np.ndarray, word_size: int = 64) -> np.ndarray:
    """Pack binary filter weights along the input-channel dimension.

    Parameters
    ----------
    weight_bits:
        Bits of shape ``(KH, KW, Cin, Cout)`` (1 ↦ +1, 0 ↦ −1).
    word_size:
        Packing word width.

    Returns
    -------
    numpy.ndarray
        Packed filters of shape ``(Cout, KH, KW, ceil(Cin/word_size))``.
    """
    weight_bits = np.asarray(weight_bits)
    if weight_bits.ndim != 4:
        raise ValueError(f"expected (KH, KW, Cin, Cout) bits, got {weight_bits.shape}")
    packed = bitpack.pack_bits(weight_bits, word_size=word_size, axis=2)
    return np.ascontiguousarray(np.transpose(packed, (3, 0, 1, 2)))


def pack_activations(activation_bits: np.ndarray, word_size: int = 64) -> np.ndarray:
    """Pack binarized NHWC activations along the channel dimension."""
    activation_bits = np.asarray(activation_bits)
    if activation_bits.ndim != 4:
        raise ValueError(f"expected NHWC bits, got shape {activation_bits.shape}")
    return bitpack.pack_bits(activation_bits, word_size=word_size, axis=3)


def binary_conv2d_packed(
    x_packed: np.ndarray,
    weights_packed: np.ndarray,
    true_channels: int,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Binary convolution on packed activations and filters — Eqn. (1).

    Parameters
    ----------
    x_packed:
        Packed NHWC activations of shape ``(N, H, W, Wc)``.
    weights_packed:
        Packed filters of shape ``(Cout, KH, KW, Wc)`` from :func:`pack_weights`.
    true_channels:
        Unpadded input channel count ``Cin``.
    kernel_size, stride, padding:
        Convolution geometry.

    Returns
    -------
    numpy.ndarray
        Integer pre-activations ``x1`` of shape ``(N, OH, OW, Cout)``; each
        value equals the ±1 dot product over the kernel volume.
    """
    x_packed = np.asarray(x_packed)
    weights_packed = np.asarray(weights_packed)
    cout = weights_packed.shape[0]
    n = x_packed.shape[0]
    patches, oh, ow = packed_patch_matrix(x_packed, kernel_size, stride, padding)
    flat_filters = weights_packed.reshape(cout, -1)
    if flat_filters.shape[1] != patches.shape[1]:
        raise ValueError("activation and filter packing widths do not match")
    length = kernel_size * kernel_size * true_channels
    disagree = bitpack.xor_popcount_gemm(patches, flat_filters)
    # x1 = length - 2 * disagree, computed in place on the GEMM output.
    np.multiply(disagree, -2, out=disagree)
    disagree += length
    return disagree.reshape(n, oh, ow, cout)


def binary_conv2d_reference(
    x_bits: np.ndarray,
    weight_bits: np.ndarray,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Float reference for :func:`binary_conv2d_packed` (±1 arithmetic)."""
    x_values = 2.0 * np.asarray(x_bits, dtype=np.float64) - 1.0
    w_values = 2.0 * np.asarray(weight_bits, dtype=np.float64) - 1.0
    out = conv2d_float_nhwc(
        x_values, w_values, stride=stride, padding=padding, pad_value=-1.0
    )
    return np.rint(out).astype(np.int64)


def input_conv2d_bitplanes(
    image: np.ndarray,
    weights_packed: np.ndarray,
    true_channels: int,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
    input_bits: int = 8,
    word_size: int | None = None,
) -> np.ndarray:
    """First-layer convolution of an integer image with binary weights (Eqn. 2).

    The 8-bit image is split into bit-planes; each unipolar plane is packed
    and convolved with the ±1 weights using the and/popcount dot product,
    then the plane results are recombined with their power-of-two weights.

    Parameters
    ----------
    image:
        Unsigned integer NHWC image of shape ``(N, H, W, Cin)``.
    weights_packed:
        Packed ±1 filters of shape ``(Cout, KH, KW, Wc)``.
    true_channels:
        Unpadded input channel count (3 for RGB images).
    input_bits:
        Bit width of the integer input (8 for uint8 images).
    word_size:
        Packing word width used for the activations; inferred from the
        packed weights when omitted.

    Returns
    -------
    numpy.ndarray
        Integer pre-activations of shape ``(N, OH, OW, Cout)`` equal to the
        exact integer convolution ``I · W``.
    """
    image = np.asarray(image)
    weights_packed = np.asarray(weights_packed)
    if word_size is None:
        word_size = weights_packed.dtype.itemsize * 8
    planes = split_bitplanes(image, bits=input_bits)
    weights = bitplane_weights(input_bits)
    cout = weights_packed.shape[0]
    flat_filters = weights_packed.reshape(cout, -1)
    n, h, w = image.shape[:3]
    oh = conv_output_size(h, kernel_size, stride, padding)
    ow = conv_output_size(w, kernel_size, stride, padding)
    out = np.empty((n, oh, ow, cout), dtype=np.int64)
    # Images go through in chunks sized so one plane's temporaries (patch
    # matrix + int64 GEMM result) fit a fixed byte budget, and the weighted
    # plane sum accumulates in place in ``out``: the peak above the result
    # itself does not grow with the batch.
    per_image = oh * ow * (
        cout * 8 + flat_filters.shape[1] * flat_filters.dtype.itemsize
    )
    chunk = max(1, min(n, _PLANE_CHUNK_BYTES // max(1, per_image)))
    scratch = np.empty((chunk * oh * ow, cout), dtype=np.int64)
    for start in range(0, n, chunk):
        acc = out[start:start + chunk].reshape(-1, cout)
        for plane_index in range(input_bits):
            plane_packed = pack_activations(
                planes[plane_index, start:start + chunk], word_size=word_size
            )
            patches, _, _ = packed_patch_matrix(
                plane_packed, kernel_size, stride, padding
            )
            if flat_filters.shape[1] != patches.shape[1]:
                raise ValueError(
                    "activation and filter packing widths do not match"
                )
            overlap = bitpack.and_popcount_gemm(
                patches, flat_filters, out=scratch[:patches.shape[0]]
            )
            # x · w = 2·popc(x & w) − popc(x); popc(x) is shared by all
            # filters, so compute it once per patch row instead of once
            # per filter block.
            ones = bitpack.popcount_words(patches).sum(axis=-1, dtype=np.int64)
            np.multiply(overlap, 2, out=overlap)
            overlap -= ones[:, None]
            if plane_index == 0:
                np.multiply(overlap, int(weights[0]), out=acc)
            else:
                np.multiply(overlap, int(weights[plane_index]), out=overlap)
                acc += overlap
    return out


def input_conv2d_reference(
    image: np.ndarray,
    weight_bits: np.ndarray,
    kernel_size: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Exact integer reference for :func:`input_conv2d_bitplanes`."""
    w_values = 2.0 * np.asarray(weight_bits, dtype=np.float64) - 1.0
    out = conv2d_float_nhwc(
        np.asarray(image, dtype=np.float64),
        w_values,
        stride=stride,
        padding=padding,
        pad_value=0.0,
    )
    return np.rint(out).astype(np.int64)
