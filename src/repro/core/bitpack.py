"""Channel-dimension bit packing and packed binary arithmetic.

PhoneBit packs the bits of binarized activations and weights along the
channel dimension into machine words (``uchar`` .. ``ulong`` and the OpenCL
vector types built on top of them, Sec. V-A2).  A binary dot product between
two packed vectors then reduces to ``xor`` + ``popcount`` (Eqn. 1):

    a · b = Len − 2 · popcount(xor(a, b))

where bit ``1`` encodes the value ``+1`` and bit ``0`` encodes ``−1`` and
``Len`` is the *unpadded* vector length.  Channel counts that are not a
multiple of the word size are zero-padded; because both operands share the
padding, the padded bits xor to zero and never perturb the popcount.

The first network layer receives 8-bit integer inputs rather than ±1 values.
Its bit-planes are unipolar ({0, 1}); the dot product of a unipolar vector
``x`` with a bipolar vector ``w`` uses ``and`` instead of ``xor``:

    x · w = 2 · popcount(and(x, w)) − popcount(x)

Popcount dispatch (the OpenCL kernels use the native ``popcount`` builtin):

* ``np.bitwise_count`` — the hardware popcount ufunc, used whenever the
  installed NumPy provides it (NumPy ≥ 2.0).
* :func:`popcount_swar` — a branch-free SWAR fallback that stays in-register
  (shift/mask arithmetic in the word's own dtype, no byte expansion).
* :func:`popcount_lut` — the original 256-entry byte-LUT gather, kept as the
  naive reference the micro-benchmarks compare against.

The tiled GEMM entry points :func:`xor_popcount_gemm` and
:func:`and_popcount_gemm` evaluate all-pairs packed dot products with
bounded working-set temporaries; they are the building blocks of the
convolution and dense kernels.
"""

from __future__ import annotations

import numpy as np

#: Word widths supported by the packing kernels, mirroring the OpenCL scalar
#: types used by PhoneBit (uchar, ushort, uint, ulong).
SUPPORTED_WORD_SIZES = (8, 16, 32, 64)

_WORD_DTYPES = {
    8: np.uint8,
    16: np.uint16,
    32: np.uint32,
    64: np.uint64,
}

#: Little-endian dtypes used to (re)interpret packed byte streams as words,
#: so the "bit i of the word holds element i" layout is platform independent.
_LE_WORD_DTYPES = {size: np.dtype(f"<u{size // 8}") for size in SUPPORTED_WORD_SIZES}

#: Whether the installed NumPy exposes the hardware popcount ufunc.
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte popcount lookup table backing :func:`popcount_lut`.
_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

#: SWAR constants per word width: (mask_1, mask_2, mask_4, ones_replicated,
#: final_shift).  The classic branch-free popcount: pairwise bit sums, then
#: nibble sums, then a multiply that accumulates all byte counts into the
#: top byte.
_SWAR_CONSTANTS = {
    8: (0x55, 0x33, 0x0F, 0x01, 0),
    16: (0x5555, 0x3333, 0x0F0F, 0x0101, 8),
    32: (0x55555555, 0x33333333, 0x0F0F0F0F, 0x01010101, 24),
    64: (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x0101010101010101,
        56,
    ),
}

#: Tile sizes for the all-pairs popcount GEMMs.  The working set of one tile
#: is ``ROW_TILE × COL_TILE × n_words`` words regardless of problem size;
#: 128 rows keeps the broadcast xor/popcount temporaries L2-resident, which
#: measures ~20% faster than 512-row tiles on the development container.
_GEMM_ROW_TILE = 128
_GEMM_COL_TILE = 64


def word_dtype(word_size: int) -> np.dtype:
    """Return the NumPy dtype backing a packing word of ``word_size`` bits."""
    try:
        return np.dtype(_WORD_DTYPES[word_size])
    except KeyError:
        raise ValueError(
            f"unsupported word size {word_size}; expected one of {SUPPORTED_WORD_SIZES}"
        ) from None


def words_per_channel(channels: int, word_size: int) -> int:
    """Number of packing words needed to hold ``channels`` bits.

    Examples
    --------
    >>> words_per_channel(64, 64)
    1
    >>> words_per_channel(65, 64)   # padding rounds the last word up
    2
    >>> words_per_channel(3, 8)
    1
    """
    if channels <= 0:
        raise ValueError("channel count must be positive")
    word_dtype(word_size)
    return (channels + word_size - 1) // word_size


def pack_bits(bits: np.ndarray, word_size: int = 64, axis: int = -1) -> np.ndarray:
    """Pack an array of {0, 1} bits along ``axis`` into unsigned words.

    Bits are packed little-endian within each word (bit ``i`` of the word
    holds element ``i`` of the group), and the axis is zero-padded up to a
    multiple of ``word_size``.  Implemented as one ``np.packbits`` pass plus
    a little-endian dtype view, so no 64-wide shift/sum temporaries are
    materialized.

    Parameters
    ----------
    bits:
        Array whose values are 0 or 1 (any integer or boolean dtype).
    word_size:
        Packing word width in bits (8, 16, 32 or 64).
    axis:
        Axis along which to pack (the channel axis for NHWC tensors).

    Returns
    -------
    numpy.ndarray
        Array with the packed axis reduced by a factor of ``word_size``
        (rounded up), of dtype ``uint{word_size}``.

    Examples
    --------
    Bit ``i`` of each word holds element ``i`` of its group (little-endian):

    >>> import numpy as np
    >>> pack_bits(np.array([1, 0, 1, 1]), word_size=8)
    array([13], dtype=uint8)
    >>> packed = pack_bits(np.ones((2, 70), dtype=np.uint8), word_size=64)
    >>> packed.shape   # 70 bits -> 2 little-endian uint64 words per row
    (2, 2)
    """
    bits = np.asarray(bits)
    if bits.size and bits.dtype != np.bool_ and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("pack_bits expects an array of 0/1 values")
    return _pack01(bits, word_size, axis)


def _pack01(bits: np.ndarray, word_size: int, axis: int) -> np.ndarray:
    """Pack already-validated {0, 1} bits (the hot-path core of :func:`pack_bits`).

    The fused plan kernels produce boolean comparison results that are 0/1
    by construction, so they skip :func:`pack_bits`'s min/max validation
    pass over the full array.
    """
    dtype = word_dtype(word_size)
    bits = np.moveaxis(np.asarray(bits), axis, -1)
    length = bits.shape[-1]
    n_words = words_per_channel(length, word_size)
    bytes_per_word = word_size // 8
    if bits.dtype != np.bool_:
        bits = bits.astype(np.uint8, copy=False)
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    padded_bytes = n_words * bytes_per_word
    if packed8.shape[-1] != padded_bytes:
        pad = np.zeros(
            packed8.shape[:-1] + (padded_bytes - packed8.shape[-1],), dtype=np.uint8
        )
        packed8 = np.concatenate([packed8, pad], axis=-1)
    packed8 = np.ascontiguousarray(packed8)
    words = packed8.view(_LE_WORD_DTYPES[word_size]).astype(dtype, copy=False)
    return np.ascontiguousarray(np.moveaxis(words, -1, axis))


def unpack_bits(packed: np.ndarray, length: int, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`pack_bits`.

    Parameters
    ----------
    packed:
        Packed word array produced by :func:`pack_bits`.
    length:
        True (unpadded) number of bits to recover along ``axis``.
    axis:
        Axis holding the packed words.

    Examples
    --------
    >>> import numpy as np
    >>> bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    >>> restored = unpack_bits(pack_bits(bits, word_size=8), 3)
    >>> np.array_equal(bits, restored)
    True
    """
    packed = np.asarray(packed)
    word_size = packed.dtype.itemsize * 8
    word_dtype(word_size)
    moved = np.ascontiguousarray(np.moveaxis(packed, axis, -1))
    as_bytes = moved.astype(_LE_WORD_DTYPES[word_size], copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little", count=length)
    return np.ascontiguousarray(np.moveaxis(bits, -1, axis))


def popcount_lut(words: np.ndarray) -> np.ndarray:
    """Byte-LUT popcount — the naive reference implementation.

    Expands every word into its bytes and gathers a 256-entry table; kept
    for cross-checking and as the baseline the micro-benchmarks measure the
    fast paths against.
    """
    words = np.asarray(words)
    if words.dtype.kind != "u":
        raise ValueError("popcount expects an unsigned integer array")
    contiguous = np.ascontiguousarray(words)
    as_bytes = contiguous.view(np.uint8).reshape(words.shape + (words.dtype.itemsize,))
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.int64)


def popcount_swar(words: np.ndarray) -> np.ndarray:
    """Branch-free SWAR popcount in the array's own word width.

    Pure shift/mask arithmetic (no LUT gather, no byte expansion): pairwise
    bit sums, nibble sums, then a replicated-ones multiply that accumulates
    the byte counts into the top byte.  Returns the same shape with the
    input's dtype (each count fits easily: ≤ 64).

    Examples
    --------
    >>> import numpy as np
    >>> int(popcount_swar(np.array([0xFF], dtype=np.uint8))[0])
    8
    >>> int(popcount_swar(np.array([0xF0F0F0F0], dtype=np.uint32))[0])
    16
    """
    words = np.asarray(words)
    if words.dtype.kind != "u":
        raise ValueError("popcount expects an unsigned integer array")
    width = words.dtype.itemsize * 8
    m1, m2, m4, ones, shift = _SWAR_CONSTANTS[width]
    t = words.dtype.type
    x = words.copy()
    x -= (x >> t(1)) & t(m1)
    x = (x & t(m2)) + ((x >> t(2)) & t(m2))
    x = (x + (x >> t(4))) & t(m4)
    if shift:
        x = (x * t(ones)) >> t(shift)
    return x


if HAS_BITWISE_COUNT:

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element popcount in a narrow dtype (no int64 widening)."""
        words = np.asarray(words)
        if words.dtype.kind != "u":
            raise ValueError("popcount expects an unsigned integer array")
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on NumPy < 2.0

    popcount_words = popcount_swar


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned integer array (int64).

    Dispatches to ``np.bitwise_count`` when available (NumPy ≥ 2), else the
    SWAR fallback — both bit-exact with :func:`popcount_lut`.

    Examples
    --------
    >>> import numpy as np
    >>> popcount(np.array([0, 1, 255], dtype=np.uint8))
    array([0, 1, 8])
    """
    return popcount_words(words).astype(np.int64)


def _reduce_counts(counts: np.ndarray, dtype) -> np.ndarray:
    """Sum a ``(rows, cols, n_words)`` popcount tile over its word axis.

    ``np.einsum`` compiles to a specialized SIMD reduction that measures
    ~5× faster than ``ndarray.sum`` over this short trailing axis; the
    explicit ``dtype`` widens the per-word counts before accumulation.
    ``casting="unsafe"`` admits the SWAR fallback's unsigned counts (each
    is at most the word width, so the signed cast cannot lose anything).
    """
    return np.einsum("ijk->ij", counts, dtype=dtype, casting="unsafe")


def _popcount_gemm(a, b, op, out):
    """Shared tiling/validation for the all-pairs popcount reductions."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("popcount GEMM expects 2-D packed matrices")
    if a.dtype != b.dtype:
        raise ValueError("operands must share the same packed dtype")
    if a.shape[1] != b.shape[1]:
        raise ValueError("operand packing widths do not match")
    rows, cols = a.shape[0], b.shape[0]
    if out is None:
        out = np.empty((rows, cols), dtype=np.int64)
    for i0 in range(0, rows, _GEMM_ROW_TILE):
        i1 = min(i0 + _GEMM_ROW_TILE, rows)
        a_tile = a[i0:i1, None, :]
        for j0 in range(0, cols, _GEMM_COL_TILE):
            j1 = min(j0 + _GEMM_COL_TILE, cols)
            x = op(a_tile, b[None, j0:j1, :])
            out[i0:i1, j0:j1] = _reduce_counts(popcount_words(x), np.int64)
    return out


def xor_popcount_gemm(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """All-pairs xor/popcount reduction: ``out[i, j] = Σ_k popc(a[i,k]^b[j,k])``.

    ``a`` has shape ``(rows, n_words)``, ``b`` has shape ``(cols, n_words)``.
    The computation is tiled over both rows and columns so the broadcast
    xor/popcount temporaries stay at ``ROW_TILE × COL_TILE × n_words`` words
    no matter how large the operands are.

    Examples
    --------
    A packed ±1 dot product is ``Len − 2 · disagreements`` (Eqn. 1):

    >>> import numpy as np
    >>> a = pack_bits(np.array([[1, 1, 0, 0]]), word_size=8)  # + + - -
    >>> b = pack_bits(np.array([[1, 0, 0, 1]]), word_size=8)  # + - - +
    >>> disagree = xor_popcount_gemm(a, b)
    >>> int(4 - 2 * disagree[0, 0])   # two agreements, two disagreements
    0
    """
    return _popcount_gemm(a, b, np.bitwise_xor, out)


def xor_popcount_gemm_rows(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, row_start: int, row_stop: int
) -> None:
    """Rows ``[row_start, row_stop)`` of :func:`xor_popcount_gemm` into ``out``.

    Same signature as the compiled backends' row-tile GEMM, so the plan
    executor drives the NumPy and the compiled kernel through one body.
    """
    xor_popcount_gemm(a[row_start:row_stop], b, out=out[row_start:row_stop])


def and_popcount_gemm(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """All-pairs and/popcount reduction: ``out[i, j] = Σ_k popc(a[i,k]&b[j,k])``.

    Same tiling as :func:`xor_popcount_gemm`; used by the unipolar
    (bit-plane) dot product of Eqn. (2).
    """
    return _popcount_gemm(a, b, np.bitwise_and, out)


def fused_xor_threshold_rows(
    a: np.ndarray,
    b: np.ndarray,
    acc_threshold: np.ndarray,
    flip: np.ndarray,
    out_words: np.ndarray,
    row_start: int,
    row_stop: int,
    word_size: int,
) -> None:
    """Fused xor-popcount GEMM tile → accumulator threshold → packed bits.

    For rows ``[row_start, row_stop)`` of the packed operand ``a`` (shape
    ``(rows, n_words)``) against all of ``b`` (shape ``(cols, n_words)``)::

        bit[i, j] = (Σ_k popc(a[i, k] ^ b[j, k]) <= acc_threshold[j]) ^ flip[j]

    packed little-endian along ``j`` into ``out_words[row_start:row_stop]``.
    The threshold test runs directly on the xor/popcount *accumulator*
    (the disagreement count), so the ±1 pre-activation ``x1 = Len − 2·d``
    is never materialized — the execution plan folds the Eqn. (5–8) fused
    threshold ξ into the accumulator domain at compile time.

    The per-call working set is ``(rows_in_tile × COL_TILE × n_words)``
    words plus one boolean tile; disjoint row ranges touch disjoint output
    rows, which is what makes the plan executor's thread fan-out safe.
    """
    cols = b.shape[0]
    rows = a[row_start:row_stop]
    bits = np.empty((rows.shape[0], cols), dtype=np.bool_)
    for j0 in range(0, cols, _GEMM_COL_TILE):
        j1 = min(j0 + _GEMM_COL_TILE, cols)
        x = np.bitwise_xor(rows[:, None, :], b[None, j0:j1, :])
        # int32 accumulation: a disagreement count is at most the kernel
        # volume, so the narrow accumulator halves the reduction's memory
        # traffic relative to the generic int64 GEMM.
        d = _reduce_counts(popcount_words(x), np.int32)
        np.less_equal(d, acc_threshold[j0:j1], out=bits[:, j0:j1])
    np.logical_xor(bits, flip, out=bits)
    out_words[row_start:row_stop] = _pack01(bits, word_size, axis=1)


def threshold_pack_rows(
    x1: np.ndarray,
    threshold: np.ndarray,
    flip: np.ndarray,
    out_words: np.ndarray,
    row_start: int,
    row_stop: int,
    word_size: int,
) -> None:
    """Integer threshold + bit pack for rows of a pre-activation matrix.

    ``bit[i, j] = (x1[i, j] >= threshold[j]) ^ flip[j]``, packed along ``j``
    into ``out_words[row_start:row_stop]``.  Used by the plan executor for
    the bit-plane input convolution, whose multi-plane accumulation already
    materialized ``x1`` — the comparison stays in the integer domain instead
    of round-tripping through float64 as the layerwise path does.
    """
    rows = x1[row_start:row_stop]
    bits = rows >= threshold
    np.logical_xor(bits, flip, out=bits)
    out_words[row_start:row_stop] = _pack01(bits, word_size, axis=1)


def packed_xor_popcount(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum of ``popcount(xor(a, b))`` along ``axis``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype != b.dtype:
        raise ValueError("operands must share the same packed dtype")
    return popcount_words(np.bitwise_xor(a, b)).sum(axis=axis, dtype=np.int64)


def packed_dot_bipolar(a: np.ndarray, b: np.ndarray, length: int, axis: int = -1) -> np.ndarray:
    """Binary (±1) dot product of two packed bit vectors — Eqn. (1).

    Parameters
    ----------
    a, b:
        Packed words with identical shapes and dtypes, where bit 1 encodes
        +1 and bit 0 encodes −1.
    length:
        True (unpadded) vector length ``Len``.
    axis:
        Axis along which the packed words of a single vector lie.
    """
    disagree = packed_xor_popcount(a, b, axis=axis)
    return length - 2 * disagree


def packed_dot_unipolar(x: np.ndarray, w: np.ndarray, axis: int = -1) -> np.ndarray:
    """Dot product of a unipolar ({0,1}) packed vector with a bipolar one.

    Used by the first-layer bit-plane convolution (Eqn. 2): ``x`` holds a
    bit-plane of the 8-bit input, ``w`` holds ±1 weights packed as bits.

        x · w = 2 · popcount(and(x, w)) − popcount(x)
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if x.dtype != w.dtype:
        raise ValueError("operands must share the same packed dtype")
    overlap = popcount_words(np.bitwise_and(x, w)).sum(axis=axis, dtype=np.int64)
    ones = popcount_words(x).sum(axis=axis, dtype=np.int64)
    return 2 * overlap - ones


def select_word_size(channels: int, preferred: int = 64) -> int:
    """Pick the packing word width for a given channel count.

    PhoneBit "selects the optimal bit packing strategy and computing kernel
    according to channel dimensions" (Sec. V-A2): small channel counts use
    narrow words to avoid wasting padding bits, larger ones use the widest
    supported word.
    """
    if channels <= 0:
        raise ValueError("channel count must be positive")
    word_dtype(preferred)
    for size in SUPPORTED_WORD_SIZES:
        if size > preferred:
            break
        if channels <= size:
            return size
    return preferred


def packing_efficiency(channels: int, word_size: int) -> float:
    """Fraction of packed bits that carry real channel data (1.0 = no waste)."""
    n_words = words_per_channel(channels, word_size)
    return channels / float(n_words * word_size)
