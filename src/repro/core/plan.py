"""Ahead-of-time execution plans: fused thresholds, buffer arena, threading.

``Network.forward`` interprets a network layer by layer; every binary block
re-derives packed inputs, materializes an int64 pre-activation map, converts
it to float64 for the Eqn. (9) comparison and allocates fresh intermediates.
An :class:`ExecutionPlan` compiles the network once instead:

* **Pattern matching / lowering** — ``InputConv2d``/``BinaryConv2d``/
  ``BinaryDense`` blocks (including the *unfused* three-layer spelling
  ``conv → BatchNorm2d → Binarize`` the converter emits for baseline
  frameworks) are lowered to fused packed steps.  The per-channel threshold
  ξ of Eqns. (5–8) is extracted as an exact **integer** decision boundary
  (:func:`repro.core.fusion.exact_integer_threshold`) and, for the
  xor-popcount layers, folded into the *accumulator* domain: the kernel
  tests the raw disagreement count and emits packed bits directly, so
  neither the ±1 pre-activation ``x1`` nor any unpacked/float intermediate
  is ever materialized between binary blocks.  Binary conv and dense are
  one operator, :class:`PackedGemmStep`: an xor-popcount GEMM over packed
  rows (or patches gathered inside the row tiles) ending in a threshold
  epilogue, or — for the *float heads*, binary layers with
  ``output_binary=False`` — an affine epilogue that feeds the layer's own
  batch-norm affine.  The exact-integer input convolution, whose operand
  is the image rather than packed words, is :class:`InputConvStep`.  On a
  packed stream ``MaxPool2d`` (bitwise OR of packed words) and ``Flatten``
  (a zero-copy reshape when words hold whole pixels) are lowered too; the
  NumPy path of a pool is the layer's own ``forward``.
* **Arena memory planning** — activations in a sequential chain die as soon
  as the next step has consumed them, so fused outputs ping-pong between
  two arena slots and all patch gathers share one scratch slot.  Arenas are
  pooled per plan and reused across ``run_batch`` chunks and serving
  requests; concurrent executions each borrow their own arena.
* **Multi-threaded tile execution** — fused GEMMs split their patch rows
  into tiles dispatched on a shared thread pool (NumPy releases the GIL in
  the xor/popcount/packbits inner loops).  ``REPRO_NUM_THREADS`` (or the
  engine's ``num_threads``) controls the fan-out; the default is
  ``os.cpu_count()``.

Plans are cached on the network (:func:`get_plan`) and validated by
identity snapshots of every array they were compiled from, so a weight or
batch-norm reassignment can never be served by a stale plan.  Layers whose pattern does not match run through
their ordinary ``forward`` as fallback steps; plan outputs are bit-identical
to ``Network.forward`` by construction (enforced by tests and the
``bench_fused_exec`` benchmark).
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import binary_conv, bitpack
from repro.core.binarize import binarize_sign
from repro.core.fusion import exact_integer_threshold
from repro.core.layers import (
    BatchNorm2d,
    Binarize,
    BinaryConv2d,
    BinaryDense,
    Flatten,
    InputConv2d,
    MaxPool2d,
)
from repro.core.tensor import Layout, Tensor, conv_output_size

#: Upper bound on the rows one fused tile processes (matches the bounded
#: working set of the tiled popcount GEMMs in :mod:`repro.core.bitpack`).
_ROW_TILE = 512

#: Lower bound on tile rows when splitting for the thread pool — below this
#: the per-task dispatch overhead beats the parallelism.
_MIN_ROW_TILE = 64

#: Lower bound on the work of one *compiled* tile, in byte-pair operations
#: (rows × filters × row bytes).  Derived from two measurements on the
#: 2-vCPU sandbox: one ``pool.map`` hand-off costs 30–40 µs at the median
#: (70+ µs at p99, when the worker has to be woken) plus ~10 µs per extra
#: tile, and the AVX-512 kernels retire ~100 k byte-pairs per µs.  A tile
#: is worth a hand-off only when it carries several times that cost —
#: 2^24 byte-pairs ≈ 170 µs of kernel time — so a step under two such
#: tiles runs inline on the calling thread.  At batch 1 that is every step
#: of the three paper networks (the largest is 18.9 M byte-pairs).
_MIN_TILE_WORK = 1 << 24


def positive_int(value, name: str) -> int:
    """Validate ``value`` as a positive integer (the single validation path).

    Every thread-count source — the ``REPRO_NUM_THREADS`` environment
    override and the CLI's ``--threads`` — funnels through this helper, so
    they cannot disagree on what counts as valid or how the error reads.
    """
    try:
        parsed = int(value)
    except (TypeError, ValueError):
        parsed = 0
    if parsed < 1 or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return parsed


def default_num_threads() -> int:
    """Thread fan-out for fused tile execution.

    ``REPRO_NUM_THREADS`` overrides (validated by :func:`positive_int`);
    the default is ``os.cpu_count()``.
    """
    env = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if env:
        return positive_int(env, "REPRO_NUM_THREADS")
    return os.cpu_count() or 1


_POOL_LOCK = threading.Lock()
_POOLS: Dict[int, ThreadPoolExecutor] = {}


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """Process-wide executor per fan-out (workers are reused, never torn down)."""
    with _POOL_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-tiles-{threads}"
            )
            _POOLS[threads] = pool
        return pool


def _reset_pools_after_fork() -> None:
    """Drop inherited thread-pool handles in a forked child.

    A ``fork()``ed child inherits the parent's ``_POOLS`` dict, but not the
    pool *threads* — submitting to an inherited executor would hang forever.
    The cluster workers (``repro.serving.cluster``) fork after the parent
    has warmed plans, so fresh pools must be lazily rebuilt in the child.
    """
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()  # the inherited lock may be mid-acquire
    _POOLS.clear()


if hasattr(os, "register_at_fork"):  # POSIX only; spawn contexts start clean
    os.register_at_fork(after_in_child=_reset_pools_after_fork)


def _row_tiles(rows: int, threads: int, row_tile: Optional[int] = None,
               row_work: Optional[int] = None) -> List[Tuple[int, int]]:
    """Split ``rows`` into contiguous tile ranges for (threaded) execution.

    ``row_tile`` overrides the built-in upper bound (verification probes
    and tests use it to force split tiles).  ``row_work`` is the cost of
    one row on a compiled kernel (byte-pair operations); when given, and no
    explicit ``row_tile`` says otherwise, tiles are widened until each
    carries :data:`_MIN_TILE_WORK`.
    """
    tile = _ROW_TILE if row_tile is None else positive_int(row_tile, "row_tile")
    if threads > 1:
        # Aim for a few tiles per worker so uneven tile costs still balance,
        # without shrinking tiles below the dispatch-overhead floor.
        balanced = -(-rows // (threads * 4))
        tile = min(tile, max(_MIN_ROW_TILE, balanced))
    if row_tile is None and row_work:
        # No more tiles than can each carry the floor; fewer than two
        # means one tile, which run_tiles executes inline.
        affordable = max(1, rows * row_work // _MIN_TILE_WORK)
        tile = max(tile, -(-rows // affordable))
    return [(r0, min(r0 + tile, rows)) for r0 in range(0, rows, tile)]


class BufferArena:
    """Named, grow-only scratch buffers reused across plan executions.

    A slot is a flat byte buffer that only ever grows; :meth:`view` returns
    a typed window of the requested shape.  One arena is used by exactly one
    execution at a time (the plan keeps a free-list), so views need no
    locking — liveness is guaranteed by the plan's slot assignment, not by
    reference counting.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def view(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = np.empty(max(nbytes, 1), dtype=np.uint8)
            self._buffers[name] = buf
        return buf[:nbytes].view(dtype).reshape(shape)

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is a view into one of this arena's buffers."""
        base = array
        while isinstance(base, np.ndarray):
            for buf in self._buffers.values():
                if base is buf:
                    return True
            base = base.base
        return False

    @property
    def nbytes(self) -> int:
        """Bytes currently held across all slots."""
        return sum(buf.nbytes for buf in self._buffers.values())


class _ExecContext:
    """Per-execution resources handed to every step."""

    __slots__ = ("arena", "pool", "threads", "row_tile")

    def __init__(self, arena: BufferArena, pool: Optional[ThreadPoolExecutor],
                 threads: int, row_tile: Optional[int] = None) -> None:
        self.arena = arena
        self.pool = pool
        self.threads = threads
        self.row_tile = row_tile

    def run_tiles(self, rows: int, work: Callable[[int, int], None],
                  row_work: Optional[int] = None) -> None:
        """Run ``work(r0, r1)`` over row tiles, fanned out when possible.

        Steps running a compiled kernel pass ``row_work`` so a step too
        small to pay for a pool dispatch runs inline (see
        :data:`_MIN_TILE_WORK`).
        """
        tiles = _row_tiles(rows, self.threads, self.row_tile, row_work)
        if self.pool is None or len(tiles) <= 1:
            for r0, r1 in tiles:
                work(r0, r1)
            return
        # list() drains the iterator so worker exceptions propagate here.
        list(self.pool.map(lambda t: work(t[0], t[1]), tiles))


class LayerStep:
    """Fallback step: execute one layer through its ordinary ``forward``."""

    fused = False

    def __init__(self, layer, layer_index: int) -> None:
        self.layer = layer
        self.layer_start = layer_index
        self.layer_stop = layer_index + 1

    @property
    def describe(self) -> str:
        return f"layer {type(self.layer).__name__}({self.layer.name})"

    def run(self, x: Tensor, ctx: _ExecContext) -> Tensor:
        return self.layer.forward(x)


class _LoweredStep:
    """A plan step with its own lowering (anything but a layer fallback).

    A lowered step always has a NumPy path (``compiled is None``) and may
    *adopt* a compiled backend: :func:`repro.core.backends.select_for_plan`
    attaches one only after :meth:`verify` showed the backend's kernels
    reproduce the step's reference bit for bit on a probe input.
    """

    fused = True

    def __init__(self, layer, layer_start: int, layer_stop: int) -> None:
        self.layer = layer
        self.layer_start = layer_start
        self.layer_stop = layer_stop
        #: ``(backend, operands)``: the adopted compiled backend (``None``
        #: runs the NumPy path) and what it prepared for this step at
        #: adoption (interleaved filters, …).  One attribute, so a run that
        #: races a backend switch sees a matching pair.
        self.lowering = (None, None)

    @property
    def compiled(self):
        return self.lowering[0]

    def adopt(self, impl, operands=None) -> None:
        """Switch the step to ``impl`` (``None``: back to NumPy)."""
        self.lowering = (impl, operands)

    @property
    def _folds(self) -> str:
        """``describe`` suffix of a step that folds several layers."""
        span = self.layer_stop - self.layer_start
        return "" if span == 1 else f" [folds {span} layers]"

    def run(self, x: Tensor, ctx: _ExecContext) -> Tensor:
        compiled, operands = self.lowering
        return self.execute(x, ctx, compiled, operands)

    def reference(self, x: Tensor) -> np.ndarray:
        """What the probe must reproduce: by default the step's NumPy path."""
        ctx = _ExecContext(BufferArena(), None, 1)
        return self.execute(x, ctx, None, None).data

    def verify(self, impl, rng: np.random.Generator):
        """Operands ``impl`` prepared for this step, or ``None`` on any mismatch.

        Runs the step on a small synthetic input — on the step's real
        filters and thresholds, over its real geometry (padding borders,
        image offsets), in 5-row tiles so tile offsets and both the
        4-row block and the single-row tail of the kernels are exercised
        — and compares with :meth:`reference`.
        """
        operands = self.lower(impl)
        if operands is None:
            return None
        x = self.probe_input(rng)
        expected = self.reference(x)
        ctx = _ExecContext(BufferArena(), None, 1, row_tile=5)
        got = self.execute(x, ctx, impl, operands).data
        if (got.shape != expected.shape or got.dtype != expected.dtype
                or not np.array_equal(got, expected)):
            return None
        return operands


def _probe_extent(kernel_size: int, stride: int, padding: int) -> int:
    """Probe image side: three output positions, one fully interior."""
    return max(kernel_size, kernel_size + 2 * stride - 2 * padding)


def _random_packed(rng, shape, word_size: int) -> np.ndarray:
    dtype = np.dtype(bitpack.word_dtype(word_size))
    return rng.integers(0, 2 ** (8 * dtype.itemsize), size=shape, dtype=dtype)


def _conv_shape(layer) -> str:
    """``describe`` fragment of a convolution: name, channels and geometry."""
    return (
        f"{layer.name}: {layer.in_channels}→{layer.out_channels} "
        f"k{layer.kernel_size} s{layer.stride} p{layer.padding}"
    )


def _conv_patches(layer, packed: np.ndarray, ctx: _ExecContext, compiled):
    """Patch matrix of a packed convolution input: ``(patches, gather, oh, ow)``.

    ``gather(r0, r1)`` — when not ``None`` — must run before rows
    ``[r0, r1)`` of ``patches`` are read: with a compiled backend the
    gather is folded into the row tiles, so it is threaded too and its
    output stays cache-hot for the GEMM that consumes it.
    """
    n, h, w, wc_in = packed.shape
    k = layer.kernel_size
    oh = conv_output_size(h, k, layer.stride, layer.padding)
    ow = conv_output_size(w, k, layer.stride, layer.padding)
    rows = n * oh * ow
    gather = None
    if k == 1 and layer.padding == 0 and layer.stride == 1:
        patches = packed.reshape(rows, wc_in)  # zero-copy, no gather buffer
    elif compiled is not None:
        patches = ctx.arena.view("patch", (rows, k * k * wc_in), packed.dtype)

        def gather(r0, r1):
            compiled.packed_patch_rows(
                packed, k, layer.stride, layer.padding, oh, ow, patches, r0, r1,
            )
    else:
        patch_out = ctx.arena.view("patch", (rows, k * k * wc_in), packed.dtype)
        patches, _, _ = binary_conv.packed_patch_matrix(
            packed, k, layer.stride, layer.padding, out=patch_out
        )
    return patches, gather, oh, ow


class InputConvStep(_LoweredStep):
    """Fused exact-integer input convolution → threshold → packed bits (Eqn. 2).

    The first layer's operand is the integer image itself, not packed
    words.  The NumPy path lowers it to an exact float64 GEMM: the 8-bit
    integer convolution's every intermediate is an integer far below
    2^53, so BLAS dgemm reproduces the bit-plane accumulation of Eqn. (2)
    bit-exactly while running orders of magnitude faster on CPU (the
    bit-plane kernels model the paper's GPU popcount path and survive as
    the layerwise reference).  A compiled backend computes the same
    integers in int32 straight from the uint8 image.
    """

    def __init__(self, layer, layer_start: int, layer_stop: int,
                 threshold: np.ndarray, flip: np.ndarray,
                 out_word_size: int, out_slot: str) -> None:
        super().__init__(layer, layer_start, layer_stop)
        #: Integer x1-domain decision boundary: bit = (x1 >= threshold) ^ flip.
        self.threshold = threshold
        self.flip = flip
        self.out_word_size = out_word_size
        self.out_slot = out_slot
        self.weights_packed = layer.weights_packed  # compile-time snapshot
        bits = bitpack.unpack_bits(
            self.weights_packed, layer.in_channels, axis=-1
        ).reshape(layer.out_channels, -1)  # (Cout, KH·KW·Cin)
        self.float_weights = np.ascontiguousarray(
            (2.0 * bits.astype(np.float64) - 1.0).T
        )

    @property
    def describe(self) -> str:
        return (
            f"fused input-conv(exact-int) {_conv_shape(self.layer)}, "
            f"w{self.out_word_size} packed out{self._folds}"
        )

    def lower(self, impl):
        return impl.prepare_input_conv(
            self.weights_packed, self.layer.in_channels, self.threshold, self.flip,
        )

    def probe_input(self, rng) -> Tensor:
        layer = self.layer
        side = _probe_extent(layer.kernel_size, layer.stride, layer.padding)
        image = rng.integers(
            0, 1 << min(layer.input_bits, 8),
            size=(2, side, side, layer.in_channels), dtype=np.uint8,
        )
        return Tensor(image, Layout.NHWC)

    def reference(self, x: Tensor) -> np.ndarray:
        if self.layer_stop - self.layer_start == 1:
            # The bit-plane interpreter (Eqn. 2) itself; a folded
            # conv → BN → Binarize block has no single-layer reference and
            # is probed against the exact-GEMM NumPy path instead.
            return self.layer.forward(x).data
        return super().reference(x)

    def execute(self, x: Tensor, ctx: _ExecContext, compiled, operands) -> Tensor:
        layer = self.layer
        if x.packed:
            raise ValueError(f"{layer.name}: expected an unpacked integer image")
        image = np.asarray(x.data)
        if image.dtype.kind not in "ui":
            raise ValueError(
                f"{layer.name}: expected an integer image, got {image.dtype}"
            )
        # Same range validation the bit-plane path applies in
        # ``split_bitplanes``: the exact convolution would happily take
        # out-of-range values, but the compiled thresholds were only
        # bisected over the ``input_bits`` range — and the interpreter
        # raises, so the plan must too.  (A uint8 image cannot leave the
        # range of an 8-bit layer; skip the two reductions then.)
        if image.size and not (image.dtype == np.uint8 and layer.input_bits >= 8):
            if image.dtype.kind == "i" and image.min() < 0:
                raise ValueError("bit-plane splitting requires non-negative values")
            if image.max() >= (1 << layer.input_bits):
                raise ValueError(
                    f"image values do not fit in {layer.input_bits} bits"
                )
        k = layer.kernel_size
        n, h, w = image.shape[:3]
        oh = conv_output_size(h, k, layer.stride, layer.padding)
        ow = conv_output_size(w, k, layer.stride, layer.padding)
        rows = n * oh * ow
        cout = layer.out_channels
        volume = k * k * layer.in_channels
        wc_out = bitpack.words_per_channel(cout, self.out_word_size)
        out = ctx.arena.view(
            self.out_slot, (rows, wc_out), bitpack.word_dtype(self.out_word_size)
        )
        if compiled is not None and image.dtype == np.uint8:
            image = np.ascontiguousarray(image)
            ctx.run_tiles(
                rows,
                lambda r0, r1: compiled.input_conv_threshold_rows(
                    image, operands, k, layer.stride, layer.padding, oh, ow,
                    out, r0, r1,
                ),
                cout * volume,
            )
        else:
            # Gather integer patches straight into a float64 arena buffer
            # (the copyto casts), multiply by the ±1 filter matrix with
            # one dgemm — exact, see the class docstring — then threshold
            # + pack the float x1 rows.
            patches = ctx.arena.view("patch", (rows, volume), np.float64)
            binary_conv.gather_patches_nhwc(
                image, k, layer.stride, layer.padding, out=patches
            )
            x1 = ctx.arena.view("x1", (rows, cout), np.float64)
            np.matmul(patches, self.float_weights, out=x1)
            ctx.run_tiles(
                rows,
                lambda r0, r1: bitpack.threshold_pack_rows(
                    x1, self.threshold, self.flip, out, r0, r1,
                    self.out_word_size,
                ),
            )
        return Tensor(
            out.reshape(n, oh, ow, wc_out), Layout.NHWC,
            packed=True, true_channels=cout,
        )


class PackedGemmStep(_LoweredStep):
    """Binary conv/dense as one xor-popcount GEMM over packed operands (Eqn. 1).

    The GEMM reads packed rows (dense) or packed patches gathered inside
    the row tiles (conv) against one ``prepare_filters`` operand, then
    ends in one of two epilogues, chosen by the compiler from the matched
    block:

    * **threshold** (``threshold`` given): the Eqns. (5–8) boundary folded
      into the accumulator domain — compare the disagreement count and
      bit-pack straight into ``out_slot``;
    * **affine** (a float head, ``output_binary=False``): ``x1 = L − 2·d``
      in an int64 ``acc`` slot, then the layer's own :meth:`affine_values`.

    Both epilogues run on NumPy (:mod:`repro.core.bitpack`) or on an
    adopted compiled backend through the same row tiles.  A threshold
    step is probed against its NumPy path; a float head against the
    layer's ``forward``.
    """

    def __init__(self, layer, layer_start: int, layer_stop: int,
                 threshold: Optional[np.ndarray] = None,
                 flip: Optional[np.ndarray] = None,
                 out_word_size: Optional[int] = None,
                 out_slot: Optional[str] = None) -> None:
        super().__init__(layer, layer_start, layer_stop)
        self.is_conv = not isinstance(layer, BinaryDense)
        if self.is_conv:
            self.fan_in, self.cols = layer.in_channels, layer.out_channels
            self.length = layer.kernel_size ** 2 * layer.in_channels
        else:
            self.fan_in, self.cols = layer.in_features, layer.out_features
            self.length = layer.in_features
        self.flip = flip
        self.out_word_size = out_word_size
        self.out_slot = out_slot
        self.weights_packed = layer.weights_packed  # compile-time snapshot
        self.filters = np.ascontiguousarray(
            self.weights_packed.reshape(self.cols, -1)
        )
        #: The x1-domain ``threshold`` folded into the accumulator domain
        #: for the threshold epilogue (``None`` selects the affine one):
        #: x1 = L − 2·d  ⇒  (x1 >= t) ⇔ (d <= (L − t) // 2), clipped to the
        #: feasible count range [−1, L] so it fits the kernel's int32
        #: accumulator.
        self.acc_threshold = None
        if threshold is not None:
            acc = np.floor_divide(self.length - threshold, 2)
            self.acc_threshold = np.clip(acc, -1, self.length).astype(np.int32)

    @property
    def describe(self) -> str:
        layer = self.layer
        kind = "conv" if self.is_conv else "dense"
        shape = (_conv_shape(layer) if self.is_conv
                 else f"{layer.name}: {self.fan_in}→{self.cols}")
        if self.acc_threshold is None:
            return f"float-head(xor-popcount) {kind} {shape}, float32 out"
        return (f"fused {kind}(xor-popcount) {shape}, "
                f"w{self.out_word_size} packed out{self._folds}")

    def lower(self, impl):
        return impl.prepare_filters(self.filters)

    def probe_input(self, rng) -> Tensor:
        layer = self.layer
        words = bitpack.words_per_channel(self.fan_in, layer.word_size)
        if self.is_conv:
            side = _probe_extent(layer.kernel_size, layer.stride, layer.padding)
            shape = (2, side, side, words)
        else:
            shape = (9, words)
        return Tensor(_random_packed(rng, shape, layer.word_size), Layout.NHWC,
                      packed=True, true_channels=self.fan_in)

    def reference(self, x: Tensor) -> np.ndarray:
        if self.acc_threshold is None:
            return self.layer.forward(x).data
        return super().reference(x)

    def _packed_input(self, x: Tensor) -> np.ndarray:
        """The packed activations the layer consumes (validated)."""
        layer = self.layer
        if x.packed:
            if not self.is_conv and x.data.ndim != 2:
                raise ValueError(f"{layer.name}: packed input must be flattened first")
            packed, fan_in = x.data, x.true_channels
        else:
            data = np.asarray(x.data)
            if not self.is_conv:
                data = data.reshape(data.shape[0], -1)
            packed = bitpack.pack_bits(binarize_sign(data),
                                       word_size=layer.word_size, axis=-1)
            fan_in = data.shape[-1]
        if fan_in != self.fan_in:
            unit = "channels" if self.is_conv else "features"
            raise ValueError(
                f"{layer.name}: expected {self.fan_in} input {unit}, got {fan_in}"
            )
        return np.ascontiguousarray(packed)

    def execute(self, x: Tensor, ctx: _ExecContext, compiled, operands) -> Tensor:
        packed = self._packed_input(x)
        if self.is_conv:
            patches, gather, oh, ow = _conv_patches(self.layer, packed, ctx, compiled)
            lead = (packed.shape[0], oh, ow)
        else:
            patches, gather, lead = packed, None, (packed.shape[0],)
        if patches.shape[1] != self.filters.shape[1]:
            raise ValueError("activation and filter packing widths do not match")
        rows = patches.shape[0]
        if compiled is None:
            kernels, filters, row_work = bitpack, self.filters, None
        else:
            kernels, filters = compiled, operands
            row_work = self.cols * operands.n_bytes
        if self.acc_threshold is None:
            out = ctx.arena.view("acc", (rows, self.cols), np.int64)

            def epilogue(r0: int, r1: int) -> None:
                kernels.xor_popcount_gemm_rows(patches, filters, out, r0, r1)
        else:
            wc_out = bitpack.words_per_channel(self.cols, self.out_word_size)
            out = ctx.arena.view(
                self.out_slot, (rows, wc_out), bitpack.word_dtype(self.out_word_size)
            )

            def epilogue(r0: int, r1: int) -> None:
                kernels.fused_xor_threshold_rows(
                    patches, filters, self.acc_threshold, self.flip,
                    out, r0, r1, self.out_word_size)

        def work(r0: int, r1: int) -> None:
            if gather is not None:
                gather(r0, r1)
            epilogue(r0, r1)

        ctx.run_tiles(rows, work, row_work)
        if self.acc_threshold is None:
            np.multiply(out, -2, out=out)  # x1 = L − 2·d, in place
            out += self.length
            return Tensor(self.layer.affine_values(out).reshape(lead + (self.cols,)),
                          Layout.NHWC)
        return Tensor(out.reshape(lead + (wc_out,)), Layout.NHWC,
                      packed=True, true_channels=self.cols)


class PackedPoolStep(_LoweredStep):
    """Max-pool on a packed stream: bitwise OR over the window's words.

    The NumPy path — and the reference a compiled kernel is probed
    against — is ``MaxPool2d.forward``.
    """

    def __init__(self, layer, layer_index: int, channels: int,
                 word_size: int, out_slot: str) -> None:
        super().__init__(layer, layer_index, layer_index + 1)
        self.channels = channels
        self.word_size = word_size
        self.out_slot = out_slot

    @property
    def describe(self) -> str:
        layer = self.layer
        return (
            f"packed max-pool(or) {layer.name}: k{layer.pool_size} "
            f"s{layer.stride} p{layer.padding}, w{self.word_size} words"
        )

    def lower(self, impl):
        return ()  # the kernel needs nothing prepared

    def probe_input(self, rng) -> Tensor:
        layer = self.layer
        side = _probe_extent(layer.pool_size, layer.stride, layer.padding)
        wc = bitpack.words_per_channel(self.channels, self.word_size)
        return Tensor(
            _random_packed(rng, (2, side, side, wc), self.word_size),
            Layout.NHWC, packed=True, true_channels=self.channels,
        )

    def execute(self, x: Tensor, ctx: _ExecContext, compiled, operands) -> Tensor:
        layer = self.layer
        if compiled is None or not x.packed:
            return layer.forward(x)
        packed = np.ascontiguousarray(x.data)
        n, h, w, wc = packed.shape
        oh = conv_output_size(h, layer.pool_size, layer.stride, layer.padding)
        ow = conv_output_size(w, layer.pool_size, layer.stride, layer.padding)
        rows = n * oh * ow
        out = ctx.arena.view(self.out_slot, (rows, wc), packed.dtype)
        ctx.run_tiles(
            rows,
            lambda r0, r1: compiled.packed_maxpool_rows(
                packed, layer.pool_size, layer.stride, layer.padding,
                oh, ow, out, r0, r1,
            ),
            layer.pool_size ** 2 * wc * packed.dtype.itemsize,
        )
        return Tensor(out.reshape(n, oh, ow, wc), Layout.NHWC,
                      packed=True, true_channels=x.true_channels)


class PackedFlattenStep(_LoweredStep):
    """``Flatten`` of a packed stream whose words each hold whole pixels.

    When the channel count is a multiple of the stream's word size and
    ``Flatten`` repacks with that same word size, unpack → flatten →
    repack rewrites every word unchanged (pack order is little-endian
    within a word, channels-last across words), so the step is a
    zero-copy reshape.  ``Flatten.forward`` is the probe reference.
    """

    def __init__(self, layer, layer_index: int, in_shape) -> None:
        super().__init__(layer, layer_index, layer_index + 1)
        self.in_shape = tuple(in_shape)
        self.features = math.prod(self.in_shape)

    @property
    def describe(self) -> str:
        return (
            f"packed flatten(reshape) {self.layer.name}: {self.in_shape} → "
            f"{self.features} features, w{self.layer.word_size} words"
        )

    def lower(self, impl):
        return ()  # a reshape needs no kernel

    def probe_input(self, rng) -> Tensor:
        word_size = self.layer.word_size
        words = self.in_shape[-1] // word_size
        return Tensor(
            _random_packed(rng, (2,) + self.in_shape[:-1] + (words,), word_size),
            Layout.NHWC, packed=True, true_channels=self.in_shape[-1],
        )

    def reference(self, x: Tensor) -> np.ndarray:
        return self.layer.forward(x).data

    def execute(self, x: Tensor, ctx: _ExecContext, compiled, operands) -> Tensor:
        data = x.data
        return Tensor(data.reshape(data.shape[0], -1), Layout.NHWC,
                      packed=True, true_channels=self.features)


class ExecutionPlan:
    """A compiled network: fused steps + arena pool + thread fan-out.

    Plans hold compile-time snapshots of every array they depend on
    (packed weights, thresholds, batch-norm parameters); :meth:`is_current`
    checks those identities so :func:`get_plan` can transparently recompile
    after a weight or batch-norm reassignment — a stale plan is never
    executed.  Layers publish new weights as new arrays, never in place,
    so the identity check needs no lock.
    """

    def __init__(self, network, steps: Sequence[object],
                 attr_snapshots: Sequence[Tuple[object, str, object]],
                 per_sample_bytes: int) -> None:
        self.network_name = network.name
        self.input_shape = tuple(network.input_shape)
        self.steps = list(steps)
        self.per_sample_bytes = int(per_sample_bytes)
        self._layers_snapshot = tuple(network.layers)
        self._attr_snapshots = list(attr_snapshots)
        self._arena_lock = threading.Lock()
        self._arenas: List[BufferArena] = []
        #: Resolved backend name after :meth:`select_backend` ("numpy" until
        #: then) and the per-step selection report it produced.
        self.backend_spec = "numpy"
        self.backend_selection: Optional[Dict[str, str]] = None
        #: ISA body the resolved compiled backend runs (``None`` on NumPy).
        self.backend_isa: Optional[str] = None
        self._backend_requested: Optional[str] = None

    # ------------------------------------------------------------- validity
    def is_current(self, network) -> bool:
        """Whether this plan still matches the network it was compiled from."""
        layers = network.layers
        if len(layers) != len(self._layers_snapshot):
            return False
        for layer, snap in zip(layers, self._layers_snapshot):
            if layer is not snap:
                return False
        for obj, attr, snapshot in self._attr_snapshots:
            if getattr(obj, attr, None) is not snapshot:
                return False
        return True

    @property
    def fused_step_count(self) -> int:
        return sum(1 for step in self.steps if step.fused)

    # ------------------------------------------------------------- resources
    def _acquire_arena(self) -> BufferArena:
        with self._arena_lock:
            if self._arenas:
                return self._arenas.pop()
        return BufferArena()

    def _release_arena(self, arena: BufferArena) -> None:
        with self._arena_lock:
            self._arenas.append(arena)

    # ------------------------------------------------------------- backends
    def select_backend(self, spec: Optional[str] = None) -> Dict[str, str]:
        """Attach compiled kernels to this plan's fused steps (idempotent).

        ``spec`` is a :data:`repro.core.backends.BACKEND_CHOICES` name;
        ``None`` uses the process default (``REPRO_BACKEND`` or ``auto``).
        Each eligible step is verified bit-exact against the NumPy
        reference before it adopts a compiled kernel — see
        :func:`repro.core.backends.select_for_plan`.  Re-selection with the
        same spec is a no-op, so warm paths may call this per batch.
        """
        from repro.core import backends

        spec = (spec or backends.default_backend_spec()).lower()
        if spec == self._backend_requested and self.backend_selection is not None:
            return self.backend_selection
        report = backends.select_for_plan(self, spec)
        self._backend_requested = spec
        return report

    def backend_report(self) -> Dict[str, object]:
        """What each step runs on: spec, resolved backend + ISA body, per-step map."""
        steps = self.backend_selection
        if steps is None:
            steps = {
                f"[{index}] {step.describe}": "numpy"
                for index, step in enumerate(self.steps)
            }
        return {
            "spec": self._backend_requested or "numpy",
            "backend": self.backend_spec,
            "isa": self.backend_isa,
            "steps": dict(steps),
        }

    # ------------------------------------------------------------- execution
    def coerce_input(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x), Layout.NHWC)
        if x.data.shape[1:] != self.input_shape:
            raise ValueError(
                f"{self.network_name}: expected input shape (N,)+{self.input_shape}, "
                f"got {x.data.shape}"
            )
        return x

    def execute(
        self,
        x,
        threads: Optional[int] = None,
        step_times: Optional[list] = None,
        row_tile: Optional[int] = None,
    ) -> Tensor:
        """Run the plan on a batch; bit-identical to ``Network.forward``.

        Parameters
        ----------
        x:
            Input batch (ndarray or :class:`Tensor`).
        threads:
            Tile fan-out; defaults to :func:`default_num_threads`.
        step_times:
            Optional list; ``(step, seconds)`` is appended per step so the
            engine can attribute wall clock to layers.
        row_tile:
            Rows-per-tile override.  ``None`` keeps the built-in bound and
            the work floor (:data:`_MIN_TILE_WORK`); an explicit value
            switches the floor off, which is how tests force split tiles.
            Tiling never changes results.
        """
        current = self.coerce_input(x)
        threads = default_num_threads() if threads is None else max(1, int(threads))
        arena = self._acquire_arena()
        pool = _shared_pool(threads) if threads > 1 else None
        ctx = _ExecContext(arena, pool, threads, row_tile)
        try:
            for step in self.steps:
                t0 = time.perf_counter()
                current = step.run(current, ctx)
                if step_times is not None:
                    step_times.append((step, time.perf_counter() - t0))
            if arena.owns(current.data):
                # Detach before the arena returns to the free-list: another
                # execution may borrow (and overwrite) it the moment the
                # finally block runs.  Ownership is checked on the actual
                # buffer, not the step type, because a fallback step may
                # pass an arena-backed tensor through unchanged.
                current = Tensor(
                    current.data.copy(), current.layout,
                    current.packed, current.true_channels,
                )
            return current
        finally:
            self._release_arena(arena)

    # ------------------------------------------------------------- reporting
    def describe(self) -> str:
        """Human-readable plan IR (one line per step)."""
        lines = [
            f"ExecutionPlan for {self.network_name!r} "
            f"({self.fused_step_count}/{len(self.steps)} steps fused, "
            f"~{self.per_sample_bytes / 2**20:.2f} MiB arena/sample)"
        ]
        for index, step in enumerate(self.steps):
            slot = getattr(step, "out_slot", None) or "-"
            lines.append(f"  [{index:2d}] {step.describe}  → {slot}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ExecutionPlan(network={self.network_name!r}, "
            f"steps={len(self.steps)}, fused={self.fused_step_count})"
        )


# ----------------------------------------------------------------- compile
def _match_fused_block(layers, index):
    """Match a fusable block starting at ``layers[index]``.

    Returns ``(consumed, threshold, flip, out_word_size)`` or ``None``.  A
    block is either a single binary layer that packs its own output
    (``output_binary=True``) or the unfused three-layer spelling
    ``conv/dense → BatchNorm2d → Binarize``.  The integer boundary is
    extracted from a predicate that replicates the matched path's exact
    arithmetic (including float32 casts) per channel.
    """
    layer = layers[index]
    channels = (
        layer.out_features if isinstance(layer, BinaryDense) else layer.out_channels
    )
    if layer.output_binary:
        consumed, predicate, out_word_size = 1, layer.fused_output_bits, layer.word_size
    elif (
        index + 2 < len(layers)
        and isinstance(layers[index + 1], BatchNorm2d)
        and isinstance(layers[index + 2], Binarize)
        and layers[index + 1].params.channels == channels
    ):
        bn = layers[index + 1]

        def predicate(x1):
            return binarize_sign(bn.normalize_values(layer.affine_values(x1)))

        consumed, out_word_size = 3, layers[index + 2].word_size
    else:
        return None
    bound = layer.x1_magnitude_bound
    threshold, flip = exact_integer_threshold(predicate, channels, -bound, bound)
    return consumed, threshold, flip, out_word_size


def _fused_working_bytes(layer, in_shape, out_shape, out_word_size: int) -> int:
    """Per-sample arena bytes of a fused block: input, patches and output."""
    in_item = np.dtype(bitpack.word_dtype(layer.word_size)).itemsize
    out_item = np.dtype(bitpack.word_dtype(out_word_size)).itemsize
    if isinstance(layer, BinaryDense):
        return (
            bitpack.words_per_channel(layer.in_features, layer.word_size) * in_item
            + bitpack.words_per_channel(layer.out_features, out_word_size) * out_item
        )
    oh, ow = out_shape[:2]
    volume = layer.kernel_size ** 2 * layer.in_channels
    out_bytes = (
        oh * ow * bitpack.words_per_channel(layer.out_channels, out_word_size)
        * out_item
    )
    if isinstance(layer, InputConv2d):
        # Exact-GEMM lowering: float64 patches + float64 x1 map.
        return (math.prod(in_shape) + oh * ow * (volume + layer.out_channels) * 8
                + out_bytes)
    wc_in = bitpack.words_per_channel(layer.in_channels, layer.word_size)
    in_bytes = in_shape[0] * in_shape[1] * wc_in * in_item
    patch_bytes = oh * ow * layer.kernel_size ** 2 * wc_in * in_item
    return in_bytes + patch_bytes + out_bytes


def compile_plan(network) -> ExecutionPlan:
    """Compile ``network`` into an :class:`ExecutionPlan`."""
    shapes = network.layer_shapes()
    layers = list(network.layers)
    steps: List[object] = []
    snapshots: List[Tuple[object, str, object]] = []
    per_sample_peak = 0
    fused_index = 0
    #: Packing word width of the activation stream entering layer ``i``, or
    #: ``None`` where it is (or may be) unpacked.  Pools, flattens and
    #: float heads are only lowered on a stream known to be packed.
    stream_word_size: Optional[int] = None
    i = 0
    while i < len(layers):
        layer = layers[i]
        in_shape, out_shape = shapes[i][1], shapes[i][2]
        match = None
        if isinstance(layer, (InputConv2d, BinaryConv2d, BinaryDense)):
            match = _match_fused_block(layers, i)
        if match is not None:
            consumed, threshold, flip, out_word_size = match
            step_type = (InputConvStep if isinstance(layer, InputConv2d)
                         else PackedGemmStep)
            step = step_type(layer, i, i + consumed, threshold, flip,
                             out_word_size, f"act{fused_index % 2}")
            fused_index += 1
            stream_word_size = out_word_size
            working = _fused_working_bytes(layer, in_shape, out_shape, out_word_size)
            for extra in layers[i + 1:i + consumed]:
                if isinstance(extra, BatchNorm2d):
                    snapshots.append((extra, "params", extra.params))
        else:
            consumed = 1
            if stream_word_size is not None and isinstance(layer, MaxPool2d):
                step = PackedPoolStep(layer, i, in_shape[2], stream_word_size,
                                      f"act{fused_index % 2}")
                fused_index += 1
            elif stream_word_size is not None and isinstance(layer, Flatten):
                if (layer.word_size == stream_word_size
                        and in_shape[-1] % stream_word_size == 0):
                    step = PackedFlattenStep(layer, i, in_shape)
                else:
                    step = LayerStep(layer, i)
                stream_word_size = layer.word_size  # Flatten repacks
            elif (isinstance(layer, (BinaryConv2d, BinaryDense))
                  and stream_word_size == layer.word_size):
                # output_binary=False (a binary output matched a block).
                step = PackedGemmStep(layer, i, i + 1)
                stream_word_size = None
            else:
                step = LayerStep(layer, i)
                stream_word_size = None
            working = 4 * (math.prod(in_shape) + math.prod(out_shape))
        if isinstance(step, (InputConvStep, PackedGemmStep)):
            snapshots.extend([
                (layer, "weights_packed", step.weights_packed),
                (layer, "batchnorm", layer.batchnorm),
                (layer, "bias", layer.bias),
                (layer, "threshold", layer.threshold),
                (layer, "gamma", layer.gamma),
            ])
        steps.append(step)
        per_sample_peak = max(per_sample_peak, working)
        i += consumed
    return ExecutionPlan(network, steps, snapshots, per_sample_peak)


def get_plan(network) -> ExecutionPlan:
    """Compiled plan for ``network``, cached on the network object.

    The cached plan is revalidated against the network's current layer and
    parameter identities on every call; a reassignment (weights, batch-norm,
    layer list) triggers a transparent recompile.  Concurrent first calls
    may compile twice — both results are identical and the last store wins.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.plan import get_plan
    >>> from repro.models.zoo import build_phonebit_network, micro_cnn_config
    >>> network = build_phonebit_network(micro_cnn_config())
    >>> plan = get_plan(network)
    >>> plan.fused_step_count >= 2        # conv + dense blocks were fused
    True
    >>> get_plan(network) is plan         # cached until weights change
    True
    >>> batch = np.zeros((2, 8, 8, 3), dtype=np.uint8)
    >>> out = plan.execute(batch, threads=1)
    >>> bool(np.array_equal(out.data, network.forward(batch).data))
    True
    """
    plan = getattr(network, "_plan_cache", None)
    if plan is not None and plan.is_current(network):
        return plan
    plan = compile_plan(network)
    network._plan_cache = plan
    return plan
