"""cffi-compiled C kernels (``_kernels.c``) with a per-host build cache.

The extension is compiled from the single C source shipped next to this
module, at first use, with whatever C compiler the host provides; the
built shared object is cached under a content-addressed name (hash of
source + compile flags + ABI tag) in ``REPRO_BACKEND_CACHE`` (default
``~/.cache/repro/backends``), so each host compiles once and every later
process — including forked/spawned cluster workers — just dlopens it.

Availability gates (any failure ⇒ :class:`BackendUnavailable`, and the
plan keeps the NumPy path):

* a C compiler on ``PATH`` (``cc``/``gcc``/``clang``), not masked by
  ``REPRO_NO_CC=1`` — the switch CI uses to prove the fallback;
* a little-endian host (the packed bit streams are little-endian);
* the cffi compile itself succeeding.  There is one ``-O3`` build: the
  AVX-512 / AVX2 / scalar bodies are per-function target variants picked
  at run time, so the object runs on any x86-64 host.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import sysconfig
import tempfile
from typing import Optional

import numpy as np

from repro.core import bitpack

#: The single flag set every host builds with (part of the cache key).
_COMPILE_FLAGS = ("-O3",)

_CDEF = """
int repro_isa_supported(int isa);
void repro_interleave_filters(
    const uint8_t *b, ptrdiff_t b_stride, ptrdiff_t cols, ptrdiff_t n_bytes,
    uint64_t *wt);
void repro_fused_xor_threshold_pack(
    int isa,
    const uint8_t *a, ptrdiff_t a_stride, ptrdiff_t n_bytes,
    const uint64_t *wt, ptrdiff_t cols,
    const int32_t *thresh, const uint8_t *flip,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop);
void repro_xor_popcount_gemm(
    int isa,
    const uint8_t *a, ptrdiff_t a_stride, ptrdiff_t n_bytes,
    const uint64_t *wt, ptrdiff_t cols,
    int64_t *out, ptrdiff_t out_cols,
    ptrdiff_t row_start, ptrdiff_t row_stop);
void repro_packed_patch_rows(
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t pix_bytes,
    ptrdiff_t k, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop);
void repro_packed_maxpool_rows(
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t pix_bytes,
    ptrdiff_t pool, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    uint8_t *out, ptrdiff_t row_start, ptrdiff_t row_stop);
void repro_input_conv_threshold_pack(
    int isa,
    const uint8_t *x, ptrdiff_t h, ptrdiff_t w, ptrdiff_t cin,
    ptrdiff_t k, ptrdiff_t stride, ptrdiff_t padding,
    ptrdiff_t oh, ptrdiff_t ow,
    const int8_t *w4, ptrdiff_t cout_pad,
    const int32_t *thresh, const uint8_t *flip_packed,
    uint8_t *out, ptrdiff_t out_stride,
    ptrdiff_t row_start, ptrdiff_t row_stop);
"""

_SOURCE_FILE = os.path.join(os.path.dirname(__file__), "_kernels.c")


def compiler_available() -> bool:
    """Whether a usable C compiler is on PATH (and not masked).

    ``REPRO_NO_CC=1`` masks detection — the hook CI (and the fallback
    tests) use to simulate a host without a toolchain.
    """
    if os.environ.get("REPRO_NO_CC", "").strip() not in ("", "0"):
        return False
    return any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


def build_cache_dir() -> str:
    """Per-host directory holding the built extensions.

    ``REPRO_BACKEND_CACHE`` overrides; the default is
    ``~/.cache/repro/backends``, degrading to a per-user temp directory
    when the home directory is not writable.
    """
    override = os.environ.get("REPRO_BACKEND_CACHE", "").strip()
    if override:
        path = override
    else:
        path = os.path.join(
            os.path.expanduser("~"), ".cache", "repro", "backends"
        )
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        fallback = os.path.join(
            tempfile.gettempdir(), f"repro-backends-{os.getuid()}"
        )
        os.makedirs(fallback, exist_ok=True)
        return fallback


def _module_tag(source: str, flags: tuple) -> str:
    """Content hash naming one built variant of the extension."""
    payload = source + "\x00" + " ".join(flags) + "\x00" + (
        sysconfig.get_config_var("EXT_SUFFIX") or ""
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _built_path(module_name: str, cache_dir: str) -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(cache_dir, module_name + suffix)


def _load_built(module_name: str, path: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile(module_name: str, source: str, flags: tuple, cache_dir: str) -> str:
    """Compile one variant into the cache dir; returns the .so path.

    The build runs in a private temp dir and the finished object is
    moved into place with ``os.replace``, so concurrent builders race
    harmlessly (last atomic rename wins, both objects are identical).
    """
    import cffi

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(_CDEF)
    ffibuilder.set_source(module_name, source, extra_compile_args=list(flags))
    staging = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
    try:
        built = ffibuilder.compile(tmpdir=staging, verbose=False)
        final = _built_path(module_name, cache_dir)
        os.replace(built, final)
        return final
    finally:
        shutil.rmtree(staging, ignore_errors=True)


#: ISA bodies of ``_kernels.c``, slowest first; the index is the ``isa``
#: argument of the C entry points (``REPRO_ISA_*``).
ISA_BODIES = ("scalar", "avx2", "avx512")

#: Filters per interleaved block (``FB``) and the largest first-layer
#: patch (``PATCH_MAX`` bytes) the C kernels are compiled for.
_FILTER_BLOCK = 16
_PATCH_MAX = 4096


class InterleavedFilters:
    """A packed filter bank re-laid for the xor-popcount kernels.

    ``words`` is what ``repro_interleave_filters`` wrote: blocks of 16
    filters, word ``k`` of all 16 side by side, so one vector lane
    belongs to one filter (see the header of ``_kernels.c``).
    """

    __slots__ = ("words", "ptr", "cols", "n_bytes")

    def __init__(self, words, ptr, cols: int, n_bytes: int) -> None:
        self.words = words  # owns the memory ``ptr`` points into
        self.ptr = ptr
        self.cols = cols
        self.n_bytes = n_bytes


class InputConvKernel:
    """First-layer filters, thresholds and flips in the C kernel's layout.

    ``w4[g, j]`` holds filter ``j``'s four ±1 int8 weights for taps
    ``4g..4g+3`` (zero past the kernel volume and past ``cout``) — the
    operand layout of ``vpdpbusd`` / ``pmaddubsw``.  ``thresh`` and the
    packed ``flip`` bits are padded to the same multiple of 16 filters so
    that padding output bits come out zero.
    """

    __slots__ = ("w4", "cout", "thresh", "flip_packed")

    def __init__(self, w4, cout: int, thresh, flip_packed) -> None:
        self.w4 = w4
        self.cout = cout
        self.thresh = thresh
        self.flip_packed = flip_packed


def _flip_bytes(flip: np.ndarray) -> np.ndarray:
    if flip.dtype == np.bool_:
        return np.ascontiguousarray(flip).view(np.uint8)
    return np.ascontiguousarray(flip, dtype=np.uint8)


class CffiKernelBackend:
    """Thin array-validation shim over the compiled C entry points.

    The methods mirror the NumPy kernel signatures in
    :mod:`repro.core.bitpack` / :mod:`repro.core.binary_conv` so the plan
    steps can swap implementations without reshaping anything.  All
    operands must be C-contiguous in their trailing axis (plan buffers
    are); ``ffi.from_buffer`` enforces full contiguity for us.

    ``isa`` names the body of ``_kernels.c`` every call runs (one of
    :data:`ISA_BODIES`); the default is the widest the host executes,
    asked once here through ``__builtin_cpu_supports``.
    """

    name = "cffi"

    def __init__(self, module, isa: Optional[str] = None) -> None:
        self._module = module
        self._ffi = module.ffi
        self._lib = module.lib
        self.supported_isas = tuple(
            body for index, body in enumerate(ISA_BODIES)
            if self._lib.repro_isa_supported(index)
        )
        if isa is None:
            isa = self.supported_isas[-1]
        if isa not in self.supported_isas:
            raise ValueError(
                f"ISA body {isa!r} cannot run on this host "
                f"(supported: {self.supported_isas})"
            )
        self.isa = isa
        self._isa = ISA_BODIES.index(isa)

    def with_isa(self, isa: str) -> "CffiKernelBackend":
        """The same compiled object pinned to another ISA body."""
        return CffiKernelBackend(self._module, isa)

    # -- pointer helpers ---------------------------------------------------
    def _ro(self, array: np.ndarray, ctype: str = "const uint8_t *"):
        return self._ffi.cast(ctype, self._ffi.from_buffer(array))

    def _rw(self, array: np.ndarray, ctype: str = "uint8_t *"):
        return self._ffi.cast(
            ctype, self._ffi.from_buffer(array, require_writable=True)
        )

    # -- filter preparation -----------------------------------------------
    def prepare_filters(self, b: np.ndarray) -> InterleavedFilters:
        """Interleave a ``(cols, n_words)`` packed filter matrix once.

        Plan steps do this when they adopt the backend and hand the result
        to every later call; passing the plain matrix to a kernel method
        works too and interleaves per call.
        """
        cols = b.shape[0]
        n_bytes = b.shape[1] * b.dtype.itemsize
        blocks = -(-cols // _FILTER_BLOCK)
        words = np.empty(blocks * _FILTER_BLOCK * (-(-n_bytes // 8)),
                         dtype=np.uint64)
        self._lib.repro_interleave_filters(
            self._ro(b), b.strides[0], cols, n_bytes,
            self._rw(words, "uint64_t *"),
        )
        return InterleavedFilters(
            words, self._ro(words, "const uint64_t *"), cols, n_bytes
        )

    def _filters_for(self, a: np.ndarray, b) -> InterleavedFilters:
        if not isinstance(b, InterleavedFilters):
            b = self.prepare_filters(b)
        if a.shape[1] * a.dtype.itemsize != b.n_bytes:
            raise ValueError("operand packing widths do not match")
        return b

    def prepare_input_conv(self, weights_packed: np.ndarray, in_channels: int,
                           threshold: np.ndarray, flip: np.ndarray
                           ) -> Optional[InputConvKernel]:
        """First-layer operands for :meth:`input_conv_threshold_rows`.

        ``weights_packed`` is the layer's ``(cout, k, k, words)`` bank,
        ``threshold``/``flip`` the step's x1-domain decision.  Returns
        ``None`` when the geometry exceeds what the kernel was compiled
        for (patch buffer, int32 accumulator).
        """
        cout, k = weights_packed.shape[0], weights_packed.shape[1]
        volume = k * k * in_channels
        groups = -(-volume // 4)
        int32 = np.iinfo(np.int32)
        if (4 * groups > _PATCH_MAX or threshold.min() < int32.min
                or threshold.max() > int32.max):
            return None
        bits = bitpack.unpack_bits(weights_packed, in_channels, axis=-1)
        cout_pad = -(-cout // _FILTER_BLOCK) * _FILTER_BLOCK
        signs = np.zeros((cout_pad, 4 * groups), dtype=np.int8)
        signs[:cout, :volume] = 2 * bits.reshape(cout, volume).astype(np.int8) - 1
        w4 = np.ascontiguousarray(
            signs.reshape(cout_pad, groups, 4).transpose(1, 0, 2)
        )
        thresh = np.full(cout_pad, int32.max, dtype=np.int32)
        thresh[:cout] = threshold
        flip_bits = np.zeros(cout_pad, dtype=np.uint8)
        flip_bits[:cout] = flip
        return InputConvKernel(
            w4, cout, thresh, np.packbits(flip_bits, bitorder="little")
        )

    # -- kernels -----------------------------------------------------------
    def fused_xor_threshold_rows(self, a, b, acc_threshold, flip, out_words,
                                 row_start, row_stop, word_size) -> None:
        """Compiled twin of :func:`repro.core.bitpack.fused_xor_threshold_rows`.

        ``b`` is the packed filter matrix or its :meth:`prepare_filters`
        result.
        """
        b = self._filters_for(a, b)
        thresh = np.ascontiguousarray(acc_threshold, dtype=np.int32)
        flip8 = _flip_bytes(flip)
        out_stride = out_words.strides[0]
        if (thresh.shape[0] != b.cols or flip8.shape[0] != b.cols
                or 8 * out_stride < b.cols):
            raise ValueError("threshold, flip and output widths must match the filters")
        self._lib.repro_fused_xor_threshold_pack(
            self._isa, self._ro(a), a.strides[0], b.n_bytes, b.ptr, b.cols,
            self._ro(thresh, "const int32_t *"), self._ro(flip8),
            self._rw(out_words), out_stride,
            int(row_start), int(row_stop),
        )

    def xor_popcount_gemm_rows(self, a, b, out, row_start, row_stop) -> None:
        """Rows ``[row_start, row_stop)`` of the all-pairs xor-popcount GEMM."""
        b = self._filters_for(a, b)
        if out.shape[1] != b.cols:
            raise ValueError("output width must match the filter count")
        self._lib.repro_xor_popcount_gemm(
            self._isa, self._ro(a), a.strides[0], b.n_bytes, b.ptr, b.cols,
            self._rw(out, "int64_t *"), out.shape[1],
            int(row_start), int(row_stop),
        )

    def packed_patch_rows(self, packed, kernel_size, stride, padding,
                          oh, ow, out, row_start, row_stop) -> None:
        """Gather rows of the packed im2col matrix (zero-padded taps)."""
        n, h, w, wc = packed.shape
        pix_bytes = wc * packed.dtype.itemsize
        self._lib.repro_packed_patch_rows(
            self._ro(packed), h, w, pix_bytes,
            int(kernel_size), int(stride), int(padding), int(oh), int(ow),
            self._rw(out), out.strides[0],
            int(row_start), int(row_stop),
        )

    def packed_maxpool_rows(self, packed, pool_size, stride, padding,
                            oh, ow, out, row_start, row_stop) -> None:
        """Output pixels ``[row_start, row_stop)`` of the packed OR-pool.

        ``packed`` is ``(n, h, w, words)``, ``out`` the C-contiguous
        ``(n*oh*ow, words)`` result of the same dtype.
        """
        n, h, w, wc = packed.shape
        if out.shape[1] != wc or out.dtype != packed.dtype:
            raise ValueError("pooled output must keep the packed pixel width")
        self._lib.repro_packed_maxpool_rows(
            self._ro(packed), h, w, wc * packed.dtype.itemsize,
            int(pool_size), int(stride), int(padding), int(oh), int(ow),
            self._rw(out), int(row_start), int(row_stop),
        )

    def input_conv_threshold_rows(self, image, kernel: InputConvKernel,
                                  kernel_size, stride, padding, oh, ow,
                                  out_words, row_start, row_stop) -> None:
        """Exact first-layer convolution → threshold → packed bits.

        ``image`` is a C-contiguous ``uint8`` NHWC batch; output pixels
        ``[row_start, row_stop)`` of ``out_words`` are written in full.
        """
        n, h, w, cin = image.shape
        if image.dtype != np.uint8:
            raise ValueError("the compiled input convolution takes uint8 images")
        if 8 * out_words.strides[0] < kernel.cout:
            raise ValueError("output rows are narrower than the filter count")
        self._lib.repro_input_conv_threshold_pack(
            self._isa, self._ro(image), h, w, cin,
            int(kernel_size), int(stride), int(padding), int(oh), int(ow),
            self._ro(kernel.w4, "const int8_t *"), kernel.thresh.shape[0],
            self._ro(kernel.thresh, "const int32_t *"),
            self._ro(kernel.flip_packed),
            self._rw(out_words), out_words.strides[0],
            int(row_start), int(row_stop),
        )


def load() -> CffiKernelBackend:
    """Build (or reuse) the compiled extension; raises BackendUnavailable.

    One ``-O3`` object per source hash: the vector bodies are
    ``__attribute__((target(...)))`` functions chosen at run time, so the
    object needs no ``-march`` and is valid on every x86-64 host.
    """
    from repro.core.backends import BackendUnavailable

    if sys.byteorder != "little":
        raise BackendUnavailable(
            "cffi backend requires a little-endian host (packed bit "
            "streams are little-endian)"
        )
    try:
        import cffi  # noqa: F401
    except ImportError as exc:
        raise BackendUnavailable(f"cffi is not installed: {exc}") from exc
    with open(_SOURCE_FILE) as fh:
        source = fh.read()
    cache_dir = build_cache_dir()
    module_name = f"_repro_kernels_{_module_tag(source, _COMPILE_FLAGS)}"
    path = _built_path(module_name, cache_dir)
    errors = []
    if os.path.exists(path):
        try:
            return CffiKernelBackend(_load_built(module_name, path))
        except Exception as exc:  # stale/foreign object: rebuild
            errors.append(f"cached {path}: {exc}")
            try:
                os.unlink(path)
            except OSError:
                pass
    if not compiler_available():
        errors.append("no C compiler on PATH (or masked by REPRO_NO_CC)")
    else:
        try:
            built = _compile(module_name, source, _COMPILE_FLAGS, cache_dir)
            return CffiKernelBackend(_load_built(module_name, built))
        except Exception as exc:  # noqa: BLE001 - any build error means "absent"
            errors.append(f"{type(exc).__name__}: {exc}")
    raise BackendUnavailable(
        "cffi backend could not be built: " + "; ".join(errors)
    )
