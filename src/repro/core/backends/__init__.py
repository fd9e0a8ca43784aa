"""Pluggable compiled-kernel backends behind the fused execution plan.

The fused plan (:mod:`repro.core.plan`) is the seam the paper's native
frameworks exploit: every step is a named kernel with known shapes, so a
compiled inner loop can replace the NumPy one without touching the graph.
This package provides that layer:

* ``numpy`` — the vectorized kernels in :mod:`repro.core.bitpack` /
  :mod:`repro.core.binary_conv`.  Always available, always correct; the
  reference every other backend is gated against.
* ``cffi`` — a single C translation unit (``_kernels.c``: the blocked
  xor-popcount micro-kernel behind the fused threshold-and-pack and the
  plain GEMM, the exact-integer input convolution, packed patch
  extraction and packed max-pool; AVX-512 / AVX2 / scalar bodies chosen
  at run time) compiled at first use with the host toolchain and cached
  per host (:mod:`repro.core.backends.cffi_backend`).  OpenMP-free:
  parallelism stays in the plan's shared thread pool, and cffi releases
  the GIL for the duration of each call.

**Selection is gated by the bit-exactness spine.**  A backend is attached
per plan step at warm time (``Network.warm`` / ``ModelPool`` /
``PhoneBitEngine``): before a step adopts a compiled kernel, the step is
run both ways on a synthetic input covering its geometry — on that step's
*actual* packed filters and thresholds — and the compiled result must
equal the reference (the NumPy path; the layer interpreter for the input
convolution, pools and float heads) bit for bit.  Any mismatch — or any
build/import failure — silently falls the step back to the NumPy path, so
a missing compiler can never change results, only speed.
``ExecutionPlan.backend_report()`` says what each step runs on.

``REPRO_BACKEND`` sets the process-default spec (``auto`` when unset);
``REPRO_NO_CC=1`` masks the host toolchain, which is how CI proves the
fallback path stays green.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import binary_conv, bitpack

#: Backend spec names accepted everywhere a backend can be chosen
#: (engine, CLI ``--backend``, worker config).  ``auto`` resolves to the
#: fastest available compiled backend, falling back to ``numpy``.
BACKEND_CHOICES = ("auto", "numpy", "cffi")


class BackendUnavailable(RuntimeError):
    """A compiled backend cannot be used on this host (reason in args)."""


def default_backend_spec() -> str:
    """Process-default backend spec: ``REPRO_BACKEND`` or ``auto``."""
    spec = os.environ.get("REPRO_BACKEND", "").strip().lower()
    return spec if spec in BACKEND_CHOICES else "auto"


# --------------------------------------------------------------- registry
_CACHE: Dict[str, object] = {}
_FAILURES: Dict[str, str] = {}


def get_backend(name: str):
    """Compiled backend object for ``name``, or ``None`` for ``"numpy"``.

    Results (including failures) are cached per process; a failure reason
    is kept so :func:`availability` can report *why* a backend is out.

    Raises
    ------
    BackendUnavailable
        If the backend cannot be built or imported on this host.
    """
    if name == "numpy":
        return None
    if name != "cffi":
        raise BackendUnavailable(f"unknown compiled backend {name!r}")
    if name in _CACHE:
        return _CACHE[name]
    if name in _FAILURES:
        raise BackendUnavailable(_FAILURES[name])
    try:
        from repro.core.backends import cffi_backend

        impl = cffi_backend.load()
        _self_test(impl)
    except BackendUnavailable as exc:
        _FAILURES[name] = str(exc)
        raise
    except Exception as exc:  # noqa: BLE001 - any build error means "absent"
        reason = f"{name} backend unavailable: {type(exc).__name__}: {exc}"
        _FAILURES[name] = reason
        raise BackendUnavailable(reason) from exc
    _CACHE[name] = impl
    return impl


def availability() -> Dict[str, Optional[str]]:
    """Mapping of backend name to ``None`` (usable) or a reason string."""
    report: Dict[str, Optional[str]] = {"numpy": None}
    try:
        get_backend("cffi")
        report["cffi"] = None
    except BackendUnavailable as exc:
        report["cffi"] = str(exc)
    return report


def resolve_backend(spec: Optional[str]) -> Tuple[str, Optional[object]]:
    """Resolve a spec to ``(name, impl)``; ``impl`` is None for numpy.

    ``auto`` (or ``None``) picks the compiled backend and degrades to
    ``numpy`` when it does not build — it never raises.  A concrete compiled name raises
    :class:`BackendUnavailable` if that backend cannot be used, so an
    explicit request is never silently substituted.
    """
    spec = (spec or default_backend_spec()).lower()
    if spec not in BACKEND_CHOICES:
        raise BackendUnavailable(
            f"unknown backend {spec!r}; expected one of {BACKEND_CHOICES}"
        )
    if spec == "auto":
        try:
            return "cffi", get_backend("cffi")
        except BackendUnavailable:
            return "numpy", None
    return spec, get_backend(spec)


def _reset_for_tests() -> None:
    """Drop cached backends/failures (tests toggle REPRO_NO_CC)."""
    _CACHE.clear()
    _FAILURES.clear()


# ----------------------------------------------------------- verification
def _random_words(rng, shape, dtype) -> np.ndarray:
    """Random packed words of an unsigned dtype (full bit range)."""
    dtype = np.dtype(dtype)
    return rng.integers(
        0, 2 ** (8 * dtype.itemsize), size=shape, dtype=dtype
    )


def _self_test(impl) -> None:
    """Global smoke check of all three kernels before a backend is cached.

    Per-step probes (:func:`verify_fused_step`) re-check the fused kernel
    against each step's real filters; this catches a completely broken
    build immediately with clear attribution.
    """
    rng = np.random.default_rng(20)
    a = _random_words(rng, (13, 3), np.uint64)
    b = _random_words(rng, (10, 3), np.uint64)
    expected = bitpack.xor_popcount_gemm(a, b)
    got = np.empty_like(expected)
    impl.xor_popcount_gemm_rows(a, b, got, 0, a.shape[0])
    if not np.array_equal(expected, got):
        raise BackendUnavailable(
            f"{impl.name} xor-popcount GEMM disagrees with the NumPy reference"
        )
    thresh = rng.integers(60, 130, size=10).astype(np.int32)
    flip = rng.integers(0, 2, size=10).astype(bool)
    out_np = np.zeros((13, 2), dtype=np.uint8)
    out_c = np.zeros((13, 2), dtype=np.uint8)
    bitpack.fused_xor_threshold_rows(a, b, thresh, flip, out_np, 0, 13, 8)
    impl.fused_xor_threshold_rows(a, b, thresh, flip, out_c, 0, 13, 8)
    if not np.array_equal(out_np, out_c):
        raise BackendUnavailable(
            f"{impl.name} fused threshold kernel disagrees with the NumPy reference"
        )
    packed = _random_words(rng, (2, 6, 5, 2), np.uint32)
    expected_p, oh, ow = binary_conv.packed_patch_matrix(packed, 3, 2, 1)
    got_p = np.empty_like(np.ascontiguousarray(expected_p))
    impl.packed_patch_rows(packed, 3, 2, 1, oh, ow, got_p, 0, got_p.shape[0])
    if not np.array_equal(np.asarray(expected_p), got_p):
        raise BackendUnavailable(
            f"{impl.name} patch extraction disagrees with the NumPy reference"
        )


def verify_fused_step(impl, step, rng=None) -> bool:
    """Bit-exactness probe of one lowered plan step (see ``step.verify``).

    The step runs a synthetic input over its own geometry through
    ``impl``'s kernels — on its *actual* filters, thresholds and flips, in
    several row tiles — and through its reference (the NumPy path; the
    layer interpreter for the input convolution, pools and float heads).
    Returns True only on a bit-for-bit match.
    """
    rng = np.random.default_rng(33) if rng is None else rng
    return step.verify(impl, rng) is not None


def select_for_plan(plan, spec: Optional[str] = None) -> Dict[str, str]:
    """Attach a backend to every lowered step of ``plan`` (idempotent).

    Each lowered step is probed (:func:`verify_fused_step`) and adopts the
    backend only on a bit-for-bit match; steps that fail the probe, steps
    the backend has no kernel for, and layer fallbacks keep the NumPy
    path.  Returns the per-step selection report (also stored as
    ``plan.backend_selection``).
    """
    name, impl = resolve_backend(spec)
    rng = np.random.default_rng(33)
    report: Dict[str, str] = {}
    for index, step in enumerate(plan.steps):
        adopted = False
        if getattr(step, "fused", False):
            if impl is None:
                step.adopt(None)
            elif step.compiled is not impl:  # else: selected and verified
                operands = step.verify(impl, rng)
                step.adopt(None if operands is None else impl, operands)
            adopted = step.compiled is not None
        report[f"[{index}] {step.describe}"] = name if adopted else "numpy"
    plan.backend_spec = name
    plan.backend_isa = getattr(impl, "isa", None)
    plan.backend_selection = report
    return report
