"""Per-host auto-tuner for the fused execution plan's performance knobs.

The plan exposes knobs that never change results, only speed: the thread
fan-out, the row-tile bound, the NumPy kernel's filter-column tile, and the
engine's chunk-byte budget.  Their best values depend on the host (core
count, cache sizes, whether the cffi kernels built) and on the model and
batch shape — exactly the kind of search the paper's frameworks run once
per device.  This module measures the candidates and persists the winner:

* **Keying** — winners are stored per ``(host fingerprint, model digest,
  batch bucket)``.  The model digest is the SHA-256 of the serialized
  ``.pbit`` artifact — the *same* content address the shared-memory model
  store and the cross-host ``HostModelCache`` use — so a tuning record
  follows the artifact wherever it is deployed, and two hosts never share
  a record (the fingerprint covers machine, core count and library
  versions).
* **Seeding** — the thread-count search order comes from
  :func:`repro.gpusim.cost_model.thread_candidates`: the simulated
  compute/memory split says whether wide fan-outs are worth trying first.
  The search is greedy coordinate descent (threads → row tile → column
  tile → chunk), a dozen-odd timed runs rather than a grid.
* **Persistence** — one JSON file per model digest under
  ``<backend cache>/tuning/`` (see
  :func:`repro.core.backends.cffi_backend.build_cache_dir`), written
  atomically so concurrent tuners on one host race harmlessly.

Lookups are wired into ``PhoneBitEngine.run_batch``: when a record exists
for the current host/digest/bucket it supplies the defaults, and explicit
``num_threads`` / ``chunk_bytes`` settings still win.  A missing or
corrupt record simply means built-in defaults — tuning can never change
results or availability, only speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from repro.core import plan as plan_mod
from repro.core.plan import positive_int

#: Bump when the record layout changes; readers ignore foreign versions.
_SCHEMA_VERSION = 1

#: Batch buckets are powers of two capped here — beyond this the per-image
#: cost curve is flat and one record serves every huge batch.
_MAX_BUCKET = 256

#: Row-tile candidates (bounds on rows per thread tile).
_ROW_TILE_CANDIDATES = (128, 256, 512, 1024)

#: Filter-column tile candidates for the NumPy fused kernel (the compiled
#: kernels keep one activation row hot across all filters and ignore this).
_COL_TILE_CANDIDATES = (32, 64, 128)


def host_fingerprint() -> str:
    """Short stable identifier of this host's performance-relevant shape.

    Covers the machine/OS architecture, core count and the library
    versions the kernels are built against — the things that invalidate a
    tuning record.  Deliberately excludes hostname: identical containers
    should share records when they share a cache volume.
    """
    payload = "|".join(
        (
            platform.machine(),
            platform.system(),
            str(os.cpu_count() or 1),
            platform.python_implementation(),
            ".".join(platform.python_version_tuple()[:2]),
            np.__version__,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def batch_bucket(batch_size: int) -> int:
    """Power-of-two bucket a batch size falls into (capped).

    Buckets keep the search space finite: one record covers every batch
    size rounding up to the same power of two, and everything beyond
    :data:`_MAX_BUCKET` shares the cap record.
    """
    size = positive_int(batch_size, "batch_size")
    bucket = 1
    while bucket < size and bucket < _MAX_BUCKET:
        bucket *= 2
    return bucket


def network_digest(network) -> str:
    """SHA-256 content address of the network's serialized artifact.

    Identical to the digest :mod:`repro.serving.shm_store` and the
    cross-host model cache key artifacts by, so tuning records line up
    with the deployment stores.  Cached on the network, invalidated with
    the plan (any weight reassignment recompiles the plan, which drops the
    memo along with it).
    """
    from repro.core.model_format import serialize_network
    from repro.serving.shm_store import artifact_digest

    plan = plan_mod.get_plan(network)
    memo = getattr(network, "_artifact_digest_memo", None)
    if memo is not None and memo[0] is plan:
        return memo[1]
    digest = artifact_digest(serialize_network(network))
    network._artifact_digest_memo = (plan, digest)
    return digest


@dataclass(frozen=True)
class TunedConfig:
    """One measured winner for a (host, model digest, batch bucket) key."""

    backend: str
    threads: int
    row_tile: int
    col_tile: Optional[int]
    chunk_bytes: Optional[int]
    mean_ms: float

    def validated(self) -> "TunedConfig":
        """Raise ``ValueError`` if any field is out of range."""
        positive_int(self.threads, "threads")
        positive_int(self.row_tile, "row_tile")
        if self.col_tile is not None:
            positive_int(self.col_tile, "col_tile")
        if self.chunk_bytes is not None:
            positive_int(self.chunk_bytes, "chunk_bytes")
        return self


class TuningCache:
    """Digest-keyed persistent store of tuning winners (one JSON per model).

    Records live next to the compiled-kernel cache, so one volume mount
    gives a fleet of identical workers both the built ``.so`` and the
    measured knobs.  Files are read once per process (then memoized) and
    written atomically via a staging file + ``os.replace``.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        if cache_dir is None:
            from repro.core.backends.cffi_backend import build_cache_dir

            cache_dir = build_cache_dir()
        self.directory = os.path.join(cache_dir, "tuning")
        self._lock = threading.Lock()
        self._memo: Dict[str, Dict[str, dict]] = {}

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    def _entries(self, digest: str) -> Dict[str, dict]:
        with self._lock:
            cached = self._memo.get(digest)
            if cached is not None:
                return cached
        entries: Dict[str, dict] = {}
        try:
            with open(self._path(digest)) as fh:
                payload = json.load(fh)
            if payload.get("version") == _SCHEMA_VERSION:
                entries = dict(payload.get("entries", {}))
        except (OSError, ValueError):
            entries = {}
        with self._lock:
            self._memo[digest] = entries
        return entries

    @staticmethod
    def _key(batch_size: int) -> str:
        return f"{host_fingerprint()}/b{batch_bucket(batch_size)}"

    def lookup(self, digest: str, batch_size: int) -> Optional[TunedConfig]:
        """Winner for this host and batch bucket, or ``None``.

        A malformed record is treated as absent — a hand-edited or
        truncated cache file degrades to defaults, never to an error.
        """
        raw = self._entries(digest).get(self._key(batch_size))
        if raw is None:
            return None
        try:
            return TunedConfig(
                backend=str(raw["backend"]),
                threads=int(raw["threads"]),
                row_tile=int(raw["row_tile"]),
                col_tile=None if raw.get("col_tile") is None else int(raw["col_tile"]),
                chunk_bytes=(
                    None if raw.get("chunk_bytes") is None
                    else int(raw["chunk_bytes"])
                ),
                mean_ms=float(raw.get("mean_ms", 0.0)),
            ).validated()
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, digest: str, batch_size: int, config: TunedConfig) -> str:
        """Persist ``config`` under this host's key; returns the file path.

        Read-modify-write of the whole per-digest file under the instance
        lock, installed with an atomic rename so a concurrent tuner never
        sees a torn file (last writer wins; both measured the same host).
        """
        config.validated()
        path = self._path(digest)
        with self._lock:
            entries = self._memo.get(digest)
        entries = dict(entries) if entries else {}
        try:
            with open(path) as fh:
                payload = json.load(fh)
            if payload.get("version") == _SCHEMA_VERSION:
                merged = dict(payload.get("entries", {}))
                merged.update(entries)
                entries = merged
        except (OSError, ValueError):
            pass
        entries[self._key(batch_size)] = asdict(config)
        os.makedirs(self.directory, exist_ok=True)
        fd, staging = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"version": _SCHEMA_VERSION, "entries": entries}, fh,
                          indent=2, sort_keys=True)
            os.replace(staging, path)
        except BaseException:
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise
        with self._lock:
            self._memo[digest] = entries
        return path


_CACHE_LOCK = threading.Lock()
_CACHES: Dict[str, TuningCache] = {}


def get_cache() -> TuningCache:
    """Process-wide cache for the current ``REPRO_BACKEND_CACHE`` setting.

    Keyed by the resolved directory so tests that repoint the environment
    variable get a fresh instance instead of a stale memo.
    """
    from repro.core.backends.cffi_backend import build_cache_dir

    directory = build_cache_dir()
    with _CACHE_LOCK:
        cache = _CACHES.get(directory)
        if cache is None:
            cache = TuningCache(directory)
            _CACHES[directory] = cache
        return cache


def lookup_network(network, batch_size: int,
                   cache: Optional[TuningCache] = None) -> Optional[TunedConfig]:
    """Tuning winner for ``network`` on this host, or ``None``.

    The first call per network serializes it once to compute the digest;
    later calls hit the memo.  Used by ``PhoneBitEngine`` on every batch,
    so everything past the digest is dictionary lookups.
    """
    cache = cache or get_cache()
    return cache.lookup(network_digest(network), batch_size)


def _measure_ms(plan, batch, threads, row_tile, col_tile, chunk_rows,
                repeats: int) -> float:
    """Best-of-``repeats`` wall time (ms) of one knob combination."""
    n = batch.shape[0]
    step = n if not chunk_rows else max(1, min(int(chunk_rows), n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for start in range(0, n, step):
            plan.execute(batch[start:start + step], threads=threads,
                         row_tile=row_tile, col_tile=col_tile)
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return best


def _reads_col_tile(plan) -> bool:
    """Whether a step runs the only kernel that reads ``col_tile``.

    That is the NumPy threshold epilogue of a packed GEMM: compiled kernels
    keep one activation row hot across all filters, and a float head's
    affine epilogue runs the plain GEMM.
    """
    return any(
        isinstance(step, plan_mod.PackedGemmStep)
        and step.acc_threshold is not None and step.compiled is None
        for step in plan.steps
    )


def tune_network(
    network,
    batch_size: int,
    backend: Optional[str] = None,
    repeats: int = 3,
    cache: Optional[TuningCache] = None,
    store: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> TunedConfig:
    """Measure the plan's knobs for one batch bucket and persist the winner.

    Greedy coordinate descent over (threads, row tile, column tile, chunk
    rows), each axis measured best-of-``repeats`` on a synthetic batch of
    the bucket size.  The thread axis is searched in the order
    :func:`repro.gpusim.cost_model.thread_candidates` suggests from the
    simulated compute/memory split.  Tuning only ever touches knobs that
    cannot change results, so no re-verification is needed beyond the
    bit-exactness gate ``select_backend`` already applied.
    """
    from repro.gpusim.cost_model import thread_candidates

    plan = plan_mod.get_plan(network)
    plan.select_backend(backend)
    bucket = batch_bucket(batch_size)
    rng = np.random.default_rng(7) if rng is None else rng
    shape = (bucket,) + tuple(network.input_shape)
    dtype = np.dtype(getattr(network, "input_dtype", np.uint8))
    if dtype.kind in "ui":
        bits = getattr(network.layers[0], "input_bits", 8) if network.layers else 8
        batch = rng.integers(0, 1 << min(bits, 8), size=shape).astype(dtype)
    else:
        batch = rng.standard_normal(shape).astype(dtype)

    try:
        from repro.core.engine import PhoneBitEngine

        run_cost = PhoneBitEngine().estimate(network).run_cost
    except Exception:  # noqa: BLE001 - seeding is best-effort
        run_cost = None

    best = {"threads": 1, "row_tile": None, "col_tile": None, "chunk_rows": None}

    def measure(**overrides) -> float:
        knobs = dict(best)
        knobs.update(overrides)
        return _measure_ms(plan, batch, repeats=repeats, **knobs)

    plan.execute(batch, threads=1)  # warm arenas/pools out of the timings
    best_ms = measure()
    for threads in thread_candidates(run_cost):
        if threads == best["threads"]:
            continue
        ms = measure(threads=threads)
        if ms < best_ms:
            best_ms, best["threads"] = ms, threads
    for row_tile in _ROW_TILE_CANDIDATES:
        ms = measure(row_tile=row_tile)
        if ms < best_ms:
            best_ms, best["row_tile"] = ms, row_tile
    if _reads_col_tile(plan):
        for col_tile in _COL_TILE_CANDIDATES:
            ms = measure(col_tile=col_tile)
            if ms < best_ms:
                best_ms, best["col_tile"] = ms, col_tile
    if bucket >= 8:
        for chunk_rows in (bucket // 2, bucket // 4):
            ms = measure(chunk_rows=chunk_rows)
            if ms < best_ms:
                best_ms, best["chunk_rows"] = ms, chunk_rows

    config = TunedConfig(
        backend=plan.backend_spec,
        threads=best["threads"],
        row_tile=best["row_tile"] or plan_mod._ROW_TILE,
        col_tile=best["col_tile"],
        chunk_bytes=(
            None if best["chunk_rows"] is None
            else max(1, best["chunk_rows"]) * max(1, plan.per_sample_bytes)
        ),
        mean_ms=best_ms,
    )
    if store:
        cache = cache or get_cache()
        cache.store(network_digest(network), batch_size, config)
    return config
