"""Shared-memory model store: serialize packed weights once, attach N times.

A cluster of worker processes must not hold N private copies of the model
zoo.  :class:`SharedModelStore` serializes each network **once** into a
``multiprocessing.shared_memory`` segment using the ``.pbit`` format
(:mod:`repro.core.model_format`), and every worker attaches with
:func:`attach_model`, which maps the segment and rebuilds the network with
``zero_copy=True`` — the packed filter banks and dense weight matrices end
up as read-only NumPy views straight into the shared pages.  No worker
unpacks, repacks or copies the bulk weights; the only per-worker costs are
the small per-channel vectors and the plan compilation at warm time.

Ownership and cleanup discipline:

* The **owner** (the process that published) unlinks every segment in
  :meth:`SharedModelStore.close`; a ``weakref.finalize`` hook makes a
  best-effort cleanup on interpreter exit, and the stdlib resource tracker
  reclaims the segments even if the owner is SIGKILLed.
* **Attachers** never unlink.  Python < 3.13 registers every attached
  segment with the resource tracker, whose exit-time cleanup would destroy
  the owner's segment the moment *one worker* dies — exactly wrong for a
  cluster that respawns crashed workers.  :func:`attach_model` therefore
  suppresses the attach-side registration, which is what keeps a worker
  crash from tearing the model store out from under the survivors (pinned
  by ``tests/test_cluster.py``).

Note the ``.pbit`` round trip stores thresholds in float32, so an attached
network is bit-identical to *any other load of the same published bytes* —
the invariant the cluster relies on — but only approximately equal
(``allclose``-level) to the float64 in-memory network it was serialized
from.  Cluster-vs-single-process comparisons must therefore serve the same
published artifact on both sides.

Cross-host serving (:mod:`repro.serving.transport`) extends the same idea:
every published artifact is identified by the SHA-256 **digest** of its
``.pbit`` bytes (``ShmModelHandle.digest``), and remote workers keep a
:class:`HostModelCache` — shared-memory segments *named by digest* — so a
host fetches each artifact's bytes over the transport at most once, and
every worker on that host attaches the cached segment zero-copy exactly
like a local worker attaches the owner's segment.
"""

from __future__ import annotations

import _posixshmem
import contextlib
import hashlib
import threading
import time
import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.model_format import load_network_from_buffer, serialize_network
from repro.core.network import Network

__all__ = [
    "AttachedModel",
    "HostModelCache",
    "SharedModelStore",
    "ShmModelHandle",
    "artifact_digest",
    "attach_model",
]

_ATTACH_LOCK = threading.Lock()


class _QuietSharedMemory(shared_memory.SharedMemory):
    """``SharedMemory`` whose close tolerates still-exported buffer views.

    The zero-copy design makes "NumPy views alive at close time" a normal
    state, not a bug: a network's packed weights are views into the
    mapping, and interpreter shutdown tears objects down in arbitrary
    order.  The stdlib ``close()`` raises ``BufferError`` then (loudly, in
    ``__del__``); here the mapping simply stays open until process exit,
    when the OS reclaims it anyway.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            pass


@contextlib.contextmanager
def _untracked_attach() -> Iterator[None]:
    """Suppress resource-tracker registration while attaching a segment.

    Python < 3.13 registers shared memory with the resource tracker on
    *attach*, not just on create.  A spawned worker runs its own tracker,
    which unlinks everything it registered when the worker exits — so the
    first worker death would destroy the store for every survivor.
    Unregistering after the fact is no better: forked workers share the
    owner's tracker, and the unregister would strip the owner's own
    leak-protection entry.  Suppressing the registration only for the
    attach call leaves exactly one tracked owner.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register

        def _register(name: str, rtype: str) -> None:  # pragma: no cover
            if rtype != "shared_memory":
                original(name, rtype)

        resource_tracker.register = _register
        try:
            yield
        finally:
            resource_tracker.register = original


def artifact_digest(raw) -> str:
    """SHA-256 hex digest of a published ``.pbit`` payload.

    The digest is the artifact's *identity* across hosts: two stores that
    publish bit-identical bytes produce the same digest, which is what lets
    a remote worker answer "do I already hold this model?" without trusting
    host-local segment names.

    Parameters
    ----------
    raw : bytes-like
        The exact serialized payload (``serialize_network`` output).

    Returns
    -------
    str
        64-character lowercase hex digest.

    Examples
    --------
    >>> artifact_digest(b"phonebit")  # doctest: +ELLIPSIS
    '9b978838ffc4ed...'
    >>> artifact_digest(memoryview(b"phonebit")) == artifact_digest(b"phonebit")
    True
    """
    return hashlib.sha256(raw).hexdigest()


@dataclass(frozen=True)
class ShmModelHandle:
    """Picklable descriptor of one published model.

    Everything a worker process needs to attach: the canonical model name,
    the shared-memory segment name, the exact payload length (the OS may
    round the segment itself up to a page multiple) and the SHA-256 digest
    of the payload bytes — the artifact's cross-host identity
    (:func:`artifact_digest`).
    """

    model: str
    shm_name: str
    nbytes: int
    digest: str = ""


@dataclass
class AttachedModel:
    """A network mapped zero-copy from a shared-memory segment.

    Keeps the :class:`~multiprocessing.shared_memory.SharedMemory` object
    referenced — the network's packed weights are views into its buffer, so
    the mapping must outlive the network.  ``close()`` only detaches this
    process's mapping; it never unlinks the owner's segment.
    """

    network: Network
    handle: ShmModelHandle
    attach_ms: float
    shm: shared_memory.SharedMemory = field(repr=False)

    def close(self) -> None:
        """Detach the local mapping (call only once the network is dead)."""
        # NumPy views exported from shm.buf must be gone first, otherwise
        # the mmap refuses to close; dropping the network is the caller's
        # job, hence "only once the network is dead".
        self.network = None  # type: ignore[assignment]
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - live views still exported
            pass


def attach_model(handle: ShmModelHandle) -> AttachedModel:
    """Attach to a published model, zero-copy.

    Maps the segment named by ``handle`` and deserializes with
    ``zero_copy=True``: packed binary weights are read-only views into the
    shared pages — no unpack, no copy.  The returned
    :class:`AttachedModel` records the wall-clock attach time
    (``attach_ms``), which the cluster benchmark reports.

    Raises
    ------
    FileNotFoundError
        If the owner has already unlinked the segment (store closed).
    """
    t0 = time.perf_counter()
    with _untracked_attach():
        shm = _QuietSharedMemory(name=handle.shm_name, create=False)
    try:
        network = load_network_from_buffer(
            shm.buf[: handle.nbytes], zero_copy=True
        )
    except Exception:
        shm.close()
        raise
    attach_ms = (time.perf_counter() - t0) * 1000.0
    return AttachedModel(network=network, handle=handle, attach_ms=attach_ms,
                         shm=shm)


class SharedModelStore:
    """Owner side of the shared-memory model zoo.

    Examples
    --------
    Publish a model once, attach (here: in the same process — workers do
    exactly this after ``fork``/``spawn``) and run it zero-copy:

    >>> import numpy as np
    >>> from repro.core.model_format import (
    ...     load_network_from_buffer, serialize_network)
    >>> from repro.models.zoo import build_phonebit_network, micro_cnn_config
    >>> from repro.serving.shm_store import SharedModelStore, attach_model
    >>> network = build_phonebit_network(micro_cnn_config())
    >>> reloaded = load_network_from_buffer(serialize_network(network))
    >>> with SharedModelStore() as store:
    ...     handle = store.publish(network)
    ...     attached = attach_model(handle)
    ...     packed_is_view = not attached.network.layers[2].weights_packed.flags.owndata
    ...     image = np.zeros((1, 8, 8, 3), dtype=np.uint8)
    ...     same = np.array_equal(
    ...         attached.network(image).data, reloaded(image).data)
    ...     attached.close()
    >>> (packed_is_view, same)
    (True, True)
    """

    def __init__(self, prefix: str = "repro-model") -> None:
        self.prefix = prefix
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._handles: Dict[str, ShmModelHandle] = {}
        #: Every published version, active or staged, keyed by its digest:
        #: ``digest -> (segment_key, handle)``.  ``_handles`` only ever
        #: names the *active* version per model; a live rollout keeps the
        #: outgoing and incoming artifacts resident here simultaneously.
        self._by_digest: Dict[str, Tuple[str, ShmModelHandle]] = {}
        # Best-effort unlink when the owner exits without close(); SIGKILL
        # is covered by the stdlib resource tracker instead.
        self._finalizer = weakref.finalize(self, _close_segments, self._segments)

    # ------------------------------------------------------------- publish
    def _publish_raw(self, raw: bytes, key: str,
                     segment_key: str) -> ShmModelHandle:
        digest = artifact_digest(raw)
        if digest in self._by_digest:
            # Content addressing makes re-publishing the same bytes a no-op:
            # the artifact is already resident under this digest.
            return self._by_digest[digest][1]
        shm = _QuietSharedMemory(create=True, size=len(raw))
        shm.buf[: len(raw)] = raw
        self._segments[segment_key] = shm
        handle = ShmModelHandle(model=key, shm_name=shm.name, nbytes=len(raw),
                                digest=digest)
        self._by_digest[digest] = (segment_key, handle)
        return handle

    def publish(self, network: Network, name: Optional[str] = None) -> ShmModelHandle:
        """Serialize ``network`` into a fresh segment; returns its handle."""
        key = name or network.name
        if key in self._handles:
            raise ValueError(f"model {key!r} is already published")
        handle = self._publish_raw(serialize_network(network), key,
                                   segment_key=key)
        self._handles[key] = handle
        return handle

    def publish_version(self, network: Network,
                        name: Optional[str] = None) -> ShmModelHandle:
        """Publish a *new version* of an already-published model.

        Unlike :meth:`publish`, the model name may (and normally does)
        already exist: the new artifact gets its own segment and digest
        while the currently active version keeps serving — this is the
        staging half of a live rollout.  The active handle is untouched
        until :meth:`activate` flips it; :meth:`retire_version` frees
        whichever version lost.  Publishing bytes that are already
        resident (same digest) returns the existing handle.
        """
        key = name or network.name
        raw = serialize_network(network)
        return self._publish_raw(raw, key,
                                 segment_key=f"{key}@{artifact_digest(raw)[:12]}")

    def activate(self, name: str, digest: str) -> ShmModelHandle:
        """Make ``digest`` the active version served under ``name``.

        The previous active version stays resident (instant rollback is
        the point); free it explicitly with :meth:`retire_version` once
        the fleet has detached it.
        """
        entry = self._by_digest.get(digest)
        if entry is None:
            raise KeyError(f"no published version with digest {digest[:16]}...")
        _, handle = entry
        if handle.model != name:
            raise ValueError(
                f"digest {digest[:16]}... was published for model "
                f"{handle.model!r}, not {name!r}")
        self._handles[name] = handle
        return handle

    def retire_version(self, digest: str) -> None:
        """Unmap and unlink one non-active version (idempotent).

        Refuses to retire the digest a model is actively serving — commit
        or roll back first.
        """
        entry = self._by_digest.get(digest)
        if entry is None:
            return
        segment_key, handle = entry
        active = self._handles.get(handle.model)
        if active is not None and active.digest == digest:
            raise ValueError(
                f"digest {digest[:16]}... is the active version of "
                f"{handle.model!r}; activate another version before retiring")
        del self._by_digest[digest]
        shm = self._segments.pop(segment_key, None)
        if shm is not None:
            shm.close()
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()

    def version_handles(self, name: str) -> Dict[str, ShmModelHandle]:
        """All resident versions of ``name``, keyed by digest."""
        return {digest: handle
                for digest, (_, handle) in self._by_digest.items()
                if handle.model == name}

    def publish_models(self, models: Iterable[str], rng: int = 0,
                       word_size: int = 64) -> Dict[str, ShmModelHandle]:
        """Build zoo models by name and publish each (serving-zoo lookup)."""
        from repro.models.zoo import build_phonebit_network, get_serving_config

        handles = {}
        for model in models:
            config = get_serving_config(model)
            network = build_phonebit_network(config, rng=rng, word_size=word_size)
            handles[config.name] = self.publish(network, name=config.name)
        return handles

    # ------------------------------------------------------------- lookup
    def handles(self) -> Dict[str, ShmModelHandle]:
        """Snapshot of every published handle, keyed by model name."""
        return dict(self._handles)

    def __contains__(self, name: str) -> bool:
        return name in self._handles

    def total_bytes(self) -> int:
        """Sum of published payload bytes across all models."""
        return sum(handle.nbytes for handle in self._handles.values())

    def payload_view(self, digest: str) -> memoryview:
        """Zero-copy view of one published payload, looked up by digest.

        This is the router side of the cross-host model fetch: when a
        remote worker asks for an artifact it does not hold, the bytes are
        streamed straight out of the owner's segment — no intermediate
        copy.  The caller must not outlive the store.

        Raises
        ------
        KeyError
            If no published model carries ``digest``.
        """
        entry = self._by_digest.get(digest)
        if entry is not None:
            segment_key, handle = entry
            return memoryview(self._segments[segment_key].buf)[: handle.nbytes]
        raise KeyError(f"no published model with digest {digest[:16]}...")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Unmap and unlink every published segment (idempotent)."""
        _close_segments(self._segments)
        self._handles.clear()
        self._by_digest.clear()
        self._finalizer.detach()

    def __enter__(self) -> "SharedModelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _close_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    """Unmap + unlink helper shared by close() and the GC finalizer."""
    while segments:
        _, shm = segments.popitem()
        try:
            shm.close()
        except Exception:  # pragma: no cover - defensive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass


# ---------------------------------------------------------------------------
# per-host digest-keyed cache (cross-host serving)
# ---------------------------------------------------------------------------

#: Digest-derived segment names make the cache host-global: every worker on
#: a host computes the same name from the same artifact digest.
CACHE_SEGMENT_PREFIX = "repro-mcache-"


def cache_segment_name(digest: str) -> str:
    """Deterministic per-host segment name for one artifact digest.

    Examples
    --------
    >>> cache_segment_name("ab" * 32)
    'repro-mcache-abababababababababababab'
    """
    if not digest:
        raise ValueError("artifact digest is required for the host cache")
    return CACHE_SEGMENT_PREFIX + digest[:24]


class HostModelCache:
    """Per-host cache of published artifacts, keyed by payload digest.

    A remote worker cannot attach the router's shared-memory segment — it
    lives on another host.  Instead each host keeps digest-named segments
    (:func:`cache_segment_name`): the **first** worker on a host to need an
    artifact fetches its ``.pbit`` bytes over the transport, publishes them
    locally under the digest-derived name, and every later worker on that
    host attaches the cached segment zero-copy — the fetch happens once per
    host, not once per worker.

    Cache segments carry one trailing *ready* byte after the payload so a
    concurrent attacher never maps a half-written artifact: the publisher
    flips it only after the payload is fully copied, and an attacher that
    times out waiting for it (publisher crashed mid-write) reclaims the
    segment and re-fetches.

    The worker that *created* a cache segment unlinks it on
    :meth:`close` / interpreter exit; co-hosted workers that merely
    attached keep their existing mappings alive (Linux unlink semantics)
    and later workers simply re-fetch.

    Examples
    --------
    Same-host fast path — the handle's own segment is attached directly
    (digest-verified) and no fetch ever happens:

    >>> import numpy as np
    >>> from repro.models.zoo import build_phonebit_network, micro_cnn_config
    >>> from repro.serving.shm_store import HostModelCache, SharedModelStore
    >>> with SharedModelStore() as store:
    ...     handle = store.publish(build_phonebit_network(micro_cnn_config()))
    ...     cache = HostModelCache()
    ...     attached = cache.attach(handle, fetch=None)  # no fetch needed
    ...     name, is_view = (attached.network.name,
    ...                      not attached.network.layers[2].weights_packed.flags.owndata)
    ...     attached.close()
    ...     cache.close()
    >>> (name, is_view)
    ('MicroCNN', True)
    """

    def __init__(self, ready_timeout_s: float = 10.0) -> None:
        self.ready_timeout_s = ready_timeout_s
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._finalizer = weakref.finalize(self, _close_segments, self._segments)
        #: (digest, source) pairs, in attach order — benchmarks and tests
        #: read this to prove the fetch-once-per-host property.
        self.attach_log: List[Tuple[str, str]] = []

    # ------------------------------------------------------------- attach
    def attach(self, handle: ShmModelHandle,
               fetch: Optional[Callable[[], bytes]] = None) -> AttachedModel:
        """Attach ``handle``'s artifact from the fastest local source.

        Resolution order:

        1. **host cache** — a digest-named segment published by any worker
           on this host;
        2. **owner segment** — ``handle.shm_name`` directly (only succeeds
           when the router is co-hosted), verified against the digest;
        3. **fetch** — call ``fetch()`` for the payload bytes (the remote
           path: one transport round trip), verify the digest, publish the
           digest-named cache segment for co-hosted workers, attach it.

        Returns an :class:`AttachedModel` exactly like :func:`attach_model`.

        Raises
        ------
        FileNotFoundError
            When no local source exists and ``fetch`` is ``None``.
        ValueError
            When fetched bytes do not hash to ``handle.digest``.
        """
        cache_name = cache_segment_name(handle.digest)
        for _ in range(3):  # create/attach races resolve within a retry or two
            attached = self._attach_ready(handle, cache_name)
            if attached is not None:
                return attached
            attached = self._attach_owner(handle)
            if attached is not None:
                return attached
            if fetch is None:
                raise FileNotFoundError(
                    f"artifact {handle.digest[:16]}... is not cached on this "
                    f"host and no fetch path was provided"
                )
            attached = self._fetch_and_publish(handle, cache_name, fetch)
            if attached is not None:
                return attached
        raise RuntimeError(  # pragma: no cover - repeated create/unlink races
            f"could not attach artifact {handle.digest[:16]}... after retries"
        )

    def _load(self, shm: shared_memory.SharedMemory,
              handle: ShmModelHandle, t0: float, source: str) -> AttachedModel:
        try:
            network = load_network_from_buffer(
                shm.buf[: handle.nbytes], zero_copy=True
            )
        except Exception:
            shm.close()
            raise
        self.attach_log.append((handle.digest, source))
        attach_ms = (time.perf_counter() - t0) * 1000.0
        return AttachedModel(network=network, handle=handle,
                             attach_ms=attach_ms, shm=shm)

    def _attach_ready(self, handle: ShmModelHandle,
                      cache_name: str) -> Optional[AttachedModel]:
        """Attach the digest-named cache segment once its publisher is done.

        ``None`` when no such segment exists (any more).  One that exists
        but is not ready — still empty between the publisher's ``shm_open``
        and ``ftruncate``, or sized with its ready byte unset — is polled
        until ``ready_timeout_s``.
        """
        t0 = time.perf_counter()
        deadline = t0 + self.ready_timeout_s
        while True:
            try:
                with _untracked_attach():
                    shm = _QuietSharedMemory(name=cache_name, create=False)
            except FileNotFoundError:
                return None
            except ValueError:  # "cannot mmap an empty file": not sized yet
                shm = None
            if (shm is not None and shm.size > handle.nbytes
                    and shm.buf[handle.nbytes] == 1):
                return self._load(shm, handle, t0, source="host-cache")
            if shm is not None:
                shm.close()
            if time.perf_counter() > deadline:
                # Publisher crashed mid-publish: reclaim so a live worker can
                # republish (the unlink only hides the name; crashed
                # mappings are already gone).  By name: a still-empty
                # segment cannot be mapped.
                with contextlib.suppress(FileNotFoundError):
                    _posixshmem.shm_unlink("/" + cache_name)
                return None
            time.sleep(0.01)

    def _attach_owner(self, handle: ShmModelHandle) -> Optional[AttachedModel]:
        """Attach the owner's segment directly (co-hosted router only)."""
        if not handle.shm_name:
            return None
        t0 = time.perf_counter()
        try:
            with _untracked_attach():
                shm = _QuietSharedMemory(name=handle.shm_name, create=False)
        except (FileNotFoundError, ValueError):
            return None
        # Digest verification: shm names are host-local, so on a *different*
        # host this name could coincidentally exist with other contents.
        if artifact_digest(shm.buf[: handle.nbytes]) != handle.digest:
            shm.close()  # pragma: no cover - name collision on foreign host
            return None
        return self._load(shm, handle, t0, source="owner-segment")

    def _fetch_and_publish(self, handle: ShmModelHandle, cache_name: str,
                           fetch: Callable[[], bytes]) -> Optional[AttachedModel]:
        """Fetch payload bytes, publish the cache segment, attach it.

        The segment is created (unready) *before* the fetch: the create is
        the host-global claim on this digest, so when several workers race
        to resolve the same artifact exactly one performs the transport
        round trip — the losers see ``FileExistsError`` immediately and
        wait on the winner's ready flag instead of fetching the same bytes
        again.  (Creating after the fetch — the original order — let every
        racer pay a full fetch before discovering it lost.)
        """
        t0 = time.perf_counter()
        try:
            shm = _QuietSharedMemory(name=cache_name, create=True,
                                     size=handle.nbytes + 1)
        except FileExistsError:
            # Another worker on this host won the claim — attach its segment
            # on the next loop iteration (waiting for its ready flag).
            return None
        try:
            raw = fetch()
            if len(raw) != handle.nbytes or artifact_digest(raw) != handle.digest:
                raise ValueError(
                    f"fetched artifact does not match digest "
                    f"{handle.digest[:16]}... (got {len(raw)} bytes)"
                )
        except BaseException:
            # A claimed-but-never-ready segment would strand every later
            # attacher until their ready timeout; release the claim so a
            # healthy worker can re-fetch.
            with contextlib.suppress(FileNotFoundError):
                shm.unlink()
            shm.close()
            raise
        shm.buf[: handle.nbytes] = bytes(raw)
        shm.buf[handle.nbytes] = 1  # ready: attachers may trust the payload
        self._segments[cache_name] = shm
        return self._load(shm, handle, t0, source="fetched")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Unlink every cache segment this worker created (idempotent)."""
        _close_segments(self._segments)
        self._finalizer.detach()

    def __enter__(self) -> "HostModelCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
