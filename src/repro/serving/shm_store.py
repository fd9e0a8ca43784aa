"""Shared-memory model store: serialize packed weights once, attach N times.

:class:`SharedModelStore` serializes each network **once** into a segment —
a file in the ``/dev/shm`` tmpfs — in the ``.pbit`` format, and every
worker attaches it with :func:`attach_model`: packed weights become
read-only NumPy views into the shared pages, so no worker unpacks or copies
them.  :class:`HostModelCache` does the same per host across hosts, under
segment names derived from the artifact's SHA-256 digest.

Segments follow TFLite's rule for model files: a name that exists is a
model that is complete.  The creator writes the payload into
``<name>.part`` and ``os.link``\\ s it to ``<name>``, so no reader can map a
half-written artifact.  Only the **creator** unlinks: in ``close()``, at
interpreter exit, or — since it registers each name it links with the
stdlib resource tracker, as ``SharedMemory(create=True)`` does — through
the tracker if SIGKILLed.
**Attachers** open ``O_RDONLY``, map ``PROT_READ`` and never touch the
tracker, so a worker's death cannot unlink the store under its survivors.

A ``.pbit`` round trip stores thresholds in float32: an attached network is
bit-identical to *any other load of the same published bytes* — the
invariant the cluster relies on — but only ``allclose`` to the float64
network it was serialized from.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import hashlib
import mmap
import os
import secrets
import time
import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.model_format import load_network_from_buffer, serialize_network
from repro.core.network import Network

__all__ = [
    "AttachedModel",
    "HostModelCache",
    "SharedModelStore",
    "ShmModelHandle",
    "ShmUnavailableError",
    "artifact_digest",
    "attach_model",
]

#: The tmpfs every segment lives in: a file here is a POSIX shm object.
_SHM_DIR = "/dev/shm"

#: Store segments get a fresh random name per publish; host-cache segments
#: are named by digest (:func:`cache_segment_name`).
STORE_SEGMENT_PREFIX = "repro-model-"


class ShmUnavailableError(OSError):
    """This host has no tmpfs at ``/dev/shm`` to share model segments in."""


def _path(name: str) -> str:
    return os.path.join(_SHM_DIR, name)


class _Segment:
    """One complete segment, mapped read-only.

    ``buf`` is a ``PROT_READ`` view of the whole file.  There is no
    ``close()``: the mapping goes when its last view dies, so live NumPy
    weight views can never make teardown fail.
    """

    def __init__(self, name: str, fd: int) -> None:
        self.name = name
        self.buf = memoryview(mmap.mmap(fd, 0, prot=mmap.PROT_READ))

    @classmethod
    def open(cls, name: str, nbytes: int) -> Optional["_Segment"]:
        """Map segment ``name``; ``None`` unless it holds exactly ``nbytes``
        (a wrong-sized file is never mapped)."""
        if not name or os.sep in name:
            return None  # a host-local segment name, never a path
        try:
            fd = os.open(_path(name), os.O_RDONLY | os.O_CLOEXEC)
        except FileNotFoundError:
            return None
        try:
            return cls(name, fd) if os.fstat(fd).st_size == nbytes else None
        finally:
            os.close(fd)

    @classmethod
    def publish(cls, name: str, payload, fd: int) -> "_Segment":
        """Write ``payload`` through ``fd`` — the held ``<name>.part`` claim
        (:func:`_claim`) — and link it to ``name``, complete."""
        os.ftruncate(fd, len(payload))
        with mmap.mmap(fd, len(payload)) as out:
            out[:] = payload
        os.link(_path(name + ".part"), _path(name))
        resource_tracker.register("/" + name, "shared_memory")
        # Mapped through a fresh fd: a mapping keeps a dup of the fd it was
        # made from, and a dup of the claim's would hold the claim with it.
        return cls.open(name, len(payload))

    def unlink(self) -> None:
        """Remove the name (creator only, once); mappings survive."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(_path(self.name))
        resource_tracker.unregister("/" + self.name, "shared_memory")


@contextlib.contextmanager
def _claim(name: str) -> Iterator[int]:
    """Hold the host-wide claim on publishing segment ``name``; yields its fd.

    The claim is ``flock(LOCK_EX)`` on ``<name>.part``, the file the holder
    writes the payload into before linking it.  The kernel drops the lock
    when the holder returns, raises or dies, so waiters wake at once.  A
    waiter whose ``.part`` was removed or replaced while it waited holds a
    stale file and retries on the current one.  The holder removes
    ``.part`` on the way out, before releasing the lock.
    """
    part = _path(name + ".part")
    while True:
        fd = os.open(part, os.O_RDWR | os.O_CREAT | os.O_CLOEXEC, 0o600)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                current = os.stat(part).st_ino == os.fstat(fd).st_ino
            except FileNotFoundError:  # the previous holder finished
                current = False
            if current:
                try:
                    yield fd
                finally:
                    os.unlink(part)
                return
        finally:
            os.close(fd)


def _unlink_segments(segments: Dict[str, _Segment]) -> None:
    while segments:
        segments.popitem()[1].unlink()


class _SegmentOwner:
    """Creator side: unlinks its segments on ``close()`` or at exit.

    Raises :class:`ShmUnavailableError` at construction on a host without
    a tmpfs at ``/dev/shm``.
    """

    def __init__(self) -> None:
        if not os.path.isdir(_SHM_DIR):
            raise ShmUnavailableError(
                errno.ENOENT, "shared-memory segments need a tmpfs", _SHM_DIR)
        self._segments: Dict[str, _Segment] = {}
        # Unlink at exit if close() never ran; SIGKILL is the tracker's job.
        self._finalizer = weakref.finalize(self, _unlink_segments,
                                           self._segments)

    def close(self) -> None:
        """Unlink every segment this object created (idempotent)."""
        _unlink_segments(self._segments)
        self._finalizer.detach()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def artifact_digest(raw) -> str:
    """SHA-256 hex digest of a published ``.pbit`` payload (bytes-like).

    The digest is the artifact's *identity* across hosts: two stores that
    publish bit-identical bytes produce the same digest, which is what lets
    a remote worker answer "do I already hold this model?" without trusting
    host-local segment names.

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
    the shared-memory segment name, the exact payload length (the segment's
    size) and the SHA-256 digest of the payload bytes — the artifact's
    cross-host identity (:func:`artifact_digest`).
    """

    model: str
    shm_name: str
    nbytes: int
    digest: str = ""


@dataclass
class AttachedModel:
    """A network mapped zero-copy from a shared-memory segment.

    Keeps the segment referenced — the network's packed weights are views
    into its mapping.  ``close()`` only drops this process's references; it
    never unlinks the owner's segment.
    """

    network: Network
    handle: ShmModelHandle
    attach_ms: float
    segment: _Segment = field(repr=False)

    def close(self) -> None:
        """Drop the local mapping; it is unmapped once its last view dies."""
        self.network = None  # type: ignore[assignment]
        self.segment = None  # type: ignore[assignment]


def _attached(segment: _Segment, handle: ShmModelHandle,
              t0: float) -> AttachedModel:
    network = load_network_from_buffer(segment.buf, zero_copy=True)
    return AttachedModel(network=network, handle=handle,
                         attach_ms=(time.perf_counter() - t0) * 1000.0,
                         segment=segment)


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
    segment = _Segment.open(handle.shm_name, handle.nbytes)
    if segment is None:
        raise FileNotFoundError(
            f"no {handle.nbytes}-byte shared-memory segment "
            f"{handle.shm_name!r} (store closed?)")
    return _attached(segment, handle, t0)


class SharedModelStore(_SegmentOwner):
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

    def __init__(self) -> None:
        super().__init__()
        self._handles: Dict[str, ShmModelHandle] = {}
        #: Every published version, active or staged, keyed by its digest
        #: (as ``_segments`` is).  ``_handles`` only ever names the *active*
        #: version per model; a live rollout keeps the outgoing and incoming
        #: artifacts resident here simultaneously.
        self._by_digest: Dict[str, ShmModelHandle] = {}

    # ------------------------------------------------------------- publish
    def publish(self, network: Network, name: Optional[str] = None) -> ShmModelHandle:
        """Serialize ``network`` into a fresh segment; returns its handle."""
        key = name or network.name
        if key in self._handles:
            raise ValueError(f"model {key!r} is already published")
        self._handles[key] = self.publish_version(network, key)
        return self._handles[key]

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
        raw = serialize_network(network)
        digest = artifact_digest(raw)
        if digest not in self._by_digest:
            shm_name = STORE_SEGMENT_PREFIX + secrets.token_hex(8)
            with _claim(shm_name) as fd:
                self._segments[digest] = _Segment.publish(shm_name, raw, fd)
            self._by_digest[digest] = ShmModelHandle(
                model=name or network.name, shm_name=shm_name,
                nbytes=len(raw), digest=digest)
        return self._by_digest[digest]

    def activate(self, name: str, digest: str) -> ShmModelHandle:
        """Make ``digest`` the active version served under ``name``.

        The previous active version stays resident (instant rollback is
        the point); free it explicitly with :meth:`retire_version` once
        the fleet has detached it.
        """
        handle = self._by_digest.get(digest)
        if handle is None:
            raise KeyError(f"no published version with digest {digest[:16]}...")
        if handle.model != name:
            raise ValueError(
                f"digest {digest[:16]}... was published for model "
                f"{handle.model!r}, not {name!r}")
        self._handles[name] = handle
        return handle

    def retire_version(self, digest: str) -> None:
        """Unlink one non-active version (idempotent).

        Refuses to retire the digest a model is actively serving — commit
        or roll back first.
        """
        handle = self._by_digest.get(digest)
        if handle is None:
            return
        active = self._handles.get(handle.model)
        if active is not None and active.digest == digest:
            raise ValueError(
                f"digest {digest[:16]}... is the active version of "
                f"{handle.model!r}; activate another version before retiring")
        del self._by_digest[digest]
        self._segments.pop(digest).unlink()

    def version_handles(self, name: str) -> Dict[str, ShmModelHandle]:
        """All resident versions of ``name``, keyed by digest."""
        return {digest: handle for digest, handle in self._by_digest.items()
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

    def total_bytes(self) -> int:
        """Sum of published payload bytes across all models."""
        return sum(handle.nbytes for handle in self._handles.values())

    def payload_view(self, digest: str) -> memoryview:
        """Zero-copy view of one published payload, looked up by digest.

        This is the router side of the cross-host model fetch: when a
        remote worker asks for an artifact it does not hold, the bytes are
        streamed straight out of the owner's segment — no intermediate
        copy.  The view keeps the mapping alive by itself.

        Raises
        ------
        KeyError
            If no published model carries ``digest``.
        """
        if digest not in self._segments:
            raise KeyError(f"no published model with digest {digest[:16]}...")
        return self._segments[digest].buf

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        super().close()
        self._handles.clear()
        self._by_digest.clear()


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


class HostModelCache(_SegmentOwner):
    """Per-host cache of published artifacts, keyed by payload digest.

    A remote worker cannot attach the router's segment — it lives on
    another host.  Instead each host keeps digest-named segments
    (:func:`cache_segment_name`): the **first** worker on a host to need an
    artifact fetches its ``.pbit`` bytes over the transport and publishes
    them under the digest-derived name, and every later worker on that host
    attaches the cached segment zero-copy — one fetch per host, not per
    worker.  Workers racing for one digest wait on the first one's
    ``flock`` claim; a claimant killed mid-write frees the claim with its
    process, so the next waiter takes over at once.

    The worker that *created* a cache segment unlinks it on :meth:`close`;
    co-hosted workers that merely attached keep their mappings (Linux
    unlink semantics), and later workers simply re-fetch.

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

    def __init__(self) -> None:
        super().__init__()
        #: (digest, source) pairs, in attach order — benchmarks and tests
        #: read this to prove the fetch-once-per-host property.
        self.attach_log: List[Tuple[str, str]] = []

    def attach(self, handle: ShmModelHandle,
               fetch: Optional[Callable[[], bytes]] = None) -> AttachedModel:
        """Attach ``handle``'s artifact from the fastest local source.

        Resolution order:

        1. **host cache** — a digest-named segment published by any worker
           on this host;
        2. **owner segment** — ``handle.shm_name`` directly (only succeeds
           when the router is co-hosted), verified against the digest;
        3. **fetch** — claim the digest, call ``fetch()`` for the payload
           bytes (the remote path: one transport round trip), verify the
           digest, publish the digest-named cache segment for co-hosted
           workers, attach it.  A worker that finds the digest claimed
           waits for the claimant and attaches what it published.

        Returns an :class:`AttachedModel` exactly like :func:`attach_model`.

        Raises
        ------
        FileNotFoundError
            When no local source exists and ``fetch`` is ``None``.
        ValueError
            When fetched bytes do not hash to ``handle.digest``.
        """
        cache_name = cache_segment_name(handle.digest)
        t0 = time.perf_counter()
        segment = _Segment.open(cache_name, handle.nbytes)
        if segment is not None:
            return self._load(segment, handle, t0, source="host-cache")
        # Owner segment: names are host-local, so on a *different* host
        # this name could exist with other contents — verify the digest.
        segment = _Segment.open(handle.shm_name, handle.nbytes)
        if segment is not None and artifact_digest(segment.buf) == handle.digest:
            return self._load(segment, handle, t0, source="owner-segment")
        if fetch is None:
            raise FileNotFoundError(
                f"artifact {handle.digest[:16]}... is not cached on this "
                f"host and no fetch path was provided"
            )
        return self._fetch_and_publish(handle, cache_name, fetch, t0)

    def _load(self, segment: _Segment, handle: ShmModelHandle, t0: float,
              source: str) -> AttachedModel:
        attached = _attached(segment, handle, t0)
        self.attach_log.append((handle.digest, source))
        return attached

    def _fetch_and_publish(self, handle: ShmModelHandle, cache_name: str,
                           fetch: Callable[[], bytes],
                           t0: float) -> AttachedModel:
        """Claim the digest, fetch and verify its bytes, publish, attach.

        The claim (:func:`_claim`) is taken *before* the fetch, so of the
        workers racing for one artifact exactly one makes the transport
        round trip; the others wait on its lock, then attach its segment.

        Fork rule: a process must not fork while it holds a claim.  The
        child would inherit the locked ``.part`` file, and every worker
        waiting on it would block until the child exits.  Only workers
        fetch; the router never does.
        """
        with _claim(cache_name) as fd:
            segment = _Segment.open(cache_name, handle.nbytes)
            if segment is not None:  # published while this worker waited
                return self._load(segment, handle, t0, source="host-cache")
            # A wrong-sized file under the name is never trusted: replace it.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(_path(cache_name))
            raw = fetch()
            if len(raw) != handle.nbytes or artifact_digest(raw) != handle.digest:
                raise ValueError(
                    f"fetched artifact does not match digest "
                    f"{handle.digest[:16]}... (got {len(raw)} bytes)"
                )
            segment = _Segment.publish(cache_name, raw, fd)
            self._segments[cache_name] = segment
        return self._load(segment, handle, t0, source="fetched")
