"""Cluster transports: one framed socket wire, three ways to launch workers.

The cluster front end (:mod:`repro.serving.cluster`) and its workers speak
a small message protocol — ``reqs`` / ``res`` / ``hb`` / ``reports`` — over
one framed socket per worker.  Every worker runs :func:`run_cluster_worker`:
it dials the router, self-registers (``hello`` → ``welcome`` → ``ready``)
and resolves model bytes through the digest-keyed per-host cache
(:class:`repro.serving.shm_store.HostModelCache`).  Transports differ only
in the listener and in how a router-owned worker is launched:

* :class:`PipeTransport` — the single-host default: a private Unix-domain
  socket, workers forked (or spawned) as ``multiprocessing`` children.
* :class:`SocketTransport` — UDS (same host, no TCP stack) or TCP
  (cross-host); router-owned workers are exec'd ``repro.cli
  cluster-worker`` subprocesses, and external workers may dial in too.

Messages cross sockets as **length-prefixed frames**.  The hot path —
request images out, result rows back — is serialized without pickle: the
message skeleton goes as JSON and every :class:`numpy.ndarray` payload is
framed as raw bytes via ``memoryview`` (zero-copy vectored send, and a
zero-copy ``np.frombuffer`` view on receive).  Cold-path messages whose
skeletons JSON cannot express (``reports`` carrying dataclasses, the
``welcome`` config) transparently fall back to pickling the *skeleton
only* — bulk arrays are always extracted first.

Crash detection is connection loss plus heartbeat staleness; recovery is
re-admission: a worker that lost its link reconnects (``hello`` again),
re-attaches its cached artifacts in milliseconds and rejoins the router,
while the front end requeues the in-flight work the dead link stranded.

See ``docs/deployment.md`` for the operator's view (topologies, transport
selection, failure semantics) and ``docs/architecture.md`` for where this
layer sits.

Examples
--------
The frame codec round-trips arbitrary message tuples; arrays keep their
dtype, shape and exact bytes:

>>> import numpy as np
>>> from repro.serving.transport import decode_message, encode_message
>>> image = np.arange(12, dtype=np.uint8).reshape(3, 4)
>>> frame = b"".join(encode_message(("reqs", [(7, "MicroCNN", image)])))
>>> kind, items = decode_message(memoryview(frame)[4:])
>>> rid, model, back = items[0]
>>> (kind, rid, model, back.dtype.str, back.shape, bool((back == image).all()))
('reqs', 7, 'MicroCNN', '|u1', (3, 4), True)

Addresses use URL-ish schemes; ``parse_address`` validates and splits:

>>> from repro.serving.transport import format_address, parse_address
>>> parse_address("tcp://127.0.0.1:7070")
('tcp', ('127.0.0.1', 7070))
>>> parse_address("uds:///tmp/cluster.sock")
('uds', '/tmp/cluster.sock')
>>> format_address("uds", "/tmp/cluster.sock")
'uds:///tmp/cluster.sock'
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import uuid
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Channel",
    "PipeTransport",
    "SocketTransport",
    "TransportClosed",
    "WorkerEndpoint",
    "WorkerInitError",
    "decode_message",
    "encode_message",
    "format_address",
    "parse_address",
    "run_cluster_worker",
]


class TransportClosed(ConnectionError):
    """The peer hung up (or the channel was closed locally)."""


class WorkerInitError(RuntimeError):
    """A socket worker failed deterministically while initializing.

    Raised after the failure has been reported to the router as an
    ``init_error`` message; :func:`run_cluster_worker` exits instead of
    reconnecting — retrying a deterministic init failure would only turn
    one clear error into a respawn storm.
    """


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------
#
# frame   := u32 length | body              (length covers the body only)
# body    := u8 codec | u16 n_arrays | array_meta* | u32 skel_len | skeleton
#            | array_payload*               (payloads in meta order)
# meta    := u8 dtype_len | dtype_str | u8 ndim | u64 dim*
# codec   := 0 (JSON skeleton) | 1 (pickle skeleton)
#
# Array payloads are appended raw — never pickled, never copied on encode
# (memoryview framing) and exposed as np.frombuffer views on decode.

_LEN = struct.Struct("<I")
_BODY_HEAD = struct.Struct("<BH")
_SKEL_LEN = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_CODEC_JSON = 0
_CODEC_PICKLE = 1

#: Upper bound on one frame body; a router/worker pair never legitimately
#: exceeds this (the largest frame is one model artifact), and a corrupted
#: length prefix must not make the receiver allocate gigabytes.
MAX_FRAME_BYTES = 1 << 31


class _NDRef:
    """Pickle-skeleton placeholder for an extracted array (by index)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


#: Classes a pickle skeleton may reconstruct.  Cold-path skeletons only
#: ever carry the serving-layer dataclasses (WorkerConfig, ServiceReport
#: and friends), plain containers/scalars and NumPy scalar machinery —
#: anything else in a frame is either a bug or an attack, so the unpickler
#: refuses it rather than executing an arbitrary ``__reduce__`` payload.
#: Builtins are allowlisted *by name*: the module as a whole contains
#: classic gadgets (``eval``, ``exec``, ``getattr``, ``print``...).
#: (The transport still assumes a trusted network — see
#: ``docs/deployment.md`` — this merely removes the easiest escalation.)
_SKELETON_MODULES = (
    "repro.serving.cache",
    "repro.serving.cluster",
    "repro.serving.metrics",
    "repro.serving.scheduler",
    "repro.serving.service",
    "repro.serving.transport",
    # NumPy scalar/dtype reconstruction (e.g. a np.float64 inside a report).
    "numpy",
    "numpy.core.multiarray",
    "numpy._core.multiarray",
)
_SKELETON_BUILTINS = frozenset({
    "bool", "bytearray", "bytes", "complex", "dict", "float", "frozenset",
    "int", "list", "set", "slice", "str", "tuple",
})


class _SkeletonUnpickler(pickle.Unpickler):
    """Unpickler restricted to the message-skeleton class allowlist."""

    def find_class(self, module: str, name: str):
        if module in _SKELETON_MODULES or (
                module == "builtins" and name in _SKELETON_BUILTINS):
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"skeleton references disallowed class {module}.{name}"
        )


def _loads_skeleton(data: bytes):
    import io

    return _SkeletonUnpickler(io.BytesIO(data)).load()


def _extract_arrays(obj, arrays: List[np.ndarray],
                    placeholder: Callable[[int], object] = lambda i: {"__nd__": i}):
    """Replace every ndarray in ``obj`` with a placeholder, collecting them.

    ``placeholder`` makes the one traversal serve both codecs: the JSON
    skeleton marks arrays as ``{"__nd__": i}``, the pickle skeleton as
    :class:`_NDRef` (a dict marker could collide with payload dicts there).
    """
    if isinstance(obj, np.ndarray):
        index = len(arrays)
        arrays.append(obj)
        return placeholder(index)
    if isinstance(obj, (list, tuple)):
        return [_extract_arrays(item, arrays, placeholder) for item in obj]
    if isinstance(obj, dict):
        return {key: _extract_arrays(value, arrays, placeholder)
                for key, value in obj.items()}
    return obj


def _restore_arrays(obj, arrays: Sequence[np.ndarray]):
    if isinstance(obj, dict):
        if set(obj) == {"__nd__"}:
            return arrays[obj["__nd__"]]
        return {key: _restore_arrays(value, arrays)
                for key, value in obj.items()}
    if isinstance(obj, _NDRef):
        return arrays[obj.index]
    if isinstance(obj, (list, tuple)):
        return tuple(_restore_arrays(item, arrays) for item in obj)
    return obj


def encode_message(message) -> List[memoryview]:
    """Encode one message tuple into a list of frame buffers.

    The returned buffers are ready for a vectored send (first buffer is the
    ``u32`` length prefix).  Array payloads are *views* of the caller's
    arrays — zero-copy, so the caller must not mutate them until the send
    completes (the cluster never does: request images and result rows are
    effectively immutable).

    Parameters
    ----------
    message : tuple
        Message of JSON-able scalars/containers plus ``np.ndarray`` leaves.
        Non-JSON-able skeletons (dataclasses, bytes) fall back to pickle —
        arrays are extracted either way.

    Returns
    -------
    list of memoryview
        Buffers whose concatenation is the complete frame.

    Examples
    --------
    >>> import numpy as np
    >>> buffers = encode_message(("hb", "w0", 1.5))
    >>> payload = b"".join(buffers)
    >>> decode_message(memoryview(payload)[4:])
    ('hb', 'w0', 1.5)
    """
    arrays: List[np.ndarray] = []
    skeleton = _extract_arrays(message, arrays)
    try:
        skel_bytes = json.dumps(skeleton, separators=(",", ":")).encode()
        codec = _CODEC_JSON
    except (TypeError, ValueError):
        arrays = []
        skeleton = _extract_arrays(message, arrays, placeholder=_NDRef)
        skel_bytes = pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL)
        codec = _CODEC_PICKLE

    meta = bytearray()
    payloads: List[memoryview] = []
    for arr in arrays:
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        dtype_str = arr.dtype.str.encode()
        meta.append(len(dtype_str))
        meta.extend(dtype_str)
        meta.append(arr.ndim)
        for dim in arr.shape:
            meta.extend(_U64.pack(dim))
        payloads.append(memoryview(arr).cast("B"))

    body_head = _BODY_HEAD.pack(codec, len(arrays))
    skel_head = _SKEL_LEN.pack(len(skel_bytes))
    body_len = (len(body_head) + len(meta) + len(skel_head) + len(skel_bytes)
                + sum(len(p) for p in payloads))
    if body_len > MAX_FRAME_BYTES:
        raise ValueError(f"message frame too large: {body_len} bytes")
    buffers = [memoryview(_LEN.pack(body_len)), memoryview(body_head),
               memoryview(bytes(meta)), memoryview(skel_head),
               memoryview(skel_bytes)]
    buffers.extend(payloads)
    return buffers


def decode_message(body: memoryview):
    """Decode one frame body (everything after the length prefix).

    Array leaves come back as ``np.frombuffer`` views into ``body`` —
    zero-copy, so the backing buffer must outlive the arrays (the channel
    hands each frame its own buffer, so this is automatic).

    Examples
    --------
    >>> import numpy as np
    >>> frame = b"".join(encode_message(("res", "w1", 3, np.float64([1.5]))))
    >>> kind, worker, rid, row = decode_message(memoryview(frame)[4:])
    >>> (kind, worker, rid, float(row[0]))
    ('res', 'w1', 3, 1.5)
    """
    codec, n_arrays = _BODY_HEAD.unpack_from(body, 0)
    offset = _BODY_HEAD.size
    metas: List[Tuple[str, Tuple[int, ...]]] = []
    for _ in range(n_arrays):
        dtype_len = body[offset]
        offset += 1
        dtype_str = bytes(body[offset:offset + dtype_len]).decode()
        offset += dtype_len
        ndim = body[offset]
        offset += 1
        shape = tuple(_U64.unpack_from(body, offset + 8 * i)[0]
                      for i in range(ndim))
        offset += 8 * ndim
        metas.append((dtype_str, shape))
    (skel_len,) = _SKEL_LEN.unpack_from(body, offset)
    offset += _SKEL_LEN.size
    skel_bytes = body[offset:offset + skel_len]
    offset += skel_len

    arrays: List[np.ndarray] = []
    for dtype_str, shape in metas:
        dtype = np.dtype(dtype_str)
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) \
            if shape else dtype.itemsize
        arr = np.frombuffer(body[offset:offset + nbytes], dtype=dtype)
        arrays.append(arr.reshape(shape))
        offset += nbytes

    if codec == _CODEC_JSON:
        skeleton = json.loads(bytes(skel_bytes))
    else:
        skeleton = _loads_skeleton(bytes(skel_bytes))
    return _restore_arrays(skeleton, arrays)


#: Buffers per sendmsg call, kept under Linux's UIO_MAXIOV (1024) — a large
#: coalesced request batch can legitimately carry more arrays than that.
_SENDMSG_MAX_BUFFERS = 512


def _send_buffers(sock: socket.socket, buffers: List[memoryview]) -> None:
    """Vectored sendall: writes every buffer without concatenating them."""
    pending = [buf for buf in buffers if len(buf)]
    while pending:
        sent = sock.sendmsg(pending[:_SENDMSG_MAX_BUFFERS])
        while sent > 0 and pending:
            head = pending[0]
            if sent >= len(head):
                sent -= len(head)
                pending.pop(0)
            else:
                pending[0] = head[sent:]
                sent = 0


def _recv_exact(sock: socket.socket, nbytes: int) -> memoryview:
    buf = bytearray(nbytes)
    view = memoryview(buf)
    got = 0
    while got < nbytes:
        n = sock.recv_into(view[got:], nbytes - got)
        if n == 0:
            raise TransportClosed("peer closed the connection")
        got += n
    return memoryview(buf)


# ---------------------------------------------------------------------------
# duplex channel
# ---------------------------------------------------------------------------

class Channel:
    """One framed duplex connection (thread-safe send, single-reader recv).

    Parameters
    ----------
    sock : socket.socket
        A connected stream socket (TCP or Unix-domain).  ``TCP_NODELAY``
        is set when applicable — heartbeat and single-request frames must
        not sit in Nagle buffers.

    Examples
    --------
    >>> import socket
    >>> import numpy as np
    >>> left, right = socket.socketpair()
    >>> a, b = Channel(left), Channel(right)
    >>> a.send(("reqs", [(0, "MicroCNN", np.zeros((2, 2), dtype=np.uint8))]))
    >>> kind, items = b.recv()
    >>> (kind, items[0][0], items[0][2].shape)
    ('reqs', 0, (2, 2))
    >>> a.close(); b.close()
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # Unix-domain sockets have no Nagle to disable

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, message) -> None:
        """Frame and send one message (raises :class:`TransportClosed`)."""
        buffers = encode_message(message)
        with self._send_lock:
            if self._closed:
                raise TransportClosed("channel is closed")
            try:
                _send_buffers(self._sock, buffers)
            except OSError as exc:
                self._closed = True
                raise TransportClosed(str(exc)) from exc

    def recv(self):
        """Receive one message (blocking); raises on EOF/teardown."""
        try:
            head = _recv_exact(self._sock, _LEN.size)
            (body_len,) = _LEN.unpack(head)
            if body_len > MAX_FRAME_BYTES:
                raise TransportClosed(f"oversized frame: {body_len} bytes")
            return decode_message(_recv_exact(self._sock, body_len))
        except OSError as exc:
            self._closed = True
            raise TransportClosed(str(exc)) from exc

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass


# ---------------------------------------------------------------------------
# addresses
# ---------------------------------------------------------------------------

def parse_address(address: str) -> Tuple[str, object]:
    """Split ``tcp://host:port`` / ``uds:///path`` into (scheme, target).

    Returns
    -------
    tuple
        ``("tcp", (host, port))`` or ``("uds", path)``.

    Examples
    --------
    >>> parse_address("tcp://0.0.0.0:0")
    ('tcp', ('0.0.0.0', 0))
    """
    if address.startswith("tcp://"):
        rest = address[len("tcp://"):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"invalid tcp address {address!r}; "
                             f"expected tcp://host:port")
        return "tcp", (host, int(port))
    if address.startswith("uds://"):
        path = address[len("uds://"):]
        if not path:
            raise ValueError(f"invalid uds address {address!r}; "
                             f"expected uds:///path/to.sock")
        return "uds", path
    raise ValueError(f"unsupported address {address!r}; "
                     f"use tcp://host:port or uds:///path")


def format_address(scheme: str, target) -> str:
    """Inverse of :func:`parse_address`.

    Examples
    --------
    >>> format_address("tcp", ("127.0.0.1", 7070))
    'tcp://127.0.0.1:7070'
    """
    if scheme == "tcp":
        host, port = target
        return f"tcp://{host}:{port}"
    if scheme == "uds":
        return f"uds://{target}"
    raise ValueError(f"unsupported scheme {scheme!r}")


def _connect(address: str, timeout_s: float = 10.0) -> socket.socket:
    scheme, target = parse_address(address)
    if scheme == "tcp":
        return socket.create_connection(target, timeout=timeout_s)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    sock.connect(target)
    return sock


def _connect_with_retry(address: str, retry_s: float,
                        poll_s: float = 0.1) -> Optional[socket.socket]:
    """Dial until the router answers or ``retry_s`` elapses.

    This is what lets an operator start workers *before* the router: the
    worker polls until the listener exists (connection refused / missing
    socket file are retried; other errors propagate).
    """
    deadline = time.monotonic() + retry_s
    while True:
        try:
            sock = _connect(address)
            sock.settimeout(None)
            return sock
        except (ConnectionRefusedError, FileNotFoundError, ConnectionResetError,
                socket.timeout, TimeoutError):
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll_s)


# ---------------------------------------------------------------------------
# router-side endpoints
# ---------------------------------------------------------------------------

class WorkerEndpoint:
    """Router-side handle for one registered worker's framed connection.

    The cluster front end only ever talks to workers through this surface:
    ``send`` for outbound messages, ``alive`` for supervision, ``kill`` for
    tests/hard teardown, ``shutdown`` for cleanup.  ``respawnable`` tells
    the supervisor whether the router owns the worker's lifecycle (it
    launched the Popen-shaped ``process``) or merely its link (an externally
    launched worker, ``process=None``, re-admits itself by reconnecting).
    """

    def __init__(self, worker_id: str, channel: Channel, process=None) -> None:
        self.worker_id = worker_id
        self.channel = channel
        self.process = process
        self.respawnable = process is not None
        self._reader: Optional[threading.Thread] = None

    def send(self, message) -> None:
        self.channel.send(message)

    def request_stop(self) -> None:
        """Best-effort graceful stop message."""
        try:
            self.send(("stop",))
        except (TransportClosed, ValueError, OSError):
            pass

    def alive(self) -> bool:
        if self.channel.closed:
            return False
        if self.process is not None and self.process.poll() is not None:
            return False
        return True

    def kill(self) -> None:
        if self.process is not None:
            self.process.kill()
        self.channel.close()

    def reap(self) -> None:
        # Close only the link; a live process may be mid-reconnect.
        self.channel.close()

    def surviving_process(self):
        """The router-launched process if it outlived its link, else None."""
        if self.process is not None and self.process.poll() is None:
            return self.process
        return None

    def start_reader(self, deliver: Callable[[tuple], None]) -> None:
        """Pump inbound frames into ``deliver``; EOF becomes ``conn_lost``."""

        def _read_loop() -> None:
            while True:
                try:
                    message = self.channel.recv()
                except TransportClosed:
                    break
                except Exception:  # pragma: no cover - corrupt frame
                    # A framing error is unrecoverable mid-stream; treat it
                    # as a dead link so the supervisor requeues.
                    break
                try:
                    deliver(message)
                except Exception:  # pragma: no cover - defensive
                    # One malformed message must not kill the reader (that
                    # would strand every in-flight future on this worker).
                    pass
            deliver(("conn_lost", self.worker_id))

        self._reader = threading.Thread(
            target=_read_loop, name=f"cluster-read-{self.worker_id}",
            daemon=True,
        )
        self._reader.start()

    def shutdown(self, timeout_s: float = 5.0) -> None:
        if self.process is not None:
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:  # pragma: no cover - stragglers
                self.process.kill()
                self.process.wait(timeout=timeout_s)
        self.channel.close()
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=timeout_s)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def _private_uds_address() -> str:
    """A fresh ``uds://`` address in the temp dir, unique to this router."""
    path = os.path.join(
        tempfile.gettempdir(),
        f"repro-cluster-{os.getpid()}-{uuid.uuid4().hex[:8]}.sock",
    )
    return format_address("uds", path)


class SocketTransport:
    """Socket transport: a listener the workers dial into.

    Parameters
    ----------
    address : str
        ``tcp://host:port`` (port 0 picks an ephemeral port) or
        ``uds:///path/to.sock`` (a stale socket file left by a dead router
        is reclaimed).  The resolved address — with the real port — is
        available as :attr:`address` after construction and is what spawned
        workers connect back to.
    """

    def __init__(self, address: str = "tcp://127.0.0.1:0") -> None:
        scheme, target = parse_address(address)
        self.kind = scheme
        self._uds_path: Optional[str] = None
        if scheme == "tcp":
            self._listener = socket.create_server(
                target, family=socket.AF_INET, backlog=64, reuse_port=False
            )
            host, port = self._listener.getsockname()[:2]
            self.address = format_address("tcp", (target[0], port))
        else:
            if os.path.exists(target):
                # A router owns its socket path; a stale file here means a
                # previous router died without cleanup.
                os.unlink(target)
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(target)
            self._listener.listen(64)
            self._uds_path = target
            self.address = format_address("uds", target)
        #: The listener and every accepted connection: what a forked
        #: worker inherits and must close (see :class:`PipeTransport`).
        self._router_sockets = weakref.WeakSet([self._listener])
        self._deliver: Optional[Callable[[tuple], None]] = None
        self._register = None
        self._accept_thread: Optional[threading.Thread] = None
        self._closing = threading.Event()

    def start(self, deliver: Callable[[tuple], None],
              register: Callable[[Channel, dict], Optional[WorkerEndpoint]]
              ) -> None:
        """Begin accepting workers.

        ``register`` is called with ``(channel, hello_meta)`` for every
        completed handshake and must return the endpoint to start reading
        from (or ``None`` to reject, e.g. after close).
        """
        self._deliver = deliver
        self._register = register
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - listener torn down
                return
            self._router_sockets.add(conn)
            threading.Thread(
                target=self._handshake, args=(conn,),
                name="cluster-handshake", daemon=True,
            ).start()

    def _handshake(self, conn: socket.socket) -> None:
        conn.settimeout(30.0)
        channel = Channel(conn)
        try:
            message = channel.recv()
        except TransportClosed:
            channel.close()
            return
        if not (isinstance(message, tuple) and len(message) == 2
                and message[0] == "hello"):
            channel.close()
            return
        conn.settimeout(None)
        endpoint = self._register(channel, dict(message[1]))
        if endpoint is None:
            channel.close()
            return
        endpoint.start_reader(self._deliver)

    def spawn_command(self, extra_args: Sequence[str] = ()) -> List[str]:
        """Command line for a local worker subprocess dialing this router."""
        return [sys.executable, "-m", "repro.cli", "cluster-worker",
                "--connect", self.address, *extra_args]

    def launch_worker(self, extra_args: Sequence[str] = ()) -> subprocess.Popen:
        """Spawn a loopback worker subprocess (self-registers over sockets).

        The subprocess runs the same ``repro.cli cluster-worker`` entry
        point an operator uses on a remote host, so loopback workers
        exercise the cross-host path end to end.
        """
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(self.spawn_command(extra_args), env=env)

    def close(self) -> None:
        self._closing.set()
        try:
            # Wake the accept thread now (Linux), not at its next timeout.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - double close
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._uds_path is not None:
            try:
                os.unlink(self._uds_path)
            except FileNotFoundError:
                pass


class PipeTransport(SocketTransport):
    """Single-host default: ``multiprocessing`` workers on a private UDS.

    A :class:`SocketTransport` on a fresh temp-dir socket path whose
    router-owned workers are ``mp_context`` child processes (``"fork"`` /
    ``"spawn"`` / a context object; default prefers fork) instead of
    exec'd ``repro.cli cluster-worker`` subprocesses.  They run the same
    :func:`run_cluster_worker` loop, quietly.
    """

    def __init__(self, mp_context=None) -> None:
        import multiprocessing

        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
        super().__init__(_private_uds_address())
        self.kind = "pipe"
        self._ctx = mp_context

    def launch_worker(self) -> "_ProcessHandle":
        """Start one worker process dialing this router."""
        # A forked child starts with copies of the router's listener and of
        # every connection accepted so far, passed here by reference (fork
        # does not pickle) so the child sees exactly the set at fork time.
        forked = self._ctx.get_start_method() == "fork"
        process = self._ctx.Process(
            target=_run_pipe_worker,
            args=(self.address, self._router_sockets if forked else ()),
            name="cluster-worker", daemon=True,
        )
        process.start()
        return _ProcessHandle(process)


class _ProcessHandle:
    """``subprocess.Popen``-shaped view of a ``multiprocessing`` process."""

    def __init__(self, process) -> None:
        self._process = process
        self.pid = process.pid
        self.kill, self.terminate = process.kill, process.terminate

    def poll(self) -> Optional[int]:
        return self._process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise subprocess.TimeoutExpired(f"pid {self.pid}", timeout)
        return self._process.exitcode


def _run_pipe_worker(address: str, inherited: Iterable[socket.socket]) -> None:
    """Process body of a :class:`PipeTransport` worker."""
    # Drop the router's sockets before serving.  A duplicate held here
    # keeps a sibling's link open whenever the router's copy closes without
    # a shutdown() — when the router process dies, say — so that sibling
    # never sees EOF and never exits.  close() only: the router still uses
    # these sockets.
    for sock in list(inherited):
        sock.close()
    raise SystemExit(run_cluster_worker(address, log=lambda _line: None))


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def fetch_artifact(channel: Channel, worker_id: str, digest: str,
                   defer: List) -> bytes:
    """Fetch one published artifact's bytes over ``channel`` by digest.

    Sent as ``("fetch", worker_id, digest)``; the router answers
    ``("blob", digest, payload)`` with the payload framed as a raw uint8
    array (zero-copy out of the owner's shared-memory segment).  Runs
    during worker initialization and during dynamic attaches (mid-stream);
    ``defer`` collects the unrelated messages that arrive while waiting
    for the blob, so the serve loop can replay them instead of losing them.
    """
    channel.send(("fetch", worker_id, digest))
    while True:
        message = channel.recv()
        kind = message[0]
        if kind == "blob" and message[1] == digest:
            return bytes(message[2])
        if kind == "blob_error" and message[1] == digest:
            raise RuntimeError(f"router could not serve artifact: {message[2]}")
        if kind == "stop":
            raise TransportClosed("router stopped during artifact fetch")
        defer.append(message)


def build_worker_service(attachments: Sequence, config):
    """Warm an ``InferenceService`` over attached models.

    Every cluster worker — forked, spawned or exec'd, all running
    :func:`run_cluster_worker` — serves through a service built here.

    Returns
    -------
    (service, attach_ms) : tuple
        The warmed service and per-model attach wall-clock milliseconds.
    """
    from repro.core.engine import PhoneBitEngine
    from repro.serving.pool import ModelPool
    from repro.serving.service import InferenceService

    # Backend selection is per *host*: each worker compiles (or falls back)
    # for its own toolchain, and the bit-exactness gate keeps every
    # worker's answers identical regardless of what it selected.
    # The pool is *strict*: a cluster worker serves exactly the published
    # artifacts it attached.  Without strictness, a request for a model
    # outside the worker's (possibly pinned) attach set would silently
    # build a fresh local copy from the zoo — different weights, outputs
    # no longer bit-identical to the published artifact.
    backend = getattr(config, "backend", None)
    pool = ModelPool(backend=backend, strict=True)
    attach_ms: Dict[str, float] = {}
    for attached in attachments:
        # Register under the artifact's real digest (not the legacy ""),
        # so digest-tagged requests — every cluster dispatch carries the
        # front end's serving digest — resolve to exactly these bytes,
        # and a rollout can stage a second version beside this one.
        pool.register(attached.network, name=attached.handle.model,
                      warm=True, digest=attached.handle.digest)
        attach_ms[attached.handle.model] = attached.attach_ms
    service = InferenceService(
        pool=pool,
        engine=PhoneBitEngine(num_threads=config.threads, backend=backend),
        max_batch_size=config.max_batch_size,
        max_wait_ms=config.max_wait_ms,
        cache_capacity=config.cache_capacity,
        chunk_bytes=config.chunk_bytes,
    )
    return service, attach_ms


def _serve_session(channel: Channel, welcome, cache,
                   attachments_by_digest: Dict, cli_threads: Optional[int],
                   log, cli_backend: Optional[str] = None) -> str:
    """Run one connected session; returns ``"stop"`` or ``"lost"``."""
    from dataclasses import replace

    from repro.serving.shm_store import ShmModelHandle

    _, worker_id, manifest, config = welcome
    if cli_threads is not None:
        config = replace(config, threads=cli_threads)
    if cli_backend is not None:
        config = replace(config, backend=cli_backend)

    # REPRO_CLUSTER_FORCE_FETCH=1 disables the co-hosted owner-segment fast
    # path, so a loopback worker behaves exactly like a remote host (model
    # bytes travel the wire into the digest cache) — how CI simulates
    # cross-host deployments on one runner.
    force_fetch = os.environ.get("REPRO_CLUSTER_FORCE_FETCH", "") not in (
        "", "0", "false", "False")
    #: Messages that arrived while an attach was fetching its blob;
    #: replayed in order before reading the socket again.
    deferred: List = []

    def _resolve(model: str, digest: str, nbytes: int, shm_name: str):
        """This host's attachment of one manifest entry (fetched at most once)."""
        attached = attachments_by_digest.get(digest)
        if attached is None:
            handle = ShmModelHandle(
                model=model, shm_name="" if force_fetch else shm_name,
                nbytes=nbytes, digest=digest,
            )
            attached = cache.attach(handle, fetch=lambda: fetch_artifact(
                channel, worker_id, digest, defer=deferred))
            attachments_by_digest[digest] = attached
        return attached

    try:
        attachments = [_resolve(*entry) for entry in manifest]
        service, attach_ms = build_worker_service(attachments, config)
    except TransportClosed:
        raise
    except Exception as exc:
        # Deterministic init failure: tell the router (it fails startup
        # fast with the cause) and refuse to reconnect-loop on it.
        text = f"{type(exc).__name__}: {exc}"
        try:
            channel.send(("init_error", worker_id, text))
        except TransportClosed:
            pass
        raise WorkerInitError(text) from exc
    channel.send(("ready", worker_id, os.getpid(), attach_ms))
    log(f"worker {worker_id}: ready ({len(attachments)} model(s))")

    hb_stop = threading.Event()
    #: Fault injection: heartbeats are suppressed until this monotonic
    #: stamp (a stalled worker must *look* stalled — a separate heartbeat
    #: thread cheerfully reporting liveness would defeat the fault).
    stall_until = [0.0]

    def _heartbeat() -> None:
        interval = max(0.01, config.heartbeat_interval_s)
        # Monotonic stamp: a wall-clock step on this host (NTP, DST) must
        # not distort heartbeat pacing or let the router's staleness check
        # mass-declare workers dead.
        while not hb_stop.wait(interval):
            if time.monotonic() < stall_until[0]:
                continue
            try:
                channel.send(("hb", worker_id, time.monotonic()))
            except TransportClosed:
                return

    hb_thread = threading.Thread(target=_heartbeat, name="worker-hb",
                                 daemon=True)
    hb_thread.start()

    def _send_response(message) -> None:
        try:
            channel.send(message)
        except TransportClosed:
            # Link died with work in flight: the router already requeued it
            # on connection loss, so the answer is redundant — drop it.
            pass

    outcome = "lost"
    try:
        while True:
            if deferred:
                message = deferred.pop(0)
            else:
                try:
                    message = channel.recv()
                except TransportClosed:
                    break
            kind = message[0]
            if kind == "reqs":
                for rid, model, image, digest in message[1]:
                    _submit_one(service, _send_response, worker_id, rid,
                                model, image, digest)
            elif kind == "attach":
                # Dynamic re-pin: attach more published artifacts through
                # the per-host digest cache (one wire fetch per host ever).
                for model, digest, nbytes, shm_name in message[1]:
                    t0 = time.perf_counter()
                    attached = _resolve(model, digest, nbytes, shm_name)
                    service.pool.register(attached.network, name=model,
                                          warm=True, digest=digest)
                    _send_response(("attached", worker_id, model,
                                    (time.perf_counter() - t0) * 1000.0))
                log(f"worker {worker_id}: attached "
                    f"{[m for m, *_ in message[1]]}")
            elif kind == "prepare":
                # Rollout staging: fetch-ahead and warm the *candidate*
                # version while the stable one keeps serving.  Registered
                # inactive — nothing routes to it until digest-tagged
                # canary probes arrive, and untagged traffic never sees it
                # before an explicit commit.
                for model, digest, nbytes, shm_name in message[1]:
                    t0 = time.perf_counter()
                    try:
                        attached = _resolve(model, digest, nbytes, shm_name)
                        service.pool.register(attached.network, name=model,
                                              warm=True, digest=digest,
                                              activate=False)
                    except TransportClosed:
                        raise
                    except Exception as exc:  # noqa: BLE001 - staging must not kill serving
                        log(f"worker {worker_id}: prepare {model}@"
                            f"{digest[:12]} failed: {exc}")
                        continue  # no ack: the rollout's staging timeout rolls back
                    _send_response(("prepared", worker_id, model, digest,
                                    (time.perf_counter() - t0) * 1000.0))
                    log(f"worker {worker_id}: staged {model}@{digest[:12]}")
            elif kind == "commit":
                # Rollout commit (or rollback re-commit of the old digest):
                # an atomic worker-local pointer flip.
                _, model, digest = message
                try:
                    service.pool.set_active(model, digest)
                except KeyError as exc:
                    log(f"worker {worker_id}: commit {model}@{digest[:12]} "
                        f"failed: {exc}")
                else:
                    _send_response(("committed", worker_id, model, digest))
                    log(f"worker {worker_id}: active {model}@{digest[:12]}")
            elif kind == "detach":
                # Attach revocation: drop resident versions (rollout
                # cleanup) or whole models (pin shrink, digest "") and
                # free the shm views backing them.
                freed = 0
                done_items = []
                for model, digest in message[1]:
                    try:
                        if digest:
                            service.retire(model, digest)
                            victims = [digest]
                        else:
                            service.evict(model)
                            victims = [d for d, a in
                                       attachments_by_digest.items()
                                       if a.handle.model == model]
                    except (KeyError, ValueError) as exc:
                        log(f"worker {worker_id}: detach {model}@"
                            f"{digest[:12]} refused: {exc}")
                        continue
                    for victim in victims:
                        attached = attachments_by_digest.pop(victim, None)
                        if attached is not None:
                            freed += attached.handle.nbytes
                            attached.close()
                    done_items.append((model, digest))
                _send_response(("detached", worker_id, done_items, freed))
                log(f"worker {worker_id}: detached {done_items} "
                    f"({freed} bytes)")
            elif kind == "report":
                _send_response(("reports", worker_id, message[1],
                                service.reports()))
            elif kind == "stall":
                # Fault injection: wedge this worker — serve loop blocked,
                # heartbeats suppressed — for the requested window.  From
                # the router it is indistinguishable from a GC pause or a
                # page-in storm.
                stall_until[0] = time.monotonic() + float(message[1])
                time.sleep(float(message[1]))
            elif kind == "stop":
                outcome = "stop"
                break
    finally:
        hb_stop.set()
        service.close(drain=True)
        if outcome == "stop":
            _send_response(("reports", worker_id, -1, service.reports()))
            _send_response(("bye", worker_id))
    return outcome


def _submit_one(service, send: Callable[[tuple], None], worker_id: str,
                rid: int, model: str, image: np.ndarray,
                digest: str = "") -> None:
    """Feed one routed request into the local service; answer via ``send``.

    ``digest`` pins the request to one resident artifact version (every
    cluster dispatch is version-tagged); ``""`` serves the active version.
    """
    from concurrent.futures import Future

    try:
        future = service.submit(model, np.asarray(image),
                                digest=digest or None)
    except Exception as exc:
        send(("err", worker_id, rid, f"{type(exc).__name__}: {exc}"))
        return

    def _done(done: Future, _rid: int = rid) -> None:
        error = done.exception()
        if error is not None:
            send(("err", worker_id, _rid, f"{type(error).__name__}: {error}"))
        else:
            send(("res", worker_id, _rid, done.result()))

    future.add_done_callback(_done)


def run_cluster_worker(address: str, threads: Optional[int] = None,
                       retry_s: float = 30.0, reconnect: bool = True,
                       log: Callable[[str], None] = print,
                       backend: Optional[str] = None) -> int:
    """Run a self-registering cluster worker until the router stops it.

    This is the ``python -m repro.cli cluster-worker`` entry point: dial
    ``address`` (retrying until the router is up or ``retry_s`` elapses),
    handshake, attach every published model through the per-host digest
    cache (fetching bytes over the wire only for artifacts this host has
    never seen), then serve requests.  On **connection loss** the worker
    reconnects and re-registers — its cached artifacts make re-admission
    take milliseconds; on a **graceful stop** from the router it drains
    in-flight work and exits.

    Parameters
    ----------
    address : str
        Router address (``tcp://host:port`` or ``uds:///path``).
    threads : int, optional
        Fused-executor threads; overrides the router-sent worker config.
    backend : str, optional
        Kernel-backend spec (``auto``/``numpy``/``cffi``);
        overrides the router-sent worker config for *this host only* —
        the knob is per host because the toolchain is.
    retry_s : float
        How long to keep dialing a router that is not (yet) listening.
    reconnect : bool
        Reconnect after connection loss (``False``: exit instead).

    Returns
    -------
    int
        Process exit code: 0 after a graceful stop, 1 when the router
        never answered (or the link died with ``reconnect=False``).
    """
    from repro.serving.shm_store import HostModelCache

    cache = HostModelCache()
    attachments_by_digest: Dict = {}
    code = 1
    try:
        while True:
            sock = _connect_with_retry(address, retry_s)
            if sock is None:
                log(f"worker: no router at {address} after {retry_s:.0f}s")
                return 1
            channel = Channel(sock)
            try:
                channel.send(("hello", {"pid": os.getpid(),
                                        "host": socket.gethostname()}))
                welcome = channel.recv()
                if not (isinstance(welcome, tuple) and welcome
                        and welcome[0] == "welcome"):
                    raise TransportClosed("router sent no welcome")
                outcome = _serve_session(channel, welcome, cache,
                                         attachments_by_digest, threads, log,
                                         cli_backend=backend)
            except TransportClosed:
                outcome = "lost"
            except WorkerInitError as exc:
                log(f"worker: initialization failed: {exc}")
                return 1
            finally:
                channel.close()
            if outcome == "stop":
                log("worker: stopped by router")
                code = 0
                break
            if not reconnect:
                log("worker: connection lost; exiting (reconnect disabled)")
                break
            log("worker: connection lost; reconnecting")
    finally:
        for attached in attachments_by_digest.values():
            attached.close()
        cache.close()
    return code
