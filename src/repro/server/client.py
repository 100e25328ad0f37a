"""RemoteHAM: the HAM API executed on a central server.

A :class:`RemoteHAM` mirrors every operation of
:class:`repro.core.ham.HAM`.  The operation stubs are *generated* from
:data:`repro.core.operations.REGISTRY` — each stub binds its declared
signature, applies the declared argument codecs, performs one RPC, and
decodes the result with the declared result codec; there is no
hand-written marshalling code per operation.  Server-side errors
re-raise as matching local exception types when one exists (otherwise
:class:`repro.errors.RemoteError`).

Transactions are mirrored by :class:`RemoteTransaction`: ``begin`` opens
one on the server, ``commit``/``abort`` finish it, and the server aborts
anything left open if the connection dies.

Batching: ``with client.batch() as b:`` queues operations client-side
(each call returns a :class:`BatchFuture`) and on exit streams them all
through one :class:`RemotePipeline` — the cure for RPC-per-operation
latency when a workstation replays many independent updates.

Reading: each connection has exactly one
:class:`~repro.server.protocol.FrameDecoder`, and serial replies, change
feed pushes and pipelined replies are all framed by it.  A partial frame
therefore outlives whichever path read its first bytes — a poll that
times out mid-push, or a pipeline that exits mid-frame — and the next
read of any kind completes it.

Like the local HAM, a client has a ``middleware`` chain
(:class:`repro.core.operations.MiddlewareChain`); add a
:class:`repro.tools.metrics.OperationMetrics` to observe per-operation
counts and latency of the RPC session.

Resilience: every call runs under a :class:`RetryPolicy`.  When the
connection dies the client tears the socket down and — for *idempotent*
operations (reads, ``ping``, ``begin``; see
:attr:`repro.core.operations.Operation.idempotent`) — transparently
reconnects with jittered capped exponential backoff and re-issues the
request.  A non-idempotent request whose frame was already handed to the
transport instead surfaces :class:`repro.errors.RetryableError`: the
server may or may not have executed it, and silently re-sending could
apply a mutation twice.  Reconnects re-run the protocol handshake and
re-bind the session to the last ``host_open_graph`` target, so a
workstation session survives a server restart.  ``reconnects`` and
``retries`` counters (mirrored into
:data:`repro.tools.metrics.RESILIENCE`) expose how bumpy the ride was.
"""

from __future__ import annotations

import collections
import functools
import itertools
import select
import socket
import threading
import time as _time
from dataclasses import dataclass
from random import Random

from repro import errors
from repro.core.demons import EventKind
from repro.core.operations import (
    PROTOCOL_VERSION,
    MiddlewareChain,
    Operation,
    REGISTRY,
    make_client_stub,
)
from repro.core.types import Time
from repro.errors import (
    ChecksumError,
    ProtocolError,
    RemoteError,
    RetryableError,
    StorageError,
    SubscriptionError,
    SubscriptionOverflowError,
)
from repro.server.protocol import FrameDecoder, encode_message, read_message
from repro.tools.metrics import RESILIENCE, SUBSCRIPTIONS

__all__ = ["BatchFuture", "PipelineFuture", "RemoteBatch", "RemoteHAM",
           "RemoteTransaction", "RemotePipeline", "RemoteWatch",
           "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`RemoteHAM` behaves when the connection dies.

    ``max_attempts`` bounds tries per call (first attempt included);
    between attempts the client sleeps ``backoff_base * 2**(n-1)`` capped
    at ``backoff_cap``, stretched by up to ``jitter`` (fraction, seeded
    by ``seed`` for reproducibility).  ``call_deadline`` bounds the whole
    call — connect, retries, and backoff together — independently of the
    per-I/O socket timeout; ``None`` disables it.
    """

    max_attempts: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    call_deadline: float | None = 30.0
    seed: int | None = None


class _TransportFailure(Exception):
    """Internal: the connection died during one attempt.

    ``sent`` records whether the full request frame was handed to the
    transport before the failure — the line between "safe to re-issue"
    and "outcome unknown".
    """

    def __init__(self, cause: BaseException, sent: bool):
        super().__init__(str(cause))
        self.cause = cause
        self.sent = sent


def _raise_remote(error: dict) -> None:
    remote_type = error.get("type", "NeptuneError")
    message = error.get("message", "")
    local_type = getattr(errors, remote_type, None)
    if (isinstance(local_type, type)
            and issubclass(local_type, Exception)
            and local_type is not RemoteError):
        raise local_type(message)
    raise RemoteError(remote_type, message)


class RemoteTransaction:
    """Client-side handle on a transaction open at the server."""

    def __init__(self, client: "RemoteHAM", txn_id: int):
        self.txn_id = txn_id
        self._client = client
        self.finished = False
        #: Global LSN of this transaction's commit (None until committed,
        #: and for read-only/no-op commits).  Feeds the session's
        #: read-your-writes watermark.
        self.commit_lsn: int | None = None

    def commit(self) -> int | None:
        """Commit on the server (durable when the call returns).

        Returns the commit's global LSN (None for read-only and no-op
        transactions) and advances the session's read-your-writes
        watermark (:attr:`RemoteHAM.last_commit_lsn`).
        """
        self.commit_lsn = self._client._call("commit", txn=self.txn_id)
        self.finished = True
        self._client._note_commit(self.commit_lsn)
        return self.commit_lsn

    def abort(self) -> None:
        """Abort on the server."""
        self._client._call("abort", txn=self.txn_id)
        self.finished = True

    def __enter__(self) -> "RemoteTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.finished:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class BatchFuture:
    """The eventual result of one queued batch entry.

    Resolved when the owning :class:`RemoteBatch` flushes; ``result()``
    returns the decoded value or re-raises the entry's server-side
    error, exactly as the unbatched call would have.
    """

    __slots__ = ("operation", "_reply")

    def __init__(self, operation: Operation):
        self.operation = operation
        #: The entry's pipelined request, once flushed.
        self._reply: PipelineFuture | None = None

    def done(self) -> bool:
        return self._reply is not None and self._reply.done()

    def result(self):
        if self._reply is None:
            raise ProtocolError(
                f"{self.operation.name}: batch not flushed yet")
        return self._reply.result()


class RemoteBatch:
    """Queues registry operations; the flush pipelines them all.

    Exposes the same generated operation stubs as :class:`RemoteHAM`,
    but each call queues the encoded request and returns a
    :class:`BatchFuture` instead of performing a round trip.  Exiting
    the ``with`` block flushes (unless the block raised, in which case
    the queue is discarded).  The flush is a :class:`RemotePipeline`:
    entries execute server-side in queue order (mutations are ordered
    per session) with per-entry error reporting — one failure does not
    abort the rest.  Connecting retries under the client's
    :class:`RetryPolicy`; once the requests are out, a lost connection
    raises :class:`repro.errors.RetryableError`, since the server may
    have executed any of them.
    """

    def __init__(self, client: "RemoteHAM"):
        self._client = client
        self._queue: list[tuple[Operation, dict, BatchFuture]] = []

    def __len__(self) -> int:
        return len(self._queue)

    def _enqueue(self, operation: Operation, wire_params: dict,
                 ) -> BatchFuture:
        future = BatchFuture(operation)
        self._queue.append((operation, wire_params, future))
        return future

    def flush(self) -> list[BatchFuture]:
        """Pipeline every queued call; resolve futures."""
        if not self._queue:
            return []
        queued, self._queue = self._queue, []
        connected = False
        try:
            with RemotePipeline(self._client) as pipeline:
                connected = True
                for operation, wire_params, future in queued:
                    future._reply = pipeline._enqueue(operation,
                                                      wire_params)
        except (ConnectionError, TimeoutError, OSError) as exc:
            if not connected:
                raise
            raise RetryableError(
                f"batch of {len(queued)}: connection lost after the "
                f"requests were sent; the server may have executed them"
            ) from exc
        return [future for __, ___, future in queued]

    def __enter__(self) -> "RemoteBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
        else:
            self._queue.clear()


def _txn_id(txn: RemoteTransaction | None) -> int | None:
    return txn.txn_id if txn is not None else None


class RemoteHAM:
    """Connects to a :class:`repro.server.server.HAMServer`.

    Thread-safe for sequential calls (one in flight at a time per client;
    open one client per worker thread for parallel load, as the
    benchmark harness does).

    On connect the client performs a protocol handshake (``ping``) and
    raises :class:`repro.errors.ProtocolError` if the server speaks a
    different protocol version — pass ``handshake=False`` to skip.

    ``retry`` (a :class:`RetryPolicy`) governs reconnection and
    re-issue when the connection dies mid-session; see the module
    docstring for the idempotency rules.  Construction itself never
    retries — a server that is down at connect time fails fast.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 handshake: bool = True, retry: RetryPolicy | None = None):
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = Random(self.retry.seed)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._sock: socket.socket | None = None
        #: The one reader of ``_sock``: lives and dies with the
        #: connection, so a partial frame is never lost between reads.
        self._decoder = FrameDecoder()
        #: The (project_id, name) of the last successful host_open_graph,
        #: replayed after a reconnect so the session stays bound.
        self._rebind: tuple[int, str] | None = None
        self._handshake_enabled = handshake
        #: How many times the connection was re-established / a request
        #: re-issued over this client's lifetime.
        self.reconnects = 0
        self.retries = 0
        #: Interceptors around every RPC operation (counts, latency,
        #: tracing); empty by default — the no-middleware fast path.
        self.middleware = MiddlewareChain()
        #: The server's ping reply ({"protocol": N, ...}) once known.
        self.server_info: dict | None = None
        #: Highest commit LSN acknowledged to this session — the
        #: read-your-writes watermark a replication-aware router holds
        #: replica reads to (see :mod:`repro.replication.router`).
        self.last_commit_lsn = 0
        #: Active change-feed watches: server sub id -> RemoteWatch.
        #: Re-registered (with their last-seen LSN) after a reconnect.
        self._watches: dict[int, RemoteWatch] = {}
        #: Push frames that arrived before their subscription id was
        #: known (a subscribe's replay frames precede its reply on the
        #: wire).  Re-routed once the watch registers; bounded.
        self._orphan_pushes: list[dict] = []
        with self._lock:
            self._connect_locked()

    def close(self) -> None:
        """Close the connection (server aborts any open transactions)."""
        with self._lock:
            self._closed = True
            self._teardown_locked()

    def __enter__(self) -> "RemoteHAM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # connection lifecycle (self._lock held)

    def _teardown_locked(self) -> None:
        sock, self._sock = self._sock, None
        self._decoder = FrameDecoder()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _connected_locked(self) -> socket.socket:
        """The live socket, connecting (and counting a reconnect) first
        when the last one was torn down."""
        if self._closed:
            raise ConnectionError("client is closed")
        if self._sock is None:
            self._connect_locked()
            self.reconnects += 1
            RESILIENCE.increment("reconnects")
        return self._sock

    def _connect_locked(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout)
        try:
            # Small framed request/response messages: Nagle only adds
            # latency, and a pipelined burst wants its frames out now.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        try:
            if self._handshake_enabled:
                self._handshake_locked()
            if self._rebind is not None:
                project_id, name = self._rebind
                self._transact_locked("host_open_graph",
                                      {"project_id": project_id,
                                       "name": name})
            if self._watches:
                self._resubscribe_locked()
        except _TransportFailure as failure:
            # A handshake failure is a *connect* failure from the outer
            # call's point of view — its own request was never sent.
            self._teardown_locked()
            raise failure.cause
        except BaseException:
            self._teardown_locked()
            raise

    def _handshake_locked(self) -> dict:
        reply = self._transact_locked("ping", {})
        info = self._validate_ping(reply)
        self.server_info = info
        return info

    @staticmethod
    def _validate_ping(reply) -> dict:
        if isinstance(reply, dict) and "protocol" in reply:
            remote, info = reply["protocol"], reply
        elif reply == "pong":  # the pre-registry protocol
            remote, info = 1, {"protocol": 1}
        else:
            raise ProtocolError(f"malformed ping reply {reply!r}")
        if remote != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: this client speaks version "
                f"{PROTOCOL_VERSION}, the server speaks version {remote}; "
                f"upgrade the older side before connecting")
        return info

    # ------------------------------------------------------------------
    # the wire (self._lock held)

    def _transact_locked(self, method: str, params: dict,
                         deadline: float | None = None):
        """One request/response exchange on the current socket.

        Tears the connection down and raises :class:`_TransportFailure`
        on any stream-level trouble; semantic (server-reported) errors
        re-raise as local exception types and leave the stream healthy.
        """
        timeout = self._timeout
        if deadline is not None:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise _TransportFailure(
                    TimeoutError(f"{method}: call deadline exceeded"),
                    sent=False)
            timeout = min(timeout, remaining)
        request_id = next(self._ids)
        frame = encode_message({
            "id": request_id, "method": method, "params": params})
        sock = self._sock
        sent = False
        replies = []
        try:
            sock.settimeout(timeout)
            sock.sendall(frame)
            # The full frame reached the transport: the server may
            # execute the request even if we never see the reply.
            sent = True
            # Unsolicited push frames (change-feed events; protocol v7)
            # may arrive on either side of the reply: route them to
            # their watches and keep reading until the reply is in.
            while not replies:
                for message in read_message(sock, self._decoder):
                    if isinstance(message, dict) and "push" in message:
                        self._route_push(message)
                    else:
                        replies.append(message)
        except (ConnectionError, TimeoutError, OSError,
                ChecksumError, StorageError, ProtocolError) as exc:
            self._teardown_locked()
            raise _TransportFailure(exc, sent) from exc
        response = replies[0]
        if len(replies) != 1 or not isinstance(response, dict) \
                or response.get("id") != request_id:
            self._teardown_locked()
            raise _TransportFailure(ProtocolError(
                f"{method}: response does not match request "
                f"{request_id} (got {replies!r})"), sent=True)
        if response.get("ok"):
            # Mutating replies carry the graph's commit watermark (see
            # the server's dispatch): advance the session's
            # read-your-writes watermark so auto-committed operations
            # are covered, not just explicit ``commit`` calls.
            self._note_commit(response.get("commit_lsn"))
            return response.get("result")
        _raise_remote(response.get("error") or {})

    def _call(self, method: str, _idempotent: bool = False, **params):
        with self._lock:
            return self._retrying_locked(
                method, _idempotent,
                functools.partial(self._transact_locked, method, params))

    def _retrying_locked(self, what: str, idempotent: bool, attempt_fn):
        """Run ``attempt_fn(deadline)`` on a live connection under
        :attr:`retry`: connect failures always retry, transport failures
        only while nothing was sent or the request is idempotent."""
        if self._closed:
            raise ConnectionError("client is closed")
        policy = self.retry
        deadline = None
        if policy.call_deadline is not None:
            deadline = _time.monotonic() + policy.call_deadline
        attempt = 0
        while True:
            attempt += 1
            try:
                self._connected_locked()
                return attempt_fn(deadline)
            except _TransportFailure as failure:
                cause, sent = failure.cause, failure.sent
            except (ConnectionError, TimeoutError, OSError) as exc:
                cause, sent = exc, False  # connect-time failure
            if sent and not idempotent:
                raise RetryableError(
                    f"{what}: connection lost after the request was "
                    f"sent; the server may have executed it"
                ) from cause
            out_of_time = (deadline is not None
                           and _time.monotonic() >= deadline)
            if attempt >= policy.max_attempts or out_of_time:
                raise cause
            self.retries += 1
            RESILIENCE.increment("retries")
            delay = min(policy.backoff_cap,
                        policy.backoff_base * 2 ** (attempt - 1))
            delay *= 1 + policy.jitter * self._rng.random()
            _time.sleep(delay)

    def _note_commit(self, commit_lsn: int | None) -> None:
        """Advance the session's read-your-writes watermark."""
        if commit_lsn is not None and commit_lsn > self.last_commit_lsn:
            self.last_commit_lsn = commit_lsn

    def _invoke(self, operation: Operation, wire_params: dict):
        """One registry operation: RPC + result decode, via middleware."""
        # Transaction-scoped calls never auto-retry: the server-side
        # transaction died with the old connection, so re-issuing under
        # its id can only confuse matters.
        idempotent = (operation.idempotent
                      and wire_params.get("txn") is None)
        chain = self.middleware
        if not chain:
            return operation.result.from_wire(
                self._call(operation.name, _idempotent=idempotent,
                           **wire_params))
        return chain.run(
            operation.name,
            lambda: operation.result.from_wire(
                self._call(operation.name, _idempotent=idempotent,
                           **wire_params)))

    # ------------------------------------------------------------------
    # sessions / transactions

    def ping(self) -> bool:
        """Round-trip liveness check (re-runs the protocol handshake)."""
        reply = self._call("ping", _idempotent=True)
        self.server_info = self._validate_ping(reply)
        return True

    def begin(self, read_only: bool = False) -> RemoteTransaction:
        """Open a transaction on the server.

        Safe to auto-retry: if the first attempt's reply was lost, the
        orphaned server-side transaction dies with its session.
        """
        return RemoteTransaction(
            self, self._call("begin", _idempotent=True,
                             read_only=read_only))

    transaction = begin

    def batch(self) -> RemoteBatch:
        """Queue operations and flush them through one pipeline.

        ::

            with client.batch() as b:
                first = b.add_node()
                b.set_node_attribute_value(node=n, attribute=a, value="v")
            index, time = first.result()
        """
        return RemoteBatch(self)

    def pipeline(self, max_inflight: int | None = None) -> "RemotePipeline":
        """Issue many requests without waiting; collect futures.

        ::

            with client.pipeline() as p:
                futures = [p.add_node() for __ in range(100)]
            nodes = [f.result() for f in futures]

        Unlike :meth:`batch` (which queues until its block exits, then
        pipelines the queue), a pipeline streams each request as it is
        issued and lets the server overlap their execution — read-only
        calls run concurrently on snapshots, mutations stay in issue
        order.  ``max_inflight``
        bounds how many requests may be outstanding at once (``_issue``
        blocks servicing the wire until the window drains).  See
        :class:`RemotePipeline` for the failure semantics.
        """
        return RemotePipeline(self, max_inflight=max_inflight)

    # ------------------------------------------------------------------
    # multi-graph host methods (servers started with a GraphHost)

    def host_create_graph(self, name: str) -> tuple[int, Time]:
        """Create a graph on the host; returns (ProjectId, Time)."""
        project_id, time = self._call("host_create_graph", name=name)
        return project_id, time

    def host_open_graph(self, project_id: int, name: str) -> int:
        """Bind this session to a hosted graph (aborts any open txns).

        Idempotent (re-binding is a no-op server-side); remembered and
        replayed after every reconnect.
        """
        result = self._call("host_open_graph", _idempotent=True,
                            project_id=project_id, name=name)
        self._rebind = (project_id, name)
        return result

    def host_list_graphs(self) -> list[str]:
        """Names of the graphs the host serves."""
        return self._call("host_list_graphs", _idempotent=True)

    def host_destroy_graph(self, project_id: int, name: str) -> None:
        """Destroy a hosted graph."""
        self._call("host_destroy_graph", project_id=project_id, name=name)

    # ------------------------------------------------------------------
    # change feeds (protocol v7)

    def watch(self, events=None, predicate=None,
              from_lsn=None) -> "RemoteWatch":
        """Subscribe to the served graph's change feed.

        ``events`` limits the feed to specific
        :class:`~repro.core.demons.EventKind` values (names or enum
        members; None = every mutation kind); ``predicate`` is a query
        predicate evaluated server-side against the event's node.
        Returns a :class:`RemoteWatch` — iterate it (or ``poll``) for
        wire-form event dicts carrying the commit LSN.  The watch
        survives reconnects: the client re-subscribes with its
        last-seen LSN and the server replays what the ring retained
        (``watch.resync`` turns True when the gap was too old to
        replay).  ``from_lsn`` starts the feed with a replay of
        already-emitted commits past that LSN — the manual-resume hook
        after a cancelled feed (pass the dead watch's ``last_lsn``).
        """
        wire_events = (None if events is None
                       else [EventKind(event).value for event in events])
        with self._lock:
            self._connected_locked()
            try:
                reply = self._transact_locked(
                    "subscribe",
                    {"events": wire_events, "predicate": predicate,
                     "from_lsn": from_lsn})
            except _TransportFailure as failure:
                raise failure.cause
            watch = RemoteWatch(self, wire_events, predicate)
            watch.sub_id = reply["sub"]
            # With a replay request, any caught-up frames (buffered as
            # orphans below) carry LSNs at or below the reply's "last
            # emitted" — starting from from_lsn keeps them in order.
            watch.last_lsn = (from_lsn if from_lsn is not None
                              else reply.get("lsn") or 0)
            watch.resync = bool(reply.get("resync"))
            self._watches[watch.sub_id] = watch
            self._drain_orphans_locked(watch)
        return watch

    def unsubscribe(self, sub: int) -> bool:
        """Cancel a subscription by id (``RemoteWatch.close`` does this)."""
        with self._lock:
            self._watches.pop(sub, None)
        return self._call("unsubscribe", _idempotent=True, sub=sub)

    def subscription_status(self) -> dict:
        """Server-side hub counters and this session's queue depth."""
        return self._call("subscription_status", _idempotent=True)

    def _route_push(self, message: dict) -> None:
        """Hand one unsolicited push frame to its watch (lock held)."""
        watch = self._watches.get(message.get("sub"))
        if watch is None:
            # Replay frames outrun their subscribe reply (the id is not
            # known yet) — park them for registration to claim.  Frames
            # for long-gone subscriptions age out of the same buffer.
            self._orphan_pushes.append(message)
            del self._orphan_pushes[:-256]
            return
        watch._on_push(message)

    def _drain_orphans_locked(self, watch: "RemoteWatch") -> None:
        if not self._orphan_pushes:
            return
        keep = []
        for message in self._orphan_pushes:
            if message.get("sub") == watch.sub_id:
                watch._on_push(message)
            else:
                keep.append(message)
        self._orphan_pushes = keep

    def _resubscribe_locked(self) -> None:
        """Re-register every live watch on a fresh connection.

        Each watch re-subscribes carrying its last-seen LSN; the
        server's replay ring fills the disconnection gap (the replayed
        frames arrive ahead of the subscribe reply and are claimed at
        registration).  Runs inside :meth:`_connect_locked`, so a
        failure here fails the reconnect as a whole.
        """
        watches = [watch for watch in self._watches.values()
                   if not watch.closed]
        self._watches = {}
        try:
            for watch in watches:
                reply = self._transact_locked("subscribe", {
                    "events": watch._wire_events,
                    "predicate": watch._predicate,
                    "from_lsn": watch.last_lsn})
                watch.sub_id = reply["sub"]
                watch.seq = 0  # a new subscription numbers from 1
                if reply.get("resync"):
                    watch.resync = True
                watch.resubscribes += 1
                SUBSCRIPTIONS.increment("resubscribes")
                self._watches[watch.sub_id] = watch
                self._drain_orphans_locked(watch)
        except BaseException:
            # Keep the not-yet-re-registered watches addressable so the
            # next reconnect attempt picks them up again.
            for watch in watches:
                self._watches.setdefault(watch.sub_id, watch)
            raise

    def _pump_push(self, timeout: float) -> bool:
        """Read push traffic until a frame completes; True when any did.

        A timeout means "no pushes right now" — even mid-frame, since
        the connection's decoder keeps the partial frame for the next
        read.  ``timeout <= 0`` never waits for a frame to start: one
        readiness check, then a read of the frame already arriving.  A
        dead connection tears down quietly; the next pump reconnects,
        which re-subscribes every live watch.
        """
        with self._lock:
            if self._sock is None:
                self._connected_locked()
                return True  # resubscribe replay may have routed frames
            sock = self._sock
            try:
                if timeout > 0.0:
                    sock.settimeout(timeout)
                elif select.select([sock], [], [], 0.0)[0]:
                    sock.settimeout(self._timeout)
                else:
                    return False
                messages = read_message(sock, self._decoder)
            except TimeoutError:
                return False
            except (ConnectionError, OSError, StorageError,
                    ProtocolError):
                self._teardown_locked()
                return False
            for message in messages:
                if not (isinstance(message, dict) and "push" in message):
                    self._teardown_locked()
                    raise ProtocolError(
                        f"unsolicited non-push message {message!r}")
                self._route_push(message)
            return True


class RemoteWatch:
    """A server-pushed change feed, consumed as an iterator.

    Created by :meth:`RemoteHAM.watch`.  Each item is one event as a
    wire dict (``kind``/``node``/``link``/``transaction``/``detail``/
    ``time``) augmented with the commit ``lsn`` and the subscription's
    delivery ``seq``.  Events of one commit are contiguous and LSNs are
    non-decreasing; a sequence gap (which the dense per-subscription
    ``seq`` makes detectable even under predicate filtering) or a
    server-pushed cancel surfaces as :class:`SubscriptionError` /
    :class:`SubscriptionOverflowError` — only after already-buffered
    events have been consumed.
    """

    def __init__(self, client: RemoteHAM, wire_events, predicate) -> None:
        self._client = client
        self._wire_events = wire_events
        self._predicate = predicate
        self.sub_id: int | None = None
        self.seq = 0
        self.last_lsn = 0
        self.resync = False
        self.resubscribes = 0
        self.closed = False
        self._buffer: collections.deque = collections.deque()
        self._cancel: tuple | None = None  # (reason, dropped, message)
        self._broken: str | None = None

    # -- frame intake (client lock held) -------------------------------

    def _on_push(self, message: dict) -> None:
        if message.get("push") == "cancel":
            self._cancel = (message.get("reason"),
                            message.get("dropped", 0),
                            message.get("message", ""))
            # The server dropped the subscription: nothing is left to
            # re-subscribe after a reconnect, or to unsubscribe.
            self._client._watches.pop(self.sub_id, None)
            return
        lsn = message.get("lsn", 0)
        seq = message.get("seq", 0)
        if seq != self.seq + 1:
            self._broken = (f"change feed gap: expected seq "
                            f"{self.seq + 1}, got {seq}")
            return
        if lsn < self.last_lsn:
            self._broken = (f"change feed went backwards: lsn {lsn} "
                            f"after {self.last_lsn}")
            return
        self.seq = seq
        self.last_lsn = lsn
        for event in message.get("events") or ():
            entry = dict(event)
            entry["lsn"] = lsn
            entry["seq"] = seq
            self._buffer.append(entry)

    # -- consumption ---------------------------------------------------

    def _raise_feed_failure(self) -> None:
        if self._broken is not None:
            raise SubscriptionError(self._broken)
        reason, dropped, message = self._cancel
        if reason == "overflow":
            raise SubscriptionOverflowError(
                f"subscription {self.sub_id} dropped after {dropped} "
                f"lost events at lsn {self.last_lsn}: {message}")
        raise SubscriptionError(
            f"subscription {self.sub_id} cancelled ({reason}): {message}")

    def poll(self, timeout: float | None = 0.0):
        """Next event dict, or None when ``timeout`` elapses.

        ``timeout=None`` blocks until an event arrives or the feed
        fails; ``timeout=0`` returns a push that has already arrived
        without waiting for one that has not.  Buffered events are
        always drained before a cancel or gap raises.
        """
        deadline = (None if timeout is None
                    else _time.monotonic() + (timeout or 0.0))
        while True:
            if self._buffer:
                return self._buffer.popleft()
            if self._cancel is not None or self._broken is not None:
                self._raise_feed_failure()
            if self.closed:
                return None
            if deadline is None:
                wait = 0.25
            else:
                wait = max(deadline - _time.monotonic(), 0.0)
            self._client._pump_push(min(wait, 0.25))
            if (deadline is not None and not self._buffer
                    and _time.monotonic() >= deadline):
                if self._cancel is not None or self._broken is not None:
                    self._raise_feed_failure()
                return None

    def __iter__(self):
        while True:
            event = self.poll(timeout=None)
            if event is None:
                return
            yield event

    def close(self) -> None:
        """Stop the feed; unsubscribes server-side on a best effort."""
        if self.closed:
            return
        self.closed = True
        if self._cancel is None:
            try:
                self._client.unsubscribe(self.sub_id)
            except Exception:
                pass

    def __enter__(self) -> "RemoteWatch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PipelineFuture:
    """The eventual reply to one pipelined request.

    ``result()`` services the pipeline's wire until this request's
    response arrives (matching by request id, so out-of-order completion
    is fine), then returns the decoded value or re-raises the
    server-side error exactly as the serial call would have.  If the
    connection died, raises :class:`ConnectionError` chained to the
    transport failure that killed it.
    """

    __slots__ = ("method", "request_id", "_pipeline", "_decode", "_state",
                 "_value", "_error", "_cause")

    def __init__(self, pipeline: "RemotePipeline", request_id: int,
                 method: str, decode):
        self.method = method
        self.request_id = request_id
        self._pipeline = pipeline
        self._decode = decode
        self._state = "pending"
        self._value = None
        self._error: dict | None = None
        self._cause: BaseException | None = None

    def done(self) -> bool:
        return self._state != "pending"

    def result(self, timeout: float | None = None):
        if self._state == "pending":
            self._pipeline._service_while(
                lambda: self._state == "pending", timeout,
                what=f"reply to {self.method}")
        if self._state == "ok":
            return self._value
        if self._state == "error":
            _raise_remote(self._error)
        raise ConnectionError(
            f"{self.method}: pipeline connection lost before the reply "
            f"arrived; the server may have executed it") from self._cause

    # -- resolution (called by the owning pipeline) --------------------

    def _complete(self, response: dict) -> None:
        if response.get("ok"):
            try:
                self._value = (self._decode(response.get("result"))
                               if self._decode is not None
                               else response.get("result"))
                self._state = "ok"
            except Exception as exc:
                self._error = {"type": "ProtocolError",
                               "message": f"{self.method}: malformed "
                                          f"result ({exc})"}
                self._state = "error"
        else:
            self._error = response.get("error") or {}
            self._state = "error"

    def _abandon(self, cause: BaseException) -> None:
        if self._state == "pending":
            self._cause = cause
            self._state = "abandoned"


class RemotePipeline:
    """Many requests in flight on one connection; futures for replies.

    Entered as a context manager, it takes exclusive ownership of the
    client's connection (other threads' serial calls block until exit),
    switches the socket non-blocking, and streams requests out while
    draining responses in — so issuing never waits for a round trip, and
    the server (which schedules per-session: reads concurrent, mutations
    ordered) can overlap execution.  Exit drains everything still in
    flight, so after the ``with`` block every future is resolved.

    Failure semantics are stricter than serial calls: entering connects
    under the client's :class:`RetryPolicy`, but pipelined requests
    never auto-retry.  If the connection dies, every unresolved future
    is abandoned (``result()`` raises :class:`ConnectionError`) and the
    socket is torn down — the next serial call reconnects.  Replies and
    pushes are framed by the client's one decoder, so a partial frame
    left at exit is finished by the next read of any kind.

    ``begin()`` returns a future resolving to a
    :class:`RemoteTransaction`; pipelining operations *under* a
    transaction therefore has one sync point (``begin().result()``) and
    streams from there.
    """

    def __init__(self, client: RemoteHAM, max_inflight: int | None = None):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self._client = client
        self._max_inflight = max_inflight
        self._futures: dict[int, PipelineFuture] = {}
        self._sendbuf = bytearray()
        self._active = False
        self._dead = False
        #: High-water mark of requests outstanding at once.
        self.max_depth = 0

    def __len__(self) -> int:
        """Requests issued and not yet resolved."""
        return len(self._futures)

    # ------------------------------------------------------------------
    # lifecycle

    def __enter__(self) -> "RemotePipeline":
        self._client._lock.acquire()
        try:
            if self._active:
                raise ProtocolError("pipeline already entered")
            # Nothing is sent yet, so a connect failure retries under the
            # client's RetryPolicy like any other call's would.
            self._client._retrying_locked("pipeline", True,
                                          lambda deadline: None)
            self._client._sock.setblocking(False)
        except BaseException:
            self._client._lock.release()
            raise
        self._active = True
        self._dead = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if not self._dead and (self._futures or self._sendbuf):
                try:
                    self._service_while(
                        lambda: self._futures or self._sendbuf, None,
                        what="pipeline drain")
                except (ConnectionError, TimeoutError, OSError):
                    # The futures already carry the failure; surface it
                    # only if the block itself succeeded.
                    if exc_type is None:
                        raise
        finally:
            self._active = False
            sock = self._client._sock
            if sock is not None:
                try:
                    sock.settimeout(self._client._timeout)
                except OSError:
                    pass
            self._client._lock.release()

    # ------------------------------------------------------------------
    # issuing

    def _issue(self, method: str, wire_params: dict, decode) -> PipelineFuture:
        if not self._active:
            raise ProtocolError(
                "pipeline used outside its with-block")
        if self._dead:
            raise ConnectionError(
                "pipeline connection lost") from None
        if (self._max_inflight is not None
                and len(self._futures) >= self._max_inflight):
            self._service_while(
                lambda: len(self._futures) >= self._max_inflight, None,
                what="pipeline window")
        request_id = next(self._client._ids)
        future = PipelineFuture(self, request_id, method, decode)
        self._futures[request_id] = future
        if len(self._futures) > self.max_depth:
            self.max_depth = len(self._futures)
        self._sendbuf += encode_message(
            {"id": request_id, "method": method, "params": wire_params})
        # Opportunistic non-blocking pass once enough bytes accumulate:
        # one syscall then flushes many small frames and drains any
        # replies already here, so neither side's buffers back up while
        # the caller keeps issuing.  Anything still buffered goes out on
        # the next result()/window/drain pump.
        if len(self._sendbuf) >= 4096:
            self._pump(0.0)
        return future

    def _enqueue(self, operation: Operation, wire_params: dict,
                 ) -> PipelineFuture:
        """Target of the generated registry stubs."""
        return self._issue(operation.name, wire_params,
                           operation.result.from_wire)

    def call(self, method: str, **params) -> PipelineFuture:
        """Pipeline an arbitrary wire method (undecoded result)."""
        return self._issue(method, params, None)

    # -- session verbs (hand-written: they manage client-side handles) --

    def begin(self, read_only: bool = False) -> PipelineFuture:
        """Open a transaction; the future resolves to a
        :class:`RemoteTransaction`."""
        return self._issue(
            "begin", {"read_only": read_only},
            lambda txn_id: RemoteTransaction(self._client, txn_id))

    def commit(self, txn: RemoteTransaction) -> PipelineFuture:
        """Commit ``txn``; resolving the future acknowledges durability."""
        def decode(commit_lsn):
            txn.commit_lsn = commit_lsn
            txn.finished = True
            self._client._note_commit(commit_lsn)
        return self._issue("commit", {"txn": _txn_id(txn)}, decode)

    def abort(self, txn: RemoteTransaction) -> PipelineFuture:
        def decode(__):
            txn.finished = True
        return self._issue("abort", {"txn": _txn_id(txn)}, decode)

    # ------------------------------------------------------------------
    # the wire

    def _service_while(self, condition, timeout: float | None,
                       what: str) -> None:
        """Pump the socket until ``condition()`` goes false.

        The timeout is a *progress* deadline (reset whenever bytes move),
        so a long pipeline drains fully as long as the server keeps
        responding.
        """
        if self._dead:
            raise ConnectionError("pipeline connection lost")
        if not self._active:
            raise ProtocolError(f"pipeline exited with {what} unresolved")
        window = timeout if timeout is not None else self._client._timeout
        deadline = _time.monotonic() + window
        while condition():
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                failure = TimeoutError(
                    f"{what}: no progress within {window:.1f}s")
                self._fail_transport(failure)
                raise failure
            if self._pump(min(remaining, 0.5)):
                deadline = _time.monotonic() + window

    def _pump(self, wait: float) -> bool:
        """One select round; returns True when any bytes moved."""
        if self._dead:
            return False
        sock = self._client._sock
        try:
            readable, writable, __ = select.select(
                [sock], [sock] if self._sendbuf else [], [], wait)
        except (OSError, ValueError) as exc:
            self._fail_transport(exc)
            raise ConnectionError("pipeline connection lost") from exc
        progress = False
        try:
            if writable and self._sendbuf:
                try:
                    sent = sock.send(self._sendbuf)
                except (BlockingIOError, InterruptedError):
                    sent = 0
                if sent:
                    del self._sendbuf[:sent]
                    progress = True
            if readable:
                try:
                    data = sock.recv(65536)
                except (BlockingIOError, InterruptedError):
                    data = None
                if data is not None:
                    if not data:
                        raise ConnectionError(
                            "server closed the connection")
                    progress = True
                    for message in self._client._decoder.feed(data):
                        self._dispatch(message)
        except (ConnectionError, TimeoutError, OSError, ChecksumError,
                StorageError, ProtocolError) as exc:
            self._fail_transport(exc)
            raise ConnectionError(
                "pipeline connection lost") from exc
        return progress

    def _dispatch(self, message: object) -> None:
        if not isinstance(message, dict):
            raise ProtocolError(f"malformed response {message!r}")
        if "push" in message:
            # Change-feed frames interleave freely with pipelined
            # responses; they are id-less and route by subscription.
            self._client._route_push(message)
            return
        future = self._futures.pop(message.get("id"), None)
        if future is None:
            raise ProtocolError(
                f"response to unknown request {message.get('id')!r}")
        future._complete(message)

    def _fail_transport(self, cause: BaseException) -> None:
        """The stream is unusable: abandon everything, drop the socket."""
        if self._dead:
            return
        self._dead = True
        futures, self._futures = list(self._futures.values()), {}
        self._sendbuf.clear()
        for future in futures:
            future._abandon(cause)
        self._client._teardown_locked()


def _install_stubs() -> None:
    """Generate every operation stub from the registry.

    :class:`RemoteHAM` gets RPC stubs (properties for the property-kind
    operations); :class:`RemoteBatch` gets queueing stubs for everything
    a batch may carry.  Session-kind operations (ping/begin/commit/
    abort) keep their hand-written client surface above, since they
    manage client-side handles rather than marshal values.
    """
    for operation in REGISTRY:
        if operation.kind == "session":
            continue
        if operation.kind == "ham_property":
            stub = make_client_stub(operation, RemoteHAM._invoke)
            setattr(RemoteHAM, operation.name,
                    property(stub, doc=operation.doc))
            continue
        setattr(RemoteHAM, operation.name,
                make_client_stub(operation, RemoteHAM._invoke))
        setattr(RemoteBatch, operation.name,
                make_client_stub(operation, RemoteBatch._enqueue))
        setattr(RemotePipeline, operation.name,
                make_client_stub(operation, RemotePipeline._enqueue))


_install_stubs()
