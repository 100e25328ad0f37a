"""The HAM server: one graph, many concurrent workstation sessions.

Event-driven TCP server.  One selector thread accepts sessions and reads
framed requests non-blocking; a bounded pool of worker threads executes
them, so one slow call (or one slow client) never stalls the I/O loop
or another session.  The thread that makes a frame sends it — a worker
its replies, a committer its change-feed pushes — and only bytes the
kernel refuses wait for the selector thread to flush them.

Sessions may *pipeline*: many requests in flight at once, with responses
matched by request id.  Per session, read-only operations (per the
operation registry's ``read_only`` metadata) run concurrently on MVCC
snapshots; mutations, transaction control, and host methods are
ordered — each runs alone, in arrival order, so a pipelined session
observes exactly the semantics of a serial one.

Connection governance:

- ``max_connections`` — beyond the cap a new session's first request is
  answered with :class:`repro.errors.ServerBusyError` and the connection
  closes (graceful rejection, never a hang);
- ``max_pending`` / ``max_outbuf_bytes`` — a session whose inbound queue
  fills, or whose unread responses pile up (a slow consumer), stops
  being read until it drains (backpressure via the kernel socket
  buffer);
- ``idle_timeout`` — sessions idle past the timeout are closed and their
  leftover transactions aborted.

If the connection drops (workstation crash, network partition), every
transaction the session left open is aborted — the paper's recovery
story for "a site [that] crashes in the middle of a hypertext
transaction".

Every wire method except the multi-graph host calls is derived from
:data:`repro.core.operations.REGISTRY`: argument decoding,
transaction-id resolution, invocation on the bound HAM, and result
encoding all come from the operation table, so adding an operation
there makes it servable with no change here.  A client's batch is
ordinary pipelined requests; the server has no batch method.

Demons run server-side: register implementations in the registry passed
to (or owned by) the wrapped :class:`~repro.core.ham.HAM`.
"""

from __future__ import annotations

import collections
import itertools
import os
import queue
import selectors
import socket
import threading
import time as _time
from dataclasses import dataclass

from repro.core.ham import HAM
from repro.core.operations import (
    build_server_dispatch,
    read_only_methods,
    release_active,
)
from repro.errors import (
    NeptuneError,
    ProtocolError,
    SubscriptionError,
    SubscriptionOverflowError,
)
from repro.server.protocol import FrameDecoder, encode_message
from repro.testing import faults
from repro.tools.metrics import SERVER, SUBSCRIPTIONS
from repro.txn.manager import Transaction

__all__ = ["HAMServer", "ServerConfig"]

#: Complete registry-derived dispatch table: {method: handler(session,
#: wire_params) -> wire_result}.
_DISPATCH = build_server_dispatch()

#: Methods a session may execute concurrently with each other; anything
#: not in this set is a scheduling barrier (runs alone, in order).
_READ_ONLY = read_only_methods()

#: Read-only methods served on a dedicated thread instead of the worker
#: pool: they long-poll (park until new log bytes appear), and a parked
#: call would otherwise occupy a bounded pool worker for its whole wait.
#: A few subscribed replicas plus in-flight semi-sync commit gates could
#: exhaust the pool — starving the very ack fetches the gates wait on.
_DETACHED = frozenset({"repl_subscribe"})

#: Cap on concurrent detached long-poll threads; beyond it the calls
#: fall back to the worker pool rather than spawning without bound.
_MAX_DETACHED = 64

#: Selector-key markers for the non-session registrations.
_LISTENER = object()
_WAKE = object()

#: Gathered writes (one syscall for many queued response frames);
#: absent on some platforms, where the per-frame path is used instead.
_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


@dataclass(frozen=True)
class ServerConfig:
    """Connection-governance knobs of one :class:`HAMServer`."""

    #: Sessions beyond this cap are rejected with ``ServerBusyError``
    #: (None = unlimited).
    max_connections: int | None = None
    #: Per-session bound on decoded-but-not-yet-scheduled requests;
    #: reading the socket pauses while the queue is full.
    max_pending: int = 64
    #: Per-session bound on buffered response bytes; a consumer that
    #: stops reading its responses stops being read itself.
    max_outbuf_bytes: int = 4 * 1024 * 1024
    #: Worker threads executing requests (the concurrency of the whole
    #: server, all sessions combined).
    workers: int = 8
    #: Close sessions with no traffic and no open work for this many
    #: seconds (None = never).
    idle_timeout: float | None = None
    #: How long a graceful ``stop()`` waits for in-flight requests to
    #: finish and their responses to flush before severing sessions.
    drain_timeout: float = 10.0

    def __post_init__(self):
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def _marshal_error(exc: BaseException) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


class _Session:
    """Per-connection state: the bound graph, open transactions, and the
    pipelining scheduler's bookkeeping."""

    def __init__(self, server: "HAMServer", sock: socket.socket,
                 peer: tuple, busy: bool = False):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.transactions: dict[int, Transaction] = {}
        #: The graph this session operates on.  Single-graph servers
        #: bind it up front; host servers bind via the open_graph RPC.
        self.bound_ham: HAM | None = server.ham
        #: Over the connection cap: answer everything with ServerBusy.
        self.busy = busy
        #: Change-feed watches this session registered: sub_id -> the
        #: hub that owns it (push frames ride this session's socket).
        self.subscriptions: dict[int, object] = {}

        self.lock = threading.Lock()
        self.decoder = FrameDecoder()
        #: Decoded requests admitted but not yet handed to a worker.
        self.pending: collections.deque = collections.deque()
        self.running_reads = 0
        self.running_mutation = False
        #: Frames the kernel has not taken yet, in production order, and
        #: their total size.  Guarded by ``lock``, like every send.
        self.outbuf: collections.deque = collections.deque()
        self.out_offset = 0
        self.out_bytes = 0
        #: A ``want_write`` command is posted and the outbuf not drained.
        self.write_wanted = False
        self.paused = False
        #: No more requests will be admitted; flush and close.
        self.closing = False
        #: No byte may reach the socket any more (set under ``lock``).
        self.closed = False
        self.cleanup_scheduled = False
        self.last_activity = _time.monotonic()
        # I/O-thread-only selector bookkeeping.
        self.read_registered = False
        self.write_registered = False

    # ------------------------------------------------------------------
    # scheduling helpers (session.lock held by the caller)

    def depth(self) -> int:
        """Requests currently in flight or queued (pipelining depth)."""
        return (len(self.pending) + self.running_reads
                + (1 if self.running_mutation else 0))

    def idle(self) -> bool:
        return (not self.pending and not self.running_reads
                and not self.running_mutation)

    def discard_locked(self) -> None:
        """Mark the session closed and drop everything it still owes."""
        self.closed = True
        self.pending.clear()
        self.outbuf.clear()
        self.out_offset = 0
        self.out_bytes = 0
        self.server._schedule_cleanup_locked(self)

    # ------------------------------------------------------------------
    # sending (any thread; the caller of the *_locked forms holds lock)

    def send(self, frames) -> None:
        """Send ``frames`` from the thread that made them."""
        with self.lock:
            self.send_locked(frames)

    def send_locked(self, frames) -> None:
        """Queue ``frames`` behind any unsent bytes; when none were
        queued, write them now."""
        if self.closed:
            return
        idle = not self.outbuf
        self.outbuf.extend(frames)
        self.out_bytes += sum(map(len, frames))
        if idle:
            self.flush_locked()

    def flush_locked(self) -> None:
        """The one routine that writes session frames, on any thread.

        What the kernel refuses stays queued, and one ``want_write``
        command hands it to the I/O thread, which owns the selector.
        """
        if self.closed:
            return
        server = self.server
        sock = self.sock
        outbuf = self.outbuf
        drained = 0
        try:
            while outbuf:
                # With a fault injector installed, send strictly frame
                # by frame so ``server.send`` fires (and can corrupt)
                # each frame; otherwise gather the queued frames into
                # one sendmsg syscall.
                if (faults.INJECTOR is not None or not _HAS_SENDMSG
                        or len(outbuf) == 1):
                    frame = outbuf[0]
                    if self.out_offset == 0 and faults.INJECTOR is not None:
                        faults.fire("server.send", sock=sock, frame=frame)
                    sent = sock.send(memoryview(frame)[self.out_offset:])
                else:
                    buffers = [memoryview(outbuf[0])[self.out_offset:]]
                    buffers.extend(itertools.islice(outbuf, 1, 64))
                    sent = sock.sendmsg(buffers)
                while sent:
                    remaining = len(outbuf[0]) - self.out_offset
                    if sent < remaining:
                        self.out_offset += sent
                        break
                    sent -= remaining
                    drained += len(outbuf.popleft())
                    self.out_offset = 0
                if self.out_offset:
                    break  # partial frame: the kernel buffer is full
        except (BlockingIOError, InterruptedError):
            pass
        except faults.SimulatedCrash:
            server._post(("die",))
            raise
        except (faults.FaultError, OSError):
            self.discard_locked()
            server._post(("close", self))
            return
        self.out_bytes -= drained
        if not outbuf:
            self.write_wanted = False
            if self.closing:
                server._post(("close", self))
            else:
                server._maybe_resume_locked(self)
            return
        # A consumer that stops reading its replies stops being read:
        # admit no further requests until the pile drains.
        pause = (self.out_bytes > server.config.max_outbuf_bytes
                 and not self.paused and not self.closing)
        if pause:
            self.paused = True
            server._count("paused_reads")
        if pause or not self.write_wanted:
            self.write_wanted = True
            server._post(("want_write", self))

    def abort_leftovers(self) -> None:
        """Abort transactions (and detach subscriptions) left behind
        by a vanished client."""
        for transaction in list(self.transactions.values()):
            release_active(transaction)
        self.transactions.clear()
        for sub_id, hub in list(self.subscriptions.items()):
            try:
                hub.unsubscribe(sub_id)
            except Exception:  # pragma: no cover - hub teardown races
                pass
        self.subscriptions.clear()

    # ------------------------------------------------------------------
    # the session surface the registry handlers dispatch against

    @property
    def ham(self) -> HAM:
        if self.bound_ham is None:
            raise ProtocolError(
                "no graph bound to this session; call open_graph first")
        return self.bound_ham

    def resolve_txn(self, txn_id: int | None) -> Transaction | None:
        """Transaction open on this session, or None for single-op."""
        if txn_id is None:
            return None
        try:
            return self.transactions[txn_id]
        except KeyError:
            raise ProtocolError(
                f"transaction {txn_id} is not open on this session"
            ) from None

    def register_txn(self, transaction: Transaction) -> None:
        self.transactions[transaction.txn_id] = transaction

    def release_txn(self, txn_id: int) -> None:
        """Drop a transaction from the table, aborting it if still live."""
        release_active(self.transactions.pop(txn_id, None))

    # ------------------------------------------------------------------
    # change feeds (protocol v7): push frames interleave with responses

    def subscribe_feed(self, events=None, predicate=None,
                       from_lsn=None) -> dict:
        """Register a watch whose events push over this session's socket.

        Delivery runs on committer threads: the closure encodes one
        ``{"push": "events", ...}`` frame and sends it itself, in order
        with ordinary responses through the same bounded outbuf.  A
        frame that would push the outbuf past ``max_outbuf_bytes``
        raises the typed overflow error
        instead — the hub then cancels the feed (the slow consumer
        loses its subscription, never stalls the commit) and the
        ``fail`` closure best-effort ships one final cancel frame,
        which always queues: the overflow check does not apply to it,
        and a closed session simply drops it.
        """
        ham = self.ham
        hub = ham.subscription_hub()
        compiled = ham.compile_watch_predicate(predicate)

        def deliver(sub, lsn, seq, wire_events) -> None:
            self._push_frame(encode_message({
                "push": "events", "sub": sub.sub_id, "lsn": lsn,
                "seq": seq, "events": wire_events}))

        def fail(sub, reason, dropped, lsn, message) -> None:
            self.subscriptions.pop(sub.sub_id, None)
            self._push_frame(encode_message({
                "push": "cancel", "sub": sub.sub_id, "reason": reason,
                "dropped": dropped, "lsn": lsn, "message": message}),
                unchecked=True)

        sub_id, resync = hub.subscribe(
            deliver, fail, events=events, predicate=compiled,
            from_lsn=from_lsn)
        sub = hub.subscription(sub_id)
        if sub is not None:  # a replay overflow may have cancelled it
            self.subscriptions[sub_id] = hub
        return {"sub": sub_id, "resync": resync,
                "lsn": hub.status()["last_emitted_lsn"]}

    def unsubscribe_feed(self, sub_id: int) -> bool:
        hub = self.subscriptions.pop(sub_id, None)
        if hub is None:
            return False
        return hub.unsubscribe(sub_id)

    def subscription_feed_status(self) -> dict:
        status = self.ham.subscription_status()
        status["session_subscriptions"] = len(self.subscriptions)
        with self.lock:
            status["outbuf_bytes"] = self.out_bytes
        status["counters"] = SUBSCRIPTIONS.snapshot()
        return status

    def _push_frame(self, frame: bytes, unchecked: bool = False) -> None:
        """Send one unsolicited frame (called from committer threads).

        Raises the typed overflow error when the frame would take the
        session's unsent bytes past ``max_outbuf_bytes``.  The check and
        the append share one hold of ``lock``, so the bound is exact:
        only replies and the unchecked final cancel frame go past it.
        """
        with self.lock:
            if self.closed or self.closing:
                raise SubscriptionError("session is closing")
            if not unchecked:
                projected = self.out_bytes + len(frame)
                limit = self.server.config.max_outbuf_bytes
                if projected > limit:
                    raise SubscriptionOverflowError(
                        f"subscriber backlog {projected} bytes exceeds "
                        f"max_outbuf_bytes={limit}")
                SUBSCRIPTIONS.record_max("queue_high_water", projected)
            self.send_locked((frame,))

    # ------------------------------------------------------------------
    # request dispatch (runs on a worker thread)

    def handle(self, request: object) -> dict:
        if not isinstance(request, dict) or "method" not in request:
            return {"id": None, "ok": False,
                    "error": {"type": "ProtocolError",
                              "message": "malformed request"}}
        request_id = request.get("id")
        method = request["method"]
        # Mutating replies carry the commit LSN *this request* produced
        # so the session's read-your-writes guarantee covers
        # auto-committed operations too (an explicit ``commit`` returns
        # its LSN as the result; everything else would otherwise leave
        # the session watermark behind).  Only the request's own commits
        # count: the graph-wide watermark includes other sessions'
        # commits and would over-advance this session's watermark.
        captor = None
        if (isinstance(method, str) and method not in _READ_ONLY
                and self.bound_ham is not None):
            captor = self.bound_ham._txns
            captor.capture_commits()
        try:
            if faults.INJECTOR is not None:
                faults.fire("server.dispatch", method=method)
            result = self._execute(method, request.get("params") or {})
        except Exception as exc:  # marshal any failure back to the client
            return {"id": request_id, "ok": False,
                    "error": _marshal_error(exc)}
        reply = {"id": request_id, "ok": True, "result": result}
        if captor is not None:
            commit_lsn = captor.captured_commit_lsn()
            if commit_lsn is not None:
                reply["commit_lsn"] = commit_lsn
        return reply

    def _execute(self, method: object, params: object):
        if not isinstance(method, str) or not isinstance(params, dict):
            raise ProtocolError("malformed request")
        if faults.INJECTOR is not None:
            faults.fire("session.dispatch", method=method)
        handler = _DISPATCH.get(method)
        if handler is not None:
            return handler(self, params)
        host_handler = self._HOST_METHODS.get(method)
        if host_handler is not None:
            return host_handler(self, **params)
        raise ProtocolError(f"unknown method {method!r}")

    # ------------------------------------------------------------------
    # host methods (multi-graph servers only) — the one part of the
    # vocabulary that manages graph binding rather than graph contents,
    # so it stays hand-written.

    @property
    def _host(self):
        if self.server.host_registry is None:
            raise ProtocolError("this server hosts a single graph")
        return self.server.host_registry

    def _host_create_graph(self, name: str) -> list:
        return list(self._host.create_graph(name))

    def _host_open_graph(self, project_id: int, name: str) -> int:
        self.abort_leftovers()  # rebinding abandons the old graph's work
        self.bound_ham = self._host.open_graph(project_id, name)
        return self.bound_ham.project_id

    def _host_list_graphs(self) -> list:
        return self._host.list_graphs()

    def _host_destroy_graph(self, project_id: int, name: str) -> None:
        self.abort_leftovers()
        if (self.bound_ham is not None
                and self.bound_ham.project_id == project_id):
            self.bound_ham = None
        self._host.destroy_graph(project_id, name)

    _HOST_METHODS = {
        "host_create_graph": _host_create_graph,
        "host_open_graph": _host_open_graph,
        "host_list_graphs": _host_list_graphs,
        "host_destroy_graph": _host_destroy_graph,
    }


class HAMServer:
    """Serves HAMs over TCP to any number of workstation sessions.

    Two modes:

    - ``HAMServer(ham)`` — one graph, every session bound to it (the
      paper's basic central-server picture);
    - ``HAMServer(host=GraphHost(root))`` — a multi-graph host: sessions
      create/list graphs and bind one via the ``open_graph`` RPC.

    ``config`` (a :class:`ServerConfig`) governs connection admission,
    per-session backpressure, worker-pool size, and idle reaping.
    """

    def __init__(self, ham: HAM | None = None, host_name: str = "127.0.0.1",
                 port: int = 0, host=None,
                 config: ServerConfig | None = None):
        if (ham is None) == (host is None):
            raise ValueError("give exactly one of ham or host")
        self.ham = ham
        self.host_registry = host
        self.config = config if config is not None else ServerConfig()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host_name, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self.bind_host, self.port = self._listener.getsockname()

        self._running = False
        self._stopped = False
        self._stop_lock = threading.Lock()
        self._io_thread: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        #: Live dedicated long-poll threads (see ``_DETACHED``).
        self._detached: set[threading.Thread] = set()
        self._detached_lock = threading.Lock()
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._sessions: list[_Session] = []
        self._sessions_lock = threading.Lock()

        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._commands: collections.deque = collections.deque()
        self._commands_lock = threading.Lock()
        self._wake_pending = False
        self._draining = False
        self._drain_deadline: float | None = None

        self._stats_lock = threading.Lock()
        self._counters = {
            "accepted": 0, "rejected": 0, "timeouts": 0,
            "pipelined_depth": 0, "queue_high_water": 0,
            "paused_reads": 0, "dispatched": 0,
        }

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) clients should connect to."""
        return self.bind_host, self.port

    def stats(self) -> dict[str, int]:
        """Snapshot of this server's governance counters.

        ``pipelined_depth`` and ``queue_high_water`` are high-water
        marks; the rest are totals.  ``active_sessions`` is the current
        connection count.
        """
        with self._stats_lock:
            snapshot = dict(self._counters)
        with self._sessions_lock:
            snapshot["active_sessions"] = len(self._sessions)
        snapshot["workers"] = len(self._workers)
        return snapshot

    def threads(self) -> list[threading.Thread]:
        """Every thread this server started (for clean-exit assertions)."""
        threads = list(self._workers)
        with self._detached_lock:
            threads.extend(self._detached)
        if self._io_thread is not None:
            threads.append(self._io_thread)
        return threads

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "HAMServer":
        """Start the I/O loop and worker pool in background threads.

        Idempotent: ``GraphHost.serve()`` returns a started server, and
        entering it as a context manager starts it again.
        """
        if self._io_thread is not None:
            return self
        self._running = True
        self._selector.register(self._listener, selectors.EVENT_READ,
                                _LISTENER)
        self._selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"ham-worker-{index}",
                daemon=True)
            self._workers.append(worker)
            worker.start()
        self._io_thread = threading.Thread(
            target=self._io_loop, name="ham-server-io", daemon=True)
        self._io_thread.start()
        return self

    def stop(self, disconnect_clients: bool = False) -> None:
        """Stop the server and join every thread it started.

        By default the shutdown is *graceful*: requests already admitted
        (including pipelined ones not yet executed) run to completion
        and their responses are flushed before sessions close, bounded
        by ``config.drain_timeout``.  With ``disconnect_clients=True``
        every session socket is severed immediately (simulating a server
        kill) and buffered work is discarded.  Either way, leftover
        transactions of every session are aborted and the I/O and worker
        threads are joined before this returns.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self._running = False
        self._post(("shutdown",
                    "hard" if disconnect_clients else "drain"))
        if self._io_thread is not None:
            self._io_thread.join(timeout=self.config.drain_timeout + 10.0)
        # Belt and braces: if the I/O thread died early (simulated
        # crash), its sockets were — or are now — closed here.
        self._force_close_sockets()
        for __ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
        with self._detached_lock:
            parked = list(self._detached)
        for thread in parked:
            thread.join(timeout=10.0)
        # Any session whose cleanup task never ran (workers dead, or the
        # task was enqueued after the sentinels) is swept up here, so no
        # session — and no leftover transaction — outlives stop().
        with self._sessions_lock:
            leftovers, self._sessions = self._sessions, []
        for session in leftovers:
            try:
                session.abort_leftovers()
            except NeptuneError:
                pass
        try:
            self._selector.close()
        except OSError:
            pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    def _force_close_sockets(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
        for session in self._session_list():
            with session.lock:
                session.closed = True
            try:
                session.sock.close()
            except OSError:
                pass

    def __enter__(self) -> "HAMServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # cross-thread commands (worker -> I/O thread)

    def _post(self, command: tuple) -> None:
        with self._commands_lock:
            self._commands.append(command)
            if self._wake_pending:
                return  # a wake byte is already in flight
            self._wake_pending = True
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass  # server already stopped

    def _count(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] += amount
        if name in ("accepted", "rejected", "timeouts", "paused_reads"):
            SERVER.increment(name)

    def _session_list(self) -> list[_Session]:
        with self._sessions_lock:
            return list(self._sessions)

    def _record_depth(self, session: _Session) -> None:
        """Track pipelining-depth and queue high-water marks (called with
        ``session.lock`` held, right after admitting a decode batch)."""
        depth = session.depth()
        backlog = len(session.pending)
        with self._stats_lock:
            if depth > self._counters["pipelined_depth"]:
                self._counters["pipelined_depth"] = depth
            if backlog > self._counters["queue_high_water"]:
                self._counters["queue_high_water"] = backlog
        SERVER.record_max("pipelined_depth", depth)
        SERVER.record_max("queue_high_water", backlog)

    # ------------------------------------------------------------------
    # the worker pool

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            kind, session, request = task
            try:
                if kind == "cleanup":
                    self._cleanup_session(session)
                    continue
                self._execute_task(session, request)
            except faults.SimulatedCrash:
                # Simulated process death: sever every connection so
                # clients observe the crash promptly, then let the
                # worker die.  The sticky injector takes the rest of
                # the pool down as it touches any fault point.
                self._post(("die",))
                return

    def _execute_task(self, session: _Session,
                      requests: list[object]) -> None:
        """Execute one scheduled task: a run of read-only requests or a
        single mutation.  All its response frames leave in one send,
        which is what keeps per-request overhead off the pipelined read
        path."""
        read_only = (isinstance(requests[0], dict)
                     and requests[0].get("method") in _READ_ONLY)
        try:
            frames = [encode_message(session.handle(request))
                      for request in requests]
            self._count("dispatched", len(requests))
            session.last_activity = _time.monotonic()
            session.send(frames)
        finally:
            with session.lock:
                if read_only:
                    session.running_reads -= len(requests)
                else:
                    session.running_mutation = False
                if session.closed:
                    self._schedule_cleanup_locked(session)
                else:
                    self._pump_session_locked(session)

    def _spawn_detached(self, session: _Session, run: list) -> None:
        """Run one long-poll request on its own thread (see _DETACHED)."""
        thread = threading.Thread(
            target=self._detached_task, args=(session, run),
            name="ham-longpoll", daemon=True)
        with self._detached_lock:
            self._detached.add(thread)
        thread.start()

    def _detached_task(self, session: _Session, run: list) -> None:
        try:
            self._execute_task(session, run)
        except faults.SimulatedCrash:
            self._post(("die",))
        finally:
            with self._detached_lock:
                self._detached.discard(threading.current_thread())

    def _cleanup_session(self, session: _Session) -> None:
        try:
            session.abort_leftovers()
        finally:
            with self._sessions_lock:
                if session in self._sessions:
                    self._sessions.remove(session)

    # ------------------------------------------------------------------
    # the per-session scheduler

    def _pump_session_locked(self, session: _Session) -> None:
        """Hand every currently-eligible request to the worker pool.

        Caller holds ``session.lock``.  Read-only requests run
        concurrently with each other; anything else is a barrier — it
        waits for the session to quiesce and then runs alone, which is
        what keeps a pipelined session's mutations in arrival order.
        """
        while session.pending:
            head = session.pending[0]
            read_only = (isinstance(head, dict)
                         and head.get("method") in _READ_ONLY)
            if read_only:
                # max_pending also caps in-flight reads, so a flood of
                # reads queues in the session (where backpressure sees
                # it) rather than in the worker pool.
                if (session.running_mutation
                        or session.running_reads
                        >= self.config.max_pending):
                    break
                # Long-poll methods get a dedicated thread: a parked
                # fetch must not occupy a bounded pool worker (or stall
                # this session's later reads behind its wait).
                if (head.get("method") in _DETACHED
                        and len(self._detached) < _MAX_DETACHED):
                    session.pending.popleft()
                    session.running_reads += 1
                    self._spawn_detached(session, [head])
                    continue
                # The whole consecutive run of reads becomes one worker
                # task: runs still execute in arrival order, reads from
                # other sessions (and later-arriving runs of this one)
                # still overlap, and a deeply pipelined reader pays the
                # scheduling cost once per run instead of once per
                # request.
                run = [session.pending.popleft()]
                session.running_reads += 1
                while (session.pending
                       and session.running_reads
                       < self.config.max_pending):
                    request = session.pending[0]
                    if not (isinstance(request, dict)
                            and request.get("method") in _READ_ONLY):
                        break
                    if request.get("method") in _DETACHED:
                        break  # scheduled alone, off-pool, next round
                    session.pending.popleft()
                    session.running_reads += 1
                    run.append(request)
                self._tasks.put(("request", session, run))
            else:
                if session.running_mutation or session.running_reads:
                    break
                session.pending.popleft()
                session.running_mutation = True
                self._tasks.put(("request", session, [head]))
                break
        self._maybe_resume_locked(session)

    def _maybe_resume_locked(self, session: _Session) -> None:
        """Lift backpressure once the session drains below half-full."""
        if (session.paused and not session.closed and not session.closing
                and len(session.pending) <= self.config.max_pending // 2
                and session.out_bytes
                <= self.config.max_outbuf_bytes // 2):
            session.paused = False
            self._post(("resume", session))

    def _schedule_cleanup_locked(self, session: _Session) -> None:
        if not session.cleanup_scheduled and session.idle():
            session.cleanup_scheduled = True
            self._tasks.put(("cleanup", session, None))

    # ------------------------------------------------------------------
    # the I/O loop (selector thread; owns every socket)

    def _io_loop(self) -> None:
        try:
            while True:
                timeout = self._tick_timeout()
                events = self._selector.select(timeout)
                for key, mask in events:
                    data = key.data
                    if data is _LISTENER:
                        self._on_accept()
                    elif data is _WAKE:
                        if self._on_wake():
                            return
                    else:
                        if mask & selectors.EVENT_READ:
                            self._on_readable(data)
                        if mask & selectors.EVENT_WRITE:
                            self._on_writable(data)
                self._reap_idle()
                if self._draining and self._drain_finished():
                    self._close_all_sessions(discard=False)
                    return
        except faults.SimulatedCrash:
            self._perish()

    def _tick_timeout(self) -> float | None:
        if self._draining:
            return 0.02
        if self.config.idle_timeout is not None:
            return min(0.25, self.config.idle_timeout / 4)
        return None

    def _on_wake(self) -> bool:
        """Drain the wake pipe and run queued commands.

        Returns True when the I/O loop must exit.
        """
        try:
            while os.read(self._wake_r, 4096):
                pass
        except (BlockingIOError, OSError):
            pass
        with self._commands_lock:
            self._wake_pending = False
        while True:
            with self._commands_lock:
                if not self._commands:
                    return False
                command = self._commands.popleft()
            kind = command[0]
            if kind == "want_write":
                self._want_write(command[1])
            elif kind == "resume":
                self._resume_reading(command[1])
            elif kind == "close":
                self._close_session(command[1])
            elif kind == "shutdown":
                if self._begin_shutdown(command[1]):
                    return True
            elif kind == "die":
                self._perish()
                return True

    def _begin_shutdown(self, mode: str) -> bool:
        """Stop accepting; returns True when the loop can exit now."""
        self._unregister_listener()
        if mode == "hard":
            self._close_all_sessions(discard=True)
            return True
        self._draining = True
        self._drain_deadline = (_time.monotonic()
                                + self.config.drain_timeout)
        # No new requests are admitted during a drain: stop reading so
        # the drain condition (queues empty, buffers flushed) is
        # reachable even against a chatty client.
        for session in self._session_list():
            self._pause_reading(session)
        return False

    def _drain_finished(self) -> bool:
        if (self._drain_deadline is not None
                and _time.monotonic() >= self._drain_deadline):
            return True
        for session in self._session_list():
            if session.closed:
                continue
            with session.lock:
                if not session.idle() or session.outbuf:
                    return False
        return True

    def _perish(self) -> None:
        """Simulated process death: drop every socket, no goodbyes."""
        self._unregister_listener()
        for session in self._session_list():
            with session.lock:
                session.closed = True
                session.pending.clear()
            self._drop_session_socket(session)

    # -- accepting ------------------------------------------------------

    def _on_accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed
            if not self._running:
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            cap = self.config.max_connections
            with self._sessions_lock:
                active = sum(1 for s in self._sessions if not s.busy)
                busy = cap is not None and active >= cap
                session = _Session(self, sock, peer, busy=busy)
                self._sessions.append(session)
            self._count("rejected" if busy else "accepted")
            try:
                self._selector.register(sock, selectors.EVENT_READ,
                                        session)
            except KeyError:  # fd reused before a ``close`` command ran
                self._close_session(self._selector.get_key(sock).data)
                self._selector.register(sock, selectors.EVENT_READ,
                                        session)
            session.read_registered = True

    # -- reading --------------------------------------------------------

    def _on_readable(self, session: _Session) -> None:
        if session.closed:
            return
        try:
            if faults.INJECTOR is not None:
                faults.fire("server.recv", sock=session.sock)
            data = session.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except (faults.FaultError, OSError):
            self._close_session(session)
            return
        if not data:
            self._close_session(session)
            return
        session.last_activity = _time.monotonic()
        try:
            messages = session.decoder.feed(data)
        except NeptuneError:
            # Unframeable stream (bad length prefix/checksum):
            # resynchronization is impossible, drop the client.
            self._close_session(session)
            return
        if not messages:
            return
        if session.busy:
            self._reject_busy(session, messages)
            return
        with session.lock:
            session.pending.extend(messages)
            # Depth and backlog peak right here, after admitting the
            # whole decode batch and before the scheduler drains any of
            # it — one high-water sample covers every message in it.
            self._record_depth(session)
            self._pump_session_locked(session)
            if (len(session.pending) >= self.config.max_pending
                    or session.out_bytes
                    > self.config.max_outbuf_bytes):
                if not session.paused:
                    session.paused = True
                    self._count("paused_reads")
                self._pause_reading(session)

    def _reject_busy(self, session: _Session, messages: list) -> None:
        """Answer a rejected session's requests with ServerBusy, then
        close once the replies flush."""
        frames = [encode_message({
            "id": message.get("id") if isinstance(message, dict) else None,
            "ok": False,
            "error": {"type": "ServerBusyError",
                      "message": "server connection limit reached; "
                                 "try again later"}})
            for message in messages]
        session.closing = True
        session.send(frames)
        self._pause_reading(session)

    # -- writing --------------------------------------------------------

    def _on_writable(self, session: _Session) -> None:
        """Flush what the kernel refused earlier (selector thread)."""
        with session.lock:
            session.flush_locked()
            drained = not session.outbuf
        if drained:
            self._unwant_write(session)

    # -- selector interest management (I/O thread only) -----------------

    def _modify(self, session: _Session) -> None:
        mask = ((selectors.EVENT_READ if session.read_registered else 0)
                | (selectors.EVENT_WRITE if session.write_registered
                   else 0))
        try:
            if mask:
                self._selector.modify(session.sock, mask, session)
            else:
                self._selector.unregister(session.sock)
        except (KeyError, ValueError, OSError):
            if mask:
                try:
                    self._selector.register(session.sock, mask, session)
                except (KeyError, ValueError, OSError):
                    pass

    def _want_write(self, session: _Session) -> None:
        """Watch for writability; a paused session also stops reading."""
        if not session.closed:
            session.write_registered = True
            if session.paused:
                session.read_registered = False
            self._modify(session)

    def _unwant_write(self, session: _Session) -> None:
        if session.write_registered:
            session.write_registered = False
            self._modify(session)

    def _pause_reading(self, session: _Session) -> None:
        if session.read_registered:
            session.read_registered = False
            self._modify(session)

    def _resume_reading(self, session: _Session) -> None:
        if (not session.closed and not session.closing
                and not session.read_registered and not self._draining):
            session.read_registered = True
            self._modify(session)

    def _unregister_listener(self) -> None:
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    # -- closing --------------------------------------------------------

    def _drop_session_socket(self, session: _Session) -> None:
        try:
            self._selector.unregister(session.sock)
        except (KeyError, ValueError, OSError):
            pass
        session.read_registered = False
        session.write_registered = False
        try:
            session.sock.close()
        except OSError:
            pass

    def _close_session(self, session: _Session) -> None:
        """Close one session's socket and schedule its cleanup.

        Safe to call repeatedly; runs on the I/O thread.  In-flight
        requests finish on their workers (their responses are dropped);
        the leftover-transaction abort runs as a worker task once the
        session quiesces.  The session is marked closed under its lock
        before the socket closes, so no send can reach a closed socket.
        """
        with session.lock:
            if not session.closed:
                session.discard_locked()
        self._drop_session_socket(session)

    def _close_all_sessions(self, discard: bool) -> None:
        for session in self._session_list():
            if not discard and not session.closed:
                self._on_writable(session)  # final flush attempt
            self._close_session(session)

    # -- idle reaping ---------------------------------------------------

    def _reap_idle(self) -> None:
        limit = self.config.idle_timeout
        if limit is None or self._draining:
            return
        now = _time.monotonic()
        for session in self._session_list():
            if session.closed or session.busy:
                continue
            with session.lock:
                expendable = (session.idle() and not session.outbuf
                              and now - session.last_activity > limit)
            if expendable:
                self._count("timeouts")
                self._close_session(session)
