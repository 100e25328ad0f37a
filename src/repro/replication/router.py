"""Replication-aware routing: reads to replicas, writes to the primary.

A :class:`ReplicatedHAM` fronts one primary and any number of replicas
(each an ordinary :class:`~repro.server.client.RemoteHAM` session) and
exposes the registry operation surface.  Routing is derived from the
operation registry itself — :attr:`~repro.core.operations.Operation.read_only`
marks what a replica may answer — plus one rule: a call that carries a
transaction always follows that transaction home to the connection that
began it.

Consistency guarantees:

- **Read-your-writes.**  The session records the commit LSN of every
  mutation it acknowledges (``RemoteHAM.last_commit_lsn``); a replica is
  only eligible for a read once its replay watermark has passed that
  LSN.  Watermarks only advance, so a cached watermark that satisfies
  the requirement proves it without a round trip.
- **Bounded staleness.**  A replica whose replay lag exceeds
  ``staleness_budget`` bytes is ineligible.  Lag is sampled from
  ``replStatus`` at most every ``status_interval`` seconds, so the
  bound holds at that granularity.  A replica whose sampled status shows
  its stream stopped serves no further reads: its lag is unknown
  (``replStatus`` reports ``lag_bytes`` as ``None``), and its state no
  longer advances.  An endpoint written off — stream stopped, or
  transport dead — is sampled again at most every
  ``status_interval`` seconds (a dead one only once a plain TCP
  connect to it succeeds), and serves again once it answers
  streaming.
- **Wait-or-fail.**  When no replica qualifies, the router polls for up
  to ``ryw_timeout`` seconds, then either falls back to the primary
  (``fallback_to_primary=True``, the default — counted in
  ``stale_rejects``) or raises :class:`~repro.errors.ReplicaLagError`.

Failover: when the primary connection dies (or answers
:class:`~repro.errors.NotPrimaryError` after an unseen promotion), the
router probes every replica's ``replStatus``, promotes the
most-caught-up one with the idempotent ``replPromote``, re-targets, and
re-issues the failed call — but only when re-issuing is safe: a
non-idempotent request whose outcome is unknown still surfaces
:class:`~repro.errors.RetryableError` exactly as a single-connection
client would.
"""

from __future__ import annotations

import socket
import threading
import time as _time

from repro.core.operations import REGISTRY, Operation
from repro.errors import NotPrimaryError, ReplicaLagError, RetryableError
from repro.server.client import RemoteHAM, RemoteTransaction, RetryPolicy
from repro.tools.metrics import REPLICATION

__all__ = ["ReplicaEndpoint", "ReplicatedHAM"]

_OPS: dict[str, Operation] = {op.name: op for op in REGISTRY}

#: Connection-level failures that make an endpoint unusable.  Re-routing
#: after one is safe for exactly the calls RemoteHAM itself would have
#: retried — anything else already surfaced as RetryableError.
_TRANSPORT_ERRORS = (ConnectionError, TimeoutError, OSError)


class ReplicaEndpoint:
    """Where one replica listens, with its cached replication status."""

    def __init__(self, host: str, port: int, name: str | None = None):
        self.host = host
        self.port = port
        self.name = name or f"{host}:{port}"
        self.client: RemoteHAM | None = None
        #: False once a call or a status sample failed on the transport.
        self.healthy = True
        #: False once a status sample showed the replica's stream stopped.
        self.streaming = True
        #: Cached ``replStatus`` fields (watermarks only ever advance,
        #: so a satisfied cached requirement stays satisfied).
        self.replayed_lsn = 0
        self.lag_bytes: int | None = 0
        self.checked_at = 0.0
        #: When ``replStatus`` was last asked for, answered or not.
        self.sampled_at = 0.0

    @property
    def serving(self) -> bool:
        """Reachable, and replaying a stream that still advances."""
        return self.healthy and self.streaming

    def refresh(self) -> bool:
        """Re-sample ``replStatus``; returns False unless still serving.

        A replica whose stream stopped answers from a state that no
        longer advances, with its lag unknown (``None``), so it stops
        serving reads.  A primary's status has no ``streaming`` field.
        """
        self.sampled_at = _time.monotonic()
        try:
            status = self.client.repl_status()
        except _TRANSPORT_ERRORS:
            self.healthy = False
            return False
        self.replayed_lsn = max(self.replayed_lsn,
                                int(status.get("replayed_lsn", 0)))
        lag = status.get("lag_bytes", 0)
        self.lag_bytes = None if lag is None else int(lag)
        self.checked_at = _time.monotonic()
        self.healthy = True
        self.streaming = (bool(status.get("streaming", True))
                          and lag is not None)
        return self.streaming

    def reachable(self, timeout: float) -> bool:
        """Whether a TCP connect to the endpoint succeeds: one try, so a
        replica still down costs a refused connect, not the client's
        reconnect backoff."""
        try:
            socket.create_connection((self.host, self.port),
                                     timeout=timeout).close()
        except OSError:
            return False
        return True


class ReplicatedHAM:
    """Route HAM operations across a primary and its replicas.

    ``graph=(project_id, name)`` binds the primary session to a graph
    hosted by a :class:`~repro.server.host.GraphHost` server, through
    :meth:`RemoteHAM.host_open_graph` — which replays the binding after
    every reconnect.  Replica servers serve one graph each and need no
    binding.
    """

    def __init__(self, primary: tuple[str, int],
                 replicas: tuple[tuple[str, int], ...] = (), *,
                 graph: tuple[int, str] | None = None,
                 staleness_budget: int | None = 1 << 20,
                 read_your_writes: bool = True,
                 ryw_timeout: float = 2.0,
                 status_interval: float = 0.25,
                 fallback_to_primary: bool = True,
                 timeout: float = 30.0,
                 retry: RetryPolicy | None = None,
                 client_factory=RemoteHAM):
        self.staleness_budget = staleness_budget
        self.read_your_writes = read_your_writes
        self.ryw_timeout = ryw_timeout
        self.status_interval = status_interval
        self.fallback_to_primary = fallback_to_primary
        self._timeout = timeout
        self._retry = retry
        self._client_factory = client_factory
        self._failover_lock = threading.Lock()
        self._rotation = 0
        #: How many times this router promoted a replica and re-targeted.
        self.failovers = 0
        #: Reads the replica tier could not serve within its guarantees.
        self.stale_rejects = 0
        self._primary = self._connect(*primary)
        self._readers: list[ReplicaEndpoint] = []
        try:
            if graph is not None:
                self._primary.host_open_graph(*graph)
            for host, port in replicas:
                endpoint = ReplicaEndpoint(host, port)
                endpoint.client = self._connect(host, port)
                self._readers.append(endpoint)
        except BaseException:
            self.close()
            raise

    def _connect(self, host: str, port: int) -> RemoteHAM:
        return self._client_factory(host, port, timeout=self._timeout,
                                    retry=self._retry)

    # ------------------------------------------------------------------
    # operation surface (generated routing wrappers)

    def __getattr__(self, name: str):
        operation = _OPS.get(name)
        if operation is None or operation.kind == "session":
            raise AttributeError(
                f"{type(self).__name__!s} has no attribute {name!r}")
        if operation.kind == "ham_property":
            return getattr(self._route_target(operation, (), {}), name)

        def call(*args, **kwargs):
            return self._dispatch(operation, name, args, kwargs)

        call.__name__ = name
        call.__doc__ = operation.doc
        self.__dict__[name] = call
        return call

    def _dispatch(self, operation: Operation, name: str, args, kwargs):
        txn_client = self._transaction_home(args, kwargs)
        if txn_client is not None:
            return getattr(txn_client, name)(*args, **kwargs)
        if operation.read_only:
            return self._call_read(name, args, kwargs)
        return self._call_primary(
            lambda client: getattr(client, name)(*args, **kwargs))

    @staticmethod
    def _transaction_home(args, kwargs) -> RemoteHAM | None:
        """A call carrying a transaction goes to the connection that
        began it — the transaction only exists in that session."""
        for value in args:
            if isinstance(value, RemoteTransaction):
                return value._client
        txn = kwargs.get("txn")
        if isinstance(txn, RemoteTransaction):
            return txn._client
        return None

    def _route_target(self, operation: Operation, args, kwargs) -> RemoteHAM:
        client = self._transaction_home(args, kwargs)
        if client is not None:
            return client
        if operation.read_only:
            return self._reader()
        return self._primary

    # ------------------------------------------------------------------
    # sessions

    def begin(self, read_only: bool = False) -> RemoteTransaction:
        """Open a transaction: read-only on a replica, writes on the
        primary.  Every later call carrying the transaction follows it
        home automatically."""
        if read_only:
            client = self._reader()
            if client is not self._primary:
                try:
                    return client.begin(read_only=True)
                except _TRANSPORT_ERRORS:
                    self._mark_dead(client)
            # Fall through: the replica died under us, or none qualify.
        return self._call_primary(
            lambda client: client.begin(read_only=read_only))

    transaction = begin

    def batch(self):
        """A primary-session batch (batches may carry mutations)."""
        return self._primary.batch()

    def pipeline(self, max_inflight: int | None = None):
        """A primary-session pipeline (pipelines may carry mutations)."""
        return self._primary.pipeline(max_inflight=max_inflight)

    def ping(self) -> bool:
        return self._call_primary(lambda client: client.ping())

    @property
    def primary(self) -> RemoteHAM:
        """The current primary session (mutations and fallback reads)."""
        return self._primary

    @property
    def last_commit_lsn(self) -> int:
        """Highest commit LSN this session has been acknowledged."""
        return self._primary.last_commit_lsn

    def close(self) -> None:
        self._primary.close()
        for endpoint in self._readers:
            if endpoint.client is not None:
                endpoint.client.close()

    def __enter__(self) -> "ReplicatedHAM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cluster_status(self) -> dict:
        """Router-level view: primary status, per-replica lag, counters."""
        try:
            primary = self._primary.repl_status()
        except _TRANSPORT_ERRORS as exc:
            primary = {"error": str(exc)}
        replicas = []
        for endpoint in self._readers:
            entry = {"name": endpoint.name, "healthy": endpoint.healthy,
                     "streaming": endpoint.streaming,
                     "replayed_lsn": endpoint.replayed_lsn,
                     "lag_bytes": endpoint.lag_bytes}
            replicas.append(entry)
        return {"primary": primary, "replicas": replicas,
                "failovers": self.failovers,
                "stale_rejects": self.stale_rejects,
                "last_commit_lsn": self.last_commit_lsn}

    # ------------------------------------------------------------------
    # read routing

    def _call_read(self, name: str, args, kwargs):
        while True:
            client = self._reader()
            if client is self._primary:
                return self._call_primary(
                    lambda c: getattr(c, name)(*args, **kwargs))
            try:
                return getattr(client, name)(*args, **kwargs)
            except _TRANSPORT_ERRORS:
                self._mark_dead(client)
            except NotPrimaryError:
                # A promotion happened under us and this "replica" now
                # refuses... cannot happen for reads; defensive only.
                self._mark_dead(client)

    def _reader(self) -> RemoteHAM:
        """Pick a replica satisfying the session guarantees, else wait,
        else fall back to the primary (or raise)."""
        need = self._primary.last_commit_lsn if self.read_your_writes else 0
        now = _time.monotonic()
        deadline = now + self.ryw_timeout
        for endpoint in self._readers:
            # Give a written-off endpoint its chance to come back.
            if (not endpoint.serving and endpoint.client is not None
                    and now - endpoint.sampled_at >= self.status_interval):
                if endpoint.healthy or endpoint.reachable(
                        self.status_interval):
                    endpoint.refresh()
                else:
                    endpoint.sampled_at = now
        while True:
            candidates = [endpoint for endpoint in self._readers
                          if endpoint.serving and endpoint.client is not None]
            if not candidates:
                break
            now = _time.monotonic()
            for offset in range(len(candidates)):
                endpoint = candidates[
                    (self._rotation + offset) % len(candidates)]
                if self._qualifies(endpoint, need, now):
                    self._rotation += 1
                    return endpoint.client
            # Nobody qualifies on cached state: refresh and re-check.
            for endpoint in candidates:
                endpoint.refresh()
            now = _time.monotonic()
            for offset in range(len(candidates)):
                endpoint = candidates[
                    (self._rotation + offset) % len(candidates)]
                if endpoint.serving and self._qualifies(endpoint, need, now):
                    self._rotation += 1
                    return endpoint.client
            if _time.monotonic() >= deadline:
                break
            _time.sleep(0.02)
        # A stale reject means a replica tier exists but could not serve
        # this read within its guarantees.  A router configured with no
        # replicas at all routes every read to the primary by design —
        # counting those would make the counter useless.
        if self._readers:
            REPLICATION.increment("stale_rejects")
            self.stale_rejects += 1
        if self.fallback_to_primary or not any(
                endpoint.healthy for endpoint in self._readers):
            return self._primary
        raise ReplicaLagError(
            f"no replica within the staleness budget "
            f"({self.staleness_budget} bytes) has replayed past lsn "
            f"{need} after {self.ryw_timeout}s")

    def _qualifies(self, endpoint: ReplicaEndpoint, need: int,
                   now: float) -> bool:
        if endpoint.replayed_lsn < need:
            return False
        if self.staleness_budget is None:
            return True
        # The lag sample must be recent for the bound to mean anything.
        if now - endpoint.checked_at > self.status_interval:
            return False
        return endpoint.lag_bytes <= self.staleness_budget

    def _mark_dead(self, client: RemoteHAM) -> None:
        for endpoint in self._readers:
            if endpoint.client is client:
                endpoint.healthy = False
                endpoint.sampled_at = _time.monotonic()

    # ------------------------------------------------------------------
    # failover

    def _call_primary(self, fn):
        client = self._primary
        try:
            return fn(client)
        except RetryableError:
            raise  # outcome unknown: never silently re-route a mutation
        except NotPrimaryError as exc:
            self._failover(client, exc)
            return fn(self._primary)
        except _TRANSPORT_ERRORS as exc:
            self._failover(client, exc)
            return fn(self._primary)

    def failover(self) -> RemoteHAM:
        """Force a failover (for tests and operator tooling)."""
        self._failover(self._primary, None)
        return self._primary

    def _failover(self, dead: RemoteHAM, cause: BaseException | None) -> None:
        """Promote the most-caught-up replica and re-target the router."""
        with self._failover_lock:
            if self._primary is not dead:
                return  # another caller already failed us over
            best = None
            best_key = None
            for endpoint in self._readers:
                if endpoint.client is None:
                    continue
                try:
                    status = endpoint.client.repl_status()
                except _TRANSPORT_ERRORS:
                    endpoint.healthy = False
                    continue
                if status.get("role") == "primary":
                    key = (1, 0)  # someone already promoted it: adopt
                else:
                    key = (0, int(status.get("replayed_lsn", 0)))
                if best is None or key > best_key:
                    best, best_key = endpoint, key
            if best is None:
                if cause is not None:
                    raise cause
                raise NotPrimaryError(
                    "failover requested but no replica is reachable")
            best.client.repl_promote()
            self._readers.remove(best)
            old, self._primary = self._primary, best.client
            # Carry the session's read-your-writes watermark across the
            # failover: acknowledged commits are, by the semi-sync
            # contract, already replayed on the promoted replica.
            self._primary.last_commit_lsn = max(
                self._primary.last_commit_lsn, old.last_commit_lsn)
            self.failovers += 1
            try:
                old.close()
            except OSError:
                pass
