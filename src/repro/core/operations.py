"""Declarative registry of every HAM operation — the wire vocabulary.

The paper's HAM is "a transaction-based server" with a fixed operation
vocabulary (the Appendix).  This module states that vocabulary exactly
once: each :class:`Operation` records the operation's name (snake_case
and the Appendix's camelCase), its parameters with argument codecs, its
result codec, and whether it runs inside a transaction.  Three layers
derive their behaviour from the same table:

- the local :class:`~repro.core.ham.HAM` routes its public methods
  through a per-instance :class:`MiddlewareChain` (see
  :func:`install_local_dispatch`), so interceptors — per-operation
  counters, latency histograms (:mod:`repro.tools.metrics`), trace
  logs — observe in-process sessions exactly as they observe RPC ones;
- the server builds its entire request dispatcher from the table
  (:func:`build_server_dispatch`): argument decoding, transaction-id
  resolution, invocation, and result encoding are all derived, so
  ``server.py`` contains no per-operation handler bodies;
- the remote client generates its operation stubs from the table
  (:func:`make_client_stub`), including the stubs of the pipeline and
  of the queueing proxy behind ``RemoteHAM.batch()``.

A :class:`Codec` is a symmetric pair of translations between *local*
Python values (``LinkPt``, ``Protections``, ``EventKind``, delta
scripts, query results) and *wire* values (the ``None``/``bool``/
``int``/``str``/``bytes``/``list``/``dict`` vocabulary of
:mod:`repro.storage.serializer`).  The client applies ``to_wire`` to
arguments and ``from_wire`` to results; the server applies the same
codecs in the mirrored direction, which is what keeps the three layers
from drifting apart.
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import Callable, Iterator

from repro.core.demons import EventKind
from repro.core.types import CURRENT, LinkPt, Protections, Version
from repro.errors import NeptuneError, ProtocolError
from repro.query.graph_query import QueryResult
from repro.query.traversal import TraversalResult
from repro.storage.deltas import decode_script, encode_script
from repro.txn.manager import TxnStatus

__all__ = [
    "PROTOCOL_VERSION",
    "Codec",
    "Param",
    "Operation",
    "OperationRegistry",
    "REGISTRY",
    "MiddlewareChain",
    "install_local_dispatch",
    "build_server_dispatch",
    "make_client_stub",
    "operation_signature",
    "read_only_methods",
]

#: Version of the wire vocabulary.  Bump whenever an operation, codec,
#: or message shape changes incompatibly; ``ping`` carries it so client
#: and server can refuse a mismatched pairing up front.  Version 1 was
#: the hand-written protocol whose ``ping`` returned the bare string
#: ``"pong"``; version 2 introduced the registry-derived dispatch and a
#: server-side batch method; version 3 added ``explainQuery`` (plan rendering for
#: the cost-based query planner); version 4 added the replication
#: vocabulary (``replSubscribe``/``replStatus``/``replSnapshot``/
#: ``replPromote``) and changed ``commit`` to return the transaction's
#: commit LSN (None for read-only transactions) so sessions can carry
#: read-your-writes watermarks.  Version 5 gave ``replSnapshot`` a
#: ``have`` parameter (content digests the caller already holds) and a
#: manifest-form reply that ships only the missing blobs.  Version 6 added
#: ``linksFrom``/``linksTo`` (O(degree) adjacency traversal over the
#: columnar graph core).  Version 7 added change-feed subscriptions
#: (``subscribe``/``unsubscribe``/``subscription_status``) and with them
#: *unsolicited push frames*: a server may now interleave id-less
#: ``{"push": ...}`` messages between responses on any session that
#: subscribed (clients that never subscribe never see one).  Version 8
#: changed the delta-chain record inside ``replSnapshot`` replies: a
#: chain's ``deltas`` field is one encoded list (``bytes``), not a list of
#: scripts, so a replica built for version 7 is refused at the handshake
#: rather than failing to load the snapshot.  Version 9 removed the
#: batch method: a client batch is pipelined ordinary requests, so a
#: version-8 client that still sends one is refused at the handshake
#: rather than failing per request.
PROTOCOL_VERSION = 9


class _Required:
    """Sentinel: the parameter has no default and must be supplied."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<required>"


REQUIRED = _Required()


# ======================================================================
# Codecs

class Codec:
    """Symmetric local-value ↔ wire-value translation."""

    __slots__ = ("name", "to_wire", "from_wire")

    def __init__(self, name: str,
                 to_wire: Callable[[object], object] | None = None,
                 from_wire: Callable[[object], object] | None = None):
        self.name = name
        self.to_wire = to_wire if to_wire is not None else _identity
        self.from_wire = from_wire if from_wire is not None else _identity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Codec {self.name}>"


def _identity(value: object) -> object:
    return value


def _open_node_to_wire(result) -> list:
    contents, link_points, values, current = result
    return [contents,
            [[index, end, pt.to_record()] for index, end, pt in link_points],
            list(values), current]


def _open_node_from_wire(wire) -> tuple:
    contents, link_points, values, current = wire
    return (contents,
            [(index, end, LinkPt.from_record(record))
             for index, end, record in link_points],
            list(values), current)


def _versions_to_wire(result) -> list:
    major, minor = result
    return [[v.to_record() for v in major], [v.to_record() for v in minor]]


def _versions_from_wire(wire) -> tuple:
    major, minor = wire
    return ([Version.from_record(record) for record in major],
            [Version.from_record(record) for record in minor])


def _result_set_to_wire(result) -> list:
    return [[[index, list(values)] for index, values in result.nodes],
            [[index, list(values)] for index, values in result.links]]


def _result_set_from_wire(wire, factory):
    nodes, links = wire
    return factory(
        tuple((index, tuple(values)) for index, values in nodes),
        tuple((index, tuple(values)) for index, values in links))


def _attachments_to_wire(value):
    return None if value is None else [list(entry) for entry in value]


def _attachments_from_wire(value):
    return None if value is None else [tuple(entry) for entry in value]


#: Wire-native values (ints, strings, bytes, bools, None, plain lists).
IDENTITY = Codec("identity")
#: Node contents: any buffer on the way in, ``bytes`` on the wire.
CONTENTS = Codec("contents", to_wire=bytes)
#: A sequence sent as a plain list (attribute-index vectors).
INDEX_SEQ = Codec("index-seq", to_wire=list, from_wire=list)
#: ``(index, time)``-style pair results.
INT_PAIR = Codec("int-pair", to_wire=list, from_wire=tuple)
#: A single link endpoint.
LINK_PT = Codec("link-pt", to_wire=lambda pt: pt.to_record(),
                from_wire=LinkPt.from_record)
#: Protection flags travel as their integer bitmask.
PROTECTION_BITS = Codec("protections",
                        to_wire=lambda p: Protections(p).value,
                        from_wire=Protections)
#: Demon event kinds travel as their string value.
EVENT_KIND = Codec("event-kind", to_wire=lambda e: EventKind(e).value,
                   from_wire=EventKind)
#: An optional event-kind set (subscription filters): None = all.
EVENT_KIND_SEQ = Codec(
    "event-kind-seq",
    to_wire=lambda kinds: (None if kinds is None else
                           [EventKind(k).value for k in kinds]),
    from_wire=lambda kinds: (None if kinds is None else
                             [EventKind(k) for k in kinds]))
#: ``modifyNode`` attachment moves: optional list of (link, end, pos).
ATTACHMENT_SEQ = Codec("attachments", to_wire=_attachments_to_wire,
                       from_wire=_attachments_from_wire)
#: Lists of tuples (attribute tables) as lists of lists on the wire.
TUPLE_ROWS = Codec("tuple-rows",
                   to_wire=lambda rows: [list(row) for row in rows],
                   from_wire=lambda rows: [tuple(row) for row in rows])
#: ``getNodeVersions``: (major, minor) Version histories.
VERSION_HISTORIES = Codec("versions", to_wire=_versions_to_wire,
                          from_wire=_versions_from_wire)
#: ``getNodeDifferences``: a delta script.
DELTA_SCRIPT = Codec("delta-script", to_wire=encode_script,
                     from_wire=decode_script)
#: ``openNode``: (contents, link points, values, current time).
OPEN_NODE_RESULT = Codec("open-node", to_wire=_open_node_to_wire,
                         from_wire=_open_node_from_wire)
#: Demon tables: (EventKind, demon name) pairs.
DEMON_BINDINGS = Codec(
    "demon-bindings",
    to_wire=lambda rows: [[EventKind(event).value, name]
                          for event, name in rows],
    from_wire=lambda rows: [(EventKind(event), name)
                            for event, name in rows])
#: ``linearizeGraph`` result.
TRAVERSAL = Codec(
    "traversal", to_wire=_result_set_to_wire,
    from_wire=lambda wire: _result_set_from_wire(wire, TraversalResult))
#: ``getGraphQuery`` result.
QUERY = Codec(
    "query", to_wire=_result_set_to_wire,
    from_wire=lambda wire: _result_set_from_wire(wire, QueryResult))


# ======================================================================
# Operation specifications

class Param:
    """One declared parameter of an operation."""

    __slots__ = ("name", "codec", "default", "kw_only", "is_txn")

    def __init__(self, name: str, codec: Codec = IDENTITY,
                 default: object = REQUIRED, kw_only: bool = False):
        self.name = name
        self.codec = codec
        self.default = default
        self.kw_only = kw_only
        #: The transaction operand: resolved against the session's open
        #: transaction table server-side, sent as its id client-side.
        self.is_txn = name == "txn"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Param {self.name}:{self.codec.name}>"


def _txn_param(kw_only: bool = False) -> Param:
    return Param("txn", IDENTITY, default=None, kw_only=kw_only)


class Operation:
    """One HAM operation, declared once for all three layers.

    ``kind`` selects how the server invokes it:

    - ``"ham"`` — a method on the session's bound HAM;
    - ``"ham_property"`` — a read-only property on the bound HAM;
    - ``"session"`` — session-level state (transaction table, liveness),
      executed by ``session_invoke(session, **kwargs)``.
    """

    __slots__ = ("name", "appendix_name", "params", "result", "mutates",
                 "events", "kind", "doc", "session_invoke", "idempotent",
                 "read_only")

    def __init__(self, name: str, params: tuple | list = (),
                 result: Codec = IDENTITY, *, appendix_name: str | None = None,
                 mutates: bool = False, events: tuple = (),
                 kind: str = "ham", doc: str = "",
                 session_invoke: Callable | None = None,
                 idempotent: bool | None = None,
                 read_only: bool | None = None):
        if kind not in ("ham", "ham_property", "session"):
            raise ValueError(f"unknown operation kind {kind!r}")
        if kind == "session" and session_invoke is None:
            raise ValueError(f"{name}: session operations need an invoker")
        self.name = name
        self.appendix_name = appendix_name
        self.params = tuple(params)
        self.result = result
        self.mutates = mutates
        self.events = tuple(events)
        self.kind = kind
        self.doc = doc or (f"``{appendix_name}`` on the server."
                           if appendix_name else "")
        self.session_invoke = session_invoke
        #: Safe to re-issue when the outcome of a send is unknown.  Reads
        #: are; mutations and session-state calls are not, unless
        #: declared so explicitly (``ping``; ``begin``, whose orphaned
        #: transaction dies with its session).
        if idempotent is None:
            idempotent = not mutates and kind != "session"
        self.idempotent = idempotent
        #: Safe to execute concurrently with other read-only operations
        #: of the same session (the pipelined server runs such requests
        #: in parallel on MVCC snapshots).  Session-state operations
        #: (begin/commit/abort) and mutations are *ordered*: the server
        #: lets them run only alone, in arrival order.
        if read_only is None:
            read_only = not mutates and kind in ("ham", "ham_property")
        self.read_only = read_only

    @property
    def transactional(self) -> bool:
        """True when the operation accepts the ``txn`` operand."""
        return any(p.is_txn for p in self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Operation {self.name}>"


class OperationRegistry:
    """Name-indexed, iteration-ordered set of :class:`Operation`."""

    def __init__(self):
        self._operations: dict[str, Operation] = {}

    def register(self, operation: Operation) -> Operation:
        if operation.name in self._operations:
            raise ValueError(f"operation {operation.name!r} already "
                             "registered")
        self._operations[operation.name] = operation
        return operation

    def get(self, name: str) -> Operation | None:
        return self._operations.get(name)

    def names(self) -> list[str]:
        return list(self._operations)

    def ham_operations(self) -> list[Operation]:
        """Operations dispatched to HAM methods (local wrap targets)."""
        return [op for op in self._operations.values() if op.kind == "ham"]

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations.values())

    def __len__(self) -> int:
        return len(self._operations)

    def __contains__(self, name: str) -> bool:
        return name in self._operations


# ======================================================================
# Session-level operations (transaction table, liveness)

def _session_ping(session) -> dict:
    """Liveness probe carrying the protocol version handshake."""
    return {"pong": True, "protocol": PROTOCOL_VERSION}


def _session_begin(session, read_only: bool = False) -> int:
    transaction = session.ham.begin(read_only=read_only)
    session.register_txn(transaction)
    return transaction.txn_id


def _session_commit(session, txn: int) -> int | None:
    transaction = session.resolve_txn(txn)
    try:
        # The commit LSN travels back to the client: replication-aware
        # sessions carry it as their read-your-writes watermark.
        return transaction.commit()
    finally:
        # Drop the table entry even when commit() raises — otherwise the
        # dead transaction lingers in the session table (and its locks
        # with it); release_txn aborts anything still ACTIVE.
        session.release_txn(txn)


def _session_abort(session, txn: int) -> None:
    transaction = session.resolve_txn(txn)
    try:
        transaction.abort()
    finally:
        session.release_txn(txn)


def _session_subscribe(session, events=None, predicate=None,
                       from_lsn=None) -> dict:
    return session.subscribe_feed(events=events, predicate=predicate,
                                  from_lsn=from_lsn)


def _session_unsubscribe(session, sub: int) -> bool:
    return session.unsubscribe_feed(sub)


def _session_subscription_status(session) -> dict:
    return session.subscription_feed_status()


# ======================================================================
# The vocabulary: every Appendix operation plus session/liveness calls.

REGISTRY = OperationRegistry()

_register = REGISTRY.register

# --- session / transactions ------------------------------------------
_register(Operation("ping", (), IDENTITY, kind="session",
                    session_invoke=_session_ping, idempotent=True,
                    read_only=True,
                    doc="Round-trip liveness and protocol handshake."))
_register(Operation("begin", (Param("read_only", default=False),),
                    IDENTITY, kind="session",
                    session_invoke=_session_begin, idempotent=True,
                    doc="Open a transaction on the server."))
_register(Operation("commit", (Param("txn"),), IDENTITY, kind="session",
                    session_invoke=_session_commit,
                    doc="Commit a transaction open on this session."))
_register(Operation("abort", (Param("txn"),), IDENTITY, kind="session",
                    session_invoke=_session_abort,
                    doc="Abort a transaction open on this session."))

# --- graph state ------------------------------------------------------
_register(Operation("project_id", (), IDENTITY, kind="ham_property",
                    doc="The served graph's ProjectId."))
_register(Operation("now", (), IDENTITY, kind="ham_property",
                    doc="The served graph's current logical time."))
_register(Operation("checkpoint", (), IDENTITY, mutates=True,
                    doc="Ask the server to snapshot and truncate its "
                        "log."))

# --- node / link lifecycle -------------------------------------------
_register(Operation(
    "add_node",
    (_txn_param(), Param("keep_history", default=True)),
    INT_PAIR, appendix_name="addNode", mutates=True,
    events=(EventKind.ADD_NODE,)))
_register(Operation(
    "delete_node",
    (_txn_param(), Param("node", kw_only=True)),
    IDENTITY, appendix_name="deleteNode", mutates=True,
    events=(EventKind.DELETE_NODE,)))
_register(Operation(
    "add_link",
    (_txn_param(), Param("from_pt", LINK_PT, kw_only=True),
     Param("to_pt", LINK_PT, kw_only=True)),
    INT_PAIR, appendix_name="addLink", mutates=True,
    events=(EventKind.ADD_LINK,)))
_register(Operation(
    "copy_link",
    (_txn_param(), Param("link", kw_only=True),
     Param("time", default=CURRENT, kw_only=True),
     Param("keep_source", default=True, kw_only=True),
     Param("other_pt", LINK_PT, kw_only=True)),
    INT_PAIR, appendix_name="copyLink", mutates=True,
    events=(EventKind.COPY_LINK,)))
_register(Operation(
    "delete_link",
    (_txn_param(), Param("link", kw_only=True)),
    IDENTITY, appendix_name="deleteLink", mutates=True,
    events=(EventKind.DELETE_LINK,)))

# --- node operations --------------------------------------------------
_register(Operation(
    "open_node",
    (Param("node"), Param("time", default=CURRENT),
     Param("attributes", INDEX_SEQ, default=()), _txn_param()),
    OPEN_NODE_RESULT, appendix_name="openNode",
    events=(EventKind.OPEN_NODE,)))
_register(Operation(
    "modify_node",
    (_txn_param(), Param("node", kw_only=True),
     Param("expected_time", kw_only=True),
     Param("contents", CONTENTS, kw_only=True),
     Param("attachments", ATTACHMENT_SEQ, default=None, kw_only=True),
     Param("explanation", default="", kw_only=True)),
    IDENTITY, appendix_name="modifyNode", mutates=True,
    events=(EventKind.MODIFY_NODE,)))
_register(Operation(
    "get_node_timestamp", (Param("node"), _txn_param()), IDENTITY,
    appendix_name="getNodeTimeStamp"))
_register(Operation(
    "change_node_protection",
    (_txn_param(), Param("node", kw_only=True),
     Param("protections", PROTECTION_BITS, kw_only=True)),
    IDENTITY, appendix_name="changeNodeProtection", mutates=True))
_register(Operation(
    "get_node_versions", (Param("node"),), VERSION_HISTORIES,
    appendix_name="getNodeVersions"))
_register(Operation(
    "get_node_differences",
    (Param("node"), Param("time1"), Param("time2")),
    DELTA_SCRIPT, appendix_name="getNodeDifferences"))

# --- link operations --------------------------------------------------
_register(Operation(
    "get_to_node", (Param("link"), Param("time", default=CURRENT)),
    INT_PAIR, appendix_name="getToNode"))
_register(Operation(
    "get_from_node", (Param("link"), Param("time", default=CURRENT)),
    INT_PAIR, appendix_name="getFromNode"))
# Not Appendix operations — columnar-core extensions, so they carry no
# appendix_name (the conformance suite pins that set to the paper).
_register(Operation(
    "links_from",
    (Param("node"), Param("time", default=CURRENT), _txn_param()),
    IDENTITY,
    doc="Indexes of links leaving ``node`` at ``time``, ascending; "
        "O(degree) via the link table's adjacency runs."))
_register(Operation(
    "links_to",
    (Param("node"), Param("time", default=CURRENT), _txn_param()),
    IDENTITY,
    doc="Indexes of links entering ``node`` at ``time``, ascending; "
        "O(degree) via the link table's adjacency runs."))

# --- attribute operations --------------------------------------------
_register(Operation(
    "get_attributes", (Param("time", default=CURRENT),), TUPLE_ROWS,
    appendix_name="getAttributes"))
_register(Operation(
    "get_attribute_index", (Param("name"), _txn_param()), IDENTITY,
    appendix_name="getAttributeIndex", mutates=True))
_register(Operation(
    "get_attribute_values",
    (Param("attribute"), Param("time", default=CURRENT)), IDENTITY,
    appendix_name="getAttributeValues"))
_register(Operation(
    "set_node_attribute_value",
    (_txn_param(), Param("node", kw_only=True),
     Param("attribute", kw_only=True), Param("value", kw_only=True)),
    IDENTITY, appendix_name="setNodeAttributeValue", mutates=True,
    events=(EventKind.SET_ATTRIBUTE,)))
_register(Operation(
    "delete_node_attribute",
    (_txn_param(), Param("node", kw_only=True),
     Param("attribute", kw_only=True)),
    IDENTITY, appendix_name="deleteNodeAttribute", mutates=True,
    events=(EventKind.DELETE_ATTRIBUTE,)))
_register(Operation(
    "get_node_attribute_value",
    (Param("node"), Param("attribute"), Param("time", default=CURRENT),
     _txn_param()),
    IDENTITY, appendix_name="getNodeAttributeValue"))
_register(Operation(
    "get_node_attributes",
    (Param("node"), Param("time", default=CURRENT)), TUPLE_ROWS,
    appendix_name="getNodeAttributes"))
_register(Operation(
    "set_link_attribute_value",
    (_txn_param(), Param("link", kw_only=True),
     Param("attribute", kw_only=True), Param("value", kw_only=True)),
    IDENTITY, appendix_name="setLinkAttributeValue", mutates=True))
_register(Operation(
    "delete_link_attribute",
    (_txn_param(), Param("link", kw_only=True),
     Param("attribute", kw_only=True)),
    IDENTITY, appendix_name="deleteLinkAttribute", mutates=True))
_register(Operation(
    "get_link_attribute_value",
    (Param("link"), Param("attribute"), Param("time", default=CURRENT)),
    IDENTITY, appendix_name="getLinkAttributeValue"))
_register(Operation(
    "get_link_attributes",
    (Param("link"), Param("time", default=CURRENT)), TUPLE_ROWS,
    appendix_name="getLinkAttributes"))

# --- demon operations -------------------------------------------------
_register(Operation(
    "set_graph_demon_value",
    (_txn_param(), Param("event", EVENT_KIND, kw_only=True),
     Param("demon", kw_only=True)),
    IDENTITY, appendix_name="setGraphDemonValue", mutates=True))
_register(Operation(
    "get_graph_demons", (Param("time", default=CURRENT),),
    DEMON_BINDINGS, appendix_name="getGraphDemons"))
_register(Operation(
    "set_node_demon",
    (_txn_param(), Param("node", kw_only=True),
     Param("event", EVENT_KIND, kw_only=True), Param("demon", kw_only=True)),
    IDENTITY, appendix_name="setNodeDemon", mutates=True))
_register(Operation(
    "get_node_demons",
    (Param("node"), Param("time", default=CURRENT)),
    DEMON_BINDINGS, appendix_name="getNodeDemons"))

# --- queries ----------------------------------------------------------
_register(Operation(
    "linearize_graph",
    (Param("start"), Param("time", default=CURRENT),
     Param("node_predicate", default=None),
     Param("link_predicate", default=None),
     Param("node_attributes", INDEX_SEQ, default=()),
     Param("link_attributes", INDEX_SEQ, default=()), _txn_param()),
    TRAVERSAL, appendix_name="linearizeGraph"))
_register(Operation(
    "get_graph_query",
    (Param("time", default=CURRENT),
     Param("node_predicate", default=None),
     Param("link_predicate", default=None),
     Param("node_attributes", INDEX_SEQ, default=()),
     Param("link_attributes", INDEX_SEQ, default=()), _txn_param()),
    QUERY, appendix_name="getGraphQuery"))
# Not an Appendix operation — a planner-era extension, so it carries no
# appendix_name (the conformance suite pins that set to the paper).
_register(Operation(
    "explain_query",
    (Param("time", default=CURRENT),
     Param("node_predicate", default=None),
     Param("link_predicate", default=None), _txn_param()),
    IDENTITY,
    doc="Render the access plan ``getGraphQuery`` would use."))

# --- replication ------------------------------------------------------
# Extension operations (no appendix_name): the log-shipping vocabulary
# of :mod:`repro.replication`.  All four ride the ordinary protocol, so
# a replica is just another client of the primary.
_register(Operation(
    "repl_status", (), IDENTITY,
    doc="This graph's replication role, LSN watermarks, and epoch."))
_register(Operation(
    "repl_subscribe",
    (Param("from_lsn"), Param("epoch"),
     Param("max_bytes", default=1 << 20),
     Param("wait", default=0.0),
     Param("ack", default=None),
     Param("subscriber", default=None)),
    IDENTITY,
    doc="Fetch durable log bytes from ``from_lsn`` (long-poll up to "
        "``wait`` seconds when caught up); ``ack`` reports the "
        "subscriber's replayed LSN back to the primary."))
_register(Operation(
    "repl_snapshot", (Param("have", default=None),), IDENTITY,
    doc="Bootstrap payload: an encoded store snapshot plus the LSN and "
        "epoch it covers.  Pass ``have`` (a list of content digests the "
        "caller already holds) to receive the manifest form: a stripped "
        "snapshot plus only the blobs missing from ``have``."))
_register(Operation(
    "repl_promote", (), IDENTITY, mutates=True, idempotent=True,
    doc="Promote this replica to primary (idempotent; a no-op on a "
        "graph that already accepts writes)."))

# --- change feeds -----------------------------------------------------
# Extension operations (no appendix_name): server-side subscriptions
# over the demon mechanism (see :mod:`repro.subscriptions`).  These are
# session operations — a subscription lives and dies with the session
# that registered it, and its push frames ride that session's socket.
_register(Operation(
    "subscribe",
    (Param("events", EVENT_KIND_SEQ, default=None),
     Param("predicate", default=None),
     Param("from_lsn", default=None)),
    IDENTITY, kind="session", session_invoke=_session_subscribe,
    doc="Register a change-feed watch on this session: matching "
        "committed events arrive as unsolicited push frames.  "
        "``from_lsn`` asks for replay of retained commits above it "
        "(resubscribe-after-reconnect); the reply says whether the "
        "stream is gap-free from there (``resync`` False) or not.  "
        "Not idempotent — a blind retry would double-subscribe."))
_register(Operation(
    "unsubscribe", (Param("sub"),), IDENTITY, kind="session",
    session_invoke=_session_unsubscribe, idempotent=True,
    doc="Cancel a change-feed watch; True when it was still attached."))
_register(Operation(
    "subscription_status", (), IDENTITY, kind="session",
    session_invoke=_session_subscription_status, idempotent=True,
    read_only=True,
    doc="Hub and per-session subscription counters and queue depths."))


# ======================================================================
# Middleware

class MiddlewareChain:
    """An ordered stack of interceptors around operation dispatch.

    A middleware is any callable ``middleware(operation, call_next)``
    where ``operation`` is the operation name and ``call_next`` is a
    zero-argument callable running the rest of the chain (ultimately the
    operation itself) and returning its result.  Middlewares time,
    count, log, or veto operations; they run in registration order.

    An empty chain is falsy, which is the fast path: dispatch wrappers
    skip the chain machinery entirely when no middleware is installed,
    keeping instrumentation off the hot path until it is asked for.
    """

    __slots__ = ("_stack", "_lock")

    def __init__(self):
        self._stack: list[Callable] = []
        self._lock = threading.Lock()

    def add(self, middleware: Callable) -> Callable:
        """Append ``middleware`` to the chain; returns it for chaining."""
        with self._lock:
            self._stack = self._stack + [middleware]
        return middleware

    def remove(self, middleware: Callable) -> None:
        """Remove a previously added middleware."""
        with self._lock:
            stack = list(self._stack)
            stack.remove(middleware)
            self._stack = stack

    def clear(self) -> None:
        with self._lock:
            self._stack = []

    def __bool__(self) -> bool:
        return bool(self._stack)

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self) -> Iterator[Callable]:
        return iter(self._stack)

    def run(self, operation: str, thunk: Callable[[], object]) -> object:
        """Run ``thunk`` through the chain under ``operation``'s name."""
        call = thunk
        for middleware in reversed(self._stack):
            call = functools.partial(middleware, operation, call)
        return call()


def _local_wrapper(operation_name: str, impl: Callable) -> Callable:
    @functools.wraps(impl)
    def wrapper(self, *args, **kwargs):
        chain = self.middleware
        if not chain:
            return impl(self, *args, **kwargs)
        return chain.run(operation_name,
                         lambda: impl(self, *args, **kwargs))

    wrapper.__ham_operation__ = operation_name
    return wrapper


def install_local_dispatch(cls, registry: OperationRegistry | None = None,
                           ) -> None:
    """Route ``cls``'s operation methods through its middleware chain.

    For every ``"ham"``-kind operation, the method named after the
    operation (and its Appendix camelCase alias, when one exists) is
    rebound to a wrapper that consults ``self.middleware`` — a
    :class:`MiddlewareChain` the class must provide.  Idempotent:
    already-wrapped methods are left alone.
    """
    registry = REGISTRY if registry is None else registry
    for operation in registry.ham_operations():
        impl = inspect.getattr_static(cls, operation.name, None)
        if impl is None:
            raise TypeError(
                f"{cls.__name__} does not implement {operation.name}")
        if getattr(impl, "__ham_operation__", None) == operation.name:
            continue  # already dispatching
        wrapper = _local_wrapper(operation.name, impl)
        setattr(cls, operation.name, wrapper)
        if operation.appendix_name:
            setattr(cls, operation.appendix_name, wrapper)


# ======================================================================
# Server-side: table-driven dispatch derived from the registry

def _param_decoder(operation: Operation) -> Callable:
    """Build the wire-params → local-kwargs decoder for one operation."""
    params = operation.params
    allowed = frozenset(p.name for p in params)
    resolve_txn_ids = operation.kind != "session"

    def decode(session, wire_params: dict) -> dict:
        unknown = set(wire_params) - allowed
        if unknown:
            raise ProtocolError(
                f"{operation.name}: unknown parameter(s) "
                f"{sorted(unknown)}")
        kwargs = {}
        for param in params:
            if param.is_txn and resolve_txn_ids:
                kwargs["txn"] = session.resolve_txn(wire_params.get("txn"))
                continue
            if param.name in wire_params:
                kwargs[param.name] = param.codec.from_wire(
                    wire_params[param.name])
            elif param.default is REQUIRED:
                raise ProtocolError(
                    f"{operation.name}: missing required parameter "
                    f"{param.name!r}")
        return kwargs

    return decode


def _server_handler(operation: Operation) -> Callable:
    """Build ``handler(session, wire_params) -> wire_result``."""
    encode_result = operation.result.to_wire
    if operation.kind == "ham_property":
        name = operation.name

        def property_handler(session, wire_params: dict):
            if wire_params:
                raise ProtocolError(f"{name} takes no parameters")
            return encode_result(getattr(session.ham, name))

        return property_handler

    decode = _param_decoder(operation)
    if operation.kind == "session":
        invoke = operation.session_invoke

        def session_handler(session, wire_params: dict):
            return encode_result(invoke(session, **decode(session,
                                                          wire_params)))

        return session_handler

    method_name = operation.name

    def ham_handler(session, wire_params: dict):
        kwargs = decode(session, wire_params)
        return encode_result(getattr(session.ham, method_name)(**kwargs))

    return ham_handler


def build_server_dispatch(registry: OperationRegistry | None = None,
                          ) -> dict[str, Callable]:
    """Derive the server's complete ``{method: handler}`` table."""
    registry = REGISTRY if registry is None else registry
    return {operation.name: _server_handler(operation)
            for operation in registry}


def read_only_methods(registry: OperationRegistry | None = None,
                      ) -> frozenset[str]:
    """Names of the operations a session may run concurrently.

    Everything else — mutations, session-state operations, and the host
    methods (which are not in the registry at all) — is ordered: the
    server runs it alone, in arrival order, per session.
    """
    registry = REGISTRY if registry is None else registry
    return frozenset(operation.name for operation in registry
                     if operation.read_only)


# ======================================================================
# Client-side: stubs derived from the registry

def operation_signature(operation: Operation,
                        include_self: bool = False) -> inspect.Signature:
    """The Python signature an operation's stub exposes."""
    parameters = []
    if include_self:
        parameters.append(inspect.Parameter(
            "self", inspect.Parameter.POSITIONAL_OR_KEYWORD))
    for param in operation.params:
        kind = (inspect.Parameter.KEYWORD_ONLY if param.kw_only
                else inspect.Parameter.POSITIONAL_OR_KEYWORD)
        default = (inspect.Parameter.empty
                   if param.default is REQUIRED else param.default)
        parameters.append(inspect.Parameter(param.name, kind,
                                            default=default))
    return inspect.Signature(parameters)


def make_client_stub(operation: Operation, invoke: Callable) -> Callable:
    """Build a stub method for ``operation``.

    ``invoke(self, operation, wire_params)`` performs (or queues) the
    call and returns the value the stub should return.  The stub is
    compiled once, the way :mod:`dataclasses` builds ``__init__``: a
    real function with the operation's own parameter list, whose body
    builds the wire mapping directly — Python's own argument binding
    raises the usual ``TypeError`` for a wrong call, and no per-call
    signature binding runs.
    """
    namespace = {"_operation": operation, "_invoke": invoke}
    positional, keyword, entries = ["self"], [], []
    for number, param in enumerate(operation.params):
        name = param.name
        spec = name
        if param.default is not REQUIRED:
            namespace[f"_default{number}"] = param.default
            spec = f"{name}=_default{number}"
        (keyword if param.kw_only else positional).append(spec)
        if param.is_txn:
            value = f"None if {name} is None else {name}.txn_id"
        elif param.codec.to_wire is _identity:
            value = name
        else:
            namespace[f"_to_wire{number}"] = param.codec.to_wire
            value = f"_to_wire{number}({name})"
        entries.append(f"{name!r}: {value}")
    arguments = ", ".join(positional + (["*"] + keyword if keyword else []))
    source = (f"def {operation.name}({arguments}):\n"
              f"    return _invoke(self, _operation, "
              f"{{{', '.join(entries)}}})\n")
    exec(source, namespace)
    stub = namespace[operation.name]
    stub.__doc__ = operation.doc
    stub.__signature__ = operation_signature(operation, include_self=True)
    stub.__ham_operation__ = operation.name
    return stub


def release_active(transaction) -> None:
    """Abort a transaction that is still ACTIVE (best effort).

    Shared by session cleanup paths: a transaction being dropped from a
    session table must not keep its locks.
    """
    if transaction is not None and transaction.status is TxnStatus.ACTIVE:
        try:
            transaction.abort()
        except NeptuneError:
            pass
