"""Per-layer spans, taken from outside the program.

``install`` rebinds a fixed table of layer entry points in ``src/repro``
to timing wrappers without editing a line there: class methods by
``setattr`` on the class, module functions by rebinding every
``sys.modules`` attribute that *is* the original (``from x import f``
leaves a reference in each importing module).  A span records its
layer-qualified name, start, end, parent (a per-thread stack) and the
request id of the dispatch span above it.  Spans stay in memory until
the run ends.

A layer's *self time* is the time inside its spans that no child span
covers; summed over layers it can be set against the end-to-end latency
of the same requests (``trace.reconcile_ratio``).

Spans *inside* the program (ROADMAP item 2) are a later change; this
file is what the benchmark needs until then.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from bisect import bisect_right
from time import perf_counter

__all__ = ["Tracer", "install", "layer_times", "load_spans", "TARGETS",
           "WAIT_SPAN"]

#: The span around a blocking socket read: time spent waiting for the
#: other process, which belongs to no layer of this one.
WAIT_SPAN = "wire.wait"

#: (module, class or None, attribute, span name).  The layer is the part
#: of the span name before the first dot.
TARGETS = (
    ("repro.storage.log", "WriteAheadLog", "append_many", "log.append"),
    ("repro.storage.log", "WriteAheadLog", "force_up_to", "log.fsync"),
    ("repro.txn.manager", "TransactionManager", "finish_commit",
     "txn.finish_commit"),
    ("repro.txn.writeset", "WriteSet", "apply", "writeset.apply"),
    ("repro.txn.locks", "LockManager", "acquire", "locks.acquire"),
    ("repro.storage.deltas", "DeltaStore", "check_in", "deltas.check_in"),
    ("repro.storage.deltas", "_CachedChain", "_read", "deltas.get"),
    ("repro.storage.diff", None, "apply_differences_bytes", "deltas.step"),
    ("repro.storage.cas", "BlobCatalog", "intern", "cas.intern"),
    ("repro.storage.blockcache", "BlockCache", "get", "blockcache.get"),
    ("repro.storage.blockcache", "BlockCache", "put", "blockcache.put"),
    ("repro.subscriptions", "SubscriptionHub", "stage",
     "subscriptions.stage"),
    ("repro.subscriptions", "SubscriptionHub", "seal",
     "subscriptions.seal"),
    ("repro.server.server", "_Session", "_push_frame",
     "subscriptions.deliver"),
    ("repro.core.ham", "HAM", "checkpoint", "checkpoint.run"),
    ("repro.core.graph", "GraphDirectory", "append_snapshot",
     "checkpoint.snapshot"),
    ("repro.storage.heap", "RecordHeap", "append", "checkpoint.write"),
    ("repro.storage.heap", "RecordHeap", "sync", "checkpoint.write"),
    ("repro.core.graph", "GraphDirectory", "load_snapshot",
     "recovery.snapshot_load"),
    ("repro.txn.recovery", None, "replay_log", "recovery.replay"),
    ("repro.server.server", "HAMServer", "_execute_task",
     "server.execute"),
    ("repro.storage.log", "WriteAheadLog", "read_durable",
     "replication.ship"),
    ("repro.replication.hub", "ReplicationHub", "_gate",
     "replication.ack_wait"),
    ("repro.replication.replica", "Replica", "_ingest",
     "replication.replay"),
    ("repro.storage.serializer", None, "encode_value",
     "serializer.encode"),
    ("repro.storage.serializer", None, "decode_value",
     "serializer.decode"),
    ("repro.server.protocol", None, "encode_message", "protocol.encode"),
    ("repro.server.protocol", "FrameDecoder", "feed", "protocol.feed"),
    ("repro.server.protocol", None, "read_message", "protocol.read"),
    ("repro.server.protocol", None, "_read_exact", WAIT_SPAN),
    ("repro.storage.diff", None, "diff_lines", "diff.lines"),
    ("repro.storage.diff", None, "diff_bytes", "diff.bytes"),
    ("repro.query.planner", None, "plan_query", "planner.plan"),
    ("repro.query.traversal", None, "linearize_graph",
     "traversal.linearize"),
    ("repro.server.client", "RemoteHAM", "_call", "client.call"),
    ("repro.server.client", "RemotePipeline", "_issue", "client.issue"),
    ("repro.server.client", "RemotePipeline", "_pump", "client.pump"),
)

#: Driver only: the pipeline's blocking wait for replies.
CLIENT_TARGETS = (
    ("select", None, "select", WAIT_SPAN),
)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, tag: str) -> None:
        #: Which process the spans came from ("driver" or "server").
        self.tag = tag
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: Named counts that no CounterSet of the program carries.
        self.counts: dict[str, int] = {}
        #: id(request dict) -> when the I/O thread finished decoding it.
        self.arrivals: dict[int, float] = {}
        self.queue_wait = 0.0

    def wrap(self, function, name: str, request_of=None):
        """``function`` timed as a span called ``name``.  The request id
        is inherited from the enclosing span unless ``request_of``
        (called with the arguments) names a new one."""
        spans = self.spans
        local = self._local
        ids = self._ids

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent, request = stack[-1] if stack else (0, 0)
            if request_of is not None:
                request = request_of(*args)
            stack.append((span_id, request))
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, start, end, parent, span_id, request))

        traced.__wrapped__ = function
        return traced

    def wrap_sized(self, function, name: str, size):
        """Also add ``size(args, result)`` bytes to ``serializer.bytes``."""
        inner = self.wrap(function, name)
        counts = self.counts

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            counts["serializer.bytes"] = (
                counts.get("serializer.bytes", 0) + size(args, result))
            return result

        traced.__wrapped__ = function
        return traced

    def wrap_dispatch(self, function):
        """``HAMServer._execute_task``: the server's dispatch span.  It
        names the request (so every span below shares its id) and
        closes the request's wait in the session queue."""
        arrivals = self.arrivals

        def request_of(server, session, requests):
            now = perf_counter()
            request = 0
            for message in requests:
                arrived = arrivals.pop(id(message), None)
                if arrived is not None:
                    self.queue_wait += now - arrived
                if isinstance(message, dict):
                    request = message.get("id") or request
            return request

        return self.wrap(function, "server.execute", request_of)

    def wrap_feed(self, function):
        """``FrameDecoder.feed``: note when each request was decoded."""
        inner = self.wrap(function, "protocol.feed")
        arrivals = self.arrivals

        def traced(decoder, data):
            messages = inner(decoder, data)
            now = perf_counter()
            for message in messages:
                arrivals[id(message)] = now
            return messages

        traced.__wrapped__ = function
        return traced

    def wrap_replay(self, function):
        """``replay_log``: also count the records recovery replays."""
        inner = self.wrap(function, "recovery.replay")

        def traced(*args, **kwargs):
            state = inner(*args, **kwargs)
            self.counts["recovery.records_replayed"] = len(state.updates)
            return state

        traced.__wrapped__ = function
        return traced

    def dump(self, path: str) -> int:
        """Append this process's spans to ``path`` as JSON lines."""
        spans = list(self.spans)
        with open(path, "a", encoding="utf-8") as out:
            for name, start, end, parent, span_id, request in spans:
                out.write(json.dumps(
                    [self.tag, name, start, end, parent, span_id,
                     request]) + "\n")
        return len(spans)


def _rebind_everywhere(original, replacement) -> None:
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__",
                                        "").startswith("repro"):
            continue
        for attribute, value in list(namespace.items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer, client_side: bool = False) -> None:
    """Rebind every entry point in :data:`TARGETS`, and the registered
    HAM operations, to wrappers recording into ``tracer``."""
    import importlib

    from repro.core.ham import HAM
    from repro.core.operations import REGISTRY

    special = {
        "_execute_task": tracer.wrap_dispatch,
        "feed": tracer.wrap_feed,
        "replay_log": tracer.wrap_replay,
        "encode_value": lambda function: tracer.wrap_sized(
            function, "serializer.encode",
            lambda args, result: len(result)),
        "decode_value": lambda function: tracer.wrap_sized(
            function, "serializer.decode",
            lambda args, result: len(args[0])),
    }
    targets = TARGETS + (CLIENT_TARGETS if client_side else ())
    for module_name, class_name, attribute, name in targets:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module,
                                                          class_name)
        original = owner.__dict__[attribute]
        if attribute in special:
            replacement = special[attribute](original)
        else:
            replacement = tracer.wrap(original, name)
        setattr(owner, attribute, replacement)
        if class_name is None:
            _rebind_everywhere(original, replacement)
    for operation in REGISTRY.ham_operations():
        original = HAM.__dict__[operation.name]
        # A replica's long-poll parks inside replSubscribe until the
        # primary has something to ship: waiting, not HAM work.
        name = (WAIT_SPAN if operation.name == "repl_subscribe"
                else f"ham.{operation.name}")
        replacement = tracer.wrap(original, name)
        for alias in (operation.name, operation.appendix_name):
            if alias and HAM.__dict__.get(alias) is original:
                setattr(HAM, alias, replacement)


# ----------------------------------------------------------------------
# analysis

def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as source:
        return [tuple(json.loads(line)) for line in source if line.strip()]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_times(spans, within=None):
    """``(self seconds, total seconds, calls)`` per span name.

    ``spans`` are ``(tag, name, start, end, parent, id, request)``;
    parents are looked up per tag (span ids restart in each process).
    A span's self time is its duration minus the part of it its child
    spans cover.  ``within`` — sorted, disjoint ``(start, end)``
    intervals — keeps only spans that start inside one of them.
    """
    children: dict[tuple, list[tuple[float, float]]] = {}
    for tag, __, start, end, parent, ___, ____ in spans:
        if parent:
            children.setdefault((tag, parent), []).append((start, end))
    starts = [interval[0] for interval in within] if within else None
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for tag, name, start, end, __, span_id, ___ in spans:
        if starts is not None:
            position = bisect_right(starts, start) - 1
            if position < 0 or start > within[position][1]:
                continue
        inside = [(max(start, s), min(end, e))
                  for s, e in children.get((tag, span_id), ())
                  if e > start and s < end]
        duration = end - start
        self_s[name] = self_s.get(name, 0.0) + duration - _covered(inside)
        total_s[name] = total_s.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
    return self_s, total_s, calls
