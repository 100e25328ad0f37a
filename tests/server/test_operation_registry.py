"""The declarative operation registry and everything derived from it.

Covers: registry completeness against the Appendix surface, the absence
of hand-written per-operation server handlers, middleware dispatch on
both local and RPC sessions (with `repro.tools.metrics`), batched RPC
over the pipeline (one write, per-entry errors, retry and loss
semantics), the protocol-version handshake,
the transaction-table leak regression, and error marshalling for every
exception type in `repro.errors`.
"""

import importlib.util
import inspect
import pathlib
import socket

import pytest

import repro.errors as errors_module
from repro import HAM, LinkPt
from repro.core.demons import EventKind
from repro.core.operations import (
    PROTOCOL_VERSION,
    REGISTRY,
    REQUIRED,
    MiddlewareChain,
    make_client_stub,
    operation_signature,
)
from repro.core.types import Protections
from repro.errors import (
    NeptuneError,
    NodeNotFoundError,
    ProtocolError,
    RemoteError,
    RetryableError,
)
from repro.server import HAMServer, RemoteHAM
from repro.server.client import RetryPolicy
from repro.server.server import _DISPATCH, _Session
from repro.testing import faults
from repro.tools.metrics import OperationMetrics, TraceLog


def _load_conformance_module():
    """The Appendix operation list lives in the conformance test."""
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "core" / "test_appendix_conformance.py")
    spec = importlib.util.spec_from_file_location(
        "_appendix_conformance_source", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_conformance = _load_conformance_module()
APPENDIX_OPERATIONS = _conformance.APPENDIX_OPERATIONS
_snake = _conformance._snake


@pytest.fixture
def served():
    ham = HAM.ephemeral()
    server = HAMServer(ham).start()
    client = RemoteHAM(*server.address)
    yield ham, server, client
    client.close()
    server.stop()


# ======================================================================
# Registry shape

class TestRegistryCoverage:
    def test_every_remote_appendix_operation_is_registered(self):
        remote_surface = {
            _snake(name) for name in APPENDIX_OPERATIONS
            if name not in ("createGraph", "destroyGraph", "openGraph")
        }
        missing = remote_surface - set(REGISTRY.names())
        assert not missing, f"registry is missing {sorted(missing)}"

    def test_registry_appendix_names_match_the_spec(self):
        declared = {op.appendix_name for op in REGISTRY if op.appendix_name}
        expected = {
            name for name in APPENDIX_OPERATIONS
            if name not in ("createGraph", "destroyGraph", "openGraph")
        }
        assert declared == expected

    def test_server_has_no_per_operation_handlers(self):
        """The whole wire surface is table-driven from the registry."""
        leftovers = [name for name in vars(_Session)
                     if name.startswith("_op_")]
        assert leftovers == []

    def test_dispatch_table_covers_the_registry(self):
        assert set(_DISPATCH) == set(REGISTRY.names())

    def test_client_stubs_are_generated_not_written(self):
        for operation in REGISTRY:
            if operation.kind != "ham":
                continue
            attr = inspect.getattr_static(RemoteHAM, operation.name)
            assert getattr(attr, "__ham_operation__", None) \
                == operation.name, \
                f"RemoteHAM.{operation.name} is not registry-generated"

    def test_stub_signatures_match_declarations(self):
        stub = inspect.getattr_static(RemoteHAM, "modify_node")
        parameters = inspect.signature(stub).parameters
        assert list(parameters) == ["self", "txn", "node", "expected_time",
                                    "contents", "attachments",
                                    "explanation"]
        assert parameters["node"].kind is inspect.Parameter.KEYWORD_ONLY


# ======================================================================
# Compiled client stubs against the bind-based encoding they replace

def _bind_reference(operation, args, kwargs):
    """The stub body before stubs were compiled: bind the call against
    the declared signature, apply defaults, encode in declared order."""
    bound = operation_signature(operation).bind(*args, **kwargs)
    bound.apply_defaults()
    wire_params = {}
    for param in operation.params:
        value = bound.arguments[param.name]
        if param.is_txn:
            wire_params["txn"] = None if value is None else value.txn_id
        else:
            wire_params[param.name] = param.codec.to_wire(value)
    return wire_params


class _Txn:
    txn_id = 41


#: One argument per codec a parameter uses (identity: a plain int).
_SAMPLES = {
    "contents": bytearray(b"line one\n"),
    "protections": Protections.READ,
    "event-kind": EventKind.MODIFY_NODE,
    "event-kind-seq": (EventKind.MODIFY_NODE, EventKind.ADD_NODE),
    "link-pt": LinkPt(node=3, position=2),
    "index-seq": (4, 5),
    "attachments": ((7, "from", 9),),
}


def _stub_calls(operation):
    """(args, kwargs) pairs: required-only by keyword, everything
    supplied (positional where the signature allows), and ``txn=``."""
    def sample(param, plain):
        return _Txn() if param.is_txn else _SAMPLES.get(param.codec.name,
                                                         plain)

    required = {p.name: sample(p, 7)
                for p in operation.params if p.default is REQUIRED}
    calls = [((), dict(required))]
    args, kwargs = [], {}
    for param in operation.params:
        value = sample(param, 11)
        if param.kw_only:
            kwargs[param.name] = value
        else:
            args.append(value)
    calls.append((tuple(args), kwargs))
    if operation.transactional:
        calls.append(((), dict(required, txn=_Txn())))
    return calls


class TestCompiledStubs:
    @staticmethod
    def _capture(operation):
        return make_client_stub(
            operation, lambda self, op, wire_params: (op, wire_params))

    def test_signatures_unchanged_for_every_operation(self):
        for operation in REGISTRY:
            stub = self._capture(operation)
            assert inspect.signature(stub) == operation_signature(
                operation, include_self=True), operation.name
            assert stub.__name__ == operation.name
            assert stub.__doc__ == operation.doc

    def test_wire_params_equal_the_bind_encoding(self):
        checked = 0
        for operation in REGISTRY:
            stub = self._capture(operation)
            for args, kwargs in _stub_calls(operation):
                op, wire_params = stub(None, *args, **kwargs)
                assert op is operation
                reference = _bind_reference(operation, args, kwargs)
                assert wire_params == reference, operation.name
                assert ([(k, type(v)) for k, v in wire_params.items()]
                        == [(k, type(v)) for k, v in reference.items()])
                checked += 1
        assert checked > 2 * len(REGISTRY)

    def test_defaults_are_the_declared_objects(self):
        stub = self._capture(REGISTRY.get("open_node"))
        __, wire_params = stub(None, 5)
        assert wire_params == {"node": 5, "time": 0, "attributes": [],
                               "txn": None}
        __, wire_params = stub(None, 5, 3, (1, 2), _Txn())
        assert wire_params == {"node": 5, "time": 3, "attributes": [1, 2],
                               "txn": 41}

    def test_wrong_calls_raise_type_error(self):
        modify = self._capture(REGISTRY.get("modify_node"))
        open_node = self._capture(REGISTRY.get("open_node"))
        with pytest.raises(TypeError):
            modify(None, node=1, expected_time=2)  # contents missing
        with pytest.raises(TypeError):
            modify(None, None, 1, 2, b"x")  # keyword-only as positional
        with pytest.raises(TypeError):
            open_node(None)
        with pytest.raises(TypeError):
            open_node(None, 1, node=1)
        with pytest.raises(TypeError):
            open_node(None, 1, bogus=True)
        with pytest.raises(TypeError):
            open_node(None, 1, 2, (), None, "extra")

    def test_remote_stubs_reject_wrong_calls_before_the_wire(self):
        ham = HAM.ephemeral()
        with HAMServer(ham) as server:
            client = RemoteHAM(*server.address)
            try:
                with pytest.raises(TypeError):
                    client.open_node()
                node, time = client.add_node()
                assert client.open_node(node)[3] == time
            finally:
                client.close()


# ======================================================================
# Middleware dispatch (local and RPC)

class TestMiddleware:
    def test_local_operations_flow_through_the_chain(self):
        ham = HAM.ephemeral()
        seen = []
        ham.middleware.add(lambda op, call_next: (seen.append(op),
                                                  call_next())[1])
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"x")
        ham.open_node(node)
        assert seen[:3] == ["add_node", "modify_node", "open_node"]

    def test_camel_case_aliases_dispatch_too(self):
        ham = HAM.ephemeral()
        seen = []
        ham.middleware.add(lambda op, call_next: (seen.append(op),
                                                  call_next())[1])
        ham.addNode()
        assert seen == ["add_node"]

    def test_chain_runs_in_registration_order(self):
        ham = HAM.ephemeral()
        order = []

        def outer(op, call_next):
            order.append("outer-in")
            result = call_next()
            order.append("outer-out")
            return result

        def inner(op, call_next):
            order.append("inner")
            return call_next()

        ham.middleware.add(outer)
        ham.middleware.add(inner)
        ham.add_node()
        assert order == ["outer-in", "inner", "outer-out"]

    def test_remove_and_clear(self):
        ham = HAM.ephemeral()
        seen = []
        middleware = ham.middleware.add(
            lambda op, call_next: (seen.append(op), call_next())[1])
        ham.add_node()
        ham.middleware.remove(middleware)
        ham.add_node()
        assert seen == ["add_node"]
        assert not ham.middleware

    def test_rpc_operations_flow_through_the_client_chain(self, served):
        __, ___, client = served
        seen = []
        client.middleware.add(lambda op, call_next: (seen.append(op),
                                                     call_next())[1])
        node, time = client.add_node()
        client.open_node(node)
        assert seen == ["add_node", "open_node"]


class TestOperationMetrics:
    def test_local_counts_and_percentiles(self):
        ham = HAM.ephemeral()
        metrics = OperationMetrics()
        ham.middleware.add(metrics)
        node, time = ham.add_node()
        for sequence in range(5):
            time = ham.modify_node(node=node, expected_time=time,
                                   contents=f"v{sequence}".encode())
        snap = metrics.snapshot()
        assert snap["add_node"]["count"] == 1
        assert snap["modify_node"]["count"] == 5
        row = snap["modify_node"]
        assert 0.0 <= row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"]
        assert row["p99_ms"] <= row["max_ms"]
        assert row["errors"] == 0
        assert "modify_node" in metrics.report()

    def test_errors_are_counted_and_re_raised(self):
        ham = HAM.ephemeral()
        metrics = OperationMetrics()
        ham.middleware.add(metrics)
        with pytest.raises(NodeNotFoundError):
            ham.open_node(999)
        assert metrics.snapshot()["open_node"]["errors"] == 1

    def test_rpc_session_metrics(self, served):
        __, ___, client = served
        metrics = OperationMetrics()
        client.middleware.add(metrics)
        node, time = client.add_node()
        client.modify_node(node=node, expected_time=time, contents=b"x")
        with client.batch() as batch:
            batch.get_node_timestamp(node)
            batch.get_node_timestamp(node)
        # A batch is pipelined requests, which the client chain does not
        # see (the server-side HAM chain counts each entry).
        assert metrics.counts() == {"add_node": 1, "modify_node": 1}

    def test_server_side_ham_observes_every_session(self, served):
        ham, ___, client = served
        metrics = OperationMetrics()
        ham.middleware.add(metrics)
        client.add_node()
        client.add_node()
        assert metrics.counts()["add_node"] == 2

    def test_trace_log_records_entries(self):
        ham = HAM.ephemeral()
        lines = []
        trace = TraceLog(sink=lines.append)
        ham.middleware.add(trace)
        ham.add_node()
        assert [entry[0] for entry in trace.entries] == ["add_node"]
        assert trace.entries[0][2] is True
        assert lines and lines[0].startswith("add_node ")


# ======================================================================
# Batched RPC

class _CountingSocket:
    """Socket proxy counting writes (``send`` and ``sendall`` calls)."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = 0

    def send(self, data):
        self.writes += 1
        return self._sock.send(data)

    def sendall(self, data):
        self.writes += 1
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestBatchedRpc:
    def test_three_mutations_one_write(self, served):
        ham, ___, client = served
        counting = _CountingSocket(client._sock)
        client._sock = counting
        with client.batch() as batch:
            first = batch.add_node()
            second = batch.add_node()
            third = batch.add_node()
            assert counting.writes == 0  # queued until the block exits
        assert counting.writes == 1  # 3 mutations, exactly 1 write
        nodes = {future.result()[0] for future in (first, second, third)}
        assert len(nodes) == 3
        for node in nodes:  # all three mutations really happened
            assert ham.get_node_timestamp(node) > 0

    def test_results_decode_through_codecs(self, served):
        __, ___, client = served
        a, __ = client.add_node()
        b, __ = client.add_node()
        with client.batch() as batch:
            linked = batch.add_link(from_pt=LinkPt(a, position=2),
                                    to_pt=LinkPt(b))
            stamp = batch.get_node_timestamp(a)
        link, link_time = linked.result()
        assert isinstance(link, int) and isinstance(link_time, int)
        assert client.get_from_node(link)[0] == a
        assert stamp.result() == client.get_node_timestamp(a)

    def test_per_entry_errors_do_not_stop_the_batch(self, served):
        __, ___, client = served
        with client.batch() as batch:
            good = batch.add_node()
            bad = batch.open_node(999)
            also_good = batch.add_node()
        assert good.result()
        assert also_good.result()
        with pytest.raises(NodeNotFoundError):
            bad.result()

    def test_unflushed_future_refuses_result(self, served):
        __, ___, client = served
        batch = client.batch()
        future = batch.add_node()
        with pytest.raises(ProtocolError):
            future.result()
        batch.flush()
        assert future.result()

    def test_body_exception_discards_the_queue(self, served):
        ham, ___, client = served
        metrics = OperationMetrics()
        ham.middleware.add(metrics)
        with pytest.raises(RuntimeError):
            with client.batch() as batch:
                batch.add_node()
                raise RuntimeError("abandon")
        assert len(batch) == 0
        assert metrics.counts() == {}  # nothing reached the server

    def test_transactional_batch(self, served):
        __, ___, client = served
        txn = client.begin()
        with client.batch() as batch:
            first = batch.add_node(txn)
            second = batch.add_node(txn)
        txn.commit()
        for future in (first, second):
            node, __time = future.result()
            assert client.get_node_timestamp(node) > 0

    def test_connect_failure_retries_under_the_policy(self, served,
                                                      monkeypatch):
        ham, ___, client = served
        client.retry = RetryPolicy(backoff_base=0.001, backoff_cap=0.01,
                                   seed=1)
        with client._lock:
            client._teardown_locked()  # as after a lost connection
        connect = socket.create_connection
        refused = []

        def refuse_once(*args, **kwargs):
            if not refused:
                refused.append(args)
                raise ConnectionRefusedError("server restarting")
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", refuse_once)
        with client.batch() as batch:
            future = batch.add_node()
        node, __ = future.result()
        assert ham.get_node_timestamp(node) > 0
        assert refused and client.retries == 1 and client.reconnects == 1

    def test_connection_lost_after_sending_raises_retryable(self, served):
        ham, ___, client = served
        before = len(ham.store.nodes)
        plan = faults.FaultPlan(specs=(
            faults.FaultSpec("server.send", "raise"),))
        with faults.injected(plan):
            with pytest.raises(RetryableError):
                with client.batch() as batch:
                    lost = batch.add_node()
        # The server ran the entry; the client refuses to re-send it.
        assert len(ham.store.nodes) == before + 1
        assert client.retries == 0
        with pytest.raises(ConnectionError):
            lost.result()
        assert client.add_node()  # the next call reconnects


# ======================================================================
# Protocol handshake

class TestProtocolHandshake:
    def test_connect_records_server_info(self, served):
        __, ___, client = served
        assert client.server_info["protocol"] == PROTOCOL_VERSION

    def test_ping_reports_protocol(self, served):
        __, ___, client = served
        assert client.ping()
        reply = client._call("ping")
        assert reply["protocol"] == PROTOCOL_VERSION

    def test_version_mismatch_raises_clearly(self, served, monkeypatch):
        __, server, ___ = served
        import repro.server.server as server_module
        monkeypatch.setitem(
            server_module._DISPATCH, "ping",
            lambda session, params: {"pong": True, "protocol": 99})
        with pytest.raises(ProtocolError, match="version mismatch"):
            RemoteHAM(*server.address)

    def test_legacy_pong_reply_is_a_version_mismatch(self, served,
                                                     monkeypatch):
        __, server, ___ = served
        import repro.server.server as server_module
        monkeypatch.setitem(server_module._DISPATCH, "ping",
                            lambda session, params: "pong")
        with pytest.raises(ProtocolError, match="version 1"):
            RemoteHAM(*server.address)

    def test_handshake_can_be_skipped(self, served):
        __, server, ___ = served
        client = RemoteHAM(*server.address, handshake=False)
        try:
            assert client.server_info is None
            assert client.get_attribute_index("late") >= 0
        finally:
            client.close()


# ======================================================================
# Transaction-table hygiene (the _op_commit/_op_abort leak)

class TestTransactionTableRelease:
    def test_failed_commit_still_releases_the_table_entry(
            self, served, monkeypatch):
        __, ___, client = served
        from repro.txn.manager import Transaction

        def explode(self):
            raise RuntimeError("synthetic commit failure")

        txn = client.begin()
        client.add_node(txn)
        monkeypatch.setattr(Transaction, "commit", explode)
        with pytest.raises(RemoteError):
            client._call("commit", txn=txn.txn_id)
        monkeypatch.undo()
        # The dead transaction must be gone from the session table:
        # finishing it again is a ProtocolError, not a second attempt.
        with pytest.raises(ProtocolError):
            client._call("abort", txn=txn.txn_id)

    def test_failed_commit_aborts_the_leftover_transaction(
            self, served, monkeypatch):
        ham, ___, client = served
        from repro.txn.manager import Transaction

        def explode(self):
            raise RuntimeError("synthetic commit failure")

        txn = client.begin()
        node, __ = client.add_node(txn)
        monkeypatch.setattr(Transaction, "commit", explode)
        with pytest.raises(RemoteError):
            client._call("commit", txn=txn.txn_id)
        monkeypatch.undo()
        # Released-but-active transactions are aborted, so their work
        # (and locks) do not linger.
        with pytest.raises(NodeNotFoundError):
            ham.open_node(node)

    def test_failed_abort_still_releases_the_table_entry(
            self, served, monkeypatch):
        __, ___, client = served
        from repro.txn.manager import Transaction

        original = Transaction.abort
        calls = {"count": 0}

        def explode_once(self):
            if calls["count"] == 0:
                calls["count"] += 1
                raise RuntimeError("synthetic abort failure")
            return original(self)

        txn = client.begin()
        client.add_node(txn)
        monkeypatch.setattr(Transaction, "abort", explode_once)
        with pytest.raises(RemoteError):
            client._call("abort", txn=txn.txn_id)
        monkeypatch.undo()
        with pytest.raises(ProtocolError):
            client._call("commit", txn=txn.txn_id)


# ======================================================================
# Error marshalling: every exception type survives the wire

def _public_error_types():
    found = []
    for name in sorted(vars(errors_module)):
        obj = getattr(errors_module, name)
        if (isinstance(obj, type) and issubclass(obj, NeptuneError)
                and obj is not RemoteError):
            found.append(obj)
    return found


class TestErrorMarshalling:
    @pytest.mark.parametrize("exc_type", _public_error_types(),
                             ids=lambda t: t.__name__)
    def test_every_error_type_round_trips(self, served, exc_type):
        ham, ___, client = served

        def explode(node, txn=None, _exc_type=exc_type):
            raise _exc_type("synthetic failure")

        ham.get_node_timestamp = explode
        try:
            with pytest.raises(exc_type) as caught:
                client.get_node_timestamp(1)
        finally:
            del ham.get_node_timestamp
        assert "synthetic failure" in str(caught.value)
        assert type(caught.value) is exc_type

    def test_unknown_error_type_becomes_remote_error(self, served):
        ham, ___, client = served

        def explode(node, txn=None):
            raise RuntimeError("not a neptune error")

        ham.get_node_timestamp = explode
        try:
            with pytest.raises(RemoteError) as caught:
                client.get_node_timestamp(1)
        finally:
            del ham.get_node_timestamp
        assert caught.value.remote_type == "RuntimeError"

    def test_errors_round_trip_inside_batches(self, served):
        __, ___, client = served
        with client.batch() as batch:
            missing = batch.get_node_timestamp(424242)
        with pytest.raises(NodeNotFoundError):
            missing.result()


# ======================================================================
# Wire hygiene of the derived dispatcher

class TestDerivedDispatcher:
    def test_unknown_parameters_are_rejected(self, served):
        __, ___, client = served
        with pytest.raises(ProtocolError, match="unknown parameter"):
            client._call("add_node", txn=None, keep_history=True,
                         bogus=1)

    def test_missing_required_parameters_are_rejected(self, served):
        __, ___, client = served
        with pytest.raises(ProtocolError, match="missing required"):
            client._call("open_node")

    def test_omitted_optional_parameters_use_defaults(self, served):
        __, ___, client = served
        node, __ = client.add_node()
        # Bare wire call without time/attributes/txn: defaults apply.
        contents, link_points, values, current = \
            client._call("open_node", node=node)
        assert values == []

    def test_property_operations_take_no_parameters(self, served):
        __, ___, client = served
        with pytest.raises(ProtocolError):
            client._call("now", bogus=1)

    def test_unknown_method_still_rejected(self, served):
        __, ___, client = served
        with pytest.raises(ProtocolError, match="unknown method"):
            client._call("no_such_operation")
