"""Whole-snapshot phases pause the cyclic GC and always restore it.

Snapshot load and save pause the collector (see
:func:`repro.storage.serializer.gc_paused`); whatever happens inside —
success, a corrupt heap, a failed bootstrap — the caller must get back
exactly the collector state it had, including "disabled".
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.core.graph import GraphDirectory, GraphStore
from repro.core.ham import HAM
from repro.errors import RecoveryError, StorageError
from repro.replication.replica import Replica
from repro.storage import serializer
from repro.storage.serializer import RECORD_HEADER, gc_paused


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """Run the test with the collector enabled, then disabled."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()
    assert serializer._gc_pauses == 0, "a pause outlived its phase"


def _graph(tmp_path, nodes=3):
    path = tmp_path / "graph"
    project_id, __ = HAM.create_graph(path)
    with HAM.open_graph(project_id, path) as ham:
        for n in range(nodes):
            node, t = ham.add_node()
            ham.modify_node(node=node, expected_time=t,
                            contents=f"body {n}\n".encode())
    return project_id, path


def _corrupt_newest_snapshot(path):
    graph_dir = GraphDirectory(path)
    record_id = graph_dir.read_meta()["snapshot"]
    with open(graph_dir.snapshots_path, "r+b") as handle:
        handle.seek(record_id + RECORD_HEADER.size + 3)
        byte = handle.read(1)
        handle.seek(-1, 1)
        handle.write(bytes((byte[0] ^ 0xFF,)))


class TestGcPaused:
    def test_restores_state(self, gc_state):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is gc_state

    def test_restores_state_on_exception(self, gc_state):
        with pytest.raises(ValueError):
            with gc_paused():
                raise ValueError("boom")
        assert gc.isenabled() is gc_state

    def test_nested_pauses_restore_once(self, gc_state):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is gc_state

    def test_overlapping_pauses_across_threads(self, gc_state):
        # This thread leaves while the other is still inside: the
        # collector stays paused for it and returns only when it leaves.
        other_inside, we_left = threading.Event(), threading.Event()
        seen = []

        def other():
            with gc_paused():
                other_inside.set()
                we_left.wait(5.0)
                seen.append(gc.isenabled())

        with gc_paused():
            worker = threading.Thread(target=other)
            worker.start()
            assert other_inside.wait(5.0)
        we_left.set()
        worker.join(5.0)
        assert seen == [False]
        assert gc.isenabled() is gc_state


class TestSnapshotPhasesRestoreGc:
    def test_open_graph(self, tmp_path, gc_state):
        project_id, path = _graph(tmp_path)
        with HAM.open_graph(project_id, path) as ham:
            assert gc.isenabled() is gc_state
            assert len(ham.store.nodes) == 3

    def test_open_graph_failing_on_corrupt_snapshot(self, tmp_path,
                                                    gc_state):
        project_id, path = _graph(tmp_path)
        _corrupt_newest_snapshot(path)
        with pytest.raises(RecoveryError):
            HAM.open_graph(project_id, path)
        assert gc.isenabled() is gc_state

    def test_checkpoint(self, tmp_path, gc_state):
        project_id, path = _graph(tmp_path)
        with HAM.open_graph(project_id, path) as ham:
            ham.add_node()
            ham.checkpoint()
            assert gc.isenabled() is gc_state

    def test_checkpoint_failing_to_encode(self, tmp_path, gc_state,
                                          monkeypatch):
        project_id, path = _graph(tmp_path)
        with HAM.open_graph(project_id, path) as ham:
            monkeypatch.setattr(GraphStore, "to_snapshot",
                                lambda store: {"bad": object()})
            with pytest.raises(StorageError):
                ham.checkpoint()
            assert gc.isenabled() is gc_state
            monkeypatch.undo()

    def test_replica_bootstrap(self, tmp_path, gc_state):
        project_id, path = _graph(tmp_path)
        with HAM.open_graph(project_id, path) as primary:
            replica = Replica(primary, tmp_path / "replica", start=False)
            try:
                assert gc.isenabled() is gc_state
                assert len(replica.ham.store.nodes) == 3
            finally:
                replica.close()
        assert gc.isenabled() is gc_state

    def test_replica_bootstrap_from_a_torn_snapshot(self, tmp_path,
                                                    gc_state):
        project_id, path = _graph(tmp_path)

        class TornSource:
            def repl_snapshot(self, have=None):
                reply = primary.repl_snapshot(have=have)
                reply["snapshot"] = reply["snapshot"][:-7]
                return reply

        with HAM.open_graph(project_id, path) as primary:
            with pytest.raises(StorageError):
                Replica(TornSource(), tmp_path / "replica", start=False)
            assert gc.isenabled() is gc_state

    def test_snapshot_is_built_with_the_collector_paused(self, tmp_path,
                                                         monkeypatch):
        project_id, path = _graph(tmp_path)
        seen = []
        original = GraphStore.from_snapshot.__func__

        def spy(cls, snapshot):
            seen.append(gc.isenabled())
            return original(cls, snapshot)

        monkeypatch.setattr(GraphStore, "from_snapshot", classmethod(spy))
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            with HAM.open_graph(project_id, path):
                pass
            assert seen == [False]
            assert gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
