"""The fsync recorder and the truncate-to-fsynced step."""

import os

from bench.harness import discard_unflushed
from bench.server_main import GRAPH_NAME, read_slots, record_fsyncs


def test_bytes_written_after_the_last_fsync_are_discarded(tmp_path):
    graph = tmp_path / GRAPH_NAME
    graph.mkdir()
    slots = tmp_path / "fsync.slots"
    real_fsync = os.fsync
    try:
        record_fsyncs(str(slots), str(graph))
        assert read_slots(str(slots)) == {"wal.log": -1,
                                          "snapshots.heap": -1}
        with open(graph / "wal.log", "wb") as log:
            log.write(b"acknowledged")
            log.flush()
            os.fsync(log.fileno())
            log.write(b" and then some")
            log.flush()
        with open(graph / "other.file", "wb") as other:
            other.write(b"untracked")
            os.fsync(other.fileno())
    finally:
        os.fsync = real_fsync
    assert read_slots(str(slots))["wal.log"] == len(b"acknowledged")
    assert discard_unflushed(tmp_path) == len(b" and then some")
    assert (graph / "wal.log").read_bytes() == b"acknowledged"
    # Never fsynced, never tracked: left alone.
    assert (graph / "other.file").read_bytes() == b"untracked"
    assert discard_unflushed(tmp_path) == 0
