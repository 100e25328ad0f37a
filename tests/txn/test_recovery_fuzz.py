"""Property-style recovery fuzzing over a real WAL.

Builds a genuine log by running a workload against a persistent graph,
then checks three properties over *every* byte of the file:

- truncating the log at any offset never makes ``replay_log`` raise,
  and yields a subset of the fully-replayed committed transactions with
  each surviving transaction's updates complete (atomic prefix);
- with the durability-mark sidecar present, flipping any bit inside a
  record's checksum region either raises ``RecoveryError`` (the frame
  lies below the persisted mark: acknowledged history must never be
  silently replayed past) or stops the scanner cleanly at the
  preceding prefix (the frame lies at or above the mark: a torn,
  unacknowledged tail);
- without the sidecar the same flips always degrade to the tolerant
  clean stop — a mark-less log recovers exactly like the pre-sidecar
  format.

A second log, of multi-check-in transactions journaled as delta records
(forward scripts), gets the same sweeps judged on the recovered *graph*:
every truncation and every mark-less payload flip must reopen to exactly
the chains of the acknowledged prefix, byte for byte.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core.ham import HAM
from repro.errors import RecoveryError
from repro.storage.log import (
    MARK_SUFFIX,
    LogRecord,
    WriteAheadLog,
    _read_mark,
)
from repro.storage.serializer import RECORD_HEADER, unpack_record
from repro.testing.crashmatrix import abandon, wal_record_boundaries
from repro.txn.recovery import replay_log
from repro.workloads.crashmix import (
    CommitOracle,
    CrashMix,
    chain_states,
    run_checkin_mix,
    run_crash_mix,
)


@pytest.fixture(scope="module")
def real_wal(tmp_path_factory):
    """(wal bytes, full replay state, wal path) from a real run."""
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "graph"
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    oracle = CommitOracle()
    run_crash_mix(ham, oracle,
                  CrashMix(steps=6, seed=99, checkpoint_at=None,
                           abort_every=3))
    abandon(ham)
    wal_path = path / "wal.log"
    data = wal_path.read_bytes()
    log = WriteAheadLog(wal_path)
    try:
        full = replay_log(log)
    finally:
        log.close()
    return data, full, wal_path


def _replay_bytes(tmp_path, data: bytes, mark_source=None):
    """Replay ``data`` in a fresh directory, optionally with a sidecar.

    ``mark_source`` is the original wal path whose ``.mark`` sidecar to
    carry along; omitted, the copy recovers mark-less (tolerant mode).
    """
    path = tmp_path / "wal.log"
    path.write_bytes(data)
    sidecar = str(path) + MARK_SUFFIX
    if mark_source is not None:
        shutil.copyfile(str(mark_source) + MARK_SUFFIX, sidecar)
    else:
        # A WriteAheadLog open creates (and a force would update) the
        # sidecar; scrub leftovers from the previous iteration so each
        # replay is hermetic.
        open(sidecar, "wb").close()
    log = WriteAheadLog(path)
    try:
        return replay_log(log)
    finally:
        log.close()


def _updates_by_txn(state):
    counts: dict[int, int] = {}
    for txn_id, __, __args in state.updates:
        counts[txn_id] = counts.get(txn_id, 0) + 1
    return counts


def test_truncation_at_every_byte_offset(tmp_path, real_wal):
    data, full, __ = real_wal
    assert full.committed_txns
    full_counts = _updates_by_txn(full)
    for cut in range(len(data) + 1):
        state = _replay_bytes(tmp_path, data[:cut])  # must not raise
        assert state.committed_txns <= full.committed_txns
        counts = _updates_by_txn(state)
        # No update may come from a transaction that did not commit
        # within the truncated log...
        assert set(counts) <= state.committed_txns
        # ...and every surviving committed transaction is complete.
        for txn_id in state.committed_txns:
            assert counts.get(txn_id, 0) == full_counts.get(txn_id, 0), (
                f"cut at {cut}: txn {txn_id} recovered partially")


def test_bitflip_splits_at_the_durability_mark(tmp_path, real_wal):
    """A CRC flip below the persisted mark raises; above it, torn tail.

    The workload commits synchronously, so the sidecar's mark covers
    every acknowledged commit blob; only trailing unforced records (late
    aborts) sit above it.  With the sidecar present, recovery must
    refuse to replay past damage in the fsync-covered region — that is
    acknowledged history — while damage above the mark recovers as a
    clean stop at the preceding prefix.
    """
    data, __, wal_path = real_wal
    mark, __, __ = _read_mark(wal_path)
    assert 0 < mark <= len(data)
    boundaries = wal_record_boundaries(wal_path)
    assert boundaries
    starts = [0] + boundaries[:-1]
    # Fsync targets align to append (hence frame) boundaries: the mark
    # never splits a frame.
    assert mark in boundaries
    for start, end in zip(starts, boundaries):
        # The CRC field is bytes [start+4, start+8) of the frame.
        for crc_byte in range(start + 4, start + RECORD_HEADER.size):
            for bit in (0, 7):
                mutated = bytearray(data)
                mutated[crc_byte] ^= 1 << bit
                if start < mark:
                    with pytest.raises(RecoveryError):
                        _replay_bytes(tmp_path, bytes(mutated),
                                      mark_source=wal_path)
                    continue
                # Above the mark: unacknowledged tail.  The scan stops
                # at the damage, so replay equals the undamaged prefix.
                state = _replay_bytes(tmp_path, bytes(mutated),
                                      mark_source=wal_path)
                prefix = _replay_bytes(tmp_path, data[:start])
                assert state.committed_txns == prefix.committed_txns, (
                    f"flip at byte {crc_byte} of frame [{start},{end}) "
                    "above the mark did not truncate the scan to the "
                    "preceding prefix")
                assert state.updates == prefix.updates


def test_bitflip_without_sidecar_always_tolerated(tmp_path, real_wal):
    """Mark-less recovery degrades to the tolerant clean stop everywhere.

    One flip per frame (the cross product is covered above) — the point
    is the mode, not the coverage: without a sidecar no flip may raise,
    and replay equals the prefix before the damaged frame.
    """
    data, __, wal_path = real_wal
    boundaries = wal_record_boundaries(wal_path)
    starts = [0] + boundaries[:-1]
    for start in starts:
        mutated = bytearray(data)
        mutated[start + 4] ^= 1  # one CRC bit per frame
        state = _replay_bytes(tmp_path, bytes(mutated))
        prefix = _replay_bytes(tmp_path, data[:start])
        assert state.committed_txns == prefix.committed_txns
        assert state.updates == prefix.updates


# ----------------------------------------------------------------------
# delta records


@pytest.fixture(scope="module")
def delta_wal(tmp_path_factory):
    """(graph dir, project id, wal bytes, chain states per commit)."""
    root = tmp_path_factory.mktemp("delta-fuzz")
    path = root / "graph"
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    states: list = []
    run_checkin_mix(ham, states, steps=5, seed=5, lines=12)
    abandon(ham)
    return path, project_id, (path / "wal.log").read_bytes(), states


def _frames(data: bytes):
    """(start, end, decoded record) for every frame of ``data``."""
    offset = 0
    while offset < len(data):
        payload, end = unpack_record(data, offset)
        yield offset, end, LogRecord.decode(payload, lsn=offset)
        offset = end


def _reopen(tmp_path, graph, project_id, data: bytes, mark: bool):
    """Chain states of ``graph`` reopened over the log ``data``."""
    copy = tmp_path / "reopen"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(graph, copy)
    (copy / "wal.log").write_bytes(data)
    if not mark:
        open(str(copy / "wal.log") + MARK_SUFFIX, "wb").close()
    recovered = HAM.open_graph(project_id, copy)
    try:
        return chain_states(recovered)
    finally:
        abandon(recovered)


def test_delta_truncation_recovers_the_acknowledged_prefix(tmp_path,
                                                          delta_wal):
    graph, project_id, data, states = delta_wal
    # Recovery is snapshot + the committed updates replay_log returns,
    # so every cut with the same committed set rebuilds the same graph:
    # scan every byte, reopen once per distinct prefix.
    reopened: dict = {}
    for cut in range(len(data) + 1):
        committed = frozenset(_replay_bytes(tmp_path, data[:cut])
                              .committed_txns)
        if committed in reopened:
            continue
        got = _reopen(tmp_path, graph, project_id, data[:cut], mark=False)
        assert got == states[len(committed)], (
            f"cut at {cut}: recovered chains are not the prefix of "
            f"{len(committed)} acknowledged commits")
        reopened[committed] = cut
    assert len(reopened) == len(states)


def test_delta_record_flips(tmp_path, delta_wal):
    """A flipped bit inside a delta record's payload: below the mark the
    reopen fails loudly; mark-less it stops cleanly before that commit."""
    graph, project_id, data, states = delta_wal
    deltas = [(start, end) for start, end, record in _frames(data)
              if record.payload and "script" in record.payload["args"]]
    assert deltas
    for start, end in deltas:
        committed = len(_replay_bytes(tmp_path, data[:start])
                        .committed_txns)
        for offset in (start + RECORD_HEADER.size, (start + end) // 2,
                       end - 1):
            mutated = bytearray(data)
            mutated[offset] ^= 0x10
            with pytest.raises(RecoveryError):
                _reopen(tmp_path, graph, project_id, bytes(mutated),
                        mark=True)
            got = _reopen(tmp_path, graph, project_id, bytes(mutated),
                          mark=False)
            assert got == states[committed], (
                f"flip at byte {offset} of delta record [{start},{end}) "
                f"did not stop recovery at the preceding prefix")
