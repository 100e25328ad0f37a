"""Tests for the log-replay recovery scanner and delta redo records."""

import random

import pytest

from repro.core import ham as ham_module
from repro.core.ham import HAM
from repro.errors import RecoveryError
from repro.replication.replica import Replica
from repro.storage.cas import content_hash
from repro.storage.deltas import encode_script
from repro.storage.diff import DiffKind, diff_bytes
from repro.storage.log import LogRecord, LogRecordKind, WriteAheadLog
from repro.storage.serializer import pack_record
from repro.testing.crashmatrix import abandon
from repro.txn.recovery import replay_log
from repro.workloads.crashmix import chain_states


@pytest.fixture
def log(tmp_path):
    with WriteAheadLog(tmp_path / "wal.log") as log:
        yield log


def update(log, txn_id, op, **args):
    log.append(LogRecord(LogRecordKind.UPDATE, txn_id,
                         {"op": op, "args": args}))


class TestReplay:
    def test_committed_updates_returned_in_order(self, log):
        log.append(LogRecord(LogRecordKind.BEGIN, 1))
        update(log, 1, "first", index=1)
        update(log, 1, "second", index=2)
        log.append(LogRecord(LogRecordKind.COMMIT, 1))
        state = replay_log(log)
        assert [(op, args["index"]) for __, op, args in state.updates] == [
            ("first", 1), ("second", 2)]
        assert state.committed_txns == {1}

    def test_uncommitted_updates_discarded(self, log):
        log.append(LogRecord(LogRecordKind.BEGIN, 1))
        update(log, 1, "never_committed")
        state = replay_log(log)
        assert state.updates == []
        assert state.loser_txns == {1}

    def test_aborted_updates_discarded(self, log):
        log.append(LogRecord(LogRecordKind.BEGIN, 1))
        update(log, 1, "rolled_back")
        log.append(LogRecord(LogRecordKind.ABORT, 1))
        state = replay_log(log)
        assert state.updates == []
        assert 1 in state.aborted_txns
        assert 1 in state.loser_txns

    def test_interleaved_transactions_ordered_by_commit(self, log):
        log.append(LogRecord(LogRecordKind.BEGIN, 1))
        log.append(LogRecord(LogRecordKind.BEGIN, 2))
        update(log, 1, "from_one")
        update(log, 2, "from_two")
        log.append(LogRecord(LogRecordKind.COMMIT, 2))
        log.append(LogRecord(LogRecordKind.COMMIT, 1))
        state = replay_log(log)
        assert [op for __, op, ___ in state.updates] == [
            "from_two", "from_one"]

    def test_mixed_winners_and_losers(self, log):
        log.append(LogRecord(LogRecordKind.BEGIN, 1))
        log.append(LogRecord(LogRecordKind.BEGIN, 2))
        log.append(LogRecord(LogRecordKind.BEGIN, 3))
        update(log, 1, "win")
        update(log, 2, "abort_me")
        update(log, 3, "crash_me")
        log.append(LogRecord(LogRecordKind.COMMIT, 1))
        log.append(LogRecord(LogRecordKind.ABORT, 2))
        state = replay_log(log)
        assert [op for __, op, ___ in state.updates] == ["win"]
        assert state.loser_txns == {2, 3}

    def test_checkpoint_resets_earlier_records(self, log):
        log.append(LogRecord(LogRecordKind.BEGIN, 1))
        update(log, 1, "pre_checkpoint")
        log.append(LogRecord(LogRecordKind.COMMIT, 1))
        log.append(LogRecord(LogRecordKind.CHECKPOINT, 0, payload=7))
        log.append(LogRecord(LogRecordKind.BEGIN, 2))
        update(log, 2, "post_checkpoint")
        log.append(LogRecord(LogRecordKind.COMMIT, 2))
        state = replay_log(log)
        assert [op for __, op, ___ in state.updates] == ["post_checkpoint"]
        assert state.saw_checkpoint
        assert state.checkpoint_marker == 7

    def test_empty_log(self, log):
        state = replay_log(log)
        assert state.updates == []
        assert not state.saw_checkpoint


# ----------------------------------------------------------------------
# delta redo records: a check-in journals its forward script when that
# is smaller than the contents, and replay rebuilds identical chains


def _lines(rng, count, tag):
    return [f"{tag} {k}: {rng.random():.12f}\n".encode()
            for k in range(count)]


def _binary(rng, size):
    # No newline anywhere: diffs run on fixed-size byte chunks.
    return bytes(rng.choice(range(11, 256)) for __ in range(size))


def _checkin_sequence(ham, seed):
    """A seeded check-in history; returns the journal form each
    ``modify_node`` record must take, in log order."""
    rng = random.Random(seed)
    forms = []

    def check_in(txn, node, contents, form):
        ham.modify_node(txn, node=node, contents=contents,
                        expected_time=ham.get_node_timestamp(node, txn=txn))
        forms.append(form)

    text = _lines(rng, 40, "design")
    blob = _binary(rng, 2048)
    wide = _lines(rng, 300, "wide")
    with ham.begin() as txn:
        # First check-ins diff against b"": the script is every token.
        design, __ = ham.add_node(txn)
        check_in(txn, design, b"".join(text), "contents")
        binary, __ = ham.add_node(txn)
        check_in(txn, binary, blob, "contents")
        plain, __ = ham.add_node(txn, keep_history=False)
        check_in(txn, plain, b"".join(text[:10]), "contents")
        bulky, __ = ham.add_node(txn)
        check_in(txn, bulky, b"".join(wide), "contents")
        sibling, __ = ham.add_node(txn)
        variant = list(text)
        variant[rng.randrange(40)] = b"sibling variant\n"
        check_in(txn, sibling, b"".join(variant), "contents")
    with ham.begin() as txn:
        for __ in range(3):
            text[rng.randrange(40)] = f"edit {rng.random()}\n".encode()
        check_in(txn, design, b"".join(text), "script")
        spot = rng.randrange(100, 1900)
        blob = blob[:spot] + b"\x01\x02\x03" + blob[spot + 3:]
        check_in(txn, binary, blob, "script")
    with ham.begin() as txn:
        # A lone \r and a \r\n, then a second check-in of the same node
        # in the same transaction.
        text[5] = text[5].replace(b"\n", b"\r")
        text[9] = text[9].replace(b"\n", b"\r\n")
        check_in(txn, design, b"".join(text), "script")
        text[20] = b"second edit in one transaction\r\n"
        check_in(txn, design, b"".join(text), "script")
    with ham.begin() as txn:
        # Past the edit bound the diff is one REPLACE: old + new tokens
        # outweigh the contents.
        replaced = b"".join(_lines(rng, 300, "unrelated"))
        script = diff_bytes(b"".join(wide), replaced)
        assert [diff.kind for diff in script] == [DiffKind.REPLACE]
        check_in(txn, bulky, replaced, "contents")
        check_in(txn, plain, b"".join(text[:12]), "contents")  # a file
    with ham.begin() as txn:
        # Re-submit the sibling's bytes (the catalog dedups them).
        check_in(txn, sibling, b"".join(text), "script")
    with ham.begin() as txn:
        check_in(txn, binary, b"", "contents")
    with ham.begin() as txn:
        check_in(txn, binary, blob[:300], "contents")
    return forms


def _journal_forms(path):
    """Which form each journaled ``modify_node`` record took."""
    with WriteAheadLog(path / "wal.log") as log:
        state = replay_log(log)
    return ["+".join(sorted({"script", "contents"} & set(args)))
            for __, op, args in state.updates if op == "modify_node"]


def _fed_replica(primary, directory):
    """Chain states of an in-process replica fed the primary's log."""
    replica = Replica(primary, directory, start=False)
    try:
        with replica._apply_lock:
            replica._ingest(*primary._log.read_durable(replica._stream_end))
        return chain_states(replica.ham)
    finally:
        replica.close()


class TestDeltaRecords:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_replay_rebuilds_identical_chains(self, tmp_path, seed):
        path = tmp_path / "graph"
        project_id, __ = HAM.create_graph(path)
        ham = HAM.open_graph(project_id, path)
        forms = _checkin_sequence(ham, seed)
        live = chain_states(ham)
        assert _fed_replica(ham, tmp_path / "replica") == live
        abandon(ham)
        assert _journal_forms(path) == forms
        recovered = HAM.open_graph(project_id, path)
        try:
            assert chain_states(recovered) == live
        finally:
            abandon(recovered)

    def test_contents_form_log_still_recovers(self, tmp_path, monkeypatch):
        # Logs written before delta records journal every check-in's
        # contents; they must keep recovering to the same bytes.
        path = tmp_path / "delta"
        project_id, __ = HAM.create_graph(path)
        ham = HAM.open_graph(project_id, path)
        _checkin_sequence(ham, seed=4)
        live = chain_states(ham)
        abandon(ham)

        old_path = tmp_path / "contents"
        old_id, __ = HAM.create_graph(old_path)
        old = HAM.open_graph(old_id, old_path)
        with monkeypatch.context() as patch:
            patch.setattr(ham_module, "script_bytes",
                          lambda script: float("inf"))
            _checkin_sequence(old, seed=4)
        assert chain_states(old) == live
        assert _fed_replica(old, tmp_path / "replica") == live
        abandon(old)
        assert set(_journal_forms(old_path)) == {"contents"}
        recovered = HAM.open_graph(old_id, old_path)
        try:
            assert chain_states(recovered) == live
        finally:
            abandon(recovered)


def _hand_delta(ham, node, kind):
    """A hand-built delta record editing ``node``'s current contents.

    ``kind`` "good" replays cleanly; "base" names a base that is not the
    chain's current hash, "hash" applies cleanly to a result that is not
    the journaled one, and "tokens" removes tokens the version lacks.
    """
    current = ham.open_node(node)[0]
    edited = current.replace(b"design 3:", b"DESIGN 3:")
    forward = diff_bytes(current, edited)
    base, digest = content_hash(current), content_hash(edited)
    if kind == "base":
        base = content_hash(b"some other version\n")
    elif kind == "hash":
        digest = content_hash(edited + b"\n")
    elif kind == "tokens":
        forward = diff_bytes(current.replace(b"design 7:", b"x"), edited)
    time = ham.get_node_timestamp(node)
    args = {"index": node, "expected": time, "time": ham.now + 5,
            "explanation": "", "moves": [], "base": base,
            "script": encode_script(forward), "hash": digest}
    txn_id = 10_000
    records = [LogRecord(LogRecordKind.BEGIN, txn_id),
               LogRecord(LogRecordKind.UPDATE, txn_id,
                         {"op": "modify_node", "args": args}),
               LogRecord(LogRecordKind.COMMIT, txn_id)]
    return records, edited


def _checkpointed_design(path):
    """A graph whose log holds a good delta record after a checkpoint
    (so an older snapshot exists for recovery to fall back to)."""
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    rng = random.Random(9)
    text = _lines(rng, 30, "design")
    node, time = ham.add_node()
    time = ham.modify_node(node=node, expected_time=time,
                           contents=b"".join(text))
    ham.checkpoint()
    text[12] = b"a good delta record\n"
    ham.modify_node(node=node, expected_time=time, contents=b"".join(text))
    return project_id, ham, node


KINDS = ("good", "base", "hash", "tokens")


class TestDeltaMismatch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_open_graph_fails_loudly(self, tmp_path, kind):
        path = tmp_path / "graph"
        project_id, ham, node = _checkpointed_design(path)
        assert _journal_forms(path) == ["script"]
        records, edited = _hand_delta(ham, node, kind)
        abandon(ham)
        with WriteAheadLog(path / "wal.log") as log:
            log.append_many(records)
            log.force()
        if kind == "good":
            recovered = HAM.open_graph(project_id, path)
            try:
                assert recovered.open_node(node)[0] == edited
            finally:
                abandon(recovered)
            return
        # No candidate snapshot may quietly absorb the bad record.
        with pytest.raises(RecoveryError, match="delta record"):
            HAM.open_graph(project_id, path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_replica_resyncs(self, tmp_path, kind):
        project_id, ham, node = _checkpointed_design(tmp_path / "graph")
        ham.checkpoint()
        replica = Replica(ham, tmp_path / "replica", start=False)
        resyncs = []
        real_resync = replica._resync

        def counting_resync():
            resyncs.append(kind)
            real_resync()

        replica._resync = counting_resync
        try:
            before = chain_states(ham)
            assert chain_states(replica.ham) == before
            records, edited = _hand_delta(ham, node, kind)
            frames = b"".join(pack_record(record.encode())
                              for record in records)
            with replica._apply_lock:
                replica._ingest(frames, replica._stream_end + len(frames))
            if kind == "good":
                assert resyncs == []
                assert replica.ham.open_node(node)[0] == edited
            else:
                # Rebuilt from a fresh snapshot, bad version discarded.
                assert resyncs == [kind]
                assert chain_states(replica.ham) == before
        finally:
            replica.close()
            ham.close()
