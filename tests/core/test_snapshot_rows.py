"""A checkpoint's kept row encodings never go stale.

:meth:`GraphStore.encode_snapshot` writes each node and link row as the
encoding its record kept from the previous checkpoint, and encodes only
rows without one.  The oracle is ``encode_value(store.to_snapshot())``
with every delta chain's deltas encoded afresh from the decoded scripts
(a chain loaded from a snapshot splices its packed deltas instead):
after every checkpoint of a seeded random history — nodes and links
added and deleted (deletes cascade), check-ins with moving attachments,
node and link attributes, demons, protections, aborted transactions —
the heap record must equal it byte for byte.  The same holds on the
paths that change records: recovery replaying the log into a plain
store in place, check-ins onto a recovered graph, and a replica
applying the shipped stream through write-sets.
"""

from __future__ import annotations

import random

import pytest

from repro.core.demons import EventKind
from repro.core.graph import GraphDirectory
from repro.core.ham import _APPLY, HAM
from repro.core.types import LinkPt, Protections
from repro.errors import NeptuneError, TransactionError
from repro.replication.replica import Replica
from repro.storage.deltas import DeltaStore, encode_script
from repro.storage.serializer import LARGE_BYTES, encode_value
from repro.tools.verify import fingerprint
from repro.txn.recovery import replay_log

SEEDS = [0, 1, 2, 3, 4, 5]

_EVENTS = [EventKind.ADD_NODE, EventKind.DELETE_NODE, EventKind.ADD_LINK]


def _wide_body(node, rng) -> bytes:
    """A body past ``LARGE_BYTES`` that shares no line with another: its
    row passes it through, and the delta it leaves behind is a large
    history piece."""
    tag = rng.randrange(10**6)
    return b"".join(b"wide %d %d %d\n" % (node, tag, i)
                    for i in range(1100))


def _one_op(ham, rng, txn=None, wide=False) -> None:
    """One random mutation; refused ones (protections, stale versions)
    are part of the history too.  ``wide`` makes some check-ins large."""
    store = ham.store
    live = [index for index, node in store.nodes.items()
            if node.alive_at(0)]
    links = [index for index, link in store.links.items()
             if link.alive_at(0)]
    roll = rng.random()
    if roll < 0.12 or len(live) < 2:
        ham.add_node(txn, keep_history=rng.random() < 0.7)
    elif roll < 0.40:
        node = rng.choice(live)
        record = store.node(node)
        contents = b"".join(b"line %d %d\n" % (node, rng.randrange(50))
                            for __ in range(rng.randrange(1, 12)))
        if wide and rng.random() < 0.5:
            contents = _wide_body(node, rng)
        attachments = None
        if rng.random() < 0.5:  # move every tracking endpoint
            attachments = [
                (link, end.value, rng.randrange(len(contents)))
                for link, end in ham._tracking_endpoints(store, record)]
        ham.modify_node(txn, node=node,
                        expected_time=record.current_time,
                        contents=contents, attachments=attachments,
                        explanation=f"edit {rng.randrange(99)}")
    elif roll < 0.55:
        source, target = rng.choice(live), rng.choice(live)
        if rng.random() < 0.6:
            from_pt = LinkPt(source, position=rng.randrange(4))
        else:  # pinned to the source's current version
            from_pt = LinkPt(source, position=rng.randrange(4),
                             time=store.node(source).current_time,
                             track_current=False)
        ham.add_link(txn, from_pt=from_pt, to_pt=LinkPt(target))
    elif roll < 0.67:
        attr = ham.get_attribute_index(rng.choice(["status", "owner"]),
                                       txn)
        node = rng.choice(live)
        if rng.random() < 0.2:
            ham.delete_node_attribute(txn, node=node, attribute=attr)
        else:
            ham.set_node_attribute_value(txn, node=node, attribute=attr,
                                         value=f"v{rng.randrange(5)}")
    elif roll < 0.75 and links:
        attr = ham.get_attribute_index("weight", txn)
        link = rng.choice(links)
        if rng.random() < 0.2:
            ham.delete_link_attribute(txn, link=link, attribute=attr)
        else:
            ham.set_link_attribute_value(txn, link=link, attribute=attr,
                                         value=str(rng.randrange(9)))
    elif roll < 0.80 and links:
        ham.delete_link(txn, link=rng.choice(links))
    elif roll < 0.85:
        ham.delete_node(txn, node=rng.choice(live))
    elif roll < 0.90:
        ham.change_node_protection(
            txn, node=rng.choice(live),
            protections=rng.choice([Protections.READ_WRITE,
                                    Protections.READ_WRITE,
                                    Protections.READ]))
    elif roll < 0.95:
        ham.set_node_demon(txn, node=rng.choice(live),
                           event=rng.choice(_EVENTS),
                           demon=rng.choice([None, "log", "notify"]))
    else:
        ham.set_graph_demon_value(txn, event=rng.choice(_EVENTS),
                                  demon=rng.choice([None, "audit"]))


def _history(ham, rng, steps: int, wide=False) -> None:
    for __ in range(steps):
        if rng.random() < 0.08:
            # A transaction that stages several changes, then aborts.
            txn = ham.begin()
            try:
                for __ in range(rng.randrange(1, 4)):
                    _one_op(ham, rng, txn, wide)
            except NeptuneError:
                pass
            txn.abort()
            continue
        try:
            _one_op(ham, rng, wide=wide)
        except NeptuneError:
            pass


def _heap_payload(graph_dir: GraphDirectory) -> bytes:
    with graph_dir._open_heap() as heap:
        return heap.read(graph_dir.read_meta()["snapshot"])


def _oracle(store) -> bytes:
    """The snapshot encoded afresh, chain deltas included."""
    snapshot = store.to_snapshot()
    for row, node in zip(snapshot["nodes"], store.nodes.values()):
        if isinstance(node._archive, DeltaStore):
            row["archive"]["deltas"] = encode_value(
                [encode_script(script) for script in node._archive.deltas()])
    return encode_value(snapshot)


def _checkpoint_is_exact(ham) -> None:
    ham.checkpoint()
    assert _heap_payload(ham._directory) == _oracle(ham.store)


def _spliced_chains(store) -> int:
    """Chains holding both a packed prefix and later check-ins."""
    return sum(isinstance(node._archive, DeltaStore)
               and all(node._archive._history)
               for node in store.nodes.values())


def _kept_rows(store) -> int:
    return sum(record._encoded is not None
               for table in (store.nodes, store.links)
               for record in table.values())


def _committed_state(store) -> dict:
    """The snapshot less the clock: times that aborted transactions
    drew are not logged, so recovery may restart the clock lower."""
    snapshot = store.to_snapshot()
    del snapshot["now"]
    return snapshot


def _open(tmp_path, name="graph"):
    path = tmp_path / name
    project_id, __ = HAM.create_graph(path)
    return project_id, path, HAM.open_graph(project_id, path)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_checkpoint_equals_the_oracle(tmp_path, seed):
    rng = random.Random(seed)
    __, __, ham = _open(tmp_path)
    reused = 0
    with ham:
        for __ in range(8):
            _history(ham, rng, rng.randrange(5, 40))
            reused += _kept_rows(ham.store)
            _checkpoint_is_exact(ham)
        # Nothing changed: every row comes from its kept encoding.
        _checkpoint_is_exact(ham)
        assert _kept_rows(ham.store) == len(ham.store.nodes) + len(
            ham.store.links)
    assert reused > 0, "no checkpoint reused a kept row"


@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_after_kept_rows_is_exact(tmp_path, seed):
    rng = random.Random(1000 + seed)
    project_id, path, ham = _open(tmp_path)
    for __ in range(3):
        _history(ham, rng, 25)
        _checkpoint_is_exact(ham)
    _history(ham, rng, 40)
    expected = _committed_state(ham.store)
    ham._log.close()  # crash: no closing checkpoint
    ham._closed = True
    with HAM.open_graph(project_id, path) as recovered:
        assert _committed_state(recovered.store) == expected
        _checkpoint_is_exact(recovered)
        _history(recovered, rng, 25)
        _checkpoint_is_exact(recovered)


@pytest.mark.parametrize("seed", SEEDS)
def test_check_ins_after_recovery_splice_exactly(tmp_path, seed):
    # Reopened after a clean close, every chain's history is packed;
    # check-ins then go to the tail, and the next checkpoint splices the
    # two.  Alternate clean closes with crashes, so replayed check-ins
    # land in the tail too.
    rng = random.Random(4000 + seed)
    project_id, path, ham = _open(tmp_path)
    _history(ham, rng, 40)
    ham.close()
    spliced = 0
    for round_ in range(4):
        with HAM.open_graph(project_id, path) as recovered:
            _history(recovered, rng, 30)
            spliced += _spliced_chains(recovered.store)
            _checkpoint_is_exact(recovered)
            _history(recovered, rng, 10)
            expected = _committed_state(recovered.store)
            if round_ % 2:
                recovered._log.close()  # crash: no closing checkpoint
                recovered._closed = True
        with HAM.open_graph(project_id, path) as reopened:
            assert _committed_state(reopened.store) == expected
            spliced += _spliced_chains(reopened.store)
            _checkpoint_is_exact(reopened)
    assert spliced > 0, "no checkpoint spliced a packed history"


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_into_a_plain_store_drops_stale_rows(tmp_path, seed):
    # Recovery replays committed updates into a plain store, mutating
    # its records in place through node_for_write/link_for_write.  Keep
    # rows between batches of the replay, as repeated checkpoints of a
    # recovered graph would, and each encoding must still be exact.
    rng = random.Random(2000 + seed)
    __, path, ham = _open(tmp_path)
    graph_dir = GraphDirectory(path)
    first = graph_dir.read_meta()["snapshot"]
    with ham:
        _history(ham, rng, 120)
        live = _committed_state(ham.store)
        updates = replay_log(ham._log).updates
    store = graph_dir.load_snapshot(first)
    assert updates, "the history committed nothing"
    for step, (__, operation, args) in enumerate(updates):
        _APPLY[operation](store, args)
        if step % 7 == 0:
            assert b"".join(store.encode_snapshot(keep_rows=True)) \
                == _oracle(store)
    assert _committed_state(store) == live


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_replica_rows_stay_exact(tmp_path, seed):
    rng = random.Random(3000 + seed)
    __, __, primary = _open(tmp_path, "primary")
    with primary:
        _history(primary, rng, 30)
        replica = Replica(primary, tmp_path / "replica", start=False,
                          poll_wait=0.0)
        with replica:
            # The bootstrap snapshot is the store it was built from.
            assert _heap_payload(replica.ham._directory) == _oracle(
                replica.ham.store)
            for round_ in range(4):
                _history(primary, rng, 30)
                if round_ == 2:
                    primary.checkpoint()  # the replica must resync
                target = (primary._log.epoch, primary._log.durable_end())
                while (replica._epoch,
                       replica.replayed_lsn) != target:
                    replica._step()
                    assert replica.failure is None
                store = replica.ham.store
                assert b"".join(store.encode_snapshot(keep_rows=True)) \
                    == _oracle(store)
                assert fingerprint(replica.ham) == fingerprint(primary)


def _split_rows(store) -> int:
    """Kept rows of several parts; each must share every history piece
    of its chain by reference."""
    split = 0
    for node in store.nodes.values():
        row = node._encoded
        if row is None or type(row) is bytes:
            continue
        split += 1
        if isinstance(node._archive, DeltaStore):
            pieces, __ = node._archive._history
            for piece in pieces:
                if len(piece.data) >= LARGE_BYTES:
                    assert any(part is piece.data for part in row)
    return split


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_small_rows_stay_one_part(tmp_path, seed):
    rng = random.Random(6000 + seed)
    __, __, ham = _open(tmp_path)
    with ham:
        for __ in range(3):
            _history(ham, rng, 30)
            _checkpoint_is_exact(ham)
            assert _split_rows(ham.store) == 0


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_wide_histories_stay_exact_through_folds_and_recovery(tmp_path,
                                                              seed):
    # Large bodies make rows of several parts that share the chain's
    # current contents and history pieces: repeated checkpoints fold
    # into those pieces, recovery reloads them, and every heap record
    # must still equal the oracle.
    rng = random.Random(5000 + seed)
    project_id, path, ham = _open(tmp_path)
    split = 0
    for __ in range(4):
        _history(ham, rng, 20, wide=True)
        _checkpoint_is_exact(ham)
        split += _split_rows(ham.store)
    _history(ham, rng, 20, wide=True)
    expected = _committed_state(ham.store)
    ham._log.close()  # crash: no closing checkpoint
    ham._closed = True
    with HAM.open_graph(project_id, path) as recovered:
        assert _committed_state(recovered.store) == expected
        for __ in range(2):
            _checkpoint_is_exact(recovered)
            split += _split_rows(recovered.store)
            _history(recovered, rng, 20, wide=True)
    assert split > 0, "no row held a large value"


def test_wide_replica_rows_stay_exact_through_resync(tmp_path):
    rng = random.Random(7000)
    __, __, primary = _open(tmp_path, "primary")
    with primary:
        _history(primary, rng, 20, wide=True)
        replica = Replica(primary, tmp_path / "replica", start=False,
                          poll_wait=0.0)
        with replica:
            assert _heap_payload(replica.ham._directory) == _oracle(
                replica.ham.store)
            for round_ in range(3):
                _history(primary, rng, 20, wide=True)
                primary.checkpoint()  # the replica must resync
                target = (primary._log.epoch, primary._log.durable_end())
                while (replica._epoch,
                       replica.replayed_lsn) != target:
                    replica._step()
                    assert replica.failure is None
                assert _heap_payload(replica.ham._directory) == _oracle(
                    replica.ham.store)
                store = replica.ham.store
                assert b"".join(store.encode_snapshot(keep_rows=True)) \
                    == _oracle(store)
                assert fingerprint(replica.ham) == fingerprint(primary)


def test_refused_checkpoint_writes_nothing(tmp_path):
    # A checkpoint with a transaction in flight is refused before it
    # encodes anything: no orphan heap record, no meta flip, no kept
    # row replaced.  The next admitted one is exact and recovers.
    rng = random.Random(5000)
    project_id, path, ham = _open(tmp_path)
    _history(ham, rng, 30)
    _checkpoint_is_exact(ham)
    _history(ham, rng, 30)
    directory = ham._directory
    with directory._open_heap() as heap:
        heap_bytes = heap.size_bytes
    with open(directory.meta_path, "rb") as handle:
        meta = handle.read()
    kept = [record._encoded for table in (ham.store.nodes, ham.store.links)
            for record in table.values()]
    txn = ham.begin()
    with pytest.raises(TransactionError, match="in flight"):
        ham.checkpoint()
    with directory._open_heap() as heap:
        assert heap.size_bytes == heap_bytes
    with open(directory.meta_path, "rb") as handle:
        assert handle.read() == meta
    assert all(now is before for now, before in zip(
        (record._encoded for table in (ham.store.nodes, ham.store.links)
         for record in table.values()), kept))
    txn.abort()
    _checkpoint_is_exact(ham)
    _history(ham, rng, 20)
    expected = _committed_state(ham.store)
    ham._log.close()  # crash: no closing checkpoint
    ham._closed = True
    with HAM.open_graph(project_id, path) as recovered:
        assert _committed_state(recovered.store) == expected
        _checkpoint_is_exact(recovered)
