"""Catalog ref discipline through the transaction layer.

The invariant under test: one catalog ref per slot that retains a
payload whole — a chain's current version, a file node's
contents — no matter how the payload got there (commit, abort,
rollback, replay from a snapshot).  Dedup means identical contents in
many slots still store one blob.
"""

from __future__ import annotations

import pytest

from repro.core.graph import GraphStore
from repro.core.ham import HAM
from repro.core.types import NodeKind
from repro.storage.cas import content_hash


@pytest.fixture
def ham():
    with HAM.ephemeral() as ham:
        yield ham


def _refs(ham, payload):
    entry = ham.store.catalog._blobs.get(content_hash(payload))
    return entry[1] if entry is not None else 0


class TestCommit:
    def test_check_in_releases_the_superseded_current(self, ham):
        node, t = ham.add_node()
        t = ham.modify_node(node=node, expected_time=t, contents=b"one")
        assert _refs(ham, b"one") == 1
        ham.modify_node(node=node, expected_time=t, contents=b"two")
        assert _refs(ham, b"one") == 0  # delta-represented now
        assert _refs(ham, b"two") == 1

    def test_two_check_ins_in_one_transaction(self, ham):
        node, t = ham.add_node()
        with ham.begin() as txn:
            t = ham.modify_node(txn, node=node, expected_time=t,
                                contents=b"first")
            ham.modify_node(txn, node=node, expected_time=t,
                            contents=b"second")
        assert _refs(ham, b"first") == 0
        assert _refs(ham, b"second") == 1

    def test_identical_contents_across_nodes_share_one_blob(self, ham):
        payload = b"shared CAD cell" * 20
        for __ in range(4):
            node, t = ham.add_node()
            ham.modify_node(node=node, expected_time=t, contents=payload)
        assert _refs(ham, payload) == 4
        stats = ham.store.catalog.stats()
        assert stats.dedup_ratio > 1.0

    def test_file_node_rewrite_moves_the_ref(self, ham):
        node, t = ham.add_node(keep_history=False)
        assert ham.store.node(node).kind is NodeKind.FILE
        t = ham.modify_node(node=node, expected_time=t, contents=b"draft")
        ham.modify_node(node=node, expected_time=t, contents=b"final")
        assert _refs(ham, b"draft") == 0
        assert _refs(ham, b"final") == 1


class TestAbort:
    def test_abort_drops_the_transactions_refs(self, ham):
        node, t = ham.add_node()
        t = ham.modify_node(node=node, expected_time=t, contents=b"keep")
        txn = ham.begin()
        ham.modify_node(txn, node=node, expected_time=t,
                        contents=b"doomed")
        assert _refs(ham, b"doomed") == 1  # interned immediately (dedup)
        txn.abort()
        assert _refs(ham, b"doomed") == 0
        assert _refs(ham, b"keep") == 1  # deferred release never applied

    def test_abort_does_not_break_dedup_sharing(self, ham):
        node, t = ham.add_node()
        t = ham.modify_node(node=node, expected_time=t, contents=b"held")
        other, t2 = ham.add_node()
        txn = ham.begin()
        # The transaction interns bytes another node already retains.
        ham.modify_node(txn, node=other, expected_time=t2,
                        contents=b"held")
        assert _refs(ham, b"held") == 2
        txn.abort()
        assert _refs(ham, b"held") == 1
        assert ham.open_node(node)[0] == b"held"

    def test_aborted_new_node_leaves_no_refs(self, ham):
        txn = ham.begin()
        node, t = ham.add_node(txn)
        ham.modify_node(txn, node=node, expected_time=t,
                        contents=b"never published")
        txn.abort()
        assert _refs(ham, b"never published") == 0


class TestSnapshotRebuild:
    def test_round_trip_restores_refcounts_and_dedup(self, ham):
        payload = b"reused block " * 16
        for __ in range(3):
            node, t = ham.add_node()
            t = ham.modify_node(node=node, expected_time=t,
                                contents=payload)
            ham.modify_node(node=node, expected_time=t,
                            contents=payload + b"!")
        before = ham.store.catalog.stats()
        rebuilt = GraphStore.from_snapshot(ham.store.to_snapshot())
        after = rebuilt.catalog.stats()
        assert after == before
        # Dedup is physical, not just accounted: the three nodes'
        # current payloads are one object.
        currents = {id(rebuilt.node(index)._archive._current)
                    for index in rebuilt.nodes}
        assert len(currents) == 1
