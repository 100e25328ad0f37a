"""Tests for the write-set overlay: its mapping and its read facade.

A writer reads through its :class:`~repro.txn.writeset.WriteSet`, so
the overlay must answer exactly what the base store would answer once
the transaction's staged records are published — and must leave the
base store untouched until then.
"""

import pytest

from repro import LinkPt
from repro.core.graph import GraphStore
from repro.errors import LinkNotFoundError, NodeNotFoundError
from repro.txn.writeset import WriteSet, _OverlayMap


class TestOverlayMap:
    @pytest.fixture
    def overlay(self):
        base = {1: "a", 2: "b", 4: "d"}
        private = {2: "B", 3: "C"}
        return base, private, _OverlayMap(base, private)

    def test_private_entry_shadows_the_base(self, overlay):
        __, __, view = overlay
        assert view[2] == "B"
        assert view.get(2) == "B"
        assert view[1] == "a"
        assert view.get(4) == "d"

    def test_missing_key_raises_and_get_defaults(self, overlay):
        __, __, view = overlay
        with pytest.raises(KeyError):
            view[9]
        assert view.get(9) is None
        assert view.get(9, "z") == "z"

    def test_membership_covers_both_layers(self, overlay):
        __, __, view = overlay
        assert 1 in view and 3 in view
        assert 9 not in view

    def test_len_counts_a_replaced_key_once(self, overlay):
        __, __, view = overlay
        assert len(view) == 4

    def test_iteration_is_the_sorted_union(self, overlay):
        __, __, view = overlay
        assert list(view) == [1, 2, 3, 4]
        assert view.keys() == [1, 2, 3, 4]

    def test_values_and_items_see_the_private_layer(self, overlay):
        __, __, view = overlay
        assert view.values() == ["a", "B", "C", "d"]
        assert view.items() == [(1, "a"), (2, "B"), (3, "C"), (4, "d")]

    def test_writes_land_in_the_private_layer_only(self, overlay):
        base, private, view = overlay
        view[1] = "A"
        view[5] = "E"
        assert base == {1: "a", 2: "b", 4: "d"}
        assert private == {1: "A", 2: "B", 3: "C", 5: "E"}
        assert view[1] == "A" and len(view) == 5


@pytest.fixture
def linked(ham):
    """(ham, a, b): two committed nodes with no links."""
    with ham.begin() as txn:
        a, __ = ham.add_node(txn)
        b, __ = ham.add_node(txn)
    return ham, a, b


class TestReadFacade:
    def test_reads_fall_through_to_the_base(self, linked):
        ham, a, __ = linked
        writeset = WriteSet(ham.store)
        assert writeset.node(a) is ham.store.node(a)
        assert writeset.nodes[a] is ham.store.nodes[a]
        assert writeset.project_id == ham.store.project_id
        assert writeset.registry is ham.store.registry

    def test_unknown_records_raise_the_store_errors(self, linked):
        ham, *__ = linked
        writeset = WriteSet(ham.store)
        with pytest.raises(NodeNotFoundError):
            writeset.node(999)
        with pytest.raises(LinkNotFoundError):
            writeset.link(999)

    def test_node_for_write_clones_once_and_shadows_the_base(self, linked):
        ham, a, __ = linked
        base_record = ham.store.node(a)
        writeset = WriteSet(ham.store)
        assert not writeset.dirty
        clone = writeset.node_for_write(a)
        assert clone is not base_record
        assert writeset.node_for_write(a) is clone
        assert writeset.node(a) is clone
        assert writeset.nodes[a] is clone
        assert ham.store.node(a) is base_record
        assert writeset.dirty

    def test_live_nodes_substitutes_and_appends_in_index_order(self, ham):
        with ham.begin() as txn:
            a, __ = ham.add_node(txn)
            b, __ = ham.add_node(txn)
        txn = ham.begin()
        c, __ = ham.add_node(txn)
        writeset = txn.writeset
        replaced = writeset.node_for_write(a)
        live = writeset.live_nodes(0)
        assert [record.index for record in live] == [a, b, c]
        assert live[0] is replaced
        assert [record.index for record in ham.store.live_nodes(0)] == [a, b]
        txn.abort()

    def test_live_links_include_a_staged_link(self, linked):
        ham, a, b = linked
        txn = ham.begin()
        link, __ = ham.add_link(txn, from_pt=LinkPt(a), to_pt=LinkPt(b))
        assert [record.index for record in txn.writeset.live_links(0)] == [
            link]
        assert ham.store.live_links(0) == []
        txn.abort()

    def test_writer_sees_its_staged_link_both_ways(self, linked):
        ham, a, b = linked
        txn = ham.begin()
        link, __ = ham.add_link(txn, from_pt=LinkPt(a), to_pt=LinkPt(b))
        assert ham.links_from(a, txn=txn) == [link]
        assert ham.links_to(b, txn=txn) == [link]
        assert ham.links_to(a, txn=txn) == []
        assert ham.links_to(b) == []
        txn.commit()
        assert ham.links_to(b) == [link]

    def test_links_to_without_staged_records_reads_the_base(self, ham):
        with ham.begin() as txn:
            a, __ = ham.add_node(txn)
            b, __ = ham.add_node(txn)
            link, __ = ham.add_link(txn, from_pt=LinkPt(a),
                                    to_pt=LinkPt(b))
        writeset = WriteSet(ham.store)
        assert [record.index for record in writeset.links_to(b, 0)] == [link]
        assert [record.index for record in writeset.links_from(a, 0)] == [
            link]

    def test_links_to_skips_a_link_deleted_in_the_transaction(self, ham):
        with ham.begin() as txn:
            a, __ = ham.add_node(txn)
            b, __ = ham.add_node(txn)
            link, __ = ham.add_link(txn, from_pt=LinkPt(a),
                                    to_pt=LinkPt(b))
        txn = ham.begin()
        ham.delete_link(txn, link=link)
        assert ham.links_to(b, txn=txn) == []
        assert ham.links_to(b) == [link]
        txn.abort()
        assert ham.links_to(b) == [link]


class TestWriteAccessors:
    def test_registry_for_write_clones_until_apply(self):
        store = GraphStore(project_id=1)
        writeset = WriteSet(store)
        registry = writeset.registry_for_write()
        assert registry is not store.registry
        assert writeset.registry_for_write() is registry
        assert writeset.registry is registry
        writeset.apply()
        assert store.registry is registry

    def test_demon_table_probe_never_allocates(self):
        store = GraphStore(project_id=1)
        writeset = WriteSet(store)
        assert writeset.demon_table_for_node(7) is None
        assert not writeset.dirty
        table = writeset.demon_table_for_write(7)
        assert writeset.demon_table_for_node(7) is table
        assert 7 not in store.node_demons
        writeset.apply()
        assert store.node_demons[7] is table

    def test_index_counters_never_move_backwards_on_apply(self):
        store = GraphStore(project_id=1)
        writeset = WriteSet(store)
        writeset.next_node_index = 5
        assert writeset.next_node_index == 5
        assert store.next_node_index == 1
        store.next_node_index = 9
        writeset.apply()
        assert store.next_node_index == 9

    def test_abort_leaves_the_base_store_untouched(self, linked):
        ham, a, b = linked
        before = ham.store.node(a)
        txn = ham.begin()
        ham.add_node(txn)
        ham.modify_node(txn, node=a,
                        expected_time=ham.get_node_timestamp(a),
                        contents=b"staged\n")
        assert txn.writeset.dirty
        txn.abort()
        assert ham.store.node(a) is before
        assert len(ham.store.nodes) == 2
