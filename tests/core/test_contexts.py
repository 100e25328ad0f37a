"""Contexts: private version threads and merging (the §5 extension)."""

import pytest

from repro import ContextManager, HAM, LinkPt
from repro.errors import ContextError, MergeConflictError, NodeNotFoundError


@pytest.fixture
def base(ham):
    with ham.begin() as txn:
        node, time = ham.add_node(txn)
        ham.modify_node(txn, node=node, expected_time=time,
                        contents=b"line one\nline two\nline three\n")
    manager = ContextManager(ham)
    return ham, manager, node


class TestContextIsolation:
    def test_context_edit_invisible_outside(self, base):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"line one\nEDITED\nline three\n")
        assert ham.open_node(node)[0] == \
            b"line one\nline two\nline three\n"
        assert context.read_node(node) == \
            b"line one\nEDITED\nline three\n"

    def test_context_reads_fork_point_state(self, base):
        ham, manager, node = base
        context = manager.create("private")
        current = ham.get_node_timestamp(node)
        ham.modify_node(node=node, expected_time=current,
                        contents=b"base moved on\n")
        # The context still sees the state it forked from.
        assert context.read_node(node) == \
            b"line one\nline two\nline three\n"

    def test_local_nodes_exist_only_in_context(self, base):
        ham, manager, node = base
        context = manager.create("private")
        local = context.add_node(b"tentative design\n")
        assert context.read_node(local) == b"tentative design\n"
        assert local not in ham.store.nodes

    def test_two_simultaneous_contexts(self, base):
        ham, manager, node = base
        first = manager.create("one")
        second = manager.create("two")
        first.modify_node(node, b"from one\n")
        second.modify_node(node, b"from two\n")
        assert first.read_node(node) == b"from one\n"
        assert second.read_node(node) == b"from two\n"

    def test_unknown_local_node_raises(self, base):
        __, manager, ___ = base
        context = manager.create("private")
        with pytest.raises(NodeNotFoundError):
            context.read_node(1_000_000_999)


class TestMerge:
    def test_clean_merge_checks_in_edit(self, base):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"line one\nEDITED\nline three\n")
        report = manager.merge(context)
        assert report.clean
        assert node in report.merged_nodes
        assert ham.open_node(node)[0] == b"line one\nEDITED\nline three\n"

    def test_merge_creates_local_nodes_in_base(self, base):
        ham, manager, node = base
        context = manager.create("private")
        local = context.add_node(b"new design\n",
                                 attributes={"document": "design"})
        report = manager.merge(context)
        created = report.created_nodes[local]
        assert ham.open_node(created)[0] == b"new design\n"
        attr = ham.get_attribute_index("document")
        assert ham.get_node_attribute_value(created, attr) == "design"

    def test_merge_rewires_local_links(self, base):
        ham, manager, node = base
        context = manager.create("private")
        local = context.add_node(b"child\n")
        link = context.add_link(LinkPt(node, position=3), LinkPt(local),
                                attributes={"relation": "isPartOf"})
        report = manager.merge(context)
        base_link = report.created_links[link]
        assert ham.get_from_node(base_link)[0] == node
        assert ham.get_to_node(base_link)[0] == report.created_nodes[local]

    def test_divergent_edits_three_way_merge(self, base):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"line one\nOURS\nline three\n")
        current = ham.get_node_timestamp(node)
        ham.modify_node(node=node, expected_time=current,
                        contents=b"line one\nline two\nTHEIRS\n")
        report = manager.merge(context)
        assert report.clean
        assert node in report.three_way_nodes
        assert ham.open_node(node)[0] == b"line one\nOURS\nTHEIRS\n"

    def test_conflicting_edits_reported(self, base):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"line one\nOURS\nline three\n")
        current = ham.get_node_timestamp(node)
        ham.modify_node(node=node, expected_time=current,
                        contents=b"line one\nTHEIRS\nline three\n")
        report = manager.merge(context)
        assert not report.clean
        assert report.conflicts[0][0] == node
        # Conflicting region keeps "ours" in the merged output.
        assert b"OURS" in ham.open_node(node)[0]

    def test_require_clean_raises_and_changes_nothing(self, base):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"line one\nOURS\nline three\n")
        current = ham.get_node_timestamp(node)
        ham.modify_node(node=node, expected_time=current,
                        contents=b"line one\nTHEIRS\nline three\n")
        with pytest.raises(MergeConflictError):
            manager.merge(context, require_clean=True)
        assert ham.open_node(node)[0] == b"line one\nTHEIRS\nline three\n"
        # The context can still be merged later (non-strict).
        report = manager.merge(context)
        assert not report.clean

    def test_merge_applies_attribute_edits(self, base):
        ham, manager, node = base
        context = manager.create("private")
        context.set_attribute(node, "status", "reviewed")
        manager.merge(context)
        attr = ham.get_attribute_index("status")
        assert ham.get_node_attribute_value(node, attr) == "reviewed"

    def test_merged_context_rejects_further_use(self, base):
        ham, manager, node = base
        context = manager.create("private")
        manager.merge(context)
        with pytest.raises(ContextError):
            context.modify_node(node, b"too late\n")
        with pytest.raises(ContextError):
            manager.merge(context)

    def test_merge_explanation_names_context(self, base):
        ham, manager, node = base
        context = manager.create("feature-x")
        context.modify_node(node, b"edited\n")
        manager.merge(context)
        major, __ = ham.get_node_versions(node)
        assert "feature-x" in major[-1].explanation


class TestMergeRacingACommit:
    """A commit that lands just before the merge transaction is merged
    against, never overwritten."""

    def test_racing_edit_survives(self, base, race_before_merge):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"OURS\nline two\nline three\n")
        race_before_merge(ham, ham, node,
                          b"line one\nline two\nTHEIRS\n")
        report = manager.merge(context)
        assert ham.open_node(node)[0] == b"OURS\nline two\nTHEIRS\n"
        assert report.clean
        assert report.three_way_nodes == [node]

    def test_racing_conflict_is_reported(self, base, race_before_merge):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"line one\nOURS\nline three\n")
        race_before_merge(ham, ham, node,
                          b"line one\nTHEIRS\nline three\n")
        report = manager.merge(context)
        assert not report.clean
        assert report.conflicts[0][0] == node

    def test_racing_conflict_fails_require_clean(self, base,
                                                 race_before_merge):
        ham, manager, node = base
        context = manager.create("private")
        context.modify_node(node, b"line one\nOURS\nline three\n")
        race_before_merge(ham, ham, node,
                          b"line one\nTHEIRS\nline three\n")
        with pytest.raises(MergeConflictError):
            manager.merge(context, require_clean=True)
        assert ham.open_node(node)[0] == b"line one\nTHEIRS\nline three\n"


class TestAbandon:
    def test_abandoned_context_changes_nothing(self, base):
        ham, manager, node = base
        context = manager.create("throwaway")
        context.modify_node(node, b"never merged\n")
        manager.abandon(context)
        assert ham.open_node(node)[0] == \
            b"line one\nline two\nline three\n"
        with pytest.raises(ContextError):
            manager.merge(context)

    def test_open_contexts_listing(self, base):
        __, manager, ___ = base
        first = manager.create("one")
        second = manager.create("two")
        manager.abandon(first)
        assert [c.name for c in manager.open_contexts()] == ["two"]

    def test_get_by_id(self, base):
        __, manager, ___ = base
        context = manager.create("x")
        assert manager.get(context.context_id) is context
        with pytest.raises(ContextError):
            manager.get(999)
