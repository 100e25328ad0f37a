"""Edge cases across the HAM operation surface."""

import pytest

from repro import HAM, LinkPt, Protections
from repro.errors import (
    AttributeNotFoundError,
    NodeNotFoundError,
    ProtectionError,
    VersionError,
)


class TestEmptyAndDegenerate:
    def test_empty_graph_queries(self, ham):
        assert ham.get_graph_query().nodes == ()
        assert ham.get_attributes() == []

    def test_linearize_from_missing_node(self, ham):
        with pytest.raises(NodeNotFoundError):
            ham.linearize_graph(1)

    def test_zero_length_contents_version(self, ham):
        node, time = ham.add_node()
        t2 = ham.modify_node(node=node, expected_time=time, contents=b"x")
        t3 = ham.modify_node(node=node, expected_time=t2, contents=b"")
        assert ham.open_node(node, time=t2)[0] == b"x"
        assert ham.open_node(node, time=t3)[0] == b""

    def test_huge_contents_round_trip(self, ham):
        blob = b"A" * 1_000_000
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=blob)
        assert ham.open_node(node)[0] == blob

    def test_modify_with_identical_contents_creates_version(self, ham):
        node, time = ham.add_node()
        t2 = ham.modify_node(node=node, expected_time=time, contents=b"x")
        t3 = ham.modify_node(node=node, expected_time=t2, contents=b"x")
        major, __ = ham.get_node_versions(node)
        assert [v.time for v in major] == [time, t2, t3]


class TestLinkEdgeCases:
    def test_self_link_both_attachments_move(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time,
                        contents=b"0123456789")
        link, __ = ham.add_link(
            from_pt=LinkPt(node, position=2),
            to_pt=LinkPt(node, position=8))
        current = ham.get_node_timestamp(node)
        ham.modify_node(
            node=node, expected_time=current, contents=b"XX0123456789",
            attachments=[(link, "from", 4), (link, "to", 10)])
        __, points, ___, ____ = ham.open_node(node)
        by_end = {end: pt.position for li, end, pt in points}
        assert by_end == {"from": 4, "to": 10}

    def test_copy_of_pinned_endpoint_stays_pinned(self, ham):
        a, ta = ham.add_node()
        b, __ = ham.add_node()
        c, __ = ham.add_node()
        pin = ham.get_node_timestamp(a)
        original, ___ = ham.add_link(
            from_pt=LinkPt(a, time=pin, track_current=False),
            to_pt=LinkPt(b))
        copy, ___ = ham.copy_link(link=original, keep_source=True,
                                  other_pt=LinkPt(c))
        assert ham.get_from_node(copy) == (a, pin)
        # The pinned copy survives edits to a.
        ham.modify_node(node=a, expected_time=pin, contents=b"moved on")
        assert ham.get_from_node(copy) == (a, pin)

    def test_link_between_node_and_itself_cascades_once(self, ham):
        node, __ = ham.add_node()
        link, ___ = ham.add_link(from_pt=LinkPt(node),
                                 to_pt=LinkPt(node, position=1))
        ham.delete_node(node=node)
        assert not ham.store.link(link).alive_at(0)

    def test_attachment_update_without_change_creates_no_version(self,
                                                                 ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time,
                        contents=b"0123456789")
        other, __ = ham.add_node()
        link, ___ = ham.add_link(from_pt=LinkPt(node, position=5),
                                 to_pt=LinkPt(other))
        current = ham.get_node_timestamp(node)
        # Same offset supplied: no attachment version is created.
        ham.modify_node(node=node, expected_time=current,
                        contents=b"0123456789x",
                        attachments=[(link, "from", 5)])
        record = ham.store.link(link)
        from repro.core.link import LinkEnd
        assert len(record._offsets[LinkEnd.FROM]) == 1


class TestAttributeEdgeCases:
    def test_get_attribute_values_excludes_dead_entities(self, ham):
        a, __ = ham.add_node()
        b, __ = ham.add_node()
        attr = ham.get_attribute_index("kind")
        ham.set_node_attribute_value(node=a, attribute=attr, value="x")
        ham.set_node_attribute_value(node=b, attribute=attr, value="y")
        ham.delete_node(node=b)
        assert ham.get_attribute_values(attr) == ["x"]

    def test_attribute_on_deleted_node_rejected(self, ham):
        node, __ = ham.add_node()
        attr = ham.get_attribute_index("kind")
        ham.delete_node(node=node)
        with pytest.raises(NodeNotFoundError):
            ham.set_node_attribute_value(node=node, attribute=attr,
                                         value="x")

    def test_reattach_after_delete_has_clean_history(self, ham):
        node, __ = ham.add_node()
        attr = ham.get_attribute_index("status")
        ham.set_node_attribute_value(node=node, attribute=attr, value="a")
        mid = ham.now
        ham.delete_node_attribute(node=node, attribute=attr)
        ham.set_node_attribute_value(node=node, attribute=attr, value="b")
        assert ham.get_node_attribute_value(node, attr) == "b"
        assert ham.get_node_attribute_value(node, attr, mid) == "a"

    def test_attribute_names_with_spaces_via_quoted_predicates(self, ham):
        node, __ = ham.add_node()
        attr = ham.get_attribute_index("contentType")
        ham.set_node_attribute_value(node=node, attribute=attr,
                                     value="Modula-2 source code")
        hits = ham.get_graph_query(
            node_predicate='contentType = "Modula-2 source code"')
        assert hits.node_indexes == [node]


class TestProtectionEdgeCases:
    def test_protected_node_invisible_contents_but_attributes_ok(self,
                                                                 ham):
        node, __ = ham.add_node()
        attr = ham.get_attribute_index("icon")
        ham.set_node_attribute_value(node=node, attribute=attr, value="N")
        ham.change_node_protection(node=node, protections=Protections.NONE)
        with pytest.raises(ProtectionError):
            ham.open_node(node)
        # Attribute reads are metadata, not contents.
        assert ham.get_node_attribute_value(node, attr) == "N"

    def test_protection_survives_snapshot_round_trip(self,
                                                     persistent_graph):
        project_id, directory = persistent_graph
        with HAM.open_graph(project_id, directory) as ham:
            node, __ = ham.add_node()
            ham.change_node_protection(node=node,
                                       protections=Protections.READ)
        with HAM.open_graph(project_id, directory) as ham:
            with pytest.raises(ProtectionError):
                ham.modify_node(node=node,
                                expected_time=ham.get_node_timestamp(node),
                                contents=b"x")


class TestTimeSemantics:
    def test_time_zero_always_means_current(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"now")
        assert ham.open_node(node, time=0)[0] == b"now"

    def test_future_time_reads_as_current(self, ham):
        node, time = ham.add_node()
        ham.modify_node(node=node, expected_time=time, contents=b"x")
        future = ham.now + 1000
        assert ham.open_node(node, time=future)[0] == b"x"

    def test_clock_never_reuses_times_across_aborts(self, ham):
        node, time = ham.add_node()
        txn = ham.begin()
        ham.modify_node(txn, node=node, expected_time=time, contents=b"a")
        txn.abort()
        new_time = ham.modify_node(node=node, expected_time=time,
                                   contents=b"b")
        major, __ = ham.get_node_versions(node)
        times = [v.time for v in major]
        assert len(set(times)) == len(times)
        assert new_time > time


class TestFileNodeAsOfReads:
    def test_file_answers_any_time_at_or_after_last_write(self, ham):
        node, time = ham.add_node(keep_history=False)
        write_time = ham.modify_node(node=node, expected_time=time,
                                     contents=b"only version")
        later = ham.now + 10
        assert ham.open_node(node, time=write_time)[0] == b"only version"
        assert ham.open_node(node, time=later)[0] == b"only version"

    def test_file_history_before_last_write_is_gone(self, ham):
        node, time = ham.add_node(keep_history=False)
        t2 = ham.modify_node(node=node, expected_time=time, contents=b"a")
        ham.modify_node(node=node, expected_time=t2, contents=b"b")
        with pytest.raises(VersionError):
            ham.open_node(node, time=t2)


class TestEphemeralLog:
    """A memory-only graph journals into a log that keeps nothing."""

    def test_commits_leave_the_log_empty(self, ham):
        from repro.tools.stats import wal_stats

        with ham.begin() as txn:
            node, time = ham.add_node(txn)
            ham.modify_node(txn, node=node, expected_time=time,
                            contents=b"kept in memory only\n")
        assert ham.open_node(node)[0] == b"kept in memory only\n"
        stats = wal_stats(ham)
        assert (stats.appends, stats.records, stats.fsyncs) == (0, 0, 0)
        assert ham.end_lsn == 0
        status = ham.repl_status()
        assert status["durable_lsn"] == 0
        assert status["base_lsn"] == 0

    def test_null_log_accepts_and_forgets(self):
        from repro.core.ham import _NullLog

        log = _NullLog()
        assert log.append(object()) == 0
        assert log.append_many([object(), object()]) == 0
        assert log.append_raw(b"frame") == 0
        log.force()
        assert log.force_up_to(10) is False
        assert log.durable_end() == 0
        assert log.read_durable(0) == b""
        assert list(log.scan()) == []

    def test_null_log_truncate_and_rebase_keep_it_empty(self):
        from repro.core.ham import _NullLog

        log = _NullLog()
        log.truncate()
        log.rebase(4096, epoch=3)
        assert (log.base_lsn, log.epoch) == (0, 0)
        assert log.durable_end() == 0
        assert list(log.scan()) == []
        log.close()
