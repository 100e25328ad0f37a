"""Tests for node records: contents, protections, versions, tombstones."""

import pytest

from repro.core.node import NodeRecord
from repro.core.types import CURRENT, NodeKind, Protections
from repro.errors import (
    NodeNotFoundError,
    ProtectionError,
    StaleVersionError,
    VersionError,
)


def make_archive(index=1, created_at=1):
    return NodeRecord(index, NodeKind.ARCHIVE, created_at)


def make_file(index=1, created_at=1):
    return NodeRecord(index, NodeKind.FILE, created_at)


class TestArchiveContents:
    def test_new_node_is_empty(self):
        assert make_archive().contents_at() == b""

    def test_modify_requires_matching_time(self):
        node = make_archive()
        with pytest.raises(StaleVersionError):
            node.modify(b"x", expected_time=99, time=2)

    def test_modify_then_read_current(self):
        node = make_archive()
        node.modify(b"v2", expected_time=1, time=2)
        assert node.contents_at() == b"v2"
        assert node.current_time == 2

    def test_archive_keeps_all_versions(self):
        node = make_archive()
        node.modify(b"v2", expected_time=1, time=2)
        node.modify(b"v3", expected_time=2, time=3)
        assert node.contents_at(1) == b""
        assert node.contents_at(2) == b"v2"
        assert node.contents_at(3) == b"v3"

    def test_stale_check_in_is_rejected(self):
        node = make_archive()
        node.modify(b"v2", expected_time=1, time=2)
        with pytest.raises(StaleVersionError):
            node.modify(b"conflict", expected_time=1, time=3)


class TestFileContents:
    def test_file_keeps_only_current(self):
        node = make_file()
        node.modify(b"v2", expected_time=1, time=2)
        assert node.contents_at() == b"v2"
        with pytest.raises(VersionError):
            node.contents_at(1)

    def test_file_current_time_advances(self):
        node = make_file()
        node.modify(b"v2", expected_time=1, time=5)
        assert node.current_time == 5
        assert node.contents_at(5) == b"v2"

    def test_file_has_single_major_version(self):
        node = make_file()
        node.modify(b"a", expected_time=1, time=2)
        node.modify(b"b", expected_time=2, time=3)
        assert len(node.major_versions()) == 1


class TestProtections:
    def test_unreadable_node_rejects_reads(self):
        node = make_archive()
        node.protections = Protections.WRITE
        with pytest.raises(ProtectionError):
            node.contents_at()

    def test_unwritable_node_rejects_modify(self):
        node = make_archive()
        node.protections = Protections.READ
        with pytest.raises(ProtectionError):
            node.modify(b"x", expected_time=1, time=2)


class TestTombstones:
    def test_alive_at_creation_time(self):
        node = make_archive(created_at=5)
        assert node.alive_at(5)
        assert not node.alive_at(4)

    def test_tombstone_hides_current_but_not_past(self):
        node = make_archive(created_at=1)
        node.tombstone(time=10)
        assert not node.alive_at(CURRENT)
        assert node.alive_at(9)
        assert not node.alive_at(10)

    def test_double_tombstone_raises(self):
        node = make_archive()
        node.tombstone(time=5)
        with pytest.raises(NodeNotFoundError):
            node.tombstone(time=6)

    def test_require_alive_raises_when_dead(self):
        node = make_archive()
        node.tombstone(time=5)
        with pytest.raises(NodeNotFoundError):
            node.require_alive()


class TestVersionHistory:
    def test_major_versions_carry_explanations(self):
        node = make_archive()
        node.modify(b"x", expected_time=1, time=2, explanation="first edit")
        majors = node.major_versions()
        assert [v.time for v in majors] == [1, 2]
        assert majors[1].explanation == "first edit"

    def test_minor_events_sorted_by_time(self):
        node = make_archive()
        node.record_minor_event(7, "late")
        node.record_minor_event(3, "early")
        assert [v.time for v in node.minor_versions()] == [3, 7]

    def test_storage_stats_only_for_archives(self):
        assert make_file().storage_stats() is None
        assert make_archive().storage_stats() is not None


class TestPersistence:
    def test_record_round_trip_archive(self):
        node = make_archive(index=4)
        node.modify(b"body\n", expected_time=1, time=2, explanation="edit")
        node.out_links.add(9)
        node.record_minor_event(3, "linked")
        node.protections = Protections.READ
        restored = NodeRecord.from_record(node.to_record())
        assert restored.index == 4
        assert restored.kind is NodeKind.ARCHIVE
        assert restored.out_links == {9}
        assert restored.protections is Protections.READ
        restored.protections = Protections.READ_WRITE
        assert restored.contents_at(2) == b"body\n"
        assert [v.time for v in restored.minor_versions()] == [3]

    def test_record_round_trip_file(self):
        node = make_file(index=2)
        node.modify(b"data", expected_time=1, time=3)
        restored = NodeRecord.from_record(node.to_record())
        assert restored.kind is NodeKind.FILE
        assert restored.contents_at() == b"data"
        assert restored.current_time == 3

    def test_tombstone_survives_round_trip(self):
        node = make_archive()
        node.tombstone(time=8)
        restored = NodeRecord.from_record(node.to_record())
        assert not restored.alive_at(CURRENT)
        assert restored.alive_at(7)
