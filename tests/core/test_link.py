"""Tests for link records and versioned attachments."""

import pytest

from repro.core.link import LinkEnd, LinkRecord
from repro.core.types import CURRENT, LinkPt
from repro.errors import LinkNotFoundError, VersionError


def make_link(from_pos=5, to_pos=0, created_at=10,
              from_pinned=False, to_pinned=False):
    from_pt = LinkPt(node=1, position=from_pos,
                     time=3 if from_pinned else 0,
                     track_current=not from_pinned)
    to_pt = LinkPt(node=2, position=to_pos,
                   time=3 if to_pinned else 0,
                   track_current=not to_pinned)
    return LinkRecord(7, from_pt, to_pt, created_at)


class TestEndpoints:
    def test_from_and_to_nodes(self):
        link = make_link()
        assert link.from_node == 1
        assert link.to_node == 2

    def test_ends_attached_to(self):
        link = make_link()
        assert link.ends_attached_to(1) == [LinkEnd.FROM]
        assert link.ends_attached_to(2) == [LinkEnd.TO]
        assert link.ends_attached_to(9) == []

    def test_self_link_attaches_both_ends(self):
        pt = LinkPt(node=1)
        link = LinkRecord(3, pt, LinkPt(node=1, position=8), created_at=1)
        assert set(link.ends_attached_to(1)) == {LinkEnd.FROM, LinkEnd.TO}


class TestAttachmentHistory:
    def test_initial_position(self):
        link = make_link(from_pos=5)
        assert link.position_at(LinkEnd.FROM) == 5

    def test_move_attachment_records_history(self):
        link = make_link(from_pos=5, created_at=10)
        link.move_attachment(LinkEnd.FROM, 8, time=20)
        assert link.position_at(LinkEnd.FROM, CURRENT) == 8
        assert link.position_at(LinkEnd.FROM, 15) == 5
        assert link.position_at(LinkEnd.FROM, 20) == 8

    def test_position_before_creation_raises(self):
        link = make_link(created_at=10)
        with pytest.raises(VersionError):
            link.position_at(LinkEnd.FROM, 5)

    def test_pinned_endpoint_never_moves(self):
        link = make_link(from_pinned=True, from_pos=5)
        assert link.position_at(LinkEnd.FROM, 1) == 5
        with pytest.raises(VersionError):
            link.move_attachment(LinkEnd.FROM, 9, time=20)

    def test_move_requires_advancing_time(self):
        link = make_link(created_at=10)
        with pytest.raises(VersionError):
            link.move_attachment(LinkEnd.FROM, 9, time=10)

    def test_resolved_endpoint_carries_position(self):
        link = make_link(from_pos=5, created_at=10)
        link.move_attachment(LinkEnd.FROM, 8, time=20)
        resolved = link.resolved_endpoint(LinkEnd.FROM, 15)
        assert resolved.position == 5
        assert resolved.node == 1


class TestTombstones:
    def test_alive_window(self):
        link = make_link(created_at=10)
        link.tombstone(time=20)
        assert link.alive_at(15)
        assert not link.alive_at(20)
        assert not link.alive_at(CURRENT)
        assert not link.alive_at(5)

    def test_require_alive(self):
        link = make_link()
        link.tombstone(time=20)
        with pytest.raises(LinkNotFoundError):
            link.require_alive()


class TestPersistence:
    def test_record_round_trip(self):
        link = make_link(from_pos=5, created_at=10)
        link.move_attachment(LinkEnd.FROM, 9, time=12)
        link.attributes.set(1, "isPartOf", time=11)
        restored = LinkRecord.from_record(link.to_record())
        assert restored.index == link.index
        assert restored.from_node == 1
        assert restored.position_at(LinkEnd.FROM, 11) == 5
        assert restored.position_at(LinkEnd.FROM, CURRENT) == 9
        assert restored.attributes.value_at(1, CURRENT) == "isPartOf"

    def test_pinned_endpoint_round_trip(self):
        link = make_link(from_pinned=True)
        restored = LinkRecord.from_record(link.to_record())
        assert restored.endpoint(LinkEnd.FROM).pinned
