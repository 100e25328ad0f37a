"""Link records: directed, attributed, with versioned attachments.

A link connects two :class:`~repro.core.types.LinkPt` endpoints.  The
paper supports two attachment modes (§3): an endpoint may be pinned to a
particular version of a node (a configuration-management primitive), or it
may track the *current* version, in which case "a history of link
attachment offsets is saved, allowing the link to be attached to different
offsets for each version of the node" — the automatic update mechanism.

That history lives here: each tracking endpoint carries a timeline of
``(time, position)`` entries, appended whenever ``modifyNode`` moves the
attachment.
"""

from __future__ import annotations

import enum

from repro.core.attributes import VersionedAttributes
from repro.core.timeline import Timeline
from repro.core.types import CURRENT, LinkIndex, LinkPt, Position, Time
from repro.errors import LinkNotFoundError, VersionError

__all__ = ["LinkRecord", "LinkEnd"]


class LinkEnd(enum.Enum):
    """Which endpoint of a link: source or destination."""

    FROM = "from"
    TO = "to"


class LinkRecord:
    """One directed link with versioned endpoint attachments."""

    def __init__(self, index: LinkIndex, from_pt: LinkPt, to_pt: LinkPt,
                 created_at: Time):
        self.index = index
        self.created_at = created_at
        self.deleted_at: Time | None = None
        self.attributes = VersionedAttributes()
        self._endpoints: dict[LinkEnd, LinkPt] = {
            LinkEnd.FROM: from_pt,
            LinkEnd.TO: to_pt,
        }
        # Offset history per tracking endpoint, seeded with the
        # creation position.
        self._offsets: dict[LinkEnd, Timeline] = {}
        for end, pt in self._endpoints.items():
            if pt.track_current:
                timeline = Timeline()
                timeline.append(created_at, pt.position)
                self._offsets[end] = timeline
        #: Encoded snapshot row (see :attr:`NodeRecord._encoded`).
        self._encoded: bytes | tuple | None = None

    # ------------------------------------------------------------------
    # existence

    def alive_at(self, time: Time) -> bool:
        """True when the link exists at ``time`` (0 = now)."""
        if time == CURRENT:
            return self.deleted_at is None
        if time < self.created_at:
            return False
        return self.deleted_at is None or time < self.deleted_at

    def require_alive(self, time: Time = CURRENT) -> None:
        """Raise :class:`LinkNotFoundError` unless alive at ``time``."""
        if not self.alive_at(time):
            raise LinkNotFoundError(
                f"link {self.index} does not exist at time {time}")

    def tombstone(self, time: Time) -> None:
        """Mark the link deleted at ``time`` (history stays readable)."""
        self.require_alive()
        self.deleted_at = time

    # ------------------------------------------------------------------
    # endpoints

    def endpoint(self, end: LinkEnd) -> LinkPt:
        """The endpoint as declared at creation (positions unresolved)."""
        return self._endpoints[end]

    @property
    def from_node(self) -> int:
        """NodeIndex of the source endpoint."""
        return self._endpoints[LinkEnd.FROM].node

    @property
    def to_node(self) -> int:
        """NodeIndex of the destination endpoint."""
        return self._endpoints[LinkEnd.TO].node

    def position_at(self, end: LinkEnd, time: Time = CURRENT) -> Position:
        """Attachment offset of ``end`` as of ``time``.

        Pinned endpoints always answer their fixed position; tracking
        endpoints answer from the offset history.
        """
        pt = self._endpoints[end]
        if not pt.track_current:
            return pt.position
        try:
            return self._offsets[end].at(time)
        except VersionError:
            raise VersionError(
                f"link {self.index} had no {end.value} attachment at "
                f"time {time}") from None

    def resolved_endpoint(self, end: LinkEnd, time: Time = CURRENT) -> LinkPt:
        """Endpoint with its position resolved as of ``time``."""
        pt = self._endpoints[end]
        if not pt.track_current:
            return pt
        return LinkPt(node=pt.node, position=self.position_at(end, time),
                      time=pt.time, track_current=True)

    def move_attachment(self, end: LinkEnd, position: Position,
                        time: Time) -> None:
        """Record a new attachment offset for a tracking endpoint.

        Called by ``modifyNode`` when a node revision shifts the offsets
        of links attached to it — the automatic update mechanism.
        """
        pt = self._endpoints[end]
        if not pt.track_current:
            raise VersionError(
                f"link {self.index} {end.value} endpoint is pinned; its "
                f"attachment cannot move")
        self._offsets[end].append(time, position)

    def ends_attached_to(self, node_index: int) -> list[LinkEnd]:
        """Which of this link's endpoints attach to ``node_index``."""
        return [
            end for end, pt in self._endpoints.items()
            if pt.node == node_index
        ]

    def clone(self) -> "LinkRecord":
        """Copy for a transaction's private write-set overlay.

        ``LinkPt`` endpoints are immutable and shared; offset timelines
        and attributes clone with structural sharing, so the copy can be
        mutated without disturbing readers still holding the original.
        """
        link = LinkRecord.__new__(LinkRecord)
        link.index = self.index
        link.created_at = self.created_at
        link.deleted_at = self.deleted_at
        link.attributes = self.attributes.clone()
        link._endpoints = dict(self._endpoints)
        link._offsets = {
            end: timeline.clone()
            for end, timeline in self._offsets.items()
        }
        link._encoded = None
        return link

    # ------------------------------------------------------------------
    # persistence

    def to_record(self) -> dict:
        """Encodable snapshot of the whole link."""
        return {
            "index": self.index,
            "created": self.created_at,
            "deleted": self.deleted_at,
            "from": self._endpoints[LinkEnd.FROM].to_record(),
            "to": self._endpoints[LinkEnd.TO].to_record(),
            "attributes": self.attributes.to_record(),
            "offsets": {
                end.value: [[stamp, offset] for stamp, offset in timeline]
                for end, timeline in self._offsets.items()
            },
        }

    @classmethod
    def from_record(cls, record: dict) -> "LinkRecord":
        """Inverse of :meth:`to_record`."""
        link = cls.__new__(cls)
        link.index = record["index"]
        link.created_at = record["created"]
        link.deleted_at = record["deleted"]
        link.attributes = VersionedAttributes.from_record(
            record["attributes"])
        link._endpoints = {
            LinkEnd.FROM: LinkPt.from_record(record["from"]),
            LinkEnd.TO: LinkPt.from_record(record["to"]),
        }
        link._offsets = {}
        for end, entries in record["offsets"].items():
            timeline = Timeline()
            for stamp, offset in entries:
                timeline.append(stamp, offset)
            link._offsets[LinkEnd(end)] = timeline
        link._encoded = None
        return link
