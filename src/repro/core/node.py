"""Node records: contents, version history, attributes, attachments.

Appendix §A.2: "Each node is either an archive or a file.  Complete
version histories are maintained for archives, only the current version is
available for files."  Archive contents live in a backward-delta chain
(:class:`repro.storage.deltas.DeltaStore`); file contents keep just the
current bytes.

A node's version history distinguishes *major* versions (content updates,
``getNodeVersions``'s ``Version₁⁺``) from *minor* versions (attribute and
link-attachment updates that leave contents untouched, ``Version₂*``).

Deletion is a tombstone: the paper promises "it is possible to see *any*
version of the hyperdocument back to its beginning", so ``deleteNode``
marks the node dead at a time rather than destroying its history.
"""

from __future__ import annotations

from repro.core.attributes import VersionedAttributes
from repro.core.types import (
    CURRENT,
    NodeIndex,
    NodeKind,
    Protections,
    Time,
    Version,
)
from repro.errors import (
    NodeNotFoundError,
    ProtectionError,
    RecoveryError,
    StaleVersionError,
    VersionError,
)
from repro.storage.cas import content_hash
from repro.storage.deltas import DeltaStore
from repro.storage.diff import Difference

__all__ = ["NodeRecord"]


class NodeRecord:
    """One hypertext node: uninterpreted contents plus metadata.

    Not thread-safe by itself; the graph serializes access through the
    transaction layer.
    """

    def __init__(self, index: NodeIndex, kind: NodeKind, created_at: Time,
                 catalog=None):
        self.index = index
        self.kind = kind
        self.created_at = created_at
        self.deleted_at: Time | None = None
        self.protections = Protections.READ_WRITE
        self.attributes = VersionedAttributes()
        #: Links whose *from* endpoint attaches to this node.
        self.out_links: set[int] = set()
        #: Links whose *to* endpoint attaches to this node.
        self.in_links: set[int] = set()
        self._explanations: dict[Time, str] = {created_at: "created"}
        self._minor_events: list[Version] = []
        #: The owning graph's blob catalog (or a transaction's journal
        #: view of it); every payload this node retains whole holds a
        #: ref there.  None for free-standing records (unit tests).
        self._catalog = catalog
        # Contents storage: archives get a delta chain, files a plain pair.
        self._archive: DeltaStore | None = (
            DeltaStore(b"", created_at, catalog=catalog)
            if kind is NodeKind.ARCHIVE else None
        )
        self._file_contents: bytes = b""
        self._file_time: Time = created_at
        self._file_hash: bytes | None = None
        #: This record's encoded snapshot row, kept by the checkpoint
        #: (see :meth:`GraphStore.encode_snapshot`).  Valid because a
        #: published record is never mutated: commits clone it, and the
        #: plain store's ``node_for_write`` clears it.
        self._encoded: bytes | None = None
        if kind is not NodeKind.ARCHIVE:
            self._file_hash = content_hash(b"")
            if catalog is not None:
                self._file_contents, self._file_hash = catalog.intern(
                    b"", self._file_hash)

    # ------------------------------------------------------------------
    # existence

    def alive_at(self, time: Time) -> bool:
        """True when the node exists at ``time`` (0 = now)."""
        if time == CURRENT:
            return self.deleted_at is None
        if time < self.created_at:
            return False
        return self.deleted_at is None or time < self.deleted_at

    def require_alive(self, time: Time = CURRENT) -> None:
        """Raise :class:`NodeNotFoundError` unless alive at ``time``."""
        if not self.alive_at(time):
            raise NodeNotFoundError(
                f"node {self.index} does not exist at time {time}")

    def tombstone(self, time: Time) -> None:
        """Mark the node deleted at ``time`` (history stays readable)."""
        self.require_alive()
        self.deleted_at = time

    # ------------------------------------------------------------------
    # contents

    @property
    def is_archive(self) -> bool:
        """True for archive nodes (full version history kept)."""
        return self.kind is NodeKind.ARCHIVE

    @property
    def current_time(self) -> Time:
        """``getNodeTimeStamp``: time of the current content version."""
        if self._archive is not None:
            return self._archive.current_time
        return self._file_time

    def contents_at(self, time: Time = CURRENT) -> bytes:
        """Contents as of ``time``; files only answer for the current."""
        if not self.protections.readable:
            raise ProtectionError(
                f"node {self.index} is not readable")
        if self._archive is not None:
            return self._archive.get(time)
        # Files keep only the current version: any time at or after the
        # last write answers it; earlier times are gone by design.
        if time != CURRENT and time < self._file_time:
            raise VersionError(
                f"node {self.index} is a file; only its current version "
                f"(time {self._file_time}) is available, not {time}")
        return self._file_contents

    def modify(self, contents: bytes, expected_time: Time, time: Time,
               explanation: str = "",
               ) -> tuple[bytes, list[Difference], bytes] | None:
        """Check in new contents (``modifyNode``).

        ``expected_time`` must equal the current version time — the
        optimistic-concurrency check the Appendix mandates ("Time must be
        equal to the version time of the current version of the node").

        Returns ``(base hash, forward script, new hash)`` for an archive
        node — the delta form a redo record may carry (see
        :meth:`modify_by_script`) — and None for a file node.
        """
        self._require_modifiable(expected_time)
        delta = None
        if self._archive is not None:
            base = self._archive.hash_at(-1)
            forward = self._archive.check_in(contents, time)
            delta = (base, forward, self._archive.hash_at(-1))
        else:
            contents = bytes(contents)
            digest = content_hash(contents)
            if self._catalog is not None:
                contents, digest = self._catalog.intern(contents, digest)
                if self._file_hash is not None:
                    self._catalog.release(self._file_hash)
            self._file_contents = contents
            self._file_hash = digest
            self._file_time = time
        self._explanations[time] = explanation
        return delta

    def modify_by_script(self, base: bytes, script: list, digest: bytes,
                         expected_time: Time, time: Time,
                         explanation: str = "") -> None:
        """Replay a check-in journaled as ``(base, forward script, hash)``.

        The same checks as :meth:`modify`, then
        :meth:`DeltaStore.check_in_script`, which raises
        :class:`RecoveryError` unless ``base`` is the current version's
        hash and the script yields ``digest``.
        """
        self._require_modifiable(expected_time)
        if self._archive is None:
            raise RecoveryError(
                f"node {self.index}: delta record for a node that keeps "
                f"no backward-delta chain")
        self._archive.check_in_script(base, script, digest, time)
        self._explanations[time] = explanation

    def _require_modifiable(self, expected_time: Time) -> None:
        if not self.protections.writable:
            raise ProtectionError(f"node {self.index} is not writable")
        if expected_time != self.current_time:
            raise StaleVersionError(
                f"node {self.index}: check-in expected version "
                f"{expected_time} but current is {self.current_time}")

    # ------------------------------------------------------------------
    # version history

    def record_minor_event(self, time: Time, explanation: str) -> None:
        """Record a non-content update (attribute edit, link attachment)."""
        self._minor_events.append(Version(time, explanation))

    def major_versions(self) -> list[Version]:
        """``Version₁⁺``: all content versions, oldest first."""
        if self._archive is not None:
            times = self._archive.times
        else:
            times = [self._file_time]
        return [
            Version(stamp, self._explanations.get(stamp, ""))
            for stamp in times
        ]

    def minor_versions(self) -> list[Version]:
        """``Version₂*``: non-content updates, oldest first."""
        return sorted(self._minor_events, key=lambda v: v.time)

    def content_version_times(self) -> list[Time]:
        """Times of all content versions (a file has exactly one)."""
        if self._archive is not None:
            return self._archive.times
        return [self._file_time]

    def version_time_at(self, time: Time = CURRENT) -> Time:
        """Time of the content version in effect at ``time`` (0 = now).

        The visibility-bounded companion of :attr:`current_time`: a
        snapshot reader pinned at a watermark asks for the version that
        existed then, not whatever a later commit checked in.
        """
        if time == CURRENT:
            return self.current_time
        stamps = [s for s in self.content_version_times() if s <= time]
        if not stamps:
            raise VersionError(
                f"node {self.index} had no version at time {time}")
        return stamps[-1]

    def storage_stats(self):
        """Delta-chain storage stats (archives only; None for files)."""
        if self._archive is None:
            return None
        return self._archive.stats()

    def clone(self) -> "NodeRecord":
        """Copy for a transaction's private write-set overlay.

        Containers are copied shallowly; the leaves they hold (bytes,
        Version, str) are immutable, and :class:`DeltaStore`/
        :class:`VersionedAttributes` clones share their payloads the same
        way — so mutating the clone never disturbs the original, which
        lock-free snapshot readers may still be traversing.
        """
        node = NodeRecord.__new__(NodeRecord)
        node.index = self.index
        node.kind = self.kind
        node.created_at = self.created_at
        node.deleted_at = self.deleted_at
        node.protections = self.protections
        node.attributes = self.attributes.clone()
        node.out_links = set(self.out_links)
        node.in_links = set(self.in_links)
        node._explanations = dict(self._explanations)
        node._minor_events = list(self._minor_events)
        node._catalog = self._catalog
        node._archive = (self._archive.clone()
                         if self._archive is not None else None)
        node._file_contents = self._file_contents
        node._file_time = self._file_time
        node._file_hash = self._file_hash
        node._encoded = None
        return node

    def rebind_catalog(self, catalog) -> None:
        """Point future intern/release traffic at ``catalog``.

        No refs move — the write-set overlay rebinds its clones to the
        transaction's catalog journal on first touch, and back to the
        base catalog when the commit publishes them.
        """
        self._catalog = catalog
        if self._archive is not None:
            self._archive.rebind_catalog(catalog)

    def attach_catalog(self, catalog) -> None:
        """Adopt ``catalog``, interning this node's retained payloads.

        Used when a store is rebuilt from a snapshot: the rebuilt
        records take their lineage's refs now.
        """
        self._catalog = catalog
        if self._archive is not None:
            self._archive.attach_catalog(catalog)
        else:
            if self._file_hash is None:
                self._file_hash = content_hash(self._file_contents)
            self._file_contents, self._file_hash = catalog.intern(
                self._file_contents, self._file_hash)

    # ------------------------------------------------------------------
    # persistence

    def to_record(self) -> dict:
        """Encodable snapshot of the whole node."""
        return {
            "index": self.index,
            "kind": self.kind.value,
            "created": self.created_at,
            "deleted": self.deleted_at,
            "protections": self.protections.value,
            "attributes": self.attributes.to_record(),
            "out": sorted(self.out_links),
            "in": sorted(self.in_links),
            "explanations": {
                str(stamp): text
                for stamp, text in self._explanations.items()
            },
            "minor": [event.to_record() for event in self._minor_events],
            "archive": (
                self._archive.to_record() if self._archive is not None
                else None),
            "file_contents": self._file_contents,
            "file_time": self._file_time,
            "file_hash": self._file_hash,
        }

    @classmethod
    def from_record(cls, record: dict) -> "NodeRecord":
        """Inverse of :meth:`to_record`."""
        node = cls.__new__(cls)
        node.index = record["index"]
        node.kind = NodeKind(record["kind"])
        node.created_at = record["created"]
        node.deleted_at = record["deleted"]
        node.protections = Protections(record["protections"])
        node.attributes = VersionedAttributes.from_record(
            record["attributes"])
        node.out_links = set(record["out"])
        node.in_links = set(record["in"])
        node._explanations = {
            int(stamp): text
            for stamp, text in record["explanations"].items()
        }
        node._minor_events = [
            Version.from_record(event) for event in record["minor"]
        ]
        node._catalog = None
        node._archive = (
            DeltaStore.from_record(record["archive"])
            if record["archive"] is not None else None)
        node._file_contents = record["file_contents"]
        node._file_time = record["file_time"]
        file_hash = record.get("file_hash")
        if file_hash is None and node._archive is None:
            # Pre-catalog record: derive the digest once.
            file_hash = content_hash(node._file_contents)
        node._file_hash = file_hash
        node._encoded = None
        return node
