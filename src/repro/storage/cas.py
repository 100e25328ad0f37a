"""Content-addressable storage for node-content versions.

Every payload a node retains *whole* — a version chain's current
version, a file node's contents — is keyed by its blake2b content hash
in the owning graph's :class:`BlobCatalog`.  The catalog interns
payloads: identical bytes checked into different versions, contexts (a
context copy re-checks the same contents into a fresh node), or nodes
are stored once and shared by reference, with a refcount tracking how
many chain slots retain each blob.

What the hashes buy:

- **Dedup accounting** — :meth:`BlobCatalog.stats` measures the
  logical-vs-stored byte ratio (benchmark B16's dedup column).
- **Cache keys** — a version's hash plus its chain's identity key the
  block cache (:mod:`repro.storage.blockcache`): the hash pins the
  exact bytes, so cached materializations are immutable facts that
  never need invalidating.
- **Manifest bootstrap** — ``repl_snapshot`` ships a *stripped*
  snapshot (payload sites replaced by ``None``; the hashes are already
  in every chain record) plus only the blobs the replica reports it
  does not hold, so re-bootstrapping a replica that kept its old
  snapshot transfers a near-empty diff
  (:func:`strip_snapshot_blobs` / :func:`inflate_snapshot_blobs`).

Transactions never release refs early: a :class:`CatalogJournal` wraps
the catalog for the life of a write-set overlay — interns land in the
shared catalog immediately (so concurrent transactions dedup against
each other), releases are deferred to commit, and abort releases only
what the transaction interned.  Readers never consult the catalog at
all: every chain keeps direct references to its payload bytes, so a
release can never snatch a blob out from under a pinned MVCC reader.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from repro.errors import StorageError
from repro.tools.metrics import CACHE as _CACHE

__all__ = ["BlobCatalog", "CatalogJournal", "CatalogStats", "DIGEST_SIZE",
           "MIN_SHIPPED_BLOB", "collect_snapshot_blobs", "content_hash",
           "inflate_snapshot_blobs", "strip_snapshot_blobs"]

#: blake2b digest width.  20 bytes (160 bits) keeps manifests compact
#: while leaving collision odds far below memory-corruption odds.
DIGEST_SIZE = 20

#: Payloads smaller than this ship inline in snapshots rather than as
#: catalog blobs: a 20-byte digest plus framing buys nothing on them.
MIN_SHIPPED_BLOB = 64


def content_hash(payload: bytes) -> bytes:
    """The content digest keying ``payload`` everywhere in the system."""
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()


@dataclass(frozen=True)
class CatalogStats:
    """Dedup accounting for one :class:`BlobCatalog`."""

    blobs: int
    refs: int
    stored_bytes: int
    logical_bytes: int

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes per stored byte (1.0 = nothing deduplicated)."""
        if self.stored_bytes == 0:
            return 1.0
        return self.logical_bytes / self.stored_bytes


class BlobCatalog:
    """Refcounted intern pool of retained-whole payloads, hash-keyed.

    Thread-safe.  One per :class:`~repro.core.graph.GraphStore`; chains
    take one ref per slot that retains a payload whole and release it
    when the slot moves on (superseded current, rolled-back version,
    rewritten file contents).  Readers hold payload bytes directly and
    never go through the catalog, so refcounts govern only the manifest,
    the dedup accounting, and snapshot shipping — never liveness.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: digest -> [payload, refcount]
        self._blobs: dict[bytes, list] = {}

    def intern(self, payload: bytes,
               digest: bytes | None = None) -> tuple[bytes, bytes]:
        """Store (or find) ``payload``; returns ``(canonical, digest)``.

        The returned payload is the catalog's canonical object for those
        bytes — callers keep *it*, so identical contents share one
        object in memory, not just one catalog entry.
        """
        payload = bytes(payload)
        if digest is None:
            digest = content_hash(payload)
        with self._lock:
            entry = self._blobs.get(digest)
            if entry is None:
                self._blobs[digest] = [payload, 1]
                _CACHE.increment("interned_blobs")
            else:
                entry[1] += 1
                payload = entry[0]
                _CACHE.increment("dedup_hits")
        return payload, digest

    def release(self, digest: bytes) -> None:
        """Drop one ref on ``digest``; the entry goes at zero refs."""
        with self._lock:
            entry = self._blobs.get(digest)
            if entry is None:
                return  # already gone (idempotent under journal replays)
            entry[1] -= 1
            if entry[1] <= 0:
                del self._blobs[digest]

    def get(self, digest: bytes) -> bytes | None:
        with self._lock:
            entry = self._blobs.get(digest)
            return entry[0] if entry is not None else None

    def __contains__(self, digest: bytes) -> bool:
        with self._lock:
            return digest in self._blobs

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs)

    def manifest(self) -> list[bytes]:
        """Every digest currently retained, sorted."""
        with self._lock:
            return sorted(self._blobs)

    def payloads(self) -> dict[bytes, bytes]:
        """A ``digest -> payload`` copy (resync hands this to inflate)."""
        with self._lock:
            return {digest: entry[0]
                    for digest, entry in self._blobs.items()}

    def stats(self) -> CatalogStats:
        with self._lock:
            refs = 0
            stored = 0
            logical = 0
            for payload, count in self._blobs.values():
                refs += count
                stored += len(payload)
                logical += len(payload) * count
            return CatalogStats(blobs=len(self._blobs), refs=refs,
                                stored_bytes=stored, logical_bytes=logical)


class CatalogJournal:
    """Transaction-scoped catalog view: intern now, release at commit.

    A write-set overlay's cloned records intern through this journal so
    their dedup lands in the shared catalog immediately, while releases
    (superseded versions) stay pending until the transaction's fate is
    known:

    - :meth:`commit` applies the deferred releases — the superseded
      payloads really are no longer retained;
    - :meth:`abort` instead releases everything the transaction
      interned, restoring the catalog to its pre-transaction refcounts.
    """

    def __init__(self, base: BlobCatalog):
        self.base = base
        self._interned: list[bytes] = []
        self._released: list[bytes] = []

    def intern(self, payload: bytes,
               digest: bytes | None = None) -> tuple[bytes, bytes]:
        payload, digest = self.base.intern(payload, digest)
        self._interned.append(digest)
        return payload, digest

    def release(self, digest: bytes) -> None:
        self._released.append(digest)

    def get(self, digest: bytes) -> bytes | None:
        return self.base.get(digest)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self.base

    def commit(self) -> None:
        """The transaction published: apply its deferred releases."""
        released, self._released = self._released, []
        self._interned = []
        for digest in released:
            self.base.release(digest)

    def abort(self) -> None:
        """The transaction dropped: un-intern everything it added."""
        interned, self._interned = self._interned, []
        self._released = []
        for digest in interned:
            self.base.release(digest)


# ----------------------------------------------------------------------
# Snapshot blob surgery: the payload sites inside an encodable graph
# snapshot (see GraphStore.to_snapshot) whose digests the chain records
# already carry, so a payload can travel as a hash reference.

def _archive_sites(archive: dict):
    hashes = archive.get("hashes")
    if not hashes:
        return  # pre-catalog record: nothing addressable by hash
    yield archive, "current", bytes(hashes[-1])


def _node_sites(record: dict):
    archive = record.get("archive")
    if archive is not None:
        yield from _archive_sites(archive)
    file_hash = record.get("file_hash")
    if file_hash is not None:
        yield record, "file_contents", bytes(file_hash)


def collect_snapshot_blobs(snapshot: dict) -> dict[bytes, bytes]:
    """``digest -> payload`` for every hash-addressable site present.

    Used by a restarting replica to harvest the blobs its previous
    on-disk snapshot already holds, so ``repl_snapshot(have=...)`` can
    skip shipping them.  Sites already stripped (``None``) or below the
    shipping threshold are ignored.
    """
    blobs: dict[bytes, bytes] = {}
    for record in snapshot.get("nodes", ()):
        for container, key, digest in _node_sites(record):
            payload = container[key]
            if payload is not None and len(payload) >= MIN_SHIPPED_BLOB:
                blobs[digest] = bytes(payload)
    return blobs


def strip_snapshot_blobs(snapshot: dict,
                         min_bytes: int = MIN_SHIPPED_BLOB,
                         ) -> dict[bytes, bytes]:
    """Replace large payloads with ``None``; returns ``digest -> payload``.

    Mutates ``snapshot`` in place — callers pass a freshly built
    snapshot they own.  The digests stay derivable from each record's
    ``hashes``/``file_hash`` fields, so no marker is needed: ``None`` at
    a payload site means "look it up by hash".
    """
    blobs: dict[bytes, bytes] = {}
    for record in snapshot.get("nodes", ()):
        for container, key, digest in _node_sites(record):
            payload = container[key]
            if payload is None or len(payload) < min_bytes:
                continue
            blobs[digest] = bytes(payload)
            container[key] = None
    return blobs


def inflate_snapshot_blobs(snapshot: dict, lookup) -> dict:
    """Restore stripped payload sites through ``lookup(digest)``.

    The inverse of :func:`strip_snapshot_blobs`; raises
    :class:`~repro.errors.StorageError` when a referenced blob is
    missing from both the shipped set and the local holdings.
    """
    for record in snapshot.get("nodes", ()):
        for container, key, digest in _node_sites(record):
            if container[key] is None:
                payload = lookup(digest)
                if payload is None:
                    raise StorageError(
                        f"snapshot references blob {digest.hex()} "
                        f"but it was neither shipped nor held locally")
                container[key] = bytes(payload)
    return snapshot
