"""Backward-delta version chains in the style of RCS.

The paper (§3): "Because version control is a central theme of Neptune, we
wanted effective storage of many versions of such data without copying each
individual item; for nodes this is provided by backward deltas similar to
RCS [Tic82]."

A :class:`DeltaStore` holds every version of one archive node's contents.
The *current* version is stored whole; each older version is a reverse
difference script against its successor, so:

- reading the current version is O(1) — by far the common case;
- reading K versions back costs one split of the current version into
  lines, K in-place splices of the lines each delta edits, one join, and
  a content-hash check of the result;
- checking in a new version costs one diff (new vs. previous current) and
  stores only the changed tokens;
- replaying a journaled check-in costs no diff at all: the redo log
  carries the forward script, and :meth:`DeltaStore.check_in_script`
  applies it to the current version under a base- and result-hash check;
- loading a chain from a snapshot decodes none of its history: the
  record carries the deltas as one encoded list, which the chain keeps
  packed until a read walks into it, and re-encoding that chain at the
  next checkpoint copies those bytes and encodes only the deltas checked
  in since.

Two layers ride on top of the chains (see :mod:`repro.storage.cas` and
:mod:`repro.storage.blockcache`):

- every version is identified by a blake2b **content hash**, computed at
  check-in and carried for the chain's whole life; payloads a chain
  retains whole are interned (refcounted, deduplicated) in the owning
  graph's :class:`~repro.storage.cas.BlobCatalog`;
- old-version materializations are **memoized** in a process-wide block
  cache keyed by ``(chain identity, version hash)`` — the hash pins the
  exact bytes, so cached entries are immutable facts needing no
  invalidation, even as transactions roll back and re-check-in at the
  same chain position.  ``chain.cache = None`` disables memoization for
  one chain; assigning a private
  :class:`~repro.storage.blockcache.BlockCache` isolates it.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from repro.errors import RecoveryError, StorageError, VersionError
from repro.storage import blockcache
from repro.storage.cas import content_hash
from repro.storage.diff import (
    Difference,
    DiffKind,
    apply_differences_bytes,
    apply_scripts_bytes,
    diff_bytes,
    invert_differences,
)
from repro.storage.serializer import decode_value, encode_value, list_header

__all__ = ["DeltaStore", "DeltaChainStats", "encode_script",
           "decode_script", "script_bytes"]

#: Chain identities for cache keys.  A fresh id per constructed chain —
#: ``id()`` would be reusable after garbage collection.  Clones *share*
#: their original's id: the hash component makes every keyed value
#: immutable, so two diverging chains can only ever agree on a key when
#: they agree on the bytes.
_CHAIN_IDS = itertools.count(1)

#: Sentinel: "resolve the process-wide default cache at read time" —
#: distinct from None (memoization disabled).
_PROCESS_CACHE = object()

#: Bytes of the header an encoded list starts with (tag, item count).
_LIST_HEADER = len(list_header(0))


@dataclass(frozen=True)
class DeltaChainStats:
    """Storage accounting for one version chain."""

    version_count: int
    current_bytes: int
    delta_bytes: int

    @property
    def total_bytes(self) -> int:
        """Bytes needed to store the whole chain."""
        return self.current_bytes + self.delta_bytes


def _encode_script(script: list[Difference]) -> list:
    """Difference script → encodable structure (lists of bytes tokens)."""
    return [
        [diff.kind.value, diff.position, list(diff.old), list(diff.new)]
        for diff in script
    ]


def _decode_script(data: list) -> list[Difference]:
    """Inverse of :func:`_encode_script`."""
    return [
        Difference(DiffKind(kind), position, tuple(old), tuple(new))
        for kind, position, old, new in data
    ]


# Public names: the wire protocol and persistence both ship scripts.
encode_script = _encode_script
decode_script = _decode_script


def script_bytes(script: list[Difference]) -> int:
    """Approximate stored size of a script: the token payloads it carries."""
    return sum(
        sum(len(token) for token in diff.old)
        + sum(len(token) for token in diff.new)
        for diff in script
    )


class _PackedDeltas:
    """A chain's loaded backward deltas, kept encoded until a read needs one.

    ``data`` is exactly ``encode_value([encoded script, ...])`` for the
    oldest ``count`` deltas — the ``"deltas"`` field of the record the
    chain was loaded from.  The first read into them decodes the whole
    list once and keeps the result.  Both are immutable afterwards, so a
    chain and its clones share one instance.
    """

    __slots__ = ("data", "count", "_scripts")

    def __init__(self, data: bytes, count: int):
        self.data = data
        self.count = count
        self._scripts: list[list[Difference]] | None = None

    def scripts(self) -> list[list[Difference]]:
        """The decoded deltas, oldest first.

        The bytes reach here from disk or the wire, past the record
        checksums, so scripts that do not decode raise
        :class:`StorageError`.  (The list header, and so ``count``, was
        checked when the chain was loaded.)
        """
        scripts = self._scripts
        if scripts is None:
            try:
                scripts = [_decode_script(script)
                           for script in decode_value(self.data)]
            except (ValueError, TypeError, RecursionError) as exc:
                raise StorageError(
                    f"packed deltas do not decode: {exc}") from None
            self._scripts = scripts  # a racing decode stores an equal list
        return scripts


class _CachedChain:
    """A chain's memoized read path: the block cache and the hash check.

    :class:`DeltaStore` supplies ``_walk``, ``_times``, ``_hashes`` and
    ``_current``.  The standing benchmark's tracer (``bench/trace.py``)
    times every version read by wrapping ``_CachedChain._read`` by name,
    so the read path keeps its own class body.
    """

    @property
    def cache(self):
        """The block cache memoizing this chain's materializations.

        Resolved per read, so reconfiguring the process-wide cache
        takes effect immediately.  Assign ``None`` to disable, or a
        private :class:`~repro.storage.blockcache.BlockCache` to
        isolate this chain (the differential suite runs all three).
        """
        if self._cache is _PROCESS_CACHE:
            return blockcache.default_cache()
        return self._cache

    @cache.setter
    def cache(self, value) -> None:
        self._cache = value

    def hash_at(self, index: int) -> bytes:
        """Content hash of version ``index`` (0 = oldest)."""
        return self._hashes[index]

    def _read(self, index: int) -> bytes:
        """Version ``index``, through the memoization cache.

        The current version is returned as stored.  An older one comes
        from the cache or, on a miss, from :meth:`_materialize`, whose
        hash check runs before the result is offered to the cache: an
        entry always holds the bytes its key's hash names.
        """
        if index == len(self._times) - 1:
            return self._current
        cache = self.cache
        if cache is None:
            return self._materialize(index)
        key = (self._chain_id, self._hashes[index])
        blob = cache.get(key)
        if blob is None:
            blob = self._materialize(index)
            cache.put(key, blob)
        return blob

    def _materialize(self, index: int) -> bytes:
        """Version ``index`` rebuilt by one walk, checked against its hash.

        The walk (:func:`~repro.storage.diff.apply_scripts_bytes`) keeps
        one token list across its deltas.  The content hash recorded at
        check-in proves the bytes it ends with, so a delta that was
        corrupted yet still applies raises :class:`StorageError` instead
        of being served, and cached, as that version.
        """
        contents = self._walk(index)
        digest = content_hash(contents)
        if digest != self._hashes[index]:
            raise StorageError(
                f"version {index} (time {self._times[index]}) rebuilds to "
                f"hash {digest.hex()}, recorded {self._hashes[index].hex()}")
        return contents


class DeltaStore(_CachedChain):
    """All versions of one byte string, stored as backward deltas.

    Versions are identified by strictly increasing integer times (the HAM's
    logical clock).  ``get(0)`` returns the current version; ``get(t)``
    returns the version in effect at time ``t`` (the latest version whose
    check-in time is <= ``t``).

    The deltas live in two runs.  A chain loaded from a record keeps the
    record's deltas as a packed prefix (:class:`_PackedDeltas`), decoded
    the first time a read needs a version inside it; every check-in
    since — replayed from the log, applied by a replica, or committed
    live — appends its decoded delta to the tail.  A chain built by
    check-ins alone has no prefix.
    """

    def __init__(self, initial: bytes, time: int, catalog=None):
        if time <= 0:
            raise VersionError("version time must be positive")
        initial = bytes(initial)
        digest = content_hash(initial)
        self._catalog = catalog
        if catalog is not None:
            initial, digest = catalog.intern(initial, digest)
        self._current = initial
        self._times: list[int] = [time]
        #: _hashes[i] is the content hash of version i — the cache key
        #: component, and the catalog key while version i is current.
        self._hashes: list[bytes] = [digest]
        #: The oldest deltas, still encoded as loaded; None when the
        #: chain was not loaded from a record (or its record had none).
        self._packed: _PackedDeltas | None = None
        # Delta i transforms version i+1 back into version i (both
        # indices into _times).  _tail[j] is delta (packed count) + j;
        # the two runs together hold len(_times) - 1 deltas.
        self._tail: list[list[Difference]] = []
        self._chain_id = next(_CHAIN_IDS)
        self._cache = _PROCESS_CACHE

    # ------------------------------------------------------------------
    # writing

    def check_in(self, contents: bytes, time: int) -> list[Difference]:
        """Store a new current version with timestamp ``time``.

        Returns the forward script (previous current → ``contents``)
        whose inverse the chain stored: the redo log may journal it in
        place of the contents (see :meth:`check_in_script`).
        """
        self._require_advance(time)
        contents = bytes(contents)
        forward = diff_bytes(self._current, contents)
        self._push(contents, content_hash(contents), forward, time)
        return forward

    def check_in_script(self, base: bytes, script: list, digest: bytes,
                        time: int) -> None:
        """Replay a check-in journaled as an encoded forward script.

        ``base`` must be the current version's hash and the script's
        result must hash to ``digest``; anything else means the log and
        the chain disagree, and raises :class:`RecoveryError` rather than
        storing a wrong version.  No diff runs: the stored delta is the
        inverse of the journaled script, exactly what the live check-in
        stored.
        """
        self._require_advance(time)
        if base != self._hashes[-1]:
            raise RecoveryError(
                f"delta record for version {time} expects base "
                f"{bytes(base).hex()}, chain is at "
                f"{self._hashes[-1].hex()}")
        try:
            forward = _decode_script(script)
            contents = apply_differences_bytes(self._current, forward)
        except (ValueError, TypeError) as exc:
            raise RecoveryError(
                f"delta record for version {time} does not apply: "
                f"{exc}") from exc
        result = content_hash(contents)
        if result != digest:
            raise RecoveryError(
                f"delta record for version {time} yields hash "
                f"{result.hex()}, journaled {bytes(digest).hex()}")
        self._push(contents, result, forward, time)

    def _require_advance(self, time: int) -> None:
        if time <= self._times[-1]:
            raise VersionError(
                f"version time {time} does not advance past "
                f"{self._times[-1]}")

    def _push(self, contents: bytes, digest: bytes,
              forward: list[Difference], time: int) -> None:
        """Make ``contents`` current, storing ``forward``'s inverse."""
        previous_digest = self._hashes[-1]
        if self._catalog is not None:
            contents, digest = self._catalog.intern(contents, digest)
        self._tail.append(invert_differences(forward))
        self._times.append(time)
        self._hashes.append(digest)
        self._current = contents
        if self._catalog is not None:
            # The predecessor is now delta-represented, not retained
            # whole; its current-slot ref goes.  Under a transaction's
            # CatalogJournal this release is deferred to commit.
            self._catalog.release(previous_digest)

    # ------------------------------------------------------------------
    # reading

    @property
    def current_time(self) -> int:
        """Timestamp of the current version."""
        return self._times[-1]

    @property
    def times(self) -> list[int]:
        """All version timestamps, oldest first."""
        return list(self._times)

    def version_index_at(self, time: int) -> int:
        """Index of the version in effect at ``time`` (0 = current)."""
        if time == 0:
            return len(self._times) - 1
        if time < self._times[0]:
            raise VersionError(
                f"no version exists at time {time} "
                f"(first version is at {self._times[0]})")
        # Latest version with check-in time <= requested time.
        return bisect.bisect_right(self._times, time) - 1

    def get(self, time: int = 0) -> bytes:
        """Contents at ``time`` (0 = current); old versions memoized."""
        return self._read(self.version_index_at(time))

    def get_exact(self, time: int) -> bytes:
        """Contents of the version checked in at exactly ``time``."""
        if time == 0 or time == self._times[-1]:
            return self._current
        # _times is ascending, so an exact match is a bisect probe away —
        # no linear scan over a long version chain.
        index = bisect.bisect_left(self._times, time)
        if index == len(self._times) or self._times[index] != time:
            raise VersionError(f"no version was checked in at time {time}")
        return self._read(index)

    def deltas(self) -> list[list[Difference]]:
        """Every stored backward delta, oldest first.

        Delta ``i`` turns version ``i + 1`` back into version ``i``.
        Decodes a packed prefix (once; see :class:`_PackedDeltas`).
        """
        if self._packed is None:
            return list(self._tail)
        return self._packed.scripts() + self._tail

    def _walk(self, index: int) -> bytes:
        """Version ``index``: the backward deltas from the current one.

        A version at or past the packed prefix needs only the tail.  An
        older one decodes the prefix; since its bytes came from disk or
        the wire, a delta there that fails to apply raises
        :class:`StorageError` (a wrong result that applies is caught by
        the hash check in :meth:`_materialize`).
        """
        packed = self._packed
        start = 0 if packed is None else packed.count
        if index >= start:
            return apply_scripts_bytes(self._current,
                                       reversed(self._tail[index - start:]))
        scripts = itertools.chain(reversed(self._tail),
                                  reversed(packed.scripts()[index:]))
        try:
            return apply_scripts_bytes(self._current, scripts)
        except (ValueError, TypeError, AttributeError) as exc:
            raise StorageError(
                f"version {index} (time {self._times[index]}) does not "
                f"rebuild from its stored deltas: {exc}") from None

    def clone(self) -> "DeltaStore":
        """Independent copy sharing the version payloads.

        ``_current`` is immutable ``bytes``, the packed prefix is
        immutable once decoded, and the stored delta scripts are never
        mutated after check-in, so only the list spines need copying —
        the clone and the original can then diverge freely
        (copy-on-write transaction overlays rely on this).  Catalog refs
        are *shared*, owned by the logical chain lineage: the write-set
        machinery rebinds the clone to its transaction's catalog journal,
        which journals only the deltas the transaction itself makes.
        """
        copy = DeltaStore.__new__(DeltaStore)
        copy._current = self._current
        copy._times = list(self._times)
        copy._hashes = list(self._hashes)
        copy._packed = self._packed
        copy._tail = list(self._tail)
        copy._catalog = self._catalog
        copy._chain_id = self._chain_id
        copy._cache = self._cache
        return copy

    # ------------------------------------------------------------------
    # catalog attachment

    def rebind_catalog(self, catalog) -> None:
        """Point future intern/release traffic at ``catalog``.

        No refs move: used when a transaction clones the chain behind
        its catalog journal, and again when the commit publishes it back
        onto the base catalog.
        """
        self._catalog = catalog

    def attach_catalog(self, catalog) -> None:
        """Adopt ``catalog``, interning the retained-whole payload.

        Used when a chain is rebuilt from a record (snapshot load): the
        rebuilt chain takes its lineage's refs now.
        """
        self._catalog = catalog
        self._current, __ = catalog.intern(self._current, self._hashes[-1])

    # ------------------------------------------------------------------
    # accounting / persistence

    def stats(self) -> DeltaChainStats:
        """Storage accounting for benchmark B1."""
        return DeltaChainStats(
            version_count=len(self._times),
            current_bytes=len(self._current),
            delta_bytes=sum(script_bytes(s) for s in self.deltas()),
        )

    def to_record(self) -> dict:
        """Encodable snapshot of the whole chain (for the record heap).

        ``"deltas"`` is one ``bytes`` value: exactly
        ``encode_value([encoded script, ...])`` of every delta, oldest
        first, so a snapshot decoder reads it as one slice.  A packed
        prefix is spliced in as it was loaded — a new list header, its
        items, then the encoded tail — so re-encoding a loaded chain
        costs a copy plus the deltas checked in since.
        """
        tail = encode_value([_encode_script(s) for s in self._tail])
        packed = self._packed
        if packed is None:
            deltas = tail
        elif not self._tail:
            deltas = packed.data
        else:
            deltas = b"".join([
                list_header(packed.count + len(self._tail)),
                memoryview(packed.data)[_LIST_HEADER:],
                memoryview(tail)[_LIST_HEADER:]])
        return {
            "current": self._current,
            "times": list(self._times),
            "hashes": list(self._hashes),
            "deltas": deltas,
        }

    @classmethod
    def from_record(cls, record: dict) -> "DeltaStore":
        """Rebuild a chain from :meth:`to_record` output.

        The deltas stay packed (see :class:`_PackedDeltas`); only their
        list header is checked here, against the version count.  A
        record written before the packed form carries ``"deltas"`` as a
        list of encoded scripts, decoded here into the tail.  Records
        written before content addressing carry no ``hashes``; they are
        recomputed once here (one backward walk of the chain).
        """
        store = cls.__new__(cls)
        store._current = record["current"]
        store._times = list(record["times"])
        count = len(store._times) - 1
        deltas = record["deltas"]
        store._packed = None
        if isinstance(deltas, list):
            store._tail = [_decode_script(s) for s in deltas]
        else:
            if deltas[:_LIST_HEADER] != list_header(count):
                raise StorageError(
                    f"chain record's deltas do not open a list of "
                    f"{count} scripts")
            store._tail = []
            if count:
                store._packed = _PackedDeltas(deltas, count)
        store._catalog = None
        store._chain_id = next(_CHAIN_IDS)
        store._cache = _PROCESS_CACHE
        hashes = record.get("hashes")
        if hashes:
            store._hashes = [bytes(digest) for digest in hashes]
        else:
            store._hashes = store._recompute_hashes()
        return store

    def _recompute_hashes(self) -> list[bytes]:
        hashes: list[bytes] = [b""] * len(self._times)
        contents = self._current
        hashes[-1] = content_hash(contents)
        deltas = self.deltas()
        for index in range(len(deltas) - 1, -1, -1):
            contents = apply_differences_bytes(contents, deltas[index])
            hashes[index] = content_hash(contents)
        return hashes
