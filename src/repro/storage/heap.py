"""Append-oriented record heap built on the pager.

The HAM's version-keeping design means records are almost never destroyed:
a "modify" writes a new record and re-points an index at it, while old
records remain reachable from version histories.  The heap therefore
optimizes for appends: records are framed (length + CRC32) and packed
back-to-back across pages; a :class:`RecordId` is the record's byte offset,
which stays valid for the life of the file.

Page 0 is the heap header: a magic string, a format version, and the
next-free byte offset (the append cursor).
"""

from __future__ import annotations

import struct
import threading
import zlib
from typing import Iterator

from repro.errors import ChecksumError, StorageError
from repro.storage.pager import Pager, PAGE_SIZE
from repro.storage.serializer import RECORD_HEADER, unpack_record
from repro.testing import faults

__all__ = ["RecordHeap", "RecordId"]

#: A record identifier: its byte offset in the heap file.
RecordId = int

_MAGIC = b"NEPTHEAP"
_FORMAT_VERSION = 2
#: magic, version, append cursor, CRC32 of the preceding fields.
_HEADER = struct.Struct("<8sIQI")
#: Bytes of parts :meth:`RecordHeap.append` gathers per pager run.
_RUN_BYTES = 16 * PAGE_SIZE


class RecordHeap:
    """Variable-length record storage with stable record ids.

    Thread-safe.  Records are immutable once written; logical updates are
    the caller's job (append a new record, repoint the reference).

    ``align_records=True`` starts every record on a page boundary, so
    appending a record never dirties a page that holds earlier committed
    records — a crash mid-append then cannot corrupt them.
    ``rescue_header=True`` recovers from a torn or corrupt header page by
    re-deriving the append cursor from a full record scan.
    """

    def __init__(self, path: str, cache_pages: int = 256,
                 align_records: bool = False, rescue_header: bool = False):
        self._pager = Pager(path, cache_pages=cache_pages)
        self._lock = threading.RLock()
        self._align = align_records
        if self._pager.page_count == 0:
            self._pager.allocate_page()
            self._cursor = PAGE_SIZE  # data starts after the header page
            self._write_header()
        else:
            try:
                self._cursor = self._read_header()
            except StorageError:
                if not rescue_header:
                    raise
                self._cursor = self._rescue_cursor()
                self._write_header()

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def path(self) -> str:
        """Path of the underlying heap file."""
        return self._pager.path

    def close(self) -> None:
        """Persist the header and close the underlying pager."""
        with self._lock:
            self._write_header()
            self._pager.close()

    def __enter__(self) -> "RecordHeap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def flush(self) -> None:
        """Write header and all dirty pages to the OS."""
        with self._lock:
            self._write_header()
            self._pager.flush()

    def sync(self) -> None:
        """Flush and fsync the heap file."""
        with self._lock:
            self._write_header()
            self._pager.sync()

    # ------------------------------------------------------------------
    # record operations

    def append(self, *parts: bytes) -> RecordId:
        """Append one record whose payload is ``parts`` joined; returns
        its stable :class:`RecordId`.

        The parts are never joined: their length and CRC32 are summed
        incrementally, and they are written one after another behind
        the frame header, so a many-part snapshot costs no payload-sized
        copy.  The ``heap.write`` fault point sees the framed record as
        ``parts`` (header first).
        """
        length = 0
        checksum = 0
        for part in parts:
            length += len(part)
            checksum = zlib.crc32(part, checksum)
        framed = (RECORD_HEADER.pack(length, checksum), *parts)
        with self._lock:
            record_id = self._cursor
            if self._align and record_id % PAGE_SIZE:
                record_id += PAGE_SIZE - record_id % PAGE_SIZE
            if faults.INJECTOR is not None:
                faults.fire("heap.write", path=self.path, offset=record_id,
                            parts=framed)
            self._cursor = self._write_parts(record_id, framed)
            return record_id

    def read(self, record_id: RecordId) -> bytes:
        """Read the record at ``record_id``; checksum-verified."""
        with self._lock:
            if not PAGE_SIZE <= record_id < self._cursor:
                raise StorageError(
                    f"record id {record_id} out of heap bounds")
            header = self._read_bytes(record_id, RECORD_HEADER.size)
            (length, __) = RECORD_HEADER.unpack(header)
            framed = header + self._read_bytes(
                record_id + RECORD_HEADER.size, length)
            payload, __ = unpack_record(framed)
            return payload

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Iterate ``(record_id, payload)`` over all records in order."""
        with self._lock:
            cursor = PAGE_SIZE
            end = self._cursor
        while cursor < end:
            payload = self.read(cursor)
            yield cursor, payload
            cursor += RECORD_HEADER.size + len(payload)

    @property
    def size_bytes(self) -> int:
        """Total bytes used by heap records (excluding the header page)."""
        with self._lock:
            return self._cursor - PAGE_SIZE

    # ------------------------------------------------------------------
    # byte-level access across page boundaries

    def _write_parts(self, offset: int, parts) -> int:
        """Write ``parts`` back to back from ``offset``; returns the end.

        Parts (snapshot rows, mostly small) are gathered into runs of at
        least :data:`_RUN_BYTES`, so the pager is called per page rather
        than per part, and no run outgrows one part plus that bound.
        """
        run = bytearray()
        for part in parts:
            run += part
            if len(run) >= _RUN_BYTES:
                self._write_bytes(offset, run)
                offset += len(run)
                run = bytearray()
        self._write_bytes(offset, run)
        return offset + len(run)

    def _write_bytes(self, offset: int, data: bytes) -> None:
        position = 0
        with memoryview(data) as view:
            while position < len(view):
                page_id = (offset + position) // PAGE_SIZE
                in_page = (offset + position) % PAGE_SIZE
                while page_id >= self._pager.page_count:
                    self._pager.allocate_page()
                chunk = view[position:position + PAGE_SIZE - in_page]
                self._pager.write_slice(page_id, in_page, chunk)
                position += len(chunk)

    def _read_bytes(self, offset: int, length: int) -> bytes:
        parts = []
        position = 0
        while position < length:
            page_id = (offset + position) // PAGE_SIZE
            in_page = (offset + position) % PAGE_SIZE
            want = min(length - position, PAGE_SIZE - in_page)
            page = self._pager.read_page(page_id)
            parts.append(page[in_page:in_page + want])
            position += want
        return b"".join(parts)

    # ------------------------------------------------------------------
    # header

    def _write_header(self) -> None:
        body = _HEADER.pack(_MAGIC, _FORMAT_VERSION, self._cursor, 0)
        checksum = zlib.crc32(body[:-4])
        self._pager.write_slice(0, 0, _HEADER.pack(
            _MAGIC, _FORMAT_VERSION, self._cursor, checksum))

    def _read_header(self) -> int:
        raw = self._pager.read_page(0)[:_HEADER.size]
        magic, version, cursor, checksum = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise StorageError(
                f"{self.path}: not a record heap (bad magic {magic!r})")
        if version != _FORMAT_VERSION:
            raise StorageError(
                f"{self.path}: unsupported heap format version {version}")
        if checksum != zlib.crc32(raw[:-4]):
            raise ChecksumError(
                f"{self.path}: heap header failed its checksum")
        return cursor

    def _rescue_cursor(self) -> int:
        """Re-derive the append cursor by walking the records.

        Valid frames advance packed; anything unreadable (torn tail,
        alignment padding — note a zeroed frame header is a *valid empty
        record*, since CRC32 of no bytes is 0) skips to the next page
        boundary.  Only non-empty records advance the rescued cursor, so
        zero padding never inflates it.
        """
        end = self._pager.page_count * PAGE_SIZE
        offset = PAGE_SIZE
        cursor = PAGE_SIZE
        while offset + RECORD_HEADER.size <= end:
            try:
                (length, __) = RECORD_HEADER.unpack(
                    self._read_bytes(offset, RECORD_HEADER.size))
                if offset + RECORD_HEADER.size + length > end:
                    raise StorageError("record extends past heap end")
                framed = self._read_bytes(
                    offset, RECORD_HEADER.size + length)
                unpack_record(framed)
            except (ChecksumError, StorageError):
                offset += PAGE_SIZE - offset % PAGE_SIZE or PAGE_SIZE
                continue
            offset += RECORD_HEADER.size + length
            if length:
                cursor = offset
        return cursor
