"""Append-oriented record heap over one file.

The HAM's version-keeping design means records are almost never destroyed:
a "modify" writes a new record and re-points an index at it, while old
records remain reachable from version histories.  The heap therefore
optimizes for appends: records are framed (length + CRC32) and packed
back-to-back; a :class:`RecordId` is the record's byte offset, which
stays valid for the life of the file.

The first :data:`PAGE_SIZE` bytes are the heap header: a magic string, a
format version, the next-free byte offset (the append cursor) and a
CRC32, then zeros.  A record never changes once written and the header
is the only range ever rewritten, so there is nothing to cache: an
append writes its framed parts straight to the file with ``os.pwritev``,
a read takes the record with ``os.pread``, and the header reaches the
file on :meth:`RecordHeap.flush`, :meth:`~RecordHeap.sync` and
:meth:`~RecordHeap.close`.  Every append zero-fills the file to a whole
number of pages.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Iterator

from repro.errors import ChecksumError, StorageError
from repro.storage.serializer import RECORD_HEADER, unpack_record
from repro.testing import faults

__all__ = ["RecordHeap", "RecordId", "PAGE_SIZE"]

#: A record identifier: its byte offset in the heap file.
RecordId = int

#: The unit the file is laid out in: the header's size, the alignment of
#: aligned records, and what the file's length is a multiple of.
PAGE_SIZE = 4096

_MAGIC = b"NEPTHEAP"
_FORMAT_VERSION = 2
#: magic, version, append cursor, CRC32 of the preceding fields.
_HEADER = struct.Struct("<8sIQI")
#: Most buffers one ``os.pwritev`` call takes (Linux's ``IOV_MAX``).
_IOV_MAX = 1024
_ZEROS = memoryview(bytes(PAGE_SIZE))


def _page_end(size: int) -> int:
    """``size`` rounded up to a whole number of pages."""
    return size + -size % PAGE_SIZE


class RecordHeap:
    """Variable-length record storage with stable record ids.

    Thread-safe.  Records are immutable once written; logical updates are
    the caller's job (append a new record, repoint the reference).

    ``align_records=True`` starts every record on a page boundary, so
    appending a record never writes into a page that holds earlier
    committed records — a crash mid-append then cannot corrupt them.
    ``rescue_header=True`` recovers from a torn or corrupt header by
    re-deriving the append cursor from a full record scan.
    """

    def __init__(self, path: str | os.PathLike, align_records: bool = False,
                 rescue_header: bool = False):
        self._path = os.fspath(path)
        self._lock = threading.RLock()
        self._align = align_records
        self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if os.fstat(self._fd).st_size == 0:
                self._cursor = PAGE_SIZE  # data starts after the header
                self._written_cursor = None
                self._write_header(pad=True)
            else:
                try:
                    self._cursor = self._read_header()
                    self._written_cursor = self._cursor
                except StorageError:
                    if not rescue_header:
                        raise
                    self._cursor = self._rescue_cursor()
                    self._written_cursor = None
                    self._write_header()
        except BaseException:
            os.close(self._fd)
            raise

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def path(self) -> str:
        """Path of the underlying heap file."""
        return self._path

    def close(self) -> None:
        """Persist the header and close the file; a second close is a
        no-op."""
        with self._lock:
            if self._fd < 0:
                return
            try:
                self._write_header()
            finally:
                os.close(self._fd)
                self._fd = -1

    def __enter__(self) -> "RecordHeap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def flush(self) -> None:
        """Write the header to the OS (records are written on append)."""
        with self._lock:
            self._check_open()
            self._write_header()

    def sync(self) -> None:
        """Write the header and fsync the heap file."""
        with self._lock:
            self._check_open()
            self._write_header()
            os.fsync(self._fd)

    # ------------------------------------------------------------------
    # record operations

    def append(self, *parts: bytes) -> RecordId:
        """Append one record whose payload is ``parts`` joined; returns
        its stable :class:`RecordId`.

        The parts are never joined: their length and CRC32 are summed
        incrementally, and they are written behind the frame header by
        one ``os.pwritev`` per :data:`_IOV_MAX` buffers, so a many-part
        snapshot costs no payload-sized copy.  The ``heap.write`` fault
        point sees the framed record as ``parts`` (header first).
        """
        length = 0
        checksum = 0
        for part in parts:
            length += len(part)
            checksum = zlib.crc32(part, checksum)
        framed = (RECORD_HEADER.pack(length, checksum), *parts)
        with self._lock:
            self._check_open()
            record_id = self._cursor
            if self._align and record_id % PAGE_SIZE:
                record_id += PAGE_SIZE - record_id % PAGE_SIZE
            if faults.INJECTOR is not None:
                faults.fire("heap.write", path=self.path, offset=record_id,
                            parts=framed)
            end = record_id + RECORD_HEADER.size + length
            padding = _ZEROS[:_page_end(end) - end]
            self._pwrite(record_id, (*framed, padding))
            self._cursor = end
            return record_id

    def read(self, record_id: RecordId) -> bytes:
        """Read the record at ``record_id``; checksum-verified."""
        with self._lock:
            self._check_open()
            if not PAGE_SIZE <= record_id < self._cursor:
                raise StorageError(
                    f"record id {record_id} out of heap bounds")
            length, checksum = RECORD_HEADER.unpack(
                self._read_bytes(record_id, RECORD_HEADER.size))
            payload = self._read_bytes(record_id + RECORD_HEADER.size,
                                       length)
        if zlib.crc32(payload) != checksum:
            raise ChecksumError(
                f"record at offset {record_id} failed checksum validation")
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
        """Total bytes used by heap records (excluding the header)."""
        with self._lock:
            return self._cursor - PAGE_SIZE

    # ------------------------------------------------------------------
    # positional I/O

    def _check_open(self) -> None:
        if self._fd < 0:
            raise StorageError(f"{self._path}: heap is closed")

    def _pwrite(self, offset: int, parts) -> None:
        """Write ``parts`` back to back from ``offset``.

        The ``heap.pwrite`` fault point fires before each ``os.pwritev``
        call, with the buffers it is about to write as ``parts``.
        """
        for first in range(0, len(parts), _IOV_MAX):
            batch = parts[first:first + _IOV_MAX]
            if faults.INJECTOR is not None:
                faults.fire("heap.pwrite", path=self._path, offset=offset,
                            parts=batch)
            size = sum(len(part) for part in batch)
            if os.pwritev(self._fd, batch, offset) != size:
                raise StorageError(
                    f"{self._path}: short write at offset {offset}")
            offset += size

    def _read_bytes(self, offset: int, length: int) -> bytes:
        """``length`` bytes from ``offset``, which must lie within the
        file's last page; bytes past the end of the file read as zeros
        (the tail of a torn write)."""
        if offset + length > _page_end(os.fstat(self._fd).st_size):
            raise StorageError(
                f"{self._path}: bytes {offset}..{offset + length} lie "
                f"past the heap's end")
        return os.pread(self._fd, length, offset).ljust(length, b"\x00")

    # ------------------------------------------------------------------
    # header

    def _write_header(self, pad: bool = False) -> None:
        """Write the header if the cursor moved since it was last
        written; ``pad`` zero-fills the rest of its page too."""
        if self._cursor == self._written_cursor:
            return
        body = _HEADER.pack(_MAGIC, _FORMAT_VERSION, self._cursor, 0)
        checksum = zlib.crc32(body[:-4])
        header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, self._cursor,
                              checksum)
        self._pwrite(0, (header, _ZEROS[_HEADER.size:]) if pad
                     else (header,))
        self._written_cursor = self._cursor

    def _read_header(self) -> int:
        raw = self._read_bytes(0, _HEADER.size)
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
        end = _page_end(os.fstat(self._fd).st_size)
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
