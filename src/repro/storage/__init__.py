"""Low-level storage substrate for the HAM.

This package provides everything the Hypertext Abstract Machine needs to
persist a hypergraph on ordinary files:

- :mod:`repro.storage.diff` — Myers diff engine producing the Appendix's
  ``Difference`` records, plus a three-way merge used by contexts.
- :mod:`repro.storage.deltas` — RCS-style backward-delta store: the current
  version of a byte string is kept whole, older versions as reverse deltas.
- :mod:`repro.storage.serializer` — compact, checksummed binary record
  encoding used by the heap and the write-ahead log.
- :mod:`repro.storage.heap` — append-oriented record heap, written and read
  with positional file I/O.
- :mod:`repro.storage.log` — append-only write-ahead log with force-at-commit
  semantics and a recovery scanner.
"""

from repro.storage.diff import (
    Difference,
    DiffKind,
    diff_bytes,
    diff_lines,
    diff_sequences,
    apply_differences,
    apply_differences_bytes,
    invert_differences,
    merge3,
    merge3_bytes,
    MergeResult,
)
from repro.storage.deltas import DeltaStore, DeltaChainStats
from repro.storage.serializer import (
    pack_record,
    unpack_record,
    encode_value,
    decode_value,
)
from repro.storage.heap import RecordHeap, RecordId, PAGE_SIZE
from repro.storage.log import WriteAheadLog, LogRecord, LogRecordKind

__all__ = [
    "Difference",
    "DiffKind",
    "diff_bytes",
    "diff_lines",
    "diff_sequences",
    "apply_differences",
    "apply_differences_bytes",
    "invert_differences",
    "merge3",
    "merge3_bytes",
    "MergeResult",
    "DeltaStore",
    "DeltaChainStats",
    "pack_record",
    "unpack_record",
    "encode_value",
    "decode_value",
    "RecordHeap",
    "RecordId",
    "PAGE_SIZE",
    "WriteAheadLog",
    "LogRecord",
    "LogRecordKind",
]
