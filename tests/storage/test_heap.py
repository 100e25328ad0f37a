"""Tests for the append-oriented record heap."""

import pytest

from repro.errors import FaultError, StorageError
from repro.storage.heap import RecordHeap
from repro.storage.heap import PAGE_SIZE
from repro.storage.serializer import pack_record
from repro.testing import faults


@pytest.fixture
def heap(tmp_path):
    with RecordHeap(tmp_path / "records.heap") as heap:
        yield heap


class TestAppendRead:
    def test_append_returns_stable_id(self, heap):
        record_id = heap.append(b"first")
        assert heap.read(record_id) == b"first"

    def test_multiple_records(self, heap):
        ids = [heap.append(f"record {i}".encode()) for i in range(20)]
        for position, record_id in enumerate(ids):
            assert heap.read(record_id) == f"record {position}".encode()

    def test_record_spanning_pages(self, heap):
        big = bytes(range(256)) * 64  # 16 KiB, spans several pages
        record_id = heap.append(big)
        assert heap.read(record_id) == big

    def test_empty_record(self, heap):
        record_id = heap.append(b"")
        assert heap.read(record_id) == b""

    def test_out_of_bounds_read_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.read(PAGE_SIZE + 10_000)

    def test_read_below_data_start_rejected(self, heap):
        heap.append(b"x")
        with pytest.raises(StorageError):
            heap.read(0)


class TestParts:
    """A record appended as parts frames and reads as the joined payload."""

    PARTS = (b"", b"a" * 10, bytes(range(256)) * 70, b"b" * 3000, b"c")

    def test_parts_read_back_joined(self, heap):
        record_id = heap.append(*self.PARTS)
        assert heap.read(record_id) == b"".join(self.PARTS)

    def test_parts_write_the_bytes_one_payload_writes(self, tmp_path):
        files = []
        for name, parts in (("parts", self.PARTS),
                            ("joined", (b"".join(self.PARTS),))):
            path = tmp_path / f"{name}.heap"
            with RecordHeap(path, align_records=True) as heap:
                heap.append(b"x" * 100)
                record_id = heap.append(*parts)
                heap.append(b"after")
            files.append(path.read_bytes())
        assert files[0] == files[1]
        framed = pack_record(b"".join(self.PARTS))
        assert files[0][record_id:record_id + len(framed)] == framed


class TestHeapWriteFaultOverParts:
    """Torn and bit-flipped snapshot appends land anywhere in the framed
    record, not only in its first part."""

    PARTS = [bytes([n]) * 100 for n in range(1, 5)]
    FRAMED = pack_record(b"".join(PARTS))

    def _corrupted(self, tmp_path, action, seed):
        path = tmp_path / f"{action}-{seed}.heap"
        with RecordHeap(path, align_records=True) as heap:
            heap.append(b"committed")
            heap.sync()
        heap = RecordHeap(path, align_records=True)
        with faults.injected(faults.FaultPlan(
                (faults.FaultSpec("heap.write", action),), seed=seed)):
            with pytest.raises(faults.SimulatedCrash):
                heap.append(*self.PARTS)
        return path.read_bytes()[2 * PAGE_SIZE:]

    def test_truncate_keeps_a_prefix_ending_in_any_part(self, tmp_path):
        ends = set()
        for seed in range(48):
            written = self._corrupted(tmp_path, "truncate", seed)
            assert len(written) < len(self.FRAMED)
            assert written == self.FRAMED[:len(written)]
            ends.add(max(0, len(written) - 8) // 100)
        assert ends == {0, 1, 2, 3}

    def test_bitflip_lands_in_any_part(self, tmp_path):
        hits = set()
        for seed in range(48):
            written = self._corrupted(tmp_path, "bitflip", seed)
            assert len(written) == len(self.FRAMED)
            flipped = [at for at, (a, b)
                       in enumerate(zip(written, self.FRAMED)) if a != b]
            assert len(flipped) == 1
            assert bin(written[flipped[0]]
                       ^ self.FRAMED[flipped[0]]).count("1") == 1
            hits.add(max(0, flipped[0] - 8) // 100)
        assert hits == {0, 1, 2, 3}


class TestScan:
    def test_scan_returns_records_in_order(self, heap):
        payloads = [f"p{i}".encode() for i in range(5)]
        ids = [heap.append(payload) for payload in payloads]
        scanned = list(heap.scan())
        assert [record_id for record_id, __ in scanned] == ids
        assert [payload for __, payload in scanned] == payloads

    def test_scan_empty_heap(self, heap):
        assert list(heap.scan()) == []


class TestPersistence:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "records.heap"
        with RecordHeap(path) as heap:
            first = heap.append(b"alpha")
            second = heap.append(b"beta")
        with RecordHeap(path) as heap:
            assert heap.read(first) == b"alpha"
            assert heap.read(second) == b"beta"
            third = heap.append(b"gamma")
            assert heap.read(third) == b"gamma"

    def test_size_accounting(self, heap):
        assert heap.size_bytes == 0
        heap.append(b"12345")
        assert heap.size_bytes > 5  # payload + framing

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.heap"
        path.write_bytes(b"\x00" * PAGE_SIZE)
        with pytest.raises(StorageError):
            RecordHeap(path)


class TestFlush:
    def test_flush_makes_records_visible_to_second_reader(self, tmp_path):
        path = tmp_path / "flush.heap"
        heap = RecordHeap(path)
        record_id = heap.append(b"flushed record")
        heap.flush()
        with RecordHeap(path) as other:
            assert other.read(record_id) == b"flushed record"
        heap.close()


class TestHeaderIntegrity:
    def test_corrupt_header_rejected_without_rescue(self, tmp_path):
        path = tmp_path / "records.heap"
        with RecordHeap(path) as heap:
            heap.append(b"payload")
            heap.sync()
        data = bytearray(path.read_bytes())
        data[12] ^= 0x40  # flip a bit inside the header's cursor field
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            RecordHeap(path)

    def test_rescue_recovers_cursor_by_scanning(self, tmp_path):
        path = tmp_path / "records.heap"
        with RecordHeap(path) as heap:
            first = heap.append(b"alpha")
            second = heap.append(b"beta")
            heap.sync()
        data = bytearray(path.read_bytes())
        data[12] ^= 0x40
        path.write_bytes(bytes(data))
        with RecordHeap(path, rescue_header=True) as heap:
            assert heap.read(first) == b"alpha"
            assert heap.read(second) == b"beta"
            third = heap.append(b"gamma")
            assert third > second
            assert heap.read(third) == b"gamma"

    def test_rescued_appends_do_not_clobber_records(self, tmp_path):
        path = tmp_path / "records.heap"
        with RecordHeap(path) as heap:
            kept = heap.append(b"x" * 100)
            heap.sync()
        data = bytearray(path.read_bytes())
        data[8] ^= 0x01
        path.write_bytes(bytes(data))
        with RecordHeap(path, rescue_header=True) as heap:
            added = heap.append(b"y" * 100)
            assert heap.read(kept) == b"x" * 100
            assert heap.read(added) == b"y" * 100


class TestAlignedRecords:
    def test_aligned_records_start_on_page_boundaries(self, tmp_path):
        path = tmp_path / "records.heap"
        with RecordHeap(path, align_records=True) as heap:
            ids = [heap.append(b"z" * 10) for __ in range(3)]
            for record_id in ids:
                assert record_id % PAGE_SIZE == 0
            assert len(set(ids)) == 3
            for record_id in ids:
                assert heap.read(record_id) == b"z" * 10

    def test_aligned_and_unaligned_reads_interoperate(self, tmp_path):
        path = tmp_path / "records.heap"
        with RecordHeap(path, align_records=True) as heap:
            record_id = heap.append(b"snapshot bytes")
            heap.sync()
        with RecordHeap(path) as heap:
            assert heap.read(record_id) == b"snapshot bytes"


class TestFileLayout:
    """The file is the header page, then the framed records, zero-filled
    to a whole number of pages."""

    def test_new_heap_is_one_header_page(self, tmp_path):
        path = tmp_path / "new.heap"
        RecordHeap(path).close()
        data = path.read_bytes()
        assert len(data) == PAGE_SIZE
        assert data.startswith(b"NEPTHEAP")
        assert data[24:] == bytes(PAGE_SIZE - 24)  # past the header

    @pytest.mark.parametrize("align", [False, True])
    def test_records_are_framed_and_zero_filled(self, tmp_path, align):
        path = tmp_path / "layout.heap"
        payloads = [b"a" * 10, b"b" * 5000, b"", b"c" * 3]
        with RecordHeap(path, align_records=align) as heap:
            ids = [heap.append(payload) for payload in payloads]
            assert path.stat().st_size % PAGE_SIZE == 0
        data = path.read_bytes()
        assert len(data) % PAGE_SIZE == 0
        expected = bytearray(PAGE_SIZE)
        for record_id, payload in zip(ids, payloads):
            if len(expected) < record_id:
                expected += bytes(record_id - len(expected))
            assert len(expected) == record_id
            expected += pack_record(payload)
        expected += bytes(-len(expected) % PAGE_SIZE)
        assert data[PAGE_SIZE:] == bytes(expected[PAGE_SIZE:])

    def test_many_parts_span_several_positional_writes(self, tmp_path):
        parts = [bytes([n % 251]) * (n % 7) for n in range(3000)]
        with faults.injected(faults.FaultPlan(())) as injector:
            with RecordHeap(tmp_path / "parts.heap") as heap:
                assert injector.hits("heap.pwrite") == 1  # the header
                record_id = heap.append(*parts)
                # 3 002 buffers: framing, parts, padding.
                assert injector.hits("heap.pwrite") == 4
                assert heap.read(record_id) == b"".join(parts)


class TestPositionalWriteFaults:
    """``heap.pwrite`` fires before each positional write: the record's
    buffers first, then the header rewrite."""

    def _two_records(self, tmp_path, action, hit, seed=0):
        path = tmp_path / f"{action}-{hit}-{seed}.heap"
        with RecordHeap(path, align_records=True) as heap:
            kept = heap.append(b"committed")
        heap = RecordHeap(path, align_records=True)
        with faults.injected(faults.FaultPlan(
                (faults.FaultSpec("heap.pwrite", action, hit=hit),),
                seed=seed)) as injector:
            with pytest.raises((faults.SimulatedCrash, FaultError)):
                heap.append(b"x" * 5000)
                heap.sync()
            assert injector.fired
        heap.close()  # after a crash: writes nothing more, frees the fd
        return path, kept

    def test_record_write_then_header_rewrite(self, tmp_path):
        with faults.injected(faults.FaultPlan(())) as injector:
            with RecordHeap(tmp_path / "hits.heap") as heap:
                heap.append(b"one")
                assert injector.hits("heap.pwrite") == 2  # create, record
                heap.sync()
                assert injector.hits("heap.pwrite") == 3  # header
                heap.flush()
            # Nothing moved since: close rewrites no header.
            assert injector.hits("heap.pwrite") == 3

    @pytest.mark.parametrize("action", faults.ACTIONS)
    @pytest.mark.parametrize("hit", [1, 2])
    def test_crashed_writes_leave_earlier_records(self, tmp_path, action,
                                                  hit):
        path, kept = self._two_records(tmp_path, action, hit)
        with RecordHeap(path, rescue_header=True) as heap:
            assert heap.read(kept) == b"committed"
            added = heap.append(b"after")
            assert heap.read(added) == b"after"
            assert heap.read(kept) == b"committed"

    def test_torn_header_rewrite_is_rescued(self, tmp_path):
        for seed in range(8):
            path, kept = self._two_records(tmp_path, "truncate", 2, seed)
            with RecordHeap(path, rescue_header=True) as heap:
                assert heap.read(kept) == b"committed"
                assert heap.size_bytes in (
                    8 + len(b"committed"),
                    PAGE_SIZE + 8 + 5000)


class TestLifecycle:
    def test_closed_heap_rejects_operations(self, tmp_path):
        heap = RecordHeap(tmp_path / "closed.heap")
        record_id = heap.append(b"x")
        heap.close()
        for operation in (lambda: heap.append(b"y"),
                          lambda: heap.read(record_id),
                          heap.flush, heap.sync):
            with pytest.raises(StorageError, match="closed"):
                operation()

    def test_double_close_is_safe(self, tmp_path):
        heap = RecordHeap(tmp_path / "twice.heap")
        heap.close()
        heap.close()

    def test_short_tail_reads_as_zeros(self, tmp_path):
        # A crash mid-extension leaves the file short of a page multiple:
        # it still opens, and the records before the cut still read.
        path = tmp_path / "short.heap"
        with RecordHeap(path) as heap:
            first = heap.append(b"first")
            second = heap.append(b"second")
        with open(path, "r+b") as handle:
            handle.truncate(second + 8 + len(b"second"))
        with RecordHeap(path) as heap:
            assert heap.read(first) == b"first"
            assert heap.read(second) == b"second"
            heap.append(b"third")
        assert path.stat().st_size % PAGE_SIZE == 0
