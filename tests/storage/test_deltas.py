"""Tests for the backward-delta version store."""

import random
import sys
import threading
import zlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import HAM
from repro.core.graph import GraphDirectory
from repro.errors import StorageError, VersionError
from repro.storage import blockcache
from repro.storage.blockcache import BlockCache
from repro.storage.cas import BlobCatalog, content_hash
from repro.storage.deltas import DeltaStore, encode_script
from repro.storage.diff import apply_differences_bytes
from repro.storage.serializer import (
    LARGE_BYTES,
    RECORD_HEADER,
    decode_value,
    encode_parts,
    encode_value,
)
from repro.workloads.trace import EditTrace, generate_versions


class TestDeltaStoreBasics:
    def test_initial_version_is_current(self):
        store = DeltaStore(b"hello\n", time=1)
        assert store.get() == b"hello\n"
        assert store.current_time == 1

    def test_check_in_advances_current(self):
        store = DeltaStore(b"v1\n", time=1)
        store.check_in(b"v2\n", time=2)
        assert store.get() == b"v2\n"
        assert store.current_time == 2

    def test_old_versions_remain_readable(self):
        store = DeltaStore(b"v1\n", time=1)
        store.check_in(b"v2\n", time=5)
        store.check_in(b"v3\n", time=9)
        assert store.get(1) == b"v1\n"
        assert store.get(5) == b"v2\n"
        assert store.get(9) == b"v3\n"

    def test_get_at_intermediate_time_returns_version_in_effect(self):
        store = DeltaStore(b"v1\n", time=1)
        store.check_in(b"v2\n", time=5)
        assert store.get(3) == b"v1\n"
        assert store.get(7) == b"v2\n"

    def test_get_before_first_version_raises(self):
        store = DeltaStore(b"v1\n", time=5)
        with pytest.raises(VersionError):
            store.get(3)

    def test_get_exact_requires_exact_time(self):
        store = DeltaStore(b"v1\n", time=1)
        store.check_in(b"v2\n", time=5)
        assert store.get_exact(1) == b"v1\n"
        with pytest.raises(VersionError):
            store.get_exact(3)

    def test_times_are_oldest_first(self):
        store = DeltaStore(b"a", time=1)
        store.check_in(b"b", time=2)
        store.check_in(b"c", time=3)
        assert store.times == [1, 2, 3]

    def test_check_in_rejects_non_advancing_time(self):
        store = DeltaStore(b"a", time=5)
        with pytest.raises(VersionError):
            store.check_in(b"b", time=5)
        with pytest.raises(VersionError):
            store.check_in(b"b", time=3)

    def test_zero_initial_time_rejected(self):
        with pytest.raises(VersionError):
            DeltaStore(b"a", time=0)

    def test_binary_contents(self):
        blob = bytes(range(256)) * 4
        store = DeltaStore(blob, time=1)
        store.check_in(blob[:100] + b"\x00\x01" + blob[120:], time=2)
        assert store.get(1) == blob

    def test_same_answers_as_the_version_list(self):
        versions = [b"one\n", b"one\ntwo\n", b"two\n"]
        delta = DeltaStore(versions[0], time=1)
        for position, contents in enumerate(versions[1:], start=2):
            delta.check_in(contents, time=position)
        for time, expected in ((0, versions[-1]), (1, versions[0]),
                               (2, versions[1]), (3, versions[2])):
            assert delta.get(time) == expected


class TestStorageEfficiency:
    def test_deltas_store_much_less_than_copies(self):
        versions = generate_versions(
            EditTrace(initial_lines=200, versions=40, edits_per_version=2))
        delta = DeltaStore(versions[0], time=1)
        for position, contents in enumerate(versions[1:], start=2):
            delta.check_in(contents, time=position)
        delta_total = delta.stats().total_bytes
        copy_total = sum(len(contents) for contents in versions)
        # Small local edits: deltas should be dramatically smaller than
        # keeping every version whole.
        assert delta_total < copy_total / 5

    def test_stats_version_count(self):
        store = DeltaStore(b"a\n", time=1)
        store.check_in(b"b\n", time=2)
        assert store.stats().version_count == 2


class TestPersistence:
    def test_record_round_trip(self):
        store = DeltaStore(b"v1 line\n", time=1)
        store.check_in(b"v2 line\nmore\n", time=2)
        store.check_in(b"v3\n", time=3)
        restored = DeltaStore.from_record(store.to_record())
        assert restored.times == store.times
        for time in (1, 2, 3, 0):
            assert restored.get(time) == store.get(time)

    def test_record_is_encodable(self):
        from repro.storage.serializer import decode_value, encode_value
        store = DeltaStore(b"data\n", time=1)
        store.check_in(b"data2\n", time=2)
        record = decode_value(encode_value(store.to_record()))
        restored = DeltaStore.from_record(record)
        assert restored.get(1) == b"data\n"


class TestChainSurfaces:
    """Seeded histories through every surface the node layer uses:
    ``get``, ``get_exact``, ``clone``, ``to_record``/``from_record`` and
    catalog attachment, judged against the plain list of versions."""

    @staticmethod
    def versions(seed, count=30):
        return generate_versions(
            EditTrace(initial_lines=40, versions=count,
                      edits_per_version=3, seed=seed))

    @staticmethod
    def uncached(versions):
        chain = build(versions)
        chain.cache = None  # these are about the chain, not memoization
        return chain

    def test_every_version_readable_both_ways(self):
        versions = self.versions(seed=7)
        chain = self.uncached(versions)
        for position, contents in enumerate(versions, start=1):
            assert chain.get(position) == contents
            assert chain.get_exact(position) == contents
        assert chain.get() == versions[-1]
        assert chain.get(0) == versions[-1]

    def test_long_history_matches_the_version_list(self):
        versions = self.versions(seed=21, count=60)
        chain = self.uncached(versions)
        for probe in range(1, len(versions) + 1):
            assert chain.get(probe) == versions[probe - 1]

    def test_hashes_track_contents(self):
        versions = self.versions(seed=11)
        chain = self.uncached(versions)
        for index, contents in enumerate(versions):
            assert chain.hash_at(index) == content_hash(contents)

    def test_clone_diverges_without_disturbing_original(self):
        versions = self.versions(seed=5)
        chain = self.uncached(versions)
        copy = chain.clone()
        copy.check_in(b"clone only", time=100)
        chain.check_in(b"original only", time=200)
        assert copy.get() == b"clone only"
        assert chain.get() == b"original only"
        for position, contents in enumerate(versions, start=1):
            assert copy.get_exact(position) == contents
            assert chain.get_exact(position) == contents

    def test_record_round_trip_keeps_hashes(self):
        versions = self.versions(seed=9)
        chain = self.uncached(versions)
        rebuilt = DeltaStore.from_record(chain.to_record())
        rebuilt.cache = None
        assert rebuilt.times == chain.times
        for position, contents in enumerate(versions, start=1):
            assert rebuilt.get_exact(position) == contents
            assert rebuilt.hash_at(position - 1) == chain.hash_at(
                position - 1)

    def test_record_without_hashes_recomputes_them(self):
        versions = self.versions(seed=13, count=12)
        record = self.uncached(versions).to_record()
        del record["hashes"]  # a pre-catalog record
        rebuilt = DeltaStore.from_record(record)
        for index, contents in enumerate(versions):
            assert rebuilt.hash_at(index) == content_hash(contents)

    def test_attach_catalog_interns_the_current_version(self):
        versions = self.versions(seed=17, count=9)
        chain = self.uncached(versions)
        rebuilt = DeltaStore.from_record(chain.to_record())
        rebuilt.cache = None
        catalog = BlobCatalog()
        rebuilt.attach_catalog(catalog)
        assert content_hash(versions[-1]) in catalog
        for position, contents in enumerate(versions, start=1):
            assert rebuilt.get_exact(position) == contents

    def test_random_workload_matches_reference(self):
        rng = random.Random(42)
        reference: list[tuple[int, bytes]] = [(1, b"seed contents")]
        chain = DeltaStore(b"seed contents", time=1)
        chain.cache = None
        clock = 1
        for __ in range(120):
            action = rng.random()
            if action < 0.5 or len(reference) == 1:
                clock += rng.randint(1, 3)
                contents = bytes(rng.getrandbits(8)
                                 for __ in range(rng.randint(0, 120)))
                chain.check_in(contents, time=clock)
                reference.append((clock, contents))
            elif action < 0.6:
                # Reload: the history so far becomes the packed part.
                chain = DeltaStore.from_record(chain.to_record())
                chain.cache = None
            else:
                when, expected = rng.choice(reference)
                assert chain.get_exact(when) == expected
        assert chain.times == [when for when, __ in reference]
        for when, expected in reference:
            assert chain.get_exact(when) == expected


# ----------------------------------------------------------------------
# property-based coverage

@given(history=st.lists(st.binary(max_size=120), min_size=1, max_size=12))
@settings(max_examples=100)
def test_property_every_version_reconstructs(history):
    store = DeltaStore(history[0], time=1)
    for position, contents in enumerate(history[1:], start=2):
        store.check_in(contents, time=position)
    for position, contents in enumerate(history, start=1):
        assert store.get(position) == contents
    assert store.get() == history[-1]


@given(history=st.lists(st.binary(max_size=80), min_size=1, max_size=8))
@settings(max_examples=50)
def test_property_record_round_trip(history):
    store = DeltaStore(history[0], time=1)
    for position, contents in enumerate(history[1:], start=2):
        store.check_in(contents, time=position)
    restored = DeltaStore.from_record(store.to_record())
    for position, contents in enumerate(history, start=1):
        assert restored.get(position) == contents


# ----------------------------------------------------------------------
# as-of reads: one walk down a chain equals applying its deltas one at a
# time, and a delta that applies to the wrong bytes is caught by the hash

def big_body(seed):
    """130 distinct lines: bodies of two seeds are more than ``_MAX_EDITS``
    tokens apart, so their script is one REPLACE of the whole body."""
    return b"".join(b"line %d %d\n" % (seed, i) for i in range(130))


#: Line bodies with lone ``\r`` and ``\r\n`` breaks, often unterminated.
line_bodies = st.lists(
    st.sampled_from([b"ab", b"c", b"\n", b"\r", b"\r\n"]), max_size=20,
).map(b"".join)

bodies = st.one_of(
    line_bodies,
    st.binary(max_size=120),  # mostly newline-free: 64-byte chunk mode
    st.binary(min_size=65, max_size=200).map(
        lambda data: data.replace(b"\n", b"")),  # several chunks
    st.just(b""),
    st.integers(0, 1).map(big_body),
)


@st.composite
def histories(draw):
    """Versions that are fresh bodies (switching between text, binary,
    empty and past-the-bound rewrites) or small edits of their
    predecessor, which can add or remove its only newlines."""
    history = [draw(bodies)]
    for __ in range(draw(st.integers(1, 10))):
        body = history[-1]
        if not draw(st.booleans()):
            history.append(draw(bodies))
            continue
        for __ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(body)))
            cut = draw(st.integers(0, 3))
            body = body[:at] + draw(line_bodies) + body[at + cut:]
        history.append(body)
    return history


def build(history):
    chain = DeltaStore(history[0], time=1)
    for time, body in enumerate(history[1:], start=2):
        chain.check_in(body, time=time)
    return chain


def scripts_of(chain):
    """The stored deltas of a chain built by check-ins alone, by the
    index of the version each one rebuilds from its successor —
    mutable, to tamper."""
    pieces, tail = chain._history
    assert not pieces
    return tail


def fold(chain, index):
    """Version ``index`` by one ``apply_differences_bytes`` per delta."""
    contents = chain._current
    for script in reversed(chain.deltas()[index:]):
        contents = apply_differences_bytes(contents, script)
    return contents


class TestWalkIsTheFold:
    @pytest.mark.parametrize("reload", [None, "record", "record-no-hashes"])
    @given(history=histories())
    @example(history=[b"\x00" * 70, b"\x01" * 70, b"a\n", b"\x02" * 70,
                      b"b\rc\r\n", b""])
    @example(history=[big_body(0), big_body(1), b"", big_body(0)])
    @settings(max_examples=60, deadline=None)
    def test_every_version_equals_the_fold(self, reload, history):
        chain = build(history)
        if reload is not None:
            record = chain.to_record()
            if reload == "record-no-hashes":
                del record["hashes"]
            chain = DeltaStore.from_record(record)
        chain.cache = None  # every read walks
        for index, body in enumerate(history):
            assert chain.get(index + 1) == fold(chain, index) == body
        assert chain.get() == history[-1]


class TestCorruptDeltas:
    """Version 1 of ``a b c`` → ``a B c`` → ``a B C`` is rebuilt by one
    REPLACE of a single line token."""

    @staticmethod
    def chain():
        chain = build([b"a\nb\nc\n", b"a\nB\nc\n", b"a\nB\nC\n"])
        chain.cache = BlockCache(max_bytes=1 << 20)
        return chain

    @staticmethod
    def tamper(chain, **fields):
        scripts = scripts_of(chain)
        script = scripts[1]
        scripts[1] = [replace(script[0], **fields)] + script[1:]

    def test_mismatched_removed_tokens_raise_value_error(self):
        chain = self.chain()
        self.tamper(chain, old=(b"not there\n",))
        with pytest.raises(ValueError, match="expected"):
            chain.get(2)

    def test_wrong_bytes_raise_and_are_never_cached(self):
        chain = self.chain()
        self.tamper(chain, new=(b"X\n",))
        wrong = content_hash(fold(chain, 1))  # the fold does not notice
        key = (chain._chain_id, chain.hash_at(1))
        for __ in range(2):
            with pytest.raises(StorageError) as raised:
                chain.get(2)
            assert key not in chain.cache
        message = str(raised.value)
        assert "version 1 (time 2)" in message
        assert chain.hash_at(1).hex() in message
        assert wrong.hex() in message
        assert chain.get(3) == chain.get() == b"a\nB\nC\n"

    def test_as_of_open_node_raises_current_read_succeeds(self):
        with HAM.ephemeral() as ham:
            node, created = ham.add_node()
            before = ham.modify_node(node=node, expected_time=created,
                                     contents=b"a\nb\nc\n")
            ham.modify_node(node=node, expected_time=before,
                            contents=b"a\nB\nc\n")
            chain = ham.store.node(node)._archive
            # Delta 1 rebuilds ``a b c`` from the current version.
            self.tamper(chain, new=(b"X\n",))
            with pytest.raises(StorageError, match="rebuilds to hash"):
                ham.open_node(node, time=before)
            assert ham.open_node(node)[0] == b"a\nB\nc\n"


# ----------------------------------------------------------------------
# packed history: a loaded chain keeps its deltas encoded until a read
# walks into them, and re-encodes them by splicing

def unpacked_deltas(chain):
    """The ``"deltas"`` record field encoded afresh from every decoded
    delta — the oracle the splice must equal byte for byte."""
    return encode_value([encode_script(script) for script in chain.deltas()])


def legacy_record(chain):
    """The record form written before packing: a list of scripts."""
    record = chain.to_record()
    record["deltas"] = [encode_script(script) for script in chain.deltas()]
    return record


class TestPackedHistory:
    @pytest.mark.parametrize("seed", range(6))
    def test_splice_equals_encoding_the_decoded_list(self, seed):
        # Check-ins, reloads (the history so far becomes the packed
        # part; check-ins after it go to the tail) and clones that
        # diverge, in a seeded order; every chain's record must equal
        # the fresh encoding of its deltas, and every version read back.
        rng = random.Random(seed)
        versions = generate_versions(EditTrace(
            initial_lines=30, versions=60, edits_per_version=2, seed=seed))
        chains = [(DeltaStore(versions[0], time=1), [versions[0]])]
        for contents in versions[1:]:
            roll = rng.random()
            index = rng.randrange(len(chains))
            chain, history = chains[index]
            if roll < 0.15:
                chain = DeltaStore.from_record(chain.to_record())
                chains[index] = (chain, history)
            elif roll < 0.25 and len(chains) < 4:
                chains.append((chain.clone(), list(history)))
            history.append(contents)
            chain.check_in(contents, time=len(history))
        reloaded = 0
        for chain, history in chains:
            pieces, tail = chain._history
            reloaded += bool(pieces) and bool(tail)
            assert chain.to_record()["deltas"] == unpacked_deltas(chain)
            chain.cache = None
            for time, contents in enumerate(history, start=1):
                assert chain.get_exact(time) == contents
        assert reloaded, "no chain spliced a packed prefix with a tail"

    def test_load_decodes_nothing_until_a_read_needs_it(self):
        versions = generate_versions(EditTrace(initial_lines=20,
                                               versions=8, seed=3))
        chain = build(versions)
        loaded = DeltaStore.from_record(chain.to_record())
        loaded.cache = None
        loaded.check_in(b"after the load\n", time=len(versions) + 1)
        (piece,), __ = loaded._history
        assert piece._scripts is None
        # The newest stored version walks only the tail.
        assert loaded.get(len(versions)) == versions[-1]
        assert piece._scripts is None
        # A clone shares the piece, so one decode serves both.
        twin = loaded.clone()
        assert twin.get(1) == versions[0]
        assert piece._scripts is not None
        assert loaded.to_record()["deltas"] == unpacked_deltas(loaded)

    def test_legacy_list_form_loads(self):
        versions = generate_versions(EditTrace(initial_lines=20,
                                               versions=8, seed=5))
        chain = build(versions)
        record = decode_value(encode_value(legacy_record(chain)))
        loaded = DeltaStore.from_record(record)
        loaded.cache = None
        for time, contents in enumerate(versions, start=1):
            assert loaded.get(time) == contents
        assert loaded.to_record() == chain.to_record()

    def test_deltas_header_must_match_the_version_count(self):
        chain = build([b"a\n", b"b\n", b"c\n"])
        record = chain.to_record()
        record["times"] = record["times"][:-1]
        with pytest.raises(StorageError, match="list of 1 scripts"):
            DeltaStore.from_record(record)

    @pytest.mark.parametrize("mask", [0x01, 0x41, 0x80, 0xFF])
    def test_corrupt_packed_delta_never_reads_wrong_bytes(self, mask):
        # Damage each byte past the list header in turn, as damage the
        # heap and wire checksums did not see would: every version reads
        # back exactly or raises StorageError, and the oldest one, whose
        # walk crosses every delta, cannot be rebuilt.
        versions = [b"a\nb\nc\nd\n", b"a\nB\nc\nd\n", b"a\nB\nc\n",
                    b"x\na\nB\nc\n"]
        record = build(versions).to_record()
        packed = bytes(record["deltas"])
        for at in range(5, len(packed)):
            damaged = bytearray(packed)
            damaged[at] ^= mask
            chain = DeltaStore.from_record(
                dict(record, deltas=bytes(damaged)))
            chain.cache = None
            assert chain.get() == versions[-1]
            for time, contents in enumerate(versions[1:-1], start=2):
                try:
                    assert chain.get(time) == contents
                except StorageError:
                    pass
            with pytest.raises(StorageError):
                chain.get(1)

    def test_corrupt_packed_delta_in_a_snapshot_raises(self, tmp_path):
        # A bad byte inside a chain's packed deltas, written back to the
        # heap under a recomputed checksum: the graph opens (the
        # deltas load encoded), the current version reads, and an
        # as-of read through the bad delta raises StorageError.
        path = tmp_path / "graph"
        project_id, __ = HAM.create_graph(path)
        bodies = [b"".join(b"common %d\n" % i for i in range(5))
                  + b"edit %04d\n" % version for version in range(6)]
        with HAM.open_graph(project_id, path) as ham:
            node, time = ham.add_node()
            times = []
            for body in bodies:
                time = ham.modify_node(node=node, expected_time=time,
                                       contents=body)
                times.append(time)
            ham.checkpoint()
        graph_dir = GraphDirectory(path)
        record_id = graph_dir.read_meta()["snapshot"]
        with graph_dir._open_heap() as heap:
            payload = bytearray(heap.read(record_id))
            at = payload.find(b"edit 0002\n")
            assert at > 0 and payload.find(b"edit 0002\n", at + 1) > 0
            payload[at + 8] ^= 0x01  # "edit 0003": the delta still decodes
            heap._pwrite(record_id, (RECORD_HEADER.pack(
                len(payload), zlib.crc32(payload)), payload))
        with HAM.open_graph(project_id, path) as ham:
            assert ham.open_node(node)[0] == bodies[-1]
            for time, body in zip(times, bodies):
                try:
                    assert ham.open_node(node, time=time)[0] == body
                except StorageError:
                    pass
            with pytest.raises(StorageError):
                ham.open_node(node, time=times[0])


# ----------------------------------------------------------------------
# folding: encoding a chain moves its tail into its packed history

def wide_body(seed, lines=1200):
    """About 20 KiB of lines that no other seed shares: a check-in
    between two of them stores a delta larger than ``LARGE_BYTES``."""
    return b"".join(b"row %d %d\n" % (seed, i) for i in range(lines))


class TestFold:
    @staticmethod
    def pieces(chain):
        pieces, tail = chain._history
        return pieces, tail

    def test_fold_moves_the_tail_into_pieces(self):
        versions = generate_versions(EditTrace(initial_lines=20,
                                               versions=10, seed=11))
        chain = build(versions)
        record = chain.to_record()
        pieces, tail = self.pieces(chain)
        assert tail == [] and len(pieces) == 1
        assert pieces[0].count == len(versions) - 1
        assert pieces[0]._scripts is None  # the decoded tail is dropped
        assert record["deltas"] == unpacked_deltas(chain)
        assert record["deltas"].parts[1] is pieces[0].data
        chain.cache = None
        for time, contents in enumerate(versions, start=1):
            assert chain.get(time) == contents

    def test_fold_with_an_empty_tail_changes_nothing(self):
        chain = build([b"a\n", b"b\n"])
        chain.to_record()
        before = chain._history[0]
        chain.to_record()
        assert chain._history[0] is before

    def test_a_thousand_folds_hold_few_pieces(self):
        # One chain, one small check-in and one checkpoint row encoding
        # at a time: small pieces are joined until they are large, and a
        # large piece is kept as the very object it was, never copied.
        lines = [b"line %d\n" % i for i in range(200)]
        chain = DeltaStore(b"".join(lines), time=1)
        versions = [b"".join(lines)]
        large = {}
        for time in range(2, 1002):
            lines[time % 200] = b"edit %d\n" % time
            versions.append(b"".join(lines))
            chain.check_in(versions[-1], time=time)
            row = encode_parts(chain.to_record())
            pieces, tail = self.pieces(chain)
            assert tail == []
            total = sum(len(piece.data) for piece in pieces)
            assert len(pieces) <= 1 + total // LARGE_BYTES
            for piece in pieces[:-1]:
                assert len(piece.data) >= LARGE_BYTES
                assert large.setdefault(piece.start, piece.data) \
                    is piece.data
        assert 2 <= len(pieces) <= 10
        assert b"".join([row] if type(row) is bytes else row) == \
            encode_value(dict(chain.to_record(),
                              deltas=unpacked_deltas(chain)))
        chain.cache = None
        for time in (1, 2, 500, 999, 1000, 1001):
            assert chain.get(time) == versions[time - 1]

    def test_large_tails_are_pieces_of_their_own(self):
        chain = DeltaStore(wide_body(0), time=1)
        shared = []
        for time in range(2, 6):
            chain.check_in(wide_body(time), time=time)
            row = encode_parts(chain.to_record())
            pieces, __ = self.pieces(chain)
            assert len(pieces) == time - 1
            # The row passes every piece through: the chain and its row
            # hold the same objects.
            assert all(any(part is piece.data for part in row)
                       for piece in pieces)
            shared.append(pieces[-1].data)
        assert [piece.data for piece in self.pieces(chain)[0]] == shared
        assert all(a is b for a, b in zip(
            shared, (piece.data for piece in self.pieces(chain)[0])))

    def test_a_walk_decodes_only_the_pieces_it_crosses(self):
        chain = DeltaStore(wide_body(0), time=1)
        for time in range(2, 6):
            chain.check_in(wide_body(time), time=time)
            chain.to_record()
        chain.cache = None
        pieces, __ = self.pieces(chain)
        assert chain.get(4) == wide_body(4)
        assert [piece._scripts is None for piece in pieces] == \
            [True, True, True, False]
        assert chain.get(1) == wide_body(0)
        assert all(piece._scripts is not None for piece in pieces)

    @pytest.mark.parametrize("seed", range(6))
    def test_folds_clones_and_reloads_stay_exact(self, seed):
        # Check-ins (small edits and wide rewrites), folds, reloads and
        # clones in a seeded order: every chain's record equals the
        # fresh encoding of its deltas, and every version reads back.
        rng = random.Random(seed)
        chains = [(DeltaStore(b"start\n", time=1), [b"start\n"])]
        for step in range(80):
            roll = rng.random()
            index = rng.randrange(len(chains))
            chain, history = chains[index]
            if roll < 0.2:
                chain.to_record()
            elif roll < 0.3:
                chain = DeltaStore.from_record(
                    decode_value(encode_value(chain.to_record())))
                chains[index] = (chain, history)
            elif roll < 0.38 and len(chains) < 4:
                chains.append((chain.clone(), list(history)))
            else:
                if rng.random() < 0.15:
                    body = wide_body(step)
                else:
                    body = history[-1] + b"step %d\n" % step
                history.append(body)
                chain.check_in(body, time=len(history))
        for chain, history in chains:
            assert chain.to_record()["deltas"] == unpacked_deltas(chain)
            chain.cache = None
            for time, contents in enumerate(history, start=1):
                assert chain.get_exact(time) == contents

    def test_as_of_readers_race_checkpoint_folds(self, tmp_path):
        # Lock-free as-of reads walk published chains while checkpoints
        # fold those very chains; with no block cache every old read
        # walks, and each must rebuild exactly its version.
        previous = blockcache.set_default(BlockCache(max_bytes=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave readers and the fold
        try:
            path = tmp_path / "graph"
            project_id, __ = HAM.create_graph(path)
            with HAM.open_graph(project_id, path) as ham:
                self._race(ham, random.Random(7))
        finally:
            sys.setswitchinterval(interval)
            blockcache.set_default(previous)

    @staticmethod
    def _race(ham, rng):
        versions = {}
        for __ in range(3):
            node, time = ham.add_node()
            versions[node] = [(time, b"")]

        def commit_round():
            for node, history in versions.items():
                if rng.random() < 0.3:
                    body = wide_body(rng.randrange(10**6), lines=1100)
                else:
                    body = history[-1][1] + b"more %d\n" % len(history)
                time = ham.modify_node(node=node,
                                       expected_time=history[-1][0],
                                       contents=body)
                history.append((time, body))

        for __ in range(4):
            commit_round()
        stop = threading.Event()
        failures = []
        reads = []

        def reader(seed):
            mine = random.Random(seed)
            try:
                while not stop.is_set():
                    node = mine.choice(list(versions))
                    time, body = mine.choice(list(versions[node]))
                    # What a pinned snapshot reader does: read the
                    # published record, taking no lock (an open
                    # transaction would hold the checkpoint off).
                    record = ham.store.node(node)
                    contents = record.contents_at(time)
                    chain = record._archive
                    index = chain.version_index_at(time)
                    assert content_hash(contents) == chain.hash_at(index)
                    assert contents == body
                    reads.append(time)
            except Exception as exc:
                failures.append(exc)

        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(3)]
        for thread in threads:
            thread.start()
        try:
            for __ in range(8):
                commit_round()
                ham.checkpoint()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        assert len(reads) > 10
