"""Interface parity: either delta-chain type is a drop-in backend.

Runs the same seeded workloads against :class:`DeltaStore` and
:class:`KeyframeDeltaStore` (and, for reads, :class:`FullCopyStore`)
and requires byte-identical answers from every surface the node layer
uses: ``get``, ``get_exact``, ``clone``, ``to_record``/``from_record``,
and catalog attachment.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import VersionError
from repro.storage.cas import BlobCatalog, content_hash
from repro.storage.deltas import (
    DeltaStore,
    FullCopyStore,
    KeyframeDeltaStore,
)
from repro.workloads.trace import EditTrace, generate_versions

CHAIN_TYPES = [
    pytest.param(lambda initial: DeltaStore(initial, time=1),
                 id="backward"),
    pytest.param(lambda initial: KeyframeDeltaStore(initial, time=1,
                                                    interval=4),
                 id="keyframed"),
]


def _versions(seed, count=30):
    return generate_versions(
        EditTrace(initial_lines=40, versions=count,
                  edits_per_version=3, seed=seed))


def _build(factory, versions):
    chain = factory(versions[0])
    chain.cache = None  # parity is about the chains, not memoization
    for position, contents in enumerate(versions[1:], start=2):
        chain.check_in(contents, time=position)
    return chain


@pytest.mark.parametrize("factory", CHAIN_TYPES)
class TestParity:
    def test_every_version_readable_both_ways(self, factory):
        versions = _versions(seed=7)
        chain = _build(factory, versions)
        for position, contents in enumerate(versions, start=1):
            assert chain.get(position) == contents
            assert chain.get_exact(position) == contents
        assert chain.get() == versions[-1]
        assert chain.get(0) == versions[-1]

    def test_get_exact_rejects_between_times(self, factory):
        chain = factory(b"v1")
        chain.check_in(b"v2", time=5)
        with pytest.raises(VersionError):
            chain.get_exact(3)

    def test_hashes_track_contents(self, factory):
        versions = _versions(seed=11)
        chain = _build(factory, versions)
        for index, contents in enumerate(versions):
            assert chain.hash_at(index) == content_hash(contents)

    def test_clone_diverges_without_disturbing_original(self, factory):
        versions = _versions(seed=5)
        chain = _build(factory, versions)
        copy = chain.clone()
        copy.check_in(b"clone only", time=100)
        chain.check_in(b"original only", time=200)
        assert copy.get() == b"clone only"
        assert chain.get() == b"original only"
        for position, contents in enumerate(versions, start=1):
            assert copy.get_exact(position) == contents
            assert chain.get_exact(position) == contents

    def test_record_round_trip(self, factory):
        versions = _versions(seed=9)
        chain = _build(factory, versions)
        rebuilt = type(chain).from_record(chain.to_record())
        rebuilt.cache = None
        assert rebuilt.times == chain.times
        for position, contents in enumerate(versions, start=1):
            assert rebuilt.get_exact(position) == contents
            assert rebuilt.hash_at(position - 1) == chain.hash_at(
                position - 1)

    def test_record_without_hashes_recomputes_them(self, factory):
        versions = _versions(seed=13, count=12)
        chain = _build(factory, versions)
        record = chain.to_record()
        del record["hashes"]  # a pre-catalog record
        rebuilt = type(chain).from_record(record)
        for index, contents in enumerate(versions):
            assert rebuilt.hash_at(index) == content_hash(contents)

    def test_attach_catalog_interns_retained_payloads(self, factory):
        versions = _versions(seed=17, count=9)
        chain = _build(factory, versions)
        rebuilt = type(chain).from_record(chain.to_record())
        rebuilt.cache = None
        catalog = BlobCatalog()
        rebuilt.attach_catalog(catalog)
        # At minimum the current version is retained whole.
        assert content_hash(versions[-1]) in catalog
        for position, contents in enumerate(versions, start=1):
            assert rebuilt.get_exact(position) == contents

    def test_random_workload_matches_reference(self, factory):
        rng = random.Random(42)
        reference: list[tuple[int, bytes]] = [(1, b"seed contents")]
        chain = factory(b"seed contents")
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
                chain = type(chain).from_record(chain.to_record())
                chain.cache = None
            else:
                when, expected = rng.choice(reference)
                assert chain.get_exact(when) == expected
        assert chain.times == [when for when, __ in reference]
        for when, expected in reference:
            assert chain.get_exact(when) == expected


class TestFullCopyBisect:
    def test_get_answers_version_in_effect(self):
        store = FullCopyStore(b"v1", time=1)
        store.check_in(b"v2", time=5)
        store.check_in(b"v3", time=9)
        assert store.get(0) == b"v3"
        assert store.get(1) == b"v1"
        assert store.get(4) == b"v1"
        assert store.get(5) == b"v2"
        assert store.get(8) == b"v2"
        assert store.get(100) == b"v3"

    def test_get_before_first_version_raises(self):
        store = FullCopyStore(b"v1", time=5)
        with pytest.raises(VersionError):
            store.get(3)

    def test_matches_delta_store_on_long_history(self):
        versions = _versions(seed=21, count=60)
        copies = FullCopyStore(versions[0], time=1)
        delta = DeltaStore(versions[0], time=1)
        delta.cache = None
        for position, contents in enumerate(versions[1:], start=2):
            copies.check_in(contents, time=position)
            delta.check_in(contents, time=position)
        for probe in range(1, len(versions) + 1):
            assert copies.get(probe) == delta.get(probe)
