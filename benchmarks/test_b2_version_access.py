"""Experiment B2 — "rapid access to any version of a hypergraph" (§3).

Series: time to open a node's contents at the current version versus K
versions back.  The backward-delta design makes the current version
O(1) (it is stored whole) while older versions pay K delta
applications — the asymmetry the paper accepted deliberately, because
current-version access dominates.  The full-copy baseline (indexing
the plain list of versions) is flat but pays B1's storage bill.

The ``delta`` store here runs with its chain cache off, so the depth
series measures the reconstruction walk itself; the ``cached`` store
is the same backward chain behind the block cache,
which flattens the series to lookup cost (B16 measures that layer in
isolation).
"""

import pytest

from conftest import report
from repro.storage.blockcache import BlockCache
from repro.storage.deltas import DeltaStore
from repro.workloads.trace import EditTrace, generate_versions

HISTORY = 100
DEPTHS = [0, 10, 50, 99]


@pytest.fixture(scope="module")
def stores():
    versions = generate_versions(
        EditTrace(initial_lines=300, versions=HISTORY,
                  edits_per_version=3))
    delta = DeltaStore(versions[0], time=1)
    delta.cache = None
    cached = DeltaStore(versions[0], time=1)
    cached.cache = BlockCache(max_bytes=64 * 1024 * 1024)
    for position, contents in enumerate(versions[1:], start=2):
        delta.check_in(contents, time=position)
        cached.check_in(contents, time=position)
    return delta, versions, cached


@pytest.mark.benchmark(group="B2 version access")
@pytest.mark.parametrize("depth", DEPTHS)
def test_b2_delta_access_by_depth(benchmark, stores, depth):
    delta, versions, __ = stores
    target_time = len(versions) - depth  # time of the version K back
    contents = benchmark(delta.get, target_time)
    assert contents == versions[target_time - 1]


@pytest.mark.benchmark(group="B2 version access")
@pytest.mark.parametrize("depth", [0, 99])
def test_b2_full_copy_access_by_depth(benchmark, stores, depth):
    __, versions, ___ = stores
    target_time = len(versions) - depth
    contents = benchmark(versions.__getitem__, target_time - 1)
    assert contents is versions[target_time - 1]


@pytest.mark.benchmark(group="B2 version access")
@pytest.mark.parametrize("depth", [10, 50, 99])
def test_b2_cached_access_by_depth(benchmark, stores, depth):
    """The same backward chain behind the block cache: after the first
    materialization, depth stops mattering."""
    __, versions, cached = stores
    target_time = len(versions) - depth
    cached.get(target_time)  # warm: the one walk the cache absorbs
    contents = benchmark(cached.get, target_time)
    assert contents == versions[target_time - 1]


@pytest.mark.benchmark(group="B2 version access")
def test_b2_access_cost_series(benchmark, stores):
    """The series itself: delta applications grow linearly with depth
    for the pure chain; the block cache flattens the whole series to
    lookup cost."""
    delta, versions, cached = stores

    def measure():
        import time as clock
        rows = []
        for depth in DEPTHS:
            target_time = len(versions) - depth
            cached.get(target_time)  # warm the cache row
            timings = []
            for store in (delta, cached):
                start = clock.perf_counter()
                for ___ in range(20):
                    store.get(target_time)
                timings.append((clock.perf_counter() - start) / 20)
            rows.append((depth, *timings))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'depth':>6}  {'backward':>11}  {'cached':>9}"]
    for depth, pure, hot in rows:
        lines.append(f"{depth:>6}  {pure * 1e6:>9.1f}us  "
                     f"{hot * 1e6:>7.1f}us")
    report("B2  version access vs depth: cache off vs on", lines)

    # Shape: the pure chain grows with depth; the cached chain stays
    # flat, so at the deepest point it wins decisively.
    current = rows[0][1]
    deepest = rows[-1][1]
    assert deepest > current * 3
    assert rows[-1][2] < rows[-1][1] / 2
