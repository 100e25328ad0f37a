"""Experiment B1 — "effective storage of many versions … without copying
each individual item; for nodes this is provided by backward deltas
similar to RCS" (§3).

Table: bytes stored after N versions of an edited node, backward-delta
store versus the full-copy baseline.  Expected shape: full copies grow
O(N × document size); deltas grow O(N × edit size) — an order of
magnitude less for editor-granularity writes.
"""

import pytest

from conftest import report
from repro.storage.deltas import DeltaStore
from repro.workloads.trace import EditTrace, generate_versions

VERSION_COUNTS = [10, 50, 100]


def _load(versions):
    store = DeltaStore(versions[0], time=1)
    for position, contents in enumerate(versions[1:], start=2):
        store.check_in(contents, time=position)
    return store


@pytest.fixture(scope="module")
def traces():
    return {
        count: generate_versions(
            EditTrace(initial_lines=200, versions=count,
                      edits_per_version=3))
        for count in VERSION_COUNTS
    }


@pytest.mark.benchmark(group="B1 delta check-in")
@pytest.mark.parametrize("count", VERSION_COUNTS)
def test_b1_delta_check_in_cost(benchmark, traces, count):
    """Time to store a whole history as backward deltas."""
    versions = traces[count]
    store = benchmark(_load, versions)
    assert store.get() == versions[-1]


@pytest.mark.benchmark(group="B1 storage bytes")
def test_b1_storage_table(benchmark, traces):
    """The storage table itself (benchmarked once for the harness)."""

    def build_table():
        rows = []
        for count in VERSION_COUNTS:
            versions = traces[count]
            delta = _load(versions).stats()
            copies = sum(len(contents) for contents in versions)
            rows.append((count, delta.total_bytes, copies))
        return rows

    rows = benchmark(build_table)
    lines = [f"{'versions':>8}  {'deltas(B)':>10}  {'copies(B)':>10}  "
             f"{'ratio':>6}"]
    for count, delta_bytes, copy_bytes in rows:
        lines.append(f"{count:>8}  {delta_bytes:>10}  {copy_bytes:>10}  "
                     f"{copy_bytes / delta_bytes:>6.1f}x")
    report("B1  version storage: backward deltas vs full copies", lines)

    # Shape assertions: deltas win, and the win grows with history.
    ratios = [copy / delta for __, delta, copy in rows]
    assert all(ratio > 4 for ratio in ratios)
    assert ratios[-1] > ratios[0]
