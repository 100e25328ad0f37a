"""Experiment B6 — the central server under multi-person access (§2.2).

"Neptune has a central server which is accessible over a local area
network … Several persons can access a hyperdocument simultaneously."
Rows: per-operation latency local vs RPC (the network/marshalling tax),
and aggregate throughput as concurrent workstation sessions grow.
Expected shape: RPC costs a small constant per call; read throughput
scales with sessions (shared locks), write throughput saturates at the
server (the single-writer graph lock).
"""

import threading
import time as clock

import pytest

from conftest import report
from repro import HAM
from repro.server import HAMServer, RemoteHAM


@pytest.fixture(scope="module")
def served():
    ham = HAM.ephemeral()
    node, time = ham.add_node()
    ham.modify_node(node=node, expected_time=time,
                    contents=b"shared node contents\n")
    server = HAMServer(ham).start()
    client = RemoteHAM(*server.address)
    yield ham, server, client, node
    client.close()
    server.stop()


@pytest.mark.benchmark(group="B6 local vs RPC")
def test_b6_local_open_node(benchmark, served):
    ham, __, ___, node = served
    benchmark(ham.open_node, node)


@pytest.mark.benchmark(group="B6 local vs RPC")
def test_b6_remote_open_node(benchmark, served):
    __, ___, client, node = served
    benchmark(client.open_node, node)


@pytest.mark.benchmark(group="B6 local vs RPC")
def test_b6_remote_ping(benchmark, served):
    """The wire floor: an empty round trip."""
    __, ___, client, ____ = served
    benchmark(client.ping)


@pytest.mark.benchmark(group="B6 throughput")
def test_b6_read_throughput_vs_sessions(benchmark, served):
    __, server, ___, node = served
    reads_per_session = 100

    def run(sessions):
        def worker():
            with RemoteHAM(*server.address) as client:
                for ____ in range(reads_per_session):
                    client.open_node(node)

        threads = [threading.Thread(target=worker)
                   for ____ in range(sessions)]
        start = clock.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = clock.perf_counter() - start
        return sessions * reads_per_session / elapsed

    def measure():
        return [(sessions, run(sessions)) for sessions in (1, 2, 4)]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'sessions':>9}  {'reads/s':>10}"]
    for sessions, throughput in rows:
        lines.append(f"{sessions:>9}  {throughput:>10.0f}")
    report("B6  server read throughput vs concurrent sessions", lines)

    # Shape: more sessions never collapse throughput below a single
    # session (shared read locks admit concurrency).
    single = rows[0][1]
    assert all(throughput > single * 0.5 for __, throughput in rows)


@pytest.mark.benchmark(group="B6 throughput")
def test_b6_write_throughput_vs_sessions(benchmark, served):
    """Writers to disjoint nodes: per-node exclusive locks let them
    proceed concurrently; the graph-level lock only serializes
    structure changes (addNode), so ingestion stays flat-ish."""
    __, server, ___, ____ = served
    writes_per_session = 40

    def run(sessions):
        def worker():
            with RemoteHAM(*server.address) as client:
                node, time = client.add_node()
                for sequence in range(writes_per_session):
                    time = client.modify_node(
                        node=node, expected_time=time,
                        contents=f"write {sequence}\n".encode())

        threads = [threading.Thread(target=worker)
                   for _____ in range(sessions)]
        start = clock.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = clock.perf_counter() - start
        return sessions * writes_per_session / elapsed

    def measure():
        return [(sessions, run(sessions)) for sessions in (1, 2, 4)]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'sessions':>9}  {'writes/s':>10}"]
    for sessions, throughput in rows:
        lines.append(f"{sessions:>9}  {throughput:>10.0f}")
    report("B6  server write throughput vs concurrent sessions "
           "(disjoint nodes)", lines)
    single = rows[0][1]
    assert all(throughput > single * 0.4 for __, throughput in rows)


@pytest.mark.benchmark(group="B6 batching")
def test_b6_batched_vs_unbatched(benchmark, served):
    """A batch amortizes the round trip: N attribute writes as N
    RPCs vs as one batch, queued and then sent as one pipeline.  The
    win is most of the wire floor (test_b6_remote_ping) times N-1, so
    batched ops/s should be a multiple of unbatched ops/s even over
    loopback."""
    __, ___, client, node = served
    ops = 50
    attribute = client.get_attribute_index("b6-batch")

    def unbatched():
        for sequence in range(ops):
            client.set_node_attribute_value(
                node=node, attribute=attribute, value=f"u{sequence}")

    def batched():
        with client.batch() as batch:
            for sequence in range(ops):
                batch.set_node_attribute_value(
                    node=node, attribute=attribute, value=f"b{sequence}")

    def measure():
        results = []
        for label, run in (("unbatched", unbatched), ("batched", batched)):
            run()  # warm
            start = clock.perf_counter()
            run()
            elapsed = clock.perf_counter() - start
            results.append((label, ops / elapsed))
        return results

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'mode':>11}  {'ops/s':>10}"]
    for label, throughput in rows:
        lines.append(f"{label:>11}  {throughput:>10.0f}")
    rates = dict(rows)
    lines.append(f"{'speedup':>11}  "
                 f"{rates['batched'] / rates['unbatched']:>9.1f}x")
    report(f"B6  batched vs unbatched RPC ({ops} attribute writes)",
           lines)

    # Shape: one pipelined batch of N operations must beat N round trips.
    assert rates["batched"] > rates["unbatched"]
