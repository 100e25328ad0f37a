"""The launcher: one server process, driven over a control pipe.

Started by the driver as ``python bench/server_main.py --root DIR ...``.
Builds the workload's initial graph through the local HAM API (or, with
``--recover``, waits for ``go`` and reopens the graph a killed
predecessor left behind),
serves it with a real :class:`GraphHost` + :class:`HAMServer`, prints
one JSON "ready" line on stdout, then answers JSON commands read from
stdin — ``calibrate``, ``counters``, ``spans``, ``stop`` — until told to
stop or until stdin closes (the driver died).

Before anything else it replaces ``os.fsync``: every file's length at
its last fsync lands in a small shared mapping the driver can read after
a SIGKILL, which is what lets the durability check discard bytes the
process had written but never flushed.  The device itself is not
flushed (see :func:`record_fsyncs`).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import mmap
import os
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro import LinkPt                                       # noqa: E402
from repro.replication import Replica                          # noqa: E402
from repro.server import (GraphHost, HAMServer, RemoteHAM,     # noqa: E402
                          ServerConfig)
from repro.tools import stats                                  # noqa: E402

from bench.calibrate import kernel                             # noqa: E402
from bench.trace import Tracer, install                        # noqa: E402
from bench.workloads import SIZES, build_spec                  # noqa: E402

GRAPH_NAME = "bench"
#: Files whose fsynced length is tracked, in slot order.
TRACKED_FILES = ("wal.log", "snapshots.heap")
_SLOT = struct.Struct("<q")
#: Nodes created (or modified) per set-up transaction.
_CHUNK = 400


def read_slots(path: str) -> dict[str, int]:
    """File name -> last fsynced length (-1: never fsynced)."""
    data = Path(path).read_bytes()
    return {name: _SLOT.unpack_from(data, number * _SLOT.size)[0]
            for number, name in enumerate(TRACKED_FILES)}


def record_fsyncs(slots_path: str, graph_dir: str) -> None:
    """Replace ``os.fsync``: note how long each tracked file is when the
    program asks for it to be made durable.

    The slot is an aligned 8-byte store into a shared mapping, so a
    SIGKILL cannot tear it.  The device is *not* flushed: the issue put
    the data directory on tmpfs, where fsync costs nothing, so that the
    host's disk stays out of the timings; the benchmark may only write
    inside its checkout, so it gets the same effect here.  (On this
    box's virtual disk an fsync took 0.1 ms in a quiet hour and 3-7 ms
    in a busy one, and ``commit_p50_ms`` followed it.)  What the
    program believes durable is still exactly what survives the kill:
    the driver truncates each file to its slot.  How often the program
    flushes is ``log.fsyncs_per_commit``.
    """
    with open(slots_path, "wb") as handle:
        handle.write(_SLOT.pack(-1) * len(TRACKED_FILES))
    with open(slots_path, "r+b") as handle:     # the mapping outlives it
        mapping = mmap.mmap(handle.fileno(), 0)
    tracked = {os.path.join(os.path.realpath(graph_dir), name): number
               for number, name in enumerate(TRACKED_FILES)}

    def fsync(fd):
        descriptor = fd if isinstance(fd, int) else fd.fileno()
        try:
            number = tracked.get(os.readlink(f"/proc/self/fd/{descriptor}"))
        except OSError:
            number = None
        if number is not None:
            _SLOT.pack_into(mapping, number * _SLOT.size,
                            os.fstat(descriptor).st_size)

    os.fsync = fsync


def build_graph(ham, spec) -> dict:
    """Replay the spec's initial graph through the local HAM API.

    One calibration kernel runs between transactions, so the driver
    learns how fast this process was *while* it built.
    """
    kernels = [kernel()]
    model = spec.model
    count = len(model.versions)
    nodes: list[int] = []
    times: list[list[int]] = []
    for start in range(0, count, _CHUNK):
        with ham.begin() as txn:
            if not nodes:
                attributes = {name: ham.get_attribute_index(name, txn)
                              for name in spec.attributes}
            for slot in range(start, min(start + _CHUNK, count)):
                node, created = ham.add_node(txn)
                stamp = ham.modify_node(
                    txn, node=node, expected_time=created,
                    contents=model.versions[slot][1])
                for name, value in model.attrs[slot].items():
                    ham.set_node_attribute_value(
                        txn, node=node, attribute=attributes[name],
                        value=value)
                nodes.append(node)
                times.append([created, stamp])
        kernels.append(kernel())
    links: list[int] = []
    for start in range(0, len(model.links), _CHUNK):
        with ham.begin() as txn:
            for slot in range(start, min(start + _CHUNK, len(model.links))):
                source, target = model.links[slot]
                link, __ = ham.add_link(
                    txn,
                    from_pt=LinkPt(nodes[source], spec.offsets[slot]),
                    to_pt=LinkPt(nodes[target]))
                links.append(link)
    # Age the histories one version at a time, oldest first.
    depth = 2
    while True:
        aged = [slot for slot in range(count)
                if len(model.versions[slot]) > depth]
        if not aged:
            break
        for start in range(0, len(aged), _CHUNK):
            with ham.begin() as txn:
                for slot in aged[start:start + _CHUNK]:
                    times[slot].append(ham.modify_node(
                        txn, node=nodes[slot],
                        expected_time=times[slot][-1],
                        contents=model.versions[slot][depth]))
            kernels.append(kernel())
        depth += 1
    return {"nodes": nodes, "links": links, "times": times,
            "attributes": attributes, "kernel_s": kernels}


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--recover", type=int, default=None,
                        help="ProjectId of the graph to reopen")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    def emit(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    graph_dir = os.path.join(args.root, GRAPH_NAME)
    if args.recover is not None:
        # Stand by, imported, until the driver has killed the
        # predecessor: the clock it starts at the kill then measures
        # recovery, not interpreter start-up (a third of a second that
        # varied by a quarter).
        emit({"standby": True})
        if json.loads(sys.stdin.readline() or "{}").get("cmd") != "go":
            return 0
    # (A recovering process resets the lengths its predecessor recorded;
    # the driver has read them by the time it says "go".)
    record_fsyncs(os.path.join(args.root, "fsync.slots"), graph_dir)

    tracer = None
    if args.trace:
        tracer = Tracer("server")
        install(tracer)

    # The flush policy is part of the benchmark's definition: every
    # commit is fsynced before it is acknowledged, with no group-commit
    # linger.
    host = GraphHost(args.root, synchronous=True, group_commit_window=0.0,
                     cache_bytes=SIZES[args.workload].cache_bytes)
    ready: dict = {}
    replica = replica_server = source = None
    if args.recover is None:
        spec = build_spec(args.workload, args.seed, args.quick)
        project, __ = host.create_graph(GRAPH_NAME)
        ham = host.open_graph(project, GRAPH_NAME)
        ready.update(build_graph(ham, spec))
        wants_replica = spec.replica
    else:
        project = args.recover
        ham = host.open_graph(project, GRAPH_NAME)
        wants_replica = False
    server = HAMServer(host=host, config=ServerConfig(workers=2)).start()
    if wants_replica:
        # Semi-synchronous: a commit is acknowledged only once one
        # replica has replayed it.
        ham._replication_hub().min_sync = 1
        source = RemoteHAM(*server.address)
        source.host_open_graph(project, GRAPH_NAME)
        replica = Replica(source, os.path.join(args.root, "replica"),
                          name="r0", poll_wait=0.5)
        replica_server = HAMServer(
            replica.ham, config=ServerConfig(workers=2)).start()
        ready["replica_port"] = replica_server.address[1]
    gc.collect()
    gc.freeze()
    ready.update(port=server.address[1], project=project)
    if tracer is not None:
        # What opening the graph cost, layer by layer (only a
        # recovering process has anything to show here).
        ready["recovery"] = {
            "recovery.records_replayed":
                tracer.counts.get("recovery.records_replayed", 0),
            **{f"{name}_s": sum(end - start for span, start, end, *__
                                in tracer.spans if span == name)
               for name in ("recovery.snapshot_load", "recovery.replay")}}

    emit(ready)
    heap_path = os.path.join(graph_dir, "snapshots.heap")
    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        if name == "calibrate":
            emit({"kernel_s": [kernel() for __ in range(command["n"])],
                  "lag_bytes":
                      stats.replication_counters().get("lag_bytes", 0)})
        elif name == "counters":
            reply = {
                "wal": stats.wal_counters(),
                "cache": stats.cache_counters(),
                "planner": stats.planner_counters(),
                "graph": stats.graph_counters(),
                "subscriptions": stats.subscription_counters(),
                "replication": stats.replication_counters(),
                "concurrency": stats.concurrency_counters(),
                "locks": dataclasses.asdict(stats.lock_stats(ham)),
                "catalog": dataclasses.asdict(stats.catalog_stats(ham)),
                "wal_stats": dataclasses.asdict(stats.wal_stats(ham)),
                "end_lsn": ham.end_lsn,
                "heap_bytes": os.path.getsize(heap_path),
                "peak_rss_mb": _peak_rss_mb(),
            }
            if command.get("history"):
                reply["history_bytes"] = \
                    stats.graph_stats(ham).history_bytes
            if tracer is not None:
                reply["trace"] = {"queue_wait_s": tracer.queue_wait,
                                  **tracer.counts}
            emit(reply)
        elif name == "spans":
            emit({"spans": tracer.dump(command["path"]) if tracer else 0})
        elif name == "stop":
            break
    # No checkpoint on the way out: the data directory is thrown away.
    if replica_server is not None:
        replica_server.stop(disconnect_clients=True)
    if replica is not None:
        replica.stop()
    if source is not None:
        source.close()
    server.stop(disconnect_clients=True)
    emit({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
