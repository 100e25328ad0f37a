"""The driver: one single-threaded closed loop over TCP.

``run(args)`` generates the workload's script, sets the server up,
sends the script one operation at a time (the next request goes out
only when the previous reply — and, for a commit, its pushed change
event — has come back), checks every reply against the answer the
script carries, runs the closing phase (checkpoint cycles,
un-checkpointed suffix, SIGKILL, truncate to fsynced lengths, recover,
read back), and turns the samples into metrics.  ``bench/README.md`` defines every metric printed here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from repro import LinkPt
from repro.errors import StaleVersionError
from repro.replication import ReplicatedHAM
from repro.server import RemoteHAM
from repro.storage.diff import apply_differences_bytes

from bench import trace
from bench.calibrate import SpeedTrack, kernel, speed_factor
from bench.metrics import END_TO_END, layer_unit, per_layer, summarise
from bench.server_main import GRAPH_NAME, read_slots
from bench.workloads import WORKLOADS, Script, build, pred_text, warmup

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: A calibration point closes a window after this many operations or
#: this many seconds, whichever comes first.
CALIBRATE_EVERY = 100
CALIBRATE_SECONDS = 0.25
#: Kernel runs per calibration point, in each process (one after the
#: other: both processes share a CPU).  About a tenth of the timed
#: phase goes into the kernel with these settings.
KERNELS_PER_POINT = 2
#: Kill-and-recover repetitions; ``recover_s`` is their median.
RECOVERIES = 3
#: Give up on a run whose answers keep coming back wrong.
MAX_FAILURES = 200


class GiveUp(Exception):
    """The run is beyond saving (too many wrong answers)."""


class Launcher:
    """A handle on one ``bench/server_main.py`` child process."""

    def __init__(self, root: Path, args, traced: bool,
                 recover: int | None = None):
        command = [sys.executable, str(ROOT / "bench" / "server_main.py"),
                   "--root", str(root), "--workload", args.workload,
                   "--seed", str(args.seed)]
        if args.quick:
            command.append("--quick")
        if traced:
            command.append("--trace")
        if recover is not None:
            command += ["--recover", str(recover)]
        # Same environment every run: fixed string hashing, and a fixed
        # malloc mmap threshold (glibc otherwise moves it as large
        # buffers come and go, and peak RSS with it).
        environment = dict(os.environ, PYTHONHASHSEED="0",
                           MALLOC_MMAP_THRESHOLD_="131072")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=environment, text=True, bufsize=1)

    def send(self, **command) -> None:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()

    def receive(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process ended (exit {self.process.poll()})")
        return json.loads(line)

    def request(self, **command) -> dict:
        self.send(**command)
        return self.receive()

    def kill(self) -> None:
        self.process.send_signal(signal.SIGKILL)
        self.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.request(cmd="stop")
                self.process.wait(timeout=15)
            except (OSError, RuntimeError, subprocess.TimeoutExpired):
                self.process.kill()
        self.close()

    def close(self) -> None:
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


class Session:
    """One set-up: a fresh data directory, a fresh server process that
    builds the workload's graph, the connections and subscriptions, and
    one node read back.  ``setup_s`` is the time all of that took."""

    def __init__(self, args, traced: bool, spec, script: Script):
        self.args = args
        self.traced = traced
        self.spec = spec
        self.script = script
        self.root = OUT / f"run-{os.getpid()}" / "data"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.clients: list = []
        self.standby: Launcher | None = None
        before = [kernel() for __ in range(3)]
        start = perf_counter()
        self.launcher = Launcher(self.root, args, traced)
        try:
            ready = self.launcher.receive()
            self.project = ready["project"]
            self.port = ready["port"]
            self.nodes: list[int] = ready["nodes"]
            self.links: list[int] = ready["links"]
            self.times: list[list[int]] = ready["times"]
            self.attributes: dict[str, int] = ready["attributes"]

            def primary() -> RemoteHAM:
                client = RemoteHAM("127.0.0.1", self.port)
                client.host_open_graph(self.project, GRAPH_NAME)
                self.clients.append(client)
                return client

            if self.spec.replica:
                def connect(host, port, **options):
                    client = RemoteHAM(host, port, **options)
                    if port == self.port:
                        client.host_open_graph(self.project, GRAPH_NAME)
                    return client

                router = ReplicatedHAM(
                    ("127.0.0.1", self.port),
                    (("127.0.0.1", ready["replica_port"]),),
                    read_your_writes=True, client_factory=connect)
                self.clients.append(router)
                self.reader = router
                self.writers = [router, primary()]
            else:
                self.reader = primary()
                self.writers = [self.reader]
            passive = {}
            self.watches = []
            for connection, events, pred in self.spec.subscriptions:
                if connection not in passive:
                    passive[connection] = primary()
                self.watches.append(passive[connection].watch(
                    events=events,
                    predicate=None if pred is None else pred_text(pred)))
            slot, contents = self.script.probe
            if self.reader.open_node(self.nodes[slot])[0] != contents:
                raise RuntimeError("set-up probe read back wrong contents")
        except BaseException:
            self.close()
            raise
        self.raw_setup_s = perf_counter() - start
        # The launcher timed the kernel between its build transactions:
        # how fast the box was *while* it built.
        self.setup_s = self.raw_setup_s * speed_factor(
            before + ready["kernel_s"] + [kernel() for __ in range(3)])

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        self.clients = []
        for launcher in (self.launcher, self.standby):
            if launcher is not None:
                launcher.stop()
        shutil.rmtree(self.root, ignore_errors=True)


class Driver:
    """Executes a script against a session and keeps the samples."""

    def __init__(self, session: Session):
        self.session = session
        self.reader = session.reader
        self.writers = session.writers
        self.watches = session.watches
        self.nodes = session.nodes
        self.links = session.links
        self.times = session.times
        self.node_slot = {index: slot
                          for slot, index in enumerate(self.nodes)}
        self.link_slot = {index: slot
                          for slot, index in enumerate(self.links)}
        #: What each writer last saw of each node's version time: its
        #: editor buffer.  A stale one costs a refused check-in + retry.
        self.seen = [{slot: stamps[-1]
                      for slot, stamps in enumerate(self.times)}
                     for __ in self.writers]
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.track = SpeedTrack()
        self.lag_bytes: list[int] = []
        #: class -> [(window number, seconds)].
        self.samples: dict[str, list[tuple[int, float]]] = {
            "open": [], "query": [], "commit": [], "feed": []}
        self.window = -1
        self.windows: list[tuple[float, float, int]] = []
        #: (start, end) of every timed commit-class operation.
        self.commit_spans: list[tuple[float, float]] = []
        self.timed = False
        self.window_ops = 0
        self.linearizes = 0
        #: Wall seconds of each phase of the run (diagnostic).
        self.phases: dict[str, float] = {}

    # -- plumbing --------------------------------------------------------

    def calibrate(self, points: int = 1) -> list[float]:
        """Calibration points: the kernel runs in the server process,
        then here, outside every timer.  Returns the samples taken."""
        launcher = self.session.launcher
        taken = []
        for __ in range(points):
            reply = launcher.request(cmd="calibrate", n=KERNELS_PER_POINT)
            mine = [kernel() for __ in range(KERNELS_PER_POINT)]
            now = perf_counter()
            self.lag_bytes.append(reply.get("lag_bytes", 0))
            for sample in reply["kernel_s"] + mine:
                self.track.add(now, sample)
                taken.append(sample)
        return taken

    def check(self, condition: bool) -> None:
        if not condition:
            self.failed += 1
            if self.failed > MAX_FAILURES:
                raise GiveUp("too many wrong answers")

    def note(self, name: str, seconds: float) -> None:
        if self.timed:
            self.samples[name].append((self.window, seconds))

    def await_feeds(self, feeds, sent: float, lsn: int | None) -> None:
        """Consume the events this commit must push; the lag sample
        closes when the last expected event has been decoded."""
        for number, count in feeds:
            watch = self.watches[number]
            for __ in range(count):
                event = watch.poll(10.0)
                self.check(event is not None
                           and (lsn is None or event["lsn"] == lsn))
        if feeds:
            self.note("feed", perf_counter() - sent)

    def committed(self, started: float, feeds, lsn: int | None,
                  sent: float | None = None) -> None:
        """Close a commit-class operation that began at ``started`` and
        whose commit request went out at ``sent``."""
        self.note("commit", perf_counter() - started)
        self.await_feeds(feeds, started if sent is None else sent, lsn)
        self.commit_spans.append((started, perf_counter()))

    def stamp(self, slot: int, time: int, writer: int = 0) -> None:
        self.times[slot].append(time)
        self.seen[writer][slot] = time

    # -- operations ------------------------------------------------------

    def op_open(self, op) -> None:
        __, slot, ordinal, expect = op
        time = 0 if ordinal < 0 else self.times[slot][ordinal]
        start = perf_counter()
        contents = self.reader.open_node(self.nodes[slot], time)[0]
        self.note("open", perf_counter() - start)
        self.check(contents == expect)

    def op_checkin(self, op) -> None:
        __, slot, old, new, feeds = op
        client = self.writers[0]
        node = self.nodes[slot]
        start = perf_counter()
        contents, __, ___, version = client.open_node(node)
        opened = perf_counter()
        self.note("open", opened - start)
        self.check(contents == old)
        time = client.modify_node(node=node, expected_time=version,
                                  contents=new)
        self.committed(opened, feeds, client.last_commit_lsn)
        self.stamp(slot, time)

    def op_query(self, op) -> None:
        __, text, nodes, links = op
        start = perf_counter()
        result = self.reader.get_graph_query(node_predicate=text)
        self.note("query", perf_counter() - start)
        self.check(
            tuple(self.node_slot.get(index) for index, __ in result.nodes)
            == nodes
            and tuple(self.link_slot.get(index)
                      for index, __ in result.links) == links)

    def op_linearize(self, op) -> None:
        __, start_slot, text, expect = op
        start = perf_counter()
        result = self.reader.linearize_graph(self.nodes[start_slot],
                                             node_predicate=text)
        self.note("query", perf_counter() - start)
        if self.timed:
            self.linearizes += 1
        self.check(tuple(self.node_slot.get(index)
                         for index, __ in result.nodes) == expect)

    def op_links(self, op) -> None:
        __, direction, slot, expect = op
        call = (self.reader.links_from if direction == "from"
                else self.reader.links_to)
        start = perf_counter()
        found = call(self.nodes[slot])
        self.note("query", perf_counter() - start)
        self.check(tuple(self.link_slot.get(index) for index in found)
                   == expect)

    def op_annotate(self, op) -> None:
        __, slot, body, feeds = op
        client = self.writers[0]
        start = perf_counter()
        with client.begin() as txn:
            note, created = client.add_node(txn)
            time = client.modify_node(txn, node=note, expected_time=created,
                                      contents=body)
            link, __ = client.add_link(txn, from_pt=LinkPt(self.nodes[slot]),
                                       to_pt=LinkPt(note))
        self.committed(start, feeds, client.last_commit_lsn)
        self.node_slot[note] = len(self.nodes)
        self.nodes.append(note)
        self.times.append([created, time])
        self.link_slot[link] = len(self.links)
        self.links.append(link)

    def op_addlink(self, op) -> None:
        __, source, target, feeds = op
        client = self.writers[0]
        start = perf_counter()
        link, __ = client.add_link(from_pt=LinkPt(self.nodes[source]),
                                   to_pt=LinkPt(self.nodes[target]))
        self.committed(start, feeds, client.last_commit_lsn)
        self.link_slot[link] = len(self.links)
        self.links.append(link)

    def op_diff(self, op) -> None:
        __, slot, first, second, old, new = op
        script = self.reader.get_node_differences(
            self.nodes[slot], self.times[slot][first],
            self.times[slot][second])
        self.check(apply_differences_bytes(old, script) == new)

    def op_versions(self, op) -> None:
        __, slot, count = op
        major, __ = self.reader.get_node_versions(self.nodes[slot])
        self.check(len(major) == count
                   and [v.time for v in major] == self.times[slot])

    def op_pipetxn(self, op) -> None:
        __, edits, feeds = op
        client = self.writers[0]
        start = perf_counter()
        with client.pipeline() as pipe:
            txn = pipe.begin().result()
            replies = [
                pipe.modify_node(txn, node=self.nodes[slot],
                                 expected_time=self.times[slot][-1],
                                 contents=contents)
                for slot, contents in edits]
            sent = perf_counter()
            commit = pipe.commit(txn)
        self.committed(start, feeds, commit.result(), sent)
        for (slot, __), reply in zip(edits, replies):
            self.stamp(slot, reply.result())

    def op_edit(self, op) -> None:
        __, writer, slot, new, feeds = op
        client = self.writers[writer]
        node = self.nodes[slot]
        expected = self.seen[writer][slot]
        start = perf_counter()
        try:
            time = client.modify_node(node=node, expected_time=expected,
                                      contents=new)
        except StaleVersionError:
            # The other writer got there first: refresh and resubmit.
            self.retries += 1
            current = client.open_node(node)[3]
            time = client.modify_node(node=node, expected_time=current,
                                      contents=new)
        self.committed(start, feeds, client.last_commit_lsn)
        self.stamp(slot, time, writer)

    def op_setattr(self, op) -> None:
        __, writer, slot, name, value, feeds = op
        client = self.writers[writer]
        start = perf_counter()
        client.set_node_attribute_value(
            node=self.nodes[slot],
            attribute=self.session.attributes[name], value=value)
        self.committed(start, feeds, client.last_commit_lsn)

    # -- phases ----------------------------------------------------------

    def run_ops(self, script: Script, count: int) -> None:
        """Send the first ``count`` operations of ``script``."""
        handlers = {name[3:]: getattr(self, name)
                    for name in dir(self) if name.startswith("op_")}
        began = perf_counter()
        window_start = 0.0
        in_window = 0
        self.count = count
        timed_from = warmup(count)
        for position, op in enumerate(script.ops[:count]):
            if position == timed_from:
                self.start_timing()
                window_start = perf_counter()
            elif self.timed and (
                    in_window == CALIBRATE_EVERY
                    or perf_counter() - window_start > CALIBRATE_SECONDS):
                self.close_window(window_start)
                window_start = perf_counter()
                in_window = 0
            # A pipelined transaction counts as the check-ins it carries.
            weight = len(op[1]) if op[0] == "pipetxn" else 1
            self.attempted += weight
            try:
                handlers[op[0]](op)
            except GiveUp:
                raise
            except Exception:    # a refused or failed operation
                self.check(False)
            if self.timed:
                in_window += 1
                self.window_ops += weight
        self.close_window(window_start)
        self.timed = False
        self.phases["script_s"] = perf_counter() - began

    def start_timing(self) -> None:
        self.before = self.session.launcher.request(
            cmd="counters", history=self.session.traced)
        self.calibrate(2)
        self.timed = True
        self.window = 0

    def close_window(self, start: float) -> None:
        end = perf_counter()
        self.windows.append((start, end, self.window_ops))
        self.window_ops = 0
        self.calibrate()
        self.window += 1

    def pipelined_commits(self, client, batch) -> None:
        """A burst of auto-commit check-ins on distinct nodes, streamed
        without waiting for each reply; then the events they push."""
        with client.pipeline(max_inflight=32) as pipe:
            replies = [
                pipe.modify_node(node=self.nodes[slot],
                                 expected_time=self.times[slot][-1],
                                 contents=contents)
                for slot, contents, __ in batch]
        expected: dict[int, int] = {}
        for (slot, __, feeds), reply in zip(batch, replies):
            self.attempted += 1
            try:
                self.stamp(slot, reply.result())
            except Exception:
                self.check(False)
                continue
            for number, count in feeds:
                expected[number] = expected.get(number, 0) + count
        for number, count in expected.items():
            for __ in range(count):
                self.check(self.watches[number].poll(10.0) is not None)

    def closing(self, script: Script) -> dict:
        """Checkpoint cycles, suffix, kill, recover, read back."""
        session = self.session
        client = session.writers[-1]   # a plain primary connection
        checkpoints = []
        phase_start = perf_counter()
        for burst in script.bursts:
            self.pipelined_commits(client, burst)
            # Scaled by the kernel samples right before and after.
            around = self.calibrate(4)
            start = perf_counter()
            client.checkpoint()
            seconds = perf_counter() - start
            around += self.calibrate(4)
            checkpoints.append((seconds, seconds * speed_factor(around)))
        suffix_start = perf_counter()
        for batch in script.suffix:
            self.pipelined_commits(client, batch)
        suffix_end = perf_counter()
        for watch in self.watches:     # nothing may be left over
            self.check(watch.poll(0.05) is None)
        final = session.launcher.request(cmd="counters",
                                         history=session.traced)
        if session.traced:
            session.launcher.request(cmd="spans", path=str(self.spans_path))
        # Kill; cut the files back to what was fsynced; let the standby
        # open the graph; the first verified read ends the clock.  Three
        # times over: opening the graph does not truncate the log, so
        # every attempt loads the same snapshot and replays the same
        # records.
        recoveries = []
        began = perf_counter()
        for attempt in range(RECOVERIES):
            session.standby = Launcher(
                session.root, session.args, session.traced,
                recover=session.project)
            session.standby.receive()      # imported, waiting for "go"
            around = self.calibrate(4)
            killed = perf_counter()
            session.launcher.kill()
            if attempt == 0:
                lost = discard_unflushed(session.root)
            for peer in session.clients:
                try:
                    peer.close()
                except OSError:
                    pass
            session.clients = []
            session.launcher, session.standby = session.standby, None
            session.launcher.send(cmd="go")
            ready = session.launcher.receive()
            probe = RemoteHAM("127.0.0.1", ready["port"])
            session.clients.append(probe)
            probe.host_open_graph(session.project, GRAPH_NAME)
            slot, contents = script.verify[0]
            first = probe.open_node(self.nodes[slot])[0]
            seconds = perf_counter() - killed
            self.check(first == contents)
            around += self.calibrate(4)
            recoveries.append((seconds, seconds * speed_factor(around)))
            if attempt == 0:
                recovery_layers = ready.get("recovery")
                if session.traced:
                    session.launcher.request(cmd="spans",
                                             path=str(self.spans_path))
        # Read back every node the closing phase wrote, and after a
        # whole script a sample of the rest: an acknowledged commit
        # that is gone counts as failed.
        verify = script.verify + (
            script.verify_rest if self.count == len(script.ops) else [])
        with probe.pipeline(max_inflight=32) as pipe:
            replies = [pipe.open_node(self.nodes[slot])
                       for slot, __ in verify]
        for (slot, contents), reply in zip(verify, replies):
            self.attempted += 1
            try:
                self.check(reply.result()[0] == contents)
            except Exception:
                self.check(False)
        self.phases.update(
            cycles_s=suffix_start - phase_start,
            suffix_s=suffix_end - suffix_start,
            recoveries_s=perf_counter() - began)
        return {"checkpoints": checkpoints, "final": final,
                "recoveries": recoveries, "discarded_bytes": lost,
                "recovery_layers": recovery_layers}

    @property
    def spans_path(self) -> Path:
        return OUT / f"{self.session.args.workload}.spans.jsonl"


def discard_unflushed(root: Path) -> int:
    """Cut every tracked file back to its last fsynced length: a killed
    process leaves the operating system's cache intact, so the test
    itself has to throw away what was written but never flushed."""
    lost = 0
    lengths = read_slots(str(root / "fsync.slots"))
    for name, length in lengths.items():
        path = root / GRAPH_NAME / name
        if length < 0 or not path.exists():
            continue
        size = path.stat().st_size
        if size > length:
            os.truncate(path, length)
            lost += size - length
    return lost


# ----------------------------------------------------------------------
# runs

def one_pass(args, spec, script: Script, count: int, traced: bool,
             closing: bool) -> tuple[Driver, dict | None, dict | None]:
    """Set up, send ``script.ops[:count]``, then the closing phase."""
    session = Session(args, traced, spec, script)
    try:
        gc.collect()
        gc.freeze()
        driver = Driver(session)
        if traced:
            driver.tracer = trace.Tracer("driver")
            trace.install(driver.tracer, client_side=True)
            if driver.spans_path.exists():
                driver.spans_path.unlink()
        driver.run_ops(script, count)
        after = closed = None
        if traced:
            after = session.launcher.request(cmd="counters", history=True)
        if closing:
            closed = driver.closing(script)
        if traced:
            driver.tracer.dump(str(driver.spans_path))
    finally:
        session.close()
    return driver, after, closed


def run(args) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the driver and (by inheritance) the server: a
        # closed loop keeps only one of them busy at a time anyway, and
        # wake-ups across virtual CPUs were the noisiest part of a
        # request on this box (bench/README.md).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec, script = build(args.workload, args.seed, args.seconds, args.quick)
    try:
        if args.trace:
            # The first quarter of the script, twice: untraced for the
            # baseline, traced for the spans.
            count = len(script.ops) // 4
            base, __, ___ = one_pass(args, spec, script, count,
                                     traced=False, closing=False)
            untraced = summarise(base, None)
            driver, after, closing = one_pass(args, spec, script, count,
                                              traced=True, closing=True)
            traced = summarise(driver, closing)
            layers = per_layer(driver, after, closing, untraced, traced)
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in layers.items()}
            attempted = base.attempted + driver.attempted
            failed = base.failed + driver.failed
            detail = {"untraced": untraced, "traced": traced,
                      "spans": str(driver.spans_path.relative_to(ROOT))}
        else:
            driver, __, closing = one_pass(args, spec, script,
                                           len(script.ops), traced=False,
                                           closing=True)
            figures = summarise(driver, closing)
            metrics = {name: {"value": figures[name], "unit": unit}
                       for name, unit, __, ___ in END_TO_END}
            attempted, failed = driver.attempted, driver.failed
            detail = figures
            detail["failed_op_share"] = failed / attempted
            detail["storage"] = str(OUT.relative_to(ROOT))
    finally:
        shutil.rmtree(OUT / f"run-{os.getpid()}", ignore_errors=True)
    detail["mode"] = "quick" if args.quick else "full"
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    print("detail: " + json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Neptune HAM standing benchmark: one run of one "
                    "workload, fixed work, speed-calibrated timings.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="size of the script: the work that takes "
                             "about this long at reference speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1/20-size smoke run; numbers are labelled "
                             "\"mode\": \"quick\" and never compared")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    result = run(args)
    print(json.dumps(result))
    return 0
