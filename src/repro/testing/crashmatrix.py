"""Crash-matrix recovery testing: every fault point × every action.

One *case* = run the :mod:`repro.workloads.crashmix` workload against a
persistent graph with exactly one fault armed (a named injection point,
an action, and which hit triggers), let the fault crash or corrupt the
run mid-flight, reopen the graph through normal recovery, and check the
oracle's invariants against the recovered state:

- every transaction whose ``commit()`` returned is present
  byte-identically (durability — including delta-chain reconstruction
  of archived versions);
- no trace of an aborted transaction's markers is visible anywhere
  (complete recovery from any aborted transaction);
- the one transaction in flight at the crash is all-or-nothing
  (atomicity).

``run_local_case`` exercises the storage stack in-process;
``run_remote_case`` puts a :class:`repro.server.server.HAMServer` and a
resilient :class:`repro.server.client.RemoteHAM` in the loop so the
connection-level fault points get real sockets to corrupt.

This module is imported by tests on demand — keep it out of
``repro.testing.__init__`` so installing a fault plan never drags the
whole stack into :mod:`repro.storage` imports.
"""

from __future__ import annotations

import os
import threading
import time as _time
from dataclasses import dataclass

from repro.core.ham import HAM
from repro.errors import NeptuneError
from repro.server.client import RemoteHAM, RetryPolicy
from repro.server.server import HAMServer
from repro.storage.log import WalStats
from repro.storage.serializer import RECORD_HEADER, unpack_record
from repro.testing import faults
from repro.workloads.crashmix import (
    CommitOracle,
    CrashMix,
    StagedTxn,
    chain_states,
    run_checkin_mix,
    run_crash_mix,
)

__all__ = ["CaseResult", "ConcurrentCaseResult", "FailoverCaseResult",
           "PipelinedCaseResult", "SubscriptionCaseResult", "abandon",
           "run_checkin_case", "run_concurrent_case",
           "run_failover_case", "run_local_case", "run_pipelined_case",
           "run_remote_case", "run_subscription_case",
           "verify_invariants",
           "wal_record_boundaries", "FAILOVER_SCENARIOS"]


@dataclass
class CaseResult:
    """Outcome of one matrix cell (verification already passed)."""

    point: str
    action: str
    hit: int
    #: True when the armed fault actually triggered during the run.
    fired: bool
    #: What the workload raised mid-run, if anything.
    error: BaseException | None


def abandon(ham: HAM) -> None:
    """Drop a HAM the way a crash would: no checkpoint, no cleanup."""
    try:
        ham._log.close()
    except OSError:
        pass
    ham._closed = True


def _default_mix(seed: int) -> CrashMix:
    return CrashMix(steps=16, seed=seed + 11, checkpoint_at=8,
                    abort_every=5)


def _run_armed(ham_like, oracle: CommitOracle, mix: CrashMix,
               plan: faults.FaultPlan) -> tuple[bool, BaseException | None]:
    """Run the workload with ``plan`` installed; report (fired, error)."""
    injector = faults.install(plan)
    error: BaseException | None = None
    try:
        run_crash_mix(ham_like, oracle, mix)
    except (faults.SimulatedCrash, NeptuneError, OSError) as exc:
        error = exc
    finally:
        faults.uninstall()
    return bool(injector.fired), error


def run_local_case(directory, point: str, action: str, hit: int = 1,
                   seed: int = 0, mix: CrashMix | None = None,
                   ) -> CaseResult:
    """One matrix cell against an in-process HAM."""
    mix = mix if mix is not None else _default_mix(seed)
    path = os.path.join(os.fspath(directory), "graph")
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    oracle = CommitOracle()
    plan = faults.FaultPlan(
        specs=(faults.FaultSpec(point, action, hit=hit),), seed=seed)
    fired, error = _run_armed(ham, oracle, mix, plan)
    abandon(ham)
    recovered = HAM.open_graph(project_id, path)
    try:
        verify_invariants(recovered, oracle)
    finally:
        abandon(recovered)  # plain close would checkpoint; keep it inert
    return CaseResult(point=point, action=action, hit=hit, fired=fired,
                      error=error)


def run_remote_case(directory, point: str, action: str, hit: int = 1,
                    seed: int = 0, mix: CrashMix | None = None,
                    ) -> CaseResult:
    """One matrix cell with a server and a resilient client in the loop."""
    mix = mix if mix is not None else _default_mix(seed)
    path = os.path.join(os.fspath(directory), "graph")
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    server = HAMServer(ham)
    server.start()
    oracle = CommitOracle()
    plan = faults.FaultPlan(
        specs=(faults.FaultSpec(point, action, hit=hit),), seed=seed)
    try:
        client = RemoteHAM(*server.address, timeout=5.0,
                           retry=RetryPolicy(max_attempts=2,
                                             backoff_base=0.01,
                                             call_deadline=5.0,
                                             seed=seed))
        try:
            fired, error = _run_armed(client, oracle, mix, plan)
        finally:
            client.close()
    finally:
        # Leftover-transaction aborts during shutdown must write
        # normally, so the plan is already uninstalled by _run_armed.
        server.stop(disconnect_clients=True)
    abandon(ham)
    recovered = HAM.open_graph(project_id, path)
    try:
        verify_invariants(recovered, oracle)
    finally:
        abandon(recovered)
    return CaseResult(point=point, action=action, hit=hit, fired=fired,
                      error=error)


def run_checkin_case(directory, hit: int = 2, seed: int = 0,
                     steps: int = 6) -> CaseResult:
    """A ``txn.apply`` kill inside multi-check-in transactions.

    Runs :func:`run_checkin_mix`, whose check-ins journal as delta
    records, with the kill armed at commit number ``hit``.  The kill
    lands after that commit's blob was forced, so recovery must rebuild,
    byte for byte, the chains of every acknowledged commit *and* of the
    interrupted one.  Those come from a fault-free rerun of the same
    seed, whose acknowledged prefix must match the faulted run's.
    """
    base = os.fspath(directory)
    path = os.path.join(base, "graph")
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    states: list = []
    plan = faults.FaultPlan(
        specs=(faults.FaultSpec("txn.apply", "kill", hit=hit),), seed=seed)
    injector = faults.install(plan)
    error: BaseException | None = None
    try:
        run_checkin_mix(ham, states, steps=steps, seed=seed)
    except faults.SimulatedCrash as exc:
        error = exc
    finally:
        faults.uninstall()
    abandon(ham)

    reference_path = os.path.join(base, "reference")
    reference_id, __ = HAM.create_graph(reference_path)
    reference_ham = HAM.open_graph(reference_id, reference_path)
    reference: list = []
    try:
        run_checkin_mix(reference_ham, reference, steps=steps, seed=seed)
    finally:
        abandon(reference_ham)
    assert states == reference[:len(states)], (
        "the check-in mix is not deterministic per seed")

    recovered = HAM.open_graph(project_id, path)
    try:
        got = chain_states(recovered)
    finally:
        abandon(recovered)
    # states[k] is the state after k commits, so the killed commit's is
    # reference[len(states)]; a run the kill missed left states whole.
    durable = min(len(states), len(reference) - 1)
    assert got == reference[durable], (
        f"recovered chains are not those of the {durable} durable "
        f"commits ({len(states) - 1} acknowledged)")
    return CaseResult(point="txn.apply", action="kill", hit=hit,
                      fired=bool(injector.fired), error=error)


@dataclass
class ConcurrentCaseResult:
    """Outcome of one concurrent-committer cell."""

    point: str
    action: str
    hit: int
    fired: bool
    #: How many commits were acknowledged before the crash.
    acknowledged: int
    #: WAL counters at abandon time (group-commit accounting).
    wal: WalStats


def run_concurrent_case(directory, action: str, hit: int = 1,
                        seed: int = 0, threads: int = 4,
                        commits_per_thread: int = 8,
                        point: str = "wal.commit.force",
                        group_commit_window: float = 0.002,
                        ) -> ConcurrentCaseResult:
    """One matrix cell with ``threads`` committers killed mid-group-flush.

    Each worker hammers small write transactions against its *own*
    pre-created node (node-level locks only, so committers genuinely
    overlap inside :meth:`WriteAheadLog.force_up_to`) while one fault is
    armed at the group-commit fault point.  When the fault crashes the
    flush leader, waiting followers elect a new leader and die on the
    same sticky fault — exactly the all-die-together shape of a real
    process kill mid-fsync.  Recovery must then show every acknowledged
    commit byte-identically and each unacknowledged group member
    all-or-nothing.
    """
    path = os.path.join(os.fspath(directory), "graph")
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path,
                         group_commit_window=group_commit_window)
    oracle = CommitOracle()
    with ham.begin() as setup:
        nodes = []
        for __ in range(threads):
            node, _t = ham.add_node(setup)
            nodes.append(node)
        attr = ham.get_attribute_index("status", setup)

    def worker(worker_id: int) -> None:
        node = nodes[worker_id]
        for attempt in range(commits_per_thread):
            step = worker_id * 1_000 + attempt
            marker = f"concurrent-s{seed}-w{worker_id}-c{attempt}"
            staged = StagedTxn(step=step, marker=marker)
            oracle.stage(staged)
            try:
                txn = ham.begin()
                contents = f"{marker}-body".encode()
                time = ham.modify_node(
                    txn, node=node,
                    expected_time=ham.get_node_timestamp(node),
                    contents=contents)
                staged.versions.append((node, time, contents))
                value = f"{marker}-status"
                ham.set_node_attribute_value(
                    txn, node=node, attribute=attr, value=value)
                staged.attrs.append((node, attr, value, ham.now))
                txn.commit()
            except (faults.SimulatedCrash, NeptuneError, OSError):
                return  # the crash hit mid-flight; step stays in maybe
            oracle.record_commit(step)

    injector = faults.install(faults.FaultPlan(
        specs=(faults.FaultSpec(point, action, hit=hit),), seed=seed))
    try:
        pool = [threading.Thread(target=worker, args=(worker_id,),
                                 daemon=True)
                for worker_id in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30.0)
        stuck = [thread for thread in pool if thread.is_alive()]
        assert not stuck, (
            f"{len(stuck)} committer thread(s) wedged after the fault — "
            f"group-commit leader death must not strand followers")
    finally:
        faults.uninstall()
    wal = ham._log.stats()
    abandon(ham)
    recovered = HAM.open_graph(project_id, path)
    try:
        verify_invariants(recovered, oracle)
    finally:
        abandon(recovered)
    return ConcurrentCaseResult(
        point=point, action=action, hit=hit, fired=bool(injector.fired),
        acknowledged=len(oracle.committed), wal=wal)


@dataclass
class PipelinedCaseResult:
    """Outcome of one pipelined-client cell."""

    point: str
    action: str
    hit: int
    fired: bool
    #: Commits whose futures resolved successfully before the fault.
    acknowledged: int
    #: Requests the crash left unanswered — outcome genuinely unknown.
    unresolved: int
    #: Deepest client-side pipeline (in-flight futures) observed.
    max_depth: int


def run_pipelined_case(directory, point: str = "server.dispatch",
                       action: str = "raise", hit: int = 1, seed: int = 0,
                       clients: int = 2, slots: int = 3, rounds: int = 5,
                       ) -> PipelinedCaseResult:
    """One matrix cell with pipelined mutations in flight at the fault.

    Each client streams waves of ``modify_node`` requests — one per slot
    node it owns — through :meth:`RemoteHAM.pipeline`, so several
    single-operation transactions are in flight per session when the
    armed fault lands, and acknowledgements from the two sessions
    interleave out of order.  A resolved future is an acknowledged
    commit and goes into the oracle; a future answered with an error is
    a definite loser (``raise`` fires before the operation executes, and
    a failed single-operation transaction aborts whole); a future the
    crash abandoned is *unknown* — the server may or may not have
    committed it before dying.  After recovery:

    - every acknowledged commit is present byte-identically and every
      loser's marker is unseen (:func:`verify_invariants`);
    - each slot's current contents is either its last acknowledged
      version or its single unresolved in-flight write — the recovered
      graph is the acknowledged prefix of each session's ordered
      mutation stream, plus at most the one write racing the crash.
    """
    path = os.path.join(os.fspath(directory), "graph")
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    oracle = CommitOracle()
    state: list[dict] = []
    with ham.begin() as setup:
        for cid in range(clients):
            for sid in range(slots):
                node, time = ham.add_node(setup)
                contents = f"pipelined-init-c{cid}-n{sid}".encode()
                time = ham.modify_node(setup, node=node,
                                       expected_time=time,
                                       contents=contents)
                state.append({"node": node, "time": time,
                              "last": contents, "inflight": None})
    server = HAMServer(ham)
    server.start()
    depths = [0] * clients
    # Connect before arming so handshake pings do not consume hits.
    remotes = [RemoteHAM(*server.address, timeout=5.0)
               for __ in range(clients)]

    def worker(cid: int) -> None:
        my_slots = state[cid * slots:(cid + 1) * slots]
        try:
            with remotes[cid].pipeline() as pipe:
                for rnd in range(rounds):
                    wave = []
                    for sid, slot in enumerate(my_slots):
                        step = (cid + 1) * 10_000 + rnd * 100 + sid
                        marker = (f"pipelined-s{seed}-c{cid}"
                                  f"-r{rnd}-n{sid}")
                        contents = f"{marker}-body".encode()
                        staged = StagedTxn(step=step, marker=marker)
                        oracle.stage(staged)
                        slot["inflight"] = (staged, contents)
                        future = pipe.modify_node(
                            node=slot["node"],
                            expected_time=slot["time"],
                            contents=contents)
                        wave.append((slot, staged, contents, future))
                        depths[cid] = max(depths[cid], pipe.max_depth)
                    for slot, staged, contents, future in wave:
                        try:
                            time = future.result()
                        except NeptuneError:
                            # The server answered with an error: the
                            # operation's transaction aborted whole.
                            oracle.record_abort(staged.step)
                            slot["inflight"] = None
                            continue
                        staged.versions.append(
                            (slot["node"], time, contents))
                        oracle.record_commit(staged.step)
                        slot["time"] = time
                        slot["last"] = contents
                        slot["inflight"] = None
        except OSError:
            return  # transport died; unanswered steps stay unknown

    injector = faults.install(faults.FaultPlan(
        specs=(faults.FaultSpec(point, action, hit=hit),), seed=seed))
    try:
        pool = [threading.Thread(target=worker, args=(cid,), daemon=True)
                for cid in range(clients)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30.0)
        stuck = [thread for thread in pool if thread.is_alive()]
        assert not stuck, (
            f"{len(stuck)} pipelined client(s) wedged after the fault — "
            f"a dead server must abandon futures, not strand them")
    finally:
        faults.uninstall()
    for client in remotes:
        client.close()
    server.stop(disconnect_clients=True)
    # Steps the crash left unanswered cannot go through the oracle's
    # marker sweep (the server may have legitimately committed them);
    # they are checked per slot below instead.
    unknown = dict(oracle.maybe)
    oracle.maybe.clear()
    abandon(ham)
    recovered = HAM.open_graph(project_id, path)
    try:
        verify_invariants(recovered, oracle)
        for slot in state:
            current = recovered.open_node(slot["node"])[0]
            allowed = {slot["last"]}
            if slot["inflight"] is not None:
                allowed.add(slot["inflight"][1])
            assert current in allowed, (
                f"node {slot['node']} recovered {current!r}; expected "
                f"the last acknowledged write {slot['last']!r}"
                + (f" or the in-flight write {slot['inflight'][1]!r}"
                   if slot["inflight"] else ""))
    finally:
        abandon(recovered)
    return PipelinedCaseResult(
        point=point, action=action, hit=hit, fired=bool(injector.fired),
        acknowledged=len(oracle.committed), unresolved=len(unknown),
        max_depth=max(depths))


# ======================================================================
# change-feed cells


@dataclass
class SubscriptionCaseResult:
    """Outcome of one change-feed cell (no-phantom check passed)."""

    point: str
    action: str
    hit: int
    fired: bool
    #: (node, attribute name, value, time) of every pushed event.
    pushed: list
    #: Marker commits acknowledged to the writer before the fault.
    acknowledged: int


def run_subscription_case(directory, point: str = "sub.deliver",
                          action: str = "raise", hit: int = 1,
                          seed: int = 0, commits: int = 10,
                          ) -> SubscriptionCaseResult:
    """One matrix cell with a live TCP subscriber at the fault.

    The no-phantom invariant: events are emitted only after their
    commit is durable and published, so everything the server ever
    *pushed* must survive recovery — a subscriber can never have been
    told about work the recovered graph discards.  (The converse is
    allowed: a crashed commit's events are simply never pushed, and a
    delivery fault costs the subscriber its feed, not the writer its
    commit.)
    """
    from repro.errors import SubscriptionError

    path = os.path.join(os.fspath(directory), "graph")
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    server = HAMServer(ham)
    server.start()
    acknowledged = 0
    pushed: list = []
    try:
        subscriber = RemoteHAM(*server.address, timeout=5.0)
        try:
            watch = subscriber.watch(events=["setAttribute"])
            attr = ham.get_attribute_index("marker")
            injector = faults.install(faults.FaultPlan(
                specs=(faults.FaultSpec(point, action, hit=hit),),
                seed=seed))
            try:
                for step in range(commits):
                    try:
                        txn = ham.begin()
                        node, __ = ham.add_node(txn)
                        ham.set_node_attribute_value(
                            txn, node=node, attribute=attr,
                            value=f"sub-s{seed}-c{step}")
                        txn.commit()
                    except (faults.SimulatedCrash, NeptuneError,
                            OSError):
                        break
                    acknowledged += 1
            finally:
                faults.uninstall()
            # Drain everything the server actually pushed before the
            # crash; a fault-cancelled feed raises after its prefix.
            try:
                while True:
                    event = watch.poll(timeout=0.5)
                    if event is None:
                        break
                    pushed.append((event["node"],
                                   event["detail"]["attribute"],
                                   event["detail"]["value"],
                                   event["time"]))
            except SubscriptionError:
                pass
        finally:
            subscriber.close()
    finally:
        server.stop(disconnect_clients=True)
    abandon(ham)
    recovered = HAM.open_graph(project_id, path)
    try:
        registry = recovered.store.registry
        for node, name, value, stamp in pushed:
            attr_index = registry.lookup(name)
            assert attr_index is not None, (
                f"pushed attribute {name!r} unknown after recovery")
            got = recovered.store.node(node).attributes.value_at(
                attr_index, stamp, default=None)
            assert got == value, (
                f"phantom notification: pushed {value!r} for node "
                f"{node}@{stamp} but recovery holds {got!r}")
    finally:
        abandon(recovered)
    return SubscriptionCaseResult(
        point=point, action=action, hit=hit, fired=bool(injector.fired),
        pushed=pushed, acknowledged=acknowledged)


# ======================================================================
# replication failover cells


FAILOVER_SCENARIOS = ("primary-kill", "replica-kill", "torn-frames",
                      "bitflip-frames", "promote-during-replay",
                      "resync-snapshot-raise")


@dataclass
class FailoverCaseResult:
    """Outcome of one replication failover cell."""

    scenario: str
    seed: int
    #: True when the armed fault (if any) actually triggered.
    fired: bool
    #: Commits acknowledged to the writer before the scenario's fault.
    acknowledged: int
    #: Structural fingerprint every surviving graph converged to.
    fingerprint: str


def _staged_failover_commit(ham, oracle: CommitOracle, node: int,
                            attr: int, seed: int, step: int) -> None:
    """One acknowledged write transaction, staged through the oracle."""
    marker = f"failover-s{seed}-c{step}"
    staged = StagedTxn(step=step, marker=marker)
    oracle.stage(staged)
    txn = ham.begin()
    contents = f"{marker}-body".encode()
    time = ham.modify_node(txn, node=node,
                           expected_time=ham.get_node_timestamp(node),
                           contents=contents)
    staged.versions.append((node, time, contents))
    value = f"{marker}-status"
    ham.set_node_attribute_value(txn, node=node, attribute=attr,
                                 value=value)
    staged.attrs.append((node, attr, value, ham.now))
    txn.commit()
    oracle.record_commit(step)


def _await_replayed(replica, target_lsn: int, timeout: float = 15.0) -> None:
    """Block until ``replica`` has replayed past ``target_lsn``."""
    deadline = _time.monotonic() + timeout
    while replica.replayed_lsn < target_lsn:
        if _time.monotonic() > deadline:
            raise AssertionError(
                f"replica {replica.name} stalled at "
                f"{replica.replayed_lsn} < {target_lsn} "
                f"(failure: {replica.failure!r})")
        _time.sleep(0.02)


def _await_fired(injector, what: str, timeout: float = 15.0) -> None:
    """Block until the planned fault fired; assert that it did."""
    deadline = _time.monotonic() + timeout
    while not injector.fired and _time.monotonic() < deadline:
        _time.sleep(0.02)
    assert injector.fired, f"{what} never triggered"


def _converged(replica, source: HAM, oracle: CommitOracle, scenario: str,
               seed: int, what: str) -> "FailoverCaseResult":
    """Await ``replica`` catching up with ``source``, assert the failover
    contract on it, and report the cell."""
    from repro.tools.verify import compare_graphs, fingerprint
    _await_replayed(replica, source._log.durable_end())
    verify_invariants(replica.ham, oracle)
    mismatch = compare_graphs(source, replica.ham)
    assert not mismatch, f"{what}: {mismatch}"
    return FailoverCaseResult(
        scenario=scenario, seed=seed, fired=True,
        acknowledged=len(oracle.committed), fingerprint=fingerprint(source))


def run_failover_case(directory, scenario: str = "primary-kill",
                      seed: int = 0, commits: int = 12,
                      ) -> FailoverCaseResult:
    """One replication failover cell; asserts the failover contract.

    Every cell drives acknowledged write transactions through a
    replicated cluster while one well-placed disaster lands, then
    checks the two replication invariants: **no acknowledged commit is
    ever lost** (semi-sync acknowledgement means a replica replayed
    it), and every surviving graph converges to a
    **fingerprint-identical** state.

    - ``primary-kill``: semi-sync primary with two replicas dies
      abruptly with a commit racing the kill; the most-caught-up
      replica is promoted, the survivor re-targets to it, and both must
      hold every acknowledged commit and agree byte-for-byte.
    - ``replica-kill``: a :class:`~repro.testing.faults.SimulatedCrash`
      kills the apply loop mid-replay; a restarted replica re-bootstraps
      and must converge to the primary's fingerprint.
    - ``torn-frames`` / ``bitflip-frames``: the ``repl.fetch`` fault
      damages a shipped chunk in flight; the replica must detect the
      damage via frame checksums (resync) or torn-tail re-fetch and
      still converge.
    - ``promote-during-replay``: the replica is promoted while commits
      are still streaming; acknowledged commits must all be present on
      the promoted graph and it must serve as a valid source for a
      fresh replica.
    - ``resync-snapshot-raise``: the primary checkpoints, so it answers
      the replica's next fetch with ``resync``, and the ``repl.snapshot``
      fault then raises from the ``repl_snapshot`` call that follows;
      the replica must retry the resync and converge.
    """
    if scenario not in FAILOVER_SCENARIOS:
        raise ValueError(f"unknown failover scenario {scenario!r}")
    base = os.fspath(directory)
    path = os.path.join(base, "graph")
    project_id, __ = HAM.create_graph(path)
    ham = HAM.open_graph(project_id, path)
    hub = ham._replication_hub()
    oracle = CommitOracle()
    with ham.begin() as setup:
        node, __ = ham.add_node(setup)
        attr = ham.get_attribute_index("status", setup)

    if scenario == "primary-kill":
        return _failover_primary_kill(base, ham, hub, oracle, node, attr,
                                      seed, commits)
    if scenario == "replica-kill":
        return _failover_replica_kill(base, ham, oracle, node, attr,
                                      seed, commits)
    if scenario in ("torn-frames", "bitflip-frames"):
        action = "truncate" if scenario == "torn-frames" else "bitflip"
        return _failover_corrupt_frames(base, ham, oracle, node, attr,
                                        seed, commits, scenario, action)
    if scenario == "resync-snapshot-raise":
        return _failover_resync_snapshot_raise(base, ham, oracle, node,
                                               attr, seed, commits)
    return _failover_promote_during_replay(base, ham, hub, oracle, node,
                                           attr, seed, commits)


def _failover_primary_kill(base, ham, hub, oracle, node, attr, seed,
                           commits) -> FailoverCaseResult:
    from repro.replication.replica import Replica
    rep_a = Replica(ham, os.path.join(base, "replica-a"), name="a",
                    poll_wait=0.5)
    rep_b = Replica(ham, os.path.join(base, "replica-b"), name="b",
                    poll_wait=0.5)
    hub.min_sync = 1
    hub.sync_timeout = 1.0
    try:
        for step in range(commits):
            _staged_failover_commit(ham, oracle, node, attr, seed, step)

        def racing_commit() -> None:
            try:
                _staged_failover_commit(ham, oracle, node, attr, seed,
                                        commits)
            except (NeptuneError, OSError):
                pass  # in flight at the kill: stays in oracle.maybe

        racer = threading.Thread(target=racing_commit, daemon=True)
        racer.start()
        abandon(ham)  # the kill: no checkpoint, no goodbye
        racer.join(timeout=10.0)
        assert not racer.is_alive(), "commit wedged across primary death"

        # Freeze both streams before choosing: a replica still reading
        # the dying primary's log could overtake the one chosen, and a
        # survivor ahead of the new primary holds frames it never wrote.
        for rep in (rep_a, rep_b):
            rep.stop()
        promoted = max((rep_a, rep_b), key=lambda rep: rep.replayed_lsn)
        survivor = rep_b if promoted is rep_a else rep_a
        promoted.promote()
        verify_invariants(promoted.ham, oracle)
        # The survivor re-routes to the promoted primary and catches up
        # on its existing cursor (same global LSNs, same epoch).
        survivor.retarget(promoted.ham)
        survivor.start()
        for step in range(commits + 10, commits + 13):
            _staged_failover_commit(promoted.ham, oracle, node, attr,
                                    seed, step)
        return _converged(survivor, promoted.ham, oracle, "primary-kill",
                          seed, "divergence after failover")
    finally:
        for rep in (rep_a, rep_b):
            try:
                rep.close()
            except NeptuneError:
                pass


def _failover_replica_kill(base, ham, oracle, node, attr, seed,
                           commits) -> FailoverCaseResult:
    from repro.replication.replica import Replica
    # Commit the workload first, then arm the fault and let a fresh
    # replica replay into it: a crash fault is sticky process-wide, so
    # arming it while the primary still commits would kill the writer
    # at ``txn.apply`` too — a different cell's scenario.
    for step in range(commits):
        _staged_failover_commit(ham, oracle, node, attr, seed, step)
    hit = max(2, commits // 2)
    injector = faults.install(faults.FaultPlan(
        specs=(faults.FaultSpec("repl.apply", "kill", hit=hit),),
        seed=seed))
    try:
        rep = Replica(ham, os.path.join(base, "replica-a"), name="a",
                      poll_wait=0.05)
        _await_fired(injector, "repl.apply fault")
        rep._thread.join(timeout=10.0)
        assert isinstance(rep.failure, faults.SimulatedCrash), (
            f"expected the apply loop to die on SimulatedCrash, "
            f"got {rep.failure!r}")
    finally:
        faults.uninstall()
    rep.stop()
    try:
        rep.ham.close()
    except NeptuneError:
        pass
    # Restart over the same directory: the replica re-bootstraps from
    # the primary (a crashed replica's directory is not resumable) and
    # must converge to an identical graph.
    restarted = Replica(ham, os.path.join(base, "replica-a"), name="a2",
                        poll_wait=0.05)
    try:
        return _converged(restarted, ham, oracle, "replica-kill", seed,
                          "replica diverged after restart")
    finally:
        restarted.close()
        ham.close()


def _failover_corrupt_frames(base, ham, oracle, node, attr, seed,
                             commits, scenario, action,
                             ) -> FailoverCaseResult:
    from repro.replication.replica import Replica
    injector = faults.install(faults.FaultPlan(
        specs=(faults.FaultSpec("repl.fetch", action, hit=1),),
        seed=seed))
    try:
        rep = Replica(ham, os.path.join(base, "replica-a"), name="a",
                      poll_wait=0.05)
        try:
            for step in range(commits):
                _staged_failover_commit(ham, oracle, node, attr, seed,
                                        step)
            _await_fired(injector, f"repl.fetch {action}")
        finally:
            faults.uninstall()
        return _converged(rep, ham, oracle, scenario, seed,
                          f"replica diverged after {scenario}")
    finally:
        faults.uninstall()
        try:
            rep.close()
        except (NeptuneError, UnboundLocalError):
            pass
        ham.close()


def _failover_resync_snapshot_raise(base, ham, oracle, node, attr, seed,
                                    commits) -> FailoverCaseResult:
    from repro.replication.replica import Replica
    rep = Replica(ham, os.path.join(base, "replica-a"), name="a",
                  poll_wait=0.05, retry_interval=0.05)
    try:
        for step in range(commits // 2):
            _staged_failover_commit(ham, oracle, node, attr, seed, step)
        _await_replayed(rep, ham._log.durable_end())
        # Armed after the bootstrap, whose own repl_snapshot it would
        # otherwise hit.
        injector = faults.install(faults.FaultPlan(
            specs=(faults.FaultSpec("repl.snapshot", "raise", hit=1),),
            seed=seed))
        try:
            ham.checkpoint()  # a new epoch: the next fetch says resync
            for step in range(commits // 2, commits):
                _staged_failover_commit(ham, oracle, node, attr, seed,
                                        step)
            _await_fired(injector, "repl.snapshot fault")
        finally:
            faults.uninstall()
        return _converged(rep, ham, oracle, "resync-snapshot-raise", seed,
                          "replica diverged after a failed resync")
    finally:
        faults.uninstall()
        rep.close()
        ham.close()


def _failover_promote_during_replay(base, ham, hub, oracle, node, attr,
                                    seed, commits) -> FailoverCaseResult:
    from repro.errors import ReplicaLagError
    from repro.replication.replica import Replica
    rep = Replica(ham, os.path.join(base, "replica-a"), name="a",
                  poll_wait=0.05)
    hub.min_sync = 1
    hub.sync_timeout = 1.0
    stop = threading.Event()

    def writer() -> None:
        step = 0
        while not stop.is_set() and step < commits * 4:
            try:
                _staged_failover_commit(ham, oracle, node, attr, seed,
                                        step)
            except ReplicaLagError:
                return  # the replica stopped acking: promotion landed
            except (NeptuneError, OSError):
                return
            step += 1

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    end = _time.monotonic() + 15.0
    while (len(oracle.committed) < max(2, commits // 2)
           and thread.is_alive() and _time.monotonic() < end):
        _time.sleep(0.01)
    rep.promote()  # mid-stream: commits may still be in flight
    stop.set()
    thread.join(timeout=15.0)
    assert not thread.is_alive(), "writer wedged across promotion"
    abandon(ham)  # the old primary is fenced off
    try:
        # Every acknowledged commit must be on the promoted graph: the
        # semi-sync gate only acked commits this replica replayed.
        verify_invariants(rep.ham, oracle)
        # The promoted graph accepts writes and serves as a source.
        _staged_failover_commit(rep.ham, oracle, node, attr, seed,
                                commits * 4 + 1)
        fresh = Replica(rep.ham, os.path.join(base, "replica-b"),
                        name="b", poll_wait=0.05)
        try:
            return _converged(fresh, rep.ham, oracle,
                              "promote-during-replay", seed,
                              "post-promotion divergence")
        finally:
            fresh.close()
    finally:
        rep.close()


# ======================================================================
# the oracle checks


def verify_invariants(ham: HAM, oracle: CommitOracle) -> None:
    """Assert the recovery contract against a freshly recovered HAM."""
    for staged in oracle.committed.values():
        _assert_fully_present(ham, staged)
    absent_markers = [staged.marker for staged in oracle.losers.values()]
    for staged in oracle.losers.values():
        _assert_attrs_absent(ham, staged)
    for staged in oracle.maybe.values():
        items = staged.items()
        present = [item for item in items if _item_present(ham, item)]
        assert not present or len(present) == len(items), (
            f"step {staged.step} ({staged.marker}) recovered partially: "
            f"{len(present)} of {len(items)} effects present")
        if not present:
            absent_markers.append(staged.marker)
            _assert_attrs_absent(ham, staged)
    _assert_markers_unseen(ham, absent_markers)


def _assert_fully_present(ham: HAM, staged) -> None:
    for node, time, contents in staged.versions:
        recovered = ham.open_node(node, time=time)[0]
        assert recovered == contents, (
            f"step {staged.step}: node {node}@{time} recovered "
            f"{recovered!r}, committed {contents!r}")
    for node, attr, value, stamp in staged.attrs:
        recovered = ham.store.node(node).attributes.value_at(
            attr, stamp, default=None)
        assert recovered == value, (
            f"step {staged.step}: node {node} attribute {attr}@{stamp} "
            f"recovered {recovered!r}, committed {value!r}")
    for link, from_node, to_node in staged.links:
        assert ham.get_from_node(link)[0] == from_node
        assert ham.get_to_node(link)[0] == to_node
    for node in staged.new_nodes:
        ham.store.node(node)  # raises NodeNotFoundError if lost


def _item_present(ham: HAM, item) -> bool:
    kind = item[0]
    if kind == "version":
        __, node, time, contents = item
        record = ham.store.nodes.get(node)
        if record is None or time not in record.content_version_times():
            return False
        return record.contents_at(time) == contents
    if kind == "attr":
        __, node, attr, value, stamp = item
        record = ham.store.nodes.get(node)
        if record is None:
            return False
        return record.attributes.value_at(attr, stamp,
                                          default=None) == value
    if kind == "link":
        __, link, from_node, to_node = item
        record = ham.store.links.get(link)
        return record is not None
    if kind == "node":
        return item[1] in ham.store.nodes
    raise AssertionError(f"unknown staged item {item!r}")


def _assert_attrs_absent(ham: HAM, staged) -> None:
    """Targeted check: a dead transaction's attribute values are gone."""
    for node, attr, value, stamp in staged.attrs:
        record = ham.store.nodes.get(node)
        if record is None:
            continue
        for probe in (stamp, 0):  # at the write's stamp and currently
            recovered = record.attributes.value_at(attr, probe,
                                                   default=None)
            assert recovered != value, (
                f"step {staged.step}: aborted attribute value {value!r} "
                f"visible on node {node} at time {probe}")


def _assert_markers_unseen(ham: HAM, markers: list[str]) -> None:
    """Sweep every content version of every node for dead markers."""
    if not markers:
        return
    needles = [marker.encode() for marker in markers]
    for index, record in ham.store.nodes.items():
        for time in record.content_version_times():
            contents = record.contents_at(time)
            for needle in needles:
                assert needle not in contents, (
                    f"marker {needle!r} of a dead transaction survives "
                    f"in node {index}@{time}")


# ======================================================================
# log-boundary sweep support


def wal_record_boundaries(path) -> list[int]:
    """Byte offsets after each complete record frame in a WAL file."""
    with open(path, "rb") as handle:
        data = handle.read()
    boundaries = []
    offset = 0
    while offset + RECORD_HEADER.size <= len(data):
        try:
            __, offset = unpack_record(data, offset)
        except NeptuneError:
            break
        boundaries.append(offset)
    return boundaries
