"""The crash matrix: every injection point × every action, verified.

Each case runs the oracle-backed crash-mix workload with exactly one
fault armed, reopens the graph through normal recovery, and asserts the
recovery contract (committed work byte-identical, aborted work
invisible, the in-flight transaction all-or-nothing).  The matrix seed
is parameterized by ``NEPTUNE_FAULT_SEED`` so CI can run both a fixed
and a randomized sweep; a failing case replays exactly from its
(point, action, hit, seed) coordinates.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.core.ham import HAM
from repro.testing import crashmatrix as cm
from repro.testing import faults
from repro.workloads.crashmix import CommitOracle, CrashMix, run_crash_mix

SEED = int(os.environ.get("NEPTUNE_FAULT_SEED", "0"))

# Hits are chosen so every case actually reaches its trigger: the WAL
# sees one blob append and one force per commit (plus two of each per
# checkpoint) — about 15 of each across the default 16-step mix — and
# the heap points only run during the mid-workload checkpoint (its
# first positional write is the snapshot record, its second the header).
STORAGE_CASES = [
    (point, hit)
    for point, hits in (
        ("wal.append.pre-fsync", (1, 5, 12)),
        ("wal.append.post-fsync", (1, 5, 12)),
        ("wal.commit.force", (1, 6, 10)),
        ("heap.pwrite", (1, 2)),
        ("heap.write", (1,)),
        # Between the commit blob reaching the log and the write-set
        # publishing into the in-memory store: the durable log is ahead
        # of memory, so recovery must treat the commit all-or-nothing.
        ("txn.apply", (1, 5, 12)),
    )
    for hit in hits
]

CONNECTION_POINTS = ("server.send", "server.recv", "server.dispatch",
                     "session.dispatch")


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    faults.uninstall()


@pytest.mark.parametrize("action", faults.ACTIONS)
@pytest.mark.parametrize("point,hit", STORAGE_CASES)
def test_storage_matrix(tmp_path, point, hit, action):
    result = cm.run_local_case(tmp_path, point, action, hit=hit,
                               seed=SEED)
    assert result.fired, (
        f"fault at {point} hit={hit} never triggered; the workload no "
        f"longer exercises this point")


@pytest.mark.parametrize("action", faults.ACTIONS)
@pytest.mark.parametrize("hit", (1, 3))
@pytest.mark.parametrize("point", CONNECTION_POINTS)
def test_connection_matrix(tmp_path, point, action, hit):
    result = cm.run_remote_case(tmp_path, point, action, hit=hit,
                                seed=SEED)
    assert result.fired


@pytest.mark.parametrize("action", ("raise", "kill"))
@pytest.mark.parametrize("hit", (1, 3, 7))
def test_pipelined_matrix(tmp_path, action, hit):
    """Fault a worker mid-pipeline: two clients stream waves of
    mutations, so acknowledgements from the two sessions interleave out
    of order when the fault lands.  The recovered graph must be exactly
    the acknowledged prefix of each session's ordered mutation stream
    (plus at most the one write racing a crash)."""
    result = cm.run_pipelined_case(tmp_path, "server.dispatch", action,
                                   hit=hit, seed=SEED)
    assert result.fired, (
        f"fault at server.dispatch hit={hit} never triggered under "
        f"pipelined clients")
    total = 2 * 3 * 5  # clients × slots × rounds
    if action == "raise":
        # One request errors, the server lives: everything else must
        # still resolve, and the waves genuinely overlapped.
        assert result.acknowledged == total - 1
        assert result.unresolved == 0
        assert result.max_depth > 1
    else:
        # The crash abandons the tail; nothing may resolve after it.
        assert result.acknowledged < total
        assert result.acknowledged + result.unresolved <= total


@pytest.mark.parametrize("action", ("raise", "kill"))
@pytest.mark.parametrize("point,hit", (
    ("sub.deliver", 1), ("sub.deliver", 4),
    ("txn.apply", 1), ("txn.apply", 4),
))
def test_subscription_matrix(tmp_path, point, action, hit):
    """Fault delivery (``sub.deliver``) or mid-commit (``txn.apply``)
    with a live TCP subscriber attached.  The recovered graph must hold
    every value the server ever pushed — no phantom notifications for
    work recovery discards — and a delivery fault may only cost the
    subscriber its feed, never the writer its commit."""
    result = cm.run_subscription_case(tmp_path, point, action, hit=hit,
                                      seed=SEED)
    assert result.fired, (
        f"fault at {point} hit={hit} never triggered with a subscriber "
        f"attached")
    if point == "sub.deliver" and action == "raise":
        # The feed died, the commits did not.
        assert result.acknowledged == 10
        assert len(result.pushed) == hit - 1
    if point == "txn.apply":
        # The fault lands before events seal: the faulted commit (and
        # anything after the poisoned manager) was never pushed.
        assert len(result.pushed) == min(result.acknowledged, hit - 1)


@pytest.mark.parametrize("action", faults.ACTIONS)
@pytest.mark.parametrize("hit", (1, 3))
def test_concurrent_committer_matrix(tmp_path, action, hit):
    """Kill or corrupt a group flush with four committers in flight.

    Acknowledged commits must survive byte-identically; every
    unacknowledged member of the dying group must recover
    all-or-nothing; and no follower may wedge waiting on a dead leader.
    """
    result = cm.run_concurrent_case(tmp_path, action, hit=hit, seed=SEED,
                                    threads=4, commits_per_thread=8)
    assert result.fired, (
        f"fault at wal.commit.force hit={hit} never triggered under "
        f"concurrent committers")
    # Every acknowledged commit reached the durability point: the WAL
    # counted at least one commit force, and never more fsyncs than
    # forces (group commit can only merge flushes, not add them).
    if result.acknowledged:
        assert result.wal.commit_forces >= result.acknowledged
        assert result.wal.group_fsyncs <= result.wal.commit_forces


@pytest.mark.parametrize("hit", (2, 5))
def test_multi_checkin_apply_kill(tmp_path, hit):
    """Kill at ``txn.apply`` inside a transaction of several check-ins
    journaled as delta records: the recovered chains must equal, byte
    for byte, the live chains of every acknowledged commit plus the
    durable commit the kill interrupted."""
    result = cm.run_checkin_case(tmp_path, hit=hit, seed=SEED)
    assert result.fired, f"txn.apply hit={hit} never triggered"
    assert isinstance(result.error, faults.SimulatedCrash)


class TestApplyFaultPoisonsManager:
    """A commit that fails between WAL append and in-memory apply leaves
    the durable log ahead of memory.  The manager must refuse further
    work — especially checkpoints, which would snapshot the stale memory
    and truncate the log, silently losing a durable commit — until the
    graph is reopened through recovery."""

    def test_poisoned_manager_refuses_begin_and_checkpoint(self, tmp_path):
        from repro.errors import FaultError, TransactionError

        path = tmp_path / "graph"
        project_id, __ = HAM.create_graph(path)
        ham = HAM.open_graph(project_id, path)
        node, time = ham.add_node()
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec("txn.apply", "raise", hit=1),))
        with faults.injected(plan):
            with pytest.raises(FaultError):
                ham.modify_node(node=node, expected_time=time,
                                contents=b"durable but unapplied")
        assert ham._txns.poisoned
        with pytest.raises(TransactionError):
            ham.begin()
        with pytest.raises(TransactionError):
            ham.checkpoint()
        # close() must skip the checkpoint (it would lose the logged
        # commit) but still release the log cleanly.
        ham.close()
        # Recovery replays the durable commit: the write the in-memory
        # store never saw is present after reopen.
        recovered = HAM.open_graph(project_id, path)
        try:
            assert recovered.open_node(node)[0] == b"durable but unapplied"
            assert not recovered._txns.poisoned
        finally:
            recovered.close()


def test_wal_boundary_sweep(tmp_path):
    """Truncate the WAL at *every* record boundary and recover.

    At each cut the recovered graph must contain a prefix (in commit
    order) of the acknowledged transactions, fully and byte-identically,
    and no trace of the rest.
    """
    source = tmp_path / "graph"
    project_id, __ = HAM.create_graph(source)
    ham = HAM.open_graph(project_id, source)
    oracle = CommitOracle()
    run_crash_mix(ham, oracle,
                  CrashMix(steps=10, seed=SEED + 3, checkpoint_at=None,
                           abort_every=4))
    cm.abandon(ham)

    wal = source / "wal.log"
    boundaries = cm.wal_record_boundaries(wal)
    assert len(boundaries) > 10
    committed_steps = sorted(oracle.committed)

    for cut in [0] + boundaries:
        copy = tmp_path / f"cut-{cut}"
        shutil.copytree(source, copy)
        with open(copy / "wal.log", "r+b") as handle:
            handle.truncate(cut)
        recovered = HAM.open_graph(project_id, copy)
        try:
            present = [
                step for step in committed_steps
                if all(cm._item_present(recovered, item)
                       for item in oracle.committed[step].items())
            ]
            # Commits are acknowledged in step order, so the recovered
            # transactions must be a prefix of the committed sequence.
            assert present == committed_steps[:len(present)], (
                f"cut at {cut}: recovered steps {present} are not a "
                f"prefix of {committed_steps}")
            absent = [oracle.committed[step].marker
                      for step in committed_steps[len(present):]]
            absent += [staged.marker for staged in oracle.losers.values()]
            cm._assert_markers_unseen(recovered, absent)
        finally:
            cm.abandon(recovered)
