"""A crash-oriented workload with a built-in correctness oracle.

Drives one HAM (local or remote — the surface is identical) through a
deterministic mix of transactions while recording, *before* each
operation executes, exactly what that transaction will have written if
it commits.  After a crash and recovery the oracle knows three classes
of transactions:

- **committed** — ``commit()`` returned, so every recorded effect must
  be present byte-identically (force-at-commit durability);
- **losers** — explicitly aborted, so no recorded marker may be visible
  anywhere in the recovered graph;
- **maybe** — in flight when the crash hit: the recovered graph must
  show *all* of its effects or *none* (atomicity), never a mix.

Every written payload embeds a unique marker string
(``crashmix-s<seed>-t<step>``) so the verifier can sweep the whole
recovered graph for traces of transactions that must not exist.

Used by :mod:`repro.testing.crashmatrix`; importable on its own for
ad-hoc recovery experiments.

:func:`run_checkin_mix` is the companion for delta-chain recovery: its
transactions line-edit multi-line design files, so most check-ins are
journaled as forward scripts rather than whole contents, and it records
every node's encoded record after each acknowledged commit — the exact
bytes recovery and replicas must rebuild.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.types import LinkPt
from repro.storage.serializer import encode_value

__all__ = ["CrashMix", "StagedTxn", "CommitOracle", "chain_states",
           "run_checkin_mix", "run_crash_mix"]


@dataclass(frozen=True)
class CrashMix:
    """Shape of the workload: how many transactions, what rhythm."""

    steps: int = 30
    seed: int = 7
    #: Run ``ham.checkpoint()`` after this step commits (None = never).
    checkpoint_at: int | None = None
    #: Every Nth transaction aborts instead of committing.
    abort_every: int = 5


@dataclass
class StagedTxn:
    """What one transaction wrote (recorded before each operation)."""

    step: int
    marker: str
    #: (node, version_time, contents) for every check-in.
    versions: list = field(default_factory=list)
    #: (node, attribute_index, value, stamp) for every attribute set.
    attrs: list = field(default_factory=list)
    #: (link, from_node, to_node) for every link added.
    links: list = field(default_factory=list)
    #: Nodes this transaction created.
    new_nodes: list = field(default_factory=list)

    def items(self) -> list:
        """Every recorded effect, as opaque comparable entries."""
        return ([("version",) + tuple(v) for v in self.versions]
                + [("attr",) + tuple(a) for a in self.attrs]
                + [("link",) + tuple(l) for l in self.links]
                + [("node", n) for n in self.new_nodes])


@dataclass
class CommitOracle:
    """Transaction outcomes as acknowledged to the workload driver."""

    #: step -> StagedTxn whose commit() returned.
    committed: dict = field(default_factory=dict)
    #: step -> StagedTxn that was explicitly aborted.
    losers: dict = field(default_factory=dict)
    #: step -> StagedTxn still in flight (crash interrupted it).
    maybe: dict = field(default_factory=dict)

    def stage(self, staged: StagedTxn) -> None:
        self.maybe[staged.step] = staged

    def record_commit(self, step: int) -> None:
        self.committed[step] = self.maybe.pop(step)

    def record_abort(self, step: int) -> None:
        self.losers[step] = self.maybe.pop(step)


def run_crash_mix(ham, oracle: CommitOracle, mix: CrashMix) -> None:
    """Run the workload; faults propagate to the caller mid-step.

    The oracle is mutated in place so its state is meaningful even when
    a fault aborts the run partway through — that is the whole point.
    """
    rng = random.Random(mix.seed)
    known_nodes: list[int] = []
    status_attr: int | None = None

    for step in range(1, mix.steps + 1):
        marker = f"crashmix-s{mix.seed}-t{step}"
        staged = StagedTxn(step=step, marker=marker)
        oracle.stage(staged)
        txn = ham.begin()
        try:
            for opno in range(rng.randint(1, 3)):
                choice = rng.random()
                if choice < 0.45 or not known_nodes:
                    node, __ = ham.add_node(txn)
                    staged.new_nodes.append(node)
                    contents = f"{marker}-op{opno}-created".encode()
                    time = ham.modify_node(
                        txn, node=node,
                        expected_time=ham.get_node_timestamp(node, txn=txn),
                        contents=contents)
                    staged.versions.append((node, time, contents))
                elif choice < 0.75:
                    node = rng.choice(known_nodes)
                    contents = f"{marker}-op{opno}-edit".encode()
                    time = ham.modify_node(
                        txn, node=node,
                        expected_time=ham.get_node_timestamp(node, txn=txn),
                        contents=contents)
                    staged.versions.append((node, time, contents))
                elif choice < 0.9 and len(known_nodes) >= 2:
                    source, target = rng.sample(known_nodes, 2)
                    link, __ = ham.add_link(
                        txn, from_pt=LinkPt(source), to_pt=LinkPt(target))
                    staged.links.append((link, source, target))
                else:
                    node = rng.choice(known_nodes)
                    if status_attr is None:
                        attr = ham.get_attribute_index("status", txn)
                    else:
                        attr = status_attr
                    value = f"{marker}-op{opno}-status"
                    ham.set_node_attribute_value(
                        txn, node=node, attribute=attr, value=value)
                    staged.attrs.append((node, attr, value, ham.now))
            if mix.abort_every and step % mix.abort_every == 0:
                txn.abort()
                oracle.record_abort(step)
            else:
                txn.commit()
                oracle.record_commit(step)
                known_nodes.extend(staged.new_nodes)
                # The attribute index is only durable once its interning
                # transaction commits; cache it no earlier.
                if status_attr is None and staged.attrs:
                    status_attr = staged.attrs[0][1]
        except BaseException:
            # Leave the step in oracle.maybe: the fault hit mid-flight.
            raise
        if mix.checkpoint_at is not None and step == mix.checkpoint_at:
            ham.checkpoint()


def chain_states(ham) -> dict[int, bytes]:
    """Every node's encoded record: version chain, hashes, metadata."""
    return {index: encode_value(record.to_record())
            for index, record in ham.store.nodes.items()}


def run_checkin_mix(ham, states: list, steps: int = 8, seed: int = 0,
                    nodes: int = 3, lines: int = 30) -> None:
    """Multi-check-in transactions over line-edited design files.

    One set-up transaction creates ``nodes`` archive nodes with
    ``lines``-line bodies; each of the ``steps`` transactions after it
    edits a few lines of two or three of them, checking one node in
    twice.  ``states`` receives :func:`chain_states` before the set-up
    and after every acknowledged commit, so after a fault
    ``states[-1]`` is the last acknowledged state.  Deterministic per
    ``seed``: a fault-free rerun reproduces the states a faulted run
    never reached.
    """
    rng = random.Random(seed)
    states.append(chain_states(ham))
    bodies: dict[int, list[bytes]] = {}
    times: dict[int, int] = {}
    with ham.begin() as txn:
        for slot in range(nodes):
            node, time = ham.add_node(txn)
            bodies[node] = [f"node {slot} line {k}: {rng.random():.15f}\n"
                            .encode() for k in range(lines)]
            times[node] = ham.modify_node(txn, node=node, expected_time=time,
                                          contents=b"".join(bodies[node]))
    states.append(chain_states(ham))
    for step in range(steps):
        with ham.begin() as txn:
            touched = rng.sample(sorted(bodies), min(len(bodies),
                                                     rng.randint(2, 3)))
            for node in touched + touched[:1]:
                body = bodies[node]
                for __ in range(rng.randint(1, 3)):
                    body[rng.randrange(len(body))] = (
                        f"step {step} edit {rng.random():.15f}\n".encode())
                times[node] = ham.modify_node(
                    txn, node=node, expected_time=times[node],
                    contents=b"".join(body))
        states.append(chain_states(ham))
