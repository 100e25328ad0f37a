"""Deterministic fault injection for the storage and server stacks.

The paper's HAM promises "complete recovery from any aborted
transaction" (§2.2); that promise is only as good as the failure paths
nobody exercises.  This module provides *named injection points* woven
through the WAL, heap, server, and replication, each of which can be told —
via a seeded, replayable :class:`FaultPlan` — to fail in one of four
ways on its N-th traversal:

- ``raise``    — raise :class:`repro.errors.FaultError` (a transient
  software error: the process lives, the operation fails);
- ``kill``     — simulate a process kill: raise :class:`SimulatedCrash`
  (a ``BaseException``) and go *sticky*: every later traversal of any
  point also crashes, so close/flush handlers cannot quietly complete
  the work a dead process never would have;
- ``truncate`` — write only a random prefix of the bytes that were
  about to reach the medium (a torn write), then crash sticky;
- ``bitflip``  — flip one random bit in the data (silent medium
  corruption), then crash sticky.  Socket points corrupt the outgoing
  frame and drop the connection instead (the process lives).

Injection points
----------------

======================  ================================================
``wal.append.pre-fsync``   before a WAL record's bytes reach the file
``wal.append.post-fsync``  after the write, before any fsync covers it
``wal.commit.force``       before the commit-time fsync (corruption is
                           confined to the not-yet-forced region)
``heap.write``             before a heap record's bytes are placed
                           (handed over as its framed ``parts``)
``heap.pwrite``            before each positional write into the heap
                           file — a record's buffers, up to 1 024 per
                           write, or the header — as its ``parts``
``server.send``            before a response frame is sent
``server.recv``            before a request frame is read
``server.dispatch``        in a worker, before an admitted (possibly
                           pipelined) request executes
``session.dispatch``       before a decoded request dispatches
``txn.apply``              after the commit blob is appended (and any
                           synchronous force paid), before the write-set
                           publishes into the in-memory store
``repl.ship``              on the primary, before durable log bytes are
                           served to a replication subscriber
``repl.snapshot``          on the primary, before it builds a
                           ``replSnapshot`` reply (a bootstrap or a
                           replica's resync)
``repl.fetch``             on a replica, when a fetched chunk arrives —
                           corruption actions tear or bit-flip the
                           in-flight chunk (the replica must survive)
``repl.apply``             on a replica, before a shipped commit group
                           publishes into the replica's store
``sub.deliver``            in the subscription hub, after a commit is
                           durable and published, before its events are
                           handed to one subscriber's delivery callback
======================  ================================================

Zero-cost when disabled: call sites guard with
``if faults.INJECTOR is not None`` — one global read and a comparison.

Usage::

    plan = FaultPlan((FaultSpec("wal.commit.force", "truncate", hit=3),),
                     seed=42)
    with faults.injected(plan):
        run_workload()          # the 3rd commit force tears the log tail
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random

from repro.errors import FaultError

__all__ = [
    "ACTIONS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "INJECTOR",
    "POINTS",
    "SimulatedCrash",
    "fire",
    "injected",
    "install",
    "uninstall",
]

#: Every injection point woven into the stacks (see module docstring).
POINTS = (
    "wal.append.pre-fsync",
    "wal.append.post-fsync",
    "wal.commit.force",
    "heap.write",
    "heap.pwrite",
    "server.send",
    "server.recv",
    "server.dispatch",
    "session.dispatch",
    "txn.apply",
    "repl.ship",
    "repl.snapshot",
    "repl.fetch",
    "repl.apply",
    "sub.deliver",
)

#: Supported fault actions.
ACTIONS = ("raise", "kill", "truncate", "bitflip")


class SimulatedCrash(BaseException):
    """The process model died at an injection point.

    Deliberately a ``BaseException``: ``except Exception`` handlers in
    the code under test must not be able to swallow a crash.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point}")
        self.point = point


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire ``action`` on the ``hit``-th traversal of ``point``."""

    point: str
    action: str
    hit: int = 1

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.hit < 1:
            raise ValueError("hit counts from 1")


@dataclass(frozen=True)
class FaultPlan:
    """A replayable set of faults: specs plus the corruption RNG seed."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0


class FaultInjector:
    """Counts traversals of injection points and triggers planned faults.

    Thread-safe.  All randomness (how many bytes a torn write keeps,
    which bit flips) comes from ``Random(plan.seed)``, so a failing case
    replays exactly from its (plan, seed) pair.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = Random(plan.seed)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        #: Specs that have fired, in firing order.
        self.fired: list[FaultSpec] = []
        #: True once a kill/truncate/bitflip crash fired; every later
        #: traversal of any point raises :class:`SimulatedCrash`.
        self.crashed = False

    # ------------------------------------------------------------------

    def hits(self, point: str) -> int:
        """How many times ``point`` has been traversed."""
        with self._lock:
            return self._hits.get(point, 0)

    def fire(self, point: str, **ctx) -> None:
        """Called from an injection point; triggers a planned fault."""
        with self._lock:
            if self.crashed:
                raise SimulatedCrash(point)
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            spec = self._match(point, count)
            if spec is None:
                return
            self.fired.append(spec)
        self._count_injected()
        self._trigger(spec, ctx)

    def _match(self, point: str, count: int) -> FaultSpec | None:
        for spec in self.plan.specs:
            if spec.point == point and spec.hit == count:
                return spec
        return None

    @staticmethod
    def _count_injected() -> None:
        # Imported lazily: repro.tools pulls in repro.core.ham, which
        # imports the storage modules that import this module.
        try:
            from repro.tools.metrics import RESILIENCE
        except Exception:  # pragma: no cover - partial interpreter teardown
            return
        RESILIENCE.increment("injected_faults")

    # ------------------------------------------------------------------
    # actions

    def _trigger(self, spec: FaultSpec, ctx: dict) -> None:
        if spec.action == "raise":
            raise FaultError(f"injected fault at {spec.point}")
        if spec.action == "kill":
            self.crashed = True
            raise SimulatedCrash(spec.point)
        # truncate / bitflip: pick the corruption strategy from the
        # context the injection point supplied.
        if "sock" in ctx:
            self._corrupt_sock(spec, ctx)
        elif "buffer" in ctx:
            self._corrupt_buffer(spec, ctx)
        elif "data" in ctx or "parts" in ctx:
            self._corrupt_pre_write(spec, ctx)
        elif ctx.get("length"):
            self._corrupt_region(spec, ctx)
        else:
            # Nothing to corrupt at this point (e.g. an empty region or a
            # pure dispatch point): degrade to a kill.
            self.crashed = True
            raise SimulatedCrash(spec.point)

    def _flip_one_bit(self, data: bytes) -> bytes:
        if not data:
            return data
        mutated = bytearray(data)
        mutated[self._rng.randrange(len(mutated))] ^= \
            1 << self._rng.randrange(8)
        return bytes(mutated)

    def _corrupt_pre_write(self, spec: FaultSpec, ctx: dict) -> None:
        """Corrupt a write that has NOT happened yet.

        The injector performs the (torn or bit-flipped) write itself via
        its own descriptor, then crashes sticky so the intact write
        never lands.  A point that streams its write as ``parts`` (the
        snapshot heap) is joined here, only because it is corrupted.
        """
        path, offset = ctx["path"], ctx["offset"]
        if "parts" in ctx:
            data = b"".join(ctx["parts"])
        else:
            data = bytes(ctx["data"])
        if spec.action == "truncate":
            keep = self._rng.randrange(len(data)) if data else 0
            written = data[:keep]
        else:
            written = self._flip_one_bit(data)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            os.lseek(fd, offset, os.SEEK_SET)
            if written:
                os.write(fd, written)
            if spec.action == "truncate" and offset + len(data) >= size:
                # The torn write was extending the file: leave it short.
                os.ftruncate(fd, offset + len(written))
            os.fsync(fd)
        finally:
            os.close(fd)
        self.crashed = True
        raise SimulatedCrash(spec.point)

    def _corrupt_region(self, spec: FaultSpec, ctx: dict) -> None:
        """Corrupt an already-written (but not yet forced) byte region."""
        path, offset, length = ctx["path"], ctx["offset"], ctx["length"]
        fd = os.open(path, os.O_RDWR, 0o644)
        try:
            if spec.action == "truncate":
                os.ftruncate(fd, offset + self._rng.randrange(length))
            else:
                os.lseek(fd, offset, os.SEEK_SET)
                region = os.read(fd, length)
                os.lseek(fd, offset, os.SEEK_SET)
                os.write(fd, self._flip_one_bit(region))
            os.fsync(fd)
        finally:
            os.close(fd)
        self.crashed = True
        raise SimulatedCrash(spec.point)

    def _corrupt_buffer(self, spec: FaultSpec, ctx: dict) -> None:
        """Corrupt an in-memory chunk in place (a torn network read).

        Not a process crash, and — unlike every other corruption — not
        an error either: the damaged chunk is *delivered*, exactly as a
        torn read would deliver it, and the receiving side must detect
        the damage itself (frame checksums) and recover.  The injector
        does not go sticky.
        """
        buffer = ctx["buffer"]
        if len(buffer):
            if spec.action == "truncate":
                del buffer[self._rng.randrange(len(buffer)):]
            else:
                buffer[self._rng.randrange(len(buffer))] ^= \
                    1 << self._rng.randrange(8)

    def _corrupt_sock(self, spec: FaultSpec, ctx: dict) -> None:
        """Corrupt a wire frame and drop the connection.

        Network faults are not process crashes: the server survives and
        only this connection dies, so the error raised here is a plain
        :class:`FaultError` and the injector does not go sticky.
        """
        sock = ctx["sock"]
        frame = ctx.get("frame")
        try:
            if frame:
                frame = bytes(frame)
                if spec.action == "truncate":
                    keep = self._rng.randrange(len(frame))
                    if keep:
                        sock.sendall(frame[:keep])
                elif len(frame) > 4:
                    # Flip a bit after the length prefix — corrupting the
                    # prefix would stall the peer on a bogus huge read
                    # instead of failing its checksum.
                    mutated = bytearray(frame)
                    mutated[4 + self._rng.randrange(len(frame) - 4)] ^= \
                        1 << self._rng.randrange(8)
                    sock.sendall(bytes(mutated))
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
        raise FaultError(
            f"injected connection fault ({spec.action}) at {spec.point}")


# ----------------------------------------------------------------------
# module-level switch

#: The installed injector, or None.  Hot paths read this once; when it
#: is None the injection point costs one global load and a comparison.
INJECTOR: FaultInjector | None = None


def install(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-wide; returns the live injector."""
    global INJECTOR
    INJECTOR = FaultInjector(plan)
    return INJECTOR


def uninstall() -> None:
    """Remove any installed injector."""
    global INJECTOR
    INJECTOR = None


@contextmanager
def injected(plan: FaultPlan):
    """``with faults.injected(plan) as injector:`` — install then clean up."""
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()


def fire(point: str, **ctx) -> None:
    """Traverse an injection point (no-op when nothing is installed)."""
    injector = INJECTOR
    if injector is not None:
        injector.fire(point, **ctx)
