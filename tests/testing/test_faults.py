"""Unit tests for the fault-injection layer itself."""

from __future__ import annotations

import socket

import pytest

from repro.errors import FaultError
from repro.testing import faults
from repro.tools.metrics import RESILIENCE


def plan(*specs, seed=0):
    return faults.FaultPlan(specs=tuple(specs), seed=seed)


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    faults.uninstall()


class TestSpecs:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultSpec("wal.commit.force", "explode")

    def test_hit_counts_from_one(self):
        with pytest.raises(ValueError):
            faults.FaultSpec("wal.commit.force", "raise", hit=0)

    def test_plan_is_frozen(self):
        p = plan(faults.FaultSpec("heap.pwrite", "raise"))
        with pytest.raises(AttributeError):
            p.seed = 99


class TestFiring:
    def test_noop_without_injector(self):
        faults.fire("wal.commit.force")  # must not raise

    def test_hit_counting(self):
        injector = faults.install(
            plan(faults.FaultSpec("heap.pwrite", "raise", hit=3)))
        injector.fire("heap.pwrite")
        injector.fire("heap.pwrite")
        with pytest.raises(FaultError):
            injector.fire("heap.pwrite")
        assert injector.hits("heap.pwrite") == 3
        assert [spec.hit for spec in injector.fired] == [3]

    def test_points_count_independently(self):
        injector = faults.install(
            plan(faults.FaultSpec("server.recv", "raise", hit=2)))
        injector.fire("server.send")
        injector.fire("server.recv")
        injector.fire("server.send")
        with pytest.raises(FaultError):
            injector.fire("server.recv")

    def test_raise_is_not_sticky(self):
        injector = faults.install(
            plan(faults.FaultSpec("heap.write", "raise")))
        with pytest.raises(FaultError):
            injector.fire("heap.write")
        injector.fire("heap.write")  # later traversals proceed
        assert not injector.crashed

    def test_kill_is_sticky_across_points(self):
        injector = faults.install(
            plan(faults.FaultSpec("wal.append.pre-fsync", "kill")))
        with pytest.raises(faults.SimulatedCrash):
            injector.fire("wal.append.pre-fsync")
        assert injector.crashed
        with pytest.raises(faults.SimulatedCrash):
            injector.fire("heap.pwrite")  # any point now crashes

    def test_injected_contextmanager_cleans_up(self):
        with faults.injected(plan()) as injector:
            assert faults.INJECTOR is injector
        assert faults.INJECTOR is None

    def test_fired_faults_counted(self):
        before = RESILIENCE["injected_faults"]
        with faults.injected(
                plan(faults.FaultSpec("session.dispatch", "raise"))):
            with pytest.raises(FaultError):
                faults.fire("session.dispatch")
        assert RESILIENCE["injected_faults"] == before + 1


class TestFileCorruption:
    def _fire_on_file(self, tmp_path, action, data=b"x" * 64, seed=1):
        tmp_path.mkdir(parents=True, exist_ok=True)
        path = tmp_path / "victim.bin"
        path.write_bytes(b"")
        injector = faults.install(
            plan(faults.FaultSpec("wal.append.pre-fsync", action),
                 seed=seed))
        with pytest.raises(faults.SimulatedCrash):
            injector.fire("wal.append.pre-fsync", path=str(path),
                          offset=0, data=data)
        faults.uninstall()
        return path.read_bytes()

    def test_truncate_writes_a_strict_prefix(self, tmp_path):
        data = bytes(range(64))
        written = self._fire_on_file(tmp_path, "truncate", data=data)
        assert len(written) < len(data)
        assert written == data[:len(written)]

    def test_bitflip_changes_exactly_one_bit(self, tmp_path):
        data = bytes(range(64))
        written = self._fire_on_file(tmp_path, "bitflip", data=data)
        assert len(written) == len(data)
        diff = [(a ^ b) for a, b in zip(written, data) if a != b]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1

    def test_corruption_is_deterministic_per_seed(self, tmp_path):
        first = self._fire_on_file(tmp_path / "a", "truncate", seed=42)
        second = self._fire_on_file(tmp_path / "b", "truncate", seed=42)
        third = self._fire_on_file(tmp_path / "c", "truncate", seed=43)
        assert first == second
        assert first != third or len(first) == len(third)

    def test_region_truncate_shortens_within_region(self, tmp_path):
        path = tmp_path / "victim.bin"
        path.write_bytes(bytes(range(100)))
        injector = faults.install(
            plan(faults.FaultSpec("wal.commit.force", "truncate")))
        with pytest.raises(faults.SimulatedCrash):
            injector.fire("wal.commit.force", path=str(path), offset=60,
                          length=40)
        size = len(path.read_bytes())
        assert 60 <= size < 100
        assert path.read_bytes() == bytes(range(size))


class TestSocketCorruption:
    def test_truncate_sends_prefix_and_drops_connection(self):
        left, right = socket.socketpair()
        try:
            frame = b"\x00\x00\x00\x20" + bytes(range(32))
            injector = faults.install(
                plan(faults.FaultSpec("server.send", "truncate"), seed=5))
            with pytest.raises(FaultError):
                injector.fire("server.send", sock=left, frame=frame)
            assert not injector.crashed  # connection fault, not a crash
            assert left.fileno() == -1  # closed
            right.settimeout(1.0)
            received = b""
            while True:
                chunk = right.recv(4096)
                if not chunk:
                    break
                received += chunk
            assert frame.startswith(received)
            assert len(received) < len(frame)
        finally:
            faults.uninstall()
            for sock in (left, right):
                try:
                    sock.close()
                except OSError:
                    pass

    def test_bitflip_never_touches_length_prefix(self):
        left, right = socket.socketpair()
        try:
            frame = b"\x00\x00\x00\x20" + bytes(32)
            injector = faults.install(
                plan(faults.FaultSpec("server.send", "bitflip"), seed=6))
            with pytest.raises(FaultError):
                injector.fire("server.send", sock=left, frame=frame)
            right.settimeout(1.0)
            received = b""
            while len(received) < len(frame):
                chunk = right.recv(4096)
                if not chunk:
                    break
                received += chunk
            assert len(received) == len(frame)
            assert received[:4] == frame[:4]
            assert received[4:] != frame[4:]
        finally:
            faults.uninstall()
            for sock in (left, right):
                try:
                    sock.close()
                except OSError:
                    pass
