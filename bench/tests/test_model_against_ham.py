"""The reference model's answers against a local HAM.ephemeral().

The driver's own operation handlers run the first 200 operations of a
script against an in-process HAM (no sockets, no launcher): every
expected answer the script carries must be what the real HAM gives.
"""

from types import SimpleNamespace

import pytest

from bench.harness import Driver
from bench.server_main import build_graph
from bench.workloads import build, build_spec


class LocalClient:
    """A HAM standing in for a RemoteHAM connection."""

    last_commit_lsn = None

    def __init__(self, ham):
        self._ham = ham

    def __getattr__(self, name):
        return getattr(self._ham, name)


class EveryEvent:
    """A watch that always has the expected event ready."""

    def poll(self, timeout=0.0):
        return {"lsn": None}


class NoLauncher:
    def request(self, **command):
        return {"kernel_s": [0.002]}



@pytest.mark.parametrize("workload", ["edit-session", "browse-history"])
def test_first_200_operations_match_the_model(workload):
    from repro import HAM

    ham = HAM.ephemeral()
    built = build_graph(ham, build_spec(workload, 11, quick=True))
    script = build(workload, 11, 10, quick=True)[1]
    client = LocalClient(ham)
    session = SimpleNamespace(
        reader=client, writers=[client], watches=[EveryEvent()],
        nodes=built["nodes"], links=built["links"], times=built["times"],
        attributes=built["attributes"], launcher=NoLauncher(),
        traced=False)
    driver = Driver(session)
    driver.run_ops(script, 200)
    assert driver.attempted == 200
    assert driver.failed == 0
    assert len(driver.samples["open"]) > 50
    assert len(driver.samples["commit"]) > 5


def test_a_wrong_expected_answer_is_counted():
    from repro import HAM

    ham = HAM.ephemeral()
    built = build_graph(ham, build_spec("edit-session", 11, quick=True))
    script = build("edit-session", 11, 10, quick=True)[1]
    kind, slot, ordinal, __ = next(op for op in script.ops
                                   if op[0] == "open")
    script.ops = [(kind, slot, ordinal, b"not the contents")]
    client = LocalClient(ham)
    session = SimpleNamespace(
        reader=client, writers=[client], watches=[EveryEvent()],
        nodes=built["nodes"], links=built["links"], times=built["times"],
        attributes=built["attributes"], launcher=NoLauncher(),
        traced=False)
    driver = Driver(session)
    driver.run_ops(script, 1)
    assert (driver.attempted, driver.failed) == (1, 1)
