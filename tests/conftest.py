"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import HAM, LinkPt


@pytest.fixture
def ham():
    """A fresh ephemeral (memory-only) HAM."""
    return HAM.ephemeral()


@pytest.fixture
def persistent_graph(tmp_path):
    """A created-on-disk graph: (project_id, directory path)."""
    directory = tmp_path / "graph"
    project_id, __ = HAM.create_graph(directory)
    return project_id, str(directory)


@pytest.fixture
def two_linked_nodes(ham):
    """(ham, node_a, node_b, link) with contents and one link a → b."""
    with ham.begin() as txn:
        node_a, time_a = ham.add_node(txn)
        node_b, time_b = ham.add_node(txn)
        ham.modify_node(txn, node=node_a, expected_time=time_a,
                        contents=b"alpha contents\n")
        ham.modify_node(txn, node=node_b, expected_time=time_b,
                        contents=b"beta contents\n")
        link, __ = ham.add_link(txn, from_pt=LinkPt(node_a, position=5),
                                to_pt=LinkPt(node_b))
    return ham, node_a, node_b, link


@pytest.fixture
def race_before_merge(monkeypatch):
    """``race(session, ham, node, contents)``: commit ``contents`` to
    ``node`` through ``ham`` the moment ``session`` opens its next
    transaction — after a context merge could have read the base outside
    it, before the merge transaction starts."""
    def race(session, ham, node, contents):
        real_begin = session.begin

        def begin(*args, **kwargs):
            monkeypatch.setattr(session, "begin", real_begin)
            ham.modify_node(node=node,
                            expected_time=ham.get_node_timestamp(node),
                            contents=contents)
            return real_begin(*args, **kwargs)

        monkeypatch.setattr(session, "begin", begin)

    return race
