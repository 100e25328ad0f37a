"""Application layers driven through the remote client.

The paper's applications run on workstations against the central HAM
server (§4.1).  These tests pin the property that every application
layer works unchanged over :class:`RemoteHAM` — i.e. the apps only use
the public operation surface, never in-process shortcuts.
"""

import pytest

from repro import HAM
from repro.apps.case import CaseApplication, ModuleKind
from repro.apps.configurations import ConfigurationManager
from repro.apps.documents import DocumentApplication
from repro.apps.publishing import render_hardcopy
from repro.apps.trails import TrailRecorder
from repro.server import HAMServer, RemoteHAM


@pytest.fixture
def remote():
    ham = HAM.ephemeral()
    server = HAMServer(ham).start()
    client = RemoteHAM(*server.address)
    yield ham, client
    client.close()
    server.stop()


class TestDocumentsOverRpc:
    def test_build_and_print_a_document(self, remote):
        __, client = remote
        app = DocumentApplication(client)
        doc = app.create_document("Remote Manual")
        intro = app.add_section(doc, doc.root, "Intro", b"Hello.\n")
        app.add_section(doc, intro, "Details", b"More.\n")
        text = render_hardcopy(app, doc.root)
        assert "1 Intro" in text
        assert "1.1 Details" in text

    def test_annotate_over_rpc_is_atomic(self, remote):
        ham, client = remote
        app = DocumentApplication(client)
        doc = app.create_document("Doc")
        annotation, link = app.annotate(doc.root, 1, "remote note")
        assert ham.open_node(annotation)[0] == b"remote note"

    def test_outline_over_rpc(self, remote):
        __, client = remote
        app = DocumentApplication(client)
        doc = app.create_document("Doc")
        app.add_section(doc, doc.root, "One")
        app.add_section(doc, doc.root, "Two")
        titles = [title for __, ___, title in app.outline(doc)]
        assert titles == ["Doc", "One", "Two"]


class TestCaseOverRpc:
    def test_project_construction_and_queries(self, remote):
        __, client = remote
        case = CaseApplication(client, project="remote")
        module = case.create_module("M", ModuleKind.IMPLEMENTATION,
                                    responsible="norm")
        procedure = case.add_procedure(
            module, "Run", b"PROCEDURE Run;\nBEGIN\nEND Run;\n")
        assert case.procedures(module.node) == [procedure]
        assert module.node in case.nodes_responsible_to("norm")

    def test_compiled_outputs_over_rpc(self, remote):
        __, client = remote
        case = CaseApplication(client)
        module = case.create_module("M", ModuleKind.IMPLEMENTATION)
        procedure = case.add_procedure(
            module, "P", b"PROCEDURE P;\nBEGIN\nEND P;\n")
        outputs = case.attach_object_code(procedure, b"OBJ\n", b"SYM\n")
        assert case.compiled_outputs(procedure) == outputs


class TestTrailsOverRpc:
    def test_record_save_replay(self, remote):
        __, client = remote
        app = DocumentApplication(client)
        doc = app.create_document("Doc")
        section = app.add_section(doc, doc.root, "S", b"body\n")
        recorder = TrailRecorder(client)
        recorder.start(doc.root)
        ___, points, ____, _____ = client.open_node(doc.root)
        structural = [li for li, end, __ in points if end == "from"][0]
        recorder.follow(structural)
        trail_node = recorder.save("remote trail")
        loaded = TrailRecorder(client).load(trail_node)
        assert loaded.nodes == [doc.root, section]


class TestConfigurationsOverRpc:
    def test_freeze_and_checkout(self, remote):
        __, client = remote
        node, time = client.add_node()
        client.modify_node(node=node, expected_time=time,
                           contents=b"v1\n")
        manager = ConfigurationManager(client)
        config = manager.freeze("release", [node])
        current = client.get_node_timestamp(node)
        client.modify_node(node=node, expected_time=current,
                           contents=b"v2\n")
        assert manager.checkout(config)[node] == b"v1\n"
        assert len(manager.drift(config)) == 1


class TestContextsOverRpc:
    def test_private_world_merge_remotely(self, remote):
        from repro import ContextManager
        ham, client = remote
        node, time = client.add_node()
        client.modify_node(node=node, expected_time=time,
                           contents=b"line one\nline two\n")
        manager = ContextManager(client)
        context = manager.create("remote-private")
        context.modify_node(node, b"line one\nEDITED\n")
        # Invisible to the base until merged.
        assert ham.open_node(node)[0] == b"line one\nline two\n"
        report = manager.merge(context)
        assert report.clean
        assert ham.open_node(node)[0] == b"line one\nEDITED\n"

    def test_remote_three_way_merge(self, remote):
        from repro import ContextManager
        ham, client = remote
        node, time = client.add_node()
        client.modify_node(node=node, expected_time=time,
                           contents=b"a\nb\nc\n")
        manager = ContextManager(client)
        context = manager.create("fork")
        context.modify_node(node, b"A\nb\nc\n")
        current = client.get_node_timestamp(node)
        client.modify_node(node=node, expected_time=current,
                           contents=b"a\nb\nC\n")
        report = manager.merge(context)
        assert report.clean
        assert ham.open_node(node)[0] == b"A\nb\nC\n"

    def test_commit_racing_a_remote_merge_survives(self, remote,
                                                   race_before_merge):
        from repro import ContextManager
        ham, client = remote
        node, time = client.add_node()
        client.modify_node(node=node, expected_time=time,
                           contents=b"a\nb\nc\n")
        manager = ContextManager(client)
        context = manager.create("fork")
        context.modify_node(node, b"A\nb\nc\n")
        race_before_merge(client, ham, node, b"a\nb\nC\n")
        report = manager.merge(context)
        assert ham.open_node(node)[0] == b"A\nb\nC\n"
        assert report.clean
        assert report.three_way_nodes == [node]
