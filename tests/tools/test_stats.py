"""Tests for graph statistics."""

from repro import EventKind, HAM, LinkPt
from repro.tools.stats import graph_stats


class TestCounts:
    def test_empty_graph(self, ham):
        stats = graph_stats(ham)
        assert stats.node_count == 0
        assert stats.link_count == 0
        assert stats.total_bytes == 0

    def test_node_and_link_counts(self, two_linked_nodes):
        ham, *__ = two_linked_nodes
        stats = graph_stats(ham)
        assert stats.node_count == stats.live_node_count == 2
        assert stats.link_count == stats.live_link_count == 1

    def test_deletions_split_live_from_total(self, two_linked_nodes):
        ham, node_a, *__ = two_linked_nodes
        ham.delete_node(node=node_a)
        stats = graph_stats(ham)
        assert stats.node_count == 2
        assert stats.live_node_count == 1
        assert stats.live_link_count == 0

    def test_archive_vs_file_counts(self, ham):
        ham.add_node(keep_history=True)
        ham.add_node(keep_history=False)
        stats = graph_stats(ham)
        assert stats.archive_count == 1
        assert stats.file_count == 1

    def test_version_counts(self, ham):
        node, time = ham.add_node()
        t2 = ham.modify_node(node=node, expected_time=time, contents=b"a")
        ham.modify_node(node=node, expected_time=t2, contents=b"b")
        attr = ham.get_attribute_index("status")
        ham.set_node_attribute_value(node=node, attribute=attr, value="x")
        stats = graph_stats(ham)
        assert stats.content_version_count == 3  # created + two edits
        assert stats.minor_version_count == 1
        assert stats.attribute_count == 1

    def test_history_bytes_grow_with_edits(self, ham):
        node, time = ham.add_node()
        t2 = ham.modify_node(node=node, expected_time=time,
                             contents=b"line\n" * 50)
        before = graph_stats(ham).history_bytes
        ham.modify_node(node=node, expected_time=t2,
                        contents=b"line\n" * 49 + b"edited\n")
        after = graph_stats(ham).history_bytes
        assert after > before

    def test_demon_bindings_counted(self, ham):
        node, __ = ham.add_node()
        ham.set_graph_demon_value(event=EventKind.ADD_NODE, demon="a")
        ham.set_node_demon(node=node, event=EventKind.OPEN_NODE,
                           demon="b")
        assert graph_stats(ham).demon_binding_count == 2

    def test_render_mentions_every_figure(self, two_linked_nodes):
        ham, *__ = two_linked_nodes
        text = graph_stats(ham).render()
        assert "nodes (live/total)" in text
        assert "history bytes" in text


class TestResilience:
    def test_snapshot_carries_all_counters(self):
        from repro.tools.stats import resilience_stats

        stats = resilience_stats()
        for name in ("reconnects", "retries", "injected_faults"):
            assert name in stats
            assert stats[name] >= 0

    def test_counters_feed_the_snapshot(self):
        from repro.tools.metrics import RESILIENCE
        from repro.tools.stats import resilience_stats

        before = resilience_stats()["retries"]
        RESILIENCE.increment("retries")
        assert resilience_stats()["retries"] == before + 1

    def test_render_mentions_every_counter(self):
        from repro.tools.stats import render_resilience

        text = render_resilience()
        assert "reconnects" in text
        assert "retries" in text
        assert "injected_faults" in text

    def test_record_is_a_gauge_not_a_high_water_mark(self):
        from repro.tools.metrics import CounterSet

        counters = CounterSet("test")
        counters.record("lag_bytes", 500)
        counters.record("lag_bytes", 3)
        # Last observation wins: a replica that catches up must see its
        # reported lag fall, not stick at the worst value ever seen.
        assert counters.snapshot()["lag_bytes"] == 3
        counters.record_max("peak", 500)
        counters.record_max("peak", 3)
        assert counters.snapshot()["peak"] == 500


class TestConcurrency:
    def test_lock_stats_count_writer_acquires(self, ham):
        from repro.tools.stats import lock_stats

        before = lock_stats(ham)
        with ham.begin() as txn:
            ham.add_node(txn)
        after = lock_stats(ham)
        assert after.acquires > before.acquires
        assert after.deadlock_victims == 0
        assert after.timeouts == 0

    def test_snapshot_stats_count_lock_free_readers(self, ham):
        from repro.tools.stats import snapshot_stats

        node, __ = ham.add_node()
        before = snapshot_stats(ham)
        txn = ham.begin(read_only=True)
        ham.get_node_timestamp(node, txn=txn)
        ham.open_node(node, txn=txn)
        txn.commit()
        after = snapshot_stats(ham)
        assert after["read_only_txns"] == before["read_only_txns"] + 1
        assert after["snapshot_txns"] == before["snapshot_txns"] + 1
        assert after["lock_bypasses"] > before["lock_bypasses"]
        assert after["inflight_writers"] == 0
        assert after["watermark"] >= before["watermark"]

    def test_process_wide_concurrency_counters(self, ham):
        from repro.tools.stats import concurrency_counters

        before = concurrency_counters()
        for name in ("lock_waits", "deadlock_victims", "lock_timeouts",
                     "snapshot_txns"):
            assert name in before
        txn = ham.begin(read_only=True)
        txn.abort()
        after = concurrency_counters()
        assert after["snapshot_txns"] == before["snapshot_txns"] + 1

    def test_render_mentions_every_figure(self, ham):
        from repro.tools.stats import render_concurrency

        txn = ham.begin(read_only=True)
        txn.commit()
        text = render_concurrency(ham)
        assert "lock acquires" in text
        assert "snapshot txns (lock-free)" in text
        assert "lock requests bypassed" in text
        assert "commit watermark" in text


class TestRenderers:
    def test_render_server_adds_per_server_rows_only_when_given(self):
        from repro.tools.stats import render_server

        text = render_server({"accepted": 3, "rejected": 1,
                              "active_sessions": 2})
        lines = text.splitlines()
        assert lines[0].startswith("sessions accepted")
        assert lines[0].endswith("  3")
        assert any(line.startswith("active sessions") and
                   line.endswith("  2") for line in lines)
        assert "dispatched" not in text
        assert "workers" not in text
        # Every row aligns its value column.
        assert len({line.rindex("  ") for line in lines}) == 1

    def test_render_server_defaults_to_the_process_counters(self):
        from repro.tools.stats import render_server

        text = render_server()
        for label in ("sessions accepted", "idle sessions reaped",
                      "pipelined depth (high water)",
                      "inbound queue (high water)"):
            assert label in text

    def test_render_planner_lists_each_plan_shape(self):
        from repro.tools.stats import render_planner

        text = render_planner({"plans": 5, "shape_index_scan": 3,
                               "shape_full_scan": 2, "rows_matched": 7})
        lines = text.splitlines()
        assert lines[0].split() == ["plans", "5"]
        assert lines[1].split() == ["shape", "full-scan", "2"]
        assert lines[2].split() == ["shape", "index-scan", "3"]
        assert lines[6].split() == ["rows", "matched", "7"]
        assert "seqlock fallbacks" in text

    def test_render_graph_reports_adjacency_hits(self, two_linked_nodes):
        from repro.tools.stats import graph_counters, render_graph

        ham, node_a, *__ = two_linked_nodes
        before = graph_counters()["adjacency_hits"]
        ham.links_from(node_a)
        hits = graph_counters()["adjacency_hits"]
        assert hits > before
        text = render_graph({"adjacency_hits": hits})
        assert text.splitlines()[0].endswith(f"  {hits}")
        assert "column scans (live_*)" in text
        assert "facade materializations" in text

    def test_render_replication_defaults_to_process_counters(self):
        from repro.tools.stats import render_replication

        text = render_replication()
        for label in ("lag bytes (last sample)", "replayed lsn (high water)",
                      "promotions", "stale reads rejected"):
            assert label in text

    def test_render_replication_of_a_primary_lists_subscribers(self, ham):
        from repro.tools.stats import render_replication

        status = ham.repl_status()
        status["subscribers"] = {"replica-b": 40, "replica-a": 12}
        text = render_replication(status)
        assert "role" in text and "primary" in text
        lines = text.splitlines()
        assert lines[-2].split() == ["subscriber", "replica-a", "acked", "12"]
        assert lines[-1].split() == ["subscriber", "replica-b", "acked", "40"]
        assert "streaming" not in text

    def test_render_replication_of_a_replica_shows_its_stream(self):
        from repro.tools.stats import render_replication

        text = render_replication({"role": "replica", "replayed_lsn": 90,
                                   "source_durable_lsn": 100,
                                   "commits_applied": 4,
                                   "streaming": False})
        rows = dict(line.rsplit("  ", 1) for line in text.splitlines())
        rows = {label.strip(): value for label, value in rows.items()}
        assert rows["role"] == "replica"
        assert rows["replayed lsn"] == "90"
        assert rows["source durable lsn"] == "100"
        assert rows["commits applied"] == "4"
        assert rows["streaming"] == "False"
        assert "subscriber" not in text

    def test_render_subscriptions_defaults_to_process_counters(self):
        from repro.tools.stats import render_subscriptions

        text = render_subscriptions()
        for label in ("events fired", "events delivered", "events dropped",
                      "active subscriptions"):
            assert label in text

    def test_render_subscriptions_of_one_hub(self, ham):
        from repro.tools.stats import render_subscriptions

        status = ham.subscription_status()
        text = render_subscriptions(status)
        assert "replay ring depth" in text
        assert "session subscriptions" not in text
        status.update(session_subscriptions=2, outbuf_bytes=128)
        lines = render_subscriptions(status).splitlines()
        assert lines[-2].split() == ["session", "subscriptions", "2"]
        assert lines[-1].split() == ["outbuf", "bytes", "128"]

    def test_render_wal_of_a_graph_that_committed(self, persistent_graph):
        from repro.tools.stats import render_wal, wal_stats

        project_id, directory = persistent_graph
        ham = HAM.open_graph(project_id, directory)
        try:
            ham.add_node()
            stats = wal_stats(ham)
        finally:
            ham.close()
        assert stats.appends >= 1
        rows = dict(line.rsplit("  ", 1) for line in
                    render_wal(stats).splitlines())
        rows = {label.strip(): value for label, value in rows.items()}
        assert rows["appends (blob writes)"] == str(stats.appends)
        assert rows["records appended"] == str(stats.records)
        assert rows["fsyncs per commit"] == f"{stats.fsyncs_per_commit:.3f}"
