"""What a run's samples, counters and spans turn into.

The two tables here are the benchmark's contract: ``BENCHMARK.json``
repeats them (a unit test keeps them equal) and ``bench/README.md``
defines every name.
"""

from __future__ import annotations

import statistics

from bench import trace
from bench.calibrate import iqr_ratio, percentile

#: (name, unit, better, bound): what a user of the server would see.
#: BENCHMARK.json repeats this table (a unit test keeps them equal).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.10),
    ("open_p50_ms", "ms", "lower", 0.10),
    ("query_p50_ms", "ms", "lower", 0.10),
    ("commit_p50_ms", "ms", "lower", 0.10),
    ("feed_lag_p50_ms", "ms", "lower", 0.10),
    ("checkpoint_s", "s", "lower", 0.10),
    ("recover_s", "s", "lower", 0.10),
    ("disk_bytes_per_user_byte", "B/B", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

_HIGHER = {"cas.dedup_ratio", "blockcache.hit_rate",
           "table.adjacency_hits_per_op",
           "subscriptions.delivered_per_fired", "raw.ops_per_s",
           "machine.speed_factor", "trace.overhead_ratio",
           "trace.reconcile_ratio"}
_UNITS = {
    "serializer.bytes_per_op": "B", "log.bytes_per_commit": "B",
    "checkpoint.snapshot_bytes": "B", "replication.lag_bytes_p50": "B",
    "diff.delta_bytes_per_user_byte": "B/B",
    "recovery.records_replayed": "count", "subscriptions.dropped": "count",
    "raw.ops_per_s": "1/s",
}
PER_LAYER_NAMES = (
    "client.self_ms_per_op", "serializer.self_ms_per_op",
    "serializer.bytes_per_op", "protocol.self_ms_per_op",
    "server.self_ms_per_op", "server.queue_wait_ms_per_op",
    "ham.self_ms_per_op", "txn.self_ms_per_commit",
    "writeset.apply_ms_per_commit", "locks.acquires_per_commit",
    "locks.wait_ms_per_commit", "locks.retries_per_commit",
    "diff.self_ms_per_commit", "diff.delta_bytes_per_user_byte",
    "cas.intern_ms_per_commit", "cas.dedup_ratio",
    "log.append_ms_per_commit", "log.fsync_ms_per_commit",
    "log.fsyncs_per_commit", "log.bytes_per_commit",
    "deltas.get_ms_per_open", "deltas.chain_steps_per_open",
    "blockcache.hit_rate", "blockcache.evictions_per_op",
    "planner.plan_ms_per_query", "planner.candidates_per_result",
    "index.probes_per_query", "table.column_scans_per_query",
    "table.adjacency_hits_per_op", "table.facade_materializations_per_op",
    "traversal.self_ms_per_linearize", "checkpoint.serialize_ms",
    "checkpoint.write_ms", "checkpoint.snapshot_bytes",
    "recovery.snapshot_load_ms", "recovery.replay_ms",
    "recovery.records_replayed",
    "subscriptions.stage_seal_ms_per_commit",
    "subscriptions.deliver_ms_per_event",
    "subscriptions.delivered_per_fired", "subscriptions.dropped",
    "replication.ship_ms_per_commit", "replication.ack_wait_ms_per_commit",
    "replication.replay_ms_per_commit", "replication.lag_bytes_p50",
    "commit_p95_ms", "open_p95_ms", "query_p95_ms", "feed_lag_p95_ms",
    "raw.ops_per_s", "raw.commit_p50_ms", "machine.speed_factor",
    "machine.kernel_iqr_ratio", "trace.overhead_ratio",
    "trace.reconcile_ratio",
)


def layer_unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    return "ms" if "_ms" in name else "ratio"


#: (name, unit, better) of every per-layer metric, in reporting order.
PER_LAYER = tuple(
    (name, layer_unit(name), "higher" if name in _HIGHER else "lower")
    for name in PER_LAYER_NAMES)


def _scaled(driver, name: str, factors: list[float]) -> list[float]:
    return [seconds * factors[window]
            for window, seconds in driver.samples[name]]


def _ms(values, fraction: float) -> float:
    return percentile(values, fraction) * 1000.0 if values else 0.0


def summarise(driver, closing: dict | None) -> dict:
    """Raw and speed-calibrated figures of one pass."""
    factors = [driver.track.factor_over(start, end)
               for start, end, __ in driver.windows]
    ops = sum(count for __, ___, count in driver.windows)
    raw_wall = sum(end - start for start, end, __ in driver.windows)
    wall = sum((end - start)
               * driver.track.factor_over(start, end, statistics.fmean)
               for start, end, __ in driver.windows)
    figures = {
        "ops": ops,
        "ops_per_s": ops / wall,
        "raw.ops_per_s": ops / raw_wall,
        "timed_wall_s": raw_wall,
        "machine.speed_factor": driver.track.overall(),
        "machine.kernel_iqr_ratio": iqr_ratio(driver.track.samples),
        "samples": {name: len(values)
                    for name, values in driver.samples.items()},
        "phases": driver.phases,
    }
    for name, metric in (("open", "open"), ("query", "query"),
                         ("commit", "commit"), ("feed", "feed_lag")):
        scaled = _scaled(driver, name, factors)
        raw = [seconds for __, seconds in driver.samples[name]]
        figures[f"{metric}_p50_ms"] = _ms(scaled, 0.50)
        figures[f"{metric}_p95_ms"] = _ms(scaled, 0.95)
        figures[f"raw.{metric}_p50_ms"] = _ms(raw, 0.50)
    session = driver.session
    figures["setup_s"] = session.setup_s
    figures["raw.setup_s"] = session.raw_setup_s
    if closing is not None:
        raw, scaled = zip(*closing["checkpoints"])
        figures["checkpoint_s"] = statistics.median(scaled)
        figures["raw.checkpoint_s"] = statistics.median(raw)
        raw, scaled = zip(*closing["recoveries"])
        figures["recover_s"] = statistics.median(scaled)
        figures["raw.recover_s"] = statistics.median(raw)
        before, final = driver.before, closing["final"]
        written = (final["end_lsn"] - before["end_lsn"]
                   + final["heap_bytes"] - before["heap_bytes"])
        figures["disk_bytes_per_user_byte"] = written / (
            session.script.timed_bytes(driver.count)
            + session.script.closing_bytes())
        figures["peak_rss_mb"] = final["peak_rss_mb"]
        figures["discarded_bytes"] = closing["discarded_bytes"]
    return figures


def _delta(after: dict, before: dict, group: str, name: str) -> float:
    return after[group].get(name, 0) - before[group].get(name, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(driver, after: dict, closing: dict,
              untraced: dict, traced: dict) -> dict:
    """Every per-layer metric, from the traced pass's spans and the
    server's counters before and after the timed phase."""
    spans = trace.load_spans(str(driver.spans_path))
    timed = [(start, end) for start, end, __ in driver.windows]
    self_s, total_s, calls = trace.layer_times(spans, timed)
    before = driver.before
    ops = traced["ops"]
    commits = max(len(driver.samples["commit"]), 1)
    opens = max(len(driver.samples["open"]), 1)
    queries = max(len(driver.samples["query"]), 1)
    script = driver.session.script

    def self_ms(*names: str) -> float:
        return 1000.0 * sum(self_s.get(name, 0.0) for name in names)

    def total_ms(*names: str) -> float:
        return 1000.0 * sum(total_s.get(name, 0.0) for name in names)

    def moved(group: str, name: str) -> float:
        return _delta(after, before, group, name)

    ham_names = [name for name in self_s if name.startswith("ham.")]
    whole_self, whole_total, __ = trace.layer_times(spans, None)
    cycles = max(len(closing["checkpoints"]), 1)
    final = closing["final"]
    recovery = closing["recovery_layers"] or {}
    commit_self, __, ___ = trace.layer_times(spans, driver.commit_spans)
    commit_wall = sum(end - start for start, end in driver.commit_spans)
    layered = sum(seconds for name, seconds in commit_self.items()
                  if name != trace.WAIT_SPAN)
    fired = moved("subscriptions", "fired")
    metrics = {
        "client.self_ms_per_op":
            self_ms("client.call", "client.issue", "client.pump") / ops,
        "serializer.self_ms_per_op":
            self_ms("serializer.encode", "serializer.decode") / ops,
        "serializer.bytes_per_op":
            (driver.tracer.counts.get("serializer.bytes", 0)
             + _delta(after, before, "trace", "serializer.bytes")) / ops,
        "protocol.self_ms_per_op":
            self_ms("protocol.encode", "protocol.feed",
                    "protocol.read") / ops,
        "server.self_ms_per_op": self_ms("server.execute") / ops,
        "server.queue_wait_ms_per_op":
            1000.0 * _delta(after, before, "trace", "queue_wait_s") / ops,
        "ham.self_ms_per_op": self_ms(*ham_names) / ops,
        "txn.self_ms_per_commit": self_ms("txn.finish_commit") / commits,
        "writeset.apply_ms_per_commit":
            total_ms("writeset.apply") / commits,
        "locks.acquires_per_commit": moved("locks", "acquires") / commits,
        "locks.wait_ms_per_commit":
            1000.0 * moved("locks", "wait_seconds") / commits,
        "locks.retries_per_commit": driver.retries / commits,
        "diff.self_ms_per_commit":
            self_ms("diff.lines", "diff.bytes") / commits,
        "diff.delta_bytes_per_user_byte": _ratio(
            after["history_bytes"] - before["history_bytes"],
            script.timed_bytes(driver.count)),
        "cas.intern_ms_per_commit": total_ms("cas.intern") / commits,
        "cas.dedup_ratio": _ratio(after["catalog"]["logical_bytes"],
                                  after["catalog"]["stored_bytes"]),
        "log.append_ms_per_commit": total_ms("log.append") / commits,
        "log.fsync_ms_per_commit": total_ms("log.fsync") / commits,
        "log.fsyncs_per_commit": moved("wal", "group_fsyncs") / commits,
        "log.bytes_per_commit":
            (after["end_lsn"] - before["end_lsn"]) / commits,
        "deltas.get_ms_per_open": total_ms("deltas.get") / opens,
        "deltas.chain_steps_per_open":
            calls.get("deltas.step", 0) / opens,
        "blockcache.hit_rate": _ratio(
            moved("cache", "hits"),
            moved("cache", "hits") + moved("cache", "misses")),
        "blockcache.evictions_per_op": moved("cache", "evictions") / ops,
        "planner.plan_ms_per_query": total_ms("planner.plan") / queries,
        "planner.candidates_per_result": _ratio(
            moved("planner", "rows_scanned"),
            moved("planner", "rows_matched")),
        "index.probes_per_query": _ratio(moved("planner", "index_probes"),
                                         moved("planner", "plans")),
        "table.column_scans_per_query":
            moved("graph", "column_scans") / queries,
        "table.adjacency_hits_per_op":
            moved("graph", "adjacency_hits") / ops,
        "table.facade_materializations_per_op":
            moved("graph", "facade_materializations") / ops,
        "traversal.self_ms_per_linearize": _ratio(
            self_ms("traversal.linearize"), driver.linearizes),
        # Building and encoding the snapshot: all of append_snapshot
        # that is not the heap write.
        "checkpoint.serialize_ms":
            1000.0 * (whole_total.get("checkpoint.snapshot", 0.0)
                      - whole_total.get("checkpoint.write", 0.0)) / cycles,
        "checkpoint.write_ms":
            1000.0 * whole_total.get("checkpoint.write", 0.0) / cycles,
        "checkpoint.snapshot_bytes":
            (final["heap_bytes"] - after["heap_bytes"]) / cycles,
        "recovery.snapshot_load_ms":
            1000.0 * recovery.get("recovery.snapshot_load_s", 0.0),
        "recovery.replay_ms": 1000.0 * recovery.get("recovery.replay_s",
                                                    0.0),
        "recovery.records_replayed":
            recovery.get("recovery.records_replayed", 0),
        "subscriptions.stage_seal_ms_per_commit":
            total_ms("subscriptions.stage", "subscriptions.seal") / commits,
        "subscriptions.deliver_ms_per_event":
            _ratio(total_ms("subscriptions.deliver"), fired),
        "subscriptions.delivered_per_fired":
            _ratio(moved("subscriptions", "delivered"), fired),
        "subscriptions.dropped": moved("subscriptions", "dropped"),
        "replication.ship_ms_per_commit":
            total_ms("replication.ship") / commits,
        "replication.ack_wait_ms_per_commit":
            total_ms("replication.ack_wait") / commits,
        "replication.replay_ms_per_commit":
            total_ms("replication.replay") / commits,
        "replication.lag_bytes_p50":
            percentile(driver.lag_bytes, 0.5) if driver.lag_bytes else 0,
        "commit_p95_ms": untraced["commit_p95_ms"],
        "open_p95_ms": untraced["open_p95_ms"],
        "query_p95_ms": untraced["query_p95_ms"],
        "feed_lag_p95_ms": untraced["feed_lag_p95_ms"],
        "raw.ops_per_s": untraced["raw.ops_per_s"],
        "raw.commit_p50_ms": untraced["raw.commit_p50_ms"],
        "machine.speed_factor": untraced["machine.speed_factor"],
        "machine.kernel_iqr_ratio": untraced["machine.kernel_iqr_ratio"],
        "trace.overhead_ratio": traced["ops_per_s"] / untraced["ops_per_s"],
        "trace.reconcile_ratio": _ratio(layered, commit_wall),
    }
    return {name: metrics[name] for name in PER_LAYER_NAMES}
