"""Span self-time arithmetic on hand-built trees."""

import pytest

from bench.trace import Tracer, layer_times


def span(tag, name, start, end, parent, span_id):
    return (tag, name, start, end, parent, span_id, 0)


def test_self_time_is_duration_minus_child_cover():
    spans = [
        span("server", "server.execute", 0.0, 10.0, 0, 1),
        span("server", "ham.modify_node", 1.0, 9.0, 1, 2),
        span("server", "log.append", 2.0, 3.0, 2, 3),
        span("server", "log.fsync", 3.0, 7.0, 2, 4),
    ]
    self_s, total_s, calls = layer_times(spans)
    assert self_s["server.execute"] == pytest.approx(2.0)
    assert self_s["ham.modify_node"] == pytest.approx(3.0)
    assert self_s["log.fsync"] == pytest.approx(4.0)
    assert total_s["ham.modify_node"] == pytest.approx(8.0)
    assert calls == {"server.execute": 1, "ham.modify_node": 1,
                     "log.append": 1, "log.fsync": 1}
    # Self times of one tree add up to the root's duration.
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [
        span("server", "parent", 0.0, 10.0, 0, 1),
        span("server", "child", 1.0, 6.0, 1, 2),
        span("server", "child", 4.0, 8.0, 1, 3),     # overlaps 4..6
        span("server", "child", 9.0, 12.0, 1, 4),    # runs past the end
    ]
    self_s, __, ___ = layer_times(spans)
    assert self_s["parent"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_span_ids_are_per_process():
    spans = [
        span("driver", "client.call", 0.0, 5.0, 0, 1),
        span("driver", "wire.wait", 1.0, 4.0, 1, 2),
        span("server", "server.execute", 1.5, 3.5, 0, 1),
        span("server", "ham.open_node", 2.0, 3.0, 1, 2),
    ]
    self_s, __, ___ = layer_times(spans)
    assert self_s["client.call"] == pytest.approx(2.0)
    assert self_s["server.execute"] == pytest.approx(1.0)


def test_within_keeps_spans_that_start_inside_an_interval():
    spans = [span("server", "a", 0.5, 1.0, 0, 1),
             span("server", "a", 2.5, 2.75, 0, 2),
             span("server", "a", 5.0, 6.0, 0, 3)]
    self_s, __, calls = layer_times(spans, [(0.0, 1.0), (4.0, 7.0)])
    assert calls["a"] == 2
    assert self_s["a"] == pytest.approx(1.5)


def test_wrapped_calls_nest_by_thread_stack():
    tracer = Tracer("test")

    def leaf():
        return 1

    inner = tracer.wrap(leaf, "leaf.call")

    def trunk():
        return inner() + inner()

    outer = tracer.wrap(trunk, "trunk.call")
    assert outer() == 2
    names = [entry[0] for entry in tracer.spans]
    assert names == ["leaf.call", "leaf.call", "trunk.call"]
    trunk_id = tracer.spans[2][4]
    assert [entry[3] for entry in tracer.spans] == [trunk_id, trunk_id, 0]
