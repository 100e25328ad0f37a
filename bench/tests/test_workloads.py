"""Scripts are a pure function of (workload, seed, seconds)."""

import pytest

from bench.workloads import (WORKLOADS, Model, build, build_spec,
                             pred_match, pred_text, user_bytes, warmup)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_script_and_answers(workload):
    first = build(workload, 7, 10, quick=True)[1]
    second = build(workload, 7, 10, quick=True)[1]
    assert repr(first.ops) == repr(second.ops)
    assert repr(first.verify) == repr(second.verify)
    assert first.digest() == second.digest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_script(workload):
    assert (build(workload, 7, 10, quick=True)[1].digest()
            != build(workload, 8, 10, quick=True)[1].digest())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_launcher_and_driver_agree_on_the_initial_graph(workload):
    """The launcher builds from build_spec, the driver from build: the
    first version of every initial node must be the same bytes."""
    spec = build_spec(workload, 3, quick=True)
    final_spec, script = build(workload, 3, 10, quick=True)
    initial = len(spec.model.versions)
    assert [versions[1] for versions in spec.model.versions] == \
        [versions[1] for versions in final_spec.model.versions[:initial]]
    slot, contents = script.probe
    assert spec.model.current(slot) == contents


def test_a_prefix_keeps_the_mix_and_counts_its_own_bytes():
    script = build("edit-session", 5, 10)[1]
    whole, quarter = len(script.ops), len(script.ops) // 4
    for kind in ("open", "checkin", "query"):
        share = sum(op[0] == kind for op in script.ops[:quarter]) / quarter
        whole_share = sum(op[0] == kind for op in script.ops) / whole
        assert share == pytest.approx(whole_share, abs=0.02)
    assert warmup(quarter) == quarter // 20
    assert 0 < script.timed_bytes(quarter) < script.timed_bytes(whole) / 3
    # Nothing the closing phase wrote is in the sample of the rest.
    assert not ({slot for slot, __ in script.verify}
                & {slot for slot, __ in script.verify_rest})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_checks_in_the_same_number_of_bytes(workload):
    """Within a fraction of a percent: the bytes-per-byte figures must
    compare across seeds."""
    totals = []
    for seed in (1, 2, 3):
        script = build(workload, seed, 2)[1]
        totals.append(script.timed_bytes(len(script.ops))
                      + script.closing_bytes())
    assert max(totals) - min(totals) < 0.003 * min(totals)


def test_dealt_draws_differ_in_order_only():
    import random

    from bench.workloads import _dealt, _zipf

    weights = _zipf(60, 0.5)
    first = _dealt(random.Random(1), weights, 500)
    second = _dealt(random.Random(2), weights, 500)
    assert first != second
    assert sorted(first) == sorted(second)
    ranks = [rank for rank, __ in first]
    # Rank 0 weighs 1/sqrt(1) of a total of about 14.1: 35 of 500.
    assert abs(ranks.count(0) - 500 / weights[-1]) <= 1
    assert all(0.0 < share < 1.0 for __, share in first)


def test_user_bytes_counts_checked_in_contents_only():
    assert user_bytes(("checkin", 0, b"old", b"newer", ())) == 5
    assert user_bytes(("edit", 1, 0, b"abc", ())) == 3
    assert user_bytes(("annotate", 0, b"note", ())) == 4
    assert user_bytes(("pipetxn", ((0, b"ab"), (1, b"cde")), ())) == 5
    assert user_bytes(("open", 0, -1, b"whatever")) == 0


def test_every_workload_times_every_latency_class():
    for workload in WORKLOADS:
        kinds = {op[0] for op in build(workload, 1, 10, quick=True)[1].ops}
        assert kinds & {"open", "checkin"}
        assert kinds & {"query", "linearize", "links"}
        assert kinds & {"checkin", "pipetxn", "edit", "annotate"}


def test_model_predicates_follow_the_appendix():
    attrs = {"kind": "spec", "rev": "12"}
    assert pred_match(("eq", "kind", "spec"), attrs)
    assert not pred_match(("eq", "status", "draft"), attrs)   # absent
    assert pred_match(("range", "rev", 9, 12), attrs)          # numeric
    assert not pred_match(("range", "rev", 100, 200), attrs)
    assert pred_match(("or", ("eq", "kind", "x"), ("exists", "rev")), attrs)
    assert pred_text(("and", ("eq", "a", "b"), ("range", "r", 1, 2))) \
        == "(a = b and (r >= 1 and r <= 2))"


def test_model_linearize_follows_offsets_then_link_order():
    model = Model()
    root, late, early, deep = (model.add_node() for __ in range(4))
    model.add_link(root, late, offset=9)
    model.add_link(root, early, offset=2)
    model.add_link(early, deep)
    model.add_link(late, deep)
    assert model.linearize(root) == (root, early, deep, late)
    assert model.links_from(root) == (0, 1)
    assert model.links_to(deep) == (2, 3)


def test_model_query_returns_links_among_the_matched():
    model = Model()
    a, b, c = (model.add_node() for __ in range(3))
    for slot in (a, b):
        model.set_attr(slot, "team", "red")
    model.set_attr(c, "team", "blue")
    inside = model.add_link(a, b)
    model.add_link(a, c)
    assert model.query(("eq", "team", "red")) == ((a, b), (inside,))
    model.set_attr(b, "team", "blue")
    assert model.query(("eq", "team", "red")) == ((a,), ())
