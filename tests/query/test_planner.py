"""Tests for the cost-based query planner and its execution pieces."""

import random

import pytest

from repro.core.ham import HAM
from repro.query.batch import batch_filter, batch_positions
from repro.query.evaluator import evaluate
from repro.query.index import AttributeValueIndex
from repro.query.parser import parse_predicate
from repro.query.planner import (
    EmptyScan,
    FullScan,
    IndexIntersect,
    IndexUnion,
    SingleProbe,
    compile_predicate,
    estimate_selectivity,
    normalize,
    plan_query,
)
from repro.query.predicate import (
    And,
    CompareOp,
    Comparison,
    Exists,
    FalsePredicate,
    Not,
    Or,
    TruePredicate,
)
from repro.query.traversal import named_attributes


def _eq(attr, value):
    return Comparison(attr, CompareOp.EQ, value)


# ======================================================================
# normalization

class TestNormalize:
    def test_flattens_nested_compounds(self):
        nested = And(_eq("a", "1"), And(_eq("b", "2"), _eq("c", "3")))
        assert normalize(nested) == And(
            _eq("a", "1"), _eq("b", "2"), _eq("c", "3"))

    def test_de_morgan_through_and(self):
        assert normalize(Not(And(_eq("a", "1"), _eq("b", "2")))) == \
            Or(Not(_eq("a", "1")), Not(_eq("b", "2")))

    def test_de_morgan_through_or(self):
        assert normalize(Not(Or(_eq("a", "1"), _eq("b", "2")))) == \
            And(Not(_eq("a", "1")), Not(_eq("b", "2")))

    def test_double_negation_cancels(self):
        assert normalize(Not(Not(_eq("a", "1")))) == _eq("a", "1")

    def test_not_is_never_pushed_into_comparisons(self):
        # not (a = 1) is NOT a != 1: both are false when a is absent.
        assert normalize(Not(_eq("a", "1"))) == Not(_eq("a", "1"))

    def test_constant_folding(self):
        assert normalize(And(_eq("a", "1"), TruePredicate())) == _eq("a", "1")
        assert normalize(And(_eq("a", "1"), FalsePredicate())) == \
            FalsePredicate()
        assert normalize(Or(_eq("a", "1"), TruePredicate())) == \
            TruePredicate()
        assert normalize(Or(_eq("a", "1"), FalsePredicate())) == _eq("a", "1")
        assert normalize(Not(TruePredicate())) == FalsePredicate()

    def test_normalization_preserves_semantics(self):
        rng = random.Random(11)
        attrs = ["a", "b", "c"]
        values = ["1", "2", "x"]

        def random_predicate(depth=0):
            roll = rng.random()
            if depth >= 3 or roll < 0.4:
                return Comparison(rng.choice(attrs),
                                  rng.choice(list(CompareOp)),
                                  rng.choice(values))
            if roll < 0.55:
                return Not(random_predicate(depth + 1))
            if roll < 0.6:
                return Exists(rng.choice(attrs))
            compound = And if roll < 0.8 else Or
            return compound(*[random_predicate(depth + 1)
                              for __ in range(rng.randrange(1, 4))])

        panels = [{}, {"a": "1"}, {"a": "x", "b": "2"},
                  {"a": "1", "b": "2", "c": "x"}, {"c": "3"}]
        for __ in range(300):
            predicate = random_predicate()
            normalized = normalize(predicate)
            for attrs_set in panels:
                assert evaluate(normalized, attrs_set) == \
                    evaluate(predicate, attrs_set), (predicate, attrs_set)


# ======================================================================
# the satellite regression: Or/Not nested equalities are not index keys

class TestOrNotRegression:
    """Equality conjuncts under Or/Not must not become mandatory keys.

    The seed's ``_equality_conjuncts`` is gone; the planner must treat
    ``Or(Eq, Eq)`` as a union (not an intersection) and ``Not(Eq)`` as
    a scan (the complement of a posting set is not indexable).
    """

    def build(self):
        ham = HAM.ephemeral()
        with ham.begin() as txn:
            doc = ham.get_attribute_index("document", txn)
            for value in ("spec", "plan", "memo"):
                node, __ = ham.add_node(txn)
                ham.set_node_attribute_value(txn, node=node, attribute=doc,
                                             value=value)
            bare, __ = ham.add_node(txn)   # carries no attributes at all
        return ham

    def test_or_of_equalities_returns_the_union(self):
        ham = self.build()
        result = ham.get_graph_query(
            node_predicate="document = spec or document = plan")
        assert len(result.nodes) == 2

    def test_or_shape_is_a_union_not_an_intersection(self):
        plan = plan_query(Or(_eq("document", "spec"), _eq("document", "plan")),
                          self.build().store.registry)
        assert isinstance(plan.access, IndexUnion)
        assert plan.shape == "index_union"

    def test_not_eq_is_a_full_scan_and_matches_attributeless_nodes(self):
        ham = self.build()
        plan = plan_query(Not(_eq("document", "spec")), ham.store.registry)
        assert isinstance(plan.access, FullScan)
        result = ham.get_graph_query(node_predicate="not document = spec")
        # plan, memo, and the attribute-less node all satisfy the negation.
        assert len(result.nodes) == 3

    def test_eq_under_or_is_not_hoisted_into_an_intersect(self):
        # (a = 1 or b = 2) and c = 3: only c = 3 is a mandatory key; the
        # or-arm is unionable, so the intersect has exactly two members.
        registry = self.build().store.registry
        plan = plan_query(
            And(Or(_eq("document", "spec"), _eq("status", "x")),
                _eq("document", "plan")),
            registry)
        assert isinstance(plan.access, IndexIntersect)
        assert len(plan.access.members) == 2


# ======================================================================
# access-path shapes

class TestPlanShapes:
    def test_equality_probe(self):
        plan = plan_query(_eq("a", "1"), _registry())
        assert isinstance(plan.access, SingleProbe)
        assert plan.shape == "index_eq"
        assert "eq-probe" in plan.explain()

    def test_range_probe(self):
        plan = plan_query(Comparison("a", CompareOp.GT, "5"), _registry())
        assert plan.shape == "index_range"
        assert "range-probe" in plan.explain()

    def test_presence_probe_for_exists_and_ne(self):
        assert plan_query(Exists("a"), _registry()).shape == "index_present"
        ne = plan_query(Comparison("a", CompareOp.NE, "5"), _registry())
        assert ne.shape == "index_present"
        assert "present-probe" in ne.explain()

    def test_conjunction_intersects(self):
        plan = plan_query(And(_eq("a", "1"), _eq("b", "2")), _registry())
        assert plan.shape == "index_intersect"
        assert "index-intersect" in plan.explain()

    def test_disjunction_unions(self):
        plan = plan_query(Or(_eq("a", "1"), _eq("b", "2")), _registry())
        assert plan.shape == "index_union"
        assert "index-union" in plan.explain()

    def test_disjunction_with_unindexable_arm_scans(self):
        plan = plan_query(Or(_eq("a", "1"), Not(_eq("b", "2"))), _registry())
        assert plan.shape == "full_scan"
        assert "full-scan" in plan.explain()

    def test_false_is_an_empty_scan(self):
        plan = plan_query(FalsePredicate(), _registry())
        assert isinstance(plan.access, EmptyScan)
        assert plan.shape == "empty"
        assert "empty-scan" in plan.explain()

    def test_unindexed_plans_say_so(self):
        plan = plan_query(_eq("a", "1"), _registry(), indexed=False)
        assert plan.shape == "full_scan"
        assert "index unavailable" in plan.explain()

    def test_true_predicate_scans(self):
        assert plan_query(TruePredicate(), _registry()).shape == "full_scan"

    def test_residual_is_always_the_full_predicate(self):
        predicate = And(_eq("a", "1"), Comparison("b", CompareOp.GT, "2"))
        plan = plan_query(predicate, _registry())
        assert plan.compiled.predicate == normalize(predicate)


def _registry():
    ham = HAM.ephemeral()
    with ham.begin() as txn:
        for name in ("a", "b", "c"):
            ham.get_attribute_index(name, txn)
    return ham.store.registry


# ======================================================================
# stats drive ordering and shape choice

class TestStatsDrivenPlans:
    def test_conjuncts_ordered_by_ascending_selectivity(self):
        stats = AttributeValueIndex()
        for node in range(100):
            stats.set_value(node, "common", "x")      # selectivity 1.0
            if node < 5:
                stats.set_value(node, "rare", "y")    # selectivity 0.05
        predicate = And(_eq("common", "x"), _eq("rare", "y"))
        compiled = compile_predicate(predicate, _registry_for(
            ["common", "rare"]), stats)
        tag, children = compiled.tree
        assert tag == "and"
        # The rare (more selective) conjunct must be evaluated first.
        first = children[0]
        assert first[3] == "y"

    def test_intersect_members_ordered_cheapest_first(self):
        stats = AttributeValueIndex()
        for node in range(100):
            stats.set_value(node, "common", "x")
            if node < 5:
                stats.set_value(node, "rare", "y")
        plan = plan_query(And(_eq("common", "x"), _eq("rare", "y")),
                          _registry_for(["common", "rare"]), stats=stats)
        assert isinstance(plan.access, IndexIntersect)
        first = plan.access.members[0]
        assert isinstance(first, SingleProbe)
        assert first.probe.attribute == "rare"

    def test_estimates_compose(self):
        stats = AttributeValueIndex()
        for node in range(10):
            stats.set_value(node, "a", "x" if node < 2 else "z")
        eq = estimate_selectivity(_eq("a", "x"), stats)
        assert eq == pytest.approx(0.2)
        both = estimate_selectivity(And(_eq("a", "x"), _eq("a", "x")), stats)
        assert both == pytest.approx(0.04)
        negated = estimate_selectivity(Not(_eq("a", "x")), stats)
        assert negated == pytest.approx(0.8)


class _CountingIndex:
    """Proxy that records every (method, arguments) the planner asks."""

    def __init__(self, index):
        self._index = index
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._index, name)

        def counted(*args):
            self.calls.append((name,) + args)
            return method(*args)
        return counted


class TestEstimateOncePerPlan:
    """Each leaf asks the index once per plan: conjunct ordering, the
    access path and the plan's total share one estimate walk."""

    SHAPES = (
        "(cls = class3 and (rev >= 40 and rev <= 49))",
        "((team = team1 or team = team7) and status = draft"
        " and (rev >= 10 and rev <= 39))",
        "((team = team2 and cls = class5)"
        " or (status = final and (rev >= 60 and rev <= 61)))",
    )
    LINEARIZE = "(team = team4 and (rev >= 0 and rev <= 99))"

    def build(self):
        rng = random.Random(7)
        index = AttributeValueIndex()
        for node in range(400):
            index.set_value(node, "team", f"team{rng.randrange(24)}")
            index.set_value(node, "cls", f"class{rng.randrange(8)}")
            index.set_value(node, "status",
                            rng.choice(("draft", "final", "review")))
            index.set_value(node, "rev", str(rng.randrange(100)))
        return _CountingIndex(index)

    @pytest.mark.parametrize("text", SHAPES + (LINEARIZE,))
    def test_no_estimate_is_asked_twice_per_plan(self, text):
        registry = _registry_for(["team", "cls", "status", "rev"])
        index = self.build()
        plan = plan_query(parse_predicate(text), registry, stats=index,
                          link_predicate=parse_predicate(None))
        assert index.calls
        assert len(index.calls) == len(set(index.calls)), index.calls
        # Planning only estimates; it never probes.
        assert all(call[0].endswith("_selectivity") for call in index.calls)
        assert plan.estimate == estimate_selectivity(
            plan.compiled.predicate, index._index)

    def test_linearize_compile_asks_each_leaf_once(self):
        registry = _registry_for(["team", "rev"])
        index = self.build()
        compile_predicate(parse_predicate(self.LINEARIZE), registry, index)
        assert len(index.calls) == 3
        assert len(set(index.calls)) == 3


def _registry_for(names):
    ham = HAM.ephemeral()
    with ham.begin() as txn:
        for name in names:
            ham.get_attribute_index(name, txn)
    return ham.store.registry


# ======================================================================
# sorted-posting range lookups mirror evaluator semantics

class TestRangeLookups:
    def build(self):
        index = AttributeValueIndex()
        for node, value in enumerate(["9", "10", "abc", "2", "Zed"], start=1):
            index.set_value(node, "rev", value)
        return index

    def test_numeric_bound_mixes_numeric_and_lexicographic(self):
        index = self.build()
        # rev > 9: "10" numerically, "abc"/"Zed" lexicographically
        # (both > "9" as strings); "2" fails both ways.
        assert index.lookup_range("rev", CompareOp.GT, "9") == {2, 3, 5}

    def test_non_numeric_bound_compares_everything_as_strings(self):
        index = self.build()
        # rev < "a": "9", "10", "2", "Zed" all precede "a" in ASCII.
        assert index.lookup_range("rev", CompareOp.LT, "a") == {1, 2, 4, 5}

    def test_le_ge_are_inclusive(self):
        index = self.build()
        assert index.lookup_range("rev", CompareOp.GE, "9") == {1, 2, 3, 5}
        assert index.lookup_range("rev", CompareOp.LE, "2") == {4}

    def test_lookup_present_unions_all_values(self):
        index = self.build()
        assert index.lookup_present("rev") == {1, 2, 3, 4, 5}
        assert index.lookup_present("missing") == set()

    def test_range_lookup_tracks_deletions(self):
        index = self.build()
        index.delete_value(2, "rev")
        assert index.lookup_range("rev", CompareOp.GT, "9") == {3, 5}

    def test_range_matches_evaluator_on_random_data(self):
        rng = random.Random(23)
        index = AttributeValueIndex()
        rows = {}
        for node in range(1, 200):
            value = rng.choice(
                [str(rng.randrange(100)), f"v{rng.randrange(30)}",
                 str(rng.uniform(0, 50))[:5]])
            index.set_value(node, "x", value)
            rows[node] = value
        for op in (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE):
            for bound in ("50", "v1", "abc", "7.5"):
                expected = {
                    node for node, value in rows.items()
                    if evaluate(Comparison("x", op, bound), {"x": value})}
                assert index.lookup_range("x", op, bound) == expected, \
                    (op, bound)


# ======================================================================
# columnar batch evaluation

class TestBatchEvaluator:
    def build(self):
        ham = HAM.ephemeral()
        rng = random.Random(5)
        with ham.begin() as txn:
            attrs = {name: ham.get_attribute_index(name, txn)
                     for name in ("a", "b")}
            for i in range(40):
                node, __ = ham.add_node(txn)
                if rng.random() < 0.8:
                    ham.set_node_attribute_value(
                        txn, node=node, attribute=attrs["a"],
                        value=str(rng.randrange(5)))
                if rng.random() < 0.5:
                    ham.set_node_attribute_value(
                        txn, node=node, attribute=attrs["b"],
                        value=rng.choice(["x", "y"]))
        return ham

    @pytest.mark.parametrize("text", [
        "a = 1", "a != 1", "a > 2", "exists b", "not exists b",
        "a = 1 and b = x", "a = 1 or b = y", "not (a = 1 and b = x)",
        "a >= 1 and a <= 3 and not b = x", "true", "false",
        "missing = 1", "not missing = 1",
    ])
    def test_batch_matches_naive_evaluation(self, text):
        ham = self.build()
        store = ham.store
        records = store.live_nodes(0)
        compiled = compile_predicate(parse_predicate(text), store.registry)
        got = batch_filter(records, compiled, 0)
        expected = [r for r in records
                    if evaluate(parse_predicate(text),
                                named_attributes(r, store, 0))]
        assert [r.index for r in got] == [r.index for r in expected]

    def test_positions_are_ascending_and_order_preserving(self):
        ham = self.build()
        records = ham.store.live_nodes(0)
        compiled = compile_predicate(parse_predicate("a >= 0 or b = x"),
                                     ham.store.registry)
        positions = batch_positions(records, compiled, 0)
        assert positions == sorted(positions)


# ======================================================================
# explain via the HAM surface and the PLANNER counters

class TestExplainSurface:
    def test_explain_query_renders_a_plan(self):
        ham = HAM.ephemeral()
        with ham.begin() as txn:
            doc = ham.get_attribute_index("document", txn)
            node, __ = ham.add_node(txn)
            ham.set_node_attribute_value(txn, node=node, attribute=doc,
                                         value="spec")
        text = ham.explain_query(node_predicate="document = spec")
        assert "shape=index_eq" in text
        assert "eq-probe" in text
        assert "residual:" in text

    def test_explain_reflects_stats(self):
        ham = HAM.ephemeral()
        with ham.begin() as txn:
            doc = ham.get_attribute_index("document", txn)
            for i in range(4):
                node, __ = ham.add_node(txn)
                ham.set_node_attribute_value(txn, node=node, attribute=doc,
                                             value="spec" if i == 0 else "x")
        text = ham.explain_query(node_predicate="document = spec")
        assert "est 0.250" in text

    def test_explain_for_historical_time_shows_no_index(self):
        ham = HAM.ephemeral()
        with ham.begin() as txn:
            ham.get_attribute_index("document", txn)
        text = ham.explain_query(time=1, node_predicate="document = spec")
        assert "index unavailable" in text

    def test_shape_counters_track_executed_plans(self):
        from repro.tools.metrics import PLANNER
        ham = HAM.ephemeral()
        with ham.begin() as txn:
            doc = ham.get_attribute_index("document", txn)
            node, __ = ham.add_node(txn)
            ham.set_node_attribute_value(txn, node=node, attribute=doc,
                                         value="spec")
        before = PLANNER.snapshot()
        ham.get_graph_query(node_predicate="document = spec")
        ham.get_graph_query(node_predicate="not document = spec")
        after = PLANNER.snapshot()
        assert after["plans"] - before["plans"] == 2
        assert after["shape_index_eq"] - before["shape_index_eq"] == 1
        assert after["shape_full_scan"] - before["shape_full_scan"] == 1
        assert after["index_probes"] > before["index_probes"]

    def test_shell_explain_command(self):
        from repro.browsers.shell import NeptuneShell
        ham = HAM.ephemeral()
        with ham.begin() as txn:
            ham.get_attribute_index("document", txn)
        shell = NeptuneShell(ham)
        out = shell.run("explain document = spec")
        assert "plan shape=" in out
