"""The index as the planner's statistics: counts, estimates, visibility.

The inverted attribute-value index answers the planner's selectivity
questions from its own postings and sorted value lists.  These tests
pin its counts, its four estimates (against a reference walk of the
value histogram, the way a separate statistics structure used to
compute them), its commit-time visibility, and the NaN rule that keeps
its numeric value list sorted.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ham import HAM
from repro.query.evaluator import evaluate
from repro.query.index import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_PRESENCE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    AttributeValueIndex,
)
from repro.query.predicate import CompareOp, Comparison

_RANGE_OPS = (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE)


class TestMaintenance:
    def test_set_counts_rows_and_values(self):
        index = AttributeValueIndex()
        index.set_value(1, "document", "spec")
        index.set_value(2, "document", "spec")
        index.set_value(3, "document", "plan")
        assert index.tracked_nodes == 3
        assert index.attribute_rows("document") == 3
        assert index.distinct_values("document") == 2
        assert len(index.lookup("document", "spec")) == 2
        assert len(index.lookup("document", "plan")) == 1

    def test_overwrite_moves_the_count(self):
        index = AttributeValueIndex()
        index.set_value(1, "status", "draft")
        index.set_value(1, "status", "final")
        assert index.attribute_rows("status") == 1
        assert len(index.lookup("status", "draft")) == 0
        assert len(index.lookup("status", "final")) == 1
        assert index.distinct_values("status") == 1

    def test_same_value_twice_is_idempotent(self):
        index = AttributeValueIndex()
        index.set_value(1, "status", "draft")
        index.set_value(1, "status", "draft")
        assert len(index.lookup("status", "draft")) == 1
        assert index.attribute_rows("status") == 1

    def test_delete_unwinds_everything(self):
        index = AttributeValueIndex()
        index.set_value(1, "status", "draft")
        index.delete_value(1, "status")
        assert index.tracked_nodes == 0
        assert index.attribute_rows("status") == 0
        assert index.distinct_values("status") == 0

    def test_delete_absent_is_a_no_op(self):
        index = AttributeValueIndex()
        index.delete_value(1, "status")
        assert index.tracked_nodes == 0
        assert index.posting_count == 0
        assert index.attribute_rows("status") == 0

    def test_drop_node_unwinds_every_attribute(self):
        index = AttributeValueIndex()
        index.set_value(1, "a", "x")
        index.set_value(1, "b", "y")
        index.set_value(2, "a", "x")
        index.drop_node(1)
        assert index.tracked_nodes == 1
        assert index.attribute_rows("a") == 1
        assert index.attribute_rows("b") == 0
        assert len(index.lookup("a", "x")) == 1


class TestSelectivity:
    def build(self):
        index = AttributeValueIndex()
        for node in range(10):
            index.set_value(node, "document", f"doc{node % 5}")
        for node in range(5):
            index.set_value(node, "revision", str(node))
        return index

    def test_eq_selectivity_is_exact(self):
        index = self.build()
        assert index.eq_selectivity("document", "doc0") == pytest.approx(0.2)
        assert index.eq_selectivity("document", "missing") == 0.0

    def test_unknown_attribute_is_zero_on_populated_graph(self):
        index = self.build()
        assert index.eq_selectivity("nope", "x") == 0.0
        assert index.presence_selectivity("nope") == 0.0

    def test_empty_stats_fall_back_to_defaults(self):
        index = AttributeValueIndex()
        assert index.eq_selectivity("a", "x") == DEFAULT_EQ_SELECTIVITY
        assert index.presence_selectivity("a") == \
            DEFAULT_PRESENCE_SELECTIVITY
        assert index.ne_selectivity("a", "x") == \
            DEFAULT_PRESENCE_SELECTIVITY
        assert index.range_selectivity("a", CompareOp.LT, "1") == \
            DEFAULT_RANGE_SELECTIVITY

    def test_presence_selectivity(self):
        index = self.build()
        assert index.presence_selectivity("revision") == pytest.approx(0.5)

    def test_ne_excludes_absent_rows(self):
        index = self.build()
        # 5 rows carry revision; 1 of them is "3".
        assert index.ne_selectivity("revision", "3") == pytest.approx(0.4)

    def test_range_selectivity_numeric(self):
        index = self.build()
        # revision values 0..4; > 2 matches 3 and 4 of 10 tracked nodes.
        assert index.range_selectivity(
            "revision", CompareOp.GT, "2") == pytest.approx(0.2)
        assert index.range_selectivity(
            "revision", CompareOp.LE, "0") == pytest.approx(0.1)

    def test_range_selectivity_mixed_lexicographic(self):
        index = AttributeValueIndex()
        index.set_value(1, "rev", "9")
        index.set_value(2, "rev", "10")
        index.set_value(3, "rev", "abc")
        # numeric bound: "10" compares numerically (10 > 9), "abc"
        # lexicographically ("abc" > "9") — both match, "9" does not.
        assert index.range_selectivity(
            "rev", CompareOp.GT, "9") == pytest.approx(2 / 3)

    def test_range_beyond_the_walk_limit_decays(self):
        index = AttributeValueIndex()
        for node in range(4097):
            index.set_value(node, "serial", str(node))
        index.set_value(5000, "other", "x")
        presence = 4097 / 4098
        assert index.range_selectivity("serial", CompareOp.LT, "10") == \
            presence * DEFAULT_RANGE_SELECTIVITY


# ----------------------------------------------------------------------
# differential: the index's estimates against a reference walk

def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


class _ReferenceEstimates:
    """The four estimates computed the slow way, from a plain mirror:
    a value histogram per attribute, and range estimates walking every
    distinct value through the evaluator's numeric-else-lexical
    compare."""

    def __init__(self, current):
        #: node → {attribute: value}, nodes with no attribute absent.
        self.current = current
        self.rows = {}
        self.values = {}
        for attributes in current.values():
            for attribute, value in attributes.items():
                self.rows[attribute] = self.rows.get(attribute, 0) + 1
                by_value = self.values.setdefault(attribute, {})
                by_value[value] = by_value.get(value, 0) + 1

    def _universe(self):
        return max(len(self.current), 1)

    def eq(self, attribute, value):
        if attribute not in self.rows:
            return 0.0 if self.current else DEFAULT_EQ_SELECTIVITY
        return self.values[attribute].get(value, 0) / self._universe()

    def ne(self, attribute, value):
        rows = self.rows.get(attribute)
        if rows is None:
            return 0.0 if self.current else DEFAULT_PRESENCE_SELECTIVITY
        equal = self.values[attribute].get(value, 0)
        return max(rows - equal, 0) / self._universe()

    def presence(self, attribute):
        rows = self.rows.get(attribute)
        if rows is None:
            return 0.0 if self.current else DEFAULT_PRESENCE_SELECTIVITY
        return rows / self._universe()

    def range(self, attribute, op, bound):
        rows = self.rows.get(attribute)
        if rows is None:
            return 0.0 if self.current else DEFAULT_RANGE_SELECTIVITY
        by_value = self.values[attribute]
        universe = self._universe()
        if len(by_value) > 4096:
            return (rows / universe) * DEFAULT_RANGE_SELECTIVITY
        bound_num = _number(bound)
        matching = 0
        for value, count in by_value.items():
            value_num = _number(value)
            if bound_num is not None and value_num is not None:
                left, right = value_num, bound_num
            else:
                left, right = value, bound
            if ((op is CompareOp.LT and left < right)
                    or (op is CompareOp.LE and left <= right)
                    or (op is CompareOp.GT and left > right)
                    or (op is CompareOp.GE and left >= right)):
                matching += count
        return matching / universe


#: Mixed values without NaN: integers, decimals, exponents, infinities,
#: padded and underscored numbers (``float`` accepts both), words.
_MIXED = ("0", "1", "2", "3", "7", "10", "010", "-3", "2.5", "1e1",
          " 7", "1_0", "inf", "-inf", "", "abc", "b", "Z", "x9")
_ATTRIBUTES = ("a", "b", "c")


def _mutate(rng, index, current, nodes=8):
    """One random set/delete/drop, applied to the index and the mirror."""
    node = rng.randrange(nodes)
    roll = rng.random()
    attributes = current.get(node, {})
    if roll < 0.6:
        attribute = rng.choice(_ATTRIBUTES)
        # Re-setting the value a node already carries is a no-op.
        value = (attributes[attribute]
                 if attribute in attributes and rng.random() < 0.3
                 else rng.choice(_MIXED))
        index.set_value(node, attribute, value)
        current.setdefault(node, {})[attribute] = value
    elif roll < 0.9:
        # Often the node's last attribute: it leaves the universe.
        attribute = (rng.choice(sorted(attributes)) if attributes
                     else rng.choice(_ATTRIBUTES))
        index.delete_value(node, attribute)
        attributes.pop(attribute, None)
        if not attributes:
            current.pop(node, None)
    else:
        index.drop_node(node)
        current.pop(node, None)


class TestEstimatesMatchReferenceWalk:
    @pytest.mark.parametrize("seed", range(60))
    def test_four_estimates_are_bit_identical(self, seed):
        rng = random.Random(seed)
        index = AttributeValueIndex()
        current: dict[int, dict[str, str]] = {}
        for __ in range(40):
            _mutate(rng, index, current)
            reference = _ReferenceEstimates(current)
            assert index.tracked_nodes == len(current)
            for attribute in _ATTRIBUTES + ("absent",):
                assert index.presence_selectivity(attribute) == \
                    reference.presence(attribute)
                for value in rng.sample(_MIXED, 4):
                    assert index.eq_selectivity(attribute, value) == \
                        reference.eq(attribute, value)
                    assert index.ne_selectivity(attribute, value) == \
                        reference.ne(attribute, value)
                    for op in _RANGE_OPS:
                        assert index.range_selectivity(
                            attribute, op, value) == \
                            reference.range(attribute, op, value), \
                            (attribute, op, value, current)


# ----------------------------------------------------------------------
# NaN values stay out of the numeric order

class TestNaNValues:
    def test_nan_value_does_not_hide_true_range_matches(self):
        ham = HAM.ephemeral()
        nodes = {}
        with ham.begin() as txn:
            rev = ham.get_attribute_index("rev", txn)
            for value in ("0", "1", "2", "3", "4", "5", "nan", "7"):
                node, __ = ham.add_node(txn)
                ham.set_node_attribute_value(txn, node=node, attribute=rev,
                                             value=value)
                nodes[value] = node
        result = ham.get_graph_query(node_predicate="rev < 9")
        assert sorted(result.node_indexes) == sorted(
            node for value, node in nodes.items() if value != "nan")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(("set", "set", "set", "delete", "drop")),
            st.integers(0, 5),
            st.sampled_from(("a", "b")),
            st.sampled_from(("nan", "-nan", "NaN", "inf", "-inf", " 7",
                             "1_0", "", "0", "3", "7", "12", "-2",
                             "2.5", "abc", "z", "N"))),
        max_size=30),
        st.sampled_from(_RANGE_OPS),
        st.sampled_from(("nan", "inf", "-inf", "7", " 7", "1_0", "0",
                         "-1", "5", "", "abc", "m")))
    def test_lookup_range_is_a_superset_of_the_evaluator(self, ops, op,
                                                         bound):
        index = AttributeValueIndex()
        current: dict[int, dict[str, str]] = {}
        for kind, node, attribute, value in ops:
            if kind == "set":
                index.set_value(node, attribute, value)
                current.setdefault(node, {})[attribute] = value
            elif kind == "delete":
                index.delete_value(node, attribute)
                current.get(node, {}).pop(attribute, None)
            else:
                index.drop_node(node)
                current.pop(node, None)
        for attribute in ("a", "b"):
            predicate = Comparison(attribute, op, bound)
            expected = {node for node, attributes in current.items()
                        if evaluate(predicate, attributes)}
            assert expected <= index.lookup_range(attribute, op, bound)


# ----------------------------------------------------------------------
# the HAM's index: maintained at commit, never before

class TestCommitTimeVisibility:
    """Estimates change exactly when postings do: at commit, not before."""

    def test_uncommitted_writes_are_invisible(self):
        ham = HAM.ephemeral()
        with ham.begin() as setup:
            doc = ham.get_attribute_index("document", setup)
            node, __ = ham.add_node(setup)
            ham.set_node_attribute_value(setup, node=node, attribute=doc,
                                         value="spec")
        assert len(ham._index.lookup("document", "spec")) == 1

        txn = ham.begin()
        other, __ = ham.add_node(txn)
        ham.set_node_attribute_value(txn, node=other, attribute=doc,
                                     value="spec")
        assert len(ham._index.lookup("document", "spec")) == 1
        txn.commit()
        assert len(ham._index.lookup("document", "spec")) == 2

    def test_abort_leaves_stats_untouched(self):
        ham = HAM.ephemeral()
        with ham.begin() as setup:
            doc = ham.get_attribute_index("document", setup)
            node, __ = ham.add_node(setup)
            ham.set_node_attribute_value(setup, node=node, attribute=doc,
                                         value="spec")

        def state():
            return (ham._index.tracked_nodes, ham._index.posting_count,
                    ham._index.attribute_rows("document"),
                    ham._index.lookup("document", "spec"),
                    ham._index.lookup("document", "plan"))

        before = state()
        txn = ham.begin()
        other, __ = ham.add_node(txn)
        ham.set_node_attribute_value(txn, node=other, attribute=doc,
                                     value="plan")
        txn.abort()
        assert state() == before

    def test_delete_node_drops_its_rows(self):
        ham = HAM.ephemeral()
        with ham.begin() as setup:
            doc = ham.get_attribute_index("document", setup)
            node, __ = ham.add_node(setup)
            ham.set_node_attribute_value(setup, node=node, attribute=doc,
                                         value="spec")
        ham.delete_node(node=node)
        assert len(ham._index.lookup("document", "spec")) == 0
        assert ham._index.tracked_nodes == 0

    def test_stats_track_the_index_state(self):
        """Counts and estimates agree with postings after arbitrary
        commits."""
        ham = HAM.ephemeral()
        with ham.begin() as txn:
            doc = ham.get_attribute_index("document", txn)
            nodes = []
            for i in range(8):
                node, __ = ham.add_node(txn)
                ham.set_node_attribute_value(txn, node=node, attribute=doc,
                                             value=f"doc{i % 3}")
                nodes.append(node)
        ham.delete_node(node=nodes[0])
        with ham.begin() as txn:
            ham.set_node_attribute_value(txn, node=nodes[1], attribute=doc,
                                         value="doc2")
        assert ham._index.tracked_nodes == 7
        for value in ("doc0", "doc1", "doc2"):
            postings = ham._index.lookup("document", value)
            assert ham._index.eq_selectivity("document", value) == \
                len(postings) / 7
