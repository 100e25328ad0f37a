"""Predicate language and the HAM's two query mechanisms.

The paper (§3): "Two basic query mechanisms are supported by the HAM:
traversal and query.  The traversal mechanism, ``linearizeGraph``, starts
at a designated node and follows a depth-first traversal of out-links
ordered by the links' offsets within the node.  The associative query
mechanism, ``getGraphQuery``, directly accesses a set of nodes and their
interconnecting links.  Both of these mechanisms use predicates based on
attribute/value pairs to determine which nodes and links satisfy the
query."

- :mod:`repro.query.predicate` — the predicate AST.
- :mod:`repro.query.parser` — text → AST (``document = requirements``).
- :mod:`repro.query.evaluator` — AST × attribute set → bool.
- :mod:`repro.query.traversal` — ``linearizeGraph``.
- :mod:`repro.query.graph_query` — ``getGraphQuery``.
- :mod:`repro.query.index` — optional inverted attribute index with
  sorted value views (equality, range, and presence probes); its
  postings and sorted lists also answer the planner's selectivity
  estimates.
- :mod:`repro.query.planner` — cost-based planning: normalization,
  compiled predicates, index access paths, ``explain()``.
- :mod:`repro.query.batch` — columnar batch evaluation of compiled
  predicates over candidate record sets.
"""

from repro.query.predicate import (
    Predicate,
    Comparison,
    Exists,
    And,
    Or,
    Not,
    TruePredicate,
    FalsePredicate,
    CompareOp,
)
from repro.query.parser import parse_predicate
from repro.query.evaluator import evaluate
from repro.query.traversal import linearize_graph, TraversalResult
from repro.query.graph_query import get_graph_query, QueryResult
from repro.query.index import AttributeValueIndex
from repro.query.planner import (
    CompiledPredicate,
    QueryPlan,
    compile_predicate,
    normalize,
    plan_query,
)
from repro.query.batch import batch_filter, batch_positions

__all__ = [
    "Predicate",
    "Comparison",
    "Exists",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "FalsePredicate",
    "CompareOp",
    "parse_predicate",
    "evaluate",
    "linearize_graph",
    "TraversalResult",
    "get_graph_query",
    "QueryResult",
    "AttributeValueIndex",
    "CompiledPredicate",
    "QueryPlan",
    "compile_predicate",
    "normalize",
    "plan_query",
    "batch_filter",
    "batch_positions",
]
