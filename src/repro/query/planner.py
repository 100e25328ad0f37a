"""Cost-based query planning: predicate → normalized form → access plan.

The seed implementation made one binary choice per query — equality
conjuncts present → index probe, otherwise full scan.  This module
replaces that with a small planner:

1. **Normalize** the predicate: flatten nested ``And``/``Or``, push
   ``not`` through compounds by De Morgan, cancel double negation, and
   fold constants.  Negation is *never* pushed into a comparison
   (``not (a = x)`` is not ``a != x``: both are false when ``a`` is
   absent), so ``Not`` survives only above leaves.
2. **Plan access**: walk the normalized tree extracting an index
   strategy — equality, range, and presence probes for leaves,
   set intersection for ``And``, set union for ``Or`` (only when every
   arm is indexable; one unindexable arm forces the scan).  Each probe
   is a strict *superset* of the true matches, so the access path only
   prunes, never decides.
3. **Compile** the predicate for execution: attribute names resolve to
   registry indexes once, conjuncts are ordered cheapest-to-fail and
   disjuncts likeliest-to-hit using the selectivity estimates of the
   commit-maintained :class:`~repro.query.index.AttributeValueIndex`
   (the index is the planner's statistics), and the compiled tree
   evaluates directly against the ``{attribute index: value}`` dicts
   the store hands out — no name materialization per row.

One estimate walk per plan records every subtree's estimate; conjunct
ordering, the access path and the plan's total all read it, so each
leaf asks the index once.

The residual predicate is always the *full* normalized predicate: the
access path narrows the candidate set, the residual decides membership.
That redundancy is deliberate — it keeps every plan trivially equivalent
to the naive evaluator (the differential suite's invariant) while the
pruning provides the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attributes import AttributeRegistry
from repro.core.types import AttributeIndex, NodeIndex
from repro.query.evaluator import _compare
from repro.query.index import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_PRESENCE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    AttributeValueIndex,
)
from repro.query.predicate import (
    And,
    CompareOp,
    Comparison,
    Exists,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = ["CompiledPredicate", "QueryPlan", "compile_predicate",
           "normalize", "plan_query"]

_RANGE_OPS = (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE)


# ----------------------------------------------------------------------
# normalization

def normalize(predicate: Predicate) -> Predicate:
    """Flatten, De Morgan, cancel double negation, fold constants.

    The result is semantically identical to the input for *every*
    attribute set, including the absent-attribute edge cases: negation
    is pushed through ``And``/``Or`` only, never into comparisons.
    """
    if isinstance(predicate, (TruePredicate, FalsePredicate,
                              Comparison, Exists)):
        return predicate
    if isinstance(predicate, Not):
        inner = predicate.operand
        if isinstance(inner, Not):
            return normalize(inner.operand)
        if isinstance(inner, And):
            return normalize(Or(*[Not(op) for op in inner.operands]))
        if isinstance(inner, Or):
            return normalize(And(*[Not(op) for op in inner.operands]))
        if isinstance(inner, TruePredicate):
            return FalsePredicate()
        if isinstance(inner, FalsePredicate):
            return TruePredicate()
        return Not(normalize(inner))
    if isinstance(predicate, (And, Or)):
        compound = type(predicate)
        absorbing, neutral = (
            (FalsePredicate, TruePredicate) if compound is And
            else (TruePredicate, FalsePredicate))
        flattened: list[Predicate] = []
        for operand in predicate.operands:
            operand = normalize(operand)
            if isinstance(operand, absorbing):
                return absorbing()
            if isinstance(operand, neutral):
                continue
            if isinstance(operand, compound):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        if not flattened:
            return neutral()
        if len(flattened) == 1:
            return flattened[0]
        return compound(*flattened)
    return predicate


# ----------------------------------------------------------------------
# selectivity estimation

def estimate_selectivity(predicate: Predicate,
                         stats: AttributeValueIndex | None) -> float:
    """Estimated fraction of nodes satisfying ``predicate`` (0..1)."""
    return _estimate(predicate, stats, {})


def _estimate(predicate: Predicate, stats: AttributeValueIndex | None,
              estimates: dict[int, float]) -> float:
    """:func:`estimate_selectivity`, recording each subtree's estimate
    in ``estimates`` under ``id(subtree)``."""
    if isinstance(predicate, TruePredicate):
        estimate = 1.0
    elif isinstance(predicate, FalsePredicate):
        estimate = 0.0
    elif isinstance(predicate, Comparison):
        if predicate.op is CompareOp.EQ:
            estimate = (DEFAULT_EQ_SELECTIVITY if stats is None else
                        stats.eq_selectivity(predicate.attribute,
                                             predicate.value))
        elif predicate.op is CompareOp.NE:
            estimate = (DEFAULT_PRESENCE_SELECTIVITY if stats is None else
                        stats.ne_selectivity(predicate.attribute,
                                             predicate.value))
        else:
            estimate = (DEFAULT_RANGE_SELECTIVITY if stats is None else
                        stats.range_selectivity(predicate.attribute,
                                                predicate.op,
                                                predicate.value))
    elif isinstance(predicate, Exists):
        estimate = (DEFAULT_PRESENCE_SELECTIVITY if stats is None else
                    stats.presence_selectivity(predicate.attribute))
    elif isinstance(predicate, And):
        estimate = 1.0
        for operand in predicate.operands:
            estimate *= _estimate(operand, stats, estimates)
    elif isinstance(predicate, Or):
        misses = 1.0
        for operand in predicate.operands:
            misses *= 1.0 - _estimate(operand, stats, estimates)
        estimate = 1.0 - misses
    elif isinstance(predicate, Not):
        estimate = 1.0 - _estimate(predicate.operand, stats, estimates)
    else:
        estimate = 1.0
    estimates[id(predicate)] = estimate
    return estimate


# ----------------------------------------------------------------------
# compiled predicates

class CompiledPredicate:
    """A normalized predicate resolved for direct record evaluation.

    ``tree`` mirrors the AST as plain tuples with attribute *names*
    replaced by registry indexes (``None`` when the name was never
    interned — such a comparison/exists can only be false):

    - ``("true",)`` / ``("false",)``
    - ``("cmp", attribute_index | None, CompareOp, value)``
    - ``("exists", attribute_index | None)``
    - ``("and", (children…))`` — ordered cheapest-to-fail
    - ``("or", (children…))`` — ordered likeliest-to-hit
    - ``("not", child)``

    :meth:`matches` evaluates the tree against the
    ``{attribute index: value}`` dict a record's version store hands
    out, skipping per-row name resolution entirely.
    """

    __slots__ = ("predicate", "tree", "attributes", "ordered_attributes")

    def __init__(self, predicate: Predicate, tree: tuple,
                 attributes: frozenset[AttributeIndex]):
        #: The normalized source predicate (for rendering).
        self.predicate = predicate
        self.tree = tree
        #: Every registry index the tree references (batch columns).
        self.attributes = attributes
        #: The same indexes as a sorted tuple — the deterministic column
        #: order the batch evaluator probes attribute timelines in.
        self.ordered_attributes = tuple(sorted(attributes))

    def matches(self, attached: dict[AttributeIndex, str]) -> bool:
        """True when the attached-attribute dict satisfies the tree."""
        return _matches(self.tree, attached)

    def matches_record(self, attributes, time) -> bool:
        """Evaluate against a record's versioned attribute store.

        Probes only the timelines the tree references
        (:meth:`VersionedAttributes.values_at`) instead of materializing
        the record's full attached-attribute dict — same result as
        ``matches(attributes.all_at(time))`` for every predicate,
        because the tree can only inspect its own attributes.
        """
        ordered = self.ordered_attributes
        if not ordered:
            return _matches(self.tree, {})
        values = attributes.values_at(ordered, time)
        attached = {index: value
                    for index, value in zip(ordered, values)
                    if value is not None}
        return _matches(self.tree, attached)

    def __str__(self) -> str:
        return str(self.predicate)


def _matches(node: tuple, attached: dict[AttributeIndex, str]) -> bool:
    tag = node[0]
    if tag == "cmp":
        if node[1] is None:
            return False
        value = attached.get(node[1])
        if value is None:
            return False
        return _compare(node[2], value, node[3])
    if tag == "exists":
        return node[1] is not None and node[1] in attached
    if tag == "and":
        return all(_matches(child, attached) for child in node[1])
    if tag == "or":
        return any(_matches(child, attached) for child in node[1])
    if tag == "not":
        return not _matches(node[1], attached)
    return tag == "true"


def compile_predicate(
    predicate: Predicate,
    registry: AttributeRegistry,
    stats: AttributeValueIndex | None = None,
) -> CompiledPredicate:
    """Normalize ``predicate`` and resolve it against ``registry``.

    With ``stats`` (the index), conjuncts are ordered by ascending
    estimated selectivity (cheapest to disprove first) and disjuncts
    by descending (likeliest to prove first); either way short-circuit
    evaluation touches as few attributes as the estimates allow.
    Ordering never changes results — only how fast they arrive.
    """
    normalized = normalize(predicate)
    estimates: dict[int, float] = {}
    _estimate(normalized, stats, estimates)
    return _compile(normalized, registry, estimates)


def _compile(normalized: Predicate, registry: AttributeRegistry,
             estimates: dict[int, float]) -> CompiledPredicate:
    """Resolve a normalized predicate, ordering compounds by the
    subtree ``estimates`` one :func:`_estimate` walk recorded."""
    attributes: set[AttributeIndex] = set()

    def build(node: Predicate) -> tuple:
        if isinstance(node, TruePredicate):
            return ("true",)
        if isinstance(node, FalsePredicate):
            return ("false",)
        if isinstance(node, Comparison):
            resolved = registry.lookup(node.attribute)
            if resolved is not None:
                attributes.add(resolved)
            return ("cmp", resolved, node.op, node.value)
        if isinstance(node, Exists):
            resolved = registry.lookup(node.attribute)
            if resolved is not None:
                attributes.add(resolved)
            return ("exists", resolved)
        if isinstance(node, Not):
            return ("not", build(node.operand))
        if isinstance(node, (And, Or)):
            descending = isinstance(node, Or)
            ordered = sorted(
                node.operands,
                key=lambda op: estimates[id(op)],
                reverse=descending)
            tag = "and" if isinstance(node, And) else "or"
            return (tag, tuple(build(child) for child in ordered))
        raise TypeError(
            f"cannot compile predicate node {type(node).__name__}")

    return CompiledPredicate(normalized, build(normalized),
                             frozenset(attributes))


# ----------------------------------------------------------------------
# access paths

@dataclass(frozen=True)
class Probe:
    """One index probe: a superset fetch for a single leaf."""

    kind: str          # "eq" | "range" | "present"
    attribute: str
    op: CompareOp | None
    value: str | None
    estimate: float

    def fetch(self, index: AttributeValueIndex) -> set[NodeIndex]:
        if self.kind == "eq":
            return index.lookup(self.attribute, self.value)
        if self.kind == "range":
            return index.lookup_range(self.attribute, self.op, self.value)
        return index.lookup_present(self.attribute)

    def describe(self) -> str:
        if self.kind == "eq":
            detail = f'{self.attribute} = "{self.value}"'
        elif self.kind == "range":
            detail = f'{self.attribute} {self.op.value} "{self.value}"'
        else:
            detail = self.attribute
        return f"{self.kind}-probe {detail} (est {self.estimate:.3f})"


class AccessPath:
    """How candidate nodes are produced before residual evaluation."""

    #: Counter suffix for ``PLANNER`` (``shape_<shape>``).
    shape = "full_scan"

    def fetch(self, index: AttributeValueIndex) \
            -> tuple[set[NodeIndex] | None, int]:
        """(candidate superset or None for scan-everything, probes run)."""
        return None, 0

    def describe(self, indent: str = "") -> list[str]:
        return [indent + "full-scan"]


class FullScan(AccessPath):
    """No index help — every live node is a candidate."""


class EmptyScan(AccessPath):
    """The predicate is unsatisfiable — no candidates at all."""

    shape = "empty"

    def fetch(self, index):
        return set(), 0

    def describe(self, indent: str = "") -> list[str]:
        return [indent + "empty-scan"]


class SingleProbe(AccessPath):
    """One index probe covers the whole predicate's superset."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.shape = {"eq": "index_eq", "range": "index_range",
                      "present": "index_present"}[probe.kind]

    def fetch(self, index):
        return self.probe.fetch(index), 1

    def describe(self, indent: str = "") -> list[str]:
        return [indent + self.probe.describe()]


class IndexIntersect(AccessPath):
    """Conjunction: intersect member supersets, cheapest first."""

    shape = "index_intersect"

    def __init__(self, members: list[AccessPath]):
        #: Ordered by ascending estimate so the intersection shrinks
        #: fastest and empty intermediates short-circuit later probes.
        self.members = members

    def fetch(self, index):
        candidates: set[NodeIndex] | None = None
        probes = 0
        for member in self.members:
            hits, ran = member.fetch(index)
            probes += ran
            candidates = hits if candidates is None else candidates & hits
            if not candidates:
                break
        return candidates if candidates is not None else set(), probes

    def describe(self, indent: str = "") -> list[str]:
        lines = [indent + "index-intersect"]
        for member in self.members:
            lines.extend(member.describe(indent + "  "))
        return lines


class IndexUnion(AccessPath):
    """Disjunction: union arm supersets (every arm must be indexable)."""

    shape = "index_union"

    def __init__(self, arms: list[AccessPath]):
        self.arms = arms

    def fetch(self, index):
        candidates: set[NodeIndex] = set()
        probes = 0
        for arm in self.arms:
            hits, ran = arm.fetch(index)
            probes += ran
            candidates |= hits
        return candidates, probes

    def describe(self, indent: str = "") -> list[str]:
        lines = [indent + "index-union"]
        for arm in self.arms:
            lines.extend(arm.describe(indent + "  "))
        return lines


def _plan_access(predicate: Predicate,
                 estimates: dict[int, float]) -> AccessPath | None:
    """Index strategy whose fetch is a superset of the true matches.

    ``estimates`` holds every subtree's estimate (:func:`_estimate`).
    Returns ``None`` when no (sound) index use exists for this subtree.
    """
    if isinstance(predicate, FalsePredicate):
        return EmptyScan()
    if isinstance(predicate, Comparison):
        estimate = estimates[id(predicate)]
        if predicate.op is CompareOp.EQ:
            return SingleProbe(Probe("eq", predicate.attribute, None,
                                     predicate.value, estimate))
        if predicate.op in _RANGE_OPS:
            return SingleProbe(Probe("range", predicate.attribute,
                                     predicate.op, predicate.value, estimate))
        # != matches only rows that carry the attribute at all.
        return SingleProbe(Probe("present", predicate.attribute, None,
                                 None, estimate))
    if isinstance(predicate, Exists):
        return SingleProbe(Probe("present", predicate.attribute, None, None,
                                 estimates[id(predicate)]))
    if isinstance(predicate, And):
        members: list[tuple[float, AccessPath]] = []
        for operand in predicate.operands:
            path = _plan_access(operand, estimates)
            if isinstance(path, EmptyScan):
                return EmptyScan()     # one unsatisfiable conjunct kills all
            if path is not None:
                members.append((estimates[id(operand)], path))
        if not members:
            return None
        members.sort(key=lambda pair: pair[0])
        if len(members) == 1:
            return members[0][1]
        return IndexIntersect([path for __, path in members])
    if isinstance(predicate, Or):
        arms = []
        for operand in predicate.operands:
            path = _plan_access(operand, estimates)
            if path is None:
                # One unindexable arm may match anything — scan.
                return None
            if isinstance(path, EmptyScan):
                continue
            arms.append(path)
        if not arms:
            return EmptyScan()
        if len(arms) == 1:
            return arms[0]
        return IndexUnion(arms)
    # Not / TruePredicate: the complement of an indexable set is not
    # indexable (absent rows have no postings), and True matches all.
    return None


# ----------------------------------------------------------------------
# plans

@dataclass
class QueryPlan:
    """Everything a query execution needs, plus its own explanation."""

    compiled: CompiledPredicate
    access: AccessPath
    shape: str
    estimate: float
    #: Whether the index was available to this plan at all (explain).
    indexed: bool = True
    link_compiled: CompiledPredicate | None = field(default=None)

    def fetch_candidates(self, index: AttributeValueIndex | None) \
            -> tuple[set[NodeIndex] | None, int]:
        """(candidate superset or None for full scan, probes executed)."""
        if index is None:
            if isinstance(self.access, EmptyScan):
                return set(), 0
            return None, 0
        return self.access.fetch(index)

    def explain(self) -> str:
        """Stable human-readable rendering of the plan."""
        lines = [f"plan shape={self.shape} "
                 f"estimated-selectivity={self.estimate:.3f}"]
        if self.indexed:
            lines.append("  access:")
            lines.extend(self.access.describe("    "))
        else:
            lines.append("  access:")
            lines.append("    full-scan (index unavailable)")
        lines.append(f"  residual: {self.compiled.predicate}")
        if self.link_compiled is not None:
            lines.append(f"  link-filter: {self.link_compiled.predicate}")
        return "\n".join(lines)


def plan_query(
    node_predicate: Predicate,
    registry: AttributeRegistry,
    stats: AttributeValueIndex | None = None,
    indexed: bool = True,
    link_predicate: Predicate | None = None,
) -> QueryPlan:
    """Build the full plan for one ``getGraphQuery`` call.

    ``stats`` is the index whose estimates order the plan, even when
    ``indexed=False`` (as-of-time query, index disabled, or a writer's
    uncommitted overlay in scope) forces the full-scan shape while the
    compiled residual — and therefore the results — stay identical.
    """
    normalized = normalize(node_predicate)
    estimates: dict[int, float] = {}
    estimate = _estimate(normalized, stats, estimates)
    compiled = _compile(normalized, registry, estimates)
    if indexed:
        access = _plan_access(normalized, estimates) or FullScan()
    elif isinstance(compiled.predicate, FalsePredicate):
        # An unsatisfiable predicate needs no index to skip the scan.
        access = EmptyScan()
    else:
        access = FullScan()
    link_compiled = None
    if link_predicate is not None:
        link_compiled = compile_predicate(link_predicate, registry, stats)
    return QueryPlan(
        compiled=compiled,
        access=access,
        shape=access.shape,
        estimate=estimate,
        indexed=indexed,
        link_compiled=link_compiled,
    )
