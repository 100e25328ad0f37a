"""Inverted attribute-value index for query acceleration.

The HAM keeps "as little semantics as possible" (§3) but must "still
maintain performance"; attribute-equality predicates are the workhorse of
every application convention in §4.2 (``contentType = …``,
``relation = isPartOf`` …).  This index maps ``(attribute name, value)``
to the set of node indexes currently carrying that pair, turning the
``getGraphQuery`` full scan into a set intersection for equality
conjuncts.

Beyond plain equality postings, the index keeps *sorted* views of every
attribute's distinct values — one list ordered numerically (values that
parse as numbers) and one ordered lexicographically (values that do
not) — so the query planner can answer **range** predicates
(``revision > 9``) and **presence** probes (``exists icon``, and the
attribute-carrying superset behind ``!=``) by bisecting the value lists
and unioning a handful of posting sets instead of scanning every live
node.  The two-list split mirrors the evaluator's comparison semantics
exactly (numeric when both sides parse as numbers, lexicographic
otherwise), which is what lets the planner trust a range probe as a
superset of the true matches.  A value that parses to NaN is filed
with the lexical values: NaN has no place in a numeric order (every
comparison with it is false, so it would break the list's sort and
make bisects skip true matches), and the evaluator never lets it
satisfy a numeric comparison anyway — a numeric bound may over-include
it, and the residual predicate rejects it.

The index is also the planner's statistics.  Its posting sets are
exact value histograms, and it counts the nodes carrying each
attribute, so :meth:`AttributeValueIndex.eq_selectivity` and its three
siblings answer "how selective is this leaf?" from the state the
probes use — range estimates bisect the same sorted lists
:meth:`~AttributeValueIndex.lookup_range` does and sum the posting
sizes of the slice.  As-of-time queries still consult those estimates:
a stale estimate only changes evaluation *order*, never results.

The index reflects *current* attribute state only — as-of-time queries
fall back to the scan (indexing every historical state would cost more
than it saves for the paper's workloads).  Benchmark B3 measures exactly
this scan-versus-index trade-off.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter

from repro.core.types import NodeIndex
from repro.query.predicate import CompareOp

__all__ = ["AttributeValueIndex", "DEFAULT_EQ_SELECTIVITY",
           "DEFAULT_RANGE_SELECTIVITY", "DEFAULT_PRESENCE_SELECTIVITY"]

#: Fallback estimates for a planner without an index, or for an index
#: that holds no rows at all.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_PRESENCE_SELECTIVITY = 0.5

#: Above this many distinct values, a range estimate decays to a third
#: of the presence fraction instead of summing the matching slice.
_RANGE_WALK_LIMIT = 4096

#: Sort key of a ``_numeric`` entry: its parsed number.
_NUMBER = itemgetter(0)


def _as_number(text: str) -> float | None:
    """``float(text)``, or None for non-numbers *and* NaN."""
    try:
        number = float(text)
    except ValueError:
        return None
    return None if number != number else number


class AttributeValueIndex:
    """Maintained by the HAM on committed node-attribute mutations.

    Thread-safe: commit-time apply mutates the index while lock-free
    snapshot readers may be probing it, so every method holds an
    internal mutex, and every lookup hands out a *copy* of the posting
    set — callers may intersect or mutate their result freely without
    corrupting the index.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: attribute name → value → posting set.
        self._postings: dict[str, dict[str, set[NodeIndex]]] = {}
        #: node → {attribute name: value} mirror, to undo stale postings.
        self._current: dict[NodeIndex, dict[str, str]] = {}
        #: attribute → sorted [(float(value), value)] for numeric values.
        self._numeric: dict[str, list[tuple[float, str]]] = {}
        #: attribute → sorted [value] for non-numeric values.
        self._lexical: dict[str, list[str]] = {}
        #: attribute → number of nodes carrying it (its posting total).
        self._rows: dict[str, int] = {}

    def set_value(self, node: NodeIndex, attribute: str, value: str) -> None:
        """Record that ``node`` now carries ``attribute = value``."""
        with self._lock:
            existing = self._current.setdefault(node, {})
            old = existing.get(attribute)
            if old == value:
                return
            if old is not None:
                self._remove_posting(node, attribute, old)
            existing[attribute] = value
            by_value = self._postings.setdefault(attribute, {})
            postings = by_value.get(value)
            if postings is None:
                by_value[value] = {node}
                self._add_sorted(attribute, value)
            else:
                postings.add(node)
            self._rows[attribute] = self._rows.get(attribute, 0) + 1

    def delete_value(self, node: NodeIndex, attribute: str) -> None:
        """Record that ``attribute`` was detached from ``node``."""
        with self._lock:
            existing = self._current.get(node)
            if existing is None:
                return
            old = existing.pop(attribute, None)
            if old is not None:
                self._remove_posting(node, attribute, old)
            if not existing:
                del self._current[node]

    def drop_node(self, node: NodeIndex) -> None:
        """Remove every posting for a deleted node."""
        with self._lock:
            for attribute, value in self._current.pop(node, {}).items():
                self._remove_posting(node, attribute, value)

    # ------------------------------------------------------------------
    # lookups (all return copies)

    def lookup(self, attribute: str, value: str) -> set[NodeIndex]:
        """Nodes currently carrying ``attribute = value`` (a copy)."""
        with self._lock:
            by_value = self._postings.get(attribute)
            if by_value is None:
                return set()
            return set(by_value.get(value, ()))

    def lookup_present(self, attribute: str) -> set[NodeIndex]:
        """Nodes currently carrying ``attribute`` with any value.

        The superset probe behind ``exists attribute`` — and behind
        ``attribute != value``, whose matches always carry the attribute
        (comparisons on an absent attribute are false).
        """
        with self._lock:
            hits: set[NodeIndex] = set()
            for postings in self._postings.get(attribute, {}).values():
                hits.update(postings)
            return hits

    def lookup_range(self, attribute: str, op: CompareOp,
                     bound: str) -> set[NodeIndex]:
        """Nodes whose current ``attribute`` value satisfies ``op bound``.

        Mirrors :func:`repro.query.evaluator._compare` exactly: when
        ``bound`` parses as a number, numeric stored values compare
        numerically against it and non-numeric stored values compare as
        strings; when ``bound`` is not a number, every stored value
        compares as a string.  The matching distinct values come from
        bisecting the sorted value lists; their posting sets are
        unioned.  A stored NaN sits with the lexical values, so a
        numeric bound may over-include it — a superset still.
        """
        with self._lock:
            by_value = self._postings.get(attribute)
            if not by_value:
                return set()
            hits: set[NodeIndex] = set()
            for value in self._matching_values(attribute, op, bound):
                hits.update(by_value[value])
            return hits

    def _matching_values(self, attribute: str, op: CompareOp,
                         bound: str) -> list[str]:
        """Distinct values of ``attribute`` satisfying ``op bound``.

        The caller holds the lock.
        """
        bound_num = _as_number(bound)
        numeric = self._numeric.get(attribute, ())
        lexical = self._lexical.get(attribute, [])
        lo, hi = self._slice(lexical, op, bound)
        matching = lexical[lo:hi]
        if bound_num is not None:
            lo, hi = self._slice(numeric, op, bound_num, key=_NUMBER)
            matching.extend(value for __, value in numeric[lo:hi])
        else:
            # Non-numeric bound: *every* stored value string-compares,
            # numeric ones included.
            matching.extend(
                value for __, value in numeric
                if _string_compare(op, value, bound))
        return matching

    @staticmethod
    def _slice(ordered, op: CompareOp, bound, key=None) -> tuple[int, int]:
        """[lo, hi) slice of a sorted list matching ``value op bound``."""
        if op is CompareOp.LT:
            return 0, bisect_left(ordered, bound, key=key)
        if op is CompareOp.LE:
            return 0, bisect_right(ordered, bound, key=key)
        if op is CompareOp.GT:
            return bisect_right(ordered, bound, key=key), len(ordered)
        if op is CompareOp.GE:
            return bisect_left(ordered, bound, key=key), len(ordered)
        raise ValueError(f"not a range operator: {op}")

    # ------------------------------------------------------------------
    # internal maintenance (caller holds the lock)

    def _add_sorted(self, attribute: str, value: str) -> None:
        number = _as_number(value)
        if number is not None:
            insort(self._numeric.setdefault(attribute, []), (number, value))
        else:
            insort(self._lexical.setdefault(attribute, []), value)

    def _remove_sorted(self, attribute: str, value: str) -> None:
        number = _as_number(value)
        if number is not None:
            ordered = self._numeric.get(attribute)
            if ordered is not None:
                position = bisect_left(ordered, (number, value))
                if position < len(ordered) \
                        and ordered[position] == (number, value):
                    del ordered[position]
                if not ordered:
                    del self._numeric[attribute]
        else:
            ordered = self._lexical.get(attribute)
            if ordered is not None:
                position = bisect_left(ordered, value)
                if position < len(ordered) and ordered[position] == value:
                    del ordered[position]
                if not ordered:
                    del self._lexical[attribute]

    def _remove_posting(self, node: NodeIndex, attribute: str,
                        value: str) -> None:
        # The mirror guarantees the posting exists.
        by_value = self._postings[attribute]
        postings = by_value[value]
        postings.discard(node)
        self._rows[attribute] -= 1
        if not postings:
            del by_value[value]
            self._remove_sorted(attribute, value)
            if not by_value:
                del self._postings[attribute]
                del self._rows[attribute]

    # ------------------------------------------------------------------
    # cardinalities

    @property
    def posting_count(self) -> int:
        """Number of (attribute, value) keys currently indexed."""
        with self._lock:
            return sum(len(by_value)
                       for by_value in self._postings.values())

    @property
    def tracked_nodes(self) -> int:
        """Nodes currently carrying at least one attribute."""
        with self._lock:
            return len(self._current)

    def attribute_rows(self, attribute: str) -> int:
        """Nodes currently carrying ``attribute``."""
        with self._lock:
            return self._rows.get(attribute, 0)

    def distinct_values(self, attribute: str) -> int:
        """Distinct values ``attribute`` currently takes."""
        with self._lock:
            return len(self._postings.get(attribute, ()))

    # ------------------------------------------------------------------
    # selectivity estimates: fractions of the attribute-carrying nodes
    #
    # Nodes with no attributes cannot match a comparison or ``exists``,
    # so the tracked nodes are the honest denominator for ordering.  An
    # attribute no node carries estimates 0.0 — unless the index holds
    # no rows at all, when the defaults stand in.

    def eq_selectivity(self, attribute: str, value: str) -> float:
        """Estimated fraction matching ``attribute = value``."""
        with self._lock:
            by_value = self._postings.get(attribute)
            if by_value is None:
                return 0.0 if self._current else DEFAULT_EQ_SELECTIVITY
            return len(by_value.get(value, ())) / len(self._current)

    def ne_selectivity(self, attribute: str, value: str) -> float:
        """Estimated fraction matching ``attribute != value``.

        Matches must carry the attribute (absence is not inequality),
        so this is the presence fraction minus the equality fraction.
        """
        with self._lock:
            rows = self._rows.get(attribute)
            if rows is None:
                return 0.0 if self._current else DEFAULT_PRESENCE_SELECTIVITY
            equal = len(self._postings[attribute].get(value, ()))
            return (rows - equal) / len(self._current)

    def presence_selectivity(self, attribute: str) -> float:
        """Estimated fraction carrying ``attribute`` at all."""
        with self._lock:
            rows = self._rows.get(attribute)
            if rows is None:
                return 0.0 if self._current else DEFAULT_PRESENCE_SELECTIVITY
            return rows / len(self._current)

    def range_selectivity(self, attribute: str, op: CompareOp,
                          bound: str) -> float:
        """Estimated fraction matching ``attribute <op> bound``.

        Exact: the posting sizes of the values :meth:`lookup_range`
        would union, summed.  Beyond :data:`_RANGE_WALK_LIMIT` distinct
        values it decays to a third of the presence fraction.
        """
        with self._lock:
            rows = self._rows.get(attribute)
            if rows is None:
                return 0.0 if self._current else DEFAULT_RANGE_SELECTIVITY
            by_value = self._postings[attribute]
            universe = len(self._current)
            if len(by_value) > _RANGE_WALK_LIMIT:
                return (rows / universe) * DEFAULT_RANGE_SELECTIVITY
            matching = sum(
                len(by_value[value])
                for value in self._matching_values(attribute, op, bound))
            return matching / universe


def _string_compare(op: CompareOp, left: str, right: str) -> bool:
    if op is CompareOp.LT:
        return left < right
    if op is CompareOp.LE:
        return left <= right
    if op is CompareOp.GT:
        return left > right
    if op is CompareOp.GE:
        return left >= right
    raise ValueError(f"not a range operator: {op}")
