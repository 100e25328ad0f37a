"""Versioned attribute/value machinery.

The paper (§3): "an unlimited number of attribute/value pairs can be
attached to a node or link … Neptune's attribute/value pairs are very
dynamic — at any time the user or an application program can attach an
additional attribute …, delete an attribute attachment, or modify the
value of an attribute."  And attribute values are versioned: "If the node
is an archive then creates a new version of the attribute value"
(``setNodeAttributeValue``), with as-of reads via the ``Time`` operand of
every ``get*Attribute*`` operation.

Two classes:

- :class:`AttributeRegistry` — the graph-wide ``Attribute`` ↔
  ``AttributeIndex`` interning table (``getAttributeIndex`` semantics:
  look up, creating on first use).
- :class:`VersionedAttributes` — one node's or link's attribute table,
  where each attribute holds a full timeline of (time, value) entries and
  deletion markers, answering "what was the value at time T".
"""

from __future__ import annotations

from repro.core.timeline import Timeline
from repro.core.types import AttributeIndex, Time, CURRENT
from repro.errors import AttributeNotFoundError, VersionError

__all__ = ["AttributeRegistry", "VersionedAttributes"]

#: Timeline marker for "the attribute was deleted at this time".
_DELETED = None


class AttributeRegistry:
    """Graph-wide attribute name interning with creation times."""

    def __init__(self) -> None:
        self._by_name: dict[str, AttributeIndex] = {}
        self._by_index: dict[AttributeIndex, str] = {}
        self._created_at: dict[AttributeIndex, Time] = {}
        self._next_index: AttributeIndex = 1

    def intern(self, name: str, time: Time) -> AttributeIndex:
        """Return the index for ``name``, creating it at ``time`` if new.

        Implements ``getAttributeIndex``: "Returns the unique
        identification for Attribute … If no attribute exists, then
        creates one."
        """
        if not name:
            raise ValueError("attribute name must be non-empty")
        index = self._by_name.get(name)
        if index is None:
            index = self._next_index
            self._next_index += 1
            self._by_name[name] = index
            self._by_index[index] = name
            self._created_at[index] = time
        return index

    def peek_next(self) -> AttributeIndex:
        """The index the next new attribute will receive (for redo logs)."""
        return self._next_index

    def intern_exact(self, name: str, index: AttributeIndex,
                     time: Time) -> None:
        """Intern ``name`` at a pre-assigned ``index`` (redo replay path).

        No-op when the mapping already exists; conflicting mappings raise.
        """
        existing = self._by_name.get(name)
        if existing is not None:
            if existing != index:
                raise VersionError(
                    f"attribute {name!r} already interned as {existing}, "
                    f"log says {index}")
            return
        if index in self._by_index:
            raise VersionError(
                f"attribute index {index} already names "
                f"{self._by_index[index]!r}")
        self._by_name[name] = index
        self._by_index[index] = name
        self._created_at[index] = time
        self._next_index = max(self._next_index, index + 1)

    def forget(self, name: str) -> None:
        """Remove a just-interned attribute (abort primitive)."""
        index = self._by_name.pop(name)
        del self._by_index[index]
        del self._created_at[index]
        if index == self._next_index - 1:
            self._next_index = index

    def lookup(self, name: str) -> AttributeIndex | None:
        """Index for ``name`` without creating it; None if unknown."""
        return self._by_name.get(name)

    def name_of(self, index: AttributeIndex) -> str:
        """Name for ``index``; raises if the index was never created."""
        try:
            return self._by_index[index]
        except KeyError:
            raise AttributeNotFoundError(
                f"attribute index {index} is not defined") from None

    def known(self, index: AttributeIndex) -> bool:
        """True when ``index`` names a registered attribute."""
        return index in self._by_index

    def all_at(self, time: Time) -> list[tuple[str, AttributeIndex]]:
        """``getAttributes``: every (name, index) existing at ``time``."""
        return sorted(
            (name, index)
            for name, index in self._by_name.items()
            if time == CURRENT or self._created_at[index] <= time
        )

    def clone(self) -> "AttributeRegistry":
        """Independent copy (the interning maps are flat dicts)."""
        copy = AttributeRegistry()
        copy._by_name = dict(self._by_name)
        copy._by_index = dict(self._by_index)
        copy._created_at = dict(self._created_at)
        copy._next_index = self._next_index
        return copy

    def to_record(self) -> dict:
        """Encodable snapshot."""
        return {
            "names": {
                name: [index, self._created_at[index]]
                for name, index in self._by_name.items()
            },
            "next": self._next_index,
        }

    @classmethod
    def from_record(cls, record: dict) -> "AttributeRegistry":
        """Inverse of :meth:`to_record`."""
        registry = cls()
        for name, (index, created) in record["names"].items():
            registry._by_name[name] = index
            registry._by_index[index] = name
            registry._created_at[index] = created
        registry._next_index = record["next"]
        return registry


class VersionedAttributes:
    """Attribute table for one node or link, with full value timelines.

    Each attribute index maps to a :class:`Timeline` of values where a
    ``None`` value marks deletion.  An as-of read binary-searches for
    the latest entry at or before the requested time.
    """

    def __init__(self) -> None:
        self._timelines: dict[AttributeIndex, Timeline] = {}

    # ------------------------------------------------------------------
    # mutation

    def set(self, index: AttributeIndex, value: str, time: Time) -> None:
        """Set the value of an attribute at ``time`` (a new version)."""
        if value is None:
            raise ValueError("attribute values must be strings, not None")
        self._append(index, time, value)

    def delete(self, index: AttributeIndex, time: Time) -> None:
        """Delete the attribute attachment at ``time``.

        Deleting an attribute that is not currently attached is an error —
        "Errors should never pass silently".
        """
        if self.value_at(index, CURRENT, default=_DELETED) is _DELETED:
            raise AttributeNotFoundError(
                f"attribute index {index} is not attached")
        self._append(index, time, _DELETED)

    def _append(self, index: AttributeIndex, time: Time,
                value: str | None) -> None:
        timeline = self._timelines.setdefault(index, Timeline())
        try:
            timeline.append(time, value)
        except VersionError:
            raise VersionError(
                f"attribute update at time {time} does not advance past "
                f"{timeline.latest_time}") from None

    # ------------------------------------------------------------------
    # reading

    def value_at(self, index: AttributeIndex, time: Time,
                 default: object = ...) -> str | None:
        """Value of attribute ``index`` as of ``time`` (0 = current).

        Raises :class:`AttributeNotFoundError` when the attribute is
        absent/deleted at that time, unless ``default`` is supplied.
        """
        timeline = self._timelines.get(index)
        value: str | None = _DELETED
        if timeline is not None:
            try:
                value = timeline.at(time)
            except VersionError:
                value = _DELETED  # no entry at or before `time`
        if value is _DELETED:
            if default is not ...:
                return default  # type: ignore[return-value]
            raise AttributeNotFoundError(
                f"attribute index {index} has no value at time {time}")
        return value

    def values_at(self, indexes, time: Time) -> list[str | None]:
        """Values for ``indexes`` as of ``time``; ``None`` marks absence.

        The columnar batch evaluator's probe: touches only the
        referenced timelines instead of materializing the full
        :meth:`all_at` dict, so the cost tracks the predicate's
        attribute count, not the entity's.
        """
        timelines = self._timelines
        values: list[str | None] = []
        for index in indexes:
            timeline = timelines.get(index)
            value: str | None = _DELETED
            if timeline is not None:
                try:
                    value = timeline.at(time)
                except VersionError:
                    value = _DELETED
            values.append(value)
        return values

    def all_at(self, time: Time) -> dict[AttributeIndex, str]:
        """Every attached (index → value) as of ``time``."""
        result: dict[AttributeIndex, str] = {}
        for index in self._timelines:
            value = self.value_at(index, time, default=_DELETED)
            if value is not _DELETED:
                result[index] = value
        return result

    def update_times(self) -> list[Time]:
        """Every time at which this table changed (for minor versions)."""
        times = [
            stamp
            for timeline in self._timelines.values()
            for stamp in timeline.times()
        ]
        return sorted(times)

    def history(self, index: AttributeIndex) -> list[tuple[Time, str | None]]:
        """Full timeline of one attribute (None entries are deletions)."""
        timeline = self._timelines.get(index)
        return list(timeline) if timeline is not None else []

    def clone(self) -> "VersionedAttributes":
        """Independent copy sharing the immutable timeline entries."""
        copy = VersionedAttributes()
        copy._timelines = {
            index: timeline.clone()
            for index, timeline in self._timelines.items()
        }
        return copy

    # ------------------------------------------------------------------
    # persistence

    def to_record(self) -> dict:
        """Encodable snapshot."""
        return {
            str(index): [[stamp, value] for stamp, value in timeline]
            for index, timeline in self._timelines.items()
        }

    @classmethod
    def from_record(cls, record: dict) -> "VersionedAttributes":
        """Inverse of :meth:`to_record`."""
        table = cls()
        for index, entries in record.items():
            timeline = Timeline()
            for stamp, value in entries:
                timeline.append(stamp, value)
            table._timelines[int(index)] = timeline
        return table
