"""Tests for the attribute registry and versioned attribute tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import AttributeRegistry, VersionedAttributes
from repro.core.types import CURRENT
from repro.errors import AttributeNotFoundError, VersionError


class TestRegistry:
    def test_intern_assigns_sequential_indexes(self):
        registry = AttributeRegistry()
        assert registry.intern("icon", time=1) == 1
        assert registry.intern("document", time=2) == 2

    def test_intern_is_idempotent(self):
        registry = AttributeRegistry()
        first = registry.intern("icon", time=1)
        assert registry.intern("icon", time=9) == first

    def test_name_of_round_trip(self):
        registry = AttributeRegistry()
        index = registry.intern("relation", time=1)
        assert registry.name_of(index) == "relation"

    def test_name_of_unknown_raises(self):
        with pytest.raises(AttributeNotFoundError):
            AttributeRegistry().name_of(5)

    def test_lookup_does_not_create(self):
        registry = AttributeRegistry()
        assert registry.lookup("missing") is None

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            AttributeRegistry().intern("", time=1)

    def test_all_at_respects_creation_time(self):
        registry = AttributeRegistry()
        registry.intern("early", time=1)
        registry.intern("late", time=10)
        assert registry.all_at(5) == [("early", 1)]
        assert registry.all_at(CURRENT) == [("early", 1), ("late", 2)]

    def test_intern_exact_replays_cleanly(self):
        registry = AttributeRegistry()
        registry.intern_exact("icon", 4, time=2)
        assert registry.lookup("icon") == 4
        assert registry.peek_next() == 5
        registry.intern_exact("icon", 4, time=2)  # idempotent

    def test_intern_exact_conflicting_index_raises(self):
        registry = AttributeRegistry()
        registry.intern("icon", time=1)
        with pytest.raises(VersionError):
            registry.intern_exact("icon", 9, time=2)

    def test_forget_releases_name(self):
        registry = AttributeRegistry()
        registry.intern("temp", time=1)
        registry.forget("temp")
        assert registry.lookup("temp") is None
        assert registry.peek_next() == 1

    def test_record_round_trip(self):
        registry = AttributeRegistry()
        registry.intern("icon", time=1)
        registry.intern("document", time=4)
        restored = AttributeRegistry.from_record(registry.to_record())
        assert restored.lookup("icon") == registry.lookup("icon")
        assert restored.all_at(CURRENT) == registry.all_at(CURRENT)
        assert restored.peek_next() == registry.peek_next()


class TestVersionedAttributes:
    def test_set_then_read_current(self):
        table = VersionedAttributes()
        table.set(1, "draft", time=5)
        assert table.value_at(1, CURRENT) == "draft"

    def test_as_of_reads(self):
        table = VersionedAttributes()
        table.set(1, "draft", time=5)
        table.set(1, "final", time=10)
        assert table.value_at(1, 5) == "draft"
        assert table.value_at(1, 7) == "draft"
        assert table.value_at(1, 10) == "final"
        assert table.value_at(1, CURRENT) == "final"

    def test_read_before_first_set_raises(self):
        table = VersionedAttributes()
        table.set(1, "x", time=5)
        with pytest.raises(AttributeNotFoundError):
            table.value_at(1, 3)

    def test_default_suppresses_missing_error(self):
        table = VersionedAttributes()
        assert table.value_at(1, CURRENT, default=None) is None

    def test_delete_hides_value_after_but_not_before(self):
        table = VersionedAttributes()
        table.set(1, "x", time=5)
        table.delete(1, time=8)
        assert table.value_at(1, 6) == "x"
        with pytest.raises(AttributeNotFoundError):
            table.value_at(1, 9)
        with pytest.raises(AttributeNotFoundError):
            table.value_at(1, CURRENT)

    def test_delete_unattached_raises(self):
        table = VersionedAttributes()
        with pytest.raises(AttributeNotFoundError):
            table.delete(1, time=5)

    def test_set_after_delete_reattaches(self):
        table = VersionedAttributes()
        table.set(1, "x", time=5)
        table.delete(1, time=6)
        table.set(1, "y", time=7)
        assert table.value_at(1, CURRENT) == "y"

    def test_none_value_rejected(self):
        table = VersionedAttributes()
        with pytest.raises(ValueError):
            table.set(1, None, time=5)

    def test_non_advancing_time_rejected(self):
        table = VersionedAttributes()
        table.set(1, "x", time=5)
        with pytest.raises(VersionError):
            table.set(1, "y", time=5)

    def test_all_at_collects_attached_only(self):
        table = VersionedAttributes()
        table.set(1, "a", time=1)
        table.set(2, "b", time=2)
        table.delete(1, time=3)
        assert table.all_at(CURRENT) == {2: "b"}
        assert table.all_at(2) == {1: "a", 2: "b"}

    def test_update_times_collects_all_changes(self):
        table = VersionedAttributes()
        table.set(1, "a", time=1)
        table.set(2, "b", time=3)
        table.delete(1, time=7)
        assert table.update_times() == [1, 3, 7]

    def test_history_includes_deletions(self):
        table = VersionedAttributes()
        table.set(1, "a", time=1)
        table.delete(1, time=2)
        assert table.history(1) == [(1, "a"), (2, None)]

    def test_record_round_trip(self):
        table = VersionedAttributes()
        table.set(1, "a", time=1)
        table.delete(1, time=2)
        table.set(2, "b", time=3)
        restored = VersionedAttributes.from_record(table.to_record())
        assert restored.all_at(CURRENT) == table.all_at(CURRENT)
        assert restored.history(1) == table.history(1)


@given(updates=st.lists(
    st.tuples(st.integers(1, 3), st.text(min_size=1, max_size=5)),
    min_size=1, max_size=20))
@settings(max_examples=100)
def test_property_as_of_reads_match_replayed_state(updates):
    """Reading at time T equals replaying the first T updates."""
    table = VersionedAttributes()
    for position, (attr, value) in enumerate(updates, start=1):
        table.set(attr, value, time=position)
    # At each time, the value must be the latest set at or before it.
    expected: dict[int, str] = {}
    for position, (attr, value) in enumerate(updates, start=1):
        expected[attr] = value
        assert table.all_at(position) == expected or \
            table.all_at(position) == dict(expected)
