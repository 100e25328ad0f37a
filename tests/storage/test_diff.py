"""Tests for the Myers diff engine, script application, and merge3."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import diff as diff_module
from repro.storage.deltas import DeltaStore
from repro.storage.diff import (
    Difference,
    DiffKind,
    apply_differences,
    apply_differences_bytes,
    diff_bytes,
    diff_lines,
    diff_sequences,
    invert_differences,
    merge3,
    merge3_bytes,
)
from repro.storage.serializer import decode_value, encode_value


class TestDiffSequences:
    def test_identical_sequences_produce_empty_script(self):
        assert diff_sequences([1, 2, 3], [1, 2, 3]) == []

    def test_empty_to_empty(self):
        assert diff_sequences([], []) == []

    def test_pure_insertion(self):
        script = diff_sequences([], ["a", "b"])
        assert len(script) == 1
        assert script[0].kind is DiffKind.INSERT
        assert script[0].new == ("a", "b")

    def test_pure_deletion(self):
        script = diff_sequences(["a", "b"], [])
        assert len(script) == 1
        assert script[0].kind is DiffKind.DELETE
        assert script[0].old == ("a", "b")

    def test_replacement_fuses_delete_and_insert(self):
        script = diff_sequences(["a", "x", "c"], ["a", "y", "c"])
        assert len(script) == 1
        assert script[0].kind is DiffKind.REPLACE
        assert script[0].old == ("x",)
        assert script[0].new == ("y",)

    def test_script_is_minimal_for_single_edit(self):
        old = list("abcdefgh")
        new = list("abcXefgh")
        script = diff_sequences(old, new)
        assert len(script) == 1
        assert script[0].position == 3

    def test_positions_refer_to_old_sequence(self):
        old = list("abcdef")
        new = list("abXcdYef")
        script = diff_sequences(old, new)
        for diff in script:
            assert 0 <= diff.position <= len(old)

    def test_apply_reproduces_new(self):
        old = list("the quick brown fox")
        new = list("the quiet brown cat")
        assert apply_differences(old, diff_sequences(old, new)) == new

    def test_disjoint_sequences(self):
        old = ["a", "b"]
        new = ["x", "y", "z"]
        assert apply_differences(old, diff_sequences(old, new)) == new


class TestDifferenceValidation:
    def test_insert_must_not_remove(self):
        with pytest.raises(ValueError):
            Difference(DiffKind.INSERT, 0, ("a",), ("b",))

    def test_delete_must_not_add(self):
        with pytest.raises(ValueError):
            Difference(DiffKind.DELETE, 0, ("a",), ("b",))

    def test_replace_needs_both_sides(self):
        with pytest.raises(ValueError):
            Difference(DiffKind.REPLACE, 0, (), ("b",))

    def test_apply_rejects_mismatched_old_tokens(self):
        script = [Difference(DiffKind.DELETE, 0, ("x",), ())]
        with pytest.raises(ValueError):
            apply_differences(["a"], script)

    def test_apply_rejects_overlapping_edits(self):
        script = [
            Difference(DiffKind.DELETE, 0, ("a", "b"), ()),
            Difference(DiffKind.DELETE, 1, ("b",), ()),
        ]
        with pytest.raises(ValueError):
            apply_differences(["a", "b", "c"], script)

    def test_apply_rejects_insert_past_the_end(self):
        script = [Difference(DiffKind.INSERT, 2, (), ("x",))]
        with pytest.raises(ValueError, match="end of the tokens"):
            apply_differences(["a"], script)


class TestInvert:
    def test_invert_restores_old(self):
        old = list("abcdef")
        new = list("axcdz")
        script = diff_sequences(old, new)
        assert apply_differences(new, invert_differences(script)) == old

    def test_invert_of_empty_script(self):
        assert invert_differences([]) == []

    def test_double_invert_is_identity_on_effect(self):
        old = list("hello world")
        new = list("help word")
        script = diff_sequences(old, new)
        twice = invert_differences(invert_differences(script))
        assert apply_differences(old, twice) == new


class TestByteDiffs:
    def test_line_mode_round_trip(self):
        old = b"line one\nline two\nline three\n"
        new = b"line one\nline 2\nline three\nline four\n"
        assert apply_differences_bytes(old, diff_bytes(old, new)) == new

    def test_binary_mode_round_trip(self):
        old = bytes(range(200))
        new = old[:50] + b"\x01\x02" + old[60:]
        assert apply_differences_bytes(old, diff_bytes(old, new)) == new

    def test_mixed_text_binary_uses_line_mode(self):
        old = b"no newline here"
        new = b"now\nwith newlines\n"
        assert apply_differences_bytes(old, diff_bytes(old, new)) == new

    def test_empty_to_content(self):
        assert apply_differences_bytes(b"", diff_bytes(b"", b"abc\n")) \
            == b"abc\n"

    def test_content_to_empty(self):
        assert apply_differences_bytes(b"abc\n",
                                       diff_bytes(b"abc\n", b"")) == b""

    def test_diff_lines_keeps_newlines_on_tokens(self):
        script = diff_lines(b"a\nb\n", b"a\nc\n")
        assert script[0].old == (b"b\n",)
        assert script[0].new == (b"c\n",)


class TestMerge3:
    BASE = "the quick brown fox jumps over the lazy dog".split()

    def test_non_overlapping_edits_merge_cleanly(self):
        ours = list(self.BASE)
        ours[1] = "slow"
        theirs = list(self.BASE)
        theirs[-1] = "cat"
        result = merge3(self.BASE, ours, theirs)
        assert result.clean
        assert "slow" in result.merged and "cat" in result.merged

    def test_identical_edits_merge_cleanly(self):
        ours = list(self.BASE)
        ours[0] = "a"
        result = merge3(self.BASE, ours, list(ours))
        assert result.clean
        assert list(result.merged) == ours

    def test_conflicting_edits_are_reported(self):
        ours = list(self.BASE)
        ours[1] = "slow"
        theirs = list(self.BASE)
        theirs[1] = "fast"
        result = merge3(self.BASE, ours, theirs)
        assert not result.clean
        assert result.conflicts[0][1] == ("slow",)
        assert result.conflicts[0][2] == ("fast",)

    def test_one_side_unchanged_takes_other(self):
        theirs = list(self.BASE) + ["entirely"]
        result = merge3(self.BASE, list(self.BASE), theirs)
        assert result.clean
        assert list(result.merged) == theirs

    def test_merge3_bytes_line_mode(self):
        base = b"one\ntwo\nthree\n"
        ours = b"ONE\ntwo\nthree\n"
        theirs = b"one\ntwo\nTHREE\n"
        result = merge3_bytes(base, ours, theirs)
        assert result.clean
        assert b"".join(result.merged) == b"ONE\ntwo\nTHREE\n"

    def test_both_insert_same_place_conflicts(self):
        ours = self.BASE[:2] + ["red"] + self.BASE[2:]
        theirs = self.BASE[:2] + ["blue"] + self.BASE[2:]
        result = merge3(self.BASE, ours, theirs)
        assert not result.clean


# ----------------------------------------------------------------------
# property-based coverage

tokens = st.lists(st.sampled_from("abcde"), max_size=40)


@given(old=tokens, new=tokens)
@settings(max_examples=200)
def test_property_apply_diff_reproduces_new(old, new):
    assert apply_differences(old, diff_sequences(old, new)) == new


@given(old=tokens, new=tokens)
@settings(max_examples=200)
def test_property_invert_restores_old(old, new):
    script = diff_sequences(old, new)
    assert apply_differences(new, invert_differences(script)) == old


@given(data=st.binary(max_size=300), cut=st.integers(0, 300),
       insert=st.binary(max_size=30))
@settings(max_examples=100)
def test_property_bytes_round_trip(data, cut, insert):
    cut = min(cut, len(data))
    new = data[:cut] + insert + data[cut:]
    assert apply_differences_bytes(data, diff_bytes(data, new)) == new


@given(base=tokens, ours=tokens)
@settings(max_examples=100)
def test_property_merge_with_unchanged_side_takes_edits(base, ours):
    result = merge3(base, ours, list(base))
    assert result.clean
    assert list(result.merged) == ours


# ----------------------------------------------------------------------
# the line path's contract: same scripts as the token path, minimal up to
# the edit bound, one replacement beyond it

def fields(script):
    return [(d.kind, d.position, d.old, d.new) for d in script]


def distance(script):
    return sum(d.old_length + d.new_length for d in script)


line_bytes = st.lists(
    st.sampled_from([b"a", b"b", b"\n", b"\r", b"\r\n"]), max_size=30,
).map(b"".join)


@st.composite
def byte_pairs(draw):
    """Two bodies: unrelated, identical, or one a small edit of the other.

    Drawn from pieces that include a bare ``\\r``, so a ``\\r`` on one
    side of a common prefix or suffix can pair with a ``\\n`` on the
    other; the last line is often unterminated and either side empty.
    """
    old = draw(line_bytes)
    how = draw(st.sampled_from(["unrelated", "identical", "edited"]))
    if how == "unrelated":
        return old, draw(line_bytes)
    if how == "identical":
        return old, old
    new = old
    for __ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(new)))
        cut = draw(st.integers(0, 2))
        new = new[:at] + draw(line_bytes.filter(lambda b: len(b) < 4)) \
            + new[at + cut:]
    return old, new


@given(pair=byte_pairs())
@settings(max_examples=600)
def test_property_diff_lines_equals_token_diff(pair):
    old, new = pair
    assert fields(diff_lines(old, new)) == fields(diff_sequences(
        old.splitlines(keepends=True), new.splitlines(keepends=True)))


@pytest.mark.parametrize("old, new", [
    (b"", b""), (b"", b"a\r"), (b"a\r", b""), (b"a\r", b"a\r"),
    (b"a\r", b"a\r\n"), (b"a\r\n", b"a\r"), (b"x\r\n", b"y\n"),
    (b"a\rb\n", b"a\r\nb\n"), (b"\r\nb", b"\nb"), (b"a\nb", b"a\nbb"),
    (b"q\r\nz\n", b"q\n\nz\n"), (b"a\n\r", b"a\n\r\n"),
])
def test_diff_lines_cr_edges(old, new):
    expected = diff_sequences(old.splitlines(keepends=True),
                              new.splitlines(keepends=True))
    assert fields(diff_lines(old, new)) == fields(expected)
    assert apply_differences_bytes(old, diff_bytes(old, new)) == new


def lcs_length(old, new):
    row = [0] * (len(new) + 1)
    for token in old:
        diagonal = 0
        for j, other in enumerate(new):
            diagonal, row[j + 1] = row[j + 1], (
                diagonal + 1 if token == other
                else max(row[j + 1], row[j]))
    return row[-1]


@given(old=tokens, new=tokens)
@settings(max_examples=300)
def test_property_script_is_minimal(old, new):
    assert distance(diff_sequences(old, new)) \
        == len(old) + len(new) - 2 * lcs_length(old, new)


@given(pair=byte_pairs())
@settings(max_examples=200)
def test_property_line_script_is_minimal(pair):
    old, new = (side.splitlines(keepends=True) for side in pair)
    assert distance(diff_lines(*pair)) \
        == len(old) + len(new) - 2 * lcs_length(old, new)


def design_file(rng, size):
    lines, length = [], 0
    while length < size:
        line = b"%s %d %d\n" % (rng.choice([b"gate", b"net", b"pin"]),
                                rng.randrange(10**6), rng.randrange(10**6))
        lines.append(line)
        length += len(line)
    return lines


class _TooMuchWork(Exception):
    pass


def diff_lines_executed(function, *args, stop_after):
    """``(result, n)``: ``n`` counts the lines of ``repro.storage.diff``
    that ``function(*args)`` executes, a measure of its work that does
    not depend on the machine or its load.  Stops (result ``None``) once
    ``n`` passes ``stop_after``, so a runaway search fails fast."""
    filename = diff_module.__file__
    executed = 0

    def line(frame, event, arg):
        nonlocal executed
        if event == "line":
            executed += 1
            if executed > stop_after:
                raise _TooMuchWork
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == filename else None

    sys.settrace(call)
    try:
        result = function(*args)
    except _TooMuchWork:
        result = None
    finally:
        sys.settrace(None)
    return result, executed


class TestEditBound:
    # The wall-clock twin of the first test (34 KB unrelated bodies in
    # at most 15 ms) is benchmarks/test_diff_edit_bound.py: a timing
    # bound fails whenever the machine is busy, so it runs in its own
    # CI step, not in the default test run.

    def test_unrelated_large_bodies_take_bounded_work(self):
        # The Myers search explores at most _MAX_EDITS = 256 edits, so
        # it visits at most 257 * 258 / 2 frontier points of the edit
        # graph, each one pass of its seven-line inner loop.  Unrelated
        # bodies share almost no line, so snakes add nearly nothing;
        # without the cap these two (~3 750 edits apart) would visit
        # about 7 million points.
        rng = random.Random(3)
        old = b"".join(design_file(rng, 34_000))
        new = b"".join(design_file(rng, 34_000))
        frontier_points = 257 * 258 // 2
        bound = 8 * frontier_points
        script, executed = diff_lines_executed(
            diff_bytes, old, new, stop_after=bound)
        assert executed <= bound
        assert apply_differences_bytes(old, script) == new
        assert apply_differences_bytes(
            new, invert_differences(script)) == old

    def test_past_the_bound_the_trimmed_core_is_one_replacement(self):
        rng = random.Random(4)
        head, tail = design_file(rng, 2_000), design_file(rng, 2_000)
        # Blank lines between rewritten ones: a minimal script would be
        # hundreds of edits around the shared blanks.
        old_core, new_core = (
            [line for design in design_file(rng, 9_000)
             for line in (design, b"\n")][:-1] for __ in range(2))
        script = diff_lines(b"".join(head + old_core + tail),
                            b"".join(head + new_core + tail))
        assert fields(script) == [(DiffKind.REPLACE, len(head),
                                   tuple(old_core), tuple(new_core))]

    def test_merge3_keeps_disjoint_edits_clean_past_the_bound(self):
        rng = random.Random(5)
        base = design_file(rng, 30_000)
        ours = list(base)
        ours[10:310] = design_file(rng, 9_000)  # far past the bound
        theirs = list(base)
        theirs[-5] = b"edited\n"
        result = merge3(base, ours, theirs)
        assert result.clean
        assert list(result.merged) == ours[:-5] + [b"edited\n"] + ours[-4:]


# ----------------------------------------------------------------------
# stored deltas are byte-identical to those of the original engine

def seeded_chain():
    rng = random.Random(25)
    words = [b"gate", b"net", b"pin", b"via", b"pad", b"wire"]
    endings = [b"\n", b"\n", b"\n", b"\n", b"\r\n", b"\r"]

    def line():
        if rng.random() < 0.1:
            return rng.choice(endings)  # blank line; \r then \n pair up
        return b"%s %d" % (rng.choice(words), rng.randrange(500)) \
            + rng.choice(endings)

    lines = [line() for __ in range(300)]
    chain = DeltaStore(b"".join(lines), 1)
    for time_ in range(2, 80):
        for __ in range(rng.randrange(5)):
            at = rng.randrange(len(lines) + 1)
            op = rng.randrange(4)
            if op == 0 or not lines:
                lines[at:at] = [line() for __ in range(rng.randrange(1, 6))]
            elif op == 1:
                del lines[at:at + rng.randrange(1, 6)]
            else:
                lines[at:at + rng.randrange(1, 4)] = [
                    line() for __ in range(rng.randrange(1, 4))]
        body = b"".join(lines)
        if time_ % 9 == 0:
            body = body.rstrip(b"\r\n")  # unterminated last line
        if time_ == 40:
            body = b""
        chain.check_in(body, time_)
    return chain


def test_seeded_chain_record_is_byte_identical():
    # Digest recorded from the token-by-token engine this one replaced,
    # over the record form of its day: the deltas as a list of scripts.
    record = seeded_chain().to_record()
    record["deltas"] = decode_value(bytes(record["deltas"]))
    record = encode_value(record)
    assert hashlib.blake2b(record, digest_size=16).hexdigest() \
        == "8c89a3cbcb45338fff12f7888cac6d3a"
