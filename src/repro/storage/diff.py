"""Myers diff engine and three-way merge.

The Appendix defines the atomic domain ``Difference: a deletion, insertion
or replacement``; ``getNodeDifferences`` returns a ``Difference*`` between
two versions of a node.  This module computes such difference scripts with
the classic Myers O(ND) algorithm, applies them, and inverts them (the
inversion is what makes *backward* deltas cheap: storing the inverse script
of an edit lets us reconstruct the older version from the newer one).

Diffs operate on token sequences.  Node contents are uninterpreted bytes at
the HAM level, so the default tokenization splits on newlines when the data
looks line-structured and falls back to fixed-size byte chunks otherwise —
mirroring how RCS-style tools behave on text versus binary data.  Line
diffs find the common leading and trailing lines on the raw bytes and
split only what lies between, so a check-in costs its edit, not its file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Sequence

__all__ = [
    "DiffKind",
    "Difference",
    "diff_sequences",
    "diff_lines",
    "diff_bytes",
    "apply_differences",
    "apply_differences_bytes",
    "invert_differences",
    "merge3",
    "merge3_bytes",
    "MergeResult",
]

#: Chunk size used when diffing binary (non line-structured) data.
_BINARY_CHUNK = 64

#: Largest edit distance (tokens inserted plus deleted) the Myers search
#: explores.  Its cost grows with the square of the distance, so two
#: unrelated bodies would take hundreds of milliseconds; past the bound
#: the span between the common prefix and suffix is recorded as one
#: replacement.  Every check-in of the standing benchmark stays below 140.
_MAX_EDITS = 256


class DiffKind(enum.Enum):
    """The three difference kinds named by the paper's Appendix."""

    INSERT = "insert"
    DELETE = "delete"
    REPLACE = "replace"


@dataclass(frozen=True)
class Difference:
    """One edit in a difference script.

    Positions are token offsets into the *old* sequence.  ``old`` holds the
    tokens removed (empty for an insertion) and ``new`` the tokens added
    (empty for a deletion).  A replacement carries both.
    """

    kind: DiffKind
    position: int
    old: tuple
    new: tuple

    def __post_init__(self) -> None:
        if self.kind is DiffKind.INSERT and self.old:
            raise ValueError("insert difference must not remove tokens")
        if self.kind is DiffKind.DELETE and self.new:
            raise ValueError("delete difference must not add tokens")
        if self.kind is DiffKind.REPLACE and not (self.old and self.new):
            raise ValueError("replace difference needs both old and new")

    @property
    def old_length(self) -> int:
        """Number of tokens this edit consumes from the old sequence."""
        return len(self.old)

    @property
    def new_length(self) -> int:
        """Number of tokens this edit produces in the new sequence."""
        return len(self.new)


def _myers_snakes(
    old: Sequence[Hashable],
    new: Sequence[Hashable],
) -> list[tuple[int, int, int]]:
    """Runs of matched tokens along a shortest edit path, using Myers'
    greedy algorithm with a recorded trace.

    Each run is ``(old_index, new_index, length)``; runs are strictly
    increasing in both coordinates.  Returns no runs at all when the
    edit distance exceeds :data:`_MAX_EDITS`.
    """
    n, m = len(old), len(new)
    if n == 0 or m == 0:
        return []
    max_d = min(n + m, _MAX_EDITS)
    # Forward pass: v[off + k] is the furthest x on diagonal k after d
    # edits; rounds[d] keeps that frontier for diagonals -d, -d+2, ..., d.
    off = max_d + 1
    v = [0] * (2 * off + 1)
    rounds: list[list[int]] = []
    for d in range(max_d + 1):
        lo = off - d
        hi = off + d
        for i in range(lo, hi + 1, 2):
            if i == lo or (i != hi and v[i - 1] < v[i + 1]):
                x = v[i + 1]
            else:
                x = v[i - 1] + 1
            y = x - i + off
            while x < n and y < m and old[x] == new[y]:
                x += 1
                y += 1
            v[i] = x
            if x >= n and y >= m:
                return _backtrack(rounds, d, n, m)
        rounds.append(v[lo:hi + 1:2])
    return []


def _backtrack(
    rounds: list[list[int]], found_d: int, n: int, m: int,
) -> list[tuple[int, int, int]]:
    """Walk the Myers trace from ``(n, m)`` back to the origin, collecting
    the diagonal runs (snakes) — the matched tokens — in forward order."""
    snakes: list[tuple[int, int, int]] = []
    x, y = n, m
    for d in range(found_d, 0, -1):
        frontier = rounds[d - 1]
        k = x - y
        up = (k + d) // 2  # frontier index of diagonal k + 1
        if k == -d or (k != d and frontier[up - 1] < frontier[up]):
            # Insertion of new[prev_y] from diagonal k + 1.
            prev_x = frontier[up]
            prev_y = prev_x - k - 1
            run = min(x - prev_x, y - prev_y - 1)
        else:
            # Deletion of old[prev_x] from diagonal k - 1.
            prev_x = frontier[up - 1]
            prev_y = prev_x - k + 1
            run = min(x - prev_x - 1, y - prev_y)
        if run > 0:
            snakes.append((x - run, y - run, run))
        x, y = prev_x, prev_y
    # d == 0: a pure snake from the origin.
    run = min(x, y)
    if run > 0:
        snakes.append((x - run, y - run, run))
    snakes.reverse()
    return snakes


def _script(
    old: Sequence[Hashable],
    new: Sequence[Hashable],
    base: int,
) -> list[Difference]:
    """The difference script between two trimmed cores whose first tokens
    sit at position ``base`` of the untrimmed old sequence.

    Past :data:`_MAX_EDITS` the Myers search finds no runs, so the whole
    core becomes one edit.
    """
    script: list[Difference] = []
    oi = ni = 0
    for mi, mj, run in _myers_snakes(old, new) + [(len(old), len(new), 0)]:
        if mi > oi:
            removed = tuple(old[oi:mi])
            if mj > ni:
                script.append(Difference(
                    DiffKind.REPLACE, base + oi, removed, tuple(new[ni:mj])))
            else:
                script.append(
                    Difference(DiffKind.DELETE, base + oi, removed, ()))
        elif mj > ni:
            script.append(Difference(
                DiffKind.INSERT, base + oi, (), tuple(new[ni:mj])))
        oi, ni = mi + run, mj + run
    return script


def diff_sequences(
    old: Sequence[Hashable],
    new: Sequence[Hashable],
) -> list[Difference]:
    """Compute a minimal difference script turning ``old`` into ``new``.

    The script is a list of :class:`Difference` ordered by position in the
    old sequence, with non-overlapping edits; adjacent delete+insert pairs
    are fused into a single :data:`DiffKind.REPLACE`.  It is minimal while
    the edit distance stays within :data:`_MAX_EDITS`; beyond that, the
    span between the common prefix and suffix is one replacement.
    """
    old = list(old)
    new = list(new)
    # Trim the common prefix/suffix first: cheap and it keeps the Myers
    # search small for the typical append/patch edit.
    pre = 0
    limit = min(len(old), len(new))
    while pre < limit and old[pre] == new[pre]:
        pre += 1
    suf = 0
    while (
        suf < limit - pre
        and old[len(old) - 1 - suf] == new[len(new) - 1 - suf]
    ):
        suf += 1
    return _script(old[pre:len(old) - suf], new[pre:len(new) - suf], pre)


def _split_tokens(data: bytes) -> tuple[list[bytes], bool]:
    """Tokenize node contents for diffing.

    Returns ``(tokens, line_mode)``.  Line mode keeps the trailing newline
    on each token so concatenating tokens reproduces the input exactly.
    """
    if b"\n" in data:
        tokens = data.splitlines(keepends=True)
        return tokens, True
    tokens = [
        data[i:i + _BINARY_CHUNK] for i in range(0, len(data), _BINARY_CHUNK)
    ]
    return tokens, False


def _common_head(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:  # invariant: a[:lo] == b[:lo]; only the window is copied
        mid = (lo + hi + 1) // 2
        if b.startswith(a[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _common_tail(a: bytes, b: bytes, limit: int) -> int:
    """Length of the longest common suffix of ``a`` and ``b``, at most
    ``limit``."""
    la, lb = len(a), len(b)
    lo, hi = 0, limit
    while lo < hi:  # invariant: a[la - lo:] == b[lb - lo:]
        mid = (lo + hi + 1) // 2
        if b.startswith(a[la - mid:la - lo], lb - mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _line_head(old: bytes, new: bytes) -> int:
    """Byte length of the longest run of leading lines both share.

    Lines are the tokens of ``bytes.splitlines(keepends=True)``: each
    ends after ``\\n``, ``\\r\\n``, or a ``\\r`` not followed by ``\\n``.
    """
    p = _common_head(old, new)
    if p == 0:
        return 0
    last = old[p - 1]
    # A line break ending the common bytes ends a shared line — unless it
    # is a \r that pairs with a \n on one side only.
    if last == 10 or (last == 13 and old[p:p + 1] != b"\n"
                      and new[p:p + 1] != b"\n"):
        return p
    # Otherwise the divergent line starts after the last break before it.
    nl = old.rfind(b"\n", 0, p - 1)
    cr = old.rfind(b"\r", nl + 1, p - 1)
    return max(nl, cr) + 1


def _starts_line(data: bytes, pos: int, head: int) -> bool:
    """True when a line of ``data[head:]`` starts at ``pos < len(data)``."""
    return (pos == head or data[pos - 1] == 10
            or (data[pos - 1] == 13 and data[pos] != 10))


def _line_tail(old: bytes, new: bytes, head: int) -> int:
    """Byte length of the longest run of trailing lines ``old[head:]`` and
    ``new[head:]`` share (line tokens as in :func:`_line_head`)."""
    q = _common_tail(old, new, min(len(old), len(new)) - head)
    if q == 0:
        return 0
    start = len(old) - q
    if _starts_line(old, start, head) and _starts_line(new, len(new) - q,
                                                       head):
        return q
    # Inside the common bytes both sides break lines alike: the shared
    # run starts after the first break.
    nl = old.find(b"\n", start)
    cr = old.find(b"\r", start, nl if nl >= 0 else len(old))
    if cr >= 0:
        end = cr + 2 if old[cr + 1:cr + 2] == b"\n" else cr + 1
    elif nl >= 0:
        end = nl + 1
    else:
        return 0
    return len(old) - end


def diff_lines(old: bytes, new: bytes) -> list[Difference]:
    """Diff two byte strings line-by-line (newlines kept on tokens).

    The script equals ``diff_sequences`` over both sides'
    ``splitlines(keepends=True)``, but the common leading and trailing
    lines are found by comparing bytes, and only the lines between them
    are split, so the cost follows the edited region, not the file.
    """
    head = _line_head(old, new)
    tail = _line_tail(old, new, head)
    # Every line in old[:head] is terminated; a \r\n counts once.
    lines = (old.count(b"\n", 0, head) + old.count(b"\r", 0, head)
             - old.count(b"\r\n", 0, head))
    return _script(old[head:len(old) - tail].splitlines(keepends=True),
                   new[head:len(new) - tail].splitlines(keepends=True),
                   lines)


def diff_bytes(old: bytes, new: bytes) -> list[Difference]:
    """Diff two byte strings with automatic text/binary tokenization.

    Both inputs must agree on tokenization for the script to apply cleanly,
    so the mode is chosen from the *union* of the two: line mode whenever
    either side contains a newline.
    """
    if b"\n" in old or b"\n" in new:
        return diff_lines(old, new)
    old_tokens, __ = _split_tokens(old)
    new_tokens, __ = _split_tokens(new)
    return diff_sequences(old_tokens, new_tokens)


def apply_differences(
    old: Sequence[Hashable],
    script: Sequence[Difference],
) -> list:
    """Apply a difference script to ``old``, returning the new token list.

    Raises :class:`ValueError` if the script does not match ``old`` (wrong
    position or mismatched removed tokens) — a corrupted delta chain must
    fail loudly, never produce silently wrong contents.
    """
    result: list = []
    cursor = 0
    for diff in script:
        if diff.position < cursor:
            raise ValueError(
                f"difference at {diff.position} overlaps prior edit "
                f"ending at {cursor}"
            )
        result.extend(old[cursor:diff.position])
        cursor = diff.position
        actual = tuple(old[cursor:cursor + diff.old_length])
        if actual != diff.old:
            raise ValueError(
                f"difference at {diff.position} expected {diff.old!r}, "
                f"found {actual!r}"
            )
        result.extend(diff.new)
        cursor += diff.old_length
    result.extend(old[cursor:])
    return result


def apply_differences_bytes(old: bytes, script: Sequence[Difference]) -> bytes:
    """Apply a byte-level script produced by :func:`diff_bytes`."""
    if b"\n" in old or any(
        b"\n" in token for diff in script for token in (*diff.old, *diff.new)
    ):
        tokens = old.splitlines(keepends=True)
    else:
        tokens, __ = _split_tokens(old)
    return b"".join(apply_differences(tokens, script))


def invert_differences(script: Sequence[Difference]) -> list[Difference]:
    """Invert a script: the result turns *new* back into *old*.

    This is the core trick behind backward deltas: we diff old→new on
    check-in, invert, and store the inverse keyed to the old version.
    """
    inverted: list[Difference] = []
    shift = 0
    for diff in script:
        position = diff.position + shift
        if diff.kind is DiffKind.INSERT:
            inverted.append(
                Difference(DiffKind.DELETE, position, diff.new, ()))
        elif diff.kind is DiffKind.DELETE:
            inverted.append(
                Difference(DiffKind.INSERT, position, (), diff.old))
        else:
            inverted.append(
                Difference(DiffKind.REPLACE, position, diff.new, diff.old))
        shift += diff.new_length - diff.old_length
    return inverted


@dataclass(frozen=True)
class MergeResult:
    """Outcome of a three-way merge.

    ``merged`` is the merged token list; ``conflicts`` lists the regions
    (as ``(base_slice, ours, theirs)`` tuples) that could not be merged
    automatically.  When ``conflicts`` is empty the merge is clean.
    """

    merged: tuple
    conflicts: tuple

    @property
    def clean(self) -> bool:
        """True when the merge produced no conflicts."""
        return not self.conflicts


def _apply_cluster(chunk: list, edits: list[Difference], lo: int) -> list:
    """Apply a side's cluster edits (base coordinates) to ``chunk``."""
    rebased = [
        Difference(diff.kind, diff.position - lo, diff.old, diff.new)
        for diff in sorted(edits, key=lambda d: d.position)
    ]
    return apply_differences(chunk, rebased)


def merge3(
    base: Sequence[Hashable],
    ours: Sequence[Hashable],
    theirs: Sequence[Hashable],
) -> MergeResult:
    """Three-way merge of two descendants of a common base.

    Classic hunk-based diff3: diff base→ours and base→theirs, then walk
    the base.  Hunks whose base ranges don't overlap apply independently
    (edits to *different* regions always merge); overlapping hunks from
    both sides take the common change when identical, otherwise the region
    is recorded as a conflict (and "ours" is kept in the merged output,
    flagged in :attr:`MergeResult.conflicts`).
    """
    base = list(base)
    edits: list[tuple[Difference, int]] = (
        [(diff, 0) for diff in diff_sequences(base, list(ours))]
        + [(diff, 1) for diff in diff_sequences(base, list(theirs))]
    )
    edits.sort(key=lambda pair: (pair[0].position,
                                 pair[0].position + pair[0].old_length,
                                 pair[1]))
    merged: list = []
    conflicts: list[tuple] = []
    cursor = 0
    position = 0
    while position < len(edits):
        first, __ = edits[position]
        lo = first.position
        hi = max(lo, lo + first.old_length)
        cluster = [edits[position]]
        position += 1
        while position < len(edits):
            diff, side = edits[position]
            touches = diff.position < hi or (diff.position == hi == lo)
            if not touches:
                break
            cluster.append(edits[position])
            hi = max(hi, diff.position + diff.old_length)
            position += 1
        merged.extend(base[cursor:lo])
        chunk = base[lo:hi]
        sides = {side for __, side in cluster}
        ours_chunk = _apply_cluster(
            chunk, [diff for diff, side in cluster if side == 0], lo)
        theirs_chunk = _apply_cluster(
            chunk, [diff for diff, side in cluster if side == 1], lo)
        if sides == {0}:
            merged.extend(ours_chunk)
        elif sides == {1}:
            merged.extend(theirs_chunk)
        elif ours_chunk == theirs_chunk:
            merged.extend(ours_chunk)
        else:
            conflicts.append(
                (tuple(chunk), tuple(ours_chunk), tuple(theirs_chunk)))
            merged.extend(ours_chunk)
        cursor = hi
    merged.extend(base[cursor:])
    return MergeResult(tuple(merged), tuple(conflicts))


def merge3_bytes(base: bytes, ours: bytes, theirs: bytes) -> MergeResult:
    """Three-way merge of byte contents, tokenized like :func:`diff_bytes`."""
    if b"\n" in base or b"\n" in ours or b"\n" in theirs:
        tokenize = lambda data: data.splitlines(keepends=True)  # noqa: E731
    else:
        tokenize = lambda data: _split_tokens(data)[0]  # noqa: E731
    return merge3(tokenize(base), tokenize(ours), tokenize(theirs))
