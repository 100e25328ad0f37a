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
from typing import Hashable, Iterable, Sequence

__all__ = [
    "DiffKind",
    "Difference",
    "diff_sequences",
    "diff_lines",
    "diff_bytes",
    "apply_differences",
    "apply_differences_bytes",
    "apply_scripts_bytes",
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


def _line_mode(bodies: Iterable[bytes],
               script: Sequence[Difference] = ()) -> bool:
    """The tokenization rule: lines when a newline occurs anywhere in
    one diff, apply or merge — in a body, or in a token of the script
    being applied — so both sides of a script agree on how the bytes
    were cut.  Plain loops: every check-in asks, and a walk asks once
    per delta."""
    for diff in script:
        for token in diff.old:
            if b"\n" in token:
                return True
        for token in diff.new:
            if b"\n" in token:
                return True
    for body in bodies:
        if b"\n" in body:
            return True
    return False


def _tokenize(data: bytes, lines: bool) -> list[bytes]:
    """Line tokens (line break kept on each, as ``splitlines`` cuts them)
    or :data:`_BINARY_CHUNK`-byte chunks; joining them gives ``data``."""
    if lines:
        return data.splitlines(keepends=True)
    return [
        data[i:i + _BINARY_CHUNK] for i in range(0, len(data), _BINARY_CHUNK)
    ]


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
    if _line_mode((old, new)):
        return diff_lines(old, new)
    return diff_sequences(_tokenize(old, False), _tokenize(new, False))


def _splice(tokens: list, script: Sequence[Difference]) -> None:
    """Apply ``script`` to ``tokens`` in place.

    Edits are spliced last to first, so each position still indexes the
    unedited tokens.  Raises :class:`ValueError` if the script does not
    match (overlapping edits, a position past the end, or removed tokens
    that are not there) — a corrupted delta chain must fail loudly, never
    produce silently wrong contents.  On error ``tokens`` may be partly
    edited.
    """
    end = len(tokens)
    for diff in reversed(script):
        position = diff.position
        stop = position + len(diff.old)
        if position < 0 or stop > end:
            raise ValueError(
                f"difference at {position} overlaps the next edit or the "
                f"end of the tokens (at {end})")
        actual = tuple(tokens[position:stop])
        if actual != diff.old:
            raise ValueError(
                f"difference at {position} expected {diff.old!r}, "
                f"found {actual!r}")
        tokens[position:stop] = diff.new
        end = position


def apply_differences(
    old: Sequence[Hashable],
    script: Sequence[Difference],
) -> list:
    """Apply a difference script to ``old``, returning the new token list.

    Raises :class:`ValueError` if the script does not match ``old`` (see
    :func:`_splice`).
    """
    tokens = list(old)
    _splice(tokens, script)
    return tokens


def apply_scripts_bytes(
    data: bytes,
    scripts: Iterable[Sequence[Difference]],
) -> bytes:
    """Apply byte-level scripts one after another, splitting only once.

    Equal to folding :func:`apply_differences_bytes` over ``scripts``.
    Each step picks its tokenization by :func:`_line_mode` over the
    script's tokens and the current contents.  Line steps splice into
    one token list kept across steps, so a walk of K deltas costs one
    split, K splices of the edited lines, and one join.  A chunk step
    joins, applies on 64-byte chunks and joins again; the next line
    step re-splits.

    Scripts from :func:`diff_bytes` hold whole ``splitlines`` tokens, so
    the kept list equals a re-split of the joined bytes at every step.
    A hand-made script whose tokens are cut otherwise can make the walk
    raise, or return other bytes, where the fold would not; delta chains
    therefore check the result against its content hash.
    """
    tokens = None  # the contents as line tokens; ``data`` is stale then
    for script in scripts:
        if _line_mode((data,) if tokens is None else tokens, script):
            if tokens is None:
                tokens = _tokenize(data, True)
            _splice(tokens, script)
        else:
            if tokens is not None:
                data = b"".join(tokens)
                tokens = None
            chunks = _tokenize(data, False)
            _splice(chunks, script)
            data = b"".join(chunks)
    return data if tokens is None else b"".join(tokens)


def apply_differences_bytes(old: bytes, script: Sequence[Difference]) -> bytes:
    """Apply a byte-level script produced by :func:`diff_bytes`."""
    return apply_scripts_bytes(old, (script,))


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
    lines = _line_mode((base, ours, theirs))
    return merge3(_tokenize(base, lines), _tokenize(ours, lines),
                  _tokenize(theirs, lines))
