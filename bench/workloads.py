"""The four workloads: initial graphs, operation scripts, expected answers.

Everything here is a pure function of ``(workload, seed, seconds)``.  A
:class:`Spec` describes the graph the launcher builds before the server
starts; :func:`build` continues from it and produces the operation
script the driver sends, each operation carrying the answer the server
must give.  The answers come from :class:`Model`, a dict-and-list
re-implementation of the few Appendix semantics the script relies on
(version lists, attribute predicates, offset-ordered depth-first
traversal, adjacency).  The server never sees the seed — only the
generated inputs.

Scripts are *fixed work*: ``seconds`` selects how many operations are
generated (the count that takes about that long at reference speed, see
``SIZES``), never how long the driver keeps going.  History depth, log
length and cache state at every operation are therefore the same run to
run, which is what lets two runs of the same code agree.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass

__all__ = ["WORKLOADS", "SIZES", "Model", "Spec", "Script", "build",
           "build_spec", "pred_text", "pred_match", "user_bytes", "warmup"]

WORKLOADS = ("edit-session", "browse-history", "checkin-recover",
             "collab-fanout")

#: Share of the operations sent that run untimed before measurement.
WARMUP_SHARE = 0.05

#: Commits per checkpoint cycle in the closing phase, and cycles.
BURST_COMMITS = 200
CHECKPOINT_CYCLES = 5
#: Nodes read back after recovery beyond those the suffix touched.
VERIFY_SAMPLE = 200


@dataclass(frozen=True)
class Size:
    """Sizing of one workload."""

    #: Script operations per ``--seconds`` second: about what the
    #: server does at reference speed (``collab-fanout``, whose closing
    #: phase is the longest, gets a tenth less).
    ops_per_second: int
    #: Commits left un-checkpointed before the kill.
    suffix: int
    cache_bytes: int


SIZES = {
    "edit-session": Size(ops_per_second=1450, suffix=600,
                         cache_bytes=64 << 20),
    "browse-history": Size(ops_per_second=1000, suffix=600,
                           cache_bytes=1 << 20),
    "checkin-recover": Size(ops_per_second=1400, suffix=400,
                            cache_bytes=16 << 20),
    "collab-fanout": Size(ops_per_second=800, suffix=800,
                          cache_bytes=16 << 20),
}

_WORDS = (
    "hypertext node link version attribute demon graph browser query "
    "design layout compiler module procedure document annotation memex "
    "storage transaction server context merge history delta archive "
    "netlist schematic placement routing timing simulation testbench"
).split()


# ----------------------------------------------------------------------
# predicates: one structure, rendered for the wire and evaluated here

def pred_text(pred) -> str:
    """The predicate-language text of a predicate tuple."""
    tag = pred[0]
    if tag == "eq":
        return f"{pred[1]} = {pred[2]}"
    if tag == "range":
        return f"({pred[1]} >= {pred[2]} and {pred[1]} <= {pred[3]})"
    if tag == "exists":
        return f"exists {pred[1]}"
    if tag in ("and", "or"):
        return "(" + f" {tag} ".join(pred_text(p) for p in pred[1:]) + ")"
    raise ValueError(f"unknown predicate tag {tag!r}")


def pred_match(pred, attrs: dict) -> bool:
    """Appendix semantics: a comparison on an absent attribute is false;
    ordering compares numerically when both sides are numbers."""
    tag = pred[0]
    if tag == "eq":
        return attrs.get(pred[1]) == pred[2]
    if tag == "range":
        value = attrs.get(pred[1])
        return value is not None and pred[2] <= int(value) <= pred[3]
    if tag == "exists":
        return pred[1] in attrs
    if tag == "and":
        return all(pred_match(p, attrs) for p in pred[1:])
    if tag == "or":
        return any(pred_match(p, attrs) for p in pred[1:])
    raise ValueError(f"unknown predicate tag {tag!r}")


# ----------------------------------------------------------------------
# the reference model

class Model:
    """What the graph must contain, kept in plain dicts and lists.

    Nodes and links are numbered by *slot* in creation order; the
    driver maps slots to the indexes the server handed out.
    """

    def __init__(self) -> None:
        #: slot -> major versions, oldest first; [0] is the empty
        #: "created" version every node starts with.
        self.versions: list[list[bytes]] = []
        self.attrs: list[dict[str, str]] = []
        #: slot -> [(offset, link slot, to slot)], kept sorted: the
        #: order linearizeGraph follows out-links in.
        self.out: list[list[tuple[int, int, int]]] = []
        self.into: list[list[int]] = []
        self.links: list[tuple[int, int]] = []
        #: attribute name -> value -> node slots (a set of ints iterates
        #: in an order that does not depend on the hash seed).
        self.by_value: dict[str, dict[str, set[int]]] = {}

    # -- mutations -----------------------------------------------------

    def add_node(self) -> int:
        self.versions.append([b""])
        self.attrs.append({})
        self.out.append([])
        self.into.append([])
        return len(self.versions) - 1

    def check_in(self, slot: int, contents: bytes) -> None:
        self.versions[slot].append(contents)

    def set_attr(self, slot: int, name: str, value: str) -> None:
        values = self.by_value.setdefault(name, {})
        old = self.attrs[slot].get(name)
        if old is not None:
            values[old].discard(slot)
        self.attrs[slot][name] = value
        values.setdefault(value, set()).add(slot)

    def add_link(self, source: int, target: int, offset: int = 0) -> int:
        link = len(self.links)
        self.links.append((source, target))
        runs = self.out[source]
        entry = (offset, link, target)
        runs.insert(bisect_left(runs, entry), entry)
        self.into[target].append(link)
        return link

    # -- reads ---------------------------------------------------------

    def current(self, slot: int) -> bytes:
        return self.versions[slot][-1]

    def select(self, pred) -> set[int]:
        """Node slots satisfying ``pred``."""
        tag = pred[0]
        if tag == "eq":
            return set(self.by_value.get(pred[1], {}).get(pred[2], ()))
        if tag == "range":
            found: set[int] = set()
            for value, slots in self.by_value.get(pred[1], {}).items():
                if pred[2] <= int(value) <= pred[3]:
                    found |= slots
            return found
        if tag == "exists":
            found = set()
            for slots in self.by_value.get(pred[1], {}).values():
                found |= slots
            return found
        if tag == "and":
            found = self.select(pred[1])
            for operand in pred[2:]:
                found &= self.select(operand)
            return found
        if tag == "or":
            found = set()
            for operand in pred[1:]:
                found |= self.select(operand)
            return found
        raise ValueError(f"unknown predicate tag {tag!r}")

    def query(self, pred) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """getGraphQuery: matching nodes and the links among them."""
        matched = self.select(pred)
        links = sorted(link for slot in matched
                       for __, link, target in self.out[slot]
                       if target in matched)
        return tuple(sorted(matched)), tuple(links)

    def linearize(self, start: int, pred=None) -> tuple[int, ...]:
        """linearizeGraph: depth-first, out-links by (offset, index)."""
        def admitted(slot: int) -> bool:
            return pred is None or pred_match(pred, self.attrs[slot])

        if not admitted(start):
            return ()
        order = [start]
        visited = {start}
        stack = [iter(self.out[start])]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                continue
            target = step[2]
            if target in visited or not admitted(target):
                continue
            visited.add(target)
            order.append(target)
            stack.append(iter(self.out[target]))
        return tuple(order)

    def links_from(self, slot: int) -> tuple[int, ...]:
        return tuple(sorted(link for __, link, ___ in self.out[slot]))

    def links_to(self, slot: int) -> tuple[int, ...]:
        return tuple(self.into[slot])


# ----------------------------------------------------------------------
# specs and scripts

@dataclass
class Spec:
    """The graph the launcher builds before the server starts."""

    attributes: tuple[str, ...]
    #: The model after the initial build (the launcher replays
    #: ``model.versions``/``attrs``/``links`` through the local HAM API).
    model: Model
    #: Attachment offset per link slot, parallel to ``model.links``.
    offsets: list[int]
    #: (connection, event kinds or None, predicate tuple or None).
    subscriptions: tuple[tuple[int, tuple[str, ...] | None, tuple | None],
                         ...]
    replica: bool


def warmup(count: int) -> int:
    """How many of the first ``count`` operations run untimed."""
    return int(count * WARMUP_SHARE)


def user_bytes(op: tuple) -> int:
    """Bytes of contents an operation checks in."""
    kind = op[0]
    if kind in ("checkin", "edit"):
        return len(op[3])
    if kind == "annotate":
        return len(op[2])
    if kind == "pipetxn":
        return sum(len(contents) for __, contents in op[1])
    return 0


@dataclass
class Script:
    """What the driver sends, and what must come back.

    Every expected answer depends only on the operations before it, so
    any prefix of ``ops`` followed by the closing phase is a script too
    (the traced pass runs the first quarter).
    """

    ops: list[tuple]
    #: CHECKPOINT_CYCLES bursts of (slot, new contents, feeds).
    bursts: list[list[tuple]]
    #: The un-checkpointed suffix, in pipelined batches of distinct slots.
    suffix: list[list[tuple]]
    #: (slot, expected contents) read back after recovery: every node
    #: the closing phase wrote (whatever prefix of ``ops`` ran) ...
    verify: list[tuple[int, bytes]]
    #: ... and a sample of the others (after all of ``ops`` only).
    verify_rest: list[tuple[int, bytes]]
    #: (slot, contents) of one node as first built: the set-up's probe.
    probe: tuple[int, bytes]

    def timed_bytes(self, count: int) -> int:
        """Contents checked in by the timed part of ``ops[:count]``."""
        return sum(user_bytes(op) for op in self.ops[warmup(count):count])

    def closing_bytes(self) -> int:
        return sum(len(contents) for batch in self.bursts + self.suffix
                   for __, contents, ___ in batch)

    def digest(self) -> str:
        """Changes when any operation or expected answer changes."""
        state = hashlib.blake2b(digest_size=16)
        for part in (self.ops, self.bursts, self.suffix, self.verify,
                     self.verify_rest, self.probe):
            state.update(repr(part).encode())
        return state.hexdigest()


class _Text:
    """Seeded line and body generation.

    Every line is ``LINE_BYTES`` long (an edited one 13 more), whatever
    the seed: bodies of one line count then weigh the same in every
    run, and the bytes-per-byte figures compare across seeds.
    """

    LINE_BYTES = 50

    def __init__(self, rng: random.Random):
        self.rng = rng
        width = self.LINE_BYTES - 2
        self.pool = [
            (" ".join(rng.choice(_WORDS) for __ in range(8))[:width]
             .ljust(width) + ".\n").encode()
            for __ in range(2048)]
        self.serial = 0

    def lines(self, count: int) -> list[bytes]:
        return self.rng.choices(self.pool, k=count)

    def fresh_line(self) -> bytes:
        """A line no body contains yet."""
        self.serial += 1
        return b"edit %07d: " % self.serial + self.rng.choice(self.pool)


def _zipf(count: int, exponent: float = 1.0) -> list[float]:
    total = 0.0
    cumulative = []
    for rank in range(count):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    return cumulative


def _dealt(rng: random.Random, cumulative: list[float],
           size: int) -> list[tuple[int, float]]:
    """``size`` draws from a ranked population, dealt instead of drawn:
    rank ``r`` comes up as often as its weight says (to within one),
    whatever the seed; only the order is random.  Each draw also carries
    a share in 0..1, spread evenly over the draws of its rank."""
    ranks = [bisect_left(cumulative, (n + 0.5) / size * cumulative[-1])
             for n in range(size)]
    times: dict[int, int] = {}
    for rank in ranks:
        times[rank] = times.get(rank, 0) + 1
    pairs = []
    for rank, count in times.items():
        pairs += [(rank, (n + 0.5) / count) for n in range(count)]
    rng.shuffle(pairs)
    return pairs


class _Builder:
    """Shared machinery of the four generators."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.text = _Text(self.rng)
        self.model = Model()
        self.offsets: list[int] = []
        #: slot -> current contents as a list of lines.
        self.lines: dict[int, list[bytes]] = {}
        self.subscriptions: tuple = ((0, None, None),)
        #: Share of a body (from its head) that edits fall in.
        self.editable = 1.0

    # -- graph construction ---------------------------------------------

    def node(self, lines: list[bytes], **attrs: str) -> int:
        slot = self.model.add_node()
        self.lines[slot] = lines
        self.model.check_in(slot, b"".join(lines))
        for name, value in attrs.items():
            self.model.set_attr(slot, name, value)
        return slot

    def link(self, source: int, target: int, offset: int = 0) -> int:
        self.offsets.append(offset)
        return self.model.add_link(source, target, offset)

    def edit(self, slot: int, share: float = 0.0) -> bytes:
        """Replace one line (or ``share`` of the lines); returns the
        new contents and records them in the model."""
        lines = self.lines[slot]
        count = max(1, int(len(lines) * share))
        editable = range(max(count, int(len(lines) * self.editable)))
        for position in self.rng.sample(editable, count):
            lines[position] = self.text.fresh_line()
        contents = b"".join(lines)
        self.model.check_in(slot, contents)
        return contents

    # -- feeds -----------------------------------------------------------

    def feeds(self, kinds: tuple[str, ...], slot: int | None,
              ) -> tuple[tuple[int, int], ...]:
        """(subscription, events) for every subscription that must
        deliver a commit firing ``kinds`` on node ``slot``."""
        matched = []
        for number, (__, events, pred) in enumerate(self.subscriptions):
            if pred is not None and (
                    slot is None
                    or not pred_match(pred, self.model.attrs[slot])):
                continue
            carried = sum(1 for kind in kinds
                          if events is None or kind in events)
            if carried:
                matched.append((number, carried))
        return tuple(matched)

    # -- closing phase ---------------------------------------------------

    def closing(self, eligible: list[int], suffix: int, share: float = 0.0):
        """Checkpoint bursts, the un-checkpointed suffix, and the nodes
        to read back after recovery: every one the closing phase wrote,
        and a sample of the rest."""
        touched: dict[int, None] = {}

        def batch(count: int) -> list[tuple]:
            slots = self.rng.sample(eligible, count)
            touched.update((slot, None) for slot in slots)
            return [(slot, self.edit(slot, share),
                     self.feeds(("modifyNode",), slot)) for slot in slots]

        width = min(BURST_COMMITS, len(eligible))
        bursts = [batch(width) for __ in range(CHECKPOINT_CYCLES)]
        batches = []
        left = suffix
        while left > 0:
            batches.append(batch(min(width, left)))
            left -= len(batches[-1])
        population = len(self.model.versions)
        rest = [slot for slot in self.rng.sample(
                    range(population), min(VERIFY_SAMPLE, population))
                if slot not in touched]
        return (bursts, batches,
                [(slot, self.model.current(slot)) for slot in touched],
                [(slot, self.model.current(slot)) for slot in rest])


def _mix(rng: random.Random, table: list[tuple[str, float]],
         count: int) -> list[str]:
    """``count`` operation kinds in the table's exact proportions, in
    seeded random order; the warm-up and the timed part each get their
    exact share.  Drawing each kind independently would let the number
    of timed check-ins — and with it every bytes-per-byte figure —
    wander by a few percent from seed to seed."""
    def deal(size: int) -> list[str]:
        kinds: list[str] = []
        for name, weight in table:
            kinds += [name] * round(size * weight)
        kinds = kinds[:size] + [table[0][0]] * (size - len(kinds))
        rng.shuffle(kinds)
        return kinds

    head = warmup(count)
    return deal(head) + deal(count - head)


# ----------------------------------------------------------------------
# edit-session

_EDIT_MIX = [("open", 0.55), ("checkin", 0.20), ("query", 0.10),
             ("linearize", 0.05), ("annotate", 0.05), ("addlink", 0.05)]
_KINDS = ("spec", "design", "code", "test", "note")
_STATUS = ("draft", "review", "final")


def _edit_session_graph(b: _Builder, quick: bool) -> dict:
    # The shape of repro.workloads.generator's hierarchical documents
    # (ternary section trees), described here as plain data: that
    # generator writes straight into a HAM and returns node indexes
    # only, and the reference model must know every body, attribute and
    # link without asking the program under test.
    documents = 6 if quick else 24
    per_document = 50
    versions = 6
    rng = b.rng
    members: list[list[int]] = []
    for number in range(documents):
        slots = []
        for position in range(per_document):
            slot = b.node(b.text.lines(30),
                          document=f"doc{number}",
                          kind=rng.choice(_KINDS),
                          status=rng.choice(_STATUS),
                          rev=str(rng.randrange(100)))
            if position:
                parent = slots[(position - 1) // 3]
                b.link(parent, slot, offset=8 * ((position - 1) % 3))
            slots.append(slot)
        members.append(slots)
    for __ in range(versions - 1):
        for slot in range(documents * per_document):
            b.edit(slot)
    return {"members": members,
            "closing": [slot for slots in members for slot in slots]}


def _edit_session_ops(b: _Builder, graph: dict, count: int) -> list[tuple]:
    rng = b.rng
    model = b.model
    members = graph["members"]
    ops: list[tuple] = []
    for kind in _mix(rng, _EDIT_MIX, count):
        document = rng.randrange(len(members))
        slot = rng.choice(members[document])
        if kind == "open":
            history = model.versions[slot]
            if rng.random() < 0.15:
                ordinal = rng.randrange(1, len(history))
                ops.append(("open", slot, ordinal, history[ordinal]))
            else:
                ops.append(("open", slot, -1, history[-1]))
        elif kind == "checkin":
            old = model.current(slot)
            ops.append(("checkin", slot, old, b.edit(slot),
                        b.feeds(("modifyNode",), slot)))
        elif kind == "query":
            if rng.random() < 0.5:
                pred = ("eq", "document", f"doc{document}")
            else:
                pred = ("and", ("eq", "kind", rng.choice(_KINDS)),
                        ("eq", "status", rng.choice(_STATUS)),
                        ("range", "rev", 0, 49))
            ops.append(("query", pred_text(pred)) + model.query(pred))
        elif kind == "linearize":
            root = members[document][0]
            ops.append(("linearize", root, None, model.linearize(root)))
        elif kind == "annotate":
            body = b"".join(b.text.lines(2))
            note = model.add_node()
            model.check_in(note, body)
            b.lines[note] = [body]
            b.link(slot, note)
            ops.append(("annotate", slot, body,
                        b.feeds(("addNode", "modifyNode", "addLink"),
                                None)))
        else:
            target = rng.choice(members[document])
            b.link(slot, target)
            ops.append(("addlink", slot, target,
                        b.feeds(("addLink",), None)))
    return ops


# ----------------------------------------------------------------------
# browse-history

#: As-of reads that miss the cache are kept a clear majority of all
#: openNodes: with them near one half, ``open_p50_ms`` sat on the edge
#: between hits and misses and moved 8 % between identical runs.
_BROWSE_MIX = [("asof", 0.41), ("open", 0.05), ("query", 0.19),
               ("links", 0.10), ("linearize", 0.07), ("diff", 0.04),
               ("versions", 0.04), ("checkin", 0.10)]
_TEAMS = tuple(f"team{n}" for n in range(24))
_CLASSES = tuple(f"class{n}" for n in range(8))


def _browse_history_graph(b: _Builder, quick: bool) -> dict:
    nodes = 400 if quick else 2000
    links = 3 * nodes
    history_nodes = 20 if quick else 60
    depth = 12 if quick else 30
    rng = b.rng
    for __ in range(nodes):
        b.node(b.text.lines(2), team=rng.choice(_TEAMS),
               cls=rng.choice(_CLASSES), status=rng.choice(_STATUS),
               rev=str(rng.randrange(100)))
    # Skewed degree: link sources are Zipf-chosen, so a few hub nodes
    # carry adjacency runs hundreds long while most carry one or two.
    popularity = _zipf(nodes)
    order = list(range(nodes))
    rng.shuffle(order)
    for __ in range(links):
        source = order[rng.choices(range(nodes),
                                   cum_weights=popularity)[0]]
        b.link(source, rng.randrange(nodes), offset=rng.randrange(40))
    # The history nodes are the least linked ones: openNode returns a
    # node's link attachments too, and a hub that happened to be a
    # history node (in some seeds, not in others) made every read of it
    # several times as expensive.
    history = order[-history_nodes:]
    for slot in history:
        b.lines[slot] = b.text.lines(88)       # ~4 KB
        b.model.check_in(slot, b"".join(b.lines[slot]))
    for __ in range(depth - 2):
        for slot in history:
            b.edit(slot, share=0.05)
    # The closing phase edits only the small nodes: how many 4 KB
    # history nodes a burst happened to draw would otherwise move the
    # bytes checked in.
    small = set(range(nodes)).difference(history)
    return {"nodes": nodes, "order": order, "popularity": popularity,
            "history": history, "history_rank": _zipf(len(history), 0.5),
            "closing": sorted(small)}


def _browse_history_ops(b: _Builder, graph: dict, count: int) -> list[tuple]:
    rng = b.rng
    model = b.model
    nodes, order = graph["nodes"], graph["order"]
    history = graph["history"]
    ops: list[tuple] = []

    def history_node() -> int:
        return history[rng.choices(range(len(history)),
                                   cum_weights=graph["history_rank"])[0]]

    kinds = _mix(rng, _BROWSE_MIX, count)
    # Which node a read, a traversal or a check-in goes to (and how far
    # back an as-of read reaches) is dealt like the kinds: every seed
    # asks for the same multiset, in another order.  Drawn freely, the
    # top hub was traversed 91 +- 9 times, history chains grew unevenly
    # and the cache's hit rate wandered: ``ops_per_s`` moved 8 % and
    # ``open_p50_ms`` 5 % from seed to seed (same seed: 1.5 %).
    reads = _dealt(rng, graph["history_rank"], kinds.count("asof"))
    writes = _dealt(rng, graph["history_rank"], kinds.count("checkin"))
    popular = {kind: _dealt(rng, graph["popularity"], kinds.count(kind))
               for kind in ("open", "links", "linearize")}

    for kind in kinds:
        if kind == "asof":
            rank, back = reads.pop()
            slot = history[rank]
            versions = model.versions[slot]
            ordinal = 1 + int(back * (len(versions) - 1))
            ops.append(("open", slot, ordinal, versions[ordinal]))
        elif kind == "open":
            slot = order[popular[kind].pop()[0]]
            ops.append(("open", slot, -1, model.current(slot)))
        elif kind == "query":
            low = rng.randrange(90)
            shape = rng.randrange(3)
            if shape == 0:
                pred = ("and", ("eq", "cls", rng.choice(_CLASSES)),
                        ("range", "rev", low, low + 9))
            elif shape == 1:
                pred = ("and",
                        ("or", ("eq", "team", rng.choice(_TEAMS)),
                         ("eq", "team", rng.choice(_TEAMS))),
                        ("eq", "status", rng.choice(_STATUS)),
                        ("range", "rev", low, low + 29))
            else:
                pred = ("or",
                        ("and", ("eq", "team", rng.choice(_TEAMS)),
                         ("eq", "cls", rng.choice(_CLASSES))),
                        ("and", ("eq", "status", rng.choice(_STATUS)),
                         ("range", "rev", low, low + 1)))
            ops.append(("query", pred_text(pred)) + model.query(pred))
        elif kind == "links":
            slot = order[popular[kind].pop()[0]]
            if rng.random() < 0.5:
                ops.append(("links", "from", slot, model.links_from(slot)))
            else:
                ops.append(("links", "to", slot, model.links_to(slot)))
        elif kind == "linearize":
            start = order[popular[kind].pop()[0]]
            # The start's own team only (one node in 24).  A predicate
            # that also admitted a tenth of all nodes let the walk
            # spread from hub to hub in some graphs and not in others,
            # and the time spent traversing differed by 40 % between
            # seeds.
            pred = ("and", ("eq", "team", model.attrs[start]["team"]),
                    ("range", "rev", 0, 99))
            ops.append(("linearize", start, pred_text(pred),
                        model.linearize(start, pred)))
        elif kind == "diff":
            slot = history_node()
            versions = model.versions[slot]
            first = rng.randrange(1, len(versions))
            second = rng.randrange(1, len(versions))
            ops.append(("diff", slot, first, second,
                        versions[first], versions[second]))
        elif kind == "versions":
            slot = history_node()
            ops.append(("versions", slot, len(model.versions[slot])))
        else:
            slot = history[writes.pop()[0]]
            old = model.current(slot)
            ops.append(("checkin", slot, old, b.edit(slot),
                        b.feeds(("modifyNode",), slot)))
    return ops


# ----------------------------------------------------------------------
# checkin-recover

#: Check-ins per pipelined transaction, and the serial reads that follow
#: it: two verifying openNodes (2 of 10 content operations: 20 %) and one
#: look-up of a file's node by name.
TXN_CHECKINS = 8
TXN_VERIFIES = 2
FAMILY = 8
#: Share of a file's lines one check-in edits (1-3 %), in turn.
_EDIT_SHARES = (0.01, 0.02, 0.03)


def _checkin_recover_graph(b: _Builder, quick: bool) -> dict:
    families = 5 if quick else 25
    rng = b.rng
    # Work on a design file keeps returning to the same few cells.  It
    # also keeps siblings alike however long the script runs: were the
    # edits spread over the whole file, a late re-submit of a sibling's
    # bytes would differ from the file's own in most lines, and the line
    # diff is quadratic in that.
    b.editable = 0.06
    # 8-32 KB, evenly spread and then shuffled: every seed stores the
    # same number of bytes, so sizes and memory compare across seeds.
    sizes = [170 + (680 - 170) * n // (families - 1)
             for n in range(families)]
    rng.shuffle(sizes)
    for family in range(families):
        # A family is one cell design instantiated FAMILY times: the
        # members share most of their lines, as copies of a template do.
        base = b.text.lines(sizes[family])
        for member in range(FAMILY):
            lines = list(base)
            for position in rng.sample(range(len(lines)),
                                       max(1, len(lines) // 50)):
                lines[position] = b.text.fresh_line()
            b.node(lines, file=f"cell{family}x{member}.lay")
    files = families * FAMILY
    return {"files": files, "closing": list(range(files)),
            "closing_share": 0.02}


def _checkin_recover_ops(b: _Builder, graph: dict, count: int) -> list[tuple]:
    rng = b.rng
    model = b.model
    files = graph["files"]
    ops: list[tuple] = []
    units = count // (TXN_CHECKINS + TXN_VERIFIES + 1)
    kinds = _mix(rng, [("edit", 0.90), ("copy", 0.10)],
                 units * TXN_CHECKINS)
    # Files take turns in a seeded order and the edit sizes cycle, so
    # every seed checks in the same number of bytes.
    order = list(range(files))
    rng.shuffle(order)
    for unit in range(units):
        first = unit * TXN_CHECKINS
        slots = [order[(first + n) % files] for n in range(TXN_CHECKINS)]
        edits = []
        for number, slot in enumerate(slots, first):
            if kinds[number] == "copy":
                # A sibling's contents, byte for byte: the store already
                # holds them under another node, and the catalog must
                # answer the check-in without storing them twice.
                eldest = slot - slot % FAMILY
                donor = rng.choice([s for s in range(eldest, eldest + FAMILY)
                                    if s != slot])
                contents = model.current(donor)
                b.lines[slot] = list(b.lines[donor])
                model.check_in(slot, contents)
            else:
                contents = b.edit(slot, share=_EDIT_SHARES[number % 3])
            edits.append((slot, contents))
        ops.append(("pipetxn", tuple(edits),
                    b.feeds(("modifyNode",) * TXN_CHECKINS, slots[0])))
        for slot in rng.sample(slots, TXN_VERIFIES):
            ops.append(("open", slot, -1, model.current(slot)))
        pred = ("eq", "file", model.attrs[rng.choice(slots)]["file"])
        ops.append(("query", pred_text(pred)) + model.query(pred))
    return ops


# ----------------------------------------------------------------------
# collab-fanout

_COLLAB_MIX = [("edit", 0.25), ("setattr", 0.25), ("open", 0.30),
               ("query", 0.20)]
_HOT_TEAMS = ("red", "green", "blue", "black")
HOT_NODES = 64


def _collab_fanout_graph(b: _Builder, quick: bool) -> dict:
    # The cold nodes and their three versions are ballast: they make a
    # checkpoint and a recovery long enough to time.  No more of them:
    # every checkpoint makes the replica fetch the new snapshot, and the
    # semi-synchronous commits behind it wait about six times as long
    # as the checkpoint took.
    cold = 100 if quick else 900
    rng = b.rng
    for number in range(HOT_NODES):
        b.node(b.text.lines(8), team=_HOT_TEAMS[number % 4],
               status=rng.choice(_STATUS), kind="hot")
    for __ in range(cold):
        b.node(b.text.lines(8), team=rng.choice(_HOT_TEAMS),
               status=rng.choice(_STATUS), kind=rng.choice(_KINDS))
    for slot in range(1, HOT_NODES + cold):
        b.link(rng.randrange(slot), slot)
    for __ in range(2):
        for slot in range(HOT_NODES, HOT_NODES + cold):
            b.edit(slot)
    modify, setattr_ = ("modifyNode",), ("setAttribute",)
    b.subscriptions = (
        (0, None, None),
        (0, modify, None),
        (0, setattr_, None),
        (0, None, ("eq", "team", "red")),
        (1, None, None),
        (1, modify + ("addLink",), None),
        (1, None, ("eq", "team", "blue")),
        (1, None, ("and", ("eq", "kind", "hot"), ("exists", "status"))),
    )
    return {"closing": list(range(HOT_NODES + cold))}


def _collab_fanout_ops(b: _Builder, graph: dict, count: int) -> list[tuple]:
    rng = b.rng
    model = b.model
    ops: list[tuple] = []
    commits = 0
    for kind in _mix(rng, _COLLAB_MIX, count):
        slot = rng.randrange(HOT_NODES)
        if kind in ("edit", "setattr"):
            writer = commits % 2       # the two writers alternate
            commits += 1
        if kind == "edit":
            ops.append(("edit", writer, slot, b.edit(slot),
                        b.feeds(("modifyNode",), slot)))
        elif kind == "setattr":
            value = rng.choice(_STATUS)
            # The feed's predicate sees the node as of the event, so the
            # new value is set before matching.
            model.set_attr(slot, "status", value)
            ops.append(("setattr", writer, slot, "status", value,
                        b.feeds(("setAttribute",), slot)))
        elif kind == "open":
            ops.append(("open", slot, -1, model.current(slot)))
        else:
            pred = ("and", ("eq", "team", rng.choice(_HOT_TEAMS)),
                    ("eq", "status", rng.choice(_STATUS)),
                    ("eq", "kind", "hot"))
            ops.append(("query", pred_text(pred)) + model.query(pred))
    return ops


# ----------------------------------------------------------------------

#: workload -> (graph builder, script generator, attribute names).
_GENERATORS = {
    "edit-session": (_edit_session_graph, _edit_session_ops,
                     ("document", "kind", "status", "rev")),
    "browse-history": (_browse_history_graph, _browse_history_ops,
                       ("team", "cls", "status", "rev")),
    "checkin-recover": (_checkin_recover_graph, _checkin_recover_ops,
                        ("file",)),
    "collab-fanout": (_collab_fanout_graph, _collab_fanout_ops,
                      ("team", "status", "kind")),
}


def _graph(workload: str, seed: int, quick: bool):
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    builder = _Builder(workload, seed)
    make, __, attributes = _GENERATORS[workload]
    graph = make(builder, quick)
    spec = Spec(attributes, builder.model, builder.offsets,
                builder.subscriptions, replica=workload == "collab-fanout")
    return builder, graph, spec


def build_spec(workload: str, seed: int, quick: bool = False) -> Spec:
    """The initial graph alone (what the launcher needs)."""
    return _graph(workload, seed, quick)[2]


def build(workload: str, seed: int, seconds: float,
          quick: bool = False) -> tuple[Spec, Script]:
    """The initial graph and the script that continues from it.

    The script generator goes on mutating the spec's model, so the spec
    returned here describes the *final* graph; the launcher, which needs
    the initial one, calls :func:`build_spec`.
    """
    builder, graph, spec = _graph(workload, seed, quick)
    probe = (0, builder.model.current(0))
    size = SIZES[workload]
    count = int(size.ops_per_second * seconds)
    suffix = size.suffix
    if quick:
        count //= 20
        suffix //= 20
    ops = _GENERATORS[workload][1](builder, graph, max(count, 40))
    bursts, batches, verify, rest = builder.closing(
        graph["closing"], suffix, graph.get("closing_share", 0.0))
    return spec, Script(ops, bursts, batches, verify, rest, probe)
