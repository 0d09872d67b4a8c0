"""Structure graphs: data model, validation, bisimulation and translation.

A structure graph is a table of nodes: node ``u`` is position ``u`` of the
columns ``deco`` (an operator symbol and at most one rank), ``succ`` (its
successor positions, sorted), ``labels`` (a human-readable term) and
``ids`` (its name in the text formats), and the nodes are stored in
increasing id order.  Graphs translatable back into equation systems
satisfy five structural constraints; see ``is_bessy``.
"""

from __future__ import annotations

import enum
import re
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import BesError, NotBessyError
from .parse import _require_identifiers
from .syntax import AndSet, EquationSystem, OrSet, is_closed, is_srf, occ, ranks


class Op(enum.Enum):
    AND = "and"
    OR = "or"
    TOP = "top"
    BOT = "bot"
    NONE = "none"

    # members are singletons that compare by identity: hash in C, not by name
    __hash__ = object.__hash__


AND, OR, TOP, BOT, NONE = Op.AND, Op.OR, Op.TOP, Op.BOT, Op.NONE  # bound once, as syntax.MU
_OP_SYMBOL = {AND: "▲", OR: "▽", TOP: "⊤", BOT: "⊥", NONE: ""}


class Decoration(NamedTuple):  # a tuple: hashed and compared in C
    op: Op = NONE
    rank: Optional[int] = None


@dataclass(frozen=True)
class StructureGraph:
    init: int
    deco: list[Decoration]
    succ: list[list[int]]  # sorted successor positions
    labels: list[str]
    ids: Sequence[str]  # increasing

    def __post_init__(self):
        n = len(self.ids)
        if not len(self.deco) == len(self.succ) == len(self.labels) == n:
            raise ValueError("the columns deco, succ, labels and ids differ in length")
        # generated ids increase by construction; any other list is checked
        if self.ids.__class__ is not _Ids and any(
            a >= b for a, b in zip(self.ids, self.ids[1:])
        ):
            raise ValueError("node ids are not unique and increasing")
        if not 0 <= self.init < n:
            raise ValueError(f"initial node {self.init} is not a node")
        if any(v < 0 or v >= n for vs in self.succ for v in vs):
            raise ValueError("a successor is not a node")

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, vs in enumerate(self.succ) for v in vs]


class _Ids(Sequence):
    """``prefix`` and 0 … n - 1, zero-padded to one width to sort as numbers.

    A list of ids formatted when first read: ``len`` needs none, so a graph
    whose ids are never printed never formats them.  It compares equal to
    the list of the same ids.
    """

    __slots__ = ("prefix", "n", "_list")

    def __init__(self, prefix: str, n: int):
        self.prefix, self.n, self._list = prefix, n, None

    def _formatted(self) -> list[str]:
        if self._list is None:
            width = len(str(max(self.n - 1, 0)))
            self._list = [self.prefix + str(j).zfill(width) for j in range(self.n)]
        return self._list

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j):
        return self._formatted()[j]

    def __iter__(self):
        return iter(self._formatted())

    def __eq__(self, other):
        if other.__class__ is _Ids:
            other = other._formatted()
        return self._formatted() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._formatted())


# ---------------------------------------------------------------------------
# BESsy validation


def _unranked_order(g: StructureGraph) -> tuple[list[int], list[int]]:
    """The unranked nodes, each after its unranked successors, and a cycle.

    An iterative depth-first search over the unranked nodes, roots and
    successors in order.  The cycle is the path of the first cycle of
    unranked nodes the search meets, or empty if there is none; the order
    then stops where the search did.
    """
    deco, succ = g.deco, g.succ
    done: dict[int, None] = {}  # the order so far, as an ordered set
    for root, d in enumerate(deco):
        if d.rank is not None or root in done:
            continue
        path = {root: None}  # the search path, as an ordered set
        todo = [iter(succ[root])]
        while todo:
            for v in todo[-1]:
                if deco[v].rank is None and v not in done:
                    break
            else:
                todo.pop()
                done[path.popitem()[0]] = None
                continue
            if v in path:
                cycle = list(path)
                return list(done), cycle[cycle.index(v):]
            path[v] = None
            todo.append(iter(succ[v]))
    return list(done), []


def _validate(g: StructureGraph) -> tuple[list[str], list[int]]:
    """The violations of the five constraints and the order of
    ``_unranked_order``."""
    violations = []
    for d, vs, label in zip(g.deco, g.succ, g.labels):
        if (d.op is TOP or d.op is BOT) and vs:
            violations.append(
                f"constraint 1: constant node {label!r} has a successor"
            )
        decorated = d.op is AND or d.op is OR or d.rank is not None
        if decorated and not vs:
            violations.append(
                f"constraint 2: decorated node {label!r} has no successor"
            )
        if not decorated and vs:
            violations.append(
                f"constraint 2: undecorated node {label!r} has a successor"
            )
        if len(vs) > 1 and d.op is not AND and d.op is not OR:
            violations.append(
                f"constraint 3: node {label!r} has multiple successors "
                f"but no operator symbol"
            )
    all_ranks = sorted({d.rank for d in g.deco if d.rank is not None})
    if all_ranks:
        if all_ranks[0] not in (0, 1):
            violations.append(
                "constraint 4: no node carries rank 0 or 1 "
                f"(minimum rank is {all_ranks[0]})"
            )
        if all_ranks != list(range(all_ranks[0], all_ranks[-1] + 1)):
            violations.append(
                f"constraint 4: ranks {all_ranks} do not form a closed interval"
            )
    elif any(g.succ):
        violations.append("constraint 4: no node carries a rank")
    # constraint 5: the subgraph induced by unranked nodes must be acyclic
    order, cycle = _unranked_order(g)
    if cycle:
        violations.append(
            f"constraint 5: unranked cycle through node {g.labels[cycle[0]]!r}"
        )
    return violations, order


def is_bessy(g: StructureGraph) -> list[str]:
    """Check the five translatability constraints; empty list means BESsy."""
    return _validate(g)[0]


# ---------------------------------------------------------------------------
# translation back into an equation system


# an operand's sort key is its text, but true's and false's keys sort before
# every other text, which starts with "(", "X", "f" or "t"
_CONSTANT = {TOP: ("\0", "true"), BOT: ("\1", "false")}


def _nest(op: Op, vs: list[int], key: list[str], text: list[str], conn: list) -> tuple:
    """The key, text and connective of the terms of nodes ``vs``, each once,
    in key order and nested to the right under ``op``: the text
    ``format_formula`` gives the term.  One term is returned as it is."""
    if len(vs) > 1:
        unique = {key[v]: v for v in vs}
        if len(unique) > 1:
            *vs, last = map(unique.__getitem__, sorted(unique))
            sep, other = (" && ", OR) if op is AND else (" || ", AND)
            # an operand continues the left spine unless it is the other
            # connective; the last one is in parentheses if it is a connective
            parts = [text[v] if conn[v] is not other else "(" + text[v] + ")" for v in vs]
            tail = text[last] if conn[last] is None else "(" + text[last] + ")"
            nested = (sep + "(").join(parts) + sep + tail + ")" * (len(parts) - 1)
            return nested, nested, op
    v = vs[0]  # the operands share one key, and so their text
    return key[v], text[v], conn[v]


def translate(g: StructureGraph) -> tuple[str, str, list[str]]:
    """Translate a BESsy graph into the text of its equation system, as
    ``print_bes`` prints it.

    Returns the text of the initial formula, the system's text and each
    node's variable name, ``X0``, ``X1``, …: ranked nodes by rank, then
    position; other nodes by position.  The equations are the ranked nodes
    in name order.  A ranked node is its variable, an unranked ▲/▽ node
    nests the terms of its successors to the right, in the order of their
    texts with ``true`` and ``false`` first, a constant is itself and any
    other node its variable.
    """
    violations, order = _validate(g)
    if violations:
        raise NotBessyError("; ".join(violations))
    deco, succ = g.deco, g.succ
    rank = [d.rank for d in deco]
    ranked = sorted([u for u, r in enumerate(rank) if r is not None], key=rank.__getitem__)
    rest = [u for u, r in enumerate(rank) if r is None]
    names = [""] * len(g.ids)
    for i, u in enumerate(ranked + rest):
        names[u] = f"X{i}"
    # each node's operand as its sort key, text and connective, composed
    # once from its successors'
    key, text, conn = names[:], names[:], [None] * len(names)
    for u in order:
        op = deco[u].op
        if op is AND or op is OR:
            key[u], text[u], conn[u] = _nest(op, succ[u], key, text, conn)
        elif op is TOP or op is BOT:
            key[u], text[u] = _CONSTANT[op]
    lines = []
    for u in ranked:
        # by constraints 2 and 3, a node without ▲/▽ has one successor,
        # which _nest returns as it is
        rhs = _nest(deco[u].op, succ[u], key, text, conn)[1]
        lines.append(f"{'mu' if rank[u] % 2 == 1 else 'nu'} {names[u]} = {rhs};\n")
    return text[g.init], "".join(lines), names


# ---------------------------------------------------------------------------
# Partition refinement (signature rounds, re-signing only what a split touches)


def _refine(succs: list[list[int]], keys: list) -> list[int]:
    """Coarsest stable refinement of the partition of positions by ``keys``.

    ``succs[i]`` lists the successor positions of position ``i``.  A
    node's signature is its block and the set of its successors' blocks;
    each round regroups the nodes by signature, until no block splits.
    Blocks are numbered by their first member; ``minimize`` relies on it.

    The rounds start from the partition by key, and the first round signs
    every node but the members of blocks of one.  Leaving out the largest
    start block would spare few nodes there (none on the mc systems, where
    every node reaches another block) at the cost of a pass over the
    predecessors of all the others.  Each later round re-signs only the
    predecessors of the parts that the last round split off, leaving out
    the largest part of each split block
    (Hopcroft's "all but the largest" trick, as Paige & Tarjan 1987 and
    Valmari 2009 use it), and leaving out the members of blocks of one,
    which cannot split.  The members of a block that are not re-signed
    shared a signature the round before and reach no part of a split
    block but the one left out, so they still share one and stay together;
    a re-signed member reaches a part they do not, so it never joins them.
    Each round thus gives the partition a round re-signing every node would.

    A node lies in a part of the work at most log2 n times, as such a part
    is at most half of its block, so an edge has its source re-signed at
    most that often.  But a re-signed node reads all of its successors: a
    hub with a successor in every link of a chain is re-signed once per
    link and reads the whole chain each time.
    """
    preds: list[list[int]] = [[] for _ in succs]
    for u, vs in enumerate(succs):
        for v in vs:
            preds[v].append(u)
    number = {key: b for b, key in enumerate(dict.fromkeys(keys))}
    block = list(map(number.__getitem__, keys))
    # members[b] holds the members of block b and may hold nodes that have
    # left it; size[b] counts only the members
    members: list[list[int]] = [[] for _ in number]
    for u, b in enumerate(block):
        members[b].append(u)
    size = list(map(len, members))
    touched: Iterable[int] = range(len(block))  # the first round signs every node
    while touched:
        block_of = block.__getitem__
        groups: defaultdict = defaultdict(list)
        for u in touched:
            if size[block[u]] > 1:
                groups[block[u], frozenset(map(block_of, succs[u]))].append(u)
        parts: dict[int, list[list[int]]] = {}
        for (b, _), us in groups.items():
            parts.setdefault(b, []).append(us)
        work = []
        for b, split in parts.items():
            rest = size[b] - sum(map(len, split))  # members not re-signed
            if not rest:
                if len(split) == 1:
                    continue
                rest = len(split.pop())  # this part keeps the block's number
            size[b] = rest
            big, most = -1, rest  # the largest part's place in work; -1: rest
            for us in split:
                for u in us:
                    block[u] = len(size)
                if len(us) > most:
                    big, most = len(work), len(us)
                work.append(len(size))
                members.append(us)
                size.append(len(us))
            if big >= 0:
                work[big] = b
        touched = set()
        for b in work:
            if len(members[b]) != size[b]:
                members[b] = [v for v in members[b] if block[v] == b]
            for v in members[b]:
                touched.update(preds[v])
    ids = {}
    return [ids.setdefault(b, len(ids)) for b in block]


def minimize(g: StructureGraph) -> tuple[StructureGraph, list[int]]:
    """Quotient under the coarsest decoration-respecting bisimulation.

    Returns the quotient graph and ``block_of``, the block position of each
    node.  Blocks are numbered by their first member, as ``_refine``
    numbers them, so each block carries its first member's decoration and
    label, and block ``b`` is named ``b{b}``.  The same pass checks that
    the block mapping is a functional bisimulation: each later member of a
    block must have its first member's decoration and successor blocks.
    A mismatch raises ``AssertionError`` by hand, so ``python -O`` keeps it.
    """
    block_of = _refine(g.succ, g.deco)
    deco: list[Decoration] = []  # per block, its first member's decoration,
    images: list[set[int]] = []  # the blocks of that member's successors
    labels: list[str] = []  # and its label
    for b, d, vs, label in zip(block_of, g.deco, g.succ, g.labels):
        image = {block_of[v] for v in vs}
        if b == len(deco):
            deco.append(d)
            images.append(image)
            labels.append(label)
        elif deco[b] != d or images[b] != image:
            raise AssertionError("the block mapping must be a functional bisimulation")
    succ = list(map(sorted, images))
    quotient = StructureGraph(block_of[g.init], deco, succ, labels, _Ids("b", len(deco)))
    return quotient, block_of


def bisimilar(g: StructureGraph, h: StructureGraph) -> bool:
    """Whether the initial nodes of two graphs are bisimilar."""
    n = len(g.ids)
    succs = g.succ + [[v + n for v in vs] for vs in h.succ]
    block = _refine(succs, g.deco + h.deco)
    return block[g.init] == block[n + h.init]


# ---------------------------------------------------------------------------
# Dependency graphs for systems in SRF


def to_dependency_graph(es: EquationSystem) -> StructureGraph:
    """The dependency graph of a closed SRF system, as a structure graph.

    One node per variable, in name order, labelled by it and decorated with
    its right-hand side's connective and its rank; the initial node is the
    first variable.
    """
    if not es.equations:
        raise BesError("dependency graph of an empty system is undefined")
    if not is_srf(es):
        raise BesError("dependency graphs are defined for systems in SRF only")
    if not is_closed(es):
        raise BesError("dependency graphs are defined for closed systems only")
    rank = ranks(es)
    _require_identifiers(rank)
    rhs = {eq.lhs: eq.rhs for eq in es}
    names = sorted(rhs)
    position = {x: i for i, x in enumerate(names)}
    connective = {AndSet: AND, OrSet: OR}
    deco = [Decoration(connective.get(rhs[x].__class__, NONE), rank[x]) for x in names]
    succ = [sorted(position[y] for y in occ(rhs[x])) for x in names]
    return StructureGraph(position[es.equations[0].lhs], deco, succ, names, names)


# ---------------------------------------------------------------------------
# Exchange formats


# a label escapes \ and "; an sgraph label also escapes, as \uXXXX, each
# character str.splitlines splits at, which DOT keeps as it is
_ESCAPE = {ord("\\"): "\\\\", ord('"'): '\\"'}
_SGRAPH_ESCAPE = _ESCAPE | {
    ord(c): f"\\u{ord(c):04x}" for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
}
_ESCAPED = re.compile(r'\\([\\"]|u[0-9a-fA-F]{4})')


def _quote(label: str, escape: dict = _ESCAPE) -> str:
    return '"' + label.translate(escape) + '"'


def _unquote(quoted: str) -> str:  # one pass, so that \\n is \ and n
    return _ESCAPED.sub(lambda m: m[1] if len(m[1]) == 1 else chr(int(m[1][1:], 16)), quoted)


def serialize_graph(g: StructureGraph) -> str:
    ids = list(g.ids)  # read once: generated ids are formatted then
    lines = ["sgraph v1", f"init {ids[g.init]}"]
    for u, d in enumerate(g.deco):
        rank = "-" if d.rank is None else d.rank
        label = _quote(g.labels[u], _SGRAPH_ESCAPE)
        lines.append(f"node {ids[u]} op={d.op._value_} ranks={rank} label={label}")
    for a, b in g.edges:
        lines.append(f"edge {ids[a]} {ids[b]}")
    return "".join(line + "\n" for line in lines)


_NODE_RE = re.compile(
    r"node (\S+) op=(and|or|top|bot|none) ranks=(-|-?\d+) "
    r'label="((?:[^"\\]|\\.)*)"$'
)
_EDGE_RE = re.compile(r"edge (\S+) (\S+)$")


def parse_graph(text: str) -> StructureGraph:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "sgraph v1":
        raise BesError("not an sgraph v1 document")
    if len(lines) < 2 or not lines[1].startswith("init "):
        raise BesError("missing init line")
    init = lines[1][len("init "):].strip()
    nodes: dict[str, tuple[Decoration, str]] = {}
    edges: list[tuple[str, str]] = []
    for line in lines[2:]:
        m = _NODE_RE.match(line)
        if m:
            node_id, op, rank, label = m.groups()
            rank = None if rank == "-" else int(rank)
            if node_id in nodes:
                raise BesError(f"node {node_id!r} is defined twice")
            nodes[node_id] = (Decoration(Op(op), rank), _unquote(label))
            continue
        m = _EDGE_RE.match(line)
        if m:
            edges.append((m.group(1), m.group(2)))
            continue
        raise BesError(f"unrecognised sgraph line: {line!r}")
    ids = sorted(nodes)
    position = {u: i for i, u in enumerate(ids)}
    if init not in position:
        raise BesError(f"initial node {init!r} is not a node")
    succ: list[set[int]] = [set() for _ in ids]
    for a, b in edges:
        if a not in position or b not in position:
            raise BesError(f"edge ({a!r}, {b!r}) has a dangling endpoint")
        succ[position[a]].add(position[b])
    return StructureGraph(
        position[init],
        [nodes[u][0] for u in ids],
        [sorted(vs) for vs in succ],
        [nodes[u][1] for u in ids],
        ids,
    )


def to_dot(g: StructureGraph) -> str:
    ids = list(g.ids)  # read once, as in serialize_graph
    lines = ["digraph sgraph {"]
    for u, d in enumerate(g.deco):
        rank = "" if d.rank is None else str(d.rank)
        deco_text = " ".join(part for part in (_OP_SYMBOL[d.op], rank) if part)
        # the escaped label, then a DOT line break and the decoration
        label = g.labels[u].translate(_ESCAPE) + ("\\n" + deco_text if deco_text else "")
        attrs = f'label="{label}"'
        if u == g.init:
            attrs += ", peripheries=2"
        lines.append(f"  {_quote(ids[u])} [{attrs}];")
    for a, b in g.edges:
        lines.append(f"  {_quote(ids[a])} -> {_quote(ids[b])};")
    lines.append("}")
    return "".join(line + "\n" for line in lines)
