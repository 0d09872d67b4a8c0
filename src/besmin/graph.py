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
from dataclasses import dataclass
from typing import Optional

from .errors import BesError, NotBessyError
from .syntax import (
    FALSE,
    MU,
    NU,
    TRUE,
    And,
    AndSet,
    Equation,
    EquationSystem,
    Formula,
    Or,
    OrSet,
    Var,
    formula_key,
    is_srf,
    is_closed,
    occ,
    ranks,
)


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


@dataclass(frozen=True)
class Decoration:
    op: Op = NONE
    rank: Optional[int] = None


@dataclass(frozen=True)
class StructureGraph:
    init: int
    deco: list[Decoration]
    succ: list[list[int]]  # sorted successor positions
    labels: list[str]
    ids: list[str]  # increasing

    def __post_init__(self):
        n = len(self.ids)
        if not len(self.deco) == len(self.succ) == len(self.labels) == n:
            raise ValueError("the columns deco, succ, labels and ids differ in length")
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("node ids are not unique and increasing")
        if not 0 <= self.init < n:
            raise ValueError(f"initial node {self.init} is not a node")
        if any(v < 0 or v >= n for vs in self.succ for v in vs):
            raise ValueError("a successor is not a node")

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, vs in enumerate(self.succ) for v in vs]


def _ids(prefix: str, n: int) -> list[str]:
    """``prefix`` and 0 … n - 1, zero-padded to one width to sort as numbers."""
    width = len(str(max(n - 1, 0)))
    return [prefix + str(j).zfill(width) for j in range(n)]


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


def _nest(op, operands: list[tuple]) -> Formula:
    """The terms of ``(formula_key, term)`` operands, each once, in key
    order and nested to the right under ``op``; one operand is returned as
    it is."""
    if len(operands) == 1:
        return operands[0][1]
    # the operands are variables, constants and terms over them, so their
    # canonical texts tell them apart without hashing the formulas
    unique = dict(operands)
    keys = sorted(unique)
    result = unique[keys.pop()]
    for k in reversed(keys):
        result = op(unique[k], result)
    return result


def translate(g: StructureGraph) -> tuple[Formula, EquationSystem, list[str]]:
    """Translate a BESsy graph; also returns each node's variable name, ``X0``,
    ``X1``, …: ranked nodes by rank, then position; other nodes by position."""
    violations, order = _validate(g)
    if violations:
        raise NotBessyError("; ".join(violations))
    rank = [d.rank for d in g.deco]
    ranked = sorted([u for u, r in enumerate(rank) if r is not None], key=rank.__getitem__)
    rest = [u for u, r in enumerate(rank) if r is None]
    names = [""] * len(g.ids)
    for i, u in enumerate(ranked + rest):
        names[u] = f"X{i}"
    # each node's operand, its formula_key and term, built once: a ranked
    # node is its variable, an unranked ▲/▽ node nests the terms of its
    # successors, a constant is itself and any other node its variable
    operands: list[tuple] = [None] * len(g.ids)
    for u in ranked:
        operands[u] = (1, 0, names[u]), Var(names[u])  # formula_key of a Var
    for u in order:
        op = g.deco[u].op
        if op is AND or op is OR:
            term = _nest(And if op is AND else Or, [operands[v] for v in g.succ[u]])
        elif op is TOP or op is BOT:
            term = TRUE if op is TOP else FALSE
        else:
            term = Var(names[u])
        operands[u] = formula_key(term), term
    equations = []
    for u in ranked:
        sign = MU if rank[u] % 2 == 1 else NU
        # by constraints 2 and 3, a node without ▲/▽ has one successor,
        # which _nest returns as it is
        rhs = _nest(And if g.deco[u].op is AND else Or, [operands[v] for v in g.succ[u]])
        equations.append(Equation(sign, names[u], rhs))
    return operands[g.init][1], EquationSystem(tuple(equations)), names


# ---------------------------------------------------------------------------
# Partition refinement (signature rounds, re-signing only what a split touches)


def _refine(succs: list[list[int]], keys: list) -> list[int]:
    """Coarsest stable refinement of the partition of positions by ``keys``.

    ``succs[i]`` lists the successor positions of position ``i``.  A
    node's signature is its block and the set of its successors' blocks;
    each round regroups the nodes by signature, until no block splits.
    Blocks are numbered by their first member; ``minimize`` relies on it.

    The rounds start from the partition by key and by whether a node has
    successors, which is stable with respect to the whole node set.  Each
    round re-signs only the predecessors of the parts that the last round
    split off, leaving out the largest part of each split block
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
    # number the keys by equality, hashing each distinct key object once:
    # a built graph shares one Decoration among the nodes of one kind
    objects = dict(zip(map(id, keys), keys))  # id of a key -> the key
    classes: dict = {}
    number = {i: classes.setdefault(key, len(classes)) for i, key in objects.items()}
    block = [2 * number[i] + (not vs) for i, vs in zip(map(id, keys), succs)]
    # members[b] holds the members of block b and may hold nodes that have
    # left it; size[b] counts only the members
    members: list[list[int]] = [[] for _ in range(2 * len(classes))]
    for u, b in enumerate(block):
        members[b].append(u)
    size = list(map(len, members))
    largest = max(range(len(size)), key=size.__getitem__, default=-1)
    work = [b for b, k in enumerate(size) if k and b != largest]
    while work:
        touched: set[int] = set()
        for b in work:
            if len(members[b]) != size[b]:
                members[b] = [v for v in members[b] if block[v] == b]
            for v in members[b]:
                touched.update(preds[v])
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
    ids = {}
    return [ids.setdefault(b, len(ids)) for b in block]


def minimize(g: StructureGraph) -> tuple[StructureGraph, list[int]]:
    """Quotient under the coarsest decoration-respecting bisimulation.

    Returns the quotient graph and ``block_of``, the block position of each
    node.  Blocks are numbered by their first member, as ``_refine``
    numbers them, so each block carries its first member's decoration and
    label, and block ``b`` is named ``b{b}``.
    """
    block_of = _refine(g.succ, g.deco)
    first: list[int] = []  # the first member of each block
    for u, b in enumerate(block_of):
        if b == len(first):
            first.append(u)
    images = [{block_of[v] for v in vs} for vs in g.succ]  # successor blocks
    quotient = StructureGraph(
        block_of[g.init],
        [g.deco[u] for u in first],
        [sorted(images[u]) for u in first],
        [g.labels[u] for u in first],
        _ids("b", len(first)),
    )
    # the mapping is a functional bisimulation: it keeps every node's
    # decoration and maps its successors onto its block's successors
    assert all(
        (d is g.deco[u] or d == g.deco[u]) and image == images[u]
        for d, image, u in zip(g.deco, images, map(first.__getitem__, block_of))
    ), "the block mapping must be a functional bisimulation"
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
    lines = ["sgraph v1", f"init {g.ids[g.init]}"]
    for u, d in enumerate(g.deco):
        rank = "-" if d.rank is None else d.rank
        label = _quote(g.labels[u], _SGRAPH_ESCAPE)
        lines.append(f"node {g.ids[u]} op={d.op._value_} ranks={rank} label={label}")
    for a, b in g.edges:
        lines.append(f"edge {g.ids[a]} {g.ids[b]}")
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
    lines = ["digraph sgraph {"]
    for u, d in enumerate(g.deco):
        rank = "" if d.rank is None else str(d.rank)
        deco_text = " ".join(part for part in (_OP_SYMBOL[d.op], rank) if part)
        # the escaped label, then a DOT line break and the decoration
        label = g.labels[u].translate(_ESCAPE) + ("\\n" + deco_text if deco_text else "")
        attrs = f'label="{label}"'
        if u == g.init:
            attrs += ", peripheries=2"
        lines.append(f"  {_quote(g.ids[u])} [{attrs}];")
    for a, b in g.edges:
        lines.append(f"  {_quote(g.ids[a])} -> {_quote(g.ids[b])};")
    lines.append("}")
    return "".join(line + "\n" for line in lines)
