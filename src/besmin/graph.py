"""Structure graphs: data model, validation, bisimulation and translation.

Nodes are opaque string ids carrying a human-readable term label and a
decoration (an operator symbol plus a set of ranks).  Graphs translatable
back into equation systems satisfy five structural constraints; see
``is_bessy``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import BesError, NotBessyError
from .syntax import (
    And,
    AndSet,
    Const,
    Equation,
    EquationSystem,
    Fixpoint,
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


_OP_SYMBOL = {Op.AND: "▲", Op.OR: "▽", Op.TOP: "⊤", Op.BOT: "⊥", Op.NONE: ""}


@dataclass(frozen=True)
class Decoration:
    op: Op = Op.NONE
    ranks: frozenset[int] = frozenset()


@dataclass(frozen=True)
class StructureGraph:
    init: str
    deco: dict[str, Decoration]  # keys are the node set
    edges: frozenset[tuple[str, str]]
    labels: dict[str, str]

    def __post_init__(self):
        if self.init not in self.deco:
            raise ValueError(f"initial node {self.init!r} is not a node")
        for a, b in self.edges:
            if a not in self.deco or b not in self.deco:
                raise ValueError(f"edge ({a!r}, {b!r}) has a dangling endpoint")

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.deco))

    def successors(self) -> dict[str, set[str]]:
        succ: dict[str, set[str]] = {u: set() for u in self.deco}
        for a, b in self.edges:
            succ[a].add(b)
        return succ

    def label(self, u: str) -> str:
        return self.labels.get(u, u)


def _label_key(label: str):
    # true before false before everything else, then lexicographic
    if label == "true":
        return (0, 0, "")
    if label == "false":
        return (0, 1, "")
    return (1, 0, label)


def _node_key(g: StructureGraph) -> Callable[[str], tuple]:
    return lambda u: (_label_key(g.label(u)), u)


# ---------------------------------------------------------------------------
# BESsy validation


def _unranked_order(
    g: StructureGraph, succ: dict[str, set[str]]
) -> tuple[list[str], list[str]]:
    """The unranked nodes, each after its unranked successors, and a cycle.

    An iterative depth-first search over the unranked nodes, roots and
    successors in sorted order.  The cycle is the path of the first cycle
    of unranked nodes the search meets, or empty if there is none; the
    order then stops where the search did.
    """
    done: dict[str, None] = {}  # the order so far, as an ordered set
    for root in sorted(u for u, d in g.deco.items() if not d.ranks):
        if root in done:
            continue
        path = {root: None}  # the search path, as an ordered set
        todo = [iter(sorted(succ[root]))]
        while todo:
            v = next(
                (v for v in todo[-1] if not g.deco[v].ranks and v not in done), None
            )
            if v is None:
                todo.pop()
                done[path.popitem()[0]] = None
            elif v in path:
                cycle = list(path)
                return list(done), cycle[cycle.index(v):]
            else:
                path[v] = None
                todo.append(iter(sorted(succ[v])))
    return list(done), []


def _validate(g: StructureGraph) -> tuple[list[str], dict[str, set[str]], list[str]]:
    """The violations of the five constraints, the successor map and the
    order of ``_unranked_order``."""
    violations = []
    succ = g.successors()
    for u in g.nodes:
        d = g.deco[u]
        if d.op in (Op.TOP, Op.BOT) and succ[u]:
            violations.append(
                f"constraint 1: constant node {g.label(u)!r} has a successor"
            )
        decorated = d.op in (Op.AND, Op.OR) or bool(d.ranks)
        if decorated and not succ[u]:
            violations.append(
                f"constraint 2: decorated node {g.label(u)!r} has no successor"
            )
        if not decorated and succ[u]:
            violations.append(
                f"constraint 2: undecorated node {g.label(u)!r} has a successor"
            )
        if len(succ[u]) > 1 and d.op not in (Op.AND, Op.OR):
            violations.append(
                f"constraint 3: node {g.label(u)!r} has multiple successors "
                f"but no operator symbol"
            )
    all_ranks = sorted({r for d in g.deco.values() for r in d.ranks})
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
    else:
        ranked_needed = bool(g.edges)
        if ranked_needed:
            violations.append("constraint 4: no node carries a rank")
    # constraint 5: the subgraph induced by unranked nodes must be acyclic
    order, cycle = _unranked_order(g, succ)
    if cycle:
        violations.append(
            f"constraint 5: unranked cycle through node {g.label(cycle[0])!r}"
        )
    return violations, succ, order


def is_bessy(g: StructureGraph) -> list[str]:
    """Check the five translatability constraints; empty list means BESsy."""
    return _validate(g)[0]


# ---------------------------------------------------------------------------
# translation back into an equation system


_CONNECTIVE = {Op.AND: And, Op.OR: Or}


def _nest(op, terms: Iterable[Formula]) -> Formula:
    ordered = sorted(set(terms), key=formula_key)
    result = ordered[-1]
    for t in reversed(ordered[:-1]):
        result = op(t, result)
    return result


def translate(g: StructureGraph) -> tuple[Formula, EquationSystem, dict[str, str]]:
    """Translate a BESsy graph; also returns the node-to-variable naming."""
    violations, succ, order = _validate(g)
    if violations:
        raise NotBessyError("; ".join(violations))
    for u in g.deco:
        if len(g.deco[u].ranks) > 1:
            raise NotBessyError(
                f"node {g.label(u)!r} carries multiple ranks "
                f"{sorted(g.deco[u].ranks)}; graphs of closed systems have "
                f"singleton rank sets"
            )
    key = _node_key(g)
    ranked = sorted(
        (u for u in g.deco if g.deco[u].ranks),
        key=lambda u: (max(g.deco[u].ranks), key(u)),
    )
    rest = sorted((u for u in g.deco if not g.deco[u].ranks), key=key)
    names = {u: f"X{i}" for i, u in enumerate(ranked + rest)}
    # each node's term, built once: a ranked node is its variable, and an
    # unranked ▲/▽ node nests the terms of its successors
    terms: dict[str, Formula] = {u: Var(names[u]) for u in ranked}
    for u in order:
        op = g.deco[u].op
        if op in _CONNECTIVE:
            terms[u] = _nest(_CONNECTIVE[op], (terms[v] for v in succ[u]))
        elif op in (Op.TOP, Op.BOT):
            terms[u] = Const(op is Op.TOP)
        else:
            terms[u] = Var(names[u])
    equations = []
    for u in ranked:
        r = max(g.deco[u].ranks)
        sign = Fixpoint.MU if r % 2 == 1 else Fixpoint.NU
        # by constraints 2 and 3, a node without ▲/▽ has one successor,
        # which _nest returns as it is
        rhs = _nest(_CONNECTIVE.get(g.deco[u].op), (terms[v] for v in succ[u]))
        equations.append(Equation(sign, names[u], rhs))
    return terms[g.init], EquationSystem(tuple(equations)), names


# ---------------------------------------------------------------------------
# Partition refinement (Kanellakis-Smolka style signature splitting)


def _refine(succs: list[list[int]], keys: list) -> list[int]:
    """Coarsest stable refinement of the partition of positions by ``keys``.

    ``succs[i]`` lists the successor positions of position ``i``.  Each
    round regroups the positions by their block and the set of their
    successors' blocks, until the number of blocks stays the same.  Blocks
    are numbered by their first member.
    """
    ids: dict = {}
    block = [ids.setdefault(key, len(ids)) for key in keys]
    while True:
        count, block_of = len(ids), block.__getitem__
        ids = {}
        block = [
            ids.setdefault((b, frozenset(map(block_of, vs))), len(ids))
            for b, vs in zip(block, succs)
        ]
        if len(ids) == count:
            return block


def _positions(nodes: list[str], g: StructureGraph, offset: int = 0) -> list[list[int]]:
    """Successor positions of ``nodes``, each node at its index plus ``offset``."""
    position = {u: i for i, u in enumerate(nodes, offset)}
    succs: list[list[int]] = [[] for _ in nodes]
    for a, b in g.edges:
        succs[position[a] - offset].append(position[b])
    return succs


def minimize(g: StructureGraph) -> tuple[StructureGraph, dict[str, str]]:
    """Quotient under the coarsest decoration-respecting bisimulation.

    Returns the quotient graph and the node-to-block mapping.  Refinement
    runs over the nodes in label order, so each block's first member
    carries the block's least label and block ``b`` is named ``b{b}``.
    """
    nodes = sorted(g.deco, key=_node_key(g))
    decos = [g.deco[u] for u in nodes]
    succs = _positions(nodes, g)
    block = _refine(succs, decos)
    first: list[int] = []  # the first member of each block
    for i, b in enumerate(block):
        if b == len(first):
            first.append(i)
    width = len(str(max(len(first) - 1, 0)))
    names = [f"b{b:0{width}d}" for b in range(len(first))]
    mapping = {u: names[b] for u, b in zip(nodes, block)}
    pairs = {(block[i], block[j]) for i, vs in enumerate(succs) for j in vs}
    quotient = StructureGraph(
        mapping[g.init],
        {names[b]: decos[i] for b, i in enumerate(first)},
        frozenset((names[a], names[b]) for a, b in pairs),
        {names[b]: g.label(nodes[i]) for b, i in enumerate(first)},
    )
    # the mapping is a functional bisimulation: it keeps every node's
    # decoration and maps its successors onto its block's successors
    succ_q: list[set[int]] = [set() for _ in first]
    for a, b in pairs:
        succ_q[a].add(b)
    assert all(
        decos[i] == decos[first[b]] and {block[j] for j in vs} == succ_q[b]
        for i, (b, vs) in enumerate(zip(block, succs))
    ), "the block mapping must be a functional bisimulation"
    return quotient, mapping


def bisimilar(g: StructureGraph, h: StructureGraph) -> bool:
    """Whether the initial nodes of two graphs are bisimilar."""
    g_nodes, h_nodes = list(g.deco), list(h.deco)
    succs = _positions(g_nodes, g) + _positions(h_nodes, h, len(g_nodes))
    block = _refine(succs, [*g.deco.values(), *h.deco.values()])
    return block[g_nodes.index(g.init)] == block[len(g_nodes) + h_nodes.index(h.init)]


# ---------------------------------------------------------------------------
# Dependency graphs for systems in SRF


def to_dependency_graph(es: EquationSystem) -> StructureGraph:
    """The dependency graph of a closed SRF system, as a structure graph.

    One node per variable, labelled by it and decorated with its right-hand
    side's connective and its rank; the initial node is the first variable.
    """
    if not es.equations:
        raise BesError("dependency graph of an empty system is undefined")
    if not is_srf(es):
        raise BesError("dependency graphs are defined for systems in SRF only")
    if not is_closed(es):
        raise BesError("dependency graphs are defined for closed systems only")
    rank = ranks(es)
    deco = {}
    for eq in es:
        if isinstance(eq.rhs, AndSet):
            op = Op.AND
        elif isinstance(eq.rhs, OrSet):
            op = Op.OR
        else:
            op = Op.NONE
        deco[eq.lhs] = Decoration(op, frozenset({rank[eq.lhs]}))
    edges = frozenset((eq.lhs, y) for eq in es for y in occ(eq.rhs))
    return StructureGraph(es.equations[0].lhs, deco, edges, {x: x for x in deco})


# ---------------------------------------------------------------------------
# Exchange formats


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unquote(quoted: str) -> str:
    return quoted.replace('\\"', '"').replace("\\\\", "\\")


def serialize_graph(g: StructureGraph) -> str:
    lines = ["sgraph v1", f"init {g.init}"]
    for u in sorted(g.deco):
        d = g.deco[u]
        ranks = ",".join(str(r) for r in sorted(d.ranks)) if d.ranks else "-"
        lines.append(
            f"node {u} op={d.op.value} ranks={ranks} label={_quote(g.label(u))}"
        )
    for a, b in sorted(g.edges):
        lines.append(f"edge {a} {b}")
    return "".join(line + "\n" for line in lines)


_NODE_RE = re.compile(
    r"node (\S+) op=(and|or|top|bot|none) ranks=(-|-?\d+(?:,-?\d+)*) "
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
    deco: dict[str, Decoration] = {}
    labels: dict[str, str] = {}
    edges: set[tuple[str, str]] = set()
    for line in lines[2:]:
        m = _NODE_RE.match(line)
        if m:
            node_id, op, ranks_text, label = m.groups()
            ranks = (
                frozenset()
                if ranks_text == "-"
                else frozenset(int(r) for r in ranks_text.split(","))
            )
            deco[node_id] = Decoration(Op(op), ranks)
            labels[node_id] = _unquote(label)
            continue
        m = _EDGE_RE.match(line)
        if m:
            edges.add((m.group(1), m.group(2)))
            continue
        raise BesError(f"unrecognised sgraph line: {line!r}")
    try:
        return StructureGraph(init, deco, frozenset(edges), labels)
    except ValueError as exc:  # an init or edge endpoint that is not a node
        raise BesError(str(exc)) from None


def to_dot(g: StructureGraph) -> str:
    lines = ["digraph sgraph {"]
    for u in sorted(g.deco):
        d = g.deco[u]
        symbol = _OP_SYMBOL[d.op]
        ranks = " ".join(str(r) for r in sorted(d.ranks))
        deco_text = " ".join(part for part in (symbol, ranks) if part)
        label = g.label(u) + ("\\n" + deco_text if deco_text else "")
        attrs = f"label={_quote(label)}"
        if u == g.init:
            attrs += ", peripheries=2"
        lines.append(f"  {_quote(u)} [{attrs}];")
    for a, b in sorted(g.edges):
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "".join(line + "\n" for line in lines)
