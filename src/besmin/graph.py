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
from typing import Callable, Iterable, Optional

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


def is_bessy(g: StructureGraph) -> list[str]:
    """Check the five translatability constraints; empty list means BESsy."""
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
    unranked = {u for u in g.deco if not g.deco[u].ranks}
    state: dict[str, int] = {}

    def has_cycle(u: str) -> Optional[str]:
        state[u] = 1
        for v in succ[u]:
            if v not in unranked:
                continue
            if state.get(v) == 1:
                return v
            if v not in state and has_cycle(v):
                return v
        state[u] = 2
        return None

    for u in sorted(unranked):
        if u not in state:
            witness = has_cycle(u)
            if witness:
                violations.append(
                    f"constraint 5: unranked cycle through node "
                    f"{g.label(witness)!r}"
                )
    return violations


def _require_bessy(g: StructureGraph) -> None:
    violations = is_bessy(g)
    if violations:
        raise NotBessyError("; ".join(violations))


# ---------------------------------------------------------------------------
# translation back into an equation system


def _nest(op, terms: Iterable[Formula]) -> Formula:
    ordered = sorted(set(terms), key=formula_key)
    result = ordered[-1]
    for t in reversed(ordered[:-1]):
        result = op(t, result)
    return result


def _term(g, u: str, succ, names) -> Formula:
    d = g.deco[u]
    if d.op is Op.AND and not d.ranks:
        return _nest(And, (_term(g, v, succ, names) for v in succ[u]))
    if d.op is Op.OR and not d.ranks:
        return _nest(Or, (_term(g, v, succ, names) for v in succ[u]))
    if d.op is Op.TOP:
        return Const(True)
    if d.op is Op.BOT:
        return Const(False)
    return Var(names[u])


def _rhs(g, u: str, succ, names) -> Formula:
    if not succ[u]:
        raise BesError(f"node {g.label(u)!r} has no successor")
    d = g.deco[u]
    if d.op is Op.AND:
        return _nest(And, (_term(g, v, succ, names) for v in succ[u]))
    if d.op is Op.OR:
        return _nest(Or, (_term(g, v, succ, names) for v in succ[u]))
    (only,) = succ[u]
    return _term(g, only, succ, names)


def translate(g: StructureGraph) -> tuple[Formula, EquationSystem, dict[str, str]]:
    """Translate a BESsy graph; also returns the node-to-variable naming."""
    _require_bessy(g)
    for u in g.deco:
        if len(g.deco[u].ranks) > 1:
            raise NotBessyError(
                f"node {g.label(u)!r} carries multiple ranks "
                f"{sorted(g.deco[u].ranks)}; graphs of closed systems have "
                f"singleton rank sets"
            )
    succ = g.successors()
    key = _node_key(g)
    ranked = sorted(
        (u for u in g.deco if g.deco[u].ranks),
        key=lambda u: (max(g.deco[u].ranks), key(u)),
    )
    rest = sorted((u for u in g.deco if not g.deco[u].ranks), key=key)
    names = {u: f"X{i}" for i, u in enumerate(ranked + rest)}
    equations = []
    for u in ranked:
        r = max(g.deco[u].ranks)
        sign = Fixpoint.MU if r % 2 == 1 else Fixpoint.NU
        equations.append(Equation(sign, names[u], _rhs(g, u, succ, names)))
    return _term(g, g.init, succ, names), EquationSystem(tuple(equations)), names


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
# Isomorphism (desk-scale backtracking with decoration/degree pruning)


def graph_isomorphic(g: StructureGraph, h: StructureGraph) -> bool:
    if len(g.deco) != len(h.deco) or len(g.edges) != len(h.edges):
        return False
    succ_g, succ_h = g.successors(), h.successors()
    pred_g: dict[str, set[str]] = {u: set() for u in g.deco}
    pred_h: dict[str, set[str]] = {u: set() for u in h.deco}
    for a, b in g.edges:
        pred_g[b].add(a)
    for a, b in h.edges:
        pred_h[b].add(a)

    def profile(graph, succ, pred, u):
        return (graph.deco[u], len(succ[u]), len(pred[u]))

    if sorted(
        map(repr, (profile(g, succ_g, pred_g, u) for u in g.deco))
    ) != sorted(map(repr, (profile(h, succ_h, pred_h, u) for u in h.deco))):
        return False
    if profile(g, succ_g, pred_g, g.init) != profile(h, succ_h, pred_h, h.init):
        return False

    order = [g.init] + sorted(set(g.deco) - {g.init})
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(u: str, v: str) -> bool:
        if profile(g, succ_g, pred_g, u) != profile(h, succ_h, pred_h, v):
            return False
        for w, x in mapping.items():
            if ((u, w) in g.edges) != ((v, x) in h.edges):
                return False
            if ((w, u) in g.edges) != ((x, v) in h.edges):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        candidates = [h.init] if u == g.init else sorted(set(h.deco) - used)
        for v in candidates:
            if v in used or not consistent(u, v):
                continue
            mapping[u] = v
            used.add(v)
            if extend(i + 1):
                return True
            del mapping[u]
            used.remove(v)
        return False

    return extend(0)


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
    r"node (\S+) op=(and|or|top|bot|none) ranks=(\S+) "
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
    return StructureGraph(init, deco, frozenset(edges), labels)


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
