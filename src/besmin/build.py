"""Structure-graph construction and the graph-level transformations.

``build_graph`` implements the deduction rules for general closed
systems: constants are decorated ⊤/⊥, syntactic conjunctions and
disjunctions are decorated ▲/▽ with same-connective nesting flattened,
a change of leading operator produces an edge to the subterm node, and
bound variables carry their rank and inherit the structure of their
right-hand side.  ``build_srf_graph`` covers systems in standard
recursive form.  ``reduce_graph`` eliminates constant nodes and
``normalise_graph`` ranks the remaining unranked nodes, after which the
graph translates back into an equation system in SRF.
"""

from __future__ import annotations

from typing import Optional

from .errors import BesError, OpenSystemError, UnrankedCycleError
from .graph import Decoration, Op, StructureGraph, _unranked_order
from .syntax import (
    And,
    AndSet,
    EquationSystem,
    Formula,
    Or,
    OrSet,
    Var,
    bnd,
    format_formula,
    is_general_syntax,
    is_srf,
    least_variable,
    occ,
    ranks,
    require_closed,
)


def _check_closed_nonempty(es: EquationSystem) -> None:
    if not es.equations:
        raise BesError("structure graphs are defined for non-empty systems")
    require_closed(es)


_OPS = {And: Op.AND, AndSet: Op.AND, Or: Op.OR, OrSet: Op.OR}
_TERM_DECO = {cls: Decoration(op) for cls, op in _OPS.items()}
_CONSTANTS = {("true",): Decoration(Op.TOP), ("false",): Decoration(Op.BOT)}


def _graph(es: EquationSystem, t: Formula, successors) -> StructureGraph:
    """The closure of ``t`` and the bound variables, then ids by text.

    A node is keyed by a bound variable's name, or by a 1-tuple of the
    text of any other formula, so that ``Var("true")`` and the constant
    true stay apart; two formulas with one text (possible only with names
    that are not identifiers) get keys that also hold the formula.  Each
    node's text, decoration and successor keys (``successors(f, key_of)``
    of the formula or of the variable's right-hand side) are computed once.
    The text is also the node's label and its sort key: constants first,
    then the text, in a stable sort over the closure's insertion order,
    which is the order ``formula_key`` gives.
    """
    rhs_map = {eq.lhs: eq.rhs for eq in es}
    shared: dict = {}  # one Decoration per (connective, rank)
    var_deco = {}
    for x, r in ranks(es).items():
        cls = rhs_map[x].__class__
        key = (cls if cls in _OPS else None, r)
        if key not in shared:
            shared[key] = Decoration(_OPS.get(cls, Op.NONE), frozenset({r}))
        var_deco[x] = shared[key]
    terms: dict = {}

    def key_of(f: Formula):
        if f.__class__ is Var:
            return f.name
        key = (format_formula(f),)
        known = terms.setdefault(key, f)
        if known is not f and known != f:
            key = (key[0], f)
            terms.setdefault(key, f)
        return key

    position: dict = {}
    nodes: list = []  # (text, decoration, successor keys) in closure order
    init = key_of(t)
    stack = [init, *rhs_map]
    while stack:
        key = stack.pop()
        if key in position:
            continue
        position[key] = len(nodes)
        if key.__class__ is str:  # a bound variable
            nodes.append((key, var_deco[key], successors(rhs_map[key], key_of)))
        elif key in _CONSTANTS:
            nodes.append((key[0], _CONSTANTS[key], []))
        else:
            f = terms[key]
            nodes.append((key[0], _TERM_DECO[f.__class__], successors(f, key_of)))
        stack.extend(nodes[-1][2])
    first = [position[k] for k in _CONSTANTS if k in position]
    texts = [node[0] for node in nodes]
    order = first + sorted(
        (i for i in range(len(nodes)) if i not in first), key=texts.__getitem__
    )
    width = len(str(max(len(order) - 1, 0)))
    ids = [""] * len(order)
    for j, i in enumerate(order):
        ids[i] = f"n{j:0{width}d}"
    return StructureGraph(
        ids[position[init]],
        {ids[i]: nodes[i][1] for i in order},
        frozenset((ids[i], ids[position[k]]) for i, node in enumerate(nodes) for k in node[2]),
        {ids[i]: texts[i] for i in order},
    )


def _leaves(f: Formula, key_of) -> list:
    """The leaves of the same-connective block at ``f``, left to right, once each."""
    cls = f.__class__
    if cls is not And and cls is not Or:
        return [key_of(f)]
    keys: dict = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g.__class__ is cls:
            stack += g.right, g.left
        else:
            keys[key_of(g)] = None
    return list(keys)


def _require_bound(es: EquationSystem, t: Formula) -> None:
    unbound = occ(t) - bnd(es)
    if unbound:
        raise OpenSystemError(
            f"formula mentions unbound variables: {', '.join(sorted(unbound))}"
        )


def build_graph(es: EquationSystem, t: Optional[Formula] = None) -> StructureGraph:
    """Structure graph of formula ``t`` in the context of a closed system.

    The node set is the part reachable from ``t`` together with all bound
    variables.
    """
    _check_closed_nonempty(es)
    if t is None:
        t = Var(least_variable(es))
    for eq in es:
        if not is_general_syntax(eq.rhs):
            raise BesError(
                f"general-syntax system required; equation for {eq.lhs} "
                f"uses an n-ary connective"
            )
    if not is_general_syntax(t):
        raise BesError("general-syntax formula required")
    _require_bound(es, t)
    return _graph(es, t, _leaves)


def build_srf_graph(es: EquationSystem, t: Optional[Formula] = None) -> StructureGraph:
    """Structure graph of an SRF formula in the context of a system in SRF."""
    _check_closed_nonempty(es)
    if not is_srf(es):
        raise BesError("system is not in standard recursive form")
    if t is None:
        t = Var(least_variable(es))
    if not isinstance(t, (Var, AndSet, OrSet)):
        raise BesError("formula is not in SRF syntax")
    _require_bound(es, t)
    return _graph(es, t, lambda f, key_of: sorted(occ(f)))


# ---------------------------------------------------------------------------
# reduce and normalise


def reduce_graph(g: StructureGraph) -> StructureGraph:
    """Replace constant nodes by self-looped ranked nodes (rank 0 for true,
    rank 1 for false); everything else is copied unchanged."""
    deco = {}
    edges = set(g.edges)
    for u, d in g.deco.items():
        if d.op is Op.TOP:
            deco[u] = Decoration(Op.NONE, frozenset({0}))
            edges.add((u, u))
        elif d.op is Op.BOT:
            deco[u] = Decoration(Op.NONE, frozenset({1}))
            edges.add((u, u))
        else:
            deco[u] = d
    return StructureGraph(g.init, deco, frozenset(edges), dict(g.labels))


def normalise_graph(g: StructureGraph) -> StructureGraph:
    """Assign every unranked node the maximal rank of its successors.

    Requires constants to have been eliminated first (``reduce_graph``);
    a cycle consisting entirely of unranked nodes is an error.
    """
    for u, d in g.deco.items():
        if d.op in (Op.TOP, Op.BOT):
            raise BesError(
                f"normalisation requires a reduced graph; node "
                f"{g.label(u)!r} is a constant"
            )
    succ = g.successors()
    order, cycle = _unranked_order(g, succ)
    if cycle:
        raise UnrankedCycleError(
            "cycle of unranked nodes: " + " -> ".join(g.label(v) for v in cycle)
        )
    rank = {u: max(d.ranks) for u, d in g.deco.items() if d.ranks}
    for u in order:  # each unranked node after its unranked successors
        if not succ[u]:
            raise BesError(
                f"unranked node {g.label(u)!r} has no successors to "
                f"inherit a rank from"
            )
        rank[u] = max(rank[v] for v in succ[u])
    deco = {
        u: d if d.ranks else Decoration(d.op, frozenset({rank[u]}))
        for u, d in g.deco.items()
    }
    return StructureGraph(g.init, deco, g.edges, dict(g.labels))
