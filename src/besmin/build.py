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
from .graph import AND, BOT, NONE, OR, TOP, Decoration, StructureGraph, _ids, _unranked_order
from .syntax import (
    FALSE,
    TRUE,
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


def _require_nonempty(es: EquationSystem) -> None:
    if not es.equations:
        raise BesError("structure graphs are defined for non-empty systems")


_OPS = {And: AND, AndSet: AND, Or: OR, OrSet: OR}
_SRF_DECO = {cls: Decoration(op) for cls, op in _OPS.items()}
_GENERAL_DECO = {And: _SRF_DECO[And], Or: _SRF_DECO[Or]}
_CONSTANTS = {("true",): Decoration(TOP), ("false",): Decoration(BOT)}


def _graph(
    es: EquationSystem, t: Formula, successors, term_deco: dict
) -> StructureGraph:
    """The closure of ``t`` and the bound variables, in id order.

    A node is keyed by a bound variable's name, or by a 1-tuple of the
    text of any other formula, so that ``Var("true")`` and the constant
    true stay apart; each further formula of one text (possible only with
    names that are not identifiers) gets a key one ordinal longer.  Each
    node's text, decoration and successor keys (``successors(f, key_of)``
    of the formula or of the variable's right-hand side) are computed once,
    and ``term_deco`` decorates each term by its class.  An unbound name,
    or a term whose class ``term_deco`` lacks, raises ``KeyError``.  The
    text is also the node's label and its sort key: constants first,
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
            shared[key] = Decoration(_OPS.get(cls, NONE), r)
        var_deco[x] = shared[key]
    terms: dict = {}

    def key_of(f: Formula):
        if f.__class__ is Var:
            return f.name
        key = (format_formula(f),)
        while terms.setdefault(key, f) is not f and not _equal(terms[key], f):
            key += (len(key),)
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
            nodes.append((key[0], term_deco[f.__class__], successors(f, key_of)))
        stack.extend(nodes[-1][2])
    first = [position[k] for k in _CONSTANTS if k in position]
    texts = [node[0] for node in nodes]
    order = first + sorted(
        (i for i in range(len(nodes)) if i not in first), key=texts.__getitem__
    )
    closure = list(position)  # the keys in closure order
    place = {closure[i]: j for j, i in enumerate(order)}  # key -> node position
    return StructureGraph(
        place[init],
        [nodes[i][1] for i in order],
        [sorted(map(place.__getitem__, nodes[i][2])) for i in order],
        [texts[i] for i in order],
        _ids("n", len(order)),
    )


def _equal(f: Formula, g: Formula) -> bool:
    """``f == g``, read in one loop: the generated ``__eq__`` recurses."""
    pairs = [(f, g)]
    while pairs:
        f, g = pairs.pop()
        if f.__class__ is not g.__class__:
            return False
        if f.__class__ is And or f.__class__ is Or:
            pairs += (f.right, g.right), (f.left, g.left)
        elif f != g:
            return False
    return True


def _leaves(f: Formula, key_of) -> list:
    """The leaves of the same-connective block at ``f``, left to right, once each."""
    cls = f.__class__
    if cls is not And and cls is not Or:
        return [f.name] if cls is Var else [key_of(f)]
    keys: dict = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g.__class__ is cls:
            stack += g.right, g.left
        elif g.__class__ is Var:
            keys[g.name] = None  # as key_of keys a variable, without the call
        elif g is TRUE or g is FALSE:  # and the shared constants
            keys[("true",) if g is TRUE else ("false",)] = None
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
    _require_nonempty(es)
    if t is None:
        t = Var(least_variable(es))
    try:
        return _graph(es, t, _leaves, _GENERAL_DECO)
    except KeyError:
        # the closure visits every subterm of t and of each right-hand side,
        # so it fails on any unbound name or n-ary connective; name the
        # first precondition broken, in the order they are stated
        require_closed(es)
        for eq in es:
            if not is_general_syntax(eq.rhs):
                raise BesError(
                    f"general-syntax system required; equation for {eq.lhs} "
                    f"uses an n-ary connective"
                )
        if not is_general_syntax(t):
            raise BesError("general-syntax formula required")
        _require_bound(es, t)
        raise


def build_srf_graph(es: EquationSystem, t: Optional[Formula] = None) -> StructureGraph:
    """Structure graph of an SRF formula in the context of a system in SRF."""
    _require_nonempty(es)
    require_closed(es)
    if not is_srf(es):
        raise BesError("system is not in standard recursive form")
    if t is None:
        t = Var(least_variable(es))
    if not isinstance(t, (Var, AndSet, OrSet)):
        raise BesError("formula is not in SRF syntax")
    _require_bound(es, t)
    return _graph(es, t, lambda f, key_of: sorted(occ(f)), _SRF_DECO)


# ---------------------------------------------------------------------------
# reduce and normalise


def reduce_graph(g: StructureGraph) -> StructureGraph:
    """Replace constant nodes by self-looped ranked nodes (rank 0 for true,
    rank 1 for false); everything else is copied unchanged."""
    deco, succ = list(g.deco), list(g.succ)
    for u, d in enumerate(g.deco):
        if d.op is TOP or d.op is BOT:
            deco[u] = Decoration(NONE, 0 if d.op is TOP else 1)
            succ[u] = sorted({*succ[u], u})
    return StructureGraph(g.init, deco, succ, g.labels, g.ids)


def normalise_graph(g: StructureGraph) -> StructureGraph:
    """Assign every unranked node the maximal rank of its successors.

    Requires constants to have been eliminated first (``reduce_graph``);
    a cycle consisting entirely of unranked nodes is an error.
    """
    for d, label in zip(g.deco, g.labels):
        if d.op is TOP or d.op is BOT:
            raise BesError(
                f"normalisation requires a reduced graph; node "
                f"{label!r} is a constant"
            )
    order, cycle = _unranked_order(g)
    if cycle:
        raise UnrankedCycleError(
            "cycle of unranked nodes: " + " -> ".join(g.labels[v] for v in cycle)
        )
    deco = list(g.deco)
    for u in order:  # each unranked node after its unranked successors
        if not g.succ[u]:
            raise BesError(
                f"unranked node {g.labels[u]!r} has no successors to "
                f"inherit a rank from"
            )
        deco[u] = Decoration(deco[u].op, max(deco[v].rank for v in g.succ[u]))
    return StructureGraph(g.init, deco, g.succ, g.labels, g.ids)
