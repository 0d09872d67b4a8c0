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

from dataclasses import dataclass
from typing import Optional

from .errors import BesError, OpenSystemError, UnrankedCycleError
from .graph import Decoration, Op, StructureGraph, bisimilar, translate
from .syntax import (
    And,
    AndSet,
    Const,
    EquationSystem,
    Formula,
    Or,
    OrSet,
    Var,
    bnd,
    format_formula,
    formula_key,
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


def _finish(init: Formula, seeds: list[Formula], deco_of, succ_of) -> StructureGraph:
    """Reachable closure from the seeds, then id assignment by term order.

    Every node's successors and text are computed once; the text is both
    its label and its sort key (the order ``formula_key`` gives)."""
    succ: dict[Formula, list[Formula]] = {}
    stack = list(seeds)
    while stack:
        f = stack.pop()
        if f not in succ:
            succ[f] = fs = succ_of(f)
            stack.extend(fs)
    ordered = sorted(
        ((f, format_formula(f)) for f in succ),
        key=lambda p: formula_key(p[0]) if isinstance(p[0], Const) else (1, 0, p[1]),
    )
    width = len(str(max(len(ordered) - 1, 0)))
    ids = {f: f"n{i:0{width}d}" for i, (f, _) in enumerate(ordered)}
    deco = {ids[f]: deco_of(f) for f, _ in ordered}
    labels = {ids[f]: text for f, text in ordered}
    edges = frozenset((ids[f], ids[g]) for f, fs in succ.items() for g in fs)
    return StructureGraph(ids[init], deco, edges, labels)


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
    if not occ(t) <= bnd(es):
        raise OpenSystemError(
            f"formula mentions unbound variables: "
            f"{', '.join(sorted(occ(t) - bnd(es)))}"
        )
    rhs_map = {eq.lhs: eq.rhs for eq in es}
    rank_map = ranks(es)

    def parts(f: Formula, conj: bool) -> list[Formula]:
        # successors contributed by subterm f of a conj/disj term
        if isinstance(f, And if conj else Or):
            return successors(f)
        return [f]

    def successors(f: Formula) -> list[Formula]:
        if isinstance(f, Const):
            return []
        if isinstance(f, (And, Or)):
            conj = isinstance(f, And)
            return list(dict.fromkeys(parts(f.left, conj) + parts(f.right, conj)))
        if isinstance(f, Var):
            g = rhs_map[f.name]
            if isinstance(g, (And, Or)):
                return successors(g)
            return [g]
        raise TypeError(f"not a general-syntax formula: {f!r}")

    def deco_of(f: Formula) -> Decoration:
        if isinstance(f, Const):
            return Decoration(Op.TOP if f.value else Op.BOT)
        if isinstance(f, And):
            return Decoration(Op.AND)
        if isinstance(f, Or):
            return Decoration(Op.OR)
        g = rhs_map[f.name]
        op = Op.AND if isinstance(g, And) else Op.OR if isinstance(g, Or) else Op.NONE
        return Decoration(op, frozenset({rank_map[f.name]}))

    seeds = [t] + [Var(x) for x in bnd(es)]
    return _finish(t, seeds, deco_of, successors)


def build_srf_graph(es: EquationSystem, t: Optional[Formula] = None) -> StructureGraph:
    """Structure graph of an SRF formula in the context of a system in SRF."""
    _check_closed_nonempty(es)
    if not is_srf(es):
        raise BesError("system is not in standard recursive form")
    if t is None:
        t = Var(least_variable(es))
    if not isinstance(t, (Var, AndSet, OrSet)):
        raise BesError("formula is not in SRF syntax")
    if not occ(t) <= bnd(es):
        raise OpenSystemError(
            f"formula mentions unbound variables: "
            f"{', '.join(sorted(occ(t) - bnd(es)))}"
        )
    rhs_map = {eq.lhs: eq.rhs for eq in es}
    rank_map = ranks(es)

    def successors(f: Formula) -> list[Formula]:
        if isinstance(f, Var):
            return [Var(y) for y in sorted(occ(rhs_map[f.name]))]
        return [Var(y) for y in sorted(f.members)]

    def deco_of(f: Formula) -> Decoration:
        if isinstance(f, AndSet):
            return Decoration(Op.AND)
        if isinstance(f, OrSet):
            return Decoration(Op.OR)
        g = rhs_map[f.name]
        op = (
            Op.AND
            if isinstance(g, AndSet)
            else Op.OR if isinstance(g, OrSet) else Op.NONE
        )
        return Decoration(op, frozenset({rank_map[f.name]}))

    seeds = [t] + [Var(x) for x in bnd(es)]
    return _finish(t, seeds, deco_of, successors)


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
    computed: dict[str, int] = {}
    in_progress: list[str] = []

    def node_rank(u: str) -> int:
        d = g.deco[u]
        if d.ranks:
            return max(d.ranks)
        if u in computed:
            return computed[u]
        if u in in_progress:
            cycle = in_progress[in_progress.index(u):]
            raise UnrankedCycleError(
                "cycle of unranked nodes: "
                + " -> ".join(g.label(v) for v in cycle)
            )
        if not succ[u]:
            raise BesError(
                f"unranked node {g.label(u)!r} has no successors to "
                f"inherit a rank from"
            )
        in_progress.append(u)
        try:
            result = max(node_rank(v) for v in sorted(succ[u]))
        finally:
            in_progress.pop()
        computed[u] = result
        return result

    deco = {}
    for u, d in g.deco.items():
        if d.ranks:
            deco[u] = d
        else:
            deco[u] = Decoration(d.op, frozenset({node_rank(u)}))
    return StructureGraph(g.init, deco, g.edges, dict(g.labels))


# ---------------------------------------------------------------------------
# Pipelines


@dataclass(frozen=True)
class NormalisationResult:
    graph: StructureGraph
    system: EquationSystem
    names: dict[str, str]  # node id -> generated variable
    variable_map: dict[str, str]  # original bound variable -> generated variable


def _variable_nodes(g: StructureGraph, es: EquationSystem) -> dict[str, str]:
    by_label = {g.label(u): u for u in g.deco}
    return {x: by_label[x] for x in bnd(es) if x in by_label}


def normalise_pipeline(es: EquationSystem) -> NormalisationResult:
    g = normalise_graph(reduce_graph(build_graph(es)))
    _, system, names = translate(g)
    var_nodes = _variable_nodes(g, es)
    variable_map = {x: names[u] for x, u in var_nodes.items()}
    return NormalisationResult(g, system, names, variable_map)


def bisimilar_in_context(
    es: EquationSystem,
    f: Formula,
    es2: EquationSystem,
    f2: Formula,
) -> bool:
    return bisimilar(build_graph(es, f), build_graph(es2, f2))
