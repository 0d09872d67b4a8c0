"""Structure-graph construction and the graph-level transformations.

``build_graph`` implements the deduction rules for general closed
systems: constants are decorated ⊤/⊥, syntactic conjunctions and
disjunctions are decorated ▲/▽ with same-connective nesting flattened,
a change of leading operator produces an edge to the subterm node, and
bound variables carry their rank and inherit the structure of their
right-hand side.  ``build_srf_graph`` covers systems in standard
recursive form.  Both read each equation once, in one loop that goes on
to the subterm nodes it finds.  Both refuse a bound name that is no
identifier, as the parser does, so a node's label, its variable's name or
its term's canonical text, is unique in the graph and is its key.
``build_graph`` also takes a system's text.  If the text is flat, every
right-hand side one atom or a chain of atoms joined by one connective,
with no "(" or "{" anywhere, its graph has no subterm nodes and is read
without building formula trees: the left-hand sides are numbered first,
in label order after the constants, and then each equation, split once,
fills its variable's position in the graph's columns.  That reader
never raises: it declines any other text, which is parsed and built as a
system, so every error comes from the parser or the tree path.
``reduce_graph`` eliminates constant nodes and ``normalise_graph`` ranks
the remaining unranked nodes, after which the graph translates back into
an equation system in SRF.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Optional

from .errors import BesError, OpenSystemError, UnrankedCycleError
from .graph import AND, BOT, NONE, OR, TOP, Decoration, StructureGraph, _Ids, _unranked_order
from .parse import _KEYWORDS, _NAME_START, _padded, _require_identifiers, parse_bes
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


_CONSTANTS = {"true": Decoration(TOP), "false": Decoration(BOT)}
# the operator each class of formula gives its node, in each syntax
_GENERAL_OPS = {And: AND, Or: OR, Var: NONE, Const: NONE}
_SRF_OPS = {AndSet: AND, OrSet: OR, Var: NONE}
# the operator of a chain of atoms, in a flat system's text ("" for one atom)
_SEPARATORS = {"": NONE, "&&": AND, "||": OR}


def _graph(es: EquationSystem, t: Formula, ops: dict) -> StructureGraph:
    """The closure of ``t`` and the bound variables, in id order.

    Bound names must be identifiers: a ``BesError`` names the first that
    is not.  A node is keyed by its label: a variable's name or the text of
    any other formula, which no name equals.  One loop reads each equation,
    then each subterm node it finds, and gives the node its decoration (one
    per class and rank, the operator from ``ops``) and its successor keys:
    the members of an n-ary connective, or the leaves of the block of one
    connective, left to right, once each.  Each variable read is looked up
    among the bound names, so an unbound one, even with a node's label, or a
    class ``ops`` lacks, raises ``KeyError``, also where another formula of
    one text hides it.  Constants come first, then the rest by label.
    """
    rank = ranks(es)
    _require_identifiers(rank)
    shared: dict = {}  # (class, rank) -> Decoration
    deco: dict = dict(_CONSTANTS)  # key -> Decoration
    succ: dict = {}  # key -> successor keys; () for a constant
    terms: dict = {}  # subterm text -> formula
    subterms: list = []  # the worklist: (text, formula, None) in the order found

    def key_of(f: Formula) -> str:
        if f.__class__ is Const:
            key = "true" if f.value else "false"
            succ[key] = ()
            return key
        key = format_formula(f)
        if key not in terms:
            terms[key] = f
            subterms.append((key, f, None))
        elif terms[key] is not f and not occ(f) <= rank.keys():  # one formula if all bound
            raise KeyError(key)
        return key

    if t.__class__ is Var and t.name not in rank:
        raise KeyError(t.name)
    init = t.name if t.__class__ is Var else key_of(t)
    variables = zip(rank, [eq.rhs for eq in es.equations], rank.values())
    for x, f, r in chain(variables, subterms):
        cls = f.__class__
        deco[x] = shared.get((cls, r)) or shared.setdefault((cls, r), Decoration(ops[cls], r))
        if cls is And or cls is Or:
            # down each left spine, as the parser nests chains to the left
            keys: dict = {}
            stack = [f]
            while stack:
                g = stack.pop()
                while g.__class__ is cls:
                    stack.append(g.right)
                    g = g.left
                if g.__class__ is Var:
                    keys[g.name] = rank[g.name]  # the lookup refuses an unbound name
                else:
                    keys[key_of(g)] = None
            succ[x] = list(keys)
        elif cls is Var:
            if f.name not in rank:
                raise KeyError(f.name)
            succ[x] = [f.name]
        else:
            succ[x] = sorted(f.members) if cls is AndSet or cls is OrSet else [key_of(f)]
    labels = [c for c in _CONSTANTS if c in succ] + sorted([*rank, *terms])
    place = {key: j for j, key in enumerate(labels)}
    return StructureGraph(
        place[init],
        list(map(deco.__getitem__, labels)),
        [sorted(map(place.__getitem__, keys)) for keys in map(succ.__getitem__, labels)],
        labels,
        _Ids("n", len(labels)),
    )


def _flat_graph(text: str) -> Optional[StructureGraph]:
    """The structure graph of a flat system's text, or None to decline it.

    A system is flat if every right-hand side is one atom, a bound name or
    a constant, or a chain of atoms joined by one connective.  Its graph
    has no subterm nodes: each variable's successors are its atoms, once
    each, and its decoration is the chain's operator (none for one atom)
    at its rank.  The left-hand sides are the names: sorted, after the
    constants that occur as words, they are the labels, so every node has
    its position before an equation is read.  Each equation then fills its
    variable's position in the columns.  Any text with a "(" or a "{" is
    declined before it is padded, and so is every text the parser would
    reject or that is not closed, so this never raises.
    """
    padded = None if "(" in text or "{" in text else _padded(text)
    if padded is None:
        return None
    *equations, tail = padded.split(";")
    # each equation's words: "mu" or "nu", a name, "=", and the atoms with
    # a separator between each two
    rows = [equation.split() for equation in equations]
    if not rows or min(map(len, rows)) < 4 or tail.strip():
        return None
    names = sorted(map(itemgetter(1), rows))
    # a word that is no name starts with a digit, a prime or an operator;
    # the digits, the prime and "&&", "=" and "," sort before every name,
    # "||" and "}" after: the first and the last word tell
    if (
        names[0][0] not in _NAME_START
        or names[-1][0] not in _NAME_START
        or not _KEYWORDS.isdisjoint(names)
    ):
        return None
    # "true" or "false" inside a name is no constant
    labels = [c for c in _CONSTANTS if c in padded and c in chain.from_iterable(rows)]
    deco = [_CONSTANTS[label] for label in labels] + [None] * len(names)
    succ = [[] for _ in labels] + [None] * len(names)
    labels += names
    # a name bound twice keeps one position, which its second equation
    # finds filled; an atom that is not a name bound here, nor a constant,
    # has none
    place = dict(zip(labels, range(len(labels))))
    shared: dict = {}  # separator -> Decoration, at the rank of the equation
    sign, r = "nu", 0
    try:
        for row in rows:
            if len(row) % 2 or row[2] != "=":
                return None
            x = place[row[1]]
            if deco[x] is not None:  # bound twice
                return None
            if row[0] != sign:
                if row[0] != "mu" and row[0] != "nu":
                    return None
                sign, r, shared = row[0], r + 1, {}
            if len(row) == 4:
                separator, succ[x] = "", [place[row[3]]]
            else:
                separator, separators = row[4], row[4::2]
                if separators.count(separator) != len(separators):
                    return None
                succ[x] = sorted(set(map(place.__getitem__, row[3::2])))
            deco[x] = shared.get(separator) or shared.setdefault(
                separator, Decoration(_SEPARATORS[separator], r)
            )
    except KeyError:  # an atom that is no bound name or constant, or a separator
        return None
    return StructureGraph(place[rows[0][1]], deco, succ, labels, _Ids("n", len(labels)))


def _require_bound(es: EquationSystem, t: Formula) -> None:
    unbound = occ(t) - bnd(es)
    if unbound:
        raise OpenSystemError(
            f"formula mentions unbound variables: {', '.join(sorted(unbound))}"
        )


def build_graph(es: EquationSystem | str, t: Optional[Formula] = None) -> StructureGraph:
    """Structure graph of formula ``t`` in the context of a closed system.

    The node set is the part reachable from ``t`` together with all bound
    variables.  ``es`` may also be the system's text: with ``t`` None, a
    flat system is read straight into the graph's columns, and any other
    text is parsed first, which raises its errors.
    """
    if isinstance(es, str):
        graph = _flat_graph(es) if t is None else None
        if graph is not None:
            return graph
        es = parse_bes(es)
    _require_nonempty(es)
    if t is None:
        t = Var(least_variable(es))
    try:
        return _graph(es, t, _GENERAL_OPS)
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
    return _graph(es, t, _SRF_OPS)


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
