"""Shared helpers for the test suite."""

from __future__ import annotations

import functools
import gc
import sys

import pytest

import besmin as bm


@pytest.fixture
def collector():
    """Put the cyclic collector back as it was before the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


# the recursion limit a besmin process starts with; Hypothesis raises it
# around each example, which would hide a recursion once per nesting level
RECURSION_LIMIT = sys.getrecursionlimit()


def at_recursion_limit(test):
    """``test`` run at ``RECURSION_LIMIT``; put it under ``@given``."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            return test(*args, **kwargs)
        finally:
            sys.setrecursionlimit(limit)

    return run


def oracle(es: bm.EquationSystem) -> dict[str, bool]:
    """Recursive-definition solution, restricted to the bound variables."""
    return {x: v for x, v in bm.solve_recursive(es, {}).items() if x in bm.bnd(es)}


def reference_oracle(es: bm.EquationSystem, env) -> dict[str, bool]:
    """The recursive oracle with its memo keyed on the whole environment,
    each result a copy of it: exponential in every variable, the yardstick
    that ``solve_recursive`` must match on small systems."""
    return dict(_reference_solve_from(es.equations, 0, dict(env), {}))


def _reference_solve_from(equations, i, env, memo):
    if i == len(equations):
        return env
    key = (i, frozenset(env.items()))
    cached = memo.get(key)
    if cached is not None:
        return cached
    eq = equations[i]
    inner = _reference_solve_from(equations, i + 1, {**env, eq.lhs: eq.sign is bm.Fixpoint.NU}, memo)
    value = bm.eval_formula(eq.rhs, inner)
    result = _reference_solve_from(equations, i + 1, {**env, eq.lhs: value}, memo)
    memo[key] = result
    return result


def reference_formula_key(f: bm.Formula):
    """True before false before every other formula, in canonical text order."""
    if isinstance(f, bm.Const):
        return (0, 0 if f.value else 1, "")
    return (1, 0, bm.format_formula(f))


def _reference_nest(op, operands: list[tuple]) -> bm.Formula:
    if len(operands) == 1:
        return operands[0][1]
    unique = dict(operands)
    keys = sorted(unique)
    result = unique[keys.pop()]
    for k in reversed(keys):
        result = op(unique[k], result)
    return result


def reference_translate(g: bm.StructureGraph):
    """``translate`` as formula trees: the initial formula, the equation
    system and the node names, each term's operands sorted by
    ``reference_formula_key`` and nested to the right; the yardstick whose
    printed text ``translate`` must give."""
    violations = bm.is_bessy(g)
    if violations:
        raise bm.NotBessyError("; ".join(violations))
    rank = [d.rank for d in g.deco]
    ranked = sorted([u for u, r in enumerate(rank) if r is not None], key=rank.__getitem__)
    rest = [u for u, r in enumerate(rank) if r is None]
    names = [""] * len(g.ids)
    for i, u in enumerate(ranked + rest):
        names[u] = f"X{i}"
    operands: list = [None] * len(g.ids)
    for u in ranked:
        operands[u] = (1, 0, names[u]), bm.Var(names[u])
    for u in _reference_unranked_order(g):
        op = g.deco[u].op
        if op in (bm.Op.AND, bm.Op.OR):
            connective = bm.And if op is bm.Op.AND else bm.Or
            term = _reference_nest(connective, [operands[v] for v in g.succ[u]])
        elif op in (bm.Op.TOP, bm.Op.BOT):
            term = bm.Const(op is bm.Op.TOP)
        else:
            term = bm.Var(names[u])
        operands[u] = reference_formula_key(term), term
    equations = []
    for u in ranked:
        sign = bm.Fixpoint.MU if rank[u] % 2 == 1 else bm.Fixpoint.NU
        connective = bm.And if g.deco[u].op is bm.Op.AND else bm.Or
        rhs = _reference_nest(connective, [operands[v] for v in g.succ[u]])
        equations.append(bm.Equation(sign, names[u], rhs))
    return operands[g.init][1], bm.EquationSystem(tuple(equations)), names


def _reference_unranked_order(g: bm.StructureGraph) -> list[int]:
    """The unranked nodes, each after its unranked successors (an acyclic
    subgraph, as ``is_bessy`` checked)."""
    order: dict[int, None] = {}
    for root, d in enumerate(g.deco):
        stack = [(root, False)] if d.rank is None else []
        while stack:
            u, expanded = stack.pop()
            if u in order:
                continue
            if expanded:
                order[u] = None
                continue
            stack.append((u, True))
            stack += ((v, False) for v in reversed(g.succ[u]) if g.deco[v].rank is None)
    return list(order)


def graph(init, deco, edges, labels=None) -> bm.StructureGraph:
    """A graph from ``deco``, a dict of nodes keyed by id and listed in id
    order, edges as id pairs and labels keyed by id (default: the ids)."""
    ids = list(deco)
    position = {u: i for i, u in enumerate(ids)}
    succ = [set() for _ in ids]
    for a, b in edges:
        succ[position[a]].add(position[b])
    labels = labels or {u: u for u in ids}
    return bm.StructureGraph(
        position[init],
        list(deco.values()),
        [sorted(vs) for vs in succ],
        [labels[u] for u in ids],
        ids,
    )


def chain(links: int) -> str:
    """``nu X{i} = X{i+1} && X{i+1}`` for each link, ending in ``false``.

    Nothing merges: ``X{i}`` is ``links - i`` links away from ``false``.
    """
    body = "".join(f"nu X{i} = X{i + 1} && X{i + 1};\n" for i in range(links))
    return body + f"nu X{links} = false;\n"


def by_label(g: bm.StructureGraph) -> dict[str, int]:
    """Map node labels to nodes (labels are unique in built graphs)."""
    return {label: u for u, label in enumerate(g.labels)}


def edges_by_label(g: bm.StructureGraph) -> set[tuple[str, str]]:
    return {(g.labels[a], g.labels[b]) for a, b in g.edges}


def relabelled(g: bm.StructureGraph) -> bm.StructureGraph:
    """``g`` with every node renamed by its label."""
    order = sorted(range(len(g.ids)), key=g.labels.__getitem__)
    return graph(
        g.labels[g.init],
        {g.labels[u]: g.deco[u] for u in order},
        edges_by_label(g),
    )
