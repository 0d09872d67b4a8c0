"""Two independent solution procedures for closed equation systems.

``solve_recursive`` evaluates the recursive solution definition literally
and serves as the ground-truth oracle (exponential, fine up to ~15
variables).  ``solve_gauss`` is a substitution solver: right-to-left
self-elimination with constant folding, then left-to-right
back-substitution.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping

from .errors import BesError
from .syntax import (
    FALSE,
    NU,
    TRUE,
    And,
    AndSet,
    Const,
    Equation,
    EquationSystem,
    Formula,
    Or,
    OrSet,
    Var,
    _spine,
    require_closed,
)

Environment = Mapping[str, bool]


def eval_formula(f: Formula, env: Environment) -> bool:
    cls = f.__class__
    if cls is And or cls is Or:
        # read the operands left to right, as and/or would: a false one
        # decides a conjunction and a true one a disjunction
        f, rights = _spine(f)
        value = eval_formula(f, env)
        while rights and (not value) is (cls is Or):
            value = eval_formula(rights.pop(), env)
        return value
    if cls is Var:
        try:
            return env[f.name]
        except KeyError:
            raise BesError(f"variable {f.name} is outside the environment domain")
    if cls is Const:
        return f.value
    if cls is AndSet:
        return all(eval_formula(Var(x), env) for x in f.members)
    if cls is OrSet:
        return any(eval_formula(Var(x), env) for x in f.members)
    raise TypeError(f"not a formula: {f!r}")


def solve_recursive(es: EquationSystem, env: Environment) -> dict[str, bool]:
    """The literal recursive solution semantics.

    Works for open systems given a total environment; for closed systems
    the restriction to the bound variables is the solution.
    """
    return dict(_solve_from(es.equations, 0, dict(env), {}))


def _solve_from(
    equations: tuple[Equation, ...], i: int, env: dict[str, bool], memo: dict
) -> dict[str, bool]:
    # A pure function of ``i`` and ``env``, so identical calls (which the
    # literal recursion produces in abundance) share one result.  It is not
    # a closure: one that called itself would keep ``memo`` in a reference
    # cycle, which only the cyclic collector frees.
    if i == len(equations):
        return env
    key = (i, frozenset(env.items()))
    cached = memo.get(key)
    if cached is not None:
        return cached
    eq = equations[i]
    inner = _solve_from(equations, i + 1, {**env, eq.lhs: eq.sign is NU}, memo)
    value = eval_formula(eq.rhs, inner)
    result = _solve_from(equations, i + 1, {**env, eq.lhs: value}, memo)
    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# Gauss elimination


def _fold(f: Formula) -> Formula:
    # Only constant-adjacent folding; no idempotency or absorption, so the
    # solver never hides structure the graph pipeline is supposed to see.
    if isinstance(f, And):
        if isinstance(f.left, Const):
            return f.right if f.left.value else FALSE
        if isinstance(f.right, Const):
            return f.left if f.right.value else FALSE
    if isinstance(f, Or):
        if isinstance(f.left, Const):
            return TRUE if f.left.value else f.right
        if isinstance(f.right, Const):
            return TRUE if f.right.value else f.left
    return f


def _subst(f: Formula, x: str, g: Formula) -> Formula:
    cls = f.__class__
    if cls is And or cls is Or:
        # rebuilt innermost first, folding at every level
        f, rights = _spine(f)
        result = _subst(f, x, g)
        while rights:
            result = _fold(cls(result, _subst(rights.pop(), x, g)))
        return result
    if cls is Var:
        return g if f.name == x else f
    if cls is Const:
        return f
    if cls is AndSet or cls is OrSet:
        if x not in f.members:
            return f
        # substituted as the left-nested chain of its sorted members
        chain = reduce(And if cls is AndSet else Or, map(Var, sorted(f.members)))
        return _subst(chain, x, g)
    raise TypeError(f"not a formula: {f!r}")


def solve_gauss(es: EquationSystem) -> dict[str, bool]:
    if not es.equations:
        raise BesError("cannot solve an empty equation system")
    require_closed(es)
    eqs = es.equations
    rhss = [eq.rhs for eq in eqs]
    for i in reversed(range(len(eqs))):
        self_value = TRUE if eqs[i].sign is NU else FALSE
        solved = _subst(rhss[i], eqs[i].lhs, self_value)
        rhss[i] = solved
        for j in range(i):
            rhss[j] = _subst(rhss[j], eqs[i].lhs, solved)
    assignment: dict[str, bool] = {}
    for eq, f in zip(eqs, rhss):
        assignment[eq.lhs] = eval_formula(f, assignment)
    return assignment
