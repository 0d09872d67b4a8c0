"""Two independent solution procedures for closed equation systems.

``solve_recursive`` evaluates the recursive solution definition literally
and serves as the ground-truth oracle (exponential, fine up to ~15
variables).  ``solve_gauss`` is a substitution solver: right-to-left
self-elimination with constant folding, then left-to-right
back-substitution.
"""

from __future__ import annotations

from typing import Mapping

from .errors import BesError
from .syntax import (
    And,
    AndSet,
    Const,
    EquationSystem,
    Fixpoint,
    Formula,
    Or,
    OrSet,
    Var,
    require_closed,
)

Environment = Mapping[str, bool]
Assignment = dict


def eval_formula(f: Formula, env: Environment) -> bool:
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        try:
            return env[f.name]
        except KeyError:
            raise BesError(f"variable {f.name} is outside the environment domain")
    if isinstance(f, And):
        return eval_formula(f.left, env) and eval_formula(f.right, env)
    if isinstance(f, Or):
        return eval_formula(f.left, env) or eval_formula(f.right, env)
    if isinstance(f, AndSet):
        return all(eval_formula(Var(x), env) for x in f.members)
    if isinstance(f, OrSet):
        return any(eval_formula(Var(x), env) for x in f.members)
    raise TypeError(f"not a formula: {f!r}")


def solve_recursive(es: EquationSystem, env: Environment) -> dict[str, bool]:
    """The literal recursive solution semantics.

    Works for open systems given a total environment; for closed systems
    the restriction to the bound variables is the solution.
    """

    # ``go`` is a pure function of its arguments, so identical calls (which
    # the literal recursion produces in abundance) can share one result.
    memo: dict[tuple[int, frozenset], dict[str, bool]] = {}

    def go(i: int, env: dict[str, bool]) -> dict[str, bool]:
        if i == len(es.equations):
            return env
        key = (i, frozenset(env.items()))
        cached = memo.get(key)
        if cached is not None:
            return cached
        eq = es.equations[i]
        base = eq.sign == Fixpoint.NU
        inner = go(i + 1, {**env, eq.lhs: base})
        value = eval_formula(eq.rhs, inner)
        result = go(i + 1, {**env, eq.lhs: value})
        memo[key] = result
        return result

    return dict(go(0, dict(env)))


# ---------------------------------------------------------------------------
# Gauss elimination


def _fold(f: Formula) -> Formula:
    # Only constant-adjacent folding; no idempotency or absorption, so the
    # solver never hides structure the graph pipeline is supposed to see.
    if isinstance(f, And):
        if isinstance(f.left, Const):
            return f.right if f.left.value else Const(False)
        if isinstance(f.right, Const):
            return f.left if f.right.value else Const(False)
    if isinstance(f, Or):
        if isinstance(f.left, Const):
            return Const(True) if f.left.value else f.right
        if isinstance(f.right, Const):
            return Const(True) if f.right.value else f.left
    return f


def _subst(f: Formula, x: str, g: Formula) -> Formula:
    if isinstance(f, Const):
        return f
    if isinstance(f, Var):
        return g if f.name == x else f
    if isinstance(f, And):
        return _fold(And(_subst(f.left, x, g), _subst(f.right, x, g)))
    if isinstance(f, Or):
        return _fold(Or(_subst(f.left, x, g), _subst(f.right, x, g)))
    if isinstance(f, (AndSet, OrSet)):
        if x not in f.members:
            return f
        rest = f.members - {x}
        conj = isinstance(f, AndSet)
        if isinstance(g, Const):
            if g.value != conj:
                return g  # absorbing constant
            if not rest:
                return g
            return type(f)(rest)
        if isinstance(g, Var):
            return type(f)(rest | {g.name})
        if not rest:
            return g
        pair = And(g, AndSet(rest)) if conj else Or(g, OrSet(rest))
        return _fold(pair)
    raise TypeError(f"not a formula: {f!r}")


def solve_gauss(es: EquationSystem) -> dict[str, bool]:
    if not es.equations:
        raise BesError("cannot solve an empty equation system")
    require_closed(es)
    eqs = es.equations
    rhss = [eq.rhs for eq in eqs]
    for i in reversed(range(len(eqs))):
        self_value = Const(eqs[i].sign == Fixpoint.NU)
        solved = _subst(rhss[i], eqs[i].lhs, self_value)
        rhss[i] = solved
        for j in range(i):
            rhss[j] = _subst(rhss[j], eqs[i].lhs, solved)
    assignment: dict[str, bool] = {}
    for eq, f in zip(eqs, rhss):
        assignment[eq.lhs] = eval_formula(f, assignment)
    return assignment
