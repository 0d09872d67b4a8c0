"""Two independent solution procedures for closed equation systems.

``solve_recursive`` evaluates the recursive solution definition literally
and serves as the ground-truth oracle: exponential, fine up to about 15
variables, and refusing systems of more than ``ORACLE_MAX_EQUATIONS``.
``solve_gauss`` is a substitution solver: right-to-left self-elimination
with constant folding, then left-to-right back-substitution.
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
    require_closed,
)

Environment = Mapping[str, bool]


def eval_formula(f: Formula, env: Environment) -> bool:
    cls = f.__class__
    if cls is And or cls is Or:
        # read the block's operands left to right, as and/or would: a false
        # one decides a conjunction and a true one a disjunction
        decisive, stack = cls is Or, [f.right, f.left]
        while stack:
            g = stack.pop()
            if g.__class__ is cls:
                stack += g.right, g.left
            elif eval_formula(g, env) == decisive:
                return decisive
        return not decisive
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


# The oracle nests one call per equation, so a bound on the equations keeps
# it within Python's recursion limit; below it, it is exponential anyway.
ORACLE_MAX_EQUATIONS = 500


def require_oracle_size(es: EquationSystem) -> None:
    if len(es.equations) > ORACLE_MAX_EQUATIONS:
        raise BesError(
            f"the recursive oracle solves at most {ORACLE_MAX_EQUATIONS} "
            f"equations; this system has {len(es.equations)}"
        )


def solve_recursive(es: EquationSystem, env: Environment) -> dict[str, bool]:
    """The literal recursive solution semantics.

    Works for open systems given a total environment; for closed systems
    the restriction to the bound variables is the solution.
    """
    require_oracle_size(es)
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
        # the block's operands, substituted left to right and folded into a
        # left-nested chain
        result, stack = None, [f.right, f.left]
        while stack:
            h = stack.pop()
            if h.__class__ is cls:
                stack += h.right, h.left
            elif result is None:
                result = _subst(h, x, g)
            else:
                result = _fold(cls(result, _subst(h, x, g)))
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
