"""Two independent solution procedures for closed equation systems.

``solve_recursive`` evaluates the recursive solution definition literally
and serves as the ground-truth oracle: exponential, fine up to about 15
variables, and refusing systems of more than ``ORACLE_MAX_EQUATIONS``.
``solve_gauss`` is a substitution solver: right-to-left self-elimination
with constant folding, then left-to-right back-substitution.  Formulas are
evaluated and substituted by loops with explicit stacks, not by recursion.
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
    # operands are read left to right, as and/or would: a false one decides
    # a conjunction and a true one a disjunction, else the right one is next
    waiting = []  # the connectives whose left operand is being read
    try:
        while True:
            cls = f.__class__
            while cls is And or cls is Or:
                waiting.append(f)
                f = f.left
                cls = f.__class__
            if cls is Var:
                value = env[f.name]
            elif cls is Const:
                value = f.value
            elif cls is AndSet or cls is OrSet:
                value = (all if cls is AndSet else any)(env[x] for x in f.members)
            else:
                raise TypeError(f"not a formula: {f!r}")
            while waiting and (waiting[-1].__class__ is Or) == value:
                waiting.pop()
            if not waiting:
                return value
            f = waiting.pop().right
    except KeyError as missing:
        raise BesError(f"variable {missing.args[0]} is outside the environment domain")


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


_AND, _OR = object(), object()  # on _subst's stack: fold a connective's operands


def _subst(f: Formula, x: str, g: Formula) -> Formula:
    # a post-order loop down each left spine; a right operand waits on the
    # stack above its connective's marker, and its left one on ``done``.
    # Only constants fold, no idempotency or absorption, so the solver
    # never hides structure the graph pipeline is supposed to see.
    todo, done = [], []
    while True:
        cls = f.__class__
        while cls is And or cls is Or:
            todo += _AND if cls is And else _OR, f.right
            f = f.left
            cls = f.__class__
        if cls is Var:
            result = g if f.name == x else f
        elif cls is Const:
            result = f
        elif cls is AndSet or cls is OrSet:
            if x in f.members:  # as the left-nested chain of its sorted members
                f = reduce(And if cls is AndSet else Or, map(Var, sorted(f.members)))
                continue
            result = f
        else:
            raise TypeError(f"not a formula: {f!r}")
        while todo:
            f = todo.pop()
            if f is not _AND and f is not _OR:
                done.append(result)
                break
            left = done.pop()
            op, stop = (And, FALSE) if f is _AND else (Or, TRUE)  # stop decides op
            if left.__class__ is Const:
                result = stop if left.value == stop.value else result
            elif result.__class__ is Const:
                result = stop if result.value == stop.value else left
            else:
                result = op(left, result)
        else:
            return result


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
