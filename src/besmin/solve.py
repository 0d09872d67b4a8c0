"""Two independent solution procedures for closed equation systems.

``solve_recursive`` evaluates the recursive solution definition literally
and serves as the ground-truth oracle.  It memoises each suffix of the
system on the values of the earlier variables that the suffix reads, so it
is exponential only in the variables that stay live across the system; it
refuses systems of more than ``ORACLE_MAX_EQUATIONS`` and stops with an
error after ``ORACLE_MAX_MEMO`` memo entries.
``solve_gauss`` eliminates from the last equation to the first and then
substitutes forward, on a hash-consed table of integer nodes: 0 is false,
1 is true, 2 + i is X_i, bound by equation i, and connectives ``(op, left,
right)``, op 1 for a conjunction.  Substituting for X_i reads only the
right-hand sides, and rebuilds only the nodes, whose ``top``, the greatest
i they mention, is i.  Each block of one connective, nested either way,
and each set load their highest operand outermost.  No formula walk
recurses.
"""

from __future__ import annotations

from typing import Mapping

from .errors import BesError
from .syntax import (
    NU,
    And,
    AndSet,
    Const,
    Equation,
    EquationSystem,
    Formula,
    Or,
    OrSet,
    Var,
    occ,
    require_closed,
)

Environment = Mapping[str, bool]


def eval_formula(f: Formula, env: Environment) -> bool:
    # operands are read left to right, as and/or would: a false one decides
    # a conjunction and a true one a disjunction, else the right one is next.
    # The members of a set are read in name order, as they print, so a
    # partial environment fails at the same name in every process
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
                value = (all if cls is AndSet else any)(env[x] for x in sorted(f.members))
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
# it within Python's recursion limit.
ORACLE_MAX_EQUATIONS = 500
# Its memo holds a suffix's solution once per valuation of the earlier
# variables the suffix reads, which is still exponential in the variables
# that stay live.  An entry, an int key and a pair, costs about 200 bytes, so
# the bound keeps the memo near 200 MB.
ORACLE_MAX_MEMO = 1_000_000


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
    equations = es.equations
    bits = {eq.lhs: 1 << i for i, eq in enumerate(equations)}
    # Bit j stands for X_j, bound by equation j.  needed[i] holds the bits of
    # the variables bound before i that equations i ... n-1 read.
    needed = [0] * len(equations)
    reads = 0
    for i in reversed(range(len(equations))):
        for x in occ(equations[i].rhs):
            reads |= bits.get(x, 0)
        needed[i] = reads & ((1 << i) - 1)
    solution = dict(env)
    _solve_from(equations, 0, 0, solution, needed, {})
    return solution


def _solve_from(
    equations: tuple[Equation, ...],
    i: int,
    path: int,
    env: dict[str, bool],
    needed: list[int],
    memo: dict,
):
    # Solves equations i ... n-1 in ``env`` and leaves their solution in it.
    # ``env`` holds the values of the variables bound before i, also as the
    # bits of ``path``, and the caller's values of the free variables, which
    # no call changes.  So the result is a function of i and the bits of
    # ``needed[i]`` in ``path`` alone, and it is memoised on them, with bit i
    # to tell the suffixes apart.  A free variable missing from ``env`` fails
    # only where evaluation reads it.  The result is X_i's value and the
    # result of the suffix from i + 1 that it extends, so each memo entry
    # adds one value.  It is not a closure: one that called itself would keep
    # ``memo`` in a reference cycle, which only the cyclic collector frees.
    if i == len(equations):
        return None
    bit = 1 << i
    key = path & needed[i] | bit
    result = memo.get(key)
    if result is not None:
        rest = result
        for j in range(i, len(equations)):
            env[equations[j].lhs], rest = rest
        return result
    eq = equations[i]
    assumed = env[eq.lhs] = eq.sign is NU
    rest = _solve_from(equations, i + 1, path | bit if assumed else path, env, needed, memo)
    value = eval_formula(eq.rhs, env)
    if value != assumed:
        env[eq.lhs] = value
        rest = _solve_from(equations, i + 1, path | bit if value else path, env, needed, memo)
    if len(memo) == ORACLE_MAX_MEMO:
        raise BesError(
            f"the recursive oracle keeps at most {ORACLE_MAX_MEMO} memo entries; "
            "this system needs more"
        )
    memo[key] = result = value, rest
    return result


# ---------------------------------------------------------------------------
# Gauss elimination


def solve_gauss(es: EquationSystem) -> dict[str, bool]:
    if not es.equations:
        raise BesError("cannot solve an empty equation system")
    require_closed(es)
    eqs = es.equations
    index = {eq.lhs: i + 2 for i, eq in enumerate(eqs)}
    nodes: list = [None] * (len(eqs) + 2)  # the connectives' (op, left, right)
    top = [-1, -1, *range(len(eqs))]
    table: dict = {}

    def make(op: int, a: int, b: int) -> int:  # folds constants and a op a
        if a > b:  # a node is newer than its operands: only b can hold a
            a, b = b, a
        if a < 2 or a == b:  # a constant (b too, if both are), or a op a
            return b if a == op or a == b else a
        if nodes[b] and nodes[b][0] == op and a in nodes[b][1:]:  # a op (a op c)
            return b
        u = table.setdefault((op, a, b), len(nodes))
        if u == len(nodes):
            nodes.append((op, a, b))
            top.append(max(top[a], top[b]))
        return u

    def load(f: Formula) -> int:  # a post-order loop
        todo, done = [f], []
        while todo:
            f = todo.pop()
            cls = f.__class__
            if cls is And or cls is Or:  # its whole block of one connective, as a set
                todo.append((int(cls is And), len(done)))
                stack = [f.left, f.right]
                while stack:  # its operands, in any order: the fold sorts them
                    g = stack.pop()
                    if g.__class__ is cls:
                        stack += g.left, g.right
                    elif g.__class__ is Var:
                        done.append(index[g.name])
                    else:
                        todo.append(g)
            elif cls is tuple:  # (op, start): done[start:], folded highest top outermost
                op, start = f
                u = op  # the connective's unit: true for a conjunction, false for a disjunction
                for v in sorted(done[start:], key=top.__getitem__):
                    u = make(op, v, u)
                done[start:] = [u]
            elif cls is Var:
                done.append(index[f.name])
            elif cls is Const:
                done.append(int(f.value))
            else:  # a set, folded as a block of its members
                todo.append((int(cls is AndSet), len(done)))
                done += map(index.__getitem__, f.members)
        return done.pop()

    def subst(u: int, i: int, g: int) -> int:  # u with g for X_i; top[u] == i
        memo, stack = {i + 2: g}, [u]
        while stack:
            v = stack.pop()
            if v not in memo:
                memo[v] = v
                stack += [w for w in nodes[v][1:] if top[w] == i]
        for v in sorted(memo)[1:]:  # after i + 2, children before parents
            op, a, b = nodes[v]
            memo[v] = make(op, memo.get(a, a), memo.get(b, b))
        return memo[u]

    rhss = [load(eq.rhs) for eq in eqs]
    by_top: list = [[] for _ in eqs]  # by_top[i]: the j < i with top[rhss[j]] == i
    for j, u in enumerate(rhss):
        if top[u] > j:
            by_top[top[u]].append(j)
    for i in reversed(range(len(eqs))):  # each rhss[j <= i] is over X_0 ... X_i
        if top[rhss[i]] == i:  # X_i's own equation first, by its sign
            rhss[i] = subst(rhss[i], i, int(eqs[i].sign is NU))
        for j in by_top[i]:
            rhss[j] = u = subst(rhss[j], i, rhss[i])
            if top[u] > j:  # else X_j's own step or back-substitution reads it
                by_top[top[u]].append(j)
    for j in range(len(eqs)):  # rhss[j] is over the solved X_0 ... X_(j-1)
        while rhss[j] > 1:
            rhss[j] = subst(rhss[j], top[rhss[j]], rhss[top[rhss[j]]])
    return {eq.lhs: u == 1 for eq, u in zip(eqs, rhss)}
