"""Model-checking inputs for the ``mc-minimise`` workload.

A seeded base labelled transition system (LTS) is replicated ``copies``
times by a counter modulo ``copies`` that every transition increments.
No formula can observe the counter, so the replicas of a state are
bisimilar and minimisation must collapse them.  The product is encoded
as a Boolean equation system (BES) for two formulas, in the standard
LTS x fixpoint-formula encoding (Mader 1997; Groote & Willemse 2005):

- "infinitely often a", nu X. mu Y. (<a>X || <->Y), alternation depth 2:

      nu X_i = Y_i;
      mu Y_i = X_j (for each a-successor j) || Y_k (for each successor k);

- deadlock freedom, nu X. (<->true && [-]X), alternation-free and with
  constants:

      nu X_i = true && X_k (for each successor k);   (false && true at a deadlock)

Reference answers come from graph algorithms on the product LTS, never
from a BES solver: "infinitely often a" holds in a state iff it can
reach a strongly connected component containing an a-edge; deadlock
freedom holds iff it cannot reach a deadlock state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REGION = 8  # states per region of the base LTS


@dataclass(frozen=True)
class Lts:
    """Transitions per state, as (label, target) pairs; no pairs = deadlock."""

    succ: tuple[tuple[tuple[str, int], ...], ...]

    @property
    def states(self) -> int:
        return len(self.succ)


def base_lts(states: int, seed: int) -> Lts:
    """Random LTS whose regions form a binary tree.

    Each region of ``REGION`` states is internally random; a few edges lead
    into the two child regions.  Regions differ in whether they hold a
    deadlock and whether their edges may carry label ``a``, so the answers
    of both formulas vary with the part of the tree a state can reach.
    The region kinds follow a fixed pattern rather than the seed, so that
    how far an LTS minimises varies little from seed to seed.
    """
    rng = random.Random(f"lts|{seed}|{states}")
    regions = (states + REGION - 1) // REGION
    has_deadlock = [r % 3 == 1 for r in range(regions)]
    a_prob = [0.0 if r % 5 in (0, 2) else 0.4 for r in range(regions)]

    def region_states(r: int) -> range:
        return range(r * REGION, min(states, (r + 1) * REGION))

    succ = []
    for s in range(states):
        r = s // REGION
        own = region_states(r)
        if has_deadlock[r] and s == own[-1]:
            succ.append(())
            continue
        edges = []
        for _ in range(rng.randint(1, 2)):
            label = "a" if rng.random() < a_prob[r] else "b"
            edges.append((label, rng.choice(own)))
        children = [c for c in (2 * r + 1, 2 * r + 2) if c < regions]
        if children and rng.random() < 0.2:
            edges.append(("b", rng.choice(region_states(rng.choice(children)))))
        succ.append(tuple(edges))
    return Lts(tuple(succ))


def replicate(base: Lts, copies: int) -> Lts:
    """Product with a counter modulo ``copies``: state (s, k) is s * copies + k."""
    succ = []
    for s in range(base.states):
        for k in range(copies):
            nxt = (k + 1) % copies
            succ.append(tuple((label, t * copies + nxt) for label, t in base.succ[s]))
    return Lts(tuple(succ))


def _name(var: str, state: int) -> str:
    return f"{var}_{state}"


def encode_inf_a(lts: Lts) -> str:
    lines = [f"nu {_name('X', i)} = {_name('Y', i)};" for i in range(lts.states)]
    for i, edges in enumerate(lts.succ):
        terms = [_name("X", t) for label, t in edges if label == "a"]
        terms += [_name("Y", t) for _, t in edges]
        lines.append(f"mu {_name('Y', i)} = {' || '.join(terms) or 'false'};")
    return "".join(line + "\n" for line in lines)


def encode_deadlock_free(lts: Lts) -> str:
    lines = []
    for i, edges in enumerate(lts.succ):
        if edges:
            rhs = " && ".join(["true"] + [_name("X", t) for _, t in edges])
        else:
            rhs = "false && true"
        lines.append(f"nu {_name('X', i)} = {rhs};")
    return "".join(line + "\n" for line in lines)


def equation_count(formula: str, states: int) -> int:
    """Equations in the encoding of an LTS with ``states`` states."""
    return 2 * states if formula == "inf-a" else states


ENCODERS = {"inf-a": encode_inf_a, "deadlock-free": encode_deadlock_free}


# ---------------------------------------------------------------------------
# Reference answers from the LTS


def _sccs(lts: Lts) -> list[int]:
    """Component index of every state (iterative Tarjan)."""
    n = lts.states
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            edges = lts.succ[v]
            if i < len(edges):
                work[-1] = (v, i + 1)
                w = edges[i][1]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = components
                    if w == v:
                        break
                components += 1
    return comp


def _can_reach(lts: Lts, targets: set[int]) -> list[bool]:
    pred: list[list[int]] = [[] for _ in range(lts.states)]
    for s, edges in enumerate(lts.succ):
        for _, t in edges:
            pred[t].append(s)
    seen = [False] * lts.states
    stack = list(targets)
    for t in targets:
        seen[t] = True
    while stack:
        t = stack.pop()
        for s in pred[t]:
            if not seen[s]:
                seen[s] = True
                stack.append(s)
    return seen


def inf_a_holds(lts: Lts) -> list[bool]:
    """Per state: some path from it takes label ``a`` infinitely often."""
    comp = _sccs(lts)
    good = {
        s
        for s, edges in enumerate(lts.succ)
        for label, t in edges
        if label == "a" and comp[s] == comp[t]
    }
    return _can_reach(lts, good)


def deadlock_free_holds(lts: Lts) -> list[bool]:
    """Per state: no deadlock state is reachable from it."""
    deadlocks = {s for s, edges in enumerate(lts.succ) if not edges}
    return [not r for r in _can_reach(lts, deadlocks)]


def reference(formula: str, lts: Lts) -> dict[str, bool]:
    """Reference solution of every bound variable of the encoding."""
    if formula == "inf-a":
        holds = inf_a_holds(lts)
        values = {_name("X", i): v for i, v in enumerate(holds)}
        values.update({_name("Y", i): v for i, v in enumerate(holds)})
        return values
    return {_name("X", i): v for i, v in enumerate(deadlock_free_holds(lts))}
