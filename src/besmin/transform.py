"""Syntax-level transformations: SRF conversion and the binary-connective
embedding of SRF formulae."""

from __future__ import annotations

from .errors import BesError
from .syntax import (
    And,
    AndSet,
    Const,
    Equation,
    EquationSystem,
    Fixpoint,
    Formula,
    Or,
    OrSet,
    Var,
    bnd,
    is_srf,
    require_closed,
)


def to_srf(es: EquationSystem) -> EquationSystem:
    """Rewrite a closed system into standard recursive form.

    Fresh equations are introduced for maximal subterms whose leading
    operator differs from their context, placed directly after the host
    equation with the host's sign; constants become dedicated
    self-referential equations appended at the end.  Solutions of the
    original bound variables are preserved.
    """
    if not es.equations:
        raise BesError("cannot convert the empty system to SRF")
    require_closed(es)
    if is_srf(es):
        return es
    taken = bnd(es)

    def fresh(base: str) -> str:
        k = 1
        while f"{base}_{k}" in taken:
            k += 1
        taken.add(f"{base}_{k}")
        return f"{base}_{k}"

    consts: dict[bool, str] = {}  # named at first use, in reading order

    def constant(value: bool) -> str:
        if value not in consts:
            consts[value] = fresh("TRUE" if value else "FALSE")
        return consts[value]

    out: list[Equation] = []
    for eq in es:
        sign, rhs = eq.sign, eq.rhs
        if rhs.__class__ is Const:
            rhs = Var(constant(rhs.value))
        if rhs.__class__ is not And and rhs.__class__ is not Or:
            out.append(Equation(sign, eq.lhs, rhs))
            continue
        # A frame is one block: its variable, its connective, the operands
        # still to read (the next one last) and the members read so far.
        # A block's equation follows those of the blocks it holds; the
        # host's finishes last and goes first.
        stack = [(eq.lhs, rhs.__class__, [rhs], [])]
        aux: list[Equation] = []
        while stack:
            x, cls, todo, members = stack[-1]
            same_set = AndSet if cls is And else OrSet
            if not todo:
                stack.pop()
                aux.append(Equation(sign, x, same_set(frozenset(members))))
                continue
            f = todo.pop()
            if f.__class__ is cls:
                todo += f.right, f.left
            elif f.__class__ is same_set:
                members += f.members
            elif f.__class__ is Var:
                members.append(f.name)
            elif f.__class__ is Const:
                members.append(constant(f.value))
            else:
                members.append(fresh(x))
                if f.__class__ is And or f.__class__ is Or:
                    stack.append((members[-1], f.__class__, [f], []))
                else:
                    aux.append(Equation(sign, members[-1], f))
        out.append(aux.pop())
        out += aux
    for value, fixpoint in ((True, Fixpoint.NU), (False, Fixpoint.MU)):
        if value in consts:
            out.append(Equation(fixpoint, consts[value], Var(consts[value])))
    return EquationSystem(tuple(out))


def hbar(es: EquationSystem) -> EquationSystem:
    """Embed a system in SRF into binary-connective syntax by repeatedly
    splitting off the least member; singleton sets are duplicated."""
    if not is_srf(es):
        raise BesError("the embedding is defined for systems in SRF only")
    return EquationSystem(
        tuple(Equation(eq.sign, eq.lhs, hbar_formula(eq.rhs)) for eq in es)
    )


def hbar_formula(f: Formula) -> Formula:
    if isinstance(f, Var):
        return f
    if isinstance(f, (AndSet, OrSet)):
        cls = And if isinstance(f, AndSet) else Or
        # built from the greatest member, which is duplicated, down to the
        # least, which splits off first
        members = sorted(f.members, reverse=True)
        last = Var(members[0])
        term = cls(last, last)
        for x in members[1:]:
            term = cls(Var(x), term)
        return term
    raise BesError("formula is not in SRF syntax")
