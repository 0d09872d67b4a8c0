"""Syntax-level transformations: SRF conversion and the binary-connective
embedding of SRF formulae."""

from __future__ import annotations

from typing import Optional

from .errors import BesError, OpenSystemError
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
    is_closed,
    is_srf,
)


class _Names:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        k = 1
        candidate = f"{base}_{k}"
        while candidate in self.taken:
            k += 1
            candidate = f"{base}_{k}"
        self.taken.add(candidate)
        return candidate


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
    if not is_closed(es):
        raise OpenSystemError("SRF conversion requires a closed system")
    if is_srf(es):
        return es
    names = _Names(bnd(es))
    true_name: Optional[str] = None
    false_name: Optional[str] = None

    def const_name(value: bool) -> str:
        nonlocal true_name, false_name
        if value:
            if true_name is None:
                true_name = names.fresh("TRUE")
            return true_name
        if false_name is None:
            false_name = names.fresh("FALSE")
        return false_name

    def leaves(f: Formula, conj: bool, host: str, sign, aux: list) -> list[str]:
        # collect the member variables of a maximal same-operator block,
        # left to right
        same, other = (And, AndSet) if conj else (Or, OrSet)
        members, stack = [], [f]
        while stack:
            f = stack.pop()
            if isinstance(f, same):
                stack.append(f.right)
                stack.append(f.left)
            elif isinstance(f, other):
                members.extend(sorted(f.members))
            elif isinstance(f, Var):
                members.append(f.name)
            elif isinstance(f, Const):
                members.append(const_name(f.value))
            else:
                fresh = names.fresh(host)
                aux.append(Equation(sign, fresh, srf_rhs(f, fresh, sign, aux)))
                members.append(fresh)
        return members

    def srf_rhs(f: Formula, host: str, sign, aux: list) -> Formula:
        if isinstance(f, (Var, AndSet, OrSet)):
            return f
        if isinstance(f, Const):
            return Var(const_name(f.value))
        conj = isinstance(f, And)
        members = leaves(f, conj, host, sign, aux)
        cls = AndSet if conj else OrSet
        return cls(frozenset(members))

    out: list[Equation] = []
    for eq in es:
        aux: list[Equation] = []
        new_rhs = srf_rhs(eq.rhs, eq.lhs, eq.sign, aux)
        out.append(Equation(eq.sign, eq.lhs, new_rhs))
        out.extend(aux)
    if true_name is not None:
        out.append(Equation(Fixpoint.NU, true_name, Var(true_name)))
    if false_name is not None:
        out.append(Equation(Fixpoint.MU, false_name, Var(false_name)))
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
