"""Syntax-level transformations: SRF conversion, the binary-connective
embedding of SRF formulae, and solution-preserving equation reordering."""

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
    occ,
    ranks,
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
        # collect the member variables of a maximal same-operator block
        same, other = (And, AndSet) if conj else (Or, OrSet)
        if isinstance(f, same):
            return leaves(f.left, conj, host, sign, aux) + leaves(
                f.right, conj, host, sign, aux
            )
        if isinstance(f, other):
            return sorted(f.members)
        if isinstance(f, Var):
            return [f.name]
        if isinstance(f, Const):
            return [const_name(f.value)]
        fresh = names.fresh(host)
        aux.append(Equation(sign, fresh, srf_rhs(f, fresh, sign, aux)))
        return [fresh]

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
        conj = isinstance(f, AndSet)
        cls = And if conj else Or
        members = sorted(f.members)
        if len(members) == 1:
            x = Var(members[0])
            return cls(x, x)
        least = members[0]
        rest = type(f)(frozenset(members[1:]))
        return cls(Var(least), hbar_formula(rest))
    raise BesError("formula is not in SRF syntax")


def move_equation(
    es: EquationSystem,
    source: int,
    target: int,
    new_sign: Optional[Fixpoint] = None,
) -> EquationSystem:
    """Move the equation at ``source`` so it ends up at index ``target``.

    Sound per the moving lemma: apart from the defined variable itself,
    the right-hand side may not mention anything bound at or after the
    source position (when moving right) or the target position (when
    moving left).  A sign change additionally requires the equation not
    to be self-referential.
    """
    eqs = list(es.equations)
    if not (0 <= source < len(eqs)) or not (0 <= target < len(eqs)):
        raise IndexError("equation index out of range")
    eq = eqs[source]
    sign = new_sign if new_sign is not None else eq.sign
    if source == target and sign == eq.sign:
        return es
    occurring = occ(eq.rhs)
    if sign != eq.sign and eq.lhs in occurring:
        raise BesError(
            f"cannot change the sign of the equation for {eq.lhs}: "
            f"{eq.lhs} occurs in its own right-hand side"
        )
    low, high = min(source, target), max(source, target)
    blocked = set()
    for i in range(low, len(eqs)):
        if i == source:
            continue
        blocked.add(eqs[i].lhs)
    offending = sorted((occurring - {eq.lhs}) & blocked)
    if offending:
        raise BesError(
            f"cannot move the equation for {eq.lhs}: it depends on "
            f"{', '.join(offending)}"
        )
    del eqs[source]
    eqs.insert(target, Equation(sign, eq.lhs, eq.rhs))
    return EquationSystem(tuple(eqs))


def swap_equations(es: EquationSystem, i: int, j: int) -> EquationSystem:
    """Exchange two equations of equal rank (solution-preserving)."""
    eqs = list(es.equations)
    if not (0 <= i < len(eqs)) or not (0 <= j < len(eqs)):
        raise IndexError("equation index out of range")
    if i == j:
        return es
    rank = ranks(es)
    ri, rj = rank[eqs[i].lhs], rank[eqs[j].lhs]
    if ri != rj:
        raise BesError(
            f"cannot swap equations of unequal rank: "
            f"rank({eqs[i].lhs}) = {ri}, rank({eqs[j].lhs}) = {rj}"
        )
    eqs[i], eqs[j] = eqs[j], eqs[i]
    return EquationSystem(tuple(eqs))
