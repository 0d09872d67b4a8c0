"""Abstract syntax and static analysis for Boolean equation systems.

A system is a finite sequence of least (mu) / greatest (nu) fixed-point
equations over proposition variables, with right-hand sides in positive
form.  Besides the binary connectives, the syntax carries n-ary
conjunction/disjunction over variable sets so that systems in standard
recursive form (SRF) can be represented directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import BesError, OpenSystemError, WellFormednessError


class Fixpoint(enum.Enum):
    MU = "mu"
    NU = "nu"


# Loops compare with the members bound once and read ``_value_``: on Python
# 3.10 and 3.11, ``Fixpoint.MU`` and ``.value`` are Python-level lookups.
MU, NU = Fixpoint.MU, Fixpoint.NU

# The records are slotted.  The hot ones fill their slots by calling the
# member descriptors' setters bound below, which costs less than the
# ``object.__setattr__`` per field of a frozen dataclass's own ``__init__``.


@dataclass(frozen=True, slots=True)
class Const:
    value: bool

    def __init__(self, value: bool):
        _set_value(self, value)


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __init__(self, name: str):
        _set_name(self, name)


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"

    def __init__(self, left: "Formula", right: "Formula"):
        _set_and_left(self, left)
        _set_and_right(self, right)


@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __init__(self, left: "Formula", right: "Formula"):
        _set_or_left(self, left)
        _set_or_right(self, right)


@dataclass(frozen=True, slots=True)
class AndSet:
    members: frozenset[str]

    def __post_init__(self):
        if not self.members:
            raise ValueError("n-ary conjunction needs at least one member")


@dataclass(frozen=True, slots=True)
class OrSet:
    members: frozenset[str]

    def __post_init__(self):
        if not self.members:
            raise ValueError("n-ary disjunction needs at least one member")


Formula = Union[Const, Var, And, Or, AndSet, OrSet]


@dataclass(frozen=True, slots=True)
class Equation:
    sign: Fixpoint
    lhs: str
    rhs: Formula

    def __init__(self, sign: Fixpoint, lhs: str, rhs: Formula):
        _set_sign(self, sign)
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)


_set_value, _set_name = Const.value.__set__, Var.name.__set__
_set_and_left, _set_and_right = And.left.__set__, And.right.__set__
_set_or_left, _set_or_right = Or.left.__set__, Or.right.__set__
_set_sign, _set_lhs, _set_rhs = Equation.sign.__set__, Equation.lhs.__set__, Equation.rhs.__set__

TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True, slots=True)
class EquationSystem:
    equations: tuple[Equation, ...]

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        seen = set()
        for eq in self.equations:
            if eq.lhs in seen:
                raise WellFormednessError(
                    f"variable {eq.lhs} is bound by more than one equation"
                )
            seen.add(eq.lhs)

    def __iter__(self) -> Iterator[Equation]:
        return iter(self.equations)

    def __len__(self) -> int:
        return len(self.equations)


def system(*equations: Equation) -> EquationSystem:
    return EquationSystem(tuple(equations))


# ---------------------------------------------------------------------------
# Canonical text form


def _spine(f: And | Or) -> tuple[Formula, list[Formula]]:
    """The leftmost operand of the chain of ``f``'s connective at ``f`` and
    the other operands, right to left, from one loop down its left spine."""
    cls, rights = f.__class__, []
    while f.__class__ is cls:
        rights.append(f.right)
        f = f.left
    return f, rights


def format_formula(f: Formula) -> str:
    cls = f.__class__
    if cls is Var:
        return f.name
    if cls is And or cls is Or:
        # a left-nested chain of one connective prints without parentheses,
        # and every operand off it that is a connective prints inside them
        sep = " && " if cls is And else " || "
        left, right = f.left, f.right
        if left.__class__ is cls:
            left, rights = _spine(f)
            text = sep.join([
                f"({format_formula(g)})"
                if g.__class__ is And or g.__class__ is Or
                else format_formula(g)
                for g in reversed(rights)
            ])
        else:
            text = format_formula(right)
            if right.__class__ is And or right.__class__ is Or:
                text = f"({text})"
        if left.__class__ is And or left.__class__ is Or:
            return f"({format_formula(left)}){sep}{text}"
        return format_formula(left) + sep + text
    if cls is Const:
        return "true" if f.value else "false"
    if cls is AndSet:
        return "AND{" + ",".join(sorted(f.members)) + "}"
    if cls is OrSet:
        return "OR{" + ",".join(sorted(f.members)) + "}"
    raise TypeError(f"not a formula: {f!r}")


def print_bes(es: EquationSystem) -> str:
    lines = [
        f"{eq.sign._value_} {eq.lhs} = {format_formula(eq.rhs)};" for eq in es
    ]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Total order on constants, variables and formulae: true before false before
# everything else; non-constants compared by their canonical text.


def formula_key(f: Formula):
    if isinstance(f, Const):
        return (0, 0 if f.value else 1, "")
    return (1, 0, format_formula(f))


def least_variable(es: EquationSystem) -> str:
    if not es.equations:
        raise BesError("empty equation system has no bound variables")
    return es.equations[0].lhs


# ---------------------------------------------------------------------------
# Static analysis


def bnd(es: EquationSystem) -> set[str]:
    return {eq.lhs for eq in es}


def occ(item: Union[EquationSystem, Formula]) -> set[str]:
    if isinstance(item, EquationSystem):
        stack = [eq.rhs for eq in item]
    else:
        stack = [item]
    result: set[str] = set()
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            result.add(f.name)
        elif isinstance(f, (And, Or)):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, (AndSet, OrSet)):
            result.update(f.members)
        elif not isinstance(f, Const):
            raise TypeError(f"not a formula or system: {f!r}")
    return result


def is_closed(es: EquationSystem) -> bool:
    return occ(es) <= bnd(es)


def require_closed(es: EquationSystem) -> None:
    """Raise ``OpenSystemError`` naming the unbound variables of an open system."""
    unbound = occ(es) - bnd(es)
    if unbound:
        raise OpenSystemError(f"system is open; unbound: {', '.join(sorted(unbound))}")


def ranks(es: EquationSystem) -> dict[str, int]:
    """Rank of every bound variable, by the alternation-counting recursion.

    Counts the sign changes seen while scanning left-to-right, starting
    from the greatest fixed point, up to each variable's equation.
    """
    result = {}
    sigma = NU
    r = 0
    for eq in es:
        if eq.sign is not sigma:
            sigma = eq.sign
            r += 1
        result[eq.lhs] = r
    return result


def alternation_hierarchy(es: EquationSystem) -> int:
    if not es.equations:
        raise BesError("alternation hierarchy is undefined for the empty system")
    values = ranks(es).values()
    return max(values) - min(values)


def _formula_size(f: Formula) -> tuple[int, int]:
    """(leaf count, binary connective count) of a right-hand side."""
    leaves = connectives = 0
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (And, Or)):
            connectives += 1
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Const, Var)):
            leaves += 1
        elif isinstance(g, (AndSet, OrSet)):
            leaves += len(g.members)
            connectives += len(g.members) - 1
        else:
            raise TypeError(f"not a formula: {g!r}")
    return leaves, connectives


def size(es: EquationSystem) -> int:
    """Equation count plus right-hand-side leaves and binary connectives."""
    total = len(es.equations)
    for eq in es:
        leaves, connectives = _formula_size(eq.rhs)
        total += leaves + connectives
    return total


def is_general_syntax(f: Formula) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (AndSet, OrSet)):
            return False
        if isinstance(g, (And, Or)):
            stack.append(g.left)
            stack.append(g.right)
    return True


def is_srf(es: EquationSystem) -> bool:
    return all(isinstance(eq.rhs, (Var, AndSet, OrSet)) for eq in es)
