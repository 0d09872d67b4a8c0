"""Recursive-descent parser for the concrete equation-system text format.

Grammar::

    bes      := (equation)*
    equation := ("mu"|"nu") IDENT "=" formula ";"
    formula  := disj
    disj     := conj ("||" conj)*
    conj     := atom ("&&" atom)*
    atom     := "true" | "false" | IDENT | "(" formula ")"
              | ("AND"|"OR") "{" IDENT ("," IDENT)* "}"

Identifiers start with a letter or underscore, followed by letters,
digits, underscores and primes.  "//" starts a line comment.  Chained
same-operator formulas parse to a left-nested binary AST; parentheses
are preserved as explicit nesting.

The text is tokenized in one regular-expression pass, each match being
one token together with the white space and comments before it, into
three parallel lists: kind, text and start offset of every token, ending
with ``eof``.  The parser reads them by index.  Line and column are
computed from the offset only when an error is reported.  Constants are
the shared ``TRUE``/``FALSE`` and every name gets one shared ``Var``.
"""

from __future__ import annotations

import re

from .errors import ParseError, WellFormednessError
from .syntax import (
    FALSE,
    TRUE,
    And,
    AndSet,
    Equation,
    EquationSystem,
    Fixpoint,
    Formula,
    Or,
    OrSet,
    Var,
)

_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]* (?: //[^\n]* [ \t\r\n]* )*    # white space and comments
    (?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op>&&|\|\||[=;(){},])
      | (?P<bad>.)
      | \Z                                # white space at the end
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"mu", "nu", "true", "false", "AND", "OR"}


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _error(text: str, offset: int, message: str) -> ParseError:
    return ParseError(message, _line(text, offset), offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Kinds ('ident', a keyword or an operator; 'eof' last), texts and
    start offsets of the tokens."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group is None:
            continue
        word = m.group(group)
        if group == "ident":
            kinds.append(word if word in _KEYWORDS else "ident")
        elif group == "op":
            kinds.append(word)
        else:
            raise _error(text, m.start(group), f"unexpected character {word!r}")
        texts.append(word)
        starts.append(m.start(group))
    kinds.append("eof")
    texts.append("")
    starts.append(len(text))
    return kinds, texts, starts


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts, self.starts = _tokenize(text)
        self.pos = 0
        self.variables: dict[str, Var] = {}  # one shared Var per name

    def error(self, message: str) -> ParseError:
        return _error(self.text, self.starts[self.pos], message)

    def unexpected(self, expected: str) -> ParseError:
        return self.error(f"{expected}, got {self.texts[self.pos] or 'end of input'!r}")

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.unexpected(f"expected {kind!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def parse_system(self) -> EquationSystem:
        kinds = self.kinds
        equations = []
        bound = set()
        while kinds[self.pos] != "eof":
            sign = kinds[self.pos]
            if sign not in ("mu", "nu"):
                raise self.unexpected("expected 'mu' or 'nu'")
            self.pos += 1
            name_start = self.starts[self.pos]
            name = self.expect("ident")
            if name in bound:
                raise WellFormednessError(
                    f"variable {name} is bound by more than one "
                    f"equation (line {_line(self.text, name_start)})"
                )
            bound.add(name)
            self.expect("=")
            rhs = self.parse_formula()
            self.expect(";")
            equations.append(
                Equation(Fixpoint.MU if sign == "mu" else Fixpoint.NU, name, rhs)
            )
        return EquationSystem(tuple(equations))

    def parse_formula(self) -> Formula:
        f = self.parse_conj()
        while self.kinds[self.pos] == "||":
            self.pos += 1
            f = Or(f, self.parse_conj())
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_atom()
        while self.kinds[self.pos] == "&&":
            self.pos += 1
            f = And(f, self.parse_atom())
        return f

    def parse_atom(self) -> Formula:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "ident":
            self.pos = pos + 1
            name = self.texts[pos]
            var = self.variables.get(name)
            if var is None:
                var = self.variables[name] = Var(name)
            return var
        if kind in ("true", "false"):
            self.pos = pos + 1
            return TRUE if kind == "true" else FALSE
        if kind == "(":
            self.pos = pos + 1
            f = self.parse_formula()
            self.expect(")")
            return f
        if kind in ("AND", "OR"):
            self.pos = pos + 1
            self.expect("{")
            members = [self.expect("ident")]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                members.append(self.expect("ident"))
            self.expect("}")
            cls = AndSet if kind == "AND" else OrSet
            return cls(frozenset(members))
        raise self.unexpected("expected a formula")


def parse_bes(text: str) -> EquationSystem:
    return _Parser(text).parse_system()


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.parse_formula()
    if parser.kinds[parser.pos] != "eof":
        raise parser.error(
            f"trailing input after formula: {parser.texts[parser.pos]!r}"
        )
    return f
