"""Operator-precedence parser for the concrete equation-system text format.

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

One ``findall`` pass of a regular expression gives the token texts,
each match being one token together with the white space and comments
before it; the empty text ends the input.  A token's kind is the token
itself for keywords and operators, an identifier if it starts with an
ASCII letter or underscore, and an unexpected character otherwise.
Formulas are read by one loop that keeps the enclosing disjunction and
conjunction of every open parenthesis on an explicit stack, so nesting
depth is bounded by memory, not by Python's recursion limit.  Offsets,
lines and columns are computed only when an error is reported, by
scanning the text again; an unexpected character is reported before any
other error, wherever it is.  Constants are the shared ``TRUE``/``FALSE``
and every name gets one shared ``Var``.
"""

from __future__ import annotations

import re
import string
from itertools import islice

from .errors import BesError, ParseError, WellFormednessError
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
    (
        [A-Za-z_][A-Za-z0-9_']*             # identifier or keyword
      | && | \|\| | [=;(){},]
      | .                                   # an unexpected character
      | \Z                                  # the end: an empty token
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset({"mu", "nu", "true", "false", "AND", "OR"})
_OPERATORS = frozenset({"&&", "||", "=", ";", "(", ")", "{", "}", ",", ""})
_NAME_START = frozenset(string.ascii_letters + "_")


def _is_name(token: str) -> bool:
    return token[:1] in _NAME_START and token not in _KEYWORDS


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.variables: dict[str, Var] = {}  # one shared Var per name

    def offset(self, index: int) -> int:
        return next(islice(_TOKEN_RE.finditer(self.text), index, None)).start(1)

    def error(self, index: int, message: str) -> ParseError:
        offset = self.offset(index)
        column = offset - self.text.rfind("\n", 0, offset)
        return ParseError(message, _line(self.text, offset), column)

    def unexpected(self, index: int, expected: str) -> ParseError:
        return self.error(index, f"{expected}, got {self.tokens[index] or 'end of input'!r}")

    def expect(self, index: int, token: str) -> int:
        if self.tokens[index] != token:
            raise self.unexpected(index, f"expected {token!r}")
        return index + 1

    def name(self, index: int) -> int:
        if not _is_name(self.tokens[index]):
            raise self.unexpected(index, "expected 'ident'")
        return index + 1

    def run(self, rule):
        try:
            return rule()
        except BesError:
            # an unexpected character anywhere is reported first, as a
            # tokenizer run before the parser would
            for index, token in enumerate(self.tokens):
                if token not in _OPERATORS and token[0] not in _NAME_START:
                    raise self.error(index, f"unexpected character {token!r}") from None
            raise

    def system(self) -> EquationSystem:
        tokens = self.tokens
        equations = []
        bound = set()
        pos = 0
        while tokens[pos]:
            # the header is checked inline; name and expect only raise
            sign = tokens[pos]
            if sign != "mu" and sign != "nu":
                raise self.unexpected(pos, "expected 'mu' or 'nu'")
            name = tokens[pos + 1]
            if not _is_name(name):
                self.name(pos + 1)
            if name in bound:
                raise WellFormednessError(
                    f"variable {name} is bound by more than one equation "
                    f"(line {_line(self.text, self.offset(pos + 1))})"
                )
            bound.add(name)
            if tokens[pos + 2] != "=":
                self.expect(pos + 2, "=")
            rhs, pos = self.formula(pos + 3)
            if tokens[pos] != ";":
                self.expect(pos, ";")
            pos += 1
            equations.append(Equation(Fixpoint.MU if sign == "mu" else Fixpoint.NU, name, rhs))
        return EquationSystem(tuple(equations))

    def whole_formula(self) -> Formula:
        f, pos = self.formula(0)
        if self.tokens[pos]:
            raise self.error(pos, f"trailing input after formula: {self.tokens[pos]!r}")
        return f

    def formula(self, pos: int) -> tuple[Formula, int]:
        """The formula starting at token ``pos`` and the index after it."""
        tokens = self.tokens
        variables = self.variables
        open_parens: list[tuple] = []  # (disjunction, conjunction) around each "("
        disj = conj = None
        while True:
            token = tokens[pos]
            atom = variables.get(token)
            if atom is None:
                if token == "(":
                    open_parens.append((disj, conj))
                    disj = conj = None
                    pos += 1
                    continue
                if token == "true" or token == "false":
                    atom = TRUE if token == "true" else FALSE
                elif token == "AND" or token == "OR":
                    pos = self.name(self.expect(pos + 1, "{"))
                    members = [tokens[pos - 1]]
                    while tokens[pos] == ",":
                        pos = self.name(pos + 1)
                        members.append(tokens[pos - 1])
                    self.expect(pos, "}")
                    atom = (AndSet if token == "AND" else OrSet)(frozenset(members))
                elif _is_name(token):
                    atom = variables[token] = Var(token)
                else:
                    raise self.unexpected(pos, "expected a formula")
            pos += 1
            while True:
                conj = atom if conj is None else And(conj, atom)
                token = tokens[pos]
                if token == "&&":
                    break
                disj = conj if disj is None else Or(disj, conj)
                conj = None
                if token == "||":
                    break
                if not open_parens:
                    return disj, pos
                if token != ")":
                    raise self.unexpected(pos, "expected ')'")
                atom = disj
                disj, conj = open_parens.pop()
                pos += 1
            pos += 1


def parse_bes(text: str) -> EquationSystem:
    parser = _Parser(text)
    return parser.run(parser.system)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    return parser.run(parser.whole_formula)
