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

White space is exactly space, tab, CR and LF.  The parser tokenizes with
one regular expression, ``_TOKEN_RE``, one match per token or comment;
comments are dropped.  The empty text ends the input.  A token's kind is
the token itself for keywords and operators, an identifier if it starts
with an ASCII letter or underscore, and an unexpected character
otherwise.  Formulas are read by one loop that keeps the enclosing
disjunction and conjunction of every open parenthesis on an explicit
stack, so nesting depth is bounded by memory, not by Python's recursion
limit.  Offsets, lines and columns are computed only when an error is
reported, by scanning the text again; an unexpected character is
reported before any other error, wherever it is.  Constants are the
shared ``TRUE``/``FALSE`` and every name gets one shared ``Var``, each
found by one lookup.
"""

from __future__ import annotations

import re
import string
from itertools import islice

from .errors import BesError, ParseError, WellFormednessError
from .syntax import (
    FALSE,
    MU,
    NU,
    TRUE,
    And,
    AndSet,
    Equation,
    EquationSystem,
    Formula,
    Or,
    OrSet,
    Var,
)

# an identifier, which a name is if it is no keyword
_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# an identifier or keyword, a two-character operator, a comment, or any
# other character but white space: a one-character operator or an
# unexpected character
_TOKEN_RE = re.compile(_IDENTIFIER_RE.pattern + r"|&&|\|\||//[^\n]*|[^ \t\r\n]")

_KEYWORDS = frozenset({"mu", "nu", "true", "false", "AND", "OR"})
_OPERATORS = frozenset({"&&", "||", "=", ";", "(", ")", "{", "}", ",", ""})
_NAME_START = frozenset(string.ascii_letters + "_")


def _is_name(token: str) -> bool:
    return token[:1] in _NAME_START and token not in _KEYWORDS


def _require_identifiers(names) -> None:
    """Raise a ``BesError`` naming the first of ``names`` the parser would not
    read as a name: one that is no identifier, or a keyword."""
    if not _KEYWORDS.isdisjoint(names) or not all(map(_IDENTIFIER_RE.fullmatch, names)):
        x = next(x for x in names if x in _KEYWORDS or not _IDENTIFIER_RE.fullmatch(x))
        raise BesError(f"bound variable {x!r} is not an identifier")


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _regex_tokens(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    if "//" in text:
        tokens = [token for token in tokens if token[:2] != "//"]
    return tokens


class _Parser:
    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens
        self.tokens.append("")  # the end
        # the shared constants, and one shared Var per name
        self.variables: dict[str, Formula] = {"true": TRUE, "false": FALSE}

    def offset(self, index: int) -> int:
        starts = (m.start() for m in _TOKEN_RE.finditer(self.text) if m[0][:2] != "//")
        return next(islice(starts, index, None), len(self.text))

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
            equations.append(Equation(MU if sign == "mu" else NU, name, rhs))
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
                if token == "AND" or token == "OR":
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


def _parse(text: str, rule):
    parser = _Parser(text, _regex_tokens(text))
    try:
        return rule(parser)
    except BesError:
        # an unexpected character anywhere is reported first, as a
        # tokenizer run before the parser would
        for index, token in enumerate(parser.tokens):
            if token not in _OPERATORS and token[0] not in _NAME_START:
                raise parser.error(index, f"unexpected character {token!r}") from None
        raise


def parse_bes(text: str) -> EquationSystem:
    return _parse(text, _Parser.system)


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.whole_formula)
