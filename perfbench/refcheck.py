"""Reference code the benchmark checks ``besmin``'s output against.

Everything here is independent of ``besmin``: a small parser for the
general-syntax BES text format, an evaluator, the size measure, a
brute-force solver written from the recursive solution definition, and
checkers for the text the CLI prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN = re.compile(r"\s*(?:(//[^\n]*)|([A-Za-z_][A-Za-z0-9_']*)|(&&|\|\||[=;()]))")

# Formulas are tuples: ("c", bool), ("v", name), ("&&", left, right),
# ("||", left, right).


@dataclass(frozen=True)
class Equation:
    sign: str  # "mu" or "nu"
    lhs: str
    rhs: tuple


class CheckError(Exception):
    """An output of the program under test is wrong or unreadable."""


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckError(f"unreadable BES text at offset {pos}")
        pos = m.end()
        if m.group(1) is None:
            out.append(m.group(2) or m.group(3))
    return out


def parse_system(text: str) -> list[Equation]:
    tokens = _tokens(text)
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            raise CheckError(f"expected {tok!r} at token {pos}")
        pos += 1

    def atom() -> tuple:
        nonlocal pos
        if pos >= len(tokens):
            raise CheckError("unexpected end of BES text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            f = disj()
            expect(")")
            return f
        if tok in ("true", "false"):
            return ("c", tok == "true")
        if tok[0].isalpha() or tok[0] == "_":
            return ("v", tok)
        raise CheckError(f"unexpected token {tok!r}")

    def chain(op: str, operand) -> tuple:
        nonlocal pos
        f = operand()
        while pos < len(tokens) and tokens[pos] == op:
            pos += 1
            f = (op, f, operand())
        return f

    def conj() -> tuple:
        return chain("&&", atom)

    def disj() -> tuple:
        return chain("||", conj)

    equations = []
    while pos < len(tokens):
        sign = tokens[pos]
        if sign not in ("mu", "nu"):
            raise CheckError(f"expected mu or nu, got {sign!r}")
        pos += 1
        lhs = atom()
        if lhs[0] != "v":
            raise CheckError("equation without a variable on the left")
        expect("=")
        rhs = disj()
        expect(";")
        equations.append(Equation(sign, lhs[1], rhs))
    return equations


def evaluate(f: tuple, env: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "c":
        return f[1]
    if kind == "v":
        return env[f[1]]
    if kind == "&&":
        return evaluate(f[1], env) and evaluate(f[2], env)
    return evaluate(f[1], env) or evaluate(f[2], env)


def occurring(f: tuple) -> set[str]:
    kind = f[0]
    if kind == "c":
        return set()
    if kind == "v":
        return {f[1]}
    return occurring(f[1]) | occurring(f[2])


def _formula_size(f: tuple) -> int:
    if f[0] in ("c", "v"):
        return 1
    return 1 + _formula_size(f[1]) + _formula_size(f[2])


def size(equations: list[Equation]) -> int:
    """Equation count plus right-hand-side leaves and binary connectives."""
    return len(equations) + sum(_formula_size(eq.rhs) for eq in equations)


def brute_force_solve(equations: list[Equation]) -> dict[str, bool]:
    """Solution of a closed system by the recursive definition.

    The solution of (sigma X = f) E under environment eta is that of E under
    eta[X := v], where v is f evaluated on the solution of E under
    eta[X := true for nu, false for mu].  The solution of E under eta only
    depends on the variables bound before E that occur in E, so results
    are memoised on those alone.
    """
    names = [eq.lhs for eq in equations]
    n = len(equations)
    free: list[tuple[str, ...]] = [()] * (n + 1)
    later: set[str] = set()
    for i in range(n - 1, -1, -1):
        later |= occurring(equations[i].rhs)
        free[i] = tuple(x for x in names[:i] if x in later)
    memo: dict[tuple, tuple[bool, ...]] = {}

    def solve_from(i: int, env: dict[str, bool]) -> tuple[bool, ...]:
        if i == n:
            return ()
        key = (i, tuple(env[x] for x in free[i]))
        cached = memo.get(key)
        if cached is not None:
            return cached
        eq = equations[i]
        env[eq.lhs] = eq.sign == "nu"
        inner = dict(zip(names[i + 1:], solve_from(i + 1, env)))
        inner.update(env)
        value = evaluate(eq.rhs, inner)
        env[eq.lhs] = value
        result = (value,) + solve_from(i + 1, env)
        del env[eq.lhs]
        memo[key] = result
        return result

    return dict(zip(names, solve_from(0, {})))


# ---------------------------------------------------------------------------
# Checks of CLI output


@dataclass(frozen=True)
class Minimised:
    equations: list[Equation]
    blocks: dict[str, list[str]]  # output variable -> original variables


def read_minimised(stdout: str, input_vars: list[str]) -> Minimised:
    """Parse ``besmin minimize --emit bes`` output and check its shape.

    The output must be a closed system followed by one ``X <= {...}`` line
    per equation, and every bound variable of the input must appear in
    exactly one block.
    """
    bes_text, sep, tail = stdout.partition("---\n")
    if not sep:
        raise CheckError("minimize output lacks the '---' separator")
    equations = parse_system(bes_text)
    lines = tail.splitlines()
    if not lines or lines[0] != f"equations: {len(equations)}":
        raise CheckError("equation count line disagrees with the system")
    lhs = [eq.lhs for eq in equations]
    if len(set(lhs)) != len(lhs):
        raise CheckError("a variable is bound twice")
    bound = set(lhs)
    for eq in equations:
        if not occurring(eq.rhs) <= bound:
            raise CheckError(f"output system is open at {eq.lhs}")
    if len(lines) != len(lhs) + 1:
        raise CheckError("block lines and equations differ in number")
    blocks: dict[str, list[str]] = {}
    for line, name in zip(lines[1:], lhs):
        m = re.fullmatch(r"(\S+) <= \{(.*)\}", line)
        if m is None or m.group(1) != name:
            raise CheckError(f"bad block line {line!r}")
        blocks[name] = m.group(2).split(", ")
    members = [x for xs in blocks.values() for x in xs]
    if sorted(members) != sorted(input_vars):
        raise CheckError("bound variables do not appear in exactly one block")
    return Minimised(equations, blocks)


def check_block_values(result: Minimised, expected: dict[str, bool]) -> None:
    """Every block holds originals with one reference value, and that
    mapped assignment satisfies every emitted equation."""
    value = {}
    for name, originals in result.blocks.items():
        values = {expected[x] for x in originals}
        if len(values) != 1:
            raise CheckError(f"block {name} merges variables with different answers")
        value[name] = values.pop()
    for eq in result.equations:
        if evaluate(eq.rhs, value) != value[eq.lhs]:
            raise CheckError(f"reference assignment violates the equation for {eq.lhs}")


def check_verify(stdout: str, variables: int) -> None:
    if stdout != f"PASS: {variables} variables verified\n":
        raise CheckError(f"verify did not pass: {stdout[:200]!r}")


def check_solve(stdout: str, expected: dict[str, bool]) -> None:
    want = "".join(f"{x} = {'true' if v else 'false'}\n" for x, v in expected.items())
    if stdout != want:
        raise CheckError("solve output differs from the reference solution")
