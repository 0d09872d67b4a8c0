"""Property-based invariants over randomly generated systems."""

import re
from unittest import mock

from hypothesis import given, settings, strategies as st

import besmin as bm
from besmin import And, AndSet, Const, Equation, EquationSystem, Fixpoint, Or, OrSet, Var
from besmin.parse import _padded, _regex_tokens
from conftest import at_recursion_limit, oracle

NAMES = ["P", "Q", "R", "S"]


def formulas(names):
    leaves = st.one_of(
        st.sampled_from([Const(True), Const(False)]),
        st.builds(Var, st.sampled_from(names)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub)),
        max_leaves=8,
    )


@st.composite
def systems(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    names = NAMES[:count]
    eqs = tuple(
        Equation(
            draw(st.sampled_from([Fixpoint.MU, Fixpoint.NU])),
            name,
            draw(formulas(names)),
        )
        for name in names
    )
    return EquationSystem(eqs)


@settings(max_examples=150, deadline=None)
@given(systems())
@at_recursion_limit
def test_parse_print_identity(es):
    assert bm.parse_bes(bm.print_bes(es)) == es


@settings(max_examples=100, deadline=None)
@given(systems())
@at_recursion_limit
def test_solvers_agree(es):
    assert bm.solve_gauss(es) == oracle(es)


@settings(max_examples=100, deadline=None)
@given(systems())
@at_recursion_limit
def test_rank_parity_and_hierarchy(es):
    rank_map = bm.ranks(es)
    for eq in es:
        assert (rank_map[eq.lhs] % 2 == 1) == (eq.sign is Fixpoint.MU)
    assert bm.alternation_hierarchy(es) == max(rank_map.values()) - min(
        rank_map.values()
    )


@settings(max_examples=75, deadline=None)
@given(systems())
@at_recursion_limit
def test_built_graph_is_bessy_and_round_trips(es):
    g = bm.build_graph(es)
    assert bm.is_bessy(g) == []
    assert bm.parse_graph(bm.serialize_graph(g)) == g
    assert bm.bisimilar(g, g)


@settings(max_examples=50, deadline=None)
@given(systems())
@at_recursion_limit
def test_minimize_shrinks_and_preserves_solution(es):
    g = bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
    quotient, _ = bm.minimize(g)
    assert bm.bisimilar(g, quotient)
    assert len(quotient.ids) <= len(g.ids)
    assert bm.is_bessy(quotient) == []
    result = bm.verify_system(es)
    assert result.ok, result.mismatches


@settings(max_examples=50, deadline=None)
@given(systems())
@at_recursion_limit
def test_srf_conversion_properties(es):
    check_srf_conversion(es)


def check_srf_conversion(es):
    srf = bm.to_srf(es)
    assert bm.is_srf(srf) and bm.is_closed(srf)
    original = bm.solve_gauss(es)
    converted = bm.solve_gauss(srf)
    for x in bm.bnd(es):
        assert converted[x] == original[x]
    # prefix order of the original bindings is preserved
    positions = {eq.lhs: i for i, eq in enumerate(srf)}
    originals = [positions[eq.lhs] for eq in es]
    assert originals == sorted(originals)


@st.composite
def systems_with_set_atoms(draw):
    # binary formulas whose leaves include AND{...} and OR{...} atoms
    count = draw(st.integers(min_value=1, max_value=4))
    names = NAMES[:count]
    members = st.frozensets(st.sampled_from(names), min_size=1)
    leaves = st.one_of(
        st.sampled_from([Const(True), Const(False)]),
        st.builds(Var, st.sampled_from(names)),
        st.builds(AndSet, members),
        st.builds(OrSet, members),
    )
    rhs = st.recursive(
        leaves,
        lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub)),
        max_leaves=8,
    )
    signs = st.sampled_from([Fixpoint.MU, Fixpoint.NU])
    return EquationSystem(tuple(Equation(draw(signs), x, draw(rhs)) for x in names))


@settings(max_examples=50, deadline=None)
@given(systems_with_set_atoms())
@at_recursion_limit
def test_srf_conversion_with_set_atoms(es):
    check_srf_conversion(es)


@settings(max_examples=40, deadline=None)
@given(systems())
@at_recursion_limit
def test_size_monotone_under_minimisation(es):
    minimised = bm.parse_bes(bm.pipeline(es).text)
    assert len(minimised.equations) <= len(es.equations)
    assert bm.size(minimised) <= bm.size(es)
    _, normalised, _ = bm.translate(
        bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
    )
    normalised = bm.parse_bes(normalised)
    assert bm.size(minimised) <= bm.size(normalised)


FRAGMENTS = [
    "mu ", "nu ", "X", "Y", "Z'", "_a", " = ", ";", "&&", "||", "(", ")",
    "true", "false", "AND{", "OR{", ",", "}", " ", "\n", "\r\n", "\t",
    "// c", "$", "\u00e9", "/", "&", "|", "mu X = X;",
    # words the split path keeps whole, runs of "&" and "|", characters
    # str.split reads as white space, and a comment the split must cut out
    "9X", "'a", "&&&", "|||", "\v", "\x1c", "\x85", "\u2028", "\ufeff", "// ; \u00e9",
    "\ud800",  # a lone surrogate, which str.encode refuses
]


@st.composite
def texts(draw):
    parts = draw(st.lists(st.sampled_from(FRAGMENTS), max_size=60))
    return "".join(parts)[:200]


def outcome(parse, *args):
    """What a parse returns, or the type, message and position of its error."""
    try:
        return parse(*args)
    except bm.BesError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@settings(max_examples=300, deadline=None)
@given(texts())
@at_recursion_limit
def test_parser_accepts_or_reports_a_position(text):
    lines = text.split("\n")
    padded = _padded(text)
    # the flat reader's words are the parser's tokens, but for a word that
    # starts with a digit or a prime, which the parser rejects
    words = None if padded is None else padded.split()
    if words is not None and not any(word[0] in "0123456789'" for word in words):
        assert words == _regex_tokens(text)
    for parse in (bm.parse_bes, bm.parse_formula):
        result = outcome(parse, text)
        if padded is None:
            # a text _padded declines holds an unexpected character
            assert result[0] is bm.ParseError and ": unexpected character " in result[1]
        if isinstance(result, tuple):
            error, _, line, column = result
            if error is bm.ParseError:
                assert line >= 1
                assert 1 <= column <= len(lines[line - 1]) + 1
        elif parse is bm.parse_bes:
            assert bm.parse_bes(bm.print_bes(result)) == result


# the tokens of printed systems, and what may stand between two tokens
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|&&|\|\||\S")
GAPS = st.lists(
    st.one_of(
        st.text(" \t\r\n", min_size=1, max_size=3),
        st.text(st.characters(exclude_characters="\n"), max_size=6).map(lambda c: f"//{c}\n"),
    ),
    min_size=1,
    max_size=3,
).map("".join)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6), st.data())
@at_recursion_limit
def test_white_space_and_comments_between_tokens_change_nothing(n, seed, data):
    cfg = bm.GenConfig(variable_count=n, max_rhs_depth=3, constant_probability=0.2, seed=seed)
    printed = bm.print_bes(bm.gen_bes(cfg))
    tokens = TOKEN.findall(printed)
    gaps = data.draw(st.lists(GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(gap + token for gap, token in zip(gaps, tokens + [""]))
    text += data.draw(st.sampled_from(["", "// a comment at the end, without a newline"]))
    assert bm.parse_bes(text) == bm.parse_bes(printed)


# flat systems: every right-hand side one atom or a chain of one connective
def _separator(rhs):
    return "||" if "||" in rhs else "&&"


FLAT_EDITS = {
    "dangling separator": lambda sign, name, rhs: (sign, name, f"{rhs} {_separator(rhs)}"),
    "leading separator": lambda sign, name, rhs: (sign, name, f"{_separator(rhs)} {rhs}"),
    "mixed separators": lambda sign, name, rhs: (sign, name, rhs + " || X && Y"),
    "no right-hand side": lambda sign, name, rhs: (sign, name, ""),
    "unbound name": lambda sign, name, rhs: (sign, name, f"{rhs} {_separator(rhs)} W"),
    "keyword as a name": lambda sign, name, rhs: (sign, "true", rhs),
    "keyword as an atom": lambda sign, name, rhs: (sign, name, "mu"),
    "no sign": lambda sign, name, rhs: ("", name, rhs),
    "parentheses": lambda sign, name, rhs: (sign, name, f"({rhs})"),
    # between bound names, so that the equation's token count is even
    "separator as an atom": lambda sign, name, rhs: (sign, name, f"{name} && && && {name}"),
    "'=' as an atom": lambda sign, name, rhs: (sign, name, "="),
    "stray ';'": lambda sign, name, rhs: (sign, name, f"{rhs};"),
    "AND as an atom": lambda sign, name, rhs: (sign, name, f"{rhs} {_separator(rhs)} AND"),
    "nu as an atom": lambda sign, name, rhs: (sign, name, f"nu {_separator(rhs)} {rhs}"),
    "9X as an atom": lambda sign, name, rhs: (sign, name, f"{rhs} {_separator(rhs)} 9X"),
    "9X as a left-hand side": lambda sign, name, rhs: (sign, "9X", rhs),
    # operators that sort after every name, and a keyword, as a left-hand side
    "'}' as a left-hand side": lambda sign, name, rhs: (sign, "}", rhs),
    "'||' as a left-hand side": lambda sign, name, rhs: (sign, "||", rhs),
    "mu as a left-hand side": lambda sign, name, rhs: (sign, "mu", rhs),
}


@st.composite
def flat_texts(draw):
    """A flat system's text with a few random edits, and whether it has none."""
    # names that hold a constant's text are no constants
    names = draw(
        st.lists(st.sampled_from(["X", "Y", "Z'", "_a", "Xtrue", "false_"]), min_size=1, unique=True)
    )
    equations = []
    for name in names:
        atoms = draw(st.lists(st.sampled_from([*names, "true", "false"]), min_size=1, max_size=4))
        separator = draw(st.sampled_from([" && ", " || "]))
        equations.append((draw(st.sampled_from(["mu", "nu"])), name, separator.join(atoms)))
    edits = draw(
        st.lists(
            st.sampled_from(
                [*FLAT_EDITS, "repeated left-hand side", "name bound twice", "missing last ';'"]
            ),
            max_size=2,
        )
    )
    for edit in edits:
        at = draw(st.integers(0, len(equations) - 1))
        if edit in FLAT_EDITS:
            equations[at] = FLAT_EDITS[edit](*equations[at])
        elif edit == "repeated left-hand side":
            equations.append(equations[at])
        elif edit == "name bound twice":  # the name it replaces may still be an atom
            sign, _, rhs = equations[at]
            equations[at] = sign, equations[draw(st.integers(0, len(equations) - 1))][1], rhs
    lines = [f"{sign} {name} = {rhs};" for sign, name, rhs in equations]
    if "missing last ';'" in edits:
        lines[-1] = lines[-1][:-1]
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] += " // a comment"
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines), not edits


def printed_systems(es):
    text = bm.print_bes(es)
    return text, "(" not in text and "{" not in text


def graph_columns(g):
    return g.init, g.deco, g.succ, g.labels, g.ids


def check_the_flat_reader_and_the_tree_build_one_graph(text, flat):
    # the formula trees' graph, or the type, message and position of the error
    expected = outcome(lambda text: graph_columns(bm.build_graph(bm.parse_bes(text))), text)
    if flat:
        # the reader takes the text: it never reaches the parser
        with mock.patch("besmin.build.parse_bes", side_effect=AssertionError("parsed")):
            assert graph_columns(bm.build_graph(text)) == expected
    else:
        assert outcome(lambda text: graph_columns(bm.build_graph(text)), text) == expected


@settings(max_examples=400, deadline=None)
@given(flat_texts())
@at_recursion_limit
def test_the_flat_reader_and_the_tree_build_one_graph(case):
    check_the_flat_reader_and_the_tree_build_one_graph(*case)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        systems().map(printed_systems),
        st.builds(
            lambda n, seed: printed_systems(bm.gen_bes(bm.GenConfig(variable_count=n, seed=seed))),
            st.integers(1, 8),
            st.integers(0, 10**6),
        ),
        texts().map(lambda text: (text, False)),
    )
)
@at_recursion_limit
def test_the_flat_reader_and_the_tree_agree_on_printed_systems_and_fragments(case):
    check_the_flat_reader_and_the_tree_build_one_graph(*case)
