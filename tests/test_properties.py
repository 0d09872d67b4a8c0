"""Property-based invariants over randomly generated systems."""

import re

from hypothesis import given, settings, strategies as st

import besmin as bm
from besmin import And, AndSet, Const, Equation, EquationSystem, Fixpoint, Or, OrSet, Var
from conftest import oracle

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
def test_parse_print_identity(es):
    assert bm.parse_bes(bm.print_bes(es)) == es


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solvers_agree(es):
    assert bm.solve_gauss(es) == oracle(es)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_rank_parity_and_hierarchy(es):
    rank_map = bm.ranks(es)
    for eq in es:
        assert (rank_map[eq.lhs] % 2 == 1) == (eq.sign is Fixpoint.MU)
    assert bm.alternation_hierarchy(es) == max(rank_map.values()) - min(
        rank_map.values()
    )


@settings(max_examples=75, deadline=None)
@given(systems())
def test_built_graph_is_bessy_and_round_trips(es):
    g = bm.build_graph(es)
    assert bm.is_bessy(g) == []
    assert bm.parse_graph(bm.serialize_graph(g)) == g
    assert bm.bisimilar(g, g)


@settings(max_examples=50, deadline=None)
@given(systems())
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
def test_srf_conversion_with_set_atoms(es):
    check_srf_conversion(es)


@settings(max_examples=40, deadline=None)
@given(systems())
def test_size_monotone_under_minimisation(es):
    minimised = bm.pipeline(es).system
    assert len(minimised.equations) <= len(es.equations)
    assert bm.size(minimised) <= bm.size(es)
    _, normalised, _ = bm.translate(
        bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
    )
    assert bm.size(minimised) <= bm.size(normalised)


FRAGMENTS = [
    "mu ", "nu ", "X", "Y", "Z'", "_a", " = ", ";", "&&", "||", "(", ")",
    "true", "false", "AND{", "OR{", ",", "}", " ", "\n", "\r\n", "\t",
    "// c", "$", "\u00e9", "/", "&", "|", "mu X = X;",
]


@st.composite
def texts(draw):
    parts = draw(st.lists(st.sampled_from(FRAGMENTS), max_size=60))
    return "".join(parts)[:200]


@settings(max_examples=300, deadline=None)
@given(texts())
def test_parser_accepts_or_reports_a_position(text):
    lines = text.split("\n")
    for parse in (bm.parse_bes, bm.parse_formula):
        try:
            result = parse(text)
        except bm.ParseError as exc:
            assert exc.line >= 1
            assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1
            continue
        except bm.WellFormednessError:
            continue
        if parse is bm.parse_bes:
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
def test_white_space_and_comments_between_tokens_change_nothing(n, seed, data):
    cfg = bm.GenConfig(variable_count=n, max_rhs_depth=3, constant_probability=0.2, seed=seed)
    printed = bm.print_bes(bm.gen_bes(cfg))
    tokens = TOKEN.findall(printed)
    gaps = data.draw(st.lists(GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(gap + token for gap, token in zip(gaps, tokens + [""]))
    text += data.draw(st.sampled_from(["", "// a comment at the end, without a newline"]))
    assert bm.parse_bes(text) == bm.parse_bes(printed)
