"""Property-based invariants over randomly generated systems."""

from hypothesis import given, settings, strategies as st

import besmin as bm
from besmin import And, Const, Equation, EquationSystem, Fixpoint, Or, Var
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


@settings(max_examples=40, deadline=None)
@given(systems())
def test_size_monotone_under_minimisation(es):
    minimised = bm.verify_system(es).minimised_system
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
