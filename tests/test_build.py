"""Graph construction rules and the reduce/normalise transformations."""

import pytest

import besmin as bm
from besmin import Decoration, Op, Var
from conftest import by_label, edges_by_label, oracle

R = lambda *rs: frozenset(rs)


def test_example_graph_nodes_and_edges():
    g = bm.build_graph(bm.fixture("example-structure-graph"))
    labels = by_label(g)
    assert set(labels) == {"X", "Y", "Z", "W", "X && Y"}
    assert g.deco[labels["X"]] == Decoration(Op.OR, R(1))
    assert g.deco[labels["Y"]] == Decoration(Op.OR, R(2))
    assert g.deco[labels["Z"]] == Decoration(Op.NONE, R(3))
    assert g.deco[labels["W"]] == Decoration(Op.OR, R(3))
    assert g.deco[labels["X && Y"]] == Decoration(Op.AND)
    assert edges_by_label(g) == {
        ("X", "Z"),
        ("X", "X && Y"),
        ("Y", "W"),
        ("Y", "X && Y"),
        ("X && Y", "X"),
        ("X && Y", "Y"),
        ("Z", "Z"),
        ("W", "Z"),
        ("W", "W"),
    }
    assert g.label(g.init) == "X"


def test_same_connective_flattening():
    # nested disjunctions of the same operator become one ▽ node with
    # edges to all leaves; W's rhs Z || (Z || W) contributes only Z and W
    g = bm.build_graph(bm.fixture("example-structure-graph"))
    w = by_label(g)["W"]
    assert {g.label(v) for v in g.successors()[w]} == {"Z", "W"}


def test_connective_change_creates_subterm_node():
    es = bm.parse_bes("mu X = (Y || Z) && Y; nu Y = Y; nu Z = Z;")
    g = bm.build_graph(es)
    labels = by_label(g)
    assert "Y || Z" in labels
    assert g.deco[labels["Y || Z"]] == Decoration(Op.OR)


def test_constant_nodes():
    es = bm.parse_bes("mu X = true && Y; nu Y = false;")
    g = bm.build_graph(es)
    labels = by_label(g)
    assert g.deco[labels["true"]] == Decoration(Op.TOP)
    assert g.deco[labels["false"]] == Decoration(Op.BOT)
    assert not g.successors()[labels["true"]]


def test_all_bound_variables_are_nodes():
    es = bm.parse_bes("mu X = X; nu Y = Y;")
    g = bm.build_graph(es)  # Y is unreachable from X but still a node
    assert set(by_label(g)) == {"X", "Y"}


def test_build_graph_with_formula():
    es = bm.fixture("example-structure-graph")
    g = bm.build_graph(es, bm.parse_formula("Z || W"))
    assert g.label(g.init) == "Z || W"
    assert bm.is_bessy(g) == []


def test_build_graph_preconditions():
    with pytest.raises(bm.OpenSystemError):
        bm.build_graph(bm.parse_bes("mu X = Y;"))
    with pytest.raises(bm.BesError):
        bm.build_graph(bm.EquationSystem(()))
    es = bm.parse_bes("mu X = X;")
    with pytest.raises(bm.OpenSystemError):
        bm.build_graph(es, Var("Q"))
    with pytest.raises(bm.BesError):
        bm.build_graph(es, bm.AndSet(frozenset({"X"})))  # not general syntax


def test_paper_application_counts():
    g = bm.build_graph(bm.fixture("paper-application"))
    assert len(g.nodes) == 12


def test_build_srf_graph():
    es = bm.parse_bes("mu X = OR{X, Y}; nu Y = AND{X}; nu Z = Z;")
    g = bm.build_srf_graph(es)
    labels = by_label(g)
    assert g.deco[labels["X"]] == Decoration(Op.OR, R(1))
    assert g.deco[labels["Y"]] == Decoration(Op.AND, R(2))
    assert g.deco[labels["Z"]] == Decoration(Op.NONE, R(2))
    assert bm.is_bessy(g) == []
    with pytest.raises(bm.BesError):
        bm.build_srf_graph(bm.parse_bes("mu X = X && X;"))


def test_reduce_graph():
    es = bm.parse_bes("mu X = true && Y; nu Y = false;")
    g = bm.reduce_graph(bm.build_graph(es))
    labels = by_label(g)
    assert g.deco[labels["true"]] == Decoration(Op.NONE, R(0))
    assert g.deco[labels["false"]] == Decoration(Op.NONE, R(1))
    assert (labels["true"], labels["true"]) in g.edges
    assert (labels["false"], labels["false"]) in g.edges


def test_normalise_graph_ranks_everything():
    es = bm.fixture("example-structure-graph")
    g = bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
    labels = by_label(g)
    assert g.deco[labels["X && Y"]].ranks == R(2)  # max of rank(X)=1, rank(Y)=2
    assert all(d.ranks for d in g.deco.values())
    assert bm.is_bessy(g) == []


def test_normalise_requires_reduced_graph():
    g = bm.build_graph(bm.parse_bes("mu X = true && X;"))
    with pytest.raises(bm.BesError):
        bm.normalise_graph(g)


def test_normalise_unranked_cycle_rejected():
    a = Decoration(Op.AND)
    b = Decoration(Op.OR)
    g = bm.StructureGraph(
        "a", {"a": a, "b": b}, frozenset({("a", "b"), ("b", "a")}), {"a": "a", "b": "b"}
    )
    with pytest.raises(bm.UnrankedCycleError):
        bm.normalise_graph(g)


def test_normalise_pipeline_preserves_solutions():
    es = bm.fixture("example-structure-graph")
    result = bm.normalise_pipeline(es)

    def variables_only(f, op):
        if isinstance(f, Var):
            return True
        return (
            isinstance(f, op)
            and variables_only(f.left, op)
            and variables_only(f.right, op)
        )

    # every right-hand side is a variable or a pure conjunction/disjunction
    # of variables (standard recursive form in binary syntax)
    for eq in result.system:
        assert variables_only(eq.rhs, bm.And) or variables_only(eq.rhs, bm.Or)
    original = bm.solve_gauss(es)
    new = bm.solve_gauss(result.system)
    for x in bm.bnd(es):
        assert new[result.variable_map[x]] == original[x]


def test_bisimilar_in_context():
    es = bm.parse_bes("mu X = X; nu Y = Y;")
    x, y = Var("X"), Var("Y")
    assert bm.bisimilar_in_context(es, x, es, x)
    assert not bm.bisimilar_in_context(es, x, es, y)  # ranks 1 vs 2
