"""Graph construction rules and the reduce/normalise transformations."""

import pytest

import besmin as bm
from besmin import And, Const, Decoration, Op, Or, Var
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


def test_node_identity_with_names_that_are_not_identifiers():
    # a variable, a constant and a subterm with one text stay distinct nodes,
    # and so do two different subterms with one text
    MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU
    es = bm.system(bm.Equation(NU, "true", And(Const(True), Var("true"))))
    assert bm.serialize_graph(bm.build_graph(es)) == (
        "sgraph v1\ninit n1\n"
        'node n0 op=top ranks=- label="true"\n'
        'node n1 op=and ranks=0 label="true"\n'
        "edge n1 n0\nedge n1 n1\n"
    )
    t = And(Var("a"), Var("b"))
    es = bm.system(
        bm.Equation(NU, "a && b", Var("a && b")),
        bm.Equation(MU, "a", t),
        bm.Equation(MU, "b", Var("a && b")),
    )
    assert bm.serialize_graph(bm.build_graph(es, t)) == (
        "sgraph v1\ninit n2\n"
        'node n0 op=and ranks=1 label="a"\n'
        'node n1 op=none ranks=0 label="a && b"\n'
        'node n2 op=and ranks=- label="a && b"\n'
        'node n3 op=none ranks=1 label="b"\n'
        "edge n0 n0\nedge n0 n3\nedge n1 n1\nedge n2 n0\nedge n2 n3\nedge n3 n1\n"
    )
    es = bm.system(
        bm.Equation(NU, "X", Or(And(Var("a && b"), Var("c")), And(t, Var("c")))),
        bm.Equation(MU, "a && b", Var("X")),
        bm.Equation(MU, "a", Var("a")),
        bm.Equation(MU, "b", Var("X")),
        bm.Equation(MU, "c", Var("c")),
    )
    assert bm.serialize_graph(bm.build_graph(es)) == (
        "sgraph v1\ninit n0\n"
        'node n0 op=or ranks=0 label="X"\n'
        'node n1 op=none ranks=1 label="a"\n'
        'node n2 op=none ranks=1 label="a && b"\n'
        'node n3 op=and ranks=- label="a && b && c"\n'
        'node n4 op=and ranks=- label="a && b && c"\n'
        'node n5 op=none ranks=1 label="b"\n'
        'node n6 op=none ranks=1 label="c"\n'
        "edge n0 n3\nedge n0 n4\nedge n1 n1\nedge n2 n0\nedge n3 n1\nedge n3 n5\n"
        "edge n3 n6\nedge n4 n2\nedge n4 n6\nedge n5 n0\nedge n6 n6\n"
    )


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


def test_verify_finds_variables_by_rank_not_by_label():
    # a variable named like a subterm of the other equation, in both orders
    MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU
    y = bm.Equation(NU, "Y", Or(Var("Y && Y"), And(Var("Y"), Var("Y"))))
    z = bm.Equation(MU, "Y && Y", Var("Y && Y"))
    for es in (bm.system(y, z), bm.system(z, y)):
        result = bm.verify_system(es)
        assert result.ok, result.mismatches
        minimised = bm.solve_gauss(result.minimised_system)
        original = bm.solve_gauss(es)
        assert {x: minimised[result.variable_map[x]] for x in original} == original


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
    g = bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
    _, system, names = bm.translate(g)

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
    for eq in system:
        assert variables_only(eq.rhs, bm.And) or variables_only(eq.rhs, bm.Or)
    original = bm.solve_gauss(es)
    new = bm.solve_gauss(system)
    labels = by_label(g)
    for x in bm.bnd(es):
        assert new[names[labels[x]]] == original[x]


def test_bisimilar_in_context():
    es = bm.parse_bes("mu X = X; nu Y = Y;")
    x, y = Var("X"), Var("Y")
    assert bm.bisimilar(bm.build_graph(es, x), bm.build_graph(es, x))
    assert not bm.bisimilar(bm.build_graph(es, x), bm.build_graph(es, y))  # ranks 1 vs 2
