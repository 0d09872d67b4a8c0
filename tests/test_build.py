"""Graph construction rules and the reduce/normalise transformations."""

import pytest

import besmin as bm
from besmin import And, Const, Decoration, Op, Or, Var
from conftest import by_label, edges_by_label, graph


def test_example_graph_nodes_and_edges():
    g = bm.build_graph(bm.fixture("example-structure-graph"))
    labels = by_label(g)
    assert set(labels) == {"X", "Y", "Z", "W", "X && Y"}
    assert g.deco[labels["X"]] == Decoration(Op.OR, 1)
    assert g.deco[labels["Y"]] == Decoration(Op.OR, 2)
    assert g.deco[labels["Z"]] == Decoration(Op.NONE, 3)
    assert g.deco[labels["W"]] == Decoration(Op.OR, 3)
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
    assert g.labels[g.init] == "X"


def test_same_connective_flattening():
    # nested disjunctions of the same operator become one ▽ node with
    # edges to all leaves; W's rhs Z || (Z || W) contributes only Z and W
    g = bm.build_graph(bm.fixture("example-structure-graph"))
    w = by_label(g)["W"]
    assert {g.labels[v] for v in g.succ[w]} == {"Z", "W"}


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
    assert not g.succ[labels["true"]]


def test_all_bound_variables_are_nodes():
    es = bm.parse_bes("mu X = X; nu Y = Y;")
    g = bm.build_graph(es)  # Y is unreachable from X but still a node
    assert set(by_label(g)) == {"X", "Y"}


def test_build_graph_with_formula():
    es = bm.fixture("example-structure-graph")
    g = bm.build_graph(es, bm.parse_formula("Z || W"))
    assert g.labels[g.init] == "Z || W"
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
    # several inputs break more than one precondition; the first in the
    # order empty, closed, general syntax, bound formula is reported
    es = bm.parse_bes("mu X = X;")
    for system, formula, error, message in (
        (bm.EquationSystem(()), None, bm.BesError, "for non-empty systems"),
        (bm.parse_bes("mu X = Y && OR{X};"), None, bm.OpenSystemError, "unbound: Y"),
        (bm.parse_bes("mu X = Y;"), None, bm.OpenSystemError, "open; unbound: Y"),
        (bm.parse_bes("nu X = X && Z; mu Z = Y;"), None, bm.OpenSystemError, "unbound: Y$"),
        (
            bm.parse_bes("mu X = X; nu Y = AND{X} || Y;"),
            bm.AndSet(frozenset({"Q"})),
            bm.BesError,
            "equation for Y uses an n-ary connective",
        ),
        (es, bm.AndSet(frozenset({"Q"})), bm.BesError, "general-syntax formula"),
        (es, And(Var("X"), Var("Q")), bm.OpenSystemError, "unbound variables: Q"),
        (es, Var("Q"), bm.OpenSystemError, "unbound variables: Q"),
    ):
        with pytest.raises(error, match=message):
            bm.build_graph(system, formula)


def test_fresh_constants_build_the_graph_of_the_shared_ones():
    # the builder keys the parser's shared TRUE and FALSE without formatting
    # them; a constant built anew must still land on the same node
    MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU
    T, F = Const(True), Const(False)
    assert T is not bm.parse_formula("true") and F is not bm.parse_formula("false")
    shared = bm.parse_bes(
        "nu X = true && Y && (false || Y || true); mu Y = (X || false) && true;"
        "nu Z = true; mu W = false;"
    )
    fresh = bm.system(
        bm.Equation(NU, "X", And(And(T, Var("Y")), Or(Or(F, Var("Y")), Const(True)))),
        bm.Equation(MU, "Y", And(Or(Var("X"), F), bm.parse_formula("true"))),  # shared
        bm.Equation(NU, "Z", T),
        bm.Equation(MU, "W", Const(False)),
    )
    assert fresh == shared
    g = bm.build_graph(shared)
    assert bm.build_graph(fresh) == g
    assert g.labels.count("true") == g.labels.count("false") == 1
    # ... and as the initial formula
    for t in (And(T, Var("Z")), Or(Var("W"), F), T):
        text = bm.format_formula(t)
        assert bm.build_graph(fresh, t) == bm.build_graph(shared, bm.parse_formula(text)), text


def test_paper_application_counts():
    g = bm.build_graph(bm.fixture("paper-application"))
    assert len(g.ids) == 12


def test_build_srf_graph():
    es = bm.parse_bes("mu X = OR{X, Y}; nu Y = AND{X}; nu Z = Z;")
    g = bm.build_srf_graph(es)
    labels = by_label(g)
    assert g.deco[labels["X"]] == Decoration(Op.OR, 1)
    assert g.deco[labels["Y"]] == Decoration(Op.AND, 2)
    assert g.deco[labels["Z"]] == Decoration(Op.NONE, 2)
    assert bm.is_bessy(g) == []
    with pytest.raises(bm.BesError):
        bm.build_srf_graph(bm.parse_bes("mu X = X && X;"))
    with pytest.raises(bm.BesError, match="formula is not in SRF syntax"):
        bm.build_srf_graph(es, And(Var("X"), Var("Y")))


def test_reduce_graph():
    es = bm.parse_bes("mu X = true && Y; nu Y = false;")
    g = bm.reduce_graph(bm.build_graph(es))
    labels = by_label(g)
    assert g.deco[labels["true"]] == Decoration(Op.NONE, 0)
    assert g.deco[labels["false"]] == Decoration(Op.NONE, 1)
    assert (labels["true"], labels["true"]) in g.edges
    assert (labels["false"], labels["false"]) in g.edges


def test_normalise_graph_ranks_everything():
    es = bm.fixture("example-structure-graph")
    g = bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
    labels = by_label(g)
    assert g.deco[labels["X && Y"]].rank == 2  # max of rank(X)=1, rank(Y)=2
    assert all(d.rank is not None for d in g.deco)
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
        m = bm.pipeline(es)
        # each variable is the ranked node of its name, mapped to its block
        image = {
            label: m.names[m.block_of[u]]
            for u, (d, label) in enumerate(zip(m.graph.deco, m.graph.labels))
            if d.rank is not None
        }
        minimised = bm.solve_gauss(m.system)
        original = bm.solve_gauss(es)
        assert {x: minimised[image[x]] for x in original} == original


def test_normalise_unranked_cycle_rejected():
    a = Decoration(Op.AND)
    b = Decoration(Op.OR)
    g = graph("a", {"a": a, "b": b}, [("a", "b"), ("b", "a")])
    with pytest.raises(bm.UnrankedCycleError, match="cycle of unranked nodes: a -> b"):
        bm.normalise_graph(g)
    g = graph("a", {"a": Decoration(Op.NONE, 0), "b": a}, [("a", "a")])
    with pytest.raises(bm.BesError, match="unranked node 'b' has no successors"):
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
