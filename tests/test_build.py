"""Graph construction rules and the reduce/normalise transformations."""

import re
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import besmin as bm
from besmin import And, AndSet, Const, Decoration, Op, Or, OrSet, Var
from conftest import at_recursion_limit, by_label, edges_by_label, graph


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


def test_bound_names_must_be_identifiers():
    # a name that is no identifier, or a keyword, could be the text of
    # another node; both builders and the dependency graph refuse it,
    # wherever it is bound
    MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU
    bad = ["a && b", "true", "false", "mu", "AND", "9X", "'X", "X Y", "", "é", "X\n"]
    for name in bad:
        for es in (
            bm.system(bm.Equation(NU, name, Var(name))),
            bm.system(bm.Equation(NU, "X", Var(name)), bm.Equation(MU, name, Var("X"))),
        ):
            for build in (bm.build_graph, bm.build_srf_graph, bm.to_dependency_graph):
                with pytest.raises(bm.BesError, match=f"^bound variable {re.escape(repr(name))} "):
                    build(es)
    # names that would make a variable, a constant and a subterm share a text
    t = And(Var("a"), Var("b"))
    for es, t, name in (
        (bm.system(bm.Equation(NU, "true", And(Const(True), Var("true")))), None, "true"),
        (
            bm.system(
                bm.Equation(NU, "a && b", Var("a && b")),
                bm.Equation(MU, "a", t),
                bm.Equation(MU, "b", Var("a && b")),
            ),
            t,
            "a && b",
        ),
        (
            bm.system(
                bm.Equation(NU, "X", Or(And(Var("a && b"), Var("c")), And(t, Var("c")))),
                bm.Equation(MU, "a && b", Var("X")),
                bm.Equation(MU, "a", Var("a")),
                bm.Equation(MU, "b", Var("X")),
                bm.Equation(MU, "c", Var("c")),
            ),
            None,
            "a && b",
        ),
    ):
        with pytest.raises(bm.BesError, match=f"^bound variable {re.escape(repr(name))} "):
            bm.build_graph(es, t)
    # identifiers that hold a keyword, a digit or a prime are names
    good = ["X'", "_a", "Xtrue", "false_", "a9"]
    es = bm.system(*(bm.Equation(NU, x, Var(y)) for x, y in zip(good, good[1:] + good[:1])))
    for build in (bm.build_graph, bm.build_srf_graph, bm.to_dependency_graph):
        assert build(es).labels == sorted(good)


def test_unbound_names_with_a_node_label():
    # each variable read is looked up among the bound names: an unbound
    # Var("true") or Var("false") finds no node, even beside the constant
    MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU
    X = Var("X")
    for value, name in ((True, "true"), (False, "false")):
        for c in (Const(value), bm.parse_formula(name)):  # fresh and shared
            unbound = f"unbound.*: {name}$"
            es = bm.system(bm.Equation(NU, "X", And(c, Var(name))))
            with pytest.raises(bm.OpenSystemError, match=unbound):
                bm.build_graph(es)
            es = bm.system(bm.Equation(MU, "X", Or(X, c)))
            for t in (Var(name), And(Var(name), X), Or(X, Var(name))):
                with pytest.raises(bm.OpenSystemError, match=unbound):
                    bm.build_graph(es, t)
            # ... and so does one inside a subterm whose text the constant's
            # subterm shares, met second in a right-hand side or first as t
            es = bm.system(bm.Equation(NU, "X", Or(Or(X, And(c, X)), And(Var(name), X))))
            with pytest.raises(bm.OpenSystemError, match=unbound):
                bm.build_graph(es)
            es = bm.system(bm.Equation(NU, "X", Or(X, And(c, X))))
            with pytest.raises(bm.OpenSystemError, match=unbound):
                bm.build_graph(es, And(Var(name), X))
    # ... nor does an unbound Var("a && b") beside the subterm a && b: in a
    # right-hand side, as a whole right-hand side, or as t
    a, b, ab = Var("a"), Var("b"), Var("a && b")
    leaves = [bm.Equation(MU, "a", a), bm.Equation(MU, "b", b)]
    unbound = r"unbound.*: a && b$"
    for rhs in (Or(ab, And(a, b)), Or(And(a, b), ab), Or(X, Or(ab, And(a, b)))):
        with pytest.raises(bm.OpenSystemError, match=unbound):
            bm.build_graph(bm.system(bm.Equation(NU, "X", rhs), *leaves))
    es = bm.system(bm.Equation(NU, "X", ab), bm.Equation(MU, "Y", Or(X, And(a, b))), *leaves)
    with pytest.raises(bm.OpenSystemError, match=unbound):
        bm.build_graph(es)
    es = bm.system(bm.Equation(NU, "X", Or(X, And(a, b))), *leaves)
    for t in (ab, Or(ab, X)):
        with pytest.raises(bm.OpenSystemError, match=unbound):
            bm.build_graph(es, t)


def test_deep_formulas_of_one_text():
    # two equal 1,000-level formulas, built as distinct objects, at the
    # interpreter's own recursion limit: they share their nodes, and the
    # generated __eq__, which recurses, never compares them
    MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU
    nests = [And(Var("a"), Var("c")), And(Var("a"), Var("c"))]
    for level in range(1000):
        nests = [(And if level % 2 == 0 else Or)(Var("c"), f) for f in nests]
    assert nests[0] is not nests[1]
    equations = [bm.Equation(MU, "a", Var("c")), bm.Equation(NU, "c", Var("c"))]
    g = bm.build_graph(bm.system(*equations, bm.Equation(MU, "X", Or(*nests))))
    # the three variables, and 999 texts of one node each: X flattens the top level
    assert (len(g.labels), len(set(g.labels))) == (1002, 1002)
    assert g == bm.build_graph(bm.system(*equations, bm.Equation(MU, "X", nests[0])))


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


def test_verify_refuses_a_variable_named_like_a_subterm():
    # "Y && Y" is the text of a subterm of Y's equation, in both orders
    MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU
    y = bm.Equation(NU, "Y", Or(Var("Y && Y"), And(Var("Y"), Var("Y"))))
    z = bm.Equation(MU, "Y && Y", Var("Y && Y"))
    for es in (bm.system(y, z), bm.system(z, y)):
        for run in (bm.verify_system, bm.pipeline):
            with pytest.raises(bm.BesError, match="^bound variable 'Y && Y' is not an "):
                run(es)


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
    _, text, names = bm.translate(g)
    system = bm.parse_bes(text)

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


# identifiers, one holding a keyword and one a prime
NAMES = ["a", "b", "c", "Xtrue", "a'"]
# leaves that make shared subterms common: the fourth equals the first and
# the last the second, each as another object
A, B, C = Var("a"), Var("b"), Var("c")
COLLIDING = [And(A, B), Or(B, C), And(And(A, B), C), And(Var("a"), B), Or(B, Var("c"))]
MU, NU = bm.Fixpoint.MU, bm.Fixpoint.NU


def _reference(es, t, srf: bool):
    """The structure graph by the deduction rules, read naively: a node per
    bound variable, constant and subterm whose connective differs from its
    context; ``(init, deco, succ, labels)`` in the order ``build_graph``
    documents."""
    rank, rhs = bm.ranks(es), {eq.lhs: eq.rhs for eq in es}
    op = {And: Op.AND, AndSet: Op.AND, Or: Op.OR, OrSet: Op.OR}

    def node(f):  # a variable stands for its equation's node
        return f.name if isinstance(f, Var) else f

    def leaves(f, cls):  # of the block of cls at f, left to right
        return leaves(f.left, cls) + leaves(f.right, cls) if isinstance(f, cls) else [f]

    def successors(f):
        if isinstance(f, (AndSet, OrSet)):
            return sorted(f.members)
        if isinstance(f, (And, Or)):
            return list(dict.fromkeys(map(node, leaves(f, type(f)))))
        return [node(f)]

    def rule(u):  # decoration, successors and label of node u
        if isinstance(u, str):
            return Decoration(op.get(type(rhs[u]), Op.NONE), rank[u]), successors(rhs[u]), u
        if isinstance(u, Const):
            return Decoration(Op.TOP if u.value else Op.BOT), [], bm.format_formula(u)
        return Decoration(op[type(u)]), successors(u), bm.format_formula(u)

    closure, stack = {}, [node(t), *rhs]  # depth first, in the order popped
    while stack:
        u = stack.pop()
        if u not in closure:
            closure[u] = rule(u)
            stack += closure[u][1]
    constants = [u for u in (Const(True), Const(False)) if u in closure]
    order = constants + sorted(
        (u for u in closure if not isinstance(u, Const)), key=lambda u: closure[u][2]
    )
    position = {u: i for i, u in enumerate(order)}
    return (
        position[node(t)],
        [closure[u][0] for u in order],
        [sorted(position[v] for v in closure[u][1]) for u in order],
        [closure[u][2] for u in order],
    )


def _chains(sub):  # a chain of one connective, nested to the left or to the right
    def fold(cls, operands, left):
        if left:
            return reduce(cls, operands)
        return reduce(lambda right, f: cls(f, right), reversed(operands))

    return st.builds(
        fold, st.sampled_from([And, Or]), st.lists(sub, min_size=2, max_size=5), st.booleans()
    )


def _formulas(names):
    constants = [Const(True), Const(False), bm.parse_formula("true"), bm.parse_formula("false")]
    leaves = st.sampled_from(constants) | st.sampled_from(names).map(Var)
    colliding = [f for f in COLLIDING if bm.occ(f) <= set(names)]
    if colliding:
        leaves |= st.sampled_from(colliding)
    return st.recursive(
        leaves,
        lambda sub: st.builds(And, sub, sub) | st.builds(Or, sub, sub) | _chains(sub),
        max_leaves=12,
    )


@st.composite
def _systems(draw, srf: bool):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    if srf:
        members = st.frozensets(st.sampled_from(names), min_size=1)
        formulas = st.sampled_from(names).map(Var) | members.map(AndSet) | members.map(OrSet)
    else:
        formulas = _formulas(names)
    signs = st.sampled_from([MU, NU])
    es = bm.system(*(bm.Equation(draw(signs), x, draw(formulas)) for x in names))
    return es, draw(st.none() | formulas)


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda srf: st.tuples(st.just(srf), _systems(srf))))
@at_recursion_limit
def test_build_matches_the_deduction_rules(case):
    srf, (es, t) = case
    g = (bm.build_srf_graph if srf else bm.build_graph)(es, t)
    t = Var(es.equations[0].lhs) if t is None else t
    assert (g.init, g.deco, g.succ, g.labels) == _reference(es, t, srf)
