"""Structure graphs: validation, translation, bisimulation, formats."""

import pytest

import besmin as bm
import besmin.graph
from besmin import Decoration, Op, StructureGraph
from conftest import by_label, edges_by_label, oracle, relabelled

R = lambda *rs: frozenset(rs)


def _graph(init, deco, edges, labels=None):
    labels = labels or {u: u for u in deco}
    return StructureGraph(init, deco, frozenset(edges), labels)


def test_structure_graph_validation():
    with pytest.raises(ValueError):
        _graph("a", {"b": Decoration()}, [])
    with pytest.raises(ValueError):
        _graph("a", {"a": Decoration()}, [("a", "b")])


def test_is_bessy_clean_graph():
    g = bm.build_graph(bm.fixture("example-structure-graph"))
    assert bm.is_bessy(g) == []


def test_is_bessy_violations():
    top = Decoration(Op.TOP)
    ranked = Decoration(Op.NONE, R(0))
    # constant with a successor (1) and decorated node without one (2)
    g = _graph("a", {"a": top, "b": ranked}, [("a", "b")])
    text = "; ".join(bm.is_bessy(g))
    assert "constraint 1" in text and "constraint 2" in text
    # multiple successors without an operator symbol
    g = _graph(
        "a",
        {"a": Decoration(Op.NONE, R(0)), "b": ranked, "c": ranked},
        [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
    )
    assert any("constraint 3" in v for v in bm.is_bessy(g))
    # rank gap
    g = _graph(
        "a",
        {"a": Decoration(Op.NONE, R(0)), "b": Decoration(Op.NONE, R(2))},
        [("a", "a"), ("b", "b")],
    )
    assert any("constraint 4" in v for v in bm.is_bessy(g))
    # unranked cycle
    g = _graph(
        "a",
        {"a": Decoration(Op.AND), "b": Decoration(Op.OR)},
        [("a", "b"), ("b", "a")],
    )
    assert any("constraint 5" in v for v in bm.is_bessy(g))


def test_translate_rejects_non_bessy_and_multi_rank():
    g = _graph("a", {"a": Decoration(Op.TOP), "b": Decoration()}, [("a", "b")])
    with pytest.raises(bm.NotBessyError):
        bm.translate(g)
    g = _graph("a", {"a": Decoration(Op.NONE, R(0, 1))}, [("a", "a")])
    with pytest.raises(bm.NotBessyError) as exc:
        bm.translate(g)
    assert "multiple ranks" in str(exc.value)


def test_translate_round_trip_on_srf_systems():
    for seed in range(30):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=5, seed=seed))
        g = bm.build_srf_graph(es)
        formula, back, names = bm.translate(g)
        # the initial formula keeps the initial variable's value
        assert bm.eval_formula(formula, bm.solve_gauss(back)) == bm.solve_gauss(es)[
            bm.least_variable(es)
        ]
        # every bound variable keeps its value under the node naming
        original = bm.solve_gauss(es)
        translated = bm.solve_gauss(back)
        for eq in es:
            node = next(u for u in g.deco if g.label(u) == eq.lhs)
            assert translated[names[node]] == original[eq.lhs]
        # translation is stable: one more build/translate round trip is
        # the identity on the equation system
        g2 = bm.build_graph(back, formula)
        formula2, back2, _ = bm.translate(g2)
        assert (formula2, back2) == (formula, back)


def test_term_rhs_ordering():
    # reconstruction nests to the right and sorts operands
    es = bm.parse_bes("mu X = AND{Z, Y, X}; mu Y = X; mu Z = X;")
    g = bm.build_srf_graph(es)
    _, back, names = bm.translate(g)
    (x_rhs,) = (eq.rhs for eq in back if eq.lhs == names[by_label(g)["X"]])
    assert bm.format_formula(x_rhs).count("(") == 1


def test_minimize_fixture_counts():
    g = bm.build_graph(bm.fixture("paper-application"))
    assert len(g.nodes) == 12
    quotient, mapping = bm.minimize(g)
    assert len(quotient.nodes) == 7
    assert set(mapping) == set(g.deco)
    assert set(mapping.values()) == set(quotient.deco)
    assert bm.bisimilar(g, quotient)


def test_minimize_checks_its_block_mapping(monkeypatch):
    # a refinement that stops at the decoration partition merges nodes whose
    # successors fall into different blocks; minimize must not return it
    def decoration_blocks(succs, keys):
        ids: dict = {}
        return [ids.setdefault(key, len(ids)) for key in keys]

    monkeypatch.setattr(besmin.graph, "_refine", decoration_blocks)
    with pytest.raises(AssertionError):
        bm.minimize(bm.build_graph(bm.fixture("paper-application")))


def test_minimize_hand_built_graph():
    # node ids out of label order, and labels shared within a block ("Y")
    # and across blocks ("V"): blocks are numbered by their least label
    deco = {
        "n0": Decoration(Op.NONE, R(2)),
        "n1": Decoration(Op.OR, R(1)),
        "n2": Decoration(Op.NONE, R(2)),
        "n3": Decoration(Op.NONE, R(0)),
        "n4": Decoration(Op.NONE, R(0)),
        "n5": Decoration(Op.BOT),
        "n6": Decoration(Op.AND),
        "n7": Decoration(Op.NONE, R(1)),
    }
    labels = {"n0": "Y", "n1": "X", "n2": "Y", "n3": "W", "n4": "V", "n5": "false", "n6": "U", "n7": "V"}
    edges = {("n0", "n3"), ("n1", "n0"), ("n1", "n2"), ("n1", "n7"), ("n2", "n4")}
    edges |= {("n3", "n3"), ("n4", "n4"), ("n6", "n5"), ("n6", "n1"), ("n7", "n7")}
    quotient, mapping = bm.minimize(StructureGraph("n6", deco, frozenset(edges), labels))
    assert mapping == {
        "n0": "b5", "n1": "b4", "n2": "b5", "n3": "b2",
        "n4": "b2", "n5": "b0", "n6": "b1", "n7": "b3",
    }
    assert bm.serialize_graph(quotient) == (
        "sgraph v1\ninit b1\n"
        'node b0 op=bot ranks=- label="false"\n'
        'node b1 op=and ranks=- label="U"\n'
        'node b2 op=none ranks=0 label="V"\n'
        'node b3 op=none ranks=1 label="V"\n'
        'node b4 op=or ranks=1 label="X"\n'
        'node b5 op=none ranks=2 label="Y"\n'
        "edge b1 b0\nedge b1 b4\nedge b2 b2\nedge b3 b3\nedge b4 b3\nedge b4 b5\nedge b5 b2\n"
    )


def test_minimize_is_idempotent():
    g = bm.build_graph(bm.fixture("mutex"))
    q1, _ = bm.minimize(g)
    assert bm.minimize(q1) == (q1, {u: u for u in q1.deco})


def test_bisimilar_positive_and_negative():
    g = bm.build_graph(bm.parse_bes("mu X = X && X;"))
    h = bm.build_graph(bm.parse_bes("mu X = X;"))
    assert bm.bisimilar(g, g)
    assert not bm.bisimilar(g, h)  # ▲-decorated vs undecorated variable


def test_bisimilar_ignores_unreachable_parts():
    es1 = bm.parse_bes("mu X = X; nu Y = Y;")
    es2 = bm.parse_bes("mu X = X;")
    g = bm.build_graph(es1, bm.Var("X"))
    h = bm.build_graph(es2, bm.Var("X"))
    assert len(g.nodes) == 2 and len(h.nodes) == 1
    assert bm.bisimilar(g, h)


def test_dependency_graph_matches_srf_structure_graph():
    for seed in range(20):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=6, seed=seed))
        d = bm.to_dependency_graph(es)
        assert set(d.deco) == bm.bnd(es) and d.init == es.equations[0].lhs
        assert relabelled(bm.build_srf_graph(es)) == d
    with pytest.raises(bm.BesError):
        bm.to_dependency_graph(bm.parse_bes("mu X = X && X;"))


def test_serialize_parse_round_trip():
    for name in bm.fixture_names():
        g = bm.build_graph(bm.fixture(name))
        assert bm.parse_graph(bm.serialize_graph(g)) == g
        q, _ = bm.minimize(g)
        assert bm.parse_graph(bm.serialize_graph(q)) == q


def test_serialize_quoting():
    deco = {"a": Decoration(Op.NONE, R(0))}
    g = StructureGraph("a", deco, frozenset({("a", "a")}), {"a": 'we "quote" \\'})
    assert bm.parse_graph(bm.serialize_graph(g)) == g


def test_parse_graph_rejections():
    with pytest.raises(bm.BesError):
        bm.parse_graph("nonsense")
    with pytest.raises(bm.BesError):
        bm.parse_graph("sgraph v1\n")
    with pytest.raises(bm.BesError):
        bm.parse_graph('sgraph v1\ninit a\nnode a op=nope ranks=- label="a"\n')


def test_dot_output():
    g = bm.build_graph(bm.fixture("example-structure-graph"))
    dot = bm.to_dot(g)
    assert dot.startswith("digraph sgraph {")
    assert dot.rstrip().endswith("}")
    assert "peripheries=2" in dot
    assert dot.count("->") == len(g.edges)
    assert "▲" in dot and "▽" in dot


def test_serialization_deterministic():
    g = bm.build_graph(bm.fixture("mutex"))
    assert bm.serialize_graph(g) == bm.serialize_graph(g)
    assert bm.to_dot(g) == bm.to_dot(g)
