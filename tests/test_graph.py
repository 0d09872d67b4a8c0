"""Structure graphs: validation, translation, bisimulation, formats."""

import random
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import besmin as bm
import besmin.graph
from besmin import Decoration, Op, StructureGraph
from conftest import at_recursion_limit, by_label, chain, graph, reference_translate, relabelled
from test_cli import _run_command
from test_properties import systems


def test_decoration_is_a_frozen_value():
    # Decoration is a named tuple: equal to the plain tuple (op, rank)
    a, b = Decoration(Op.AND, 1), Decoration(Op.AND, 1)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a == (Op.AND, 1) and hash(a) == hash((Op.AND, 1))
    assert a != Decoration(Op.OR, 1) and a != Decoration(Op.AND)
    assert (Decoration().op, Decoration().rank) == (Op.NONE, None)
    assert Decoration(rank=2) == Decoration(Op.NONE, 2)
    assert repr(a) == "Decoration(op=<Op.AND: 'and'>, rank=1)"
    with pytest.raises(AttributeError):
        a.rank = 2
    assert a._replace(rank=2) == Decoration(Op.AND, 2)
    assert a == Decoration(Op.AND, 1)


def test_structure_graph_validation():
    d = Decoration()
    for init, deco, succ, labels, ids in (
        (0, [d], [[]], ["a"], ["a", "b"]),  # columns of unequal length
        (0, [d, d], [[], []], ["a", "b"], ["a", "a"]),  # duplicate ids
        (0, [d, d], [[], []], ["a", "b"], ["b", "a"]),  # decreasing ids
        (1, [d], [[]], ["a"], ["a"]),  # init out of range
        (-1, [d], [[]], ["a"], ["a"]),
        (0, [d], [[1]], ["a"], ["a"]),  # successor out of range
        (0, [d], [[-1]], ["a"], ["a"]),
    ):
        with pytest.raises(ValueError):
            StructureGraph(init, deco, succ, labels, ids)


@pytest.mark.parametrize("n", [1, 10, 11, 100, 101])
def test_generated_ids_are_the_list_of_zero_padded_numbers(n):
    width = len(str(n - 1))
    expected = ["n" + str(j).zfill(width) for j in range(n)]
    ids = besmin.graph._Ids("n", n)
    assert len(ids) == n
    assert ids == expected and expected == ids
    assert ids != expected[:-1] and expected[1:] != ids
    assert list(ids) == expected and ids[-1] == expected[-1]
    assert all(a < b for a, b in zip(ids, ids[1:]))
    assert besmin.graph._Ids("b", 0) == []
    assert repr(besmin.graph._Ids("n", 3)) == "['n0', 'n1', 'n2']"


@pytest.mark.parametrize(
    "text",
    [chain(6), bm.print_bes(bm.fixture("example-structure-graph"))],
    ids=["flat", "parsed"],
)
def test_minimize_and_verify_never_format_the_ids(text):
    with mock.patch.object(besmin.graph._Ids, "_formatted", side_effect=AssertionError("formatted")):
        m = bm.pipeline(text)
        assert bm.verify_system(bm.parse_bes(text)).ok
    assert bm.serialize_graph(m.graph).count("node n") == len(m.graph.ids)


def test_is_bessy_clean_graph():
    g = bm.build_graph(bm.fixture("example-structure-graph"))
    assert bm.is_bessy(g) == []


def test_is_bessy_violations():
    top = Decoration(Op.TOP)
    ranked = Decoration(Op.NONE, 0)
    # constant with a successor (1) and decorated node without one (2)
    g = graph("a", {"a": top, "b": ranked}, [("a", "b")])
    text = "; ".join(bm.is_bessy(g))
    assert "constraint 1" in text and "constraint 2" in text
    # multiple successors without an operator symbol
    g = graph(
        "a",
        {"a": Decoration(Op.NONE, 0), "b": ranked, "c": ranked},
        [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
    )
    assert any("constraint 3" in v for v in bm.is_bessy(g))
    # rank gap
    g = graph(
        "a",
        {"a": Decoration(Op.NONE, 0), "b": Decoration(Op.NONE, 2)},
        [("a", "a"), ("b", "b")],
    )
    assert any("constraint 4" in v for v in bm.is_bessy(g))
    # no rank 0 or 1
    g = graph("a", {"a": Decoration(Op.NONE, 2)}, [("a", "a")])
    assert bm.is_bessy(g) == [
        "constraint 4: no node carries rank 0 or 1 (minimum rank is 2)"
    ]
    # unranked cycle
    g = graph(
        "a",
        {"a": Decoration(Op.AND), "b": Decoration(Op.OR)},
        [("a", "b"), ("b", "a")],
    )
    assert any("constraint 5" in v for v in bm.is_bessy(g))
    # r -> s -> c -> d -> c, all unranked, each also pointing to ranked x:
    # one violation, through a node on the cycle (s only leads into it)
    deco = {u: Decoration(Op.OR if u == "d" else Op.AND) for u in "cdrs"}
    deco["x"] = Decoration(Op.NONE, 0)
    edges = [("r", "s"), ("s", "c"), ("c", "d"), ("d", "c"), ("x", "x")]
    g = graph("r", deco, edges + [(u, "x") for u in "rscd"])
    assert bm.is_bessy(g) == ["constraint 5: unranked cycle through node 'c'"]
    with pytest.raises(bm.UnrankedCycleError, match="cycle of unranked nodes: c -> d$"):
        bm.normalise_graph(g)


def test_long_unranked_chain_is_bessy_and_normalises():
    # 5,000 alternating unranked ▲/▽ nodes, each pointing to the next and to
    # the ranked end node x
    n = 5000
    ids = [f"u{i:04d}" for i in range(n)]
    deco = {u: Decoration(Op.AND if i % 2 else Op.OR) for i, u in enumerate(ids)}
    deco["x"] = Decoration(Op.NONE, 1)
    edges = list(zip(ids, ids[1:] + ["x"])) + [(u, "x") for u in ids] + [("x", "x")]
    g = graph(ids[0], deco, edges)
    assert bm.is_bessy(g) == []
    normalised = bm.normalise_graph(bm.reduce_graph(g))
    assert all(d.rank == 1 for d in normalised.deco)


def test_translate_rejects_non_bessy_and_multi_rank():
    g = graph("a", {"a": Decoration(Op.TOP), "b": Decoration()}, [("a", "b")])
    with pytest.raises(bm.NotBessyError):
        bm.translate(g)
    # a node has at most one rank: Decoration cannot hold a second one, and
    # parse_graph rejects a multi-rank line (test_parse_graph_rejections)


def test_translate_round_trip_on_srf_systems():
    for seed in range(30):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=5, seed=seed))
        g = bm.build_srf_graph(es)
        formula, text, names = bm.translate(g)
        formula, back = bm.parse_formula(formula), bm.parse_bes(text)
        # the initial formula keeps the initial variable's value
        assert bm.eval_formula(formula, bm.solve_gauss(back)) == bm.solve_gauss(es)[
            bm.least_variable(es)
        ]
        # every bound variable keeps its value under the node naming
        original = bm.solve_gauss(es)
        translated = bm.solve_gauss(back)
        for eq in es:
            assert translated[names[g.labels.index(eq.lhs)]] == original[eq.lhs]
        # translation is stable: one more build/translate round trip is
        # the identity on the equation system
        g2 = bm.build_graph(back, formula)
        formula2, text2, _ = bm.translate(g2)
        assert (bm.parse_formula(formula2), bm.parse_bes(text2)) == (formula, back)


def test_term_rhs_ordering():
    # reconstruction nests to the right and sorts operands
    es = bm.parse_bes("mu X = AND{Z, Y, X}; mu Y = X; mu Z = X;")
    g = bm.build_srf_graph(es)
    _, text, names = bm.translate(g)
    back = bm.parse_bes(text)
    (x_rhs,) = (eq.rhs for eq in back if eq.lhs == names[by_label(g)["X"]])
    assert bm.format_formula(x_rhs).count("(") == 1


def _shared_term_graph() -> StructureGraph:
    # the unranked ▲ node a is an operand of the ranked r1, r2 and r3 and of
    # the unranked ▽ node o, next to a constant in r1 and o
    return graph(
        "r1",
        {
            "a": Decoration(Op.AND),
            "f": Decoration(Op.BOT),
            "o": Decoration(Op.OR),
            "r1": Decoration(Op.OR, 0),
            "r2": Decoration(Op.AND, 1),
            "r3": Decoration(Op.NONE, 1),
            "t": Decoration(Op.TOP),
        },
        [
            ("a", "r1"), ("a", "r2"), ("o", "a"), ("o", "t"), ("o", "r2"),
            ("r1", "a"), ("r1", "t"), ("r2", "a"), ("r2", "o"), ("r2", "f"),
            ("r3", "a"),
        ],
    )


def test_translate_orders_constants_first():
    # true before false before every term, whatever their texts' order
    g = graph(
        "r",
        {"f": Decoration(Op.BOT), "r": Decoration(Op.AND, 0), "t": Decoration(Op.TOP)},
        [("r", "f"), ("r", "r"), ("r", "t")],
    )
    assert bm.translate(g) == ("X0", "nu X0 = true && (false && X0);\n", ["X1", "X0", "X2"])


def test_translate_shares_an_unranked_term():
    formula, text, names = bm.translate(_shared_term_graph())
    assert bm.parse_formula(formula) == bm.Var("X0")
    assert names == ["X3", "X4", "X5", "X0", "X1", "X2", "X6"]
    assert text == bm.print_bes(bm.parse_bes(text)) == (
        "nu X0 = true || (X0 && X1);\n"
        "mu X1 = false && (X0 && X1 && (true || ((X0 && X1) || X1)));\n"
        "mu X2 = X0 && X1;\n"
    )


def _random_graph(seed: int) -> StructureGraph:
    """A small graph whose ▲/▽ nodes take 1–3 successors; unranked nodes
    point only to ranked ones and to unranked ones made before them, and
    one graph in five gets a random extra edge, which may make it not
    BESsy."""
    rng = random.Random(seed)
    ranked, unranked = rng.randint(1, 4), rng.randint(0, 6)
    positions = list(range(ranked + unranked))
    rng.shuffle(positions)
    start, levels = rng.randint(0, 1), rng.randint(1, ranked)
    ops = [Op.AND, Op.OR, Op.NONE]
    deco, succ = [None] * len(positions), [set() for _ in positions]
    for i, u in enumerate(positions[:ranked]):
        op = rng.choice(ops)
        deco[u] = Decoration(op, start + i % levels)
        succ[u].update(rng.sample(positions, 1 if op is Op.NONE else min(len(positions), rng.randint(1, 3))))
    for i, u in enumerate(positions[ranked:]):
        op = rng.choice([Op.AND, Op.OR, Op.TOP, Op.BOT, Op.NONE])
        deco[u] = Decoration(op)
        if op is Op.AND or op is Op.OR:
            below = positions[: ranked + i]
            succ[u].update(rng.sample(below, min(len(below), rng.randint(1, 3))))
    if rng.random() < 0.2:
        succ[rng.choice(positions)].add(rng.choice(positions))
    ids = [f"n{u:02}" for u in range(len(positions))]
    return StructureGraph(0, deco, [sorted(vs) for vs in succ], ids, ids)


def _agrees_with_the_reference(g: StructureGraph) -> None:
    try:
        formula, system, names = reference_translate(g)
    except bm.NotBessyError as exc:
        with pytest.raises(bm.NotBessyError) as raised:
            bm.translate(g)
        assert str(raised.value) == str(exc)
        return
    init, text, translated_names = bm.translate(g)
    assert text == bm.print_bes(system)
    assert init == bm.format_formula(formula)
    assert translated_names == names
    assert _same_system(bm.parse_bes(text), system)


def _same_system(es: bm.EquationSystem, other: bm.EquationSystem) -> bool:
    """``es == other`` without recursing once per level of a formula."""
    if [(eq.sign, eq.lhs) for eq in es] != [(eq.sign, eq.lhs) for eq in other]:
        return False
    pairs = [(eq.rhs, eq2.rhs) for eq, eq2 in zip(es, other)]
    while pairs:
        f, h = pairs.pop()
        if f.__class__ is not h.__class__:
            return False
        if isinstance(f, (bm.And, bm.Or)):
            pairs += (f.left, h.left), (f.right, h.right)
        elif f != h:
            return False
    return True


def test_translate_matches_the_reference():
    # translate composes each node's text from its operands' texts; the
    # reference builds the formula trees that print_bes then prints
    graphs = [_random_graph(seed) for seed in range(400)]
    for n in range(1, 41):
        for depth in (1, 2, 3):
            cfg = bm.GenConfig(variable_count=n, max_rhs_depth=depth, constant_probability=0.15, seed=n)
            g = bm.build_graph(bm.gen_bes(cfg))
            normalised = bm.normalise_graph(bm.reduce_graph(g))
            graphs += [g, bm.reduce_graph(g), normalised, bm.minimize(g)[0], bm.minimize(normalised)[0]]
        g = bm.build_srf_graph(bm.gen_srf_bes(bm.GenConfig(variable_count=n, seed=n)))
        graphs += [g, bm.minimize(g)[0]]
    t, f = Decoration(Op.TOP), Decoration(Op.BOT)
    and_, or_ = Decoration(Op.AND), Decoration(Op.OR)
    graphs += [
        _shared_term_graph(),
        # an unranked operand with the same connective, first and last
        graph(
            "r",
            {"a": and_, "r": Decoration(Op.AND, 0), "s": Decoration(Op.AND, 0), "x": Decoration(Op.NONE, 0)},
            [("a", "r"), ("a", "s"), ("r", "a"), ("r", "x"), ("s", "a"), ("s", "r"), ("s", "x"), ("x", "x")],
        ),
        # two true nodes collapse to one operand, which sorts first
        graph(
            "r",
            {"a": and_, "r": Decoration(Op.OR, 0), "t": t, "u": t},
            [("a", "t"), ("a", "u"), ("r", "a"), ("r", "r")],
        ),
        # a node labelled true && true in a quotient: one successor
        graph("r", {"a": and_, "r": Decoration(Op.OR, 0), "t": t}, [("a", "t"), ("r", "a"), ("r", "r")]),
        # nests of constants only
        graph(
            "a",
            {"a": or_, "b": and_, "c": or_, "f": f, "r": Decoration(Op.AND, 1), "t": t},
            [("a", "b"), ("a", "f"), ("b", "c"), ("b", "t"), ("c", "f"), ("c", "t"), ("r", "a"), ("r", "c")],
        ),
    ]
    hub = "nu H = " + " || ".join(f"X{i}" for i in range(3000)) + ";\n" + chain(3000)
    g = bm.build_graph(hub)
    graphs += [g, bm.minimize(g)[0]]
    assert len(graphs) >= 1000
    for g in graphs:
        _agrees_with_the_reference(g)


def test_minimize_fixture_counts():
    g = bm.build_graph(bm.fixture("paper-application"))
    assert len(g.ids) == 12
    quotient, block_of = bm.minimize(g)
    assert len(quotient.ids) == 7
    assert len(block_of) == len(g.ids)
    assert set(block_of) == set(range(len(quotient.ids)))
    assert bm.bisimilar(g, quotient)


def test_minimize_checks_its_block_mapping(monkeypatch):
    # a refinement that stops at the decoration partition merges nodes whose
    # successors fall into different blocks; minimize must not return it
    def decoration_blocks(succs, keys):
        ids: dict = {}
        return [ids.setdefault(key, len(ids)) for key in keys]

    refine = besmin.graph._refine
    monkeypatch.setattr(besmin.graph, "_refine", decoration_blocks)
    with pytest.raises(AssertionError):
        bm.minimize(bm.build_graph(bm.fixture("paper-application")))
    # a partition that is wrong only in q2, which is not the first member
    # of its block in either partition: it joins p's block, but q2 reaches
    # f and p reaches t
    node = Decoration(Op.NONE, 0)
    g = graph(
        "p",
        {
            "f": Decoration(Op.BOT),
            "p": node,
            "p2": node,
            "q": node,
            "q2": node,
            "t": Decoration(Op.TOP),
        },
        [("p", "t"), ("p2", "t"), ("q", "f"), ("q2", "f")],
    )
    right = [0, 1, 1, 2, 2, 3]  # f, p, p2, q, q2, t
    assert refine(g.succ, g.deco) == right
    monkeypatch.setattr(besmin.graph, "_refine", lambda succs, keys: right)
    bm.minimize(g)
    wrong = [0, 1, 1, 2, 1, 3]
    monkeypatch.setattr(besmin.graph, "_refine", lambda succs, keys: wrong)
    with pytest.raises(AssertionError):
        bm.minimize(g)


def test_minimize_checks_its_block_mapping_under_python_O(tmp_path):
    # python -O strips assert statements; the check must survive it
    script = (
        "import sys\n"
        "import besmin as bm\n"
        "import besmin.graph\n"
        "def decoration_blocks(succs, keys):\n"
        "    ids = {}\n"
        "    return [ids.setdefault(key, len(ids)) for key in keys]\n"
        "besmin.graph._refine = decoration_blocks\n"
        "try:\n"
        "    bm.minimize(bm.build_graph(bm.fixture('paper-application')))\n"
        "except AssertionError as error:\n"
        "    print(sys.flags.optimize, error)\n"
    )
    result = _run_command([sys.executable, "-O", "-c", script], tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "1 the block mapping must be a functional bisimulation\n"


def _naive_refine(succs, keys):
    # every node re-signed in every round, until the block count stays
    ids: dict = {}
    block = [ids.setdefault(key, len(ids)) for key in keys]
    while True:
        count, block_of = len(ids), block.__getitem__
        ids = {}
        block = [
            ids.setdefault((b, frozenset(map(block_of, vs))), len(ids))
            for b, vs in zip(block, succs)
        ]
        if len(ids) == count:
            return block


@st.composite
def refinement_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    nodes = st.integers(min_value=0, max_value=max(n - 1, 0))
    succs = [sorted(draw(st.sets(nodes, max_size=3))) for _ in range(n)]
    if n and draw(st.booleans()):
        # one node a successor of every other, as "true" of each row of a
        # deadlock-freedom system: the first round re-signs every node
        hub = draw(nodes)
        succs = [vs if u == hub else sorted({*vs, hub}) for u, vs in enumerate(succs)]
    # enough keys that blocks of one member, which are never re-signed, are
    # common, or a single key; or a fresh Decoration per node from a few
    # ranks: equal values in distinct objects, as the builders decorate a
    # Var and a Const right-hand side of one rank
    alphabet = draw(st.sampled_from(["abcdefgh", "a"]))
    letters = st.sampled_from(alphabet)
    decorations = st.builds(Decoration, st.just(Op.NONE), st.integers(0, 2))
    keys = draw(st.lists(draw(st.sampled_from([letters, decorations])), min_size=n, max_size=n))
    return succs, keys


@settings(max_examples=500, deadline=None)
@given(refinement_inputs())
@at_recursion_limit
def test_refine_matches_the_naive_rounds(case):
    succs, keys = case
    assert besmin.graph._refine(succs, keys) == _naive_refine(succs, keys)


def test_minimize_long_chain():
    g = bm.build_graph(bm.parse_bes(chain(4000)))
    start = time.perf_counter()
    quotient, _ = bm.minimize(g)
    assert time.perf_counter() - start < 5
    assert len(quotient.ids) == len(g.ids) == 4002


def test_minimize_hub_over_a_long_chain():
    # H reaches every link, so it is re-signed once per round
    hub = " || ".join(f"X{i}" for i in range(4000))
    g = bm.build_graph(bm.parse_bes(f"nu H = {hub};\n" + chain(4000)))
    start = time.perf_counter()
    quotient, _ = bm.minimize(g)
    assert time.perf_counter() - start < 10
    assert len(quotient.ids) == len(g.ids) == 4003


def test_minimize_hand_built_graph():
    # node ids out of label order, and labels shared within a block ("Y")
    # and across blocks ("V"): blocks are numbered by their first member in
    # position order, whatever the labels
    deco = {
        "n0": Decoration(Op.NONE, 2),
        "n1": Decoration(Op.OR, 1),
        "n2": Decoration(Op.NONE, 2),
        "n3": Decoration(Op.NONE, 0),
        "n4": Decoration(Op.NONE, 0),
        "n5": Decoration(Op.BOT),
        "n6": Decoration(Op.AND),
        "n7": Decoration(Op.NONE, 1),
    }
    labels = {"n0": "Y", "n1": "X", "n2": "Y", "n3": "W", "n4": "V", "n5": "false", "n6": "U", "n7": "V"}
    edges = {("n0", "n3"), ("n1", "n0"), ("n1", "n2"), ("n1", "n7"), ("n2", "n4")}
    edges |= {("n3", "n3"), ("n4", "n4"), ("n6", "n5"), ("n6", "n1"), ("n7", "n7")}
    g = graph("n6", deco, edges, labels)
    quotient, block_of = bm.minimize(g)
    # n0 -> b0, n1 -> b1, n2 -> b0, n3 -> b2, n4 -> b2, n5 -> b3, n6 -> b4, n7 -> b5
    assert block_of == [0, 1, 0, 2, 2, 3, 4, 5]
    assert bm.serialize_graph(quotient) == (
        "sgraph v1\ninit b4\n"
        'node b0 op=none ranks=2 label="Y"\n'
        'node b1 op=or ranks=1 label="X"\n'
        'node b2 op=none ranks=0 label="W"\n'
        'node b3 op=bot ranks=- label="false"\n'
        'node b4 op=and ranks=- label="U"\n'
        'node b5 op=none ranks=1 label="V"\n'
        "edge b0 b2\nedge b1 b0\nedge b1 b5\nedge b2 b2\nedge b4 b1\nedge b4 b3\nedge b5 b5\n"
    )
    # ranked nodes by rank and then position, then the others by position
    assert bm.translate(g)[2] == ["X4", "X2", "X5", "X0", "X1", "X6", "X7", "X3"]
    assert bm.translate(quotient)[2] == ["X3", "X1", "X0", "X4", "X5", "X2"]


def _old_node_key(labels):
    # the reference label order: true before false before everything else,
    # then by label, then by position
    def key(u):
        label = labels[u]
        if label in ("true", "false"):
            return (0, label == "false", ""), u
        return (1, 0, label), u
    return key


def _old_names(g):
    # translate's naming in label order: ranked nodes by rank and then in
    # label order, then the unranked ones in label order
    key = _old_node_key(g.labels)
    ranked = sorted(
        (u for u, d in enumerate(g.deco) if d.rank is not None),
        key=lambda u: (g.deco[u].rank, key(u)),
    )
    rest = sorted((u for u, d in enumerate(g.deco) if d.rank is None), key=key)
    names = [""] * len(g.ids)
    for i, u in enumerate(ranked + rest):
        names[u] = f"X{i}"
    return names


def _old_blocks(g, block_of):
    # the blocks renumbered in the order their first members take in label order
    first_seen: dict[int, int] = {}
    for u in sorted(range(len(g.ids)), key=_old_node_key(g.labels)):
        first_seen.setdefault(block_of[u], len(first_seen))
    return [first_seen[b] for b in block_of]


def _generated(n, seed):
    return bm.gen_bes(bm.GenConfig(variable_count=n, seed=seed))


@settings(max_examples=150, deadline=None)
@given(systems() | st.builds(_generated, st.integers(1, 40), st.integers(0, 2**16)))
@at_recursion_limit
def test_position_numbering_is_label_numbering_on_parsed_systems(es):
    # a system the parser can produce builds a graph in label order, so
    # position numbering gives the blocks and names label order gave
    assert bm.parse_bes(bm.print_bes(es)) == es
    g = bm.build_graph(es)
    for view in (g, bm.reduce_graph(g), bm.normalise_graph(bm.reduce_graph(g))):
        quotient, block_of = bm.minimize(view)
        assert block_of == _old_blocks(view, block_of)
        for h in (view, quotient):
            assert bm.translate(h)[2] == _old_names(h)


def test_label_order_with_repeated_constants():
    # ids out of label order; two ⊤ nodes labelled "true" share a block, and
    # a ranked node after them is labelled "true" as well: blocks and names
    # follow positions, not labels
    g = bm.parse_graph(
        "sgraph v1\ninit n4\n"
        'node n0 op=or ranks=1 label="Z"\n'
        'node n1 op=top ranks=- label="true"\n'
        'node n2 op=bot ranks=- label="false"\n'
        'node n3 op=top ranks=- label="true"\n'
        'node n4 op=and ranks=- label="A"\n'
        'node n5 op=none ranks=0 label="true"\n'
        'node n6 op=none ranks=1 label="Y"\n'
        "edge n0 n2\nedge n0 n6\nedge n4 n0\nedge n4 n1\nedge n5 n5\nedge n6 n5\n"
    )
    quotient, block_of = bm.minimize(g)
    assert block_of == [0, 1, 2, 1, 3, 4, 5]
    assert quotient.labels == ["Z", "true", "false", "A", "true", "Y"]
    assert bm.translate(g)[2] == ["X1", "X3", "X4", "X5", "X6", "X0", "X2"]
    assert bm.translate(quotient)[2] == ["X1", "X3", "X4", "X5", "X0", "X2"]
    # label order would have numbered them otherwise
    assert _old_blocks(g, block_of) == [5, 0, 2, 0, 3, 1, 4]
    assert _old_names(g) == ["X2", "X3", "X5", "X4", "X6", "X0", "X1"]


def test_minimize_is_idempotent():
    g = bm.build_graph(bm.fixture("mutex"))
    q1, _ = bm.minimize(g)
    assert bm.minimize(q1) == (q1, list(range(len(q1.ids))))


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
    assert len(g.ids) == 2 and len(h.ids) == 1
    assert bm.bisimilar(g, h)


def test_dependency_graph_matches_srf_structure_graph():
    for seed in range(20):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=6, seed=seed))
        d = bm.to_dependency_graph(es)
        assert set(d.ids) == bm.bnd(es) and d.ids[d.init] == es.equations[0].lhs
        assert relabelled(bm.build_srf_graph(es)) == d
    for es, message in (
        (bm.parse_bes("mu X = X && X;"), "SRF only"),
        (bm.EquationSystem(()), "empty system"),
        (bm.parse_bes("mu X = OR{Y};"), "closed systems only"),
    ):
        with pytest.raises(bm.BesError, match=message):
            bm.to_dependency_graph(es)


def test_serialize_parse_round_trip():
    for name in bm.fixture_names():
        g = bm.build_graph(bm.fixture(name))
        assert bm.parse_graph(bm.serialize_graph(g)) == g
        q, _ = bm.minimize(g)
        assert bm.parse_graph(bm.serialize_graph(q)) == q


def test_serialize_quoting():
    deco = {"a": Decoration(Op.NONE, 0)}
    g = graph("a", deco, [("a", "a")], {"a": 'we "quote" \\'})
    assert bm.parse_graph(bm.serialize_graph(g)) == g


def test_labels_with_line_breaks_round_trip():
    # each character str.splitlines splits at is escaped, read back in one
    # pass with the backslash and the quote; other labels keep their bytes
    breaks = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    assert len(("x" + "x".join(breaks) + "x").splitlines()) == 11
    # one self-looped node; parse_graph reads labels from outside, where
    # they need not be identifiers
    def labelled(label):
        return graph("n0", {"n0": Decoration(Op.NONE, 0)}, [("n0", "n0")], {"n0": label})

    for c in breaks:
        for name in (c, f"a{c}b", f'\\{c}"', f'"\\n{c}\\u2028\\', f"\\u{ord(c):04x}"):
            g = labelled(name)
            text = bm.serialize_graph(g)
            assert len(text.splitlines()) == 4, text
            assert bm.parse_graph(text) == g
            # DOT escapes only \ and ", as Graphviz reads no \uXXXX escapes;
            # one \n, a DOT line break, separates the decoration
            dot = name.replace("\\", "\\\\").replace('"', '\\"')
            assert f'label="{dot}\\n0"' in bm.to_dot(g)
    g = labelled('a\\"\tb')
    assert 'label="a\\\\\\"\tb"' in bm.serialize_graph(g)


def test_parse_graph_rejections():
    with pytest.raises(bm.BesError):
        bm.parse_graph("nonsense")
    with pytest.raises(bm.BesError):
        bm.parse_graph("sgraph v1\n")
    with pytest.raises(bm.BesError):
        bm.parse_graph('sgraph v1\ninit a\nnode a op=nope ranks=- label="a"\n')
    node = 'sgraph v1\ninit a\nnode a op=or ranks={} label="a"\n'
    for text in (
        node.format("x"),
        node.format("1,,2"),
        node.format("0,1"),
        node.format("1") + "edge a b\n",
        node.format("1").replace("init a", "init b"),
        node.format("1") + 'node a op=none ranks=0 label="b"\nedge a a\n',
        node.format("9" * 5000),
    ):
        with pytest.raises(bm.BesError):
            bm.parse_graph(text)


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
