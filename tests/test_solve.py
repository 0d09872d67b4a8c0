"""Solvers: the recursive oracle, Gauss elimination, and their agreement."""

import gc
import random
import time

import pytest

import besmin as bm
import besmin.solve
import besmin.verify
from besmin import Var
from besmin.solve import ORACLE_MAX_EQUATIONS
from conftest import chain, oracle, reference_oracle


def test_eval_formula():
    env = {"X": True, "Y": False}
    assert bm.eval_formula(bm.parse_formula("X && (Y || true)"), env)
    assert not bm.eval_formula(bm.parse_formula("X && Y"), env)
    assert bm.eval_formula(bm.parse_formula("OR{X, Y}"), env)
    assert not bm.eval_formula(bm.parse_formula("AND{X, Y}"), env)
    with pytest.raises(bm.BesError):
        bm.eval_formula(Var("Z"), env)
    # operands are read left to right, and a deciding one stops the reading
    assert not bm.eval_formula(bm.parse_formula("X && Z"), {"X": False})
    assert bm.eval_formula(bm.parse_formula("X || Z"), env)
    with pytest.raises(bm.BesError):
        bm.eval_formula(bm.parse_formula("Z && X"), {"X": False})
    # X && (Y || (X && ...)) nested 3,000 levels
    term = "Y"
    for level in range(3000):
        term = f"X && ({term})" if level % 2 == 0 else f"Y || ({term})"
    assert not bm.eval_formula(bm.parse_formula(term), env)
    assert bm.eval_formula(bm.parse_formula(term), {"X": True, "Y": True})


def test_order_sensitivity():
    assert oracle(bm.parse_bes("mu X = Y; nu Y = X;")) == {"X": False, "Y": False}
    assert oracle(bm.parse_bes("nu Y = X; mu X = Y;")) == {"X": True, "Y": True}
    assert bm.solve_gauss(bm.parse_bes("mu X = Y; nu Y = X;")) == {
        "X": False,
        "Y": False,
    }
    assert bm.solve_gauss(bm.parse_bes("nu Y = X; mu X = Y;")) == {
        "X": True,
        "Y": True,
    }


def test_single_equations():
    assert oracle(bm.parse_bes("mu X = X;")) == {"X": False}
    assert oracle(bm.parse_bes("nu X = X;")) == {"X": True}
    assert bm.solve_gauss(bm.parse_bes("mu X = X || true;")) == {"X": True}
    assert bm.solve_gauss(bm.parse_bes("nu X = X && false;")) == {"X": False}


def test_oracle_on_open_system_uses_environment():
    es = bm.parse_bes("mu X = Y;")
    assert bm.solve_recursive(es, {"Y": True})["X"] is True
    assert bm.solve_recursive(es, {"Y": False})["X"] is False


def test_oracle_leaves_no_cyclic_garbage(collector):
    # its memo grows with the system, so reference counting must free it
    es = bm.gen_bes(bm.GenConfig(variable_count=12, seed=1))
    gc.collect()
    gc.disable()
    bm.solve_recursive(es, {})
    assert gc.collect() == 0


def test_oracle_refuses_systems_above_its_bound(monkeypatch):
    # the oracle nests one call per equation: a chain of 1,200 links once
    # let a RecursionError escape, from solve_recursive and verify_system
    es = bm.parse_bes(chain(1200))
    message = (
        f"^the recursive oracle solves at most {ORACLE_MAX_EQUATIONS} equations; "
        "this system has 1201$"
    )
    with pytest.raises(bm.BesError, match=message):
        bm.solve_recursive(es, {})
    # verify checks the bound before it builds or solves anything
    def unreachable(es):
        raise AssertionError("verify_system went past the oracle's bound")

    monkeypatch.setattr(besmin.verify, "pipeline", unreachable)
    monkeypatch.setattr(besmin.verify, "solve_gauss", unreachable)
    with pytest.raises(bm.BesError, match=message):
        bm.verify_system(es)
    # a system at the bound whose memoised recursion is linear is solved
    text = "".join(f"nu X{i} = true;\n" for i in range(ORACLE_MAX_EQUATIONS))
    assert bm.solve_recursive(bm.parse_bes(text), {}) == {
        f"X{i}": True for i in range(ORACLE_MAX_EQUATIONS)
    }
    with pytest.raises(bm.BesError, match="this system has 501$"):
        bm.solve_recursive(bm.parse_bes(text + "nu Y = true;"), {})


def test_gauss_rejects_open_or_empty():
    with pytest.raises(bm.OpenSystemError):
        bm.solve_gauss(bm.parse_bes("mu X = Y;"))
    with pytest.raises(bm.BesError):
        bm.solve_gauss(bm.EquationSystem(()))


def test_fixture_solutions():
    mutex = bm.fixture("mutex")
    assert all(bm.solve_gauss(mutex).values())
    assert all(oracle(mutex).values())
    app = bm.fixture("paper-application")
    assert all(bm.solve_gauss(app).values())
    assert all(oracle(app).values())
    example = bm.fixture("example-structure-graph")
    assert not any(bm.solve_gauss(example).values())
    assert not any(oracle(example).values())


def test_solvers_agree_on_random_systems():
    for seed in range(100):
        cfg = bm.GenConfig(
            variable_count=2 + seed % 7,
            max_rhs_depth=1 + seed % 4,
            constant_probability=0.2,
            seed=seed,
        )
        es = bm.gen_bes(cfg)
        assert bm.solve_gauss(es) == oracle(es), bm.print_bes(es)
    # the oracle memoises on what each suffix reads, which stays small in
    # gen_bes systems; an SRF system's sets keep most variables live, so
    # there it is exponential, and at n = 27 a seed of ten needs more memo
    # entries than it keeps
    for gen, largest in ((bm.gen_bes, 40), (bm.gen_srf_bes, 24)):
        for n in range(9, largest + 1):
            for seed in range(10):
                es = gen(bm.GenConfig(variable_count=n, seed=seed))
                assert bm.solve_gauss(es) == oracle(es), bm.print_bes(es)


def test_oracle_matches_the_reference_oracle():
    # the reference memoises on the whole environment; open systems are
    # random systems without some of their equations, given a value for
    # every variable of the system they came from
    for n in range(1, 13):
        for seed in range(25):
            for gen in (bm.gen_bes, bm.gen_srf_bes):
                es = gen(bm.GenConfig(variable_count=n, seed=seed))
                rng = random.Random(f"{gen.__name__}|{n}|{seed}")
                kept = [eq for eq in es if rng.random() < 0.7]
                env = {eq.lhs: rng.random() < 0.5 for eq in es}
                for system, given in ((es, {}), (bm.EquationSystem(kept), env)):
                    expected = reference_oracle(system, given)
                    solution = bm.solve_recursive(system, given)
                    assert list(solution.items()) == list(expected.items()), bm.print_bes(system)


def test_oracle_reads_a_partial_environment_only_where_it_must():
    # a variable outside the environment fails only where evaluation reads it
    assert bm.solve_recursive(bm.parse_bes("mu X = false && Z;"), {}) == {"X": False}
    with pytest.raises(bm.BesError, match="^variable Z is outside the environment domain$"):
        bm.solve_recursive(bm.parse_bes("mu X = Z && false;"), {})


def test_oracle_reads_set_members_in_name_order():
    # a set is read in the order it prints, not in its hash order, so which
    # missing member fails is the same in every process
    es = bm.parse_bes("mu X = AND{" + ",".join(f"A{i:02}" for i in range(50)) + "};")
    assert bm.solve_recursive(es, {"A00": False}) == {"A00": False, "X": False}
    with pytest.raises(bm.BesError, match="^variable A00 is outside the environment domain$"):
        bm.solve_recursive(es, {"A49": False})


def test_solvers_refuse_a_right_hand_side_that_is_not_a_formula():
    es = bm.system(bm.Equation(bm.Fixpoint.NU, "X", bm.Or(bm.Const(True), "junk")))
    with pytest.raises(TypeError, match="^not a formula or system: 'junk'$"):
        bm.solve_recursive(es, {})
    with pytest.raises(TypeError, match="^not a formula or system: 'junk'$"):
        bm.solve_gauss(es)


def test_verify_a_chain_in_well_under_a_second():
    # a memo keyed on the whole environment re-solved each link at every
    # occurrence: verify took 61 s on 20 links
    start = time.perf_counter()
    result = bm.verify_system(bm.parse_bes(chain(20)))
    assert time.perf_counter() - start < 1
    assert result.ok


def test_oracle_stops_at_its_memo_bound(monkeypatch):
    monkeypatch.setattr(besmin.solve, "ORACLE_MAX_MEMO", 10)
    message = "^the recursive oracle keeps at most 10 memo entries; this system needs more$"
    with pytest.raises(bm.BesError, match=message):
        bm.solve_recursive(bm.parse_bes(chain(20)), {})
    with pytest.raises(bm.BesError, match=message):
        bm.verify_system(bm.parse_bes(chain(20)))
    assert oracle(bm.parse_bes(chain(8))) == {f"X{i}": False for i in range(9)}


def test_gauss_at_sizes_the_oracle_refuses():
    # Gauss once copied right-hand-side trees and substituted every solved
    # variable into every earlier equation: it did not finish gen_bes n = 100
    # in 30 s and took 5-10 s on each of the chains
    es = bm.gen_bes(bm.GenConfig(variable_count=100, seed=0))
    m = bm.pipeline(es)
    solution, minimised = bm.solve_gauss(es), bm.solve_gauss(bm.parse_bes(m.text))
    image = {
        label: m.names[b]
        for d, label, b in zip(m.graph.deco, m.graph.labels, m.block_of)
        if d.rank is not None
    }
    assert solution == {x: minimised[image[x]] for x in solution}
    assert 0 < sum(solution.values()) < 100
    hub = "nu H = " + " || ".join(f"X{i}" for i in range(3000)) + ";\n"
    for text, count in ((hub + chain(3000), 3002), (chain(3000), 3001)):
        solution = bm.solve_gauss(bm.parse_bes(text))
        assert len(solution) == count and not any(solution.values())


def test_gauss_is_linear_on_a_long_chain():
    # each eliminated variable once scanned every earlier right-hand side:
    # 2.4 s for 12,000 links
    es = bm.parse_bes(chain(20000))
    start = time.perf_counter()
    solution = bm.solve_gauss(es)
    assert time.perf_counter() - start < 2
    assert len(solution) == 20001 and not any(solution.values())


def test_gauss_is_linear_on_a_wide_block():
    # each substituted X was rebuilt at every later step, outside the chain
    # of the other members: 4.15 s and 449 MB for the left chain, 8.7 s for
    # the set with 3,000 members
    members = [f"Y{i}" for i in range(2000)]
    equations = "".join(f"mu {y} = X;\n" for y in members)
    for block in ("AND{" + ", ".join(members) + "}", " && ".join(members)):
        es = bm.parse_bes(f"nu X = {block};\n{equations}")
        start = time.perf_counter()
        solution = bm.solve_gauss(es)
        assert time.perf_counter() - start < 1
        assert len(solution) == 2001 and all(solution.values())


def test_oracle_environment_independence_on_closed_systems():
    for seed in range(30):
        es = bm.gen_bes(bm.GenConfig(variable_count=5, seed=seed))
        names = bm.bnd(es)
        lo = {x: False for x in names}
        hi = {x: True for x in names}
        restricted = lambda env: {
            x: v for x, v in bm.solve_recursive(es, env).items() if x in names
        }
        assert restricted(lo) == restricted(hi) == oracle(es)


def test_solutions_in_binding_order():
    es = bm.fixture("mutex")
    assert list(bm.solve_gauss(es)) == [eq.lhs for eq in es]


def test_gauss_solves_the_printed_minimised_hub():
    # translate nests the hub's 1,000 operands to the right, and both
    # Gauss's node table and eval_formula read that chain in a loop
    hub = bm.parse_bes(
        "nu H = " + " || ".join(f"X{i}" for i in range(1000)) + ";\n"
        + "".join(f"nu X{i} = X{i + 1} && X{i + 1};\n" for i in range(1000))
        + "nu X1000 = false;\n"
    )
    printed = bm.parse_bes(bm.pipeline(hub).text)
    solution = bm.solve_gauss(printed)
    assert len(solution) == 1002 and not any(solution.values())
    right_nested = bm.parse_formula("X0 || (" * 999 + "X999" + ")" * 999)
    assert bm.eval_formula(right_nested, {f"X{i}": i == 999 for i in range(1000)})
