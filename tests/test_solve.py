"""Solvers: the recursive oracle, Gauss elimination, and their agreement."""

import gc

import pytest

import besmin as bm
import besmin.verify
from besmin import Var
from besmin.solve import ORACLE_MAX_EQUATIONS
from conftest import chain, oracle


def test_eval_formula():
    env = {"X": True, "Y": False}
    assert bm.eval_formula(bm.parse_formula("X && (Y || true)"), env)
    assert not bm.eval_formula(bm.parse_formula("X && Y"), env)
    assert bm.eval_formula(bm.parse_formula("OR{X, Y}"), env)
    assert not bm.eval_formula(bm.parse_formula("AND{X, Y}"), env)
    with pytest.raises(bm.BesError):
        bm.eval_formula(Var("Z"), env)


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
    # _subst and eval_formula walk that chain in a loop
    hub = bm.parse_bes(
        "nu H = " + " || ".join(f"X{i}" for i in range(1000)) + ";\n"
        + "".join(f"nu X{i} = X{i + 1} && X{i + 1};\n" for i in range(1000))
        + "nu X1000 = false;\n"
    )
    printed = bm.parse_bes(bm.print_bes(bm.pipeline(hub).system))
    solution = bm.solve_gauss(printed)
    assert len(solution) == 1002 and not any(solution.values())
    right_nested = bm.parse_formula("X0 || (" * 999 + "X999" + ")" * 999)
    assert bm.eval_formula(right_nested, {f"X{i}": i == 999 for i in range(1000)})
