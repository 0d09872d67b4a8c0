"""Solvers: the recursive oracle, Gauss elimination, and their agreement."""

import gc

import pytest

import besmin as bm
from besmin import Var
from conftest import oracle


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
