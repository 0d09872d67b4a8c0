"""Static analysis: bnd/occ, closedness, ranks, sizes, canonical text."""

import copy
import dataclasses
import pickle

import pytest

import besmin as bm
from besmin import (
    And,
    AndSet,
    Const,
    Equation,
    EquationSystem,
    Fixpoint,
    Or,
    OrSet,
    Var,
)

MU, NU = Fixpoint.MU, Fixpoint.NU


def test_duplicate_binding_rejected():
    with pytest.raises(bm.WellFormednessError):
        bm.system(
            Equation(MU, "X", Var("X")),
            Equation(NU, "X", Var("X")),
        )


def test_bnd_occ_closed():
    es = bm.parse_bes("mu X = Y && true; nu Y = X || Z; mu Z = Z;")
    assert bm.bnd(es) == {"X", "Y", "Z"}
    assert bm.occ(es) == {"X", "Y", "Z"}
    assert bm.is_closed(es)
    open_es = bm.parse_bes("mu X = Y;")
    assert not bm.is_closed(open_es)
    assert bm.occ(AndSet(frozenset({"A", "B"}))) == {"A", "B"}
    assert bm.occ(Const(True)) == set()


def test_occ_of_a_long_chain_does_not_recurse():
    es = bm.parse_bes("mu X = " + " && ".join(["X"] * 3000) + ";")
    assert bm.occ(es) == {"X"}
    assert bm.is_closed(es)
    bm.syntax.require_closed(es)


def test_rank_counts_sign_changes_from_nu():
    es = bm.parse_bes("nu A = A; mu B = A; mu C = B; nu D = C; mu E = D;")
    assert bm.ranks(es) == {"A": 0, "B": 1, "C": 1, "D": 2, "E": 3}
    # A leading mu-equation already counts one change from the nu start.
    es2 = bm.parse_bes("mu X = X; nu Y = X;")
    assert bm.ranks(es2) == {"X": 1, "Y": 2}
    assert bm.alternation_hierarchy(es2) == 1
    # Every equation of a strictly alternating system opens a new rank.
    alternating = bm.system(
        *(Equation(NU if i % 2 else MU, f"X{i}", Var(f"X{i}")) for i in range(2000))
    )
    assert bm.ranks(alternating) == {f"X{i}": i + 1 for i in range(2000)}


def test_rank_parity_matches_sign():
    for seed in range(30):
        es = bm.gen_bes(bm.GenConfig(variable_count=6, seed=seed))
        rank = bm.ranks(es)
        for eq in es:
            assert (rank[eq.lhs] % 2 == 1) == (eq.sign is MU)


def test_alternation_hierarchy_fixture():
    es = bm.fixture("paper-application")
    assert bm.alternation_hierarchy(es) == 2


def test_size_metric():
    # equations + rhs leaves + rhs binary connectives
    es = bm.parse_bes("mu X = (X && Y) || Z; nu Y = true;")
    assert bm.size(es) == 2 + (3 + 2) + 1
    assert bm.size(bm.fixture("paper-application")) == 26
    # n-ary sets count |F| leaves and |F|-1 connectives
    srf = bm.system(Equation(MU, "X", AndSet(frozenset({"X", "Y", "Z"}))),
                    Equation(NU, "Y", Var("X")),
                    Equation(NU, "Z", OrSet(frozenset({"Z"}))))
    assert bm.size(srf) == 3 + (3 + 2) + 1 + 1


def test_format_formula_precedence():
    assert bm.format_formula(Or(And(Var("X"), Var("Y")), Var("Z"))) == "(X && Y) || Z"
    assert bm.format_formula(And(Or(Var("X"), Var("Y")), Var("Z"))) == "(X || Y) && Z"
    left = And(And(Var("X"), Var("Y")), Var("Z"))
    right = And(Var("X"), And(Var("Y"), Var("Z")))
    assert bm.format_formula(left) == "X && Y && Z"
    assert bm.format_formula(right) == "X && (Y && Z)"
    assert bm.format_formula(AndSet(frozenset({"B", "A"}))) == "AND{A,B}"
    assert bm.format_formula(Const(True)) == "true"


def test_records_are_frozen_values():
    # the records fill their slots by hand; they must still behave as
    # frozen dataclasses
    x, y = Var("X"), Var("Y")
    es = bm.parse_bes("mu X = X && (Y || true); nu Y = AND{X,Y} || false;")
    for record, field in (
        (x, "name"), (And(x, y), "left"), (es.equations[0], "rhs"), (es, "equations"),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)
    built = [
        And(Var("X"), Or(Var("Y"), Const(True))),
        Equation(MU, "X", And(Var("X"), Var("Y"))),
        Var(name="X"),
    ]
    again = [
        And(x, Or(y, bm.parse_formula("true"))),
        Equation(sign=MU, lhs="X", rhs=And(left=x, right=y)),
        Var("X"),
    ]
    for a, b in zip(built, again):
        assert a == b and hash(a) == hash(b)
    assert And(x, y) != Or(x, y)
    assert repr(Equation(NU, "X", Or(x, Const(False)))) == (
        "Equation(sign=<Fixpoint.NU: 'nu'>, lhs='X', "
        "rhs=Or(left=Var(name='X'), right=Const(value=False)))"
    )
    assert pickle.loads(pickle.dumps(es)) == es
    assert copy.deepcopy(es) == es
    assert bm.print_bes(copy.deepcopy(es)) == bm.print_bes(es)


def test_syntax_predicates():
    assert bm.is_general_syntax(And(Var("X"), Const(False)))
    assert not bm.is_general_syntax(And(Var("X"), AndSet(frozenset({"Y"}))))
    assert bm.is_srf(bm.system(Equation(MU, "X", OrSet(frozenset({"X"})))))
    assert not bm.is_srf(bm.parse_bes("mu X = X && X;"))


def test_empty_set_formula_rejected():
    with pytest.raises(ValueError):
        AndSet(frozenset())
    with pytest.raises(ValueError):
        OrSet(frozenset())


def test_least_variable_and_empty_system():
    assert bm.least_variable(bm.fixture("mutex")) == "X_s0"
    with pytest.raises(bm.BesError):
        bm.least_variable(EquationSystem(()))
    with pytest.raises(bm.BesError):
        bm.alternation_hierarchy(EquationSystem(()))
