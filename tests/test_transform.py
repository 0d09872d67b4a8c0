"""Syntax transformations: SRF conversion and the binary embedding."""

import pytest

import besmin as bm
from besmin import And, AndSet, Fixpoint, Or, OrSet, Var

MU, NU = Fixpoint.MU, Fixpoint.NU


def test_to_srf_structure():
    es = bm.parse_bes("mu X = (Y && Z) || Y; nu Y = Y; nu Z = Z;")
    srf = bm.to_srf(es)
    assert bm.is_srf(srf)
    # the conjunction gets a fresh equation placed right after its host,
    # carrying the host's sign
    assert [eq.lhs for eq in srf] == ["X", "X_1", "Y", "Z"]
    aux = srf.equations[1]
    assert aux.sign is MU
    assert aux.rhs == AndSet(frozenset({"Y", "Z"}))
    assert srf.equations[0].rhs == OrSet(frozenset({"Y", "X_1"}))


def test_to_srf_constants():
    es = bm.parse_bes("mu X = true; nu Y = Y && false;")
    srf = bm.to_srf(es)
    tail = srf.equations[-2:]
    assert {eq.lhs for eq in tail} == {"TRUE_1", "FALSE_1"}
    by_lhs = {eq.lhs: eq for eq in srf}
    assert by_lhs["TRUE_1"].sign is NU and by_lhs["TRUE_1"].rhs == Var("TRUE_1")
    assert by_lhs["FALSE_1"].sign is MU and by_lhs["FALSE_1"].rhs == Var("FALSE_1")
    solution = bm.solve_gauss(srf)
    assert solution["TRUE_1"] and not solution["FALSE_1"]


def test_to_srf_names_and_order_are_pinned():
    # aux names are drawn in pre-order, left to right, interleaved with the
    # constants' names, each after its host equation at any depth; a nested
    # block's equation follows the blocks it holds
    es = bm.parse_bes(
        "mu X = X && (Y || (X && (Y || true)));"
        "nu Y = (X || false) && OR{X,Y} && AND{Y} && Y;"
        "mu TRUE = X || (Y && (true || X)) || false;"
        "nu Z = false;"
    )
    assert bm.print_bes(bm.to_srf(es)) == (
        "mu X = AND{X,X_1};\n"
        "mu X_3 = OR{TRUE_1,Y};\n"
        "mu X_2 = AND{X,X_3};\n"
        "mu X_1 = OR{X_2,Y};\n"
        "nu Y = AND{Y,Y_1,Y_2};\n"
        "nu Y_1 = OR{FALSE_1,X};\n"
        "nu Y_2 = OR{X,Y};\n"
        "mu TRUE = OR{FALSE_1,TRUE_2,X};\n"
        "mu TRUE_3 = OR{TRUE_1,X};\n"
        "mu TRUE_2 = AND{TRUE_3,Y};\n"
        "nu Z = FALSE_1;\n"
        "nu TRUE_1 = TRUE_1;\n"
        "mu FALSE_1 = FALSE_1;\n"
    )
    # a host named TRUE that needs a fresh name before the constant does
    srf = bm.to_srf(bm.parse_bes("nu TRUE = TRUE && (TRUE || true);"))
    assert bm.print_bes(srf) == (
        "nu TRUE = AND{TRUE,TRUE_1};\n"
        "nu TRUE_1 = OR{TRUE,TRUE_2};\n"
        "nu TRUE_2 = TRUE_2;\n"
    )
    # a fresh name skips one that an equation already binds
    srf = bm.to_srf(bm.parse_bes("mu X = X && (X || Y); nu X_1 = X; nu Y = Y;"))
    assert bm.print_bes(srf) == (
        "mu X = AND{X,X_2};\n"
        "mu X_2 = OR{X,Y};\n"
        "nu X_1 = X;\n"
        "nu Y = Y;\n"
    )


def test_to_srf_preserves_solutions():
    for seed in range(60):
        es = bm.gen_bes(
            bm.GenConfig(
                variable_count=2 + seed % 6,
                max_rhs_depth=1 + seed % 4,
                constant_probability=0.25,
                seed=seed,
            )
        )
        srf = bm.to_srf(es)
        assert bm.is_srf(srf)
        original = bm.solve_gauss(es)
        converted = bm.solve_gauss(srf)
        for x in bm.bnd(es):
            assert converted[x] == original[x], bm.print_bes(es)


def test_to_srf_identity_on_srf_input():
    es = bm.parse_bes("mu X = OR{X, Y}; nu Y = X;")
    assert bm.to_srf(es) is es


def test_to_srf_preconditions():
    with pytest.raises(bm.BesError):
        bm.to_srf(bm.EquationSystem(()))
    with pytest.raises(bm.OpenSystemError):
        bm.to_srf(bm.parse_bes("mu X = Y && Y;"))


def test_hbar_formula():
    assert bm.hbar_formula(Var("X")) == Var("X")
    # singleton sets are duplicated
    assert bm.hbar_formula(AndSet(frozenset({"X"}))) == And(Var("X"), Var("X"))
    # the least member splits off first; the final singleton is duplicated
    f = bm.hbar_formula(OrSet(frozenset({"C", "A", "B"})))
    assert f == Or(Var("A"), Or(Var("B"), Or(Var("C"), Var("C"))))
    with pytest.raises(bm.BesError):
        bm.hbar_formula(bm.Const(True))


def test_long_blocks_do_not_recurse():
    chain = " && ".join(["X"] * 3000)
    srf = bm.to_srf(bm.parse_bes(f"mu X = {chain}; nu Y = Y || X;"))
    assert bm.print_bes(srf) == "mu X = AND{X};\nnu Y = OR{X,Y};\n"
    names = sorted(f"X{i}" for i in range(3000))
    f = bm.hbar_formula(OrSet(frozenset(names)))
    levels, g = 0, f
    while isinstance(g, Or):
        levels, g = levels + 1, g.right
    assert levels == 3000
    text = " || (".join(names) + " || " + names[-1] + ")" * 2999
    assert bm.format_formula(f) == text
    # X && (Y || (X && ...)) nested 3,000 levels: one equation per level,
    # each named after the host, so the text grows linearly with the depth
    f = Var("X")
    for level in range(3000):
        f = And(Var("X"), f) if level % 2 else Or(Var("Y"), f)
    srf = bm.to_srf(bm.system(bm.Equation(MU, "X", f), bm.Equation(NU, "Y", Var("X"))))
    assert len(srf.equations) == 3001
    assert [eq.lhs for eq in srf.equations[:3]] == ["X", "X_2999", "X_2998"]
    assert srf.equations[-2].lhs == "X_1"
    assert len(bm.print_bes(srf)) < 30 * 3001
    assert srf.equations[0].rhs == AndSet(frozenset({"X", "X_1"}))
    assert srf.equations[1].rhs == OrSet(frozenset({"X", "Y"}))
    assert srf.equations[-1] == bm.Equation(NU, "Y", Var("X"))


def test_hbar_embedding_bisimilar():
    for seed in range(30):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=5, seed=seed))
        g = bm.build_srf_graph(es)
        h = bm.build_graph(bm.hbar(es))
        assert bm.bisimilar(g, h), bm.print_bes(es)


def test_hbar_requires_srf():
    with pytest.raises(bm.BesError):
        bm.hbar(bm.parse_bes("mu X = X && X;"))

