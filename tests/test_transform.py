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


def test_hbar_embedding_bisimilar():
    for seed in range(30):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=5, seed=seed))
        g = bm.build_srf_graph(es)
        h = bm.build_graph(bm.hbar(es))
        assert bm.bisimilar(g, h), bm.print_bes(es)


def test_hbar_requires_srf():
    with pytest.raises(bm.BesError):
        bm.hbar(bm.parse_bes("mu X = X && X;"))

