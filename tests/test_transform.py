"""Syntax transformations: SRF conversion, the binary embedding, reordering."""

import pytest

import besmin as bm
from besmin import And, AndSet, Fixpoint, Or, OrSet, Var
from conftest import oracle

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


def test_hbar_embedding_bisimilar():
    for seed in range(30):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=5, seed=seed))
        g = bm.build_srf_graph(es)
        h = bm.build_graph(bm.hbar(es))
        assert bm.bisimilar(g, h), bm.print_bes(es)


def test_hbar_requires_srf():
    with pytest.raises(bm.BesError):
        bm.hbar(bm.parse_bes("mu X = X && X;"))


def test_move_equation_sound_case():
    # the moved equation's rhs only mentions variables bound strictly
    # before both positions, so every solution is preserved
    es = bm.parse_bes("nu A = A; mu X = A; nu B = B; mu C = B && A;")
    moved = bm.move_equation(es, 1, 3)
    assert [eq.lhs for eq in moved] == ["A", "B", "C", "X"]
    assert bm.solve_gauss(moved) == bm.solve_gauss(es)
    assert oracle(moved) == oracle(es)


def test_move_equation_sign_change():
    es = bm.parse_bes("nu A = A; mu X = A;")
    changed = bm.move_equation(es, 1, 1, new_sign=bm.Fixpoint.NU)
    assert changed.equations[1].sign is NU
    assert bm.solve_gauss(changed) == bm.solve_gauss(es)
    # self-referential equations cannot change sign
    with pytest.raises(bm.BesError):
        bm.move_equation(bm.parse_bes("mu X = X;"), 0, 0, new_sign=NU)


def test_move_equation_rejects_unsound_moves():
    # moving X past Y would flip the solution from all false to all true
    es = bm.parse_bes("mu X = Z; nu Y = X; nu Z = Y;")
    assert not any(oracle(es).values())
    with pytest.raises(bm.BesError):
        bm.move_equation(es, 0, 1)
    # even a dependency on a variable bound after the source blocks a
    # rightward move
    es2 = bm.parse_bes("nu X = Z; mu Y = Y; nu Z = Z;")
    with pytest.raises(bm.BesError):
        bm.move_equation(es2, 0, 1)


def test_move_equation_identity_and_bounds():
    es = bm.parse_bes("mu X = X; nu Y = Y;")
    assert bm.move_equation(es, 0, 0) is es
    with pytest.raises(IndexError):
        bm.move_equation(es, 0, 2)


def test_swap_equations():
    es = bm.parse_bes("mu X = X; mu Y = X; nu Z = Y;")
    swapped = bm.swap_equations(es, 0, 1)
    assert [eq.lhs for eq in swapped] == ["Y", "X", "Z"]
    assert bm.solve_gauss(swapped) == bm.solve_gauss(es)
    with pytest.raises(bm.BesError):
        bm.swap_equations(es, 0, 2)  # rank 1 vs rank 2
    assert bm.swap_equations(es, 1, 1) is es
    with pytest.raises(IndexError):
        bm.swap_equations(es, 0, 5)


def test_swap_equal_rank_preserves_solutions_randomly():
    checked = 0
    for seed in range(40):
        es = bm.gen_bes(bm.GenConfig(variable_count=5, seed=seed))
        rank_map = bm.ranks(es)
        eqs = es.equations
        for i in range(len(eqs)):
            for j in range(i + 1, len(eqs)):
                if rank_map[eqs[i].lhs] != rank_map[eqs[j].lhs]:
                    continue
                swapped = bm.swap_equations(es, i, j)
                assert bm.solve_gauss(swapped) == bm.solve_gauss(es)
                checked += 1
    assert checked > 10
