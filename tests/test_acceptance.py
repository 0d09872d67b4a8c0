"""Acceptance suite: one criterion per test, one pass/fail line each.

The report lines are written through ``sys.__stdout__`` so they remain
visible in the captured pytest output.
"""

import contextlib
import io
import sys
import time

import besmin as bm
from besmin.cli import main as cli_main
from conftest import by_label, edges_by_label, oracle, relabelled


@contextlib.contextmanager
def criterion(number: int, title: str):
    def report(verdict: str) -> None:
        line = f"criterion {number} [{title}]: {verdict}"
        print(line)
        print(line, file=sys.__stdout__)

    try:
        yield
    except BaseException:
        report("FAIL")
        raise
    report("PASS")


def _cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


def test_criterion_1_order_sensitivity():
    with criterion(1, "order sensitivity"):
        first = bm.parse_bes("mu X = Y; nu Y = X;")
        second = bm.parse_bes("nu Y = X; mu X = Y;")
        oracle(first)  # warm-up outside the timed region
        start = time.perf_counter()
        results = (
            bm.solve_gauss(first),
            oracle(first),
            bm.solve_gauss(second),
            oracle(second),
        )
        elapsed = time.perf_counter() - start
        assert results[0] == results[1] == {"X": False, "Y": False}
        assert results[2] == results[3] == {"X": True, "Y": True}
        assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"


def test_criterion_2_mutex_all_true():
    with criterion(2, "mutex example"):
        es = bm.fixture("mutex")
        start = time.perf_counter()
        gauss = bm.solve_gauss(es)
        recursive = oracle(es)
        elapsed = time.perf_counter() - start
        assert len(gauss) == 8
        assert all(gauss.values()) and all(recursive.values())
        assert gauss == recursive
        assert elapsed < 0.050, f"took {elapsed * 1000:.2f} ms"


def test_criterion_3_structure_graph_construction():
    with criterion(3, "structure-graph construction"):
        g = bm.build_graph(bm.fixture("example-structure-graph"))
        labels = by_label(g)
        assert set(labels) == {"X", "Y", "Z", "W", "X && Y"}
        expected = {
            "X": bm.Decoration(bm.Op.OR, 1),
            "Y": bm.Decoration(bm.Op.OR, 2),
            "Z": bm.Decoration(bm.Op.NONE, 3),
            "W": bm.Decoration(bm.Op.OR, 3),
            "X && Y": bm.Decoration(bm.Op.AND, None),
        }
        assert {name: g.deco[u] for name, u in labels.items()} == expected
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


def test_criterion_4_normalisation():
    with criterion(4, "normalisation"):
        es = bm.fixture("example-structure-graph")
        g = bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
        _, text, names = bm.translate(g)
        system = bm.parse_bes(text)
        labels = by_label(g)
        assert g.deco[labels["X && Y"]].rank == 2
        assert len(g.ids) == 5
        assert all(d.rank is not None for d in g.deco)
        original = oracle(es)
        assert original == {"X": False, "Y": False, "Z": False, "W": False}
        translated = oracle(system)
        for x in ("X", "Y", "Z", "W"):
            assert translated[names[labels[x]]] == original[x]


def test_criterion_5_application_end_to_end(capsys):
    with criterion(5, "application end-to-end"):
        start = time.perf_counter()
        es = bm.fixture("paper-application")
        assert bm.size(es) == 26
        g = bm.build_graph(es)
        assert len(g.ids) == 12
        quotient, _ = bm.minimize(g)
        assert len(quotient.ids) == 7
        minimised = bm.parse_bes(bm.translate(quotient)[1])
        assert len(minimised.equations) == 5
        assert bm.size(minimised) == 14
        assert all(bm.solve_gauss(es).values()) and all(oracle(es).values())
        assert all(bm.solve_gauss(minimised).values())
        assert all(oracle(minimised).values())
        code = cli_main(["verify", "--fixture", "paper-application"])
        out = capsys.readouterr().out
        assert code == 0 and "PASS: 9 variables verified" in out
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def _check_assoc_comm(es, variables):
    x, y, z = (bm.Var(v) for v in variables)
    for op in (bm.And, bm.Or):
        assoc_left = op(op(x, y), z)
        assoc_right = op(x, op(y, z))
        for f, g in ((assoc_left, assoc_right), (op(x, y), op(y, x))):
            assert bm.bisimilar(bm.build_graph(es, f), bm.build_graph(es, g))


def test_criterion_6_property_suite(tmp_path):
    with criterion(6, "property suite"):
        start = time.perf_counter()
        seeds = 500
        for seed in range(seeds):
            cfg = bm.GenConfig(
                variable_count=1 + seed % 8,
                max_rhs_depth=1 + seed % 4,
                constant_probability=0.15,
                operator_bias=0.3 + 0.4 * ((seed % 5) / 4),
                seed=seed,
            )
            es = bm.gen_bes(cfg)
            # (a) the two solvers agree on every variable
            assert bm.solve_gauss(es) == oracle(es), bm.print_bes(es)
            # (b) the verification pipeline passes
            result = bm.verify_system(es)
            assert result.ok, result.mismatches
            # (c) normalisation, and minimisation after it, preserve every
            # variable's solution
            g = bm.normalise_graph(bm.reduce_graph(bm.build_graph(es)))
            _, normalised, node_var = bm.translate(g)
            quotient, block_of = bm.minimize(g)
            _, minimised, block_var = bm.translate(quotient)
            normalised, minimised = bm.parse_bes(normalised), bm.parse_bes(minimised)
            original = bm.solve_gauss(es)
            renamed = bm.solve_gauss(normalised)
            shrunk = bm.solve_gauss(minimised)
            labels = by_label(g)
            for x in bm.bnd(es):
                u = labels[x]
                assert renamed[node_var[u]] == original[x]
                assert shrunk[block_var[block_of[u]]] == original[x]
            # (d) associativity/commutativity bisimilarities on sampled triples
            if seed % 10 == 0:
                names = sorted(bm.bnd(es))
                triple = (names * 3)[:3]
                _check_assoc_comm(es, triple)
            # (e) embedding and dependency-graph agreement
            srf = bm.to_srf(es)
            srf_graph = bm.build_srf_graph(srf)
            assert bm.bisimilar(srf_graph, bm.build_graph(bm.hbar(srf)))
            assert relabelled(srf_graph) == bm.to_dependency_graph(srf)
        # (b), through the actual command-line entry point, on a sample
        for seed in (0, 123, 499):
            es = bm.gen_bes(bm.GenConfig(variable_count=1 + seed % 8, seed=seed))
            path = tmp_path / f"system-{seed}.bes"
            path.write_text(bm.print_bes(es))
            code, out = _cli("verify", str(path))
            assert code == 0 and out.startswith("PASS")
        # (f) duplicated-operand self-loop is not bisimilar to the plain loop
        for sign in ("mu", "nu"):
            doubled = bm.build_graph(bm.parse_bes(f"{sign} X = X && X;"))
            plain = bm.build_graph(bm.parse_bes(f"{sign} X = X;"))
            assert not bm.bisimilar(doubled, plain)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_7_format_stability():
    with criterion(7, "format stability"):
        for name in bm.fixture_names():
            es = bm.fixture(name)
            assert bm.parse_bes(bm.print_bes(es)) == es
            g = bm.build_graph(es)
            assert bm.parse_graph(bm.serialize_graph(g)) == g
        for seed in range(100):
            cfg = bm.GenConfig(
                variable_count=1 + seed % 8,
                max_rhs_depth=1 + seed % 4,
                constant_probability=0.2,
                seed=1000 + seed,
            )
            es = bm.gen_bes(cfg)
            assert bm.parse_bes(bm.print_bes(es)) == es
            g = bm.build_graph(es)
            assert bm.parse_graph(bm.serialize_graph(g)) == g
            srf = bm.gen_srf_bes(cfg)
            assert bm.parse_bes(bm.print_bes(srf)) == srf
            sg = bm.build_srf_graph(srf)
            assert bm.parse_graph(bm.serialize_graph(sg)) == sg
