"""Command-line interface: subcommands, output shapes, exit codes."""

import contextlib
import gc
import hashlib
import importlib
import importlib.metadata
import io
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import besmin as bm
import besmin.solve
import besmin.verify
from besmin.cli import main
from conftest import at_recursion_limit, chain
from test_properties import texts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fixture(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "paper-application")
    assert code == 0
    assert "equations: 9" in out
    assert "size: 26" in out
    assert "alternation hierarchy: 2" in out
    assert "closed: yes" in out


def test_check_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.bes"
    path.write_text("")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "empty system" in out


def test_solve_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.bes"
    path.write_text("")
    for method in ("gauss", "oracle"):
        assert run(capsys, "solve", "--method", method, str(path)) == (0, "", ""), method


def test_check_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.bes"
    path.write_text("mu X = ;")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "error:" in err


def test_check_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/input.bes")
    assert code == 1
    assert err


def test_non_utf8_file_exit_1(tmp_path, capsys):
    # reading it once let a UnicodeDecodeError escape main
    path = tmp_path / "latin1.bes"
    path.write_bytes(b"mu X = X;\xff")
    message = "error: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte\n"
    for command in ("check", "solve", "graph", "minimize", "verify"):
        assert run(capsys, command, str(path)) == (1, "", message), command


def test_no_input_exit_1(capsys):
    code, _, err = run(capsys, "check")
    assert code == 1
    assert "no input" in err


def test_solve_fixture_both_methods(capsys):
    for method in ("oracle", "gauss"):
        code, out, _ = run(
            capsys, "solve", "--fixture", "paper-application", "--method", method
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert all(line.endswith("= true") for line in lines)


def test_solve_order_sensitivity(tmp_path, capsys):
    a = tmp_path / "a.bes"
    a.write_text("mu X = Y; nu Y = X;")
    b = tmp_path / "b.bes"
    b.write_text("nu Y = X; mu X = Y;")
    code, out, _ = run(capsys, "solve", str(a))
    assert code == 0 and out == "X = false\nY = false\n"
    code, out, _ = run(capsys, "solve", str(b))
    assert code == 0 and out == "Y = true\nX = true\n"


def test_solve_open_system_exit_2(tmp_path, capsys):
    path = tmp_path / "open.bes"
    path.write_text("mu X = Y;")
    for command in (("solve",), ("solve", "--method", "oracle"), ("graph",), ("minimize",), ("verify",)):
        code, out, err = run(capsys, *command, str(path))
        assert (command, code, out) == (command, 2, "")
        assert err == "error: system is open; unbound: Y\n", command


def test_oracle_bound_exit_2(tmp_path, capsys):
    # a RecursionError traceback at 1,200 links, before the oracle had a bound
    path = tmp_path / "chain.bes"
    path.write_text(chain(1200))
    message = "error: the recursive oracle solves at most 500 equations; this system has 1201\n"
    for command in (("solve", "--method", "oracle"), ("verify",)):
        assert run(capsys, *command, str(path)) == (2, "", message), command
    code, out, err = run(capsys, "solve", str(path))
    assert (code, err, out.count(" = false\n")) == (0, "", 1201)


def test_oracle_memo_bound_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(besmin.solve, "ORACLE_MAX_MEMO", 10)
    path = tmp_path / "chain.bes"
    path.write_text(chain(20))
    message = "error: the recursive oracle keeps at most 10 memo entries; this system needs more\n"
    for command in (("solve", "--method", "oracle"), ("verify",)):
        assert run(capsys, *command, str(path)) == (2, "", message), command


def test_graph_sgraph_output(capsys):
    code, out, _ = run(capsys, "graph", "--fixture", "example-structure-graph")
    assert code == 0
    graph = bm.parse_graph(out)
    assert len(graph.ids) == 5
    assert len(graph.edges) == 9


def test_graph_dot_output(capsys):
    code, out, _ = run(
        capsys, "graph", "--fixture", "mutex", "--out", "dot"
    )
    assert code == 0
    assert out.startswith("digraph sgraph {")
    # one backslash: Graphviz reads \n as a line break and \\n as a backslash
    assert '"n0" [label="X_s0\\n0", peripheries=2];\n' in out
    assert "\\\\" not in out


def test_graph_normalise(capsys):
    code, out, _ = run(
        capsys, "graph", "--fixture", "example-structure-graph", "--normalise"
    )
    assert code == 0
    graph = bm.parse_graph(out)
    assert all(d.rank is not None for d in graph.deco)
    conj = graph.labels.index("X && Y")
    assert graph.deco[conj].rank == 2


def test_graph_formula_flag(capsys):
    code, out, _ = run(
        capsys,
        "graph",
        "--fixture",
        "example-structure-graph",
        "--formula",
        "Z || W",
    )
    assert code == 0
    graph = bm.parse_graph(out)
    assert graph.labels[graph.init] == "Z || W"


def test_graph_srf_flag_on_non_srf_exit_2(capsys):
    code, _, err = run(
        capsys, "graph", "--fixture", "example-structure-graph", "--srf"
    )
    assert code == 2
    assert "standard recursive form" in err


def test_graph_n_ary_formula(tmp_path, capsys):
    # the SRF rules take an n-ary formula; the general rules reject it
    path = tmp_path / "srf.bes"
    path.write_text("mu X = OR{X, Y};\nnu Y = AND{X};\n")
    code, out, err = run(capsys, "graph", str(path), "--srf", "--formula", "AND{X,Y}")
    assert (code, err) == (0, "")
    graph = bm.parse_graph(out)
    assert graph.labels[graph.init] == "AND{X,Y}"
    assert graph.deco[graph.init] == bm.Decoration(bm.Op.AND)
    code, out, err = run(capsys, "graph", str(path), "--formula", "AND{X,Y}")
    assert (code, out) == (2, "")
    assert err == (
        "error: general-syntax system required; "
        "equation for X uses an n-ary connective\n"
    )


def test_minimize_graph(capsys):
    code, out, _ = run(
        capsys, "minimize", "--fixture", "paper-application", "--emit", "graph"
    )
    assert code == 0
    assert len(bm.parse_graph(out).ids) == 7


def test_minimize_bes_with_legend(capsys):
    code, out, _ = run(
        capsys, "minimize", "--fixture", "paper-application", "--emit", "bes"
    )
    assert code == 0
    bes_text, _, legend = out.partition("---\n")
    es = bm.parse_bes(bes_text)
    assert len(es.equations) == 5
    assert bm.size(es) == 14
    assert legend.splitlines() == [
        "equations: 5",
        "X0 <= {X_s0, X_s1}",
        "X1 <= {X_s2}",
        "X2 <= {Y_s0, Y_s1}",
        "X3 <= {Y_s2}",
        "X4 <= {Z_s0, Z_s1, Z_s2}",
    ]


def test_flat_text_is_read_without_the_parser_to_the_same_output(tmp_path, capsys):
    # a ring of states in the encoding a model checker emits: one atom or
    # a chain of one connective per right-hand side, constants, two ranks
    equations = []
    for i in range(12):
        j, k = (i + 1) % 12, (i + 5) % 12
        equations.append(f"nu X{i} = Y{i};")
        equations.append(f"mu Y{i} = X{j} || Y{k} || Y{j};" if i % 3 else f"mu Y{i} = Y{j};")
        equations.append(f"nu Z{i} = true && Z{j} && Z{k};" if i % 4 else f"nu Z{i} = false;")
    flat, twin = tmp_path / "flat.bes", tmp_path / "twin.bes"
    flat.write_text("\n".join(equations) + "\n")
    # every right-hand side in parentheses, which the parser reads
    twin.write_text("".join(line.replace("= ", "= (").replace(";", ");\n") for line in equations))
    commands = [
        ("minimize",),
        ("minimize", "--emit", "bes"),
        ("graph",),
        ("graph", "--reduce"),
        ("graph", "--normalise"),
        ("graph", "--out", "dot"),
    ]
    expected = [run(capsys, *command, str(twin)) for command in commands]
    with mock.patch("besmin.build.parse_bes", side_effect=AssertionError("parsed")):
        for command, result in zip(commands, expected):
            assert result[0] == 0 and run(capsys, *command, str(flat)) == result, command
    # what the reader declines is parsed and built, and fails as it did
    for text, code, error in (
        ("nu X = X &&;\n", 1, "error: line 1, column 12: expected a formula, got ';'\n"),
        ("nu X = Y && X;\n", 2, "error: system is open; unbound: Y\n"),
        (
            "nu X = Y;\nnu Y = X;\nmu X = Y;\n",
            1,
            "error: variable X is bound by more than one equation (line 3)\n",
        ),
        (
            "nu X = Y;\nxx Y = X;\n",
            1,
            "error: line 2, column 1: expected 'mu' or 'nu', got 'xx'\n",
        ),
    ):
        flat.write_text(text)
        for command in commands:
            assert run(capsys, *command, str(flat)) == (code, "", error), (text, command)


def test_verify_fixtures(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "paper-application")
    assert code == 0
    assert "PASS: 9 variables verified" in out
    for name in ("mutex", "example-structure-graph"):
        code, out, _ = run(capsys, "verify", "--fixture", name)
        assert code == 0
        assert out.startswith("PASS")


def test_verify_checks_the_system_minimize_prints(tmp_path, capsys):
    # verify-10-24 of the verify-small benchmark workload (seed 110); its
    # normalised graph minimises to 21 equations, its structure graph to 10
    path = tmp_path / "verify-10-24.bes"
    path.write_text(
        "mu X0 = X6;\n"
        "nu X1 = X5 || X0 || (X0 && X1);\n"
        "nu X2 = X5 || X8 || X0;\n"
        "nu X3 = (X6 || X9) && X1;\n"
        "mu X4 = X8 || X2 || (X7 && X8);\n"
        "nu X5 = (X4 && X9) || true;\n"
        "mu X6 = (false && X3) || (X7 && X9);\n"
        "nu X7 = (X2 && X5) || X6;\n"
        "nu X8 = (true || X6) && X3;\n"
        "mu X9 = X5 && X8 && (X2 || X4);\n"
    )
    assert run(capsys, "verify", str(path)) == (0, "PASS: 10 variables verified\n", "")
    code, out, _ = run(capsys, "minimize", "--emit", "bes", str(path))
    printed = bm.parse_bes(out.partition("---\n")[0])
    assert code == 0 and len(printed.equations) == 10
    assert bm.parse_bes(bm.pipeline(bm.parse_bes(path.read_text())).text) == printed


def test_verify_empty_system_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.bes"
    path.write_text("")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "graph", "--fixture", "mutex")
    second = run(capsys, "graph", "--fixture", "mutex")
    assert first == second


def test_verify_failure_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(besmin.verify, "bisimilar", lambda g, h: False)
    code, out, _ = run(capsys, "verify", "--fixture", "paper-application")
    assert code == 3
    assert out.startswith("FAIL:")
    assert "minimise:" in out
    assert not bm.verify_system(bm.fixture("paper-application")).ok


def test_verify_names_the_diverging_variable(monkeypatch, tmp_path, capsys):
    solve_gauss = bm.solve_gauss

    def flipped(es):
        # the minimised system binds X0 first; the original binds X
        solution = solve_gauss(es)
        if es.equations[0].lhs == "X0":
            solution["X0"] = not solution["X0"]
        return solution

    monkeypatch.setattr(besmin.verify, "solve_gauss", flipped)
    path = tmp_path / "in.bes"
    path.write_text("mu X = X && Y; nu Y = Y;")
    assert run(capsys, "verify", str(path)) == (
        3,
        "FAIL:\n  X (-> X0): gauss=false, oracle=false, "
        "minimised gauss=true, minimised oracle=false\n",
        "",
    )


def test_main_pauses_and_restores_the_collector(monkeypatch, tmp_path, capsys, collector):
    open_system = tmp_path / "open.bes"
    open_system.write_text("mu X = Y;")
    during = []

    def build_graph(es, formula=None):
        during.append(gc.isenabled())
        return bm.build_graph(es, formula)

    monkeypatch.setattr(besmin.cli, "build_graph", build_graph)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        for argv, expected in (
            (("graph", "--fixture", "mutex"), 0),
            (("check", "/nonexistent/input.bes"), 1),
            (("solve", str(open_system)), 2),
        ):
            assert run(capsys, *argv)[0] == expected, argv
            assert gc.isenabled() is enabled, argv
        with monkeypatch.context() as m:
            m.setattr(besmin.verify, "bisimilar", lambda g, h: False)
            assert run(capsys, "verify", "--fixture", "mutex")[0] == 3
        assert gc.isenabled() is enabled
        with monkeypatch.context() as m:
            m.setattr(besmin.cli, "minimize", lambda g: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                main(["minimize", "--fixture", "mutex"])
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert gc.isenabled() is enabled
    assert during == [False] * 4  # graph and minimize, in both rounds


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, capsys, collector):
    # main pauses the collector, which leaves memory bounded only while a
    # command's cyclic garbage is a fixed amount: the argument parser's
    def cyclic_garbage(*argv):
        gc.collect()
        gc.disable()
        code = main(list(argv))
        count = gc.collect()
        gc.enable()
        capsys.readouterr()
        return code, count

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    sizes = (300, 3000)
    chains = [write(f"chain-{n}.bes", chain(n)) for n in sizes]
    # failures raised deep in a command, after it has read the whole input
    open_chains = [write(f"open-{n}.bes", chain(n) + "mu Z = Q;\n") for n in sizes]
    bad_chains = [write(f"bad-{n}.bes", chain(n) + "mu Z = ;\n") for n in sizes]
    small = [
        write(f"random-{n}.bes", bm.print_bes(bm.gen_bes(bm.GenConfig(variable_count=n, seed=1))))
        for n in (4, 8)
    ]
    for command, paths, expected in (
        (("check",), chains, 0),
        (("graph",), chains, 0),
        (("minimize",), chains, 0),
        (("minimize", "--emit", "bes"), chains, 0),
        (("solve",), chains, 0),
        (("verify",), small, 0),
        (("solve", "--method", "oracle"), small, 0),
        (("solve",), open_chains, 2),
        (("minimize", "--emit", "bes"), open_chains, 2),
        (("check",), bad_chains, 1),
    ):
        results = [cyclic_garbage(*command, path) for path in paths]
        assert [code for code, _ in results] == [expected] * 2, command
        assert results[0][1] == results[1][1], (command, results)


def test_deep_input_probe(tmp_path, capsys):
    # 10,000 nested parentheses read like none at all
    flat = tmp_path / "flat.bes"
    flat.write_text("mu X = X || Y; nu Y = X && Y;")
    nested = tmp_path / "nested.bes"
    nested.write_text("mu X = " + "(" * 10_000 + "X || Y" + ")" * 10_000 + "; nu Y = X && Y;")
    for command in (("check",), ("solve",), ("graph",), ("minimize", "--emit", "bes"), ("verify",)):
        expected = run(capsys, *command, str(flat))
        assert expected[0] == 0, command
        assert run(capsys, *command, str(nested)) == expected, command
    # a 3,000-operand conjunction chain
    chain = tmp_path / "chain.bes"
    chain.write_text("mu X = " + " && ".join(["X"] * 3000) + ";")
    for command in (
        ("check",), ("graph",), ("minimize",),
        ("solve",), ("solve", "--method", "oracle"), ("verify",),
    ):
        code, out, err = run(capsys, *command, str(chain))
        assert (code, err) == (0, ""), command
        if command[0] == "solve":
            assert out == "X = false\n", command
    assert out == "PASS: 1 variables verified\n"
    assert "size: 6000" in run(capsys, "check", str(chain))[1]
    # ... and as an operand of a disjunction, which build_graph formats
    for operands in (3000, 10_000):
        chain.write_text("mu X = Y || (" + " && ".join(["X"] * operands) + "); nu Y = Y;")
        for command in (("graph",), ("minimize",), ("minimize", "--emit", "bes")):
            code, out, err = run(capsys, *command, str(chain))
            assert (code, err) == (0, ""), (operands, command)
    # a hub over 3,000 variables, which translate nests to the right
    hub = tmp_path / "hub.bes"
    hub.write_text(
        "nu H = " + " || ".join(f"X{i}" for i in range(3000)) + ";\n"
        + "".join(f"nu X{i} = X{i + 1} && X{i + 1};\n" for i in range(3000))
        + "nu X3000 = false;\n"
    )
    code, out, err = run(capsys, "minimize", str(hub), "--emit", "bes")
    assert (code, err) == (0, "")
    assert "equations: 3002" in out
    # X && (Y || (X && ...)) nested 400 levels: one unranked node per level
    term = "X"
    for level in range(400):
        term = f"X && ({term})" if level % 2 == 0 else f"Y || ({term})"
    alternating = tmp_path / "alternating.bes"
    alternating.write_text(f"mu X = {term}; nu Y = X && Y;")
    for command in (("graph", "--normalise"), ("minimize", "--emit", "bes"), ("verify",)):
        code, out, err = run(capsys, *command, str(alternating))
        assert (code, err) == (0, ""), command
    assert out == "PASS: 2 variables verified\n"
    # ... and 700 levels, where translate once hashed its operands recursively
    for level in range(400, 700):
        term = f"X && ({term})" if level % 2 == 0 else f"Y || ({term})"
    alternating.write_text(f"mu X = {term}; nu Y = X && Y;")
    for command in (("minimize", "--emit", "bes"), ("verify",)):
        code, out, err = run(capsys, *command, str(alternating))
        assert (code, err) == (0, ""), command
    assert out == "PASS: 2 variables verified\n"
    # ... and 1,000 levels, where format_formula, eval_formula and Gauss's
    # substitution once recursed, with either sign first, and twice as two
    # equal subterms that build_graph's node keys compare
    for level in range(700, 1000):
        term = f"X && ({term})" if level % 2 == 0 else f"Y || ({term})"
    for text in (
        f"mu X = {term}; nu Y = X && Y;",
        f"nu X = {term}; mu Y = X && Y;",
        f"mu X = ({term}) || ({term}); nu Y = X && Y;",
    ):
        alternating.write_text(text)
        results = {}
        for command in (
            ("solve",), ("solve", "--method", "oracle"), ("graph",),
            ("minimize",), ("minimize", "--emit", "bes"), ("verify",),
        ):
            results[command] = code, out, err = run(capsys, *command, str(alternating))
            assert (code, err) == (0, ""), (text[:6], command)
        assert results[("solve",)] == results[("solve", "--method", "oracle")]
        assert out == "PASS: 2 variables verified\n"


def _nest(rng, levels: int) -> str:
    """A term nested ``levels`` deep in alternating connectives, each level
    with a random leaf on a random side."""
    term = "X"
    for level in range(levels):
        op, leaf = ("&&", "||")[level % 2], rng.choice(("X", "Y", "true", "false"))
        term = f"{leaf} {op} ({term})" if rng.random() < 0.5 else f"({term}) {op} {leaf}"
    return term


@st.composite
def deep_systems(draw) -> str:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    op = draw(st.sampled_from(("&&", "||")))
    shape = draw(st.sampled_from(("nest", "repeated", "chain", "right chain")))
    if shape in ("nest", "repeated"):
        term = _nest(rng, draw(st.integers(1000, 1500)))  # shallower ones are tested elsewhere
        rhs = term if shape == "nest" else f"({term}) {op} ({term})"
    else:
        operands = [rng.choice(("X", "Y", "true")) for _ in range(draw(st.integers(1, 10_000)))]
        if shape == "chain":
            rhs = f" {op} ".join(operands)
        else:
            rhs = f" {op} (".join(operands) + ")" * (len(operands) - 1)
    x, y = draw(st.sampled_from(("mu", "nu"))), draw(st.sampled_from(("mu", "nu")))
    return f"{x} X = {rhs}; {y} Y = X {op} Y;"


@settings(max_examples=4, deadline=None)  # a deep example takes seconds
@given(deep_systems())
@at_recursion_limit
def test_deep_input_fuzz(text):
    # no input raises out of main, however deep it nests or long it chains
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "deep.bes")
        with open(path, "w") as handle:
            handle.write(text)
        outputs = {}
        for command in (
            ("check",), ("solve",), ("solve", "--method", "oracle"), ("graph",),
            ("minimize", "--emit", "bes"), ("verify",),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], path, *command[1:]])
            assert (code, err.getvalue()) == (0, ""), command
            outputs[command] = out.getvalue()
        assert outputs[("solve",)] == outputs[("solve", "--method", "oracle")]
        assert outputs[("verify",)] == "PASS: 2 variables verified\n"


ROBUST_COMMANDS = (
    ("check",), ("solve", "--method", "gauss"), ("solve", "--method", "oracle"),
    ("graph",), ("graph", "--out", "dot"), ("graph", "--normalise"),
    ("minimize", "--emit", "graph"), ("minimize", "--emit", "bes"), ("verify",),
)


@settings(max_examples=100, deadline=None)
@given(texts())
@at_recursion_limit
def test_every_command_exits_with_a_code_or_one_error_line(text):
    # whatever the file holds, no exception leaves main, and stderr is
    # empty or one error line
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fragments.bes")
        with open(path, "w", encoding="utf-8", errors="surrogatepass", newline="") as handle:
            handle.write(text)
        for command in ROBUST_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], path, *command[1:]])
            assert code in (0, 1, 2, 3), (command, code)
            lines = err.getvalue().splitlines(keepends=True)
            assert lines == [] or (
                len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
            ), (command, err.getvalue())


# sha256 of stdout; every command exits 0
OUTPUT_DIGESTS = {
    "example-structure-graph": {
        ("check",): "4f34130c7b63d6711d2623ae7e8d3e0be57c813d5995d355134fa221c4e9d6dd",
        ("graph",): "1151e5dfb16c1d2a9e82c8739f10515b8196a9c670c66dfbd7134a3cc325b428",
        ("graph", "--normalise"): "53a3559d1a7cbe46b011eebf05b67739367af38143b3bdbedc11782ca5dd29c8",
        ("graph", "--out", "dot"): "63bbd028d70e722e08c6aaeeac96e39459b1a8c542495104fb4362b8a2143e18",
        ("minimize", "--emit", "graph"): "2ad6c39b8a5ce112c5901cebbd0c4b1ba4bdeae929569ab5e8afcdba1ff9e132",
        ("minimize", "--emit", "bes"): "29eb3240861ea07716530e921040328d25082c41ebcd56c4527666df3680b7d6",
    },
    "mutex": {
        ("check",): "7fb21376901cfddc18bb12962b47de0be28421e25eb1e7ca4f77e3f28a173919",
        ("graph",): "6ae7e75c6bd4a5cbd2cadc0a5b316f2114de2104afdec50fb0d12914937df729",
        ("graph", "--normalise"): "6ae7e75c6bd4a5cbd2cadc0a5b316f2114de2104afdec50fb0d12914937df729",
        ("graph", "--out", "dot"): "e8ea85f625fe52aca5e38a87ef4cc04174b06882e248c2e002621c4f40a53bcf",
        ("minimize", "--emit", "graph"): "c94b7df138f06b282d9d002e1e3e0f7918f7182f4e3d271a902d90b9a625572e",
        ("minimize", "--emit", "bes"): "aaa845ffe3a50f1dea56d385e4c675ecc20ba810e308198ab41199db0a2a18ea",
    },
    "paper-application": {
        ("check",): "e01380035d6d408375b54e4f54401e779e6a2ffc433bea7fab820cbb8c62cfc8",
        ("graph",): "3daa97f21c9260d91a2090828e3cdd98ace2745e6e2d33f71354b42bbacbacf5",
        ("graph", "--normalise"): "e5d05aa898e1efc5c8b5f5774dc16b682be3d840dad9e7e51cca181f3e1e40dd",
        ("graph", "--out", "dot"): "ef3351131946d21dfe6084041f91b8e66c8a5e5656b24822b12f4c822fea923a",
        ("minimize", "--emit", "graph"): "4a9f5e05273574a8d514e24782102c74da7562babf73dc0723c5686cae1bfbde",
        ("minimize", "--emit", "bes"): "4c6f90437d32170f643c5b64e39cdc4a9d0909002b45d725db8f0ca51bd81483",
    },
}


def test_fixture_output_bytes_pinned(capsys):
    for name, digests in OUTPUT_DIGESTS.items():
        for command, digest in digests.items():
            code, out, _ = run(capsys, *command, "--fixture", name)
            assert code == 0, (name, command)
            actual = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert actual == digest, (name, command)


# sha256 of stdout for generated systems, by (generator, n, seed); every
# command exits 0.  These pin the node numbering of build_graph and the block
# numbering of minimize beyond the fixtures.
GENERATED_DIGESTS = {
    (bm.gen_bes, 200, 0): {
        ("graph",): "00b1835c143879d9b90ab7736116438a8693f0c5ac9ae967e1119a79f38cdf2d",
        ("graph", "--normalise"): "138ecbda0134f0bb590e66539eba6d26ca7e9ca5d9e71ea6518ed8662e9f99e2",
        ("minimize", "--emit", "graph"): "85bc1077d85480aad54e433bc0d89919f175d0a3dbb0b2b918ef06b55573660f",
        ("minimize", "--emit", "bes"): "32715dfb974ca4a9f3ef1f46b5aa8d73a4f681f1735e38b18d936bcf42965bf0",
    },
    (bm.gen_bes, 200, 1): {
        ("graph",): "f74054d209c2ce702f93c69bd19e2b7ba8e1cf72dcb355c8634b8a41644100dc",
        ("graph", "--normalise"): "2272f60e50e2248955adf5c496d949010ecbd41d9f249705a1f096a16eecfd4e",
        ("minimize", "--emit", "graph"): "9930403ce48f3cdab1c3f2b7847d5c3c0e26e1d3666770b4dc68fd7ba96b0333",
        ("minimize", "--emit", "bes"): "95d834f2c0f7690e868dc087bd48f5fc1eff32bd91c66be11bf59916238cb5db",
    },
    (bm.gen_bes, 1200, 1): {
        ("minimize", "--emit", "graph"): "92465ba8cecc63fbab3e4c53ff19499277abb3747446505350acab2838303fe9",
        ("minimize", "--emit", "bes"): "4f36f4abea4888f58d9eac1c7232242b420e6a7d26c5851fd4a5414ef129b24d",
    },
    (bm.gen_srf_bes, 8, 0): {
        ("graph", "--srf"): "d99846928259c946cedcd9384ec26458acf1ed5aca515effc04760216e3cde57",
    },
}


def test_generated_output_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "generated.bes"
    for (generate, n, seed), digests in GENERATED_DIGESTS.items():
        es = generate(bm.GenConfig(variable_count=n, seed=seed))
        path.write_text(bm.print_bes(es))
        for command, digest in digests.items():
            code, out, _ = run(capsys, *command, str(path))
            assert code == 0, (n, seed, command)
            actual = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert actual == digest, (n, seed, command)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CHECK_OK = ("check", "--fixture", "paper-application")
CHECK_MISSING = ("check", "/nonexistent/input.bes")


def _run_command(command, cwd):
    """Run ``command`` with the imported ``besmin`` package first on the path."""
    package_root = str(Path(bm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        command, cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_console_script_installed(tmp_path):
    """The declared ``besmin`` console script resolves to ``cli.main`` and
    its exit code reaches the shell through ``sys.exit``.

    The script is run the way an installer's wrapper runs it, so the check
    holds whether or not the package is installed. Where a ``besmin``
    command is on PATH, it and the installed metadata are checked as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert "besmin" in scripts
    entry = scripts["besmin"]
    match = re.fullmatch(r"([A-Za-z_][\w.]*):([A-Za-z_]\w*)", entry)
    assert match, f"not of the form module:attr: {entry!r}"
    module, attr = match.groups()

    target = getattr(importlib.import_module(module), attr, None)
    assert target is main

    wrapper = [
        sys.executable,
        "-c",
        f"import sys; from {module} import {attr}; sys.exit({attr}())",
    ]
    ok = _run_command([*wrapper, *CHECK_OK], tmp_path)
    assert ok.returncode == 0, ok.stderr
    assert "equations: 9" in ok.stdout
    assert "Traceback" not in ok.stderr
    missing = _run_command([*wrapper, *CHECK_MISSING], tmp_path)
    assert missing.returncode == 1
    assert "error:" in missing.stderr
    assert "Traceback" not in missing.stderr

    installed = shutil.which("besmin")
    if installed is not None:
        values = {
            ep.value
            for ep in importlib.metadata.entry_points(group="console_scripts")
            if ep.name == "besmin"
        }
        assert values == {entry}
        for argv, expected in ((CHECK_OK, ok), (CHECK_MISSING, missing)):
            result = _run_command([installed, *argv], tmp_path)
            assert result.returncode == expected.returncode
            assert result.stdout == expected.stdout
