"""Command-line interface: subcommands, output shapes, exit codes."""

import importlib
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import besmin as bm
from besmin.cli import main


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
    for command in ("solve", "graph", "minimize", "verify"):
        code, out, err = run(capsys, command, str(path))
        assert (command, code, out) == (command, 2, "")
        assert err == "error: system is open; unbound: Y\n", command


def test_graph_sgraph_output(capsys):
    code, out, _ = run(capsys, "graph", "--fixture", "example-structure-graph")
    assert code == 0
    graph = bm.parse_graph(out)
    assert len(graph.nodes) == 5
    assert len(graph.edges) == 9


def test_graph_dot_output(capsys):
    code, out, _ = run(
        capsys, "graph", "--fixture", "mutex", "--out", "dot"
    )
    assert code == 0
    assert out.startswith("digraph sgraph {")


def test_graph_normalise(capsys):
    code, out, _ = run(
        capsys, "graph", "--fixture", "example-structure-graph", "--normalise"
    )
    assert code == 0
    graph = bm.parse_graph(out)
    assert all(d.ranks for d in graph.deco.values())
    conj = next(u for u in graph.deco if graph.label(u) == "X && Y")
    assert graph.deco[conj].ranks == frozenset({2})


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
    assert graph.label(graph.init) == "Z || W"


def test_graph_srf_flag_on_non_srf_exit_2(capsys):
    code, _, err = run(
        capsys, "graph", "--fixture", "example-structure-graph", "--srf"
    )
    assert code == 2
    assert "standard recursive form" in err


def test_minimize_graph(capsys):
    code, out, _ = run(
        capsys, "minimize", "--fixture", "paper-application", "--emit", "graph"
    )
    assert code == 0
    assert len(bm.parse_graph(out).nodes) == 7


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


def test_verify_fixtures(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "paper-application")
    assert code == 0
    assert "PASS: 9 variables verified" in out
    for name in ("mutex", "example-structure-graph"):
        code, out, _ = run(capsys, "verify", "--fixture", name)
        assert code == 0
        assert out.startswith("PASS")


def test_verify_empty_system_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.bes"
    path.write_text("")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "graph", "--fixture", "mutex")
    second = run(capsys, "graph", "--fixture", "mutex")
    assert first == second


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
