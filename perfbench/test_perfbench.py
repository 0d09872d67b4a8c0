"""Self-tests of the benchmark's own parts.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import besmin  # noqa: E402
import besmin.cli  # noqa: E402
import mcgen  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from besmin.fixtures import FIXTURE_TEXTS  # noqa: E402
from besmin.generate import GenConfig, gen_bes  # noqa: E402


@pytest.mark.parametrize(
    "name, value",
    [("mutex", True), ("paper-application", True), ("example-structure-graph", False)],
)
def test_brute_force_reproduces_fixture_solutions(name, value):
    solution = refcheck.brute_force_solve(refcheck.parse_system(FIXTURE_TEXTS[name]))
    assert solution and set(solution.values()) == {value}


@pytest.mark.parametrize("seed", range(40))
def test_brute_force_agrees_with_solve_recursive(seed):
    es = gen_bes(GenConfig(variable_count=1 + seed % 10, seed=seed))
    expected = besmin.solve_recursive(es, {})
    equations = refcheck.parse_system(besmin.print_bes(es))
    assert refcheck.brute_force_solve(equations) == {eq.lhs: expected[eq.lhs] for eq in es}
    assert refcheck.size(equations) == besmin.size(es)


@pytest.mark.parametrize("formula", sorted(mcgen.ENCODERS))
@pytest.mark.parametrize("seed", range(6))
def test_lts_reference_agrees_with_brute_force(formula, seed):
    product = mcgen.replicate(mcgen.base_lts(5, seed), 2)
    equations = refcheck.parse_system(mcgen.ENCODERS[formula](product))
    assert refcheck.brute_force_solve(equations) == mcgen.reference(formula, product)


def test_lts_answers_vary():
    lts = mcgen.base_lts(150, 0)
    assert len(set(mcgen.inf_a_holds(lts))) == 2
    assert len(set(mcgen.deadlock_free_holds(lts))) == 2


def _texts(make, seed, directory: Path) -> list[str]:
    directory.mkdir()
    return [Path(c.input.path).read_text() for group in make(seed, directory) for c in group]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    make = workloads.WORKLOADS[name].make
    first = _texts(make, 7, tmp_path / "a")
    assert first == _texts(make, 7, tmp_path / "b")
    assert first != _texts(make, 8, tmp_path / "c")


def _run(call: workloads.Call) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert besmin.cli.main(list(call.argv)) == 0
    return out.getvalue()


def test_mc_replicas_collapse_and_pass_the_checks(tmp_path):
    calls = [c for group in workloads.make_mc(3, tmp_path) for c in group]
    smallest = [c for c in calls if c.input.rung == calls[0].input.rung]
    for call in smallest:
        stdout = _run(call)
        out_size = workloads.check(call, stdout)
        assert out_size < 0.2 * refcheck.size(call.input.equations)


def test_checks_reject_wrong_answers(tmp_path):
    call = workloads.make_mc(3, tmp_path)[0][0]
    stdout = _run(call)
    flipped = {x: not v for x, v in call.input.expected.items()}
    bad = workloads.Call(workloads.Input(call.input.path, 0, call.input.equations, flipped), call.argv)
    with pytest.raises(refcheck.CheckError):
        workloads.check(bad, stdout)
    with pytest.raises(refcheck.CheckError):
        refcheck.read_minimised(stdout, call.input.variables[1:])
    with pytest.raises(refcheck.CheckError):
        refcheck.check_solve("X = true\n", {"X": False})


def test_spans_cover_the_operation_and_tracing_is_removable(tmp_path):
    path = tmp_path / "mutex.bes"
    path.write_text(FIXTURE_TEXTS["mutex"])
    tracer = spans.Tracer()
    tracer.enable()
    try:
        assert _run(workloads.Call(None, ("verify", str(path)))).startswith("PASS")
    finally:
        tracer.disable()
    assert besmin.cli.build_graph is besmin.build.build_graph
    assert not hasattr(besmin.graph.bisimilar, "__wrapped__")
    prof = spans.profile(tracer.spans)
    assert prof.orphans == 0 and tracer.spans[0].name == "cli.main"
    assert {"parse", "syntax", "build", "graph", "solve", "verify", "cli"} <= set(prof.self_time)
    assert sum(prof.self_time[layer] for layer in spans.LAYERS) == pytest.approx(prof.root_time)
    assert prof.calls["graph.bisimilar"] == prof.calls["graph.minimize"] == 1


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1",
         "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = _bench(HERE.parent, "--trace", trace)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    run = _bench(tmp_path, "--trace", "0")
    assert run.returncode != 0 and run.stdout == ""


def test_speed_correction_uses_the_yardstick_times_nearby():
    marks = [(0.0, 0.01), (1.0, 0.01), (10.0, 0.02)]
    assert speed.factors(marks) == [speed.REFERENCE_S / 0.01] * 2 + [speed.REFERENCE_S / 0.02]
