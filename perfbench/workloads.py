"""The benchmark's workloads: their inputs, operation schedule and checks.

Each workload writes its inputs as files and returns a schedule of groups.
A group holds one operation per rung of the workload's size ladder, so a
run that stops between groups has run every rung equally often.  An
operation is the ``besmin`` command lines a workload runs on one input:
``minimize`` alone, or ``verify`` and then ``solve``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import mcgen
import refcheck


@dataclass(frozen=True)
class Input:
    path: str
    rung: int  # position on the size ladder: the input's equation count
    equations: list[refcheck.Equation]
    expected: Optional[dict[str, bool]]  # reference solution, where known
    max_equations: Optional[int] = None  # most equations minimising may leave

    @property
    def variables(self) -> list[str]:
        return [eq.lhs for eq in self.equations]


@dataclass(frozen=True)
class Call:
    input: Input
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


def minimize_call(inp: Input) -> Call:
    return Call(inp, ("minimize", inp.path, "--emit", "bes"))


def check(call: Call, stdout: str) -> Optional[int]:
    """Raise ``refcheck.CheckError`` unless ``stdout`` is the right answer.

    Returns the size of the minimised system for ``minimize``.
    """
    inp = call.input
    if call.command == "minimize":
        result = refcheck.read_minimised(stdout, inp.variables)
        if inp.expected is not None:
            refcheck.check_block_values(result, inp.expected)
        if inp.max_equations is not None and len(result.equations) > inp.max_equations:
            raise refcheck.CheckError(
                f"{len(result.equations)} equations after minimising; the "
                f"replicas should collapse to at most {inp.max_equations}"
            )
        return refcheck.size(result.equations)
    if call.command == "verify":
        refcheck.check_verify(stdout, len(inp.equations))
        return None
    if call.command == "solve":
        refcheck.check_solve(stdout, inp.expected)
        return None
    raise ValueError(f"no check for command {call.command!r}")


def _sub_seed(*path) -> int:
    return random.Random("|".join(str(p) for p in path)).getrandbits(31)


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / f"{name}.bes"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _random_text(variables: int, seed: int) -> str:
    # Imported here so that every set-up uses the freshly imported package.
    from besmin.generate import GenConfig, gen_bes
    from besmin.syntax import print_bes

    cfg = GenConfig(
        variable_count=variables, max_rhs_depth=3, constant_probability=0.1, seed=seed
    )
    return print_bes(gen_bes(cfg))


# ---------------------------------------------------------------------------
# random-minimise: seeded gen_bes systems, which barely minimise


RANDOM_RUNGS = (300, 600, 1200)
RANDOM_PER_RUNG = 6


def make_random(seed: int, directory: Path) -> list[list[Call]]:
    groups = []
    for j in range(RANDOM_PER_RUNG):
        group = []
        for n in RANDOM_RUNGS:
            text = _random_text(n, _sub_seed("random-minimise", seed, n, j))
            path = _write(directory, f"random-{n}-{j}", text)
            group.append(minimize_call(Input(path, n, refcheck.parse_system(text), None)))
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# mc-minimise: model-checking BESs of a replicated LTS, which really minimise


MC_COPIES = 10
# Base LTS state counts per rung.  "inf-a" has two equations per state, so
# deadlock freedom gets twice the states and the rung has one equation count.
MC_STATES = {"inf-a": (30, 60, 120), "deadlock-free": (60, 120, 240)}
MC_PER_FORMULA = 4


def make_mc(seed: int, directory: Path) -> list[list[Call]]:
    groups = []
    for j in range(MC_PER_FORMULA):
        for formula, ladder in MC_STATES.items():
            group = []
            for states in ladder:
                base = mcgen.base_lts(states, _sub_seed("mc-minimise", seed, formula, j))
                product = mcgen.replicate(base, MC_COPIES)
                text = mcgen.ENCODERS[formula](product)
                path = _write(directory, f"mc-{formula}-{states}-{j}", text)
                equations = refcheck.parse_system(text)
                inp = Input(
                    path,
                    len(equations),
                    equations,
                    mcgen.reference(formula, product),
                    mcgen.equation_count(formula, states),
                )
                group.append(minimize_call(inp))
            groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# verify-small: the acceptance-suite traffic, verify and then solve

# Verify runs an exponential oracle on the minimised system, which can have
# twice as many equations as the input.  From n = 10 on, a few inputs in a
# thousand keep it busy for more than a minute; up to n = 8 no input of
# thousands tried took more than a third of a second.
VERIFY_SIZES = tuple(range(3, 9))
VERIFY_PER_SIZE = 80


def make_verify(seed: int, directory: Path) -> list[list[Call]]:
    groups = []
    for j in range(VERIFY_PER_SIZE):
        group = []
        for n in VERIFY_SIZES:
            text = _random_text(n, _sub_seed("verify-small", seed, n, j))
            path = _write(directory, f"verify-{n}-{j}", text)
            equations = refcheck.parse_system(text)
            inp = Input(path, n, equations, refcheck.brute_force_solve(equations))
            group += [Call(inp, ("verify", path)), Call(inp, ("solve", path))]
        groups.append(group)
    return groups


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, Path], list[list[Call]]]
    # Fixed per workload so that runs of different speed report the same
    # percentile.  On the ladders it falls inside the slowest rung rather
    # than between two rungs, with at least ten operations beyond it in a
    # run at the current speed; on verify-small, p99 would be set by the
    # few heaviest inputs a seed happens to draw.
    tail_percentile: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-minimise", make_random, 75.0),
        Workload("mc-minimise", make_mc, 75.0),
        Workload("verify-small", make_verify, 90.0),
    )
}
