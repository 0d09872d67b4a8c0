"""End-to-end check of the solution-preservation result.

Runs the full pipeline (build, eliminate constants, rank, minimise,
translate back), checks the quotient bisimilar to the normalised graph,
solves the original and the minimised system with both solvers, and
compares the solutions variable by variable through the quotient mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import _variable_nodes, build_graph, normalise_graph, reduce_graph
from .graph import bisimilar, minimize, translate
from .solve import solve_gauss, solve_recursive
from .syntax import EquationSystem, bnd


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    variable_map: dict[str, str]  # original variable -> minimised variable
    original_solution: dict[str, bool]
    minimised_solution: dict[str, bool]
    minimised_system: EquationSystem
    mismatches: list[str]


def verify_system(es: EquationSystem) -> VerifyResult:
    graph = build_graph(es)
    normalised = normalise_graph(reduce_graph(graph))
    quotient, block_of = minimize(normalised)
    _, minimised, names = translate(quotient)
    var_nodes = _variable_nodes(graph, es)
    variable_map = {x: names[block_of[u]] for x, u in var_nodes.items()}

    original_gauss = solve_gauss(es)
    original_oracle = {
        x: v for x, v in solve_recursive(es, {}).items() if x in bnd(es)
    }
    minimised_gauss = solve_gauss(minimised)
    minimised_oracle = {
        x: v
        for x, v in solve_recursive(minimised, {}).items()
        if x in bnd(minimised)
    }

    mismatches = []
    if not bisimilar(normalised, quotient):
        mismatches.append(
            "minimise: quotient is not bisimilar to the normalised graph"
        )
    for x in (eq.lhs for eq in es):
        image = variable_map[x]
        values = {
            "gauss": original_gauss[x],
            "oracle": original_oracle[x],
            "minimised gauss": minimised_gauss[image],
            "minimised oracle": minimised_oracle[image],
        }
        if len(set(values.values())) > 1:
            detail = ", ".join(f"{k}={str(v).lower()}" for k, v in values.items())
            mismatches.append(f"{x} (-> {image}): {detail}")
    return VerifyResult(
        ok=not mismatches,
        variable_map=variable_map,
        original_solution=original_gauss,
        minimised_solution=minimised_gauss,
        minimised_system=minimised,
        mismatches=mismatches,
    )
