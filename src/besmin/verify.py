"""The minimisation pipeline and the end-to-end check of its result.

``pipeline`` builds the structure graph of a closed system, minimises it
and translates the quotient back into the text of an equation system,
which ``besmin minimize --emit bes`` prints as it is.  ``verify_system``
checks the paper's solution-preservation result on exactly that text: the
quotient is bisimilar to the structure graph, and solving the original
system and the system the text parses to with both solvers gives every
variable the solution of the variable it is mapped to through the
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import build_graph
from .graph import StructureGraph, bisimilar, minimize, translate
from .parse import parse_bes
from .solve import require_oracle_size, solve_gauss, solve_recursive
from .syntax import EquationSystem


@dataclass(frozen=True)
class PipelineResult:
    graph: StructureGraph  # the structure graph of the system
    quotient: StructureGraph
    block_of: list[int]  # graph node -> quotient node
    text: str  # the translated quotient's equation system, printed
    names: list[str]  # quotient node -> variable of ``text``


def pipeline(es: EquationSystem | str) -> PipelineResult:
    """Build, minimise and translate back the structure graph of ``es``.

    ``es`` may also be the system's text, which ``build_graph`` reads.
    """
    graph = build_graph(es)
    quotient, block_of = minimize(graph)
    _, text, names = translate(quotient)
    return PipelineResult(graph, quotient, block_of, text, names)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    mismatches: list[str]


def verify_system(es: EquationSystem) -> VerifyResult:
    require_oracle_size(es)  # the minimised system is never larger
    m = pipeline(es)
    # the ranked nodes of a built graph are exactly its bound variables
    variable_map = {
        label: m.names[b]
        for d, label, b in zip(m.graph.deco, m.graph.labels, m.block_of)
        if d.rank is not None
    }

    minimised = parse_bes(m.text)
    original_gauss = solve_gauss(es)
    original_oracle = solve_recursive(es, {})
    minimised_gauss = solve_gauss(minimised)
    minimised_oracle = solve_recursive(minimised, {})

    mismatches = []
    if not bisimilar(m.graph, m.quotient):
        mismatches.append(
            "minimise: quotient is not bisimilar to the structure graph"
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
    return VerifyResult(ok=not mismatches, mismatches=mismatches)
