"""Shared helpers for the test suite."""

from __future__ import annotations

import besmin as bm


def oracle(es: bm.EquationSystem) -> dict[str, bool]:
    """Recursive-definition solution, restricted to the bound variables."""
    return {x: v for x, v in bm.solve_recursive(es, {}).items() if x in bm.bnd(es)}


def by_label(g: bm.StructureGraph) -> dict[str, str]:
    """Map node labels to node ids (labels are unique in built graphs)."""
    return {g.label(u): u for u in g.deco}


def edges_by_label(g: bm.StructureGraph) -> set[tuple[str, str]]:
    return {(g.label(a), g.label(b)) for a, b in g.edges}


def relabelled(g: bm.StructureGraph) -> bm.StructureGraph:
    """``g`` with every node renamed by its label."""
    return bm.StructureGraph(
        g.label(g.init),
        {g.label(u): d for u, d in g.deco.items()},
        frozenset(edges_by_label(g)),
        {g.label(u): g.label(u) for u in g.deco},
    )
