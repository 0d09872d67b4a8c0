"""Boolean equation system toolkit: parsing, structure graphs,
bisimulation minimisation, and cross-checked solving."""

from .build import (
    build_graph,
    build_srf_graph,
    normalise_graph,
    reduce_graph,
)
from .errors import (
    BesError,
    NotBessyError,
    OpenSystemError,
    ParseError,
    UnrankedCycleError,
    WellFormednessError,
)
from .fixtures import fixture, fixture_names, fixture_text
from .generate import GenConfig, gen_bes, gen_srf_bes
from .graph import (
    Decoration,
    Op,
    StructureGraph,
    bisimilar,
    is_bessy,
    minimize,
    parse_graph,
    serialize_graph,
    to_dependency_graph,
    to_dot,
    translate,
)
from .parse import parse_bes, parse_formula
from .solve import (
    eval_formula,
    solve_gauss,
    solve_recursive,
)
from .syntax import (
    And,
    AndSet,
    Const,
    Equation,
    EquationSystem,
    Fixpoint,
    Formula,
    Or,
    OrSet,
    Var,
    alternation_hierarchy,
    bnd,
    format_formula,
    is_closed,
    is_general_syntax,
    is_srf,
    least_variable,
    occ,
    print_bes,
    ranks,
    size,
    system,
)
from .transform import hbar, hbar_formula, to_srf
from .verify import PipelineResult, VerifyResult, pipeline, verify_system

__all__ = [name for name in dir() if not name.startswith("_")]
