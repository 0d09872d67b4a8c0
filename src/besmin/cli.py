"""Command-line front end.

Exit codes: 0 success, 1 parse/validation failure, 2 precondition
violation, 3 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional

from .build import build_graph, build_srf_graph, normalise_graph, reduce_graph
from .errors import BesError, ParseError, WellFormednessError
from .fixtures import fixture_names, fixture_text
from .graph import minimize, serialize_graph, to_dot
from .parse import parse_bes, parse_formula
from .solve import solve_gauss, solve_recursive
from .syntax import (
    EquationSystem,
    alternation_hierarchy,
    is_closed,
    occ,
    ranks,
    require_closed,
    size,
)
from .verify import pipeline, verify_system

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3


class _CliFailure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_text(args) -> str:
    if args.fixture is not None:
        return fixture_text(args.fixture)
    if args.path is None:
        raise _CliFailure("no input: give a file path or --fixture", EXIT_INVALID)
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliFailure(str(exc), EXIT_INVALID)


def _load_system(args) -> EquationSystem:
    return parse_bes(_load_text(args))


def _cmd_check(args) -> int:
    es = _load_system(args)
    print(f"equations: {len(es.equations)}")
    if not es.equations:
        print("empty system")
        print(f"size: {size(es)}")
        print("closed: yes")
        return EXIT_OK
    print(f"size: {size(es)}")
    print("well-formed: yes")
    print(f"closed: {'yes' if is_closed(es) else 'no'}")
    print("bnd: " + " ".join(eq.lhs for eq in es))
    print("occ: " + " ".join(sorted(occ(es))))
    for name, value in ranks(es).items():
        print(f"rank {name} = {value}")
    print(f"alternation hierarchy: {alternation_hierarchy(es)}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    es = _load_system(args)
    if not es.equations:
        return EXIT_OK
    if args.method == "oracle":
        require_closed(es)  # solve_gauss checks it itself
        solution = solve_recursive(es, {})
    else:
        solution = solve_gauss(es)
    for eq in es:
        print(f"{eq.lhs} = {'true' if solution[eq.lhs] else 'false'}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    if args.formula is None and not args.srf:
        # build_graph reads a flat system straight from its text
        graph = build_graph(_load_text(args))
    else:
        es = _load_system(args)
        require_closed(es)
        formula = None if args.formula is None else parse_formula(args.formula)
        graph = build_srf_graph(es, formula) if args.srf else build_graph(es, formula)
    if args.reduce or args.normalise:
        graph = reduce_graph(graph)
    if args.normalise:
        graph = normalise_graph(graph)
    output = to_dot(graph) if args.out == "dot" else serialize_graph(graph)
    sys.stdout.write(output)
    return EXIT_OK


def _cmd_minimize(args) -> int:
    text = _load_text(args)  # build_graph reads a flat system straight from it
    if args.emit == "graph":
        quotient, _ = minimize(build_graph(text))
        sys.stdout.write(serialize_graph(quotient))
        return EXIT_OK
    m = pipeline(text)
    members: list[list[str]] = [[] for _ in m.names]  # the labels of each block
    for label, block in zip(m.graph.labels, m.block_of):
        members[block].append(label)
    by_name = dict(zip(m.names, members))
    equations = m.text.count("\n")  # one line each, for X0, X1, …
    lines = [m.text, "---\n", f"equations: {equations}\n"]
    for x in (f"X{i}" for i in range(equations)):
        lines.append(f"{x} <= {{{', '.join(by_name[x])}}}\n")
    sys.stdout.write("".join(lines))
    return EXIT_OK


def _cmd_verify(args) -> int:
    es = _load_system(args)
    if not es.equations:
        raise _CliFailure("cannot verify an empty system", EXIT_PRECONDITION)
    result = verify_system(es)
    if result.ok:
        print(f"PASS: {len(es.equations)} variables verified")
        return EXIT_OK
    print("FAIL:")
    for line in result.mismatches:
        print(f"  {line}")
    return EXIT_VERIFICATION


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", help="equation system file")
    parser.add_argument(
        "--fixture",
        choices=fixture_names(),
        help="use a built-in example instead of a file",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besmin",
        description="Boolean equation system toolkit: structure graphs, "
        "bisimulation minimisation, and cross-checked solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="static analysis report")
    _add_input_arguments(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("solve", help="solve a closed system")
    _add_input_arguments(p)
    p.add_argument("--method", choices=("oracle", "gauss"), default="gauss")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("graph", help="emit a structure graph")
    _add_input_arguments(p)
    p.add_argument("--formula", help="initial formula (default: first variable)")
    p.add_argument("--out", choices=("sgraph", "dot"), default="sgraph")
    p.add_argument("--srf", action="store_true", help="use the SRF rules")
    p.add_argument("--reduce", action="store_true", help="eliminate constants")
    p.add_argument(
        "--normalise",
        action="store_true",
        help="rank all nodes (implies --reduce)",
    )
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("minimize", help="bisimulation-minimise the graph")
    _add_input_arguments(p)
    p.add_argument("--emit", choices=("graph", "bes"), default="graph")
    p.set_defaults(run=_cmd_minimize)

    p = sub.add_parser(
        "verify",
        help="check that minimisation preserves every variable's solution",
    )
    _add_input_arguments(p)
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # A command builds no reference cycles but for the argument parser's,
    # so reference counting frees its garbage and the cyclic collector would
    # only traverse the records, tuples and lists it keeps alive.  Pause it
    # for the command, as the process's owner; the library never does.  A
    # failure keeps only its message: the exception's traceback would hold
    # this frame, and the command's data in the frames below, in a cycle.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_arg_parser().parse_args(argv)
        return args.run(args)
    except _CliFailure as exc:
        failure, code = str(exc), exc.code
    except (ParseError, WellFormednessError) as exc:
        failure, code = str(exc), EXIT_INVALID
    except BesError as exc:
        failure, code = str(exc), EXIT_PRECONDITION
    finally:
        if enabled:
            gc.enable()
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
