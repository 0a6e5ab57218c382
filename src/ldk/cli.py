"""Command-line front end.

Every command prints one machine-readable JSON report to stdout (byte
identical across runs for identical input) and a short human summary to
stderr.  A failing verdict is data, not a process failure; nonzero exit
codes mean infrastructure problems:

    2  parse error (term/identity/JSON syntax)
    3  validation error (graph or problem structure)
    4  internal consistency failure (a duality check disagreed)
    5  limits exceeded (path or enumeration caps)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .balance import AbsorbStep, BalanceTrace, absorb_missing, one_balance
from .decision import (
    DualityError,
    OracleCapError,
    check_identity,
    check_self_duality,
    oracle_holds,
    subspace_lattice,
)
from .linsolve import CapExceededError, DEFAULT_ENUM_CAP, enumerate_solutions, solve_problem
from .pbg import ProblemFormatError, dual_problem, problem_from_json
from .planegraph import (
    DEFAULT_PATH_LIMIT,
    GraphFormatError,
    GraphValidationError,
    PathLimitExceededError,
    RepeatedVariableError,
    dot_export,
    dual_graph,
    graph_of_term,
    graph_to_json,
    maximal_paths,
)
from .terms import ParseError, parse_identity, parse_term, pretty, pretty_identity

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ASSERTION = 4
EXIT_LIMIT = 5

PATH_LIMIT_ENV = "LDK_PATH_LIMIT"


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _fail(command: str, exc: Exception, code: int) -> int:
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        error["position"] = exc.position
    if isinstance(exc, GraphValidationError):
        error["violations"] = exc.violations
    _emit({"command": command, "status": "error", "error": error})
    _note(f"error: {exc}")
    return code


def _trace_json(trace: BalanceTrace) -> list:
    steps = []
    for step in trace.steps:
        if isinstance(step, AbsorbStep):
            steps.append({"kind": "absorb", "variable": step.variable,
                          "side": step.side})
        else:
            steps.append({"kind": "split", "variable": step.variable,
                          "u": step.u, "v": step.v,
                          "fresh": [list(row) for row in step.fresh]})
    return steps


def _parse_mod_list(text: str) -> List[int]:
    mods = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        value = int(part)
        if value < 0:
            raise ValueError(f"modulus must be >= 0, got {value}")
        mods.append(value)
    if not mods:
        raise ValueError("empty modulus list")
    return mods


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")
    return value


def _path_limit(args) -> int:
    """--path-limit, else $LDK_PATH_LIMIT, else the default; ValueError
    if the limit given is negative."""
    if args.path_limit is not None:
        return _nonnegative("--path-limit", args.path_limit)
    env = os.environ.get(PATH_LIMIT_ENV)
    if not env:
        return DEFAULT_PATH_LIMIT
    try:
        value = int(env)
    except ValueError:
        _note(f"ignoring invalid {PATH_LIMIT_ENV}={env!r}")
        return DEFAULT_PATH_LIMIT
    return _nonnegative(PATH_LIMIT_ENV, value)


# ---------------------------------------------------------------------------
# commands

def cmd_normalize(args) -> int:
    command = "normalize"
    try:
        identities = parse_identity(args.identity)
    except ParseError as exc:
        return _fail(command, exc, EXIT_PARSE)
    results = []
    for ident in identities:
        absorbed, _ = absorb_missing(ident)
        balanced, trace = one_balance(ident)
        results.append({
            "original": pretty_identity(ident),
            "absorbed": pretty_identity(absorbed),
            "balanced": pretty_identity(balanced),
            "trace": _trace_json(trace),
        })
        _note(f"{pretty_identity(ident)}  ->  {pretty_identity(balanced)}")
    _emit({"command": command, "status": "ok",
           "inputs": {"identity": args.identity}, "outputs": results})
    return EXIT_OK


def cmd_graph(args) -> int:
    command = "graph"
    try:
        term = parse_term(args.term)
    except ParseError as exc:
        return _fail(command, exc, EXIT_PARSE)
    try:
        graph = graph_of_term(term)
    except RepeatedVariableError as exc:
        return _fail(command, exc, EXIT_VALIDATION)
    if args.dual:
        graph = dual_graph(graph)
    stats = {
        "vertices": len(graph.vertices),
        "edges": graph.n,
        "facets": len(graph.facets),
        "euler": len(graph.vertices) - graph.n + len(graph.facets),
    }
    outputs = {"stats": stats, "graph": graph_to_json(graph)}
    if args.dot:
        Path(args.dot).write_text(dot_export(graph))
        outputs["dot_written"] = args.dot
    _emit({"command": command, "status": "ok",
           "inputs": {"term": args.term, "dual": bool(args.dual)},
           "outputs": outputs})
    _note(f"{stats['vertices']} vertices, {stats['edges']} edges, "
          f"{stats['facets']} facets")
    return EXIT_OK


def cmd_paths(args) -> int:
    command = "paths"
    try:
        term = parse_term(args.term)
        limit = _path_limit(args)
    except (ParseError, ValueError) as exc:
        return _fail(command, exc, EXIT_PARSE)
    try:
        graph = graph_of_term(term)
    except RepeatedVariableError as exc:
        return _fail(command, exc, EXIT_VALIDATION)
    try:
        paths = maximal_paths(graph, limit=limit)
    except PathLimitExceededError as exc:
        return _fail(command, exc, EXIT_LIMIT)
    _emit({"command": command, "status": "ok",
           "inputs": {"term": args.term},
           "outputs": {"count": len(paths), "paths": [list(p) for p in paths]}})
    _note(f"{len(paths)} maximal paths")
    return EXIT_OK


def cmd_check(args) -> int:
    command = "check"
    try:
        identities = parse_identity(args.identity)
        mods = _parse_mod_list(args.mod)
    except (ParseError, ValueError) as exc:
        return _fail(command, exc, EXIT_PARSE)
    results = []
    try:
        for ident in identities:
            for modulus in mods:
                verdict = check_identity(ident, modulus, b=args.b)
                entry = {
                    "identity": pretty_identity(ident),
                    "modulus": modulus,
                    "holds": verdict.holds,
                    "balanced": pretty_identity(verdict.balanced),
                    "solution": verdict.witness.to_json(),
                }
                if args.self_dual:
                    report = check_self_duality(ident, modulus, b=args.b)
                    entry["self_duality"] = dict(report.flags)
                if args.oracle is not None:
                    if modulus in (2, 3, 5):
                        lattice = subspace_lattice(modulus, args.oracle)
                        entry["oracle"] = {
                            "dimension": args.oracle,
                            "holds": oracle_holds(ident, lattice),
                        }
                    else:
                        entry["oracle"] = None
                results.append(entry)
                _note(f"{pretty_identity(ident)}  over Z"
                      f"{'' if modulus == 0 else f'_{modulus}'}: "
                      f"{'holds' if verdict.holds else 'fails'}")
    except DualityError as exc:
        return _fail(command, exc, EXIT_ASSERTION)
    except OracleCapError as exc:
        return _fail(command, exc, EXIT_LIMIT)
    _emit({"command": command, "status": "ok",
           "inputs": {"identity": args.identity, "mod": mods, "b": args.b},
           "outputs": results})
    return EXIT_OK


def cmd_solve(args) -> int:
    command = "solve"
    path = Path(args.problem)
    try:
        limit = _path_limit(args)
        _nonnegative("--enum-cap", args.enum_cap)
    except ValueError as exc:
        return _fail(command, exc, EXIT_PARSE)
    try:
        obj = json.loads(path.read_text())
    except OSError as exc:
        return _fail(command, exc, EXIT_PARSE)
    except json.JSONDecodeError as exc:
        return _fail(command, exc, EXIT_PARSE)
    try:
        problem = problem_from_json(obj, base_dir=path.parent)
    except (ProblemFormatError, GraphFormatError, GraphValidationError,
            ValueError) as exc:
        return _fail(command, exc, EXIT_VALIDATION)
    try:
        report = solve_problem(problem, mode=args.mode, path_limit=limit)
        dual_report = solve_problem(dual_problem(problem), mode=args.mode,
                                    path_limit=limit)
        outputs = {
            "modulus": problem.group.modulus,
            "b": problem.b,
            "edges": problem.n,
            "report": report.to_json(),
            "dual_solvable": dual_report.solvable,
        }
        if args.enumerate:
            solutions = enumerate_solutions(problem, cap=args.enum_cap,
                                            path_limit=limit)
            outputs["solutions"] = [list(s) for s in solutions]
    except (PathLimitExceededError, CapExceededError) as exc:
        return _fail(command, exc, EXIT_LIMIT)
    except ValueError as exc:
        return _fail(command, exc, EXIT_VALIDATION)
    _emit({"command": command, "status": "ok",
           "inputs": {"problem": str(args.problem), "mode": args.mode},
           "outputs": outputs})
    _note(f"solvable: {report.solvable} (dual: {dual_report.solvable})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldk",
        description="Decide lattice identities over Z_m submodule lattices "
                    "via paired bipolar plane graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="absorb and 1-balance an identity")
    p.add_argument("identity")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("graph", help="compile a term into its plane graph")
    p.add_argument("term")
    p.add_argument("--dual", action="store_true", help="emit the dual graph")
    p.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("paths", help="list maximal paths of a term graph")
    p.add_argument("term")
    p.add_argument("--path-limit", type=int, default=None)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("check", help="decide an identity over Z_m")
    p.add_argument("identity")
    p.add_argument("--mod", default="0", help="comma-separated moduli (default 0)")
    p.add_argument("--self-dual", action="store_true",
                   help="also check the dual identity and the dual problem")
    p.add_argument("--oracle", type=int, metavar="D", default=None,
                   help="cross-check on the subspace lattice of F_m^D")
    p.add_argument("-b", type=int, default=1, help="target element (default 1)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("--problem", required=True, metavar="FILE")
    p.add_argument("--mode", choices=("full", "facet_reduced"), default="full")
    p.add_argument("--enumerate", action="store_true",
                   help="also enumerate all solutions over Z_m")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p.add_argument("--path-limit", type=int, default=None)
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
