"""ldk: decide lattice identities over Z_m submodule lattices by compiling
them into paired-bipolar-graphs problems and solving exact linear systems.

``import ldk`` loads no submodule: each name below is imported from its
module on first access (PEP 562), so ``python -m ldk.cli check`` loads
only what a check uses.  The F_m oracles, and numpy with them, live in
:mod:`ldk.oracles`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Identity", "Join", "Meet", "ParseError", "Term", "Variable",
        "dual_identity", "dual_term", "is_one_balanced", "is_repetition_free",
        "occurrences", "parse_identity", "parse_term", "pretty",
        "pretty_identity"), "terms"),
    **dict.fromkeys((
        "BalanceTrace", "absorb_missing", "one_balance", "replay"), "balance"),
    **dict.fromkeys((
        "Edge", "GraphFormatError", "GraphValidationError",
        "PathLimitExceededError", "PlaneGraph", "RepeatedVariableError",
        "dot_export", "dual_graph", "graph_from_json", "graph_of_term",
        "graph_to_json", "iso_check", "maximal_paths", "transpose_graph",
        "validate"), "planegraph"),
    **dict.fromkeys((
        "ContentSystem", "GroupSpec", "PbgProblem", "dual_problem",
        "edge_effect", "init_content", "is_solution", "problem_from_json",
        "problem_to_json", "set_effect", "term_content", "transp_content",
        "transpose_problem"), "pbg"),
    **dict.fromkeys((
        "CapExceededError", "IntMatrix", "SolutionReport", "assemble_system",
        "enumerate_solutions", "smith_normal_form", "solve",
        "solve_problem"), "linsolve"),
    **dict.fromkeys((
        "DualityError", "Verdict", "build_problem", "check_identity",
        "check_self_duality"), "decision"),
    **dict.fromkeys((
        "OracleCapError", "SubspaceLattice", "membership_via_contents",
        "oracle_holds", "subspace_lattice"), "oracles"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
