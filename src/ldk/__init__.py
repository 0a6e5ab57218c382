"""ldk: decide lattice identities over Z_m submodule lattices by compiling
them into paired-bipolar-graphs problems and solving exact linear systems."""

from .terms import (
    Identity,
    Join,
    Meet,
    ParseError,
    Term,
    Variable,
    dual_identity,
    dual_term,
    is_one_balanced,
    is_repetition_free,
    occurrences,
    parse_identity,
    parse_term,
    pretty,
    pretty_identity,
)
from .balance import BalanceTrace, absorb_missing, one_balance, replay
from .planegraph import (
    Edge,
    GraphFormatError,
    GraphValidationError,
    PathLimitExceededError,
    PlaneGraph,
    RepeatedVariableError,
    dot_export,
    dual_graph,
    graph_from_json,
    graph_of_term,
    graph_to_json,
    iso_check,
    maximal_paths,
    transpose_graph,
    validate,
)
from .pbg import (
    ContentSystem,
    GroupSpec,
    PbgProblem,
    dual_problem,
    edge_effect,
    init_content,
    is_solution,
    problem_from_json,
    problem_to_json,
    set_effect,
    term_content,
    transp_content,
    transpose_problem,
)
from .linsolve import (
    CapExceededError,
    IntMatrix,
    SolutionReport,
    assemble_system,
    enumerate_solutions,
    smith_normal_form,
    solve,
    solve_problem,
)
from .decision import (
    DualityError,
    OracleCapError,
    SubspaceLattice,
    Verdict,
    build_problem,
    check_identity,
    check_self_duality,
    membership_via_contents,
    oracle_holds,
    subspace_lattice,
)

__version__ = "0.1.0"
