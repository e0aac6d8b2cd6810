"""rbcsp: a workbench for hard random binary constraint satisfaction problems.

Generate Model RB instances at the phase transition (optionally forced
satisfiable), solve them with the ULSA unweighted stochastic local search,
extract partial solutions meeting a target subset size, convert to and from
the independent-set graph form, and measure runtime distributions.
"""

from .bench import (
    BestConflictsResult,
    ExponentialFit,
    FitError,
    LinearFit,
    Rtd,
    aggregate_stats,
    best_conflicts_histogram,
    fit_exponential,
    fit_linear_early,
    run_many,
    summarize,
    summarize_best_conflicts,
    write_hist_csv,
    write_rtd_csv,
)
from .core import (
    Assignment,
    Constraint,
    CspFormatError,
    CspInstance,
    SearchState,
    ViolatedIndex,
    conflict_count,
    dumps_csp,
    loads_csp,
)
from .misbridge import (
    DimacsFormatError,
    MisGraph,
    MisStructureError,
    csp_to_mis,
    emit_dimacs,
    mis_to_csp,
    parse_dimacs,
)
from .modelrb import (
    PHASE_ALPHA,
    PHASE_P,
    PHASE_R,
    ModelRbParams,
    generate,
    generate_forced,
    phase_transition_params,
)
from .target import TargetSpec, check_target, min_conflict_cover, subset_conflicts
from .ulsa import (
    RunRecord,
    StepStats,
    UlsaConfig,
    can_change_without_increase,
    init_state,
    run,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BestConflictsResult",
    "Constraint",
    "CspFormatError",
    "CspInstance",
    "DimacsFormatError",
    "ExponentialFit",
    "FitError",
    "LinearFit",
    "MisGraph",
    "MisStructureError",
    "ModelRbParams",
    "PHASE_ALPHA",
    "PHASE_P",
    "PHASE_R",
    "Rtd",
    "RunRecord",
    "SearchState",
    "StepStats",
    "TargetSpec",
    "UlsaConfig",
    "ViolatedIndex",
    "aggregate_stats",
    "best_conflicts_histogram",
    "can_change_without_increase",
    "check_target",
    "conflict_count",
    "csp_to_mis",
    "dumps_csp",
    "emit_dimacs",
    "fit_exponential",
    "fit_linear_early",
    "generate",
    "generate_forced",
    "init_state",
    "loads_csp",
    "min_conflict_cover",
    "mis_to_csp",
    "parse_dimacs",
    "phase_transition_params",
    "run",
    "run_many",
    "step",
    "subset_conflicts",
    "summarize",
    "summarize_best_conflicts",
    "write_hist_csv",
    "write_rtd_csv",
]
