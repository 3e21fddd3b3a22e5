"""Weak saturation toolkit: bootstrap closures, exact wsat solvers,
closed-form values, saturator constructions, and seeded experiments."""

from .errors import (
    ConstructionError,
    GraphParseError,
    InternalError,
    ParameterError,
    PreconditionError,
    RangeError,
    StructureAbsentError,
    UndefinedDensityError,
    WsatError,
)
from .graph import (
    Graph,
    Seed,
    build_named_graph,
    complete,
    complete_bipartite,
    cycle,
    decode_edge_list,
    density_m,
    density_mu,
    derive_seed,
    empty,
    encode_edge_list,
    matching,
    path,
    sample_gnp,
    star,
)
from .patterns import (
    CopyWitness,
    Pattern,
    contains_copy,
    copy_through_edge,
    count_copies,
    normalize_pattern,
)
from .bootstrap import (
    ActivationTrace,
    ClosureResult,
    closure,
    is_weakly_saturated,
    verify_trace,
    verify_trace_detailed,
)
from .solver import (
    SearchBudget,
    WsatResult,
    greedy_upper_bound,
    lower_bound_general,
    wsat_exact,
)
from .formulas import (
    FormulaQuery,
    StabilityProfile,
    closed_form_wsat,
    construct_complete_host_saturator,
    construct_random_host_saturator,
    generic_upper_bounds,
    stability_profile,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    expected_copies,
    neighborhood_property_check,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
