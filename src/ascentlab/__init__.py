"""Exact-integer valued-CSP landscapes with provably long local-search ascents.

The package builds three related instance families (an alternating 2/3-state
chain, its padding over 3/5-state domains by the general `pad`, and an
arity-5 Boolean re-encoding with a width-4 path decomposition), runs
deterministic steepest/ordered/first-improvement ascents over them with exact
integer arithmetic, and ships brute-force checkers that confirm the families'
structural claims at small scale.
"""

from .ascent import (
    AscentTrace,
    AscentViolation,
    StepRecord,
    first_improvement_ascent,
    ordered_ascent,
    steepest_ascent,
    trace_to_csv,
    trace_to_json,
    verify_ascent,
    verify_ordered,
    verify_steepest,
)
from .constructions import (
    BooleanCodec,
    ExpandedLandscape,
    build_2by3,
    build_3by5,
    build_boolean_pw4,
    build_family,
    canonical_start,
    decode_assignment,
    f_max,
    pad,
    simulate_ascent,
    weight_m,
)
from .model import (
    BuildError,
    DecompositionReport,
    DomainSpec,
    InvalidAssignmentError,
    ModelError,
    PathDecomposition,
    ValuedConstraint,
    VcspInstance,
    check_path_decomposition,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from .verification import (
    CheckReport,
    Rank1Split,
    check_boolean,
    check_ordered_length,
    check_padding,
    check_pathwidth,
    check_rank1,
    check_simulation,
    exhaustive_steepest_oracle,
    rank1_split,
    run_all,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
