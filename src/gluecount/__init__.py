"""Counting bubble gluing data that make a perturbed curvature field
rank-one at two marked points.

The pipeline: 3x3 curvature matrices and their singular-value strata
(linalg3), quaternion/SO(3) algebra and the 2-to-1 covering (rotations),
rank-one completion by a scaled rotation with an independent oracle
(rank_one), bubble curvature and the two-point direction-ratio map
(instanton), synthetic smooth backgrounds with their completion targets
(background), the six-solution enumeration with orientation signs and a
global oracle (solver), and a deterministic experiment harness (cli).

The harness is imported on first use of its names (PEP 562), so that
importing the library does not load the command line.
"""

import importlib

from .background import (
    BackgroundField,
    DegenerateFieldError,
    TargetData,
    eval_background,
    field_from_json,
    field_to_json,
    make_background,
    targets,
)
from .instanton import (
    Bubble,
    TwoPointConfig,
    curvature,
    direction_ratio,
    magnitude,
    regular_gauge_curvature,
)
from .linalg3 import (
    Stratum,
    StratumTag,
    SvdTriple,
    adjugate3,
    classify_stratum,
    sigma2,
    singular_values,
    svd,
    svd_signed,
)
from .rank_one import (
    OracleInconclusiveError,
    OutcomeKind,
    RankOneOutcome,
    RankOnePair,
    oracle_rank_one,
    solve_rank_one,
    solve_rank_one_reduced,
)
from .rotations import (
    canonical_lift,
    quat_conj,
    quat_mul,
    quat_normalize,
    quat_to_rotation,
    rotation_distance,
    rotation_to_quat_pair,
    sample_rotation,
    sample_unit_quaternion,
)
from .solver import (
    CountAnomalyWarning,
    DefectChart,
    NearDegenerateError,
    SolutionRecord,
    SolverConfig,
    build_defect_chart,
    compare_solution_sets,
    enumerate_solutions,
    oracle_enumerate,
    orientation_sign,
    reference_case,
    solve_magnitude,
)

__version__ = "0.1.0"

_CLI_NAMES = ("ExperimentReport", "ExperimentSpec", "lemma_suite", "plots_from_csv", "run")


def __getattr__(name):
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    if name in _CLI_NAMES:
        return getattr(importlib.import_module(".cli", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
