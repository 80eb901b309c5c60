"""Finite Cayley balls and the geometric invariants that separate virtually
free groups from generic hyperbolic behaviour."""

__version__ = "0.1.0"

from .groups import (
    GeneratorLetter,
    GroupSpec,
    InternalCheckError,
    SpecParseError,
    WordError,
    parse_group_spec,
)
from .ball import (
    BallGraph,
    BudgetExceededError,
    DistanceMatrix,
    all_pairs_distances,
    build_ball,
    read_ball,
    write_ball,
)
from .geodesics import enumerate_geodesics, interval
from .invariants import (
    InvariantResult,
    SamplingPlan,
    bigon_constants,
    chain_defect,
    detour_epsilon,
    four_point_delta,
    h2_center_distance,
    mesh_estimate,
    polygon_delta,
    rips_delta,
    subgroup_quasiconvexity,
)

__all__ = [
    "BallGraph",
    "BudgetExceededError",
    "DistanceMatrix",
    "GeneratorLetter",
    "GroupSpec",
    "InternalCheckError",
    "InvariantResult",
    "SamplingPlan",
    "SpecParseError",
    "WordError",
    "all_pairs_distances",
    "bigon_constants",
    "build_ball",
    "chain_defect",
    "detour_epsilon",
    "enumerate_geodesics",
    "four_point_delta",
    "h2_center_distance",
    "interval",
    "mesh_estimate",
    "parse_group_spec",
    "polygon_delta",
    "read_ball",
    "rips_delta",
    "subgroup_quasiconvexity",
    "write_ball",
]
