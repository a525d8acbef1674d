"""Two-stage monotone submodular maximization.

Select a small summary S (|S| <= ell) from a ground set so that per-function
solutions T_i chosen from S (|T_i| <= k) are near-optimal on average, via
centralized greedy, single-pass streaming, and simulated-distributed solvers,
with a brute-force oracle for desk-scale verification.
"""

from .core import (GroundSet, InvariantViolation, ObjectiveFamily,
                   SwapOutcome, TwoStageSolution, evaluate_solution,
                   lambda_gain, marginal, nabla, rep)
from .distributed import (distributed_fast, partition, pseudo_streaming,
                          recommend_machine_count, replacement_distributed)
from .greedy import replacement_greedy
from .objectives import (CoverageSpec, Point, Region, exemplar_family,
                         exemplar_value, facility_convenience, facility_family,
                         facility_value, make_synthetic)
from .oracle import OracleBudgetError, brute_force_opt
from .streaming import (InstanceBudgetError, StreamState, ThresholdManager,
                        exchange, run_know_opt, run_streaming)

__all__ = [
    "GroundSet", "InvariantViolation", "ObjectiveFamily", "SwapOutcome",
    "TwoStageSolution", "evaluate_solution", "lambda_gain", "marginal",
    "nabla", "rep",
    "distributed_fast", "partition", "pseudo_streaming",
    "recommend_machine_count", "replacement_distributed",
    "replacement_greedy",
    "CoverageSpec", "Point", "Region", "exemplar_family", "exemplar_value",
    "facility_convenience", "facility_family", "facility_value",
    "make_synthetic",
    "OracleBudgetError", "brute_force_opt",
    "InstanceBudgetError", "StreamState", "ThresholdManager", "exchange",
    "run_know_opt", "run_streaming",
]
