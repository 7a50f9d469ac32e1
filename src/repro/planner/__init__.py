"""Plan strategies, the physical-plan IR, the executor, and EXPLAIN."""

from .api import make_cluster, run_query
from .binary import LeftDeepPlan, left_deep_plan, shared_variables
from .decompose import (
    Decomposition,
    default_decomposition,
    enumerate_decompositions,
    lower_hybrid,
)
from .explain import AnalyzedPlan, Explanation, explain, explain_analyze
from .executor import ExecutionResult, execute, execute_physical
from .optimizer import (
    AUTO_STRATEGY,
    CostReport,
    OptimizedPlan,
    PlanCache,
    StrategyCost,
    estimate_costs,
    optimize,
    price_plan,
)
from .physical import (
    HYBRID_STRATEGY,
    PhysicalPlan,
    Round,
    lower,
    lower_broadcast,
    lower_hypercube,
    lower_regular,
    lower_semijoin,
)
from .plans import (
    ALL_STRATEGIES,
    BR_HJ,
    BR_TJ,
    HC_HJ,
    HC_TJ,
    RS_HJ,
    RS_TJ,
    JoinKind,
    ShuffleKind,
    Strategy,
)
from .semijoin import execute_semijoin

__all__ = [
    "ALL_STRATEGIES",
    "AUTO_STRATEGY",
    "AnalyzedPlan",
    "BR_HJ",
    "BR_TJ",
    "CostReport",
    "Decomposition",
    "ExecutionResult",
    "Explanation",
    "HYBRID_STRATEGY",
    "OptimizedPlan",
    "PlanCache",
    "StrategyCost",
    "HC_HJ",
    "HC_TJ",
    "JoinKind",
    "LeftDeepPlan",
    "PhysicalPlan",
    "RS_HJ",
    "RS_TJ",
    "Round",
    "ShuffleKind",
    "Strategy",
    "default_decomposition",
    "enumerate_decompositions",
    "estimate_costs",
    "execute",
    "execute_physical",
    "execute_semijoin",
    "explain",
    "explain_analyze",
    "left_deep_plan",
    "lower",
    "lower_broadcast",
    "lower_hybrid",
    "lower_hypercube",
    "lower_regular",
    "lower_semijoin",
    "make_cluster",
    "optimize",
    "price_plan",
    "run_query",
    "shared_variables",
]
