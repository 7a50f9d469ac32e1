"""repro — a reproduction of "From Theory to Practice: Efficient Join Query
Evaluation in a Parallel Database System" (Chu, Balazinska, Suciu; SIGMOD'15).

The package marries the two theoretical building blocks the paper makes
practical:

- the **HyperCube shuffle** (single-round distributed evaluation of any
  conjunctive query) with the paper's integral configuration algorithm, and
- the **Tributary join** (a worst-case-optimal leapfrog join over sorted
  arrays) with the paper's variable-order cost model,

running on a deterministic shared-nothing cluster simulator that counts the
paper's metrics: tuples shuffled, producer/consumer skew, per-worker CPU
work, and straggler-dominated wall clock.

Quickstart::

    from repro import run_query, twitter_database

    db = twitter_database(nodes=2000, edges=10000)
    result = run_query(
        "Triangles(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x).",
        db, strategy="HC_TJ", workers=16)
    print(len(result.rows), "triangles,",
          result.stats.tuples_shuffled, "tuples shuffled")
"""

from .engine import (
    Cluster,
    ExecutionStats,
    FailureReport,
    FaultPlan,
    FaultSpec,
    MemoryBudget,
    OutOfMemoryError,
    RecoveryPolicy,
    SerialRuntime,
    resolve_runtime,
)
from .hypercube import (
    HyperCubeConfig,
    HyperCubeMapping,
    fractional_shares,
    optimize_config,
    round_down_config,
)
from .leapfrog import TributaryJoin, best_join_order, estimate_order_cost
from .planner import (
    ALL_STRATEGIES,
    CostReport,
    ExecutionResult,
    PhysicalPlan,
    Strategy,
    execute,
    execute_physical,
    execute_semijoin,
    explain,
    explain_analyze,
    lower,
    make_cluster,
    optimize,
    run_query,
)
from .query import Atom, ConjunctiveQuery, Variable, parse_query
from .storage import (
    Database,
    Relation,
    SortedRelation,
    freebase_database,
    twitter_database,
    twitter_graph,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_STRATEGIES",
    "Atom",
    "Cluster",
    "ConjunctiveQuery",
    "CostReport",
    "Database",
    "ExecutionResult",
    "ExecutionStats",
    "FailureReport",
    "FaultPlan",
    "FaultSpec",
    "HyperCubeConfig",
    "HyperCubeMapping",
    "MemoryBudget",
    "OutOfMemoryError",
    "PhysicalPlan",
    "RecoveryPolicy",
    "Relation",
    "SerialRuntime",
    "SortedRelation",
    "Strategy",
    "TributaryJoin",
    "Variable",
    "best_join_order",
    "estimate_order_cost",
    "execute",
    "execute_physical",
    "execute_semijoin",
    "explain",
    "explain_analyze",
    "fractional_shares",
    "freebase_database",
    "lower",
    "make_cluster",
    "optimize",
    "optimize_config",
    "parse_query",
    "resolve_runtime",
    "round_down_config",
    "run_query",
    "twitter_database",
    "twitter_graph",
]
