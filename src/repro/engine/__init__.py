"""The simulated shared-nothing execution engine."""

from .cluster import Cluster
from .faults import (
    FailureReport,
    FaultAbort,
    FaultPlan,
    FaultSession,
    FaultSpec,
    InjectedFault,
    RecoveryPolicy,
    resolve_faults,
    resolve_policy,
)
from .frame import Frame, atom_frame, frame_relation
from .hash_join import apply_comparisons, join_output_variables, symmetric_hash_join
from .kernels import (
    KERNEL_BACKENDS,
    get_backend,
    set_backend,
    use_backend,
)
from .local import local_tributary_join, scanned_query
from .memory import MemoryBudget, OutOfMemoryError, WorkerMemoryAccount
from .runtime import (
    SerialRuntime,
    WorkerLedger,
    WorkerRuntime,
    resolve_runtime,
)
from .scheduler import (
    OperatorTrace,
    PlanExecution,
    ScheduledRun,
    run_plan,
)
from .service import (
    MemoryGovernor,
    QueryOutcome,
    QueryRequest,
    QueryService,
    ServiceStats,
)
from .shuffle import broadcast, hash_row, hypercube_shuffle, regular_shuffle
from .stats import (
    RECOVERY_PHASE,
    ExecutionStats,
    ShuffleRecord,
    StatsCheckpoint,
    WorkerStats,
    skew_factor,
)

__all__ = [
    "Cluster",
    "ExecutionStats",
    "FailureReport",
    "FaultAbort",
    "FaultPlan",
    "FaultSession",
    "FaultSpec",
    "Frame",
    "InjectedFault",
    "KERNEL_BACKENDS",
    "MemoryBudget",
    "MemoryGovernor",
    "OperatorTrace",
    "OutOfMemoryError",
    "PlanExecution",
    "QueryOutcome",
    "QueryRequest",
    "QueryService",
    "RECOVERY_PHASE",
    "RecoveryPolicy",
    "ScheduledRun",
    "SerialRuntime",
    "ServiceStats",
    "ShuffleRecord",
    "StatsCheckpoint",
    "WorkerLedger",
    "WorkerMemoryAccount",
    "WorkerRuntime",
    "WorkerStats",
    "apply_comparisons",
    "atom_frame",
    "broadcast",
    "frame_relation",
    "get_backend",
    "hash_row",
    "hypercube_shuffle",
    "join_output_variables",
    "local_tributary_join",
    "regular_shuffle",
    "resolve_faults",
    "resolve_policy",
    "resolve_runtime",
    "run_plan",
    "scanned_query",
    "set_backend",
    "skew_factor",
    "symmetric_hash_join",
    "use_backend",
]
