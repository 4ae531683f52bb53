"""repro — Parallel Personalized PageRank on Dynamic Graphs (VLDB 2017).

A full reproduction of Guo, Li, Sha, Tan, *Parallel Personalized PageRank
on Dynamic Graphs*, PVLDB 11(1), 2017: incremental PPR maintenance via the
local-update scheme, parallelized with batch processing, eager propagation
and local duplicate detection, plus every baseline the paper evaluates
(sequential local update, incremental Monte-Carlo, a Ligra-style
vertex-centric framework), a simulated-hardware benchmark harness that
regenerates each figure of the evaluation, and a multi-query serving
layer (:mod:`repro.serve`) answering many sources from maintained state.

Documentation: ``README.md`` (install/quickstart), ``docs/architecture.md``
(module map and paper-section mapping), ``docs/serving.md`` (serving layer).

Quickstart
----------
>>> from repro import DynamicDiGraph, DynamicPPRTracker, PPRConfig, insertions
>>> graph = DynamicDiGraph([(1, 0), (2, 0), (2, 1)])
>>> tracker = DynamicPPRTracker(graph, source=0, config=PPRConfig(epsilon=1e-6))
>>> stats = tracker.apply_batch(insertions([(0, 2), (1, 2)]))
>>> tracker.estimate(0) > 0
True
"""

from .api import (
    Client,
    Consistency,
    ErrorInfo,
    Gateway,
    HttpClient,
    request_from_dict,
)
from .cluster import ClusterGateway, PPRCluster
from .config import (
    ApiConfig,
    Backend,
    ClusterConfig,
    ConsistencyLevel,
    Phase,
    PPRConfig,
    PushVariant,
    ServeConfig,
    ShardConfig,
    StoreConfig,
)
from .core.analysis import (
    parallel_bound_directed,
    parallel_bound_undirected,
    parallel_loss,
    residual_change_bound,
    sequential_bound,
)
from .core.certify import (
    certified_comparison,
    certified_top_k,
    convergence_report,
    error_bound,
    residual_decay,
)
from .core.groundtruth import ground_truth_linear, ground_truth_ppr, max_estimate_error
from .core.hub_index import DynamicHubIndex, select_hubs
from .core.invariant import check_invariant, invariant_violation, restore_invariant
from .core.push_parallel import parallel_local_push
from .core.push_sequential import cpu_base_update, cpu_seq_update, sequential_local_push
from .core.state import PPRState
from .core.stats import BatchStats, IterationRecord, PushStats
from .core.tracker import DynamicPPRTracker
from .errors import (
    ERROR_CODES,
    BackendError,
    ClusterError,
    ConfigError,
    ConflictError,
    ConvergenceError,
    EdgeError,
    GraphError,
    ReproError,
    RequestError,
    StoreError,
    StreamError,
    VertexError,
    error_from_dict,
)
from .graph import (
    CSRGraph,
    DeltaCSRGraph,
    DATASETS,
    DatasetSpec,
    DynamicDiGraph,
    EdgeOp,
    EdgeStream,
    EdgeUpdate,
    LabeledDiGraph,
    SlidingWindow,
    WindowSlide,
    deletions,
    insertions,
    load_dataset,
    random_permutation_stream,
)
from .parallel import (
    CPUCostModel,
    GPUCostModel,
    LigraCostModel,
    MonteCarloCostModel,
    profile_cpu,
    profile_gpu,
)
from .shard import PPRShards, ShardedGateway
from .serve import (
    AdmissionPool,
    PPRService,
    ResidentSource,
    ServedQuery,
    ServedScore,
    ServiceMetrics,
    SourceCache,
)
from .store import RecoveryResult, StateStore, WriteAheadLog, recover_service

__version__ = "1.0.0"

__all__ = [
    "AdmissionPool",
    "ApiConfig",
    "Backend",
    "BackendError",
    "BatchStats",
    "CPUCostModel",
    "CSRGraph",
    "Client",
    "ClusterConfig",
    "ClusterError",
    "ClusterGateway",
    "Consistency",
    "ConsistencyLevel",
    "DeltaCSRGraph",
    "ConfigError",
    "ConflictError",
    "ConvergenceError",
    "ERROR_CODES",
    "ErrorInfo",
    "DATASETS",
    "DatasetSpec",
    "DynamicDiGraph",
    "DynamicHubIndex",
    "DynamicPPRTracker",
    "EdgeError",
    "EdgeOp",
    "EdgeStream",
    "EdgeUpdate",
    "GPUCostModel",
    "Gateway",
    "GraphError",
    "HttpClient",
    "IterationRecord",
    "LabeledDiGraph",
    "LigraCostModel",
    "MonteCarloCostModel",
    "PPRCluster",
    "PPRConfig",
    "PPRService",
    "PPRShards",
    "PPRState",
    "Phase",
    "PushStats",
    "PushVariant",
    "RecoveryResult",
    "ReproError",
    "RequestError",
    "ResidentSource",
    "ServeConfig",
    "ServedQuery",
    "ServedScore",
    "ServiceMetrics",
    "ShardConfig",
    "ShardedGateway",
    "SlidingWindow",
    "SourceCache",
    "StateStore",
    "StoreConfig",
    "StoreError",
    "StreamError",
    "VertexError",
    "WindowSlide",
    "WriteAheadLog",
    "certified_comparison",
    "certified_top_k",
    "check_invariant",
    "convergence_report",
    "cpu_base_update",
    "cpu_seq_update",
    "deletions",
    "error_bound",
    "error_from_dict",
    "ground_truth_linear",
    "ground_truth_ppr",
    "insertions",
    "invariant_violation",
    "load_dataset",
    "max_estimate_error",
    "parallel_bound_directed",
    "parallel_bound_undirected",
    "parallel_local_push",
    "parallel_loss",
    "profile_cpu",
    "profile_gpu",
    "random_permutation_stream",
    "recover_service",
    "request_from_dict",
    "residual_change_bound",
    "residual_decay",
    "restore_invariant",
    "select_hubs",
    "sequential_bound",
    "sequential_local_push",
]
