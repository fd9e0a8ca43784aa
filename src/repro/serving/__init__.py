"""Async micro-batching inference serving on top of the batched engine.

The paper's engine executes one network invocation as fast as the kernels
allow; this package turns that into a *service*: per-request traffic is
dynamically micro-batched into ``PhoneBitEngine.run_batch`` calls, models
are held warm in a pool, repeated inputs are answered from an LRU response
cache, and every request contributes to p50/p99 latency and throughput
metrics.  See ``docs/serving.md`` for the architecture.

The package exports the two front doors (:class:`InferenceService`,
:class:`ClusterService`), what their public signatures take, return or
raise, and the load helpers the CLI, the bench scripts and the docs import
from the package.  Everything else — scheduler, router, transport,
autoscaler and rollout cores, scenarios, stats rows — is imported from its
own module.
"""

from repro.serving.autoscale import AutoscaleConfig, ScaleEvent
from repro.serving.cache import CacheStats
from repro.serving.cluster import (
    DEFAULT_SLO_POLICIES,
    ClusterOverloadError,
    ClusterReport,
    ClusterService,
    DeadlineExceededError,
    RetryPolicy,
    SLOPolicy,
    WorkerCrashError,
)
from repro.serving.faults import FaultEvent, FaultPlan
from repro.serving.loadgen import (
    LoadResult,
    drive,
    matches_baseline,
    poisson_offsets,
    rollout_hook,
    settle_rollout,
    synthetic_images,
    write_sweep_records,
)
from repro.serving.pool import ModelPool
from repro.serving.rollout import RolloutConfig
from repro.serving.router import (
    SLO_CLASSES,
    QuarantinePolicy,
    default_slo_reserves,
    pin_counts_from_shares,
)
from repro.serving.service import InferenceService, ServiceReport
from repro.serving.shm_store import SharedModelStore

__all__ = [
    # the front doors and what their public signatures take, return or raise
    "AutoscaleConfig",
    "CacheStats",
    "ClusterOverloadError",
    "ClusterReport",
    "ClusterService",
    "DEFAULT_SLO_POLICIES",
    "DeadlineExceededError",
    "FaultEvent",
    "FaultPlan",
    "InferenceService",
    "ModelPool",
    "QuarantinePolicy",
    "RetryPolicy",
    "RolloutConfig",
    "SLOPolicy",
    "SLO_CLASSES",
    "ScaleEvent",
    "ServiceReport",
    "SharedModelStore",
    "WorkerCrashError",
    "default_slo_reserves",
    "pin_counts_from_shares",
    # load generation, as the CLI and the bench scripts import it
    "LoadResult",
    "drive",
    "matches_baseline",
    "poisson_offsets",
    "rollout_hook",
    "settle_rollout",
    "synthetic_images",
    "write_sweep_records",
]
