"""Fault-tolerant execution layer for batch routing and eval sweeps.

Public surface:

- :class:`SupervisedRunner` / :class:`RouteJob` — crash-isolated,
  deadline-enforced, retrying job execution with backend fallback.
- :class:`SupervisorConfig` / :class:`RetryPolicy` — the policies.
- :class:`CheckpointJournal` — resumable JSONL sweep journal.
- :func:`run_distributed` / :class:`DistributedConfig` — lease-coordinated
  multi-process sweep execution over the shared journal.
- :class:`LeaseManager` / :class:`LeaseBoard` — the lease protocol.
- :class:`SweepBudget` / :func:`clip_deadlines` — wall-clock budgeting
  and hardest-first deadline allocation.
- :class:`ChaosMonkey` / :class:`KillPlan` — SIGKILL injection for
  crash-tolerance scenarios.
- :mod:`repro.exec.faults` — deterministic fault injection used by the
  robustness test suite.
"""

from repro.exec.chaos import ChaosMonkey, KillPlan, worker_name
from repro.exec.checkpoint import (
    RECORD_VERSION,
    CheckpointJournal,
    dedupe_results,
    record_kind,
    result_records,
)
from repro.exec.distributed import (
    DistributedConfig,
    DistributedReport,
    SweepInterrupted,
    parallel_map,
    run_distributed,
)
from repro.exec.faults import (
    CORRUPT_PAYLOAD,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    apply_fault,
    flip_bit,
    mutate_result,
    truncate_file,
)
from repro.exec.leases import Heartbeat, LeaseBoard, LeaseManager
from repro.exec.policy import DEFAULT_FALLBACK_CHAIN, RetryPolicy, SupervisorConfig
from repro.exec.portfolio import (
    SweepBudget,
    allocate_deadlines,
    clip_deadlines,
    order_hardest_first,
)
from repro.exec.runner import RouteJob, SupervisedRunner, SweepAborted

__all__ = [
    "CORRUPT_PAYLOAD",
    "ChaosMonkey",
    "CheckpointJournal",
    "DEFAULT_FALLBACK_CHAIN",
    "DistributedConfig",
    "DistributedReport",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "Heartbeat",
    "InjectedCrash",
    "KillPlan",
    "LeaseBoard",
    "LeaseManager",
    "RECORD_VERSION",
    "RetryPolicy",
    "RouteJob",
    "SupervisedRunner",
    "SupervisorConfig",
    "SweepAborted",
    "SweepBudget",
    "SweepInterrupted",
    "allocate_deadlines",
    "apply_fault",
    "clip_deadlines",
    "dedupe_results",
    "flip_bit",
    "mutate_result",
    "order_hardest_first",
    "parallel_map",
    "record_kind",
    "result_records",
    "run_distributed",
    "truncate_file",
    "worker_name",
]
