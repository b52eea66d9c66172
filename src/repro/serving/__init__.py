"""Fault-aware request serving over the batched execution engine.

``repro.serving`` turns the functional accelerator into a *server*:
requests with deadlines and priorities enter a bounded admission queue,
are coalesced into SLO-sized micro-batches priced by the dataflow cost
model, and dispatch to accelerator workers whose health (program-verify
readback + the fault-repair log) drives per-worker circuit breakers.
Overload sheds by priority with structured reasons, failures retry with
jittered exponential backoff, and the whole loop runs on a seeded
virtual clock so any run replays bit-identically.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.queue import AdmissionQueue
from repro.serving.request import (
    CompletedRequest,
    InferenceRequest,
    RejectedRequest,
    ShedReason,
)
from repro.serving.server import ServeReport, ServerConfig, TridentServer
from repro.serving.shard_workload import (
    ShardWorkloadConfig,
    makespan_s,
    run_shard_workload,
    shard_smoke_checks,
)
from repro.serving.sharded import ShardedWorker, build_sharded_worker
from repro.serving.worker import AcceleratorWorker
from repro.serving.workload import (
    Phase,
    ServeRunResult,
    WorkloadConfig,
    build_worker,
    run_serve_workload,
    shed_rate_by_priority,
    smoke_checks,
    sustainable_rate_hz,
    synthesize_arrivals,
)

__all__ = [
    "AcceleratorWorker",
    "AdmissionQueue",
    "BreakerState",
    "CircuitBreaker",
    "CompletedRequest",
    "InferenceRequest",
    "MicroBatcher",
    "Phase",
    "RejectedRequest",
    "ServeReport",
    "ServeRunResult",
    "ServerConfig",
    "ShardWorkloadConfig",
    "ShardedWorker",
    "ShedReason",
    "TridentServer",
    "WorkloadConfig",
    "build_sharded_worker",
    "build_worker",
    "makespan_s",
    "run_serve_workload",
    "run_shard_workload",
    "shard_smoke_checks",
    "shed_rate_by_priority",
    "smoke_checks",
    "sustainable_rate_hz",
    "synthesize_arrivals",
]
