"""What the benchmark measures beyond its declaration in ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root declares the workloads, the
end-to-end metrics (reported by every workload) and the per-layer
metrics (reported by every traced run) with their units and bounds;
:func:`declared` reads it.  This file holds only what that document
cannot: the seeds, the units of the workload-specific figures printed
beside the declared set, the per-layer ratio formulas and the table of
layer methods a traced run wraps.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The seed results are quoted at, and the held-out seed a later gain
#: claim must also hold on.  ``--seed`` accepts any integer.
DEFAULT_SEED = 11
HELD_OUT_SEED = 29
#: Span dumps and nothing else; ignored by git.
OUT_DIR = "perfbench/out"
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared() -> dict:
    """The ``BENCHMARK.json`` document."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


#: Units of the workload-specific figures printed beside the declared set.
REPORTED_UNITS = {
    "sim_req_per_s": "req/s",
    "call_ms_tail": "ms",
    "failed_fraction": "fraction",
    "slo_attainment": "fraction",
    "sim_p99_latency_us": "us",
    "sim_energy_uj_per_sample": "uJ",
    "sim_time_us_per_sample": "us",
    "output_rel_err": "ratio",
    "final_loss": "nats",
}

#: Per-layer ratios: name -> (numerator, denominator), per episode.
RATIOS = {
    "serving.queue.drop_hopeless.useful_ratio": (
        "serving.queue.drop_hopeless.dropped", "serving.queue.drop_hopeless.scanned",
    ),
    "serving.queue.depth_mean": (
        "serving.queue.drop_hopeless.scanned", "serving.queue.drop_hopeless.calls",
    ),
    "serving.batcher.should_dispatch.dispatch_ratio": (
        "serving.batcher.should_dispatch.true", "serving.batcher.should_dispatch.calls",
    ),
    "devices.program_verify.write.convergence_rate": (
        "devices.program_verify.write.converged", "devices.program_verify.write.cells",
    ),
    # attest_batch against the recorded forward it attests, as the
    # integrity overhead bench gates it
    "integrity.attest_batch.share": (
        "integrity.attest_batch.wall_s", "arch.accelerator.forward_batch.wall_s",
    ),
}


def instrument(recorder) -> None:
    """Wrap each layer's public methods (undone by ``recorder.restore``).

    A layer's ``calls`` and ``self_s`` metrics come from the span name
    given here; set-up layers report ``wall_s``.
    """
    import repro.fleet.workload as fleet_workload
    import repro.integrity.checker as checker
    from repro.arch.accelerator import TridentAccelerator
    from repro.arch.control import RangeNormalizer
    from repro.arch.pe import ProcessingElement
    from repro.arch.weight_bank import WeightBank
    from repro.devices.activation_cell import GSTActivationCell
    from repro.devices.photodetector import BalancedPhotodetector
    from repro.devices.program_verify import ProgramVerifyWriter
    from repro.errors import WorkerFault
    from repro.fleet.pool import WorkerPool
    from repro.integrity.abft import ChecksumUnit
    from repro.serving.batcher import MicroBatcher
    from repro.serving.queue import AdmissionQueue
    from repro.serving.server import TridentServer
    from repro.serving.worker import AcceleratorWorker
    from repro.telemetry.rollup import ServingRollup
    from repro.training.insitu import InSituTrainer

    def hopeless(args, kwargs, dropped, rec):
        depth = len(args[0]) + len(dropped)
        rec.count("serving.queue.drop_hopeless.scanned", depth)
        rec.count("serving.queue.drop_hopeless.dropped", len(dropped))
        rec.peak("serving.queue.depth_max", depth)

    def dispatch(args, kwargs, decision, rec):
        rec.count("serving.batcher.should_dispatch.true", bool(decision))

    def matmat(args, kwargs, out, rec):
        cols, batch = args[1].shape
        rows = out.shape[0]
        rec.count("arch.weight_bank.matmat.flops", 2 * rows * cols * batch)
        rec.count("arch.weight_bank.matmat.bytes", 8 * (rows * cols + (rows + cols) * batch))

    def verify(args, kwargs, result, rec):
        rec.count("devices.program_verify.write.pulses", result.total_pulses)
        rec.count("devices.program_verify.write.cells", result.converged.size)
        rec.count("devices.program_verify.write.converged", int(result.converged.sum()))

    wrap = recorder.wrap
    wrap(TridentServer, "run", "serving.server.run")
    wrap(AdmissionQueue, "offer", "serving.queue.offer")
    wrap(AdmissionQueue, "drop_hopeless", "serving.queue.drop_hopeless", after=hopeless)
    wrap(AdmissionQueue, "pop_batch", "serving.queue.pop_batch")
    wrap(MicroBatcher, "should_dispatch", "serving.batcher.should_dispatch", after=dispatch)
    wrap(AcceleratorWorker, "service_time_s", "serving.worker.service_time_s")
    wrap(AcceleratorWorker, "execute", "serving.worker.execute", raises=WorkerFault)
    wrap(ServingRollup, "record_completion", "telemetry.rollup.record_completion")
    wrap(ServingRollup, "record_queue_depth", "telemetry.rollup.record_queue_depth")
    wrap(fleet_workload, "synthesize_trace", "fleet.trace.synthesize_trace")
    wrap(WorkerPool, "bootstrap", "fleet.pool.bootstrap")
    wrap(WorkerPool, "commission", "fleet.pool.commission")
    wrap(WorkerPool, "try_decommission", "fleet.pool.try_decommission")
    wrap(TridentAccelerator, "forward_batch", "arch.accelerator.forward_batch")
    wrap(TridentAccelerator, "set_weights", "arch.accelerator.set_weights")
    wrap(RangeNormalizer, "normalize_columns", "arch.control.normalize_columns")
    wrap(ProcessingElement, "forward_batch", "arch.pe.forward_batch")
    wrap(ProcessingElement, "outer_product_batch", "arch.pe.outer_product_batch")
    wrap(WeightBank, "matmat", "arch.weight_bank.matmat", after=matmat)
    wrap(WeightBank, "program_verified", "arch.weight_bank.program_verified")
    wrap(BalancedPhotodetector, "detect_normalized", "devices.photodetector.detect_normalized")
    wrap(GSTActivationCell, "fire", "devices.activation_cell.fire")
    wrap(ProgramVerifyWriter, "write", "devices.program_verify.write", after=verify)
    wrap(ChecksumUnit, "calibrate", "integrity.calibrate")
    # the benchmark's own call; workers bound their attestation at import
    wrap(checker, "attest_batch", "integrity.attest_batch")
    wrap(InSituTrainer, "train_step", "training.insitu.train_step")
    wrap(InSituTrainer, "backward_batch", "training.insitu.backward_batch")
