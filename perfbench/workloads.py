"""The three benchmark workloads, driven through the program's public API.

Each workload is a fixed *episode*: ``setup`` builds everything the
timed calls need (workers, accelerators, inputs), then ``call`` runs a
fixed number of times, then ``finish`` checks the outputs and reads the
modelled-chip statistics.  Episodes are seeded and fixed-length, so two
episodes with the same seed produce bit-identical outputs, counters and
digests; the runner repeats episodes until its time is up.

- ``fleet_burst`` (open loop): one call is ``run_fleet_workload`` on
  the ``smoke_scenario(seed)`` trace, controlled, under
  ``smoke_chaos_plan``.  Only the ``TridentServer.run`` inside it is
  timed (its ``entry``); building the fleet and synthesizing the trace
  count as set-up.  Host time goes to the Python control plane
  (admission, batching, dispatch), not the optics.
- ``forward_768`` (closed loop, one caller): back-to-back
  ``forward_batch(record=True)`` + ``attest_batch`` on a 768-768-768
  integrity worker at B=256.  Numeric work, no event loop.
- ``train_small`` (closed loop, one caller): back-to-back
  ``InSituTrainer.train_step`` on a 64-48-10 chip built as ``repro
  train`` builds it (banks sized to the widest layer, program-verify on)
  at B=256.  Writes beside reads; small matrices, so per-call Python
  overhead is a large share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

#: Batch size of the two closed-loop workloads.
BATCH = 256


@dataclass
class EpisodeResult:
    """What ``finish`` reports for one episode."""

    #: Workload figures of merit that do not depend on host time.
    sim: dict[str, float]
    #: Text printed beside a metric, e.g. the sample behind a p99.
    notes: dict[str, str]
    #: Per-layer counts read from the program's objects (deterministic).
    layer: dict[str, float]
    #: Printed, not gated: lets a speed-only change show bit-identity.
    digest: str
    #: (label, passed) correctness checks.
    checks: list[tuple[str, bool]]
    #: Samples the timed calls settled.
    samples: int
    #: Per-layer host-time values read from the program's objects.
    host_layer: dict[str, float] = field(default_factory=dict)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


class Workload:
    """One episode: ``setup``, then ``call`` x ``calls_per_episode``, ``finish``.

    ``call`` is timed and returns False when the call's output is wrong;
    ``after_call`` runs untimed after each call (digests, bookkeeping).
    """

    name: str
    calls_per_episode: int

    def entry(self) -> tuple[object, str] | None:
        """The method inside ``call`` that alone is timed, as (class, name).

        None times the whole ``call``; otherwise the rest of ``call``
        counts as set-up.
        """
        return None

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def call(self, state: dict, index: int) -> bool:
        raise NotImplementedError

    def after_call(self, state: dict, index: int) -> None:
        pass

    def finish(self, state: dict, call_s: list[float]) -> EpisodeResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# fleet_burst
# ----------------------------------------------------------------------
class FleetBurst(Workload):
    """Serve the controlled smoke trace with its breaker-storm volley."""

    name = "fleet_burst"
    calls_per_episode = 1

    def entry(self):
        from repro.serving.server import TridentServer

        return TridentServer, "run"

    def setup(self, seed: int):
        from repro.fleet import smoke_chaos_plan, smoke_scenario

        scenario = smoke_scenario(seed)
        return {"scenario": scenario, "plan": smoke_chaos_plan(scenario)}

    def call(self, state, index: int) -> bool:
        from repro.fleet import run_fleet_workload

        state["result"] = run_fleet_workload(
            state["scenario"], controlled=True, chaos_plan=state["plan"]
        )
        return True

    def finish(self, state, call_s: list[float]) -> EpisodeResult:
        from repro.fleet import fleet_digest
        from repro.serving.request import ShedReason

        result = state["result"]
        report = result.report
        controller = result.controller
        submitted = report.submitted
        slo = report.slo_latency_s
        met = sum(
            1 for c in report.completed if c.deadline_met and c.latency_s <= slo
        )
        counts = result.pool.counts()
        run_s = sum(call_s)
        shed = report.shed_by_reason()
        dispatches = [d["batch"] for d in report.decisions if d["kind"] == "dispatch"]
        layer = {
            "serving.server.events": len(report.decisions),
            "serving.server.retries": report.retries_scheduled,
            "serving.batcher.batch_size_mean": float(np.mean(dispatches)),
            "fleet.controller.ticks": controller.ticks,
        }
        for reason in ShedReason:
            layer[f"serving.server.shed.{reason.value}"] = shed.get(reason.value, 0)
        return EpisodeResult(
            sim={
                "slo_attainment": met / submitted,
                "sim_p99_latency_us": report.latency_quantile_s(0.99) * 1e6,
                "failed_fraction": len(report.shed) / submitted,
            },
            notes={
                "sim_p99_latency_us": f"over {len(report.completed)} completed",
                "failed_fraction": f"{len(report.shed)} shed of {submitted}",
                "slo_attainment": f"{met} of {submitted} submitted",
            },
            layer=layer,
            host_layer={
                "serving.server.host_us_per_event": run_s / len(report.decisions) * 1e6,
                "fleet.controller.wall_s": controller.wall_s,
                "fleet.controller.provision_wall_s": controller.provision_wall_s,
                "fleet.controller.loop_share": controller.wall_s / run_s,
            },
            digest=fleet_digest(result),
            checks=[
                ("request conservation", report.conservation_ok()),
                (
                    "every completed output finite",
                    all(_finite(c.output) for c in report.completed),
                ),
                ("controller stopped", controller.stopped),
                (
                    "no worker left warming or draining",
                    counts["warming"] == 0 and counts["draining"] == 0,
                ),
            ],
            samples=len(report.completed) + len(report.shed),
        )


# ----------------------------------------------------------------------
# Shared accelerator bookkeeping for the closed-loop workloads
# ----------------------------------------------------------------------
def _chip_snapshot(acc) -> dict:
    return {
        "energy_j": acc.energy_estimate_j(),
        "time_s": acc.time_estimate_s(),
        "counters": acc.counters.snapshot(),
    }


def _chip_deltas(acc, before: dict, samples: int) -> tuple[dict, dict]:
    after = _chip_snapshot(acc)
    sim = {
        "sim_energy_uj_per_sample": (after["energy_j"] - before["energy_j"])
        / samples
        * 1e6,
        "sim_time_us_per_sample": (after["time_s"] - before["time_s"])
        / samples
        * 1e6,
    }
    return sim, after["counters"].diff(before["counters"]).as_dict()


# ----------------------------------------------------------------------
# forward_768
# ----------------------------------------------------------------------
class Forward768(Workload):
    """Recorded batched forward + ABFT attestation at 768x768x768."""

    name = "forward_768"
    dims = (768, 768, 768)
    calls_per_episode = 48
    #: Distinct seeded input batches, cycled over the calls.
    n_inputs = 4

    def setup(self, seed: int):
        from repro.integrity.workload import build_integrity_worker

        worker = build_integrity_worker(0, self.dims, seed)
        rng = np.random.default_rng((seed, 0x768))
        inputs = [
            rng.uniform(-1.0, 1.0, (BATCH, self.dims[0]))
            for _ in range(self.n_inputs)
        ]
        acc = worker.acc
        return {
            "worker": worker,
            "inputs": inputs,
            "hash": hashlib.sha256(),
            "first": None,
            "tripped0": worker.integrity.counters.tripped,
            "chip0": _chip_snapshot(acc),
        }

    def call(self, state, index: int) -> bool:
        from repro.errors import IntegrityFault
        from repro.integrity.checker import attest_batch

        worker = state["worker"]
        checker = worker.integrity
        xs = state["inputs"][index % self.n_inputs]
        tripped = checker.counters.tripped
        try:
            out = worker.acc.forward_batch(xs, record=True)
            out = attest_batch(checker, xs, out, worker_id=0, now_s=0.0)
        except IntegrityFault:
            return False
        state["last"] = out
        return _finite(out) and checker.counters.tripped == tripped

    def after_call(self, state, index: int) -> None:
        out = state.pop("last", None)
        if out is None:
            return
        state["hash"].update(np.ascontiguousarray(out).tobytes())
        if state["first"] is None:
            state["first"] = (state["inputs"][index % self.n_inputs], out)

    def finish(self, state, call_s: list[float]) -> EpisodeResult:
        from repro.nn.reference import gst_activation

        worker = state["worker"]
        acc = worker.acc
        counters = worker.integrity.counters
        calls = len(call_s)
        samples = calls * BATCH
        sim, events = _chip_deltas(acc, state["chip0"], samples)
        # Attestation streams every sample through each layer's checksum
        # tiles too, charged like data tiles.
        tiles = sum(len(layer.tiles) for layer in acc.layers) + sum(
            len(t) for t in worker.integrity.unit.tiles
        )
        rel_err = float("nan")
        if state["first"] is not None:
            xs, out = state["first"]
            ref = xs
            for layer in acc.layers:
                ref = ref @ layer.weights.T
                if layer.apply_activation:
                    ref = gst_activation(ref)
            rel_err = float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        sim["output_rel_err"] = rel_err
        return EpisodeResult(
            sim=sim,
            notes={},
            layer={
                "integrity.tripped": counters.tripped - state["tripped0"],
                "arch.counters.symbols": events["symbols"],
                "arch.counters.activation_events": events["activation_events"],
            },
            digest=state["hash"].hexdigest(),
            checks=[
                ("ABFT counters conserved", counters.conserved()),
                ("zero ABFT trips", counters.tripped == state["tripped0"]),
                (
                    "symbols == B x (data + checksum tiles) x calls",
                    events["symbols"] == BATCH * tiles * calls,
                ),
                ("output error finite", np.isfinite(rel_err)),
            ],
            samples=samples,
        )


# ----------------------------------------------------------------------
# train_small
# ----------------------------------------------------------------------
class TrainSmall(Workload):
    """In-situ SGD steps on a 64-48-10 chip with program-verify writes."""

    name = "train_small"
    dims = (64, 48, 10)
    calls_per_episode = 32
    n_samples = 2048
    lr = 0.05

    def setup(self, seed: int):
        from repro.arch import TridentAccelerator, TridentConfig
        from repro.devices.program_verify import ProgramVerifyConfig
        from repro.nn.datasets import make_blobs, standardize
        from repro.training.insitu import InSituTrainer

        dims = list(self.dims)
        rows = max(max(dims), 2)
        acc = TridentAccelerator(
            config=TridentConfig(
                bank_rows=rows, bank_cols=rows, spare_rows=2, convergence_floor=0.0
            ),
            seed=seed,
            program_verify=ProgramVerifyConfig(),
        )
        acc.map_mlp(dims)
        rng = np.random.default_rng(seed + 1)
        acc.set_weights(
            [
                rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
                for i in range(len(dims) - 1)
            ]
        )
        raw = make_blobs(
            n_samples=self.n_samples,
            n_features=dims[0],
            n_classes=dims[-1],
            seed=seed + 2,
        )
        x = np.clip(standardize(raw.x) / 3, -1, 1)
        order = np.random.default_rng(seed + 3).permutation(self.n_samples)
        batches = [
            (x[idx], raw.y[idx])
            for idx in np.split(order, self.n_samples // BATCH)
        ]
        return {
            "trainer": InSituTrainer(acc, lr=self.lr),
            "batches": batches,
            "losses": [],
            "chip0": _chip_snapshot(acc),
        }

    def call(self, state, index: int) -> bool:
        xs, ys = state["batches"][index % len(state["batches"])]
        loss = state["trainer"].train_step(xs, ys)
        state["losses"].append(loss)
        return bool(np.isfinite(loss))

    def finish(self, state, call_s: list[float]) -> EpisodeResult:
        losses = np.asarray(state["losses"], dtype=np.float64)
        acc = state["trainer"].acc
        samples = len(call_s) * BATCH
        sim, events = _chip_deltas(acc, state["chip0"], samples)
        sim["final_loss"] = float(losses[-1]) if losses.size else float("nan")
        return EpisodeResult(
            sim=sim,
            notes={"final_loss": f"after {losses.size} steps, first {losses[0]:.4f}"
                   if losses.size else ""},
            layer={
                "arch.counters.bank_writes": events["bank_writes"],
                "arch.counters.cells_written": events["cells_written"],
            },
            digest=hashlib.sha256(losses.tobytes()).hexdigest(),
            checks=[
                ("every loss finite", losses.size > 0 and _finite(losses)),
                ("last loss below the first", losses.size > 1 and losses[-1] < losses[0]),
            ],
            samples=samples,
        )


WORKLOADS = {w.name: w for w in (FleetBurst(), Forward768(), TrainSmall())}
