"""Tests for repro.telemetry: tracer, metrics, events, session, logging.

The load-bearing guarantees under test:

- spans nest correctly and carry hardware-event deltas;
- Chrome-trace and Prometheus exports are structurally valid (the same
  validators the CI smoke gate runs);
- disabled telemetry is the shared no-op fast path;
- enabling telemetry perturbs **nothing**: outputs, weights, and event
  counters are bit-identical with the session on or off, and the PR 3
  crash-resume bit-identity guarantee holds with tracing enabled.
"""

import json
import logging
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.arch import Profiler, TridentAccelerator, TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import ConfigError
from repro.faults import FaultManager, RepairConfig
from repro.nn.datasets import make_blobs, to_analog_range
from repro.runtime import ResilienceConfig, ResilientTrainer
from repro.telemetry.metrics import NULL_INSTRUMENT
from repro.telemetry.session import NULL_METRICS
from repro.telemetry.tracer import NULL_SPAN
from repro.training.insitu import InSituTrainer


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()
    telemetry.reset_cli_logging()


def small_accelerator(seed=0, dims=(6, 8, 3), spare_rows=0, verify=False):
    rows = max(dims)
    acc = TridentAccelerator(
        config=TridentConfig(
            bank_rows=rows,
            bank_cols=rows,
            spare_rows=spare_rows,
            convergence_floor=0.0,
        ),
        seed=seed,
        program_verify=ProgramVerifyConfig() if verify else None,
    )
    acc.map_mlp(list(dims))
    rng = np.random.default_rng(seed + 1)
    acc.set_weights(
        [
            rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
            for i in range(len(dims) - 1)
        ]
    )
    return acc


# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_records_name_and_duration(self):
        tracer = telemetry.Tracer()
        with tracer.span("work", key="value"):
            pass
        (record,) = tracer.records
        assert record.name == "work"
        assert record.attrs == {"key": "value"}
        assert record.duration_s >= 0.0
        assert record.parent_id is None

    def test_nesting_sets_parent(self):
        tracer = telemetry.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id

    def test_span_ids_are_sequential_not_clock_derived(self):
        tracer = telemetry.Tracer()
        for _ in range(3):
            with tracer.span("s"):
                pass
        assert [r.span_id for r in tracer.records] == [1, 2, 3]

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            telemetry.Tracer().span("")

    def test_exception_recorded_and_propagated(self):
        tracer = telemetry.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (record,) = tracer.records
        assert record.attrs["error"] == "ValueError"

    def test_accelerator_span_carries_counter_deltas(self):
        acc = small_accelerator()
        tracer = telemetry.Tracer()
        xs = np.zeros((4, 6))
        with tracer.span("fwd", accelerator=acc):
            acc.forward_batch(xs)
        (record,) = tracer.records
        assert record.counters["symbols"] > 0
        assert record.counters["bank_writes"] == 0

    def test_detail_span_exposes_per_pe_delta(self):
        acc = small_accelerator()
        tracer = telemetry.Tracer()
        with tracer.span("fwd", accelerator=acc, detail=True) as span:
            acc.forward_batch(np.zeros((2, 6)))
        assert set(span.hardware.per_pe) == set(range(len(acc.pes)))
        assert sum(s.symbols for s in span.hardware.per_pe.values()) > 0

    def test_thread_spans_keep_independent_stacks(self):
        tracer = telemetry.Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("thread_root"):
                done.wait(5)

        t = threading.Thread(target=worker)
        with tracer.span("main_root"):
            t.start()
            done.set()
            t.join()
        roots = [r for r in tracer.records if r.parent_id is None]
        assert {r.name for r in roots} == {"thread_root", "main_root"}
        assert len({r.thread for r in tracer.records}) == 2

    def test_clear_drops_records(self):
        tracer = telemetry.Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.records == ()

    def test_coverage_full_when_children_tile_the_root(self):
        import time

        tracer = telemetry.Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                time.sleep(0.02)
            with tracer.span("b"):
                time.sleep(0.02)
        assert tracer.coverage() > 0.5
        assert tracer.coverage() <= 1.0

    def test_coverage_vacuous_without_roots(self):
        assert telemetry.Tracer().coverage() == 1.0

    def test_chrome_trace_is_schema_valid(self):
        tracer = telemetry.Tracer()
        acc = small_accelerator()
        with tracer.span("root"):
            with tracer.span("fwd", accelerator=acc, batch=2):
                acc.forward_batch(np.zeros((2, 6)))
        doc = tracer.to_chrome_trace()
        assert telemetry.validate_chrome_trace(doc) == []
        assert doc["traceEvents"][0]["cat"] == "repro"
        # Round-trips through JSON.
        assert telemetry.validate_chrome_trace(json.loads(json.dumps(doc))) == []

    def test_jsonl_lines_parse(self):
        tracer = telemetry.Tracer()
        with tracer.span("s", layer=3):
            pass
        (line,) = tracer.to_jsonl_lines()
        doc = json.loads(line)
        assert doc["name"] == "s"
        assert doc["attrs"] == {"layer": 3}

    def test_write_exports(self, tmp_path):
        tracer = telemetry.Tracer()
        with tracer.span("s"):
            pass
        trace = tracer.write_chrome_trace(tmp_path / "t.trace.json")
        jsonl = tracer.write_jsonl(tmp_path / "t.jsonl")
        assert json.loads(trace.read_text())["traceEvents"]
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "s"


class TestChromeTraceValidator:
    def test_flags_malformed_documents(self):
        assert telemetry.validate_chrome_trace([]) != []
        assert telemetry.validate_chrome_trace({}) != []
        bad_event = {"traceEvents": [{"name": "", "ph": "Z"}]}
        problems = telemetry.validate_chrome_trace(bad_event)
        assert any("name" in p for p in problems)
        assert any("phase" in p for p in problems)

    def test_negative_timestamps_flagged(self):
        doc = {
            "traceEvents": [
                {"name": "x", "ph": "X", "ts": -1.0, "dur": 1.0,
                 "pid": 0, "tid": 0, "args": {}}
            ]
        }
        assert any("ts" in p for p in telemetry.validate_chrome_trace(doc))


# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        reg = telemetry.MetricsRegistry()
        c = reg.counter("repro_things_total", "things")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_gauge_inc_adjusts_both_ways(self):
        gauge = telemetry.MetricsRegistry().gauge("repro_level")
        gauge.set(1.0)
        gauge.inc()
        gauge.inc(-0.5)
        assert gauge.value == 1.5

    def test_get_or_create_returns_same_instrument(self):
        reg = telemetry.MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.counter("a_total", tier="x") is not reg.counter("a_total")

    def test_kind_conflict_rejected(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ConfigError):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = telemetry.MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("0bad")
        with pytest.raises(ConfigError):
            reg.counter("ok_total", **{"bad-label": "x"})

    def test_histogram_buckets_cumulative_in_export(self):
        reg = telemetry.MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        text = reg.to_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="10"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text

    def test_histogram_bounds_must_increase(self):
        reg = telemetry.MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.histogram("h", buckets=(1.0, 1.0))

    def test_prometheus_round_trip(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("repro_repairs_total", "repairs", tier="spare").inc(3)
        reg.gauge("repro_progress_ratio").set(0.5)
        samples = telemetry.parse_prometheus_text(reg.to_prometheus())
        assert samples['repro_repairs_total{tier="spare"}'] == 3
        assert samples["repro_progress_ratio"] == 0.5

    def test_parse_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            telemetry.parse_prometheus_text("not a sample line !!!")

    def test_json_export_shape(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("a_total").inc()
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        doc = reg.to_json()
        kinds = {m["name"]: m["kind"] for m in doc["metrics"]}
        assert kinds == {"a_total": "counter", "h_seconds": "histogram"}

    def test_label_values_escaped(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("a_total", label='x"y\\z').inc()
        text = reg.to_prometheus()
        assert '\\"' in text and "\\\\" in text
        telemetry.parse_prometheus_text(text)  # still parseable


# ---------------------------------------------------------------------------
class TestEvents:
    def test_events_are_sequenced(self):
        log = telemetry.EventLog()
        log.emit("repair", tier="spare")
        log.emit("rollback", step=7)
        seqs = [e.seq for e in log.records]
        assert seqs == [1, 2]
        assert log.of_kind("rollback")[0].fields["step"] == 7

    def test_jsonl_export(self, tmp_path):
        log = telemetry.EventLog()
        log.emit("degradation", layer=0, tile=1)
        path = log.write_jsonl(tmp_path / "events.jsonl")
        doc = json.loads(path.read_text().splitlines()[0])
        assert doc["kind"] == "degradation"
        assert doc["layer"] == 0 and doc["tile"] == 1


# ---------------------------------------------------------------------------
class TestSession:
    def test_disabled_hooks_return_shared_noops(self):
        assert telemetry.trace_span("anything") is NULL_SPAN
        assert telemetry.counter("c_total") is NULL_INSTRUMENT
        assert telemetry.gauge("g") is NULL_INSTRUMENT
        assert telemetry.histogram("h") is NULL_INSTRUMENT
        assert telemetry.emit_event("kind") is None
        assert NULL_METRICS.counter("x") is NULL_INSTRUMENT

    def test_null_sinks_discard_everything(self):
        from repro.telemetry.session import NULL_EVENTS, NULL_TRACER

        assert NULL_METRICS.gauge("g") is NULL_INSTRUMENT
        assert NULL_METRICS.histogram("h") is NULL_INSTRUMENT
        assert NULL_EVENTS.emit("kind", a=1) is None
        assert NULL_EVENTS.records == ()
        with NULL_TRACER.span("s", detail=True) as span:
            assert span is not None
        assert NULL_TRACER.span("s") is NULL_SPAN
        assert NULL_TRACER.records == ()
        assert NULL_TRACER.coverage() == 1.0

    def test_session_scopes_enablement(self):
        assert not telemetry.enabled()
        with telemetry.session() as t:
            assert telemetry.enabled()
            assert telemetry.active() is t
            with telemetry.trace_span("s"):
                pass
        assert not telemetry.enabled()
        assert [r.name for r in t.tracer.records] == ["s"]

    def test_well_known_counters_pre_registered(self):
        with telemetry.session() as t:
            text = t.metrics.to_prometheus()
        for name, _ in telemetry.WELL_KNOWN_COUNTERS:
            assert name in text
        for tier in telemetry.REPAIR_TIERS:
            assert f'repro_repairs_total{{tier="{tier}"}} 0' in text

    def test_forward_batch_feeds_session(self):
        acc = small_accelerator()
        with telemetry.session() as t:
            acc.forward_batch(np.zeros((4, 6)))
        names = [r.name for r in t.tracer.records]
        assert "forward_batch" in names
        assert "layer" in names
        samples = telemetry.parse_prometheus_text(t.metrics.to_prometheus())
        assert samples["repro_forward_batches_total"] == 1
        assert samples["repro_forward_samples_total"] == 4

    def test_per_sample_forward_is_a_batch_of_one(self):
        acc = small_accelerator()
        with telemetry.session() as t:
            acc.forward(np.zeros(6))
        spans = [r for r in t.tracer.records if r.name == "forward_batch"]
        assert [span.attrs["batch"] for span in spans] == [1]
        samples = telemetry.parse_prometheus_text(t.metrics.to_prometheus())
        assert samples["repro_forward_batches_total"] == 1
        assert samples["repro_forward_samples_total"] == 1

    def test_train_step_feeds_session(self):
        acc = small_accelerator()
        trainer = InSituTrainer(acc, lr=0.05)
        xs = np.zeros((4, 6))
        ys = np.zeros(4, dtype=int)
        with telemetry.session() as t:
            trainer.train_step(xs, ys)
        names = [r.name for r in t.tracer.records]
        for expected in ("train_step", "backward_batch", "weight_update"):
            assert expected in names
        samples = telemetry.parse_prometheus_text(t.metrics.to_prometheus())
        assert samples["repro_train_steps_total"] == 1
        assert samples["repro_train_loss_count"] == 1


# ---------------------------------------------------------------------------
class TestScheduleSimTrace:
    def test_modeled_timeline_is_schema_valid(self):
        from repro.dataflow.schedule_sim import simulate_model
        from repro.nn.graph import Network
        from repro.nn.layers import Conv2D, Dense, TensorShape

        net = Network("tiny", TensorShape(8, 8, 3))
        net.add(Conv2D("c1", 4, kernel=3))
        net.add(Dense("fc", 10, fused_activation=False))
        sim = simulate_model(net, keep_events=True)
        doc = sim.to_chrome_trace()
        assert telemetry.validate_chrome_trace(doc) == []
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert any(n.startswith("write c1/") for n in names)
        assert any(n.startswith("stream fc/") for n in names)
        # Every tile contributes a write slice and a stream slice.
        n_tiles = sum(layer.n_tiles for layer in sim.layers)
        assert len(doc["traceEvents"]) == 2 * n_tiles

    def test_layers_laid_out_sequentially(self):
        from repro.dataflow.schedule_sim import simulate_model
        from repro.nn.graph import Network
        from repro.nn.layers import Dense, TensorShape

        net = Network("two", TensorShape(1, 1, 32))
        net.add(Dense("a", 24, fused_activation=False))
        net.add(Dense("b", 8, fused_activation=False))
        sim = simulate_model(net, keep_events=True)
        events = sim.to_chrome_trace()["traceEvents"]
        end_of_a = max(
            ev["ts"] + ev["dur"] for ev in events if "a/" in ev["name"]
        )
        start_of_b = min(ev["ts"] for ev in events if "b/" in ev["name"])
        assert start_of_b >= sim.layers[0].makespan_s * 1e6 - 1e-6
        assert start_of_b >= end_of_a - 1e-6


class TestProfilerOnTracer:
    def test_profiler_spans_land_in_active_session(self):
        acc = small_accelerator()
        with telemetry.session() as t:
            with Profiler(acc) as prof:
                acc.forward_batch(np.zeros((2, 6)))
        names = [r.name for r in t.tracer.records]
        assert "profiled_region" in names
        assert prof.report.counters.symbols > 0

    def test_profiler_identical_with_and_without_session(self):
        def profile_once():
            acc = small_accelerator(seed=3)
            with Profiler(acc) as prof:
                acc.forward_batch(np.zeros((4, 6)))
            return prof.report

        # Wall time legitimately differs; everything event-derived must not.
        plain = profile_once()
        with telemetry.session():
            traced = profile_once()
        assert plain.counters.as_dict() == traced.counters.as_dict()
        assert plain.per_pe == traced.per_pe
        assert plain.per_layer == traced.per_layer


# ---------------------------------------------------------------------------
class TestLogging:
    def test_get_logger_prefixes(self):
        assert telemetry.get_logger("faults.repair").name == "repro.faults.repair"
        assert telemetry.get_logger("repro.x").name == "repro.x"

    def test_configure_levels(self):
        assert telemetry.configure_cli_logging(0) == logging.WARNING
        assert telemetry.configure_cli_logging(1) == logging.INFO
        assert telemetry.configure_cli_logging(2) == logging.DEBUG
        assert telemetry.configure_cli_logging(0, debug=True) == logging.DEBUG

    def test_configure_is_idempotent(self):
        telemetry.configure_cli_logging(1)
        telemetry.configure_cli_logging(1)
        root = logging.getLogger("repro")
        stream_handlers = [
            h for h in root.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ]
        assert len(stream_handlers) == 1

    def test_repair_ladder_logs(self, caplog):
        acc = small_accelerator(spare_rows=4, verify=True)
        acc.inject_stuck_faults(0.1, stuck_level=254)
        manager = FaultManager(acc, config=RepairConfig(policy="spare"))
        with caplog.at_level(logging.DEBUG, logger="repro.faults.repair"):
            manager.deploy([layer.weights.copy() for layer in acc.layers])
        assert any(
            "repair" in message for message in caplog.messages
        ), caplog.messages


# ---------------------------------------------------------------------------
def training_workload(with_faults=True):
    """Deterministic fault + training workload; returns its observables."""
    dims = (6, 8, 3)
    acc = small_accelerator(seed=11, dims=dims, spare_rows=4, verify=True)
    manager = None
    if with_faults:
        acc.inject_stuck_faults(0.05, stuck_level=254)
        manager = FaultManager(acc, config=RepairConfig(policy="spare"))
        manager.deploy([layer.weights.copy() for layer in acc.layers])
    trainer = InSituTrainer(acc, lr=0.05)
    raw = make_blobs(n_samples=48, n_features=6, n_classes=3, seed=5)
    data = to_analog_range(raw)
    losses = [
        float(trainer.train_step(data.x[i * 8 : (i + 1) * 8],
                                 data.y[i * 8 : (i + 1) * 8]))
        for i in range(4)
    ]
    outputs = acc.forward_batch(data.x)
    return {
        "losses": losses,
        "outputs": outputs,
        "weights": [layer.weights.copy() for layer in acc.layers],
        "counters": acc.counters.as_dict(),
        "repairs": None if manager is None else manager.log.as_dict(),
    }


class TestNonPerturbation:
    """Telemetry on vs off must be bit-identical — the core guarantee."""

    def test_workload_bit_identical_with_telemetry(self):
        baseline = training_workload()
        with telemetry.session() as t:
            traced = training_workload()
        assert traced["losses"] == baseline["losses"]
        assert np.array_equal(traced["outputs"], baseline["outputs"])
        for w_traced, w_base in zip(traced["weights"], baseline["weights"]):
            assert np.array_equal(w_traced, w_base)
        assert traced["counters"] == baseline["counters"]
        assert traced["repairs"] == baseline["repairs"]
        # ...and the session actually observed the run.
        assert len(t.tracer.records) > 0

    def test_crash_resume_bit_identical_with_tracing_on(self, tmp_path):
        """The PR 3 resume guarantee survives an enabled tracer."""

        def run(directory, telemetry_on, **kwargs):
            acc = small_accelerator(seed=21, spare_rows=2, verify=True)
            trainer = ResilientTrainer(
                InSituTrainer(acc, lr=0.05),
                directory,
                config=ResilienceConfig(checkpoint_every=2),
            )
            raw = make_blobs(n_samples=40, n_features=6, n_classes=3, seed=9)
            data = to_analog_range(raw)
            if telemetry_on:
                with telemetry.session():
                    report = trainer.run(
                        data, steps=8, batch_size=8, seed=13, **kwargs
                    )
            else:
                report = trainer.run(
                    data, steps=8, batch_size=8, seed=13, **kwargs
                )
            return report, [layer.weights.copy() for layer in acc.layers]

        baseline, base_weights = run(tmp_path / "plain", telemetry_on=False)
        crashed, _ = run(
            tmp_path / "traced", telemetry_on=True, max_steps_this_run=3
        )
        assert not crashed.completed
        resumed, resumed_weights = run(
            tmp_path / "traced", telemetry_on=True, resume=True
        )
        assert resumed.completed
        assert resumed.losses == baseline.losses
        for w_resumed, w_base in zip(resumed_weights, base_weights):
            assert np.array_equal(w_resumed, w_base)


# ---------------------------------------------------------------------------
class TestTimedGauges:
    def test_set_at_records_bounded_samples(self):
        from repro.telemetry.metrics import GAUGE_SAMPLE_LIMIT

        t = telemetry.enable()
        g = t.metrics.gauge("repro_test_gauge")
        for i in range(GAUGE_SAMPLE_LIMIT + 10):
            g.set_at(float(i), i * 1e-3)
        samples = g.samples()
        assert len(samples) == GAUGE_SAMPLE_LIMIT
        assert samples[-1] == ((GAUGE_SAMPLE_LIMIT + 9) * 1e-3,
                               float(GAUGE_SAMPLE_LIMIT + 9))
        assert g.value == float(GAUGE_SAMPLE_LIMIT + 9)

    def test_timed_samples_exported_in_json(self):
        t = telemetry.enable()
        t.metrics.gauge("repro_test_gauge").set_at(2.5, 1e-6)
        record = next(
            r for r in t.metrics.to_json()["metrics"]
            if r["name"] == "repro_test_gauge"
        )
        assert json.loads(json.dumps(record))["samples"] == [[1e-6, 2.5]]

    def test_null_instrument_accepts_set_at(self):
        NULL_INSTRUMENT.set_at(1.0, 0.0)  # must not raise


class TestMetricThreadSafety:
    """Satellite: instrument updates are exact under worker threads."""

    def test_concurrent_hammer_counts_exactly(self):
        t = telemetry.enable()
        counter = t.metrics.counter("repro_hammer_total")
        gauge = t.metrics.gauge("repro_hammer_gauge")
        hist = t.metrics.histogram(
            "repro_hammer_seconds", buckets=(0.25, 0.5, 1.0)
        )
        n_threads, n_iter = 8, 2000
        start = threading.Barrier(n_threads)

        def hammer(k):
            start.wait()
            for i in range(n_iter):
                counter.inc()
                gauge.set_at(float(i), i * 1e-9)
                hist.observe((i % 4) / 4.0)

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert counter.value == n_threads * n_iter
        buckets, total, count = hist.snapshot()
        assert count == n_threads * n_iter
        assert sum(buckets) == count  # every observation in exactly one bucket
        assert total == pytest.approx(n_threads * n_iter * (0 + 0.25 + 0.5 + 0.75) / 4)

    def test_concurrent_creation_returns_one_instrument(self):
        t = telemetry.enable()
        seen = []
        start = threading.Barrier(8)

        def create():
            start.wait()
            seen.append(t.metrics.counter("repro_create_total"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert all(instrument is seen[0] for instrument in seen)


# ---------------------------------------------------------------------------
class TestPowerStreaming:
    """Satellite: live power-trace samples stream as timed gauge updates."""

    def test_forward_batch_streams_power_samples(self):
        acc = small_accelerator()
        with telemetry.session() as t:
            acc.forward_batch(np.zeros((4, 6)))
            acc.forward_batch(np.zeros((4, 6)))
        gauge = t.metrics.gauge("repro_power_draw_w")
        samples = gauge.samples()
        assert len(samples) == 2
        times = [s[0] for s in samples]
        assert times == sorted(times) and times[0] > 0
        assert all(power > 0 for _, power in samples)

    def test_train_step_streams_power_samples(self):
        acc = small_accelerator(verify=True)
        trainer = InSituTrainer(acc, lr=0.05)
        x = np.zeros((4, 6))
        y = np.array([0, 1, 2, 0])
        with telemetry.session() as t:
            trainer.train_step(x, y)
        # At least the step-level sample (the inner forward emits its own).
        samples = t.metrics.gauge("repro_power_draw_w").samples()
        assert samples
        times = [s[0] for s in samples]
        assert times == sorted(times)
        assert all(power > 0 for _, power in samples)

    @staticmethod
    def modeled_trace(n_samples=64):
        from repro.dataflow import PhotonicArch, power_trace
        from repro.dataflow.schedule_sim import simulate_layer
        from repro.dataflow.tiling import TileSchedule
        from repro.nn.layers import GEMMShape

        arch = PhotonicArch.trident()
        sim = simulate_layer(
            "l", TileSchedule(GEMMShape(m=64, k=16, n=50), 16, 16), arch
        )
        return power_trace(sim, arch, n_samples=n_samples)

    def test_stream_power_trace_replays_samples(self):
        from repro.dataflow import stream_power_trace

        trace = self.modeled_trace()
        with telemetry.session() as t:
            emitted = stream_power_trace(trace, t_offset_s=1.0)
        assert emitted == trace.times_s.size
        samples = t.metrics.gauge("repro_power_draw_w").samples()
        assert len(samples) == min(emitted, 4096)
        assert samples[0][0] >= 1.0

    def test_streaming_disabled_is_free_and_unperturbing(self):
        from repro.dataflow import stream_power_trace

        trace = self.modeled_trace()
        assert stream_power_trace(trace) == 0  # no session: nothing emitted

        def outputs(seed):
            acc = small_accelerator(seed=seed)
            return acc.forward_batch(np.linspace(-1, 1, 24).reshape(4, 6))

        bare = outputs(5)
        with telemetry.session():
            instrumented = outputs(5)
        assert np.array_equal(bare, instrumented)


# ---------------------------------------------------------------------------
class TestOtlpExport:
    def session_doc(self):
        with telemetry.session() as t:
            with telemetry.trace_span("outer", phase="test"):
                with telemetry.trace_span("inner", depth=1):
                    pass
            t.metrics.counter("repro_otlp_total", "c").inc(3)
            t.metrics.gauge("repro_otlp_gauge", "g").set(2.5)
            h = t.metrics.histogram("repro_otlp_hist", "h", buckets=[1.0, 2.0])
            for v in (0.5, 1.5, 99.0):
                h.observe(v)
        return t

    def test_span_export_is_valid_and_linked(self):
        t = self.session_doc()
        doc = telemetry.spans_to_otlp(t.tracer.records, service_name="svc")
        assert telemetry.validate_otlp(doc) == []
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parentSpanId"] == by_name["outer"]["spanId"]
        assert all(s["traceId"] == spans[0]["traceId"] for s in spans)
        for span in spans:
            assert int(span["endTimeUnixNano"]) >= int(span["startTimeUnixNano"])

    def test_span_export_is_deterministic(self):
        t = self.session_doc()
        a = telemetry.spans_to_otlp(t.tracer.records)
        b = telemetry.spans_to_otlp(t.tracer.records)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_metrics_export_is_valid(self):
        t = self.session_doc()
        doc = telemetry.metrics_to_otlp(t.metrics, service_name="svc")
        assert telemetry.validate_otlp(doc) == []
        metrics = {
            m["name"]: m
            for m in doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        }
        counter = metrics["repro_otlp_total"]["sum"]
        assert counter["isMonotonic"]
        assert counter["dataPoints"][0]["asInt"] == "3"
        gauge = metrics["repro_otlp_gauge"]["gauge"]
        assert gauge["dataPoints"][0]["asDouble"] == 2.5
        hist = metrics["repro_otlp_hist"]["histogram"]["dataPoints"][0]
        assert hist["count"] == "3"
        # bucketCounts carries the +inf overflow bucket (the 99.0 sample).
        assert len(hist["bucketCounts"]) == len(hist["explicitBounds"]) + 1
        assert hist["bucketCounts"][-1] == "1"

    def test_combined_document_validates(self):
        t = self.session_doc()
        doc = {
            **telemetry.spans_to_otlp(t.tracer.records),
            **telemetry.metrics_to_otlp(t.metrics),
        }
        assert telemetry.validate_otlp(doc) == []

    def test_validator_rejects_malformed_documents(self):
        assert telemetry.validate_otlp([]) != []
        assert telemetry.validate_otlp({}) != []
        bad_span = {
            "resourceSpans": [
                {
                    "scopeSpans": [
                        {
                            "spans": [
                                {
                                    "name": "s",
                                    "traceId": "zz",
                                    "spanId": "0" * 16,
                                    "startTimeUnixNano": "20",
                                    "endTimeUnixNano": "10",
                                    "attributes": [{"key": 1}],
                                }
                            ]
                        }
                    ]
                }
            ]
        }
        problems = telemetry.validate_otlp(bad_span)
        assert any("traceId" in p for p in problems)
        assert any("ends before" in p for p in problems)
        assert any("attributes" in p for p in problems)
        bad_metric = {
            "resourceMetrics": [
                {
                    "scopeMetrics": [
                        {
                            "metrics": [
                                {"name": "two", "sum": {}, "gauge": {}},
                                {
                                    "name": "hist",
                                    "histogram": {
                                        "dataPoints": [
                                            {
                                                "bucketCounts": ["1"],
                                                "explicitBounds": [1.0, 2.0],
                                            }
                                        ]
                                    },
                                },
                            ]
                        }
                    ]
                }
            ]
        }
        problems = telemetry.validate_otlp(bad_metric)
        assert any("exactly one of" in p for p in problems)
        assert any("bucketCounts" in p for p in problems)
