"""Tests for the deterministic chaos subsystem and soak harness.

Covers the plan/session/injector/audit layers, the two regression
satellites (corrupt-checkpoint skip telemetry; monotonic breaker probe
scheduling under forced trips), the clock-jitter hook, and the soak
cell/matrix machinery including the sabotage self-audit.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.chaos import (
    ChaosPlan,
    ChaosProfile,
    Injection,
    compile_plan,
    flip_file_bit,
    make_server_action,
    tear_jsonl_tail,
)
from repro.chaos.session import (
    ChaosSession,
    corrupt_output,
    crash_check,
    enabled,
    session as chaos_scope,
)
from repro.chaos.soak import (
    SoakConfig,
    _run_serve,
    _serve_chaos_plan,
    _serve_workload_config,
    render_matrix,
    run_cell,
    run_self_audit,
    run_soak,
    validate_matrix,
)
from repro.errors import ChaosError, CheckpointError, ReproError
from repro.runtime.checkpoint import CheckpointStore, save_checkpoint
from repro.runtime.clock import VirtualClock
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.shard_workload import (
    ShardWorkloadConfig,
    plan_workload,
    run_shard_workload,
)
from repro.serving.workload import build_worker


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ChaosError):
            Injection(1.0, "meteor_strike")

    def test_rejects_negative_time(self):
        with pytest.raises(ChaosError):
            Injection(-1e-9, "worker_crash")

    def test_crash_phase_validated(self):
        with pytest.raises(ChaosError):
            Injection(0.0, "worker_crash", params={"phase": "mid_flight"})

    def test_injections_sorted_by_time(self):
        plan = ChaosPlan(
            seed=1,
            injections=(
                Injection(2.0, "breaker_storm"),
                Injection(1.0, "stuck_burst", target=0),
            ),
        )
        assert [inj.t_s for inj in plan.injections] == [1.0, 2.0]

    def test_round_trip_dict_and_json(self, tmp_path):
        plan = compile_plan(
            ChaosProfile(window_s=1e-4, workers=(0, 1), stages=(0,)), seed=9
        )
        assert ChaosPlan.from_dict(plan.as_dict()) == plan
        path = plan.to_json(tmp_path / "plan.json")
        assert ChaosPlan.from_json(path) == plan
        # The on-disk form is plain JSON, editable by hand.
        doc = json.loads(path.read_text())
        assert doc["seed"] == 9

    def test_compile_is_deterministic(self):
        profile = ChaosProfile(window_s=1e-3, workers=(0, 1, 2))
        assert compile_plan(profile, 5) == compile_plan(profile, 5)
        assert compile_plan(profile, 5) != compile_plan(profile, 6)

    def test_compile_honours_profile_counts(self):
        profile = ChaosProfile(
            window_s=1.0, workers=(0,), crashes=3, corruptions=2,
            stuck_bursts=1, drift_bursts=1, breaker_storms=2,
        )
        counts = compile_plan(profile, 0).counts()
        assert counts["worker_crash"] == 3
        assert counts["corrupt_output"] == 2
        assert counts["stuck_burst"] == 1
        assert counts["drift_burst"] == 1
        assert counts["breaker_storm"] == 2

    def test_per_injection_rngs_are_independent(self):
        plan = ChaosPlan(
            seed=3,
            injections=(
                Injection(0.0, "stuck_burst", 0),
                Injection(1.0, "breaker_storm"),
            ),
        )
        a = plan.rng_for(0).random(4)
        b = plan.rng_for(0).random(4)
        c = plan.rng_for(1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Session hook points
# ---------------------------------------------------------------------------
class TestChaosSession:
    def make(self, *injections, seed=0, jitter=0.0):
        return ChaosSession(
            ChaosPlan(seed=seed, injections=injections, clock_jitter_s=jitter)
        )

    def test_crash_consumed_exactly_once(self):
        s = self.make(
            Injection(1.0, "worker_crash", 0, {"phase": "dispatch"})
        )
        assert s.crash_check(0, "dispatch", 0.5) is None  # not due yet
        assert s.crash_check(1, "dispatch", 2.0) is None  # wrong worker
        assert s.crash_check(0, "drain", 2.0) is None     # wrong phase
        reason = s.crash_check(0, "dispatch", 2.0)
        assert reason is not None
        assert s.crash_check(0, "dispatch", 3.0) is None  # consumed
        assert s.applied_counts() == {"worker_crash": 1}

    def test_corrupt_output_poisons_copy_not_original(self):
        s = self.make(Injection(0.0, "corrupt_output", 0))
        outputs = np.ones((4, 3))
        poisoned = s.corrupt_output(0, 1.0, outputs)
        assert np.all(np.isfinite(outputs))
        assert np.isnan(poisoned).sum() >= 1
        # Consumed: the next batch passes through untouched.
        again = s.corrupt_output(0, 2.0, outputs)
        assert np.array_equal(again, outputs)

    def test_corrupt_output_defaults_to_nan_poison(self):
        # The historical default: pre-mode plans must replay unchanged.
        s = self.make(Injection(0.0, "corrupt_output", 0))
        poisoned = s.corrupt_output(0, 1.0, np.ones((4, 3)))
        assert s.applied[0]["mode"] == "nan"
        assert np.isnan(poisoned).sum() >= 1

    @pytest.mark.parametrize("mode", ["bias", "scale", "sign_flip"])
    def test_finite_modes_corrupt_but_pass_finite_gate(self, mode):
        s = self.make(
            Injection(0.0, "silent_corrupt", 0, {"mode": mode})
        )
        outputs = np.random.default_rng(4).uniform(0.5, 1.0, (6, 5))
        poisoned = s.corrupt_output(0, 1.0, outputs)
        # Silent: finite everywhere (sails through the NaN gate), yet
        # wrong — only the checksum attestation can see it.
        assert np.all(np.isfinite(poisoned))
        assert not np.array_equal(poisoned, outputs)
        assert np.all(np.isfinite(outputs))  # original untouched
        assert s.applied[0]["mode"] == mode
        assert s.applied[0]["poisoned"] == max(1, outputs.size // 8)

    def test_fortran_ordered_outputs_still_get_poisoned(self):
        # forward_batch hands back transpose views; a layout-preserving
        # copy would make reshape(-1) a copy and the poison a no-op.
        s = self.make(Injection(0.0, "silent_corrupt", 0, {"mode": "bias"}))
        outputs = np.asfortranarray(
            np.random.default_rng(5).uniform(0.5, 1.0, (6, 5))
        )
        poisoned = s.corrupt_output(0, 1.0, outputs)
        assert not np.array_equal(poisoned, outputs)

    def test_silent_corrupt_mode_validation(self):
        with pytest.raises(ChaosError, match="finite"):
            Injection(0.0, "silent_corrupt", 0, {"mode": "nan"})
        with pytest.raises(ChaosError, match="mode"):
            Injection(0.0, "silent_corrupt", 0, {"mode": "garbage"})
        with pytest.raises(ChaosError, match="magnitude"):
            Injection(0.0, "silent_corrupt", 0, {"magnitude": 0.0})

    def test_double_apply_raises(self):
        s = self.make(Injection(0.0, "breaker_storm"))
        s.mark_applied(0, at_s=0.0)
        with pytest.raises(ChaosError):
            s.mark_applied(0, at_s=1.0)

    def test_jitter_deterministic_and_bounded(self):
        a = self.make(jitter=1e-8)
        b = self.make(jitter=1e-8)
        xs = [a.jitter(float(i)) for i in range(16)]
        ys = [b.jitter(float(i)) for i in range(16)]
        assert xs == ys
        assert all(0.0 <= x <= 1e-8 for x in xs)

    def test_disabled_hooks_are_no_ops(self):
        assert not enabled()
        outputs = np.ones((2, 2))
        assert crash_check(0, "dispatch", 1e9) is None
        assert corrupt_output(0, 1e9, outputs) is outputs

    def test_scope_enables_and_disables(self):
        plan = ChaosPlan(seed=0)
        with chaos_scope(plan) as s:
            assert enabled()
            assert s.plan is plan
        assert not enabled()


# ---------------------------------------------------------------------------
# File injectors
# ---------------------------------------------------------------------------
class TestFileInjectors:
    def test_bit_flip_defeats_checkpoint_hash(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, {"step": 3, "w": np.ones(4)}, kind="training")
        flip_file_bit(path, np.random.default_rng(0))
        from repro.runtime.checkpoint import load_checkpoint

        with pytest.raises((CheckpointError, ReproError)):
            load_checkpoint(path, expect_kind="training")

    def test_tear_leaves_partial_final_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        lines = [json.dumps({"row": i}) for i in range(3)]
        path.write_text("\n".join(lines) + "\n")
        torn = tear_jsonl_tail(path, np.random.default_rng(1))
        assert torn > 0
        kept = path.read_text().splitlines()
        assert kept[0] == lines[0] and kept[1] == lines[1]
        assert kept[2] != lines[2]  # torn mid-record

    def test_tear_refuses_single_line_file(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"header": True}) + "\n")
        with pytest.raises(ChaosError):
            tear_jsonl_tail(path, np.random.default_rng(0))

    def test_sabotage_action_raises(self):
        session = ChaosSession(
            ChaosPlan(seed=0, injections=(Injection(0.0, "sabotage"),))
        )
        action = make_server_action(session, 0, session.plan.injections[0])

        class FakeServer:
            clock = VirtualClock()

        with pytest.raises(ChaosError):
            action(FakeServer())


# ---------------------------------------------------------------------------
# Clock jitter hook
# ---------------------------------------------------------------------------
class TestClockJitter:
    def test_jitter_delays_but_never_reorders(self):
        from repro.errors import ServingError

        clock = VirtualClock(jitter_fn=lambda t: 1e-9)
        clock.advance_to(1e-6)
        assert clock.now() == pytest.approx(1e-6 + 1e-9)
        before = clock.now()
        clock.advance_to(before)  # zero-width jump: no jitter applied
        assert clock.now() == before
        with pytest.raises(ServingError):
            clock.advance_to(0.0)  # rewinding stays forbidden

    def test_negative_jitter_clamped(self):
        clock = VirtualClock(jitter_fn=lambda t: -5.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0

    def test_set_jitter_after_construction(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.set_jitter(lambda t: 0.5)
        clock.advance_to(2.0)
        assert clock.now() == 2.5


# ---------------------------------------------------------------------------
# Satellite: monotonic probe scheduling under forced trips
# ---------------------------------------------------------------------------
class TestBreakerMonotonicProbe:
    def test_forced_trip_never_moves_probe_backward(self):
        breaker = CircuitBreaker(0, failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure(10.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.next_probe_s() == 15.0
        assert breaker.allow(15.0)  # OPEN -> HALF_OPEN probe
        assert breaker.state is BreakerState.HALF_OPEN
        # A chaos storm re-trips with a stale timestamp: the new probe
        # instant must not precede the one already scheduled.
        breaker.trip(8.0, "chaos_storm")
        assert breaker.state is BreakerState.OPEN
        assert breaker.next_probe_s() >= 15.0

    def test_fresh_trip_still_uses_current_time(self):
        breaker = CircuitBreaker(0, failure_threshold=1, cooldown_s=5.0)
        breaker.trip(100.0, "health")
        assert breaker.next_probe_s() == 105.0

    def test_later_retrip_moves_probe_forward(self):
        breaker = CircuitBreaker(0, failure_threshold=1, cooldown_s=5.0)
        breaker.trip(10.0, "health")
        breaker.allow(15.0)
        breaker.record_failure(16.0)  # probe failed at a later instant
        assert breaker.next_probe_s() == 21.0


# ---------------------------------------------------------------------------
# Satellite: corrupt-checkpoint skip is observable
# ---------------------------------------------------------------------------
class TestCheckpointCorruptSkipTelemetry:
    def test_skip_emits_event_and_counter(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"step": 1, "w": np.ones(2)})
        store.save(2, {"step": 2, "w": np.ones(2) * 2})
        flip_file_bit(store.path_for(2), np.random.default_rng(0))
        with telemetry.session() as t, pytest.warns(UserWarning):
            latest = store.latest()
        assert latest is not None and latest[0] == 1  # fell back
        events = t.events.of_kind("checkpoint_corrupt_skipped")
        assert len(events) == 1
        assert events[0].fields["step"] == 2
        assert str(store.path_for(2)) == events[0].fields["path"]
        text = t.metrics.to_prometheus()
        assert "repro_checkpoint_corrupt_skipped_total 1" in text

    def test_no_event_when_store_healthy(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"step": 1})
        with telemetry.session() as t:
            assert store.latest()[0] == 1
        assert not t.events.of_kind("checkpoint_corrupt_skipped")


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------
class TestAudit:
    def test_clean_chaos_run_passes_all_checks(self):
        outcome = _run_serve(0, True)
        assert outcome["ok"], outcome["failed"]
        assert outcome["applied"]  # chaos actually fired

    def test_tampered_decision_log_fails_atomicity(self):
        from repro.chaos import audit_serve_run

        report = _soak_serve_run(0, False).report
        dropped = [r for r in report.decisions if r["kind"] != "complete"]
        tampered = dataclasses.replace(report, decisions=dropped)
        result = audit_serve_run(tampered)
        assert any("atomic_batches" in f for f in result.failed())

    def test_replay_mismatch_detected(self):
        from repro.chaos import audit_serve_run

        report = _soak_serve_run(0, False).report
        other = _soak_serve_run(1, False).report
        result = audit_serve_run(report, replay=other)
        assert any("bit_identical_replay" in f for f in result.failed())


# ---------------------------------------------------------------------------
# Stuck bursts against fault domains: every worker kind, every stage bound
# ---------------------------------------------------------------------------
def _stuck_plan(**params):
    return ChaosPlan(
        seed=1,
        injections=(
            Injection(1e-6, "stuck_burst", 0, dict(fraction=0.02, **params)),
        ),
    )


class TestStuckBurstStages:
    CFG = ShardWorkloadConfig(n_requests=24)

    def _run(self, plan):
        return run_shard_workload(self.CFG, overlap=True, chaos_plan=plan)

    def _n_stages(self):
        return plan_workload(self.CFG).n_stages

    def test_stageless_burst_degrades_every_stage(self):
        result = self._run(_stuck_plan())
        assert result.report.conservation_ok()
        (applied,) = result.chaos_applied
        assert applied["stuck_cells"] > 0

    def test_last_stage_accepted(self):
        result = self._run(_stuck_plan(stage=self._n_stages() - 1))
        assert result.report.conservation_ok()
        assert len(result.chaos_applied) == 1

    @pytest.mark.parametrize("offset", [0, 5])
    def test_stage_past_the_end_rejected(self, offset):
        n = self._n_stages()
        with pytest.raises(ChaosError, match=f"worker 0 has {n} stage"):
            self._run(_stuck_plan(stage=n + offset))

    def test_negative_stage_rejected(self):
        with pytest.raises(ChaosError, match="worker 0 has"):
            self._run(_stuck_plan(stage=-1))

    @pytest.mark.parametrize("stage", [None, 0])
    def test_single_chip_is_one_stage(self, stage):
        worker = build_worker(0, (6, 4), 3)
        assert worker.degrade(0.1, stuck_level=254, stage=stage) > 0

    @pytest.mark.parametrize("stage", [-1, 1])
    def test_single_chip_rejects_other_stages(self, stage):
        worker = build_worker(0, (6, 4), 3)
        with pytest.raises(ChaosError, match="worker 0 has 1 stage"):
            worker.degrade(0.1, stage=stage)


# ---------------------------------------------------------------------------
# Satellite: seeded bit-identity, with and without chaos (hypothesis)
# ---------------------------------------------------------------------------
class TestChaosDeterminismProperties:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_same_seeds_same_bits_under_chaos(self, seed):
        a = _soak_serve_run(seed, True)
        b = _soak_serve_run(seed, True)
        assert a.report.digest() == b.report.digest()
        assert a.chaos_applied == b.chaos_applied

    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_empty_plan_session_matches_no_session(self, seed):
        """Chaos compiled in but not planned changes no output bit."""
        from repro.serving.workload import run_serve_workload

        config = dataclasses.replace(
            _small_workload_config(), seed=int(seed)
        )
        report_off = run_serve_workload(config).report
        with chaos_scope(ChaosPlan(seed=0)):
            report_on = run_serve_workload(config).report
        assert report_off.digest() == report_on.digest()


def _soak_serve_run(seed, chaos_enabled):
    """One run of the soak harness's serve cell."""
    from repro.serving.workload import run_serve_workload

    config = _serve_workload_config(seed)
    plan = _serve_chaos_plan(config) if chaos_enabled else None
    return run_serve_workload(config, chaos_plan=plan)


def _small_workload_config():
    from repro.serving.workload import Phase, WorkloadConfig

    return WorkloadConfig(
        phases=(Phase("warm", 40, 0.6), Phase("drain", 40, 0.4))
    )


# ---------------------------------------------------------------------------
# Soak harness
# ---------------------------------------------------------------------------
class TestSoak:
    def test_config_validation(self):
        with pytest.raises(ChaosError):
            SoakConfig(scenarios=("nope",))
        with pytest.raises(ChaosError):
            SoakConfig(repeats=0)
        with pytest.raises(ChaosError):
            SoakConfig(seeds=())

    def test_cell_passes_and_carries_injections(self):
        cell = run_cell("serve", 0, repeats=2, chaos_enabled=True)
        assert cell["ok"], cell["failed_checks"]
        assert cell["digest"]
        assert sum(cell["injections_applied"].values()) >= 1
        assert cell["telemetry"] is None  # only failures get snapshots

    def test_matrix_schema_valid_and_renderable(self):
        doc = run_soak(
            SoakConfig(scenarios=("serve",), seeds=(0, 1), repeats=2)
        )
        assert validate_matrix(doc) == []
        assert not doc["flaky"]
        text = render_matrix(doc)
        assert "serve" in text and "pass" in text
        json.dumps(doc)  # artifact-ready

    def test_validate_matrix_catches_holes(self):
        doc = run_soak(SoakConfig(scenarios=("serve",), seeds=(0,), repeats=1))
        broken = dict(doc, cells=[])
        assert any("coverage" in p for p in validate_matrix(broken))
        assert any("missing key" in p for p in validate_matrix({"schema": 1}))

    def test_self_audit_detects_unhandled_fault(self):
        verdict = run_self_audit(0)
        assert verdict["ok"]
        assert verdict["sabotaged_cell_failed"]

    def test_no_chaos_sweep_applies_nothing(self):
        cell = run_cell("serve", 0, repeats=1, chaos_enabled=False)
        assert cell["ok"], cell["failed_checks"]
        assert cell["injections_applied"] == {}
