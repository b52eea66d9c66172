"""Self-test of the benchmark: metric coverage, JSON shape, checks that bite.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench

Each workload runs at its shortest length (``--seconds 0``: one
episode) in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spec  # noqa: E402
from tracing import SpanRecorder  # noqa: E402

#: The workload-specific figures each workload prints by name and unit.
PRINTED = {
    "fleet_burst": (
        "sim_req_per_s", "failed_fraction", "slo_attainment", "sim_p99_latency_us",
    ),
    "forward_768": (
        "call_ms_tail", "failed_fraction", "sim_energy_uj_per_sample",
        "sim_time_us_per_sample", "output_rel_err",
    ),
    "train_small": (
        "call_ms_tail", "failed_fraction", "sim_energy_uj_per_sample",
        "sim_time_us_per_sample", "final_loss",
    ),
}
DOC = spec.declared()
WORKLOAD_NAMES = [w["name"] for w in DOC["workloads"]]


def _run(capsys, workload: str, trace: int, seed: int = spec.DEFAULT_SEED):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _line(lines: list[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix))


def test_benchmark_json_meets_the_contract():
    doc = DOC
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(name_re.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert set(WORKLOAD_NAMES) == set(PRINTED)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert unit_re.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(capsys, workload):
    code, lines, doc = _run(capsys, workload, trace=0)
    assert code == 0, "\n".join(lines)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DOC["end_to_end"]}
    assert set(doc["metrics"]) == set(declared)
    for name, entry in doc["metrics"].items():
        assert entry["unit"] == declared[name]
        assert math.isfinite(entry["value"]) and entry["value"] > 0
    for name in PRINTED[workload]:
        row = _line(lines, f"  {name} ")
        assert row.split()[2] == spec.REPORTED_UNITS[name]
    assert re.fullmatch(r"digest: [0-9a-f]{64}", _line(lines, "digest:"))


@pytest.fixture(scope="module")
def traced_runs():
    """workload -> (exit code, printed lines, JSON result) of one traced run."""
    runs = {}
    for workload in WORKLOAD_NAMES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(spec.DEFAULT_SEED),
                             "--seconds", "0", "--trace", "1"])
        lines = out.getvalue().strip().splitlines()
        runs[workload] = code, lines, json.loads(lines[-1])
    return runs


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_layers_and_keeps_modelled_values(
    capsys, traced_runs, workload
):
    _, plain, _ = _run(capsys, workload, trace=0)
    code, traced, doc = traced_runs[workload]
    assert code == 0, "\n".join(traced)
    declared = {m["name"]: m["unit"] for m in DOC["per_layer"]}
    assert set(doc["metrics"]) == set(declared)
    assert all(doc["metrics"][n]["unit"] == u for n, u in declared.items())
    metrics = {n: e["value"] for n, e in doc["metrics"].items()}
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    # Tracing observes, never perturbs: digest and modelled values match.
    assert _line(plain, "digest:") == _line(traced, "digest:")
    assert _line(plain, "modelled:") == _line(traced, "modelled:")
    modelled = json.loads(_line(traced, "modelled:").split(" ", 1)[1])
    if workload == "fleet_burst":
        assert metrics["serving.queue.drop_hopeless.calls"] > 0
        assert 0.0 < metrics["fleet.controller.loop_share"] < 1.0
        assert metrics["serving.server.events"] == modelled["serving.server.events"]
    elif workload == "forward_768":
        assert metrics["arch.weight_bank.matmat.flops"] > 0
        assert 0.0 < metrics["integrity.attest_batch.share"] < 1.0
        assert metrics["arch.counters.symbols"] == modelled["arch.counters.symbols"]
    else:
        assert metrics["devices.program_verify.write.pulses"] > 0
        assert metrics["arch.counters.bank_writes"] == modelled["arch.counters.bank_writes"]


#: Per-layer counts of faults and sheds the clean workloads never make.
ZERO_BY_DESIGN = {
    "serving.server.retries",
    "serving.server.shed.queue_full",
    "serving.server.shed.priority_evicted",
    "serving.server.shed.retries_exhausted",
    "serving.server.shed.no_worker",
    "serving.worker.execute.faults",
    "integrity.tripped",
}


def test_every_declared_layer_metric_is_measured_somewhere(traced_runs):
    # A declared name no wrap, counter or ratio produces reads 0 in
    # every workload; this catches it.
    names = [m["name"] for m in DOC["per_layer"]]
    measured = {
        name for _, _, doc in traced_runs.values()
        for name in names if doc["metrics"][name]["value"] != 0
    }
    assert set(names) - measured == ZERO_BY_DESIGN


def test_fleet_digest_matches_the_program_run_directly(capsys):
    from repro.fleet import (
        fleet_digest, run_fleet_workload, smoke_chaos_plan, smoke_scenario,
    )

    seed = spec.HELD_OUT_SEED
    _, lines, _ = _run(capsys, "fleet_burst", trace=0, seed=seed)
    scenario = smoke_scenario(seed)
    direct = run_fleet_workload(
        scenario, controlled=True, chaos_plan=smoke_chaos_plan(scenario)
    )
    assert _line(lines, "digest:") == f"digest: {fleet_digest(direct)}"


def test_same_seed_gives_same_modelled_values(capsys):
    _, first, _ = _run(capsys, "train_small", trace=0)
    _, second, _ = _run(capsys, "train_small", trace=0)
    assert _line(first, "modelled:") == _line(second, "modelled:")
    assert _line(first, "digest:") == _line(second, "digest:")


def _nan_forward(monkeypatch):
    from repro.arch.accelerator import TridentAccelerator

    real = TridentAccelerator.forward_batch

    def poisoned(self, xs, record=False):
        return np.full_like(real(self, xs, record=record), np.nan)

    monkeypatch.setattr(TridentAccelerator, "forward_batch", poisoned)


@pytest.mark.parametrize("workload", ["forward_768", "train_small"])
def test_non_finite_output_fails_the_check(capsys, monkeypatch, workload):
    _nan_forward(monkeypatch)
    code, lines, doc = _run(capsys, workload, trace=0)
    assert code == 1
    assert doc["correct"] is False and doc["failed"] > 0
    assert any("check FAIL" in line for line in lines)


def test_non_finite_served_output_fails_the_fleet_check(capsys, monkeypatch):
    from repro.serving.worker import AcceleratorWorker

    real = AcceleratorWorker.execute

    def poisoned(self, xs):
        return np.full_like(real(self, xs), np.nan)

    monkeypatch.setattr(AcceleratorWorker, "execute", poisoned)
    code, lines, doc = _run(capsys, "fleet_burst", trace=0)
    assert code == 1 and doc["correct"] is False
    assert "  check FAIL: every completed output finite" in lines


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_nested_spans():
    class Toy:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            pass

    recorder = SpanRecorder()
    recorder.wrap(Toy, "outer", "toy.outer")
    recorder.wrap(Toy, "inner", "toy.inner")
    try:
        with recorder.span("bench.call"):
            Toy().outer()
    finally:
        recorder.restore()
    assert "__wrapped__" not in vars(Toy.outer)
    stats = recorder.per_run("bench.call")[0]
    assert stats["toy.inner"]["calls"] == 2
    outer = stats["toy.outer"]
    assert outer["self_s"] == pytest.approx(
        outer["wall_s"] - stats["toy.inner"]["wall_s"]
    )
    assert 0.0 <= recorder.entry_coverage() <= 1.0
