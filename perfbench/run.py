"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fleet_burst --seed 11 --seconds 30 --trace 0

The process pins BLAS to one thread before NumPy loads, repeats seeded
fixed-length episodes of the workload (see ``workloads.py``) until
``--seconds`` have passed, checks every episode's outputs, prints a
human-readable report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` wraps the layers' methods, runs one
untraced reference episode and then traced ones, and reports the
per-layer metrics.  The exit code is 1 when any correctness check fails
and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import os

# Before NumPy is imported anywhere: one BLAS thread, so host times do
# not depend on how the scheduler places OpenBLAS's worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import CALL, SETUP, SpanRecorder  # noqa: E402

#: Shares of calls beyond which a tail percentile needs >= 10 samples.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def environment() -> dict:
    """Where the numbers came from, printed with every result."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest ladder step with >= 10 beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = n * (1.0 - pct / 100.0)
        if beyond >= 10:
            index = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return pct, ordered[index]
    return float("nan"), float("nan")


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
@contextlib.contextmanager
def recording(workload, trace: bool):
    """A span recorder for ``workload``; with ``trace``, every layer is wrapped.

    A workload with an ``entry`` method has that method wrapped as its
    ``bench.call`` span; the wraps are undone on exit.
    """
    recorder = SpanRecorder()
    try:
        if trace:
            spec.instrument(recorder)
        entry = workload.entry()
        if entry is not None:
            recorder.wrap(*entry, CALL)
        yield recorder
    finally:
        recorder.restore()


def run_episode(workload, seed: int, recorder):
    """Set up, make the fixed calls, finish; returns timings and result.

    A call's time is the time of the ``bench.call`` spans inside it; the
    rest of its wall (the set-up around a workload's ``entry``) is added
    to ``setup_s``.
    """
    # A workload with an entry opens bench.call inside its call.
    phase = SETUP if workload.entry() is not None else CALL

    # Start every episode from the same heap: the previous episode's
    # garbage would otherwise be collected inside this one's timed calls.
    gc.collect()
    t0 = time.perf_counter()
    with recorder.span(SETUP):
        state = workload.setup(seed)
    setup_s = time.perf_counter() - t0

    call_s: list[float] = []
    failed = 0
    errors: list[str] = []
    for index in range(workload.calls_per_episode):
        done = len(recorder.call_s)
        t = time.perf_counter()
        try:
            with recorder.span(phase):
                ok = workload.call(state, index)
        except Exception as exc:  # a failed call is counted, not fatal
            ok = False
            errors.append(f"call {index}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t
        call_s.append(sum(recorder.call_s[done:]))
        setup_s += wall - call_s[-1]
        failed += not ok
        workload.after_call(state, index)
    try:
        result = workload.finish(state, call_s)
    except Exception as exc:
        result = None
        errors.append(f"finish: {type(exc).__name__}: {exc}")
    return {
        "setup_s": setup_s,
        "call_s": call_s,
        "failed": failed,
        "errors": errors,
        "result": result,
    }


def run_episodes(workload, seed: int, seconds: float, recorder):
    """Repeat episodes until ``seconds`` of wall time have passed; at least one."""
    episodes = []
    deadline = time.perf_counter() + seconds
    while True:
        recorder.run_id = len(episodes)
        episodes.append(run_episode(workload, seed, recorder))
        if time.perf_counter() >= deadline:
            return episodes


def episode_checks(episodes: list[dict]) -> list[tuple[str, bool]]:
    """Each episode's own checks, plus bit-identity across episodes."""
    checks: list[tuple[str, bool]] = []
    results = [e["result"] for e in episodes]
    checks.append(("every episode finished", all(r is not None for r in results)))
    checks.append(("no call failed", all(e["failed"] == 0 for e in episodes)))
    if all(r is not None for r in results):
        for label in dict(results[0].checks):
            checks.append(
                (label, all(dict(r.checks).get(label, False) for r in results))
            )
        first = results[0]
        checks.append(
            (
                "episodes replay bit-identically (digest, modelled values)",
                all(
                    r.digest == first.digest and modelled(r) == modelled(first)
                    for r in results
                ),
            )
        )
    return checks


def modelled(result) -> str:
    """The host-independent values of an episode, as canonical JSON."""
    return json.dumps({**result.sim, **result.layer}, sort_keys=True)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(workload, episodes: list[dict]) -> tuple[dict, dict]:
    """(every applicable metric, the note printed beside each)."""
    calls = [s for e in episodes for s in e["call_s"]]
    first = episodes[0]["result"]
    per_episode_rate = [
        e["result"].samples / sum(e["call_s"]) for e in episodes if e["result"]
    ]
    values = {
        "setup_s": statistics.median(e["setup_s"] for e in episodes),
        "samples_per_s": statistics.median(per_episode_rate),
        "call_ms_p50": statistics.median(calls) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(episodes)} set-ups",
        "samples_per_s": f"median of {len(episodes)} episodes",
        "call_ms_p50": f"{len(calls)} calls",
    }
    pct, tail_s = tail(calls)
    if pct == pct:
        values["call_ms_tail"] = tail_s * 1e3
        notes["call_ms_tail"] = f"p{pct:g} of {len(calls)} calls"
    if workload.name == "fleet_burst":
        values["sim_req_per_s"] = values["samples_per_s"]
        notes["samples_per_s"] = "= sim_req_per_s; one sample per request"
        notes["call_ms_p50"] = f"one call = one TridentServer.run; {len(calls)} calls"
    else:
        attempted = len(calls)
        values["failed_fraction"] = sum(e["failed"] for e in episodes) / attempted
        notes["failed_fraction"] = f"of {attempted} calls"
    if first is not None:
        values.update(first.sim)
        notes.update(first.notes)
    return values, notes


def per_layer(recorder, episodes: list[dict], reference: dict, names) -> dict:
    """Every metric in ``names``; 0 for layers this workload never calls."""
    timed = recorder.per_run(CALL)
    setup = recorder.per_run(SETUP)
    rows = []
    for e_index, episode in enumerate(episodes):
        row = {}
        for layer, stats in timed.get(e_index, {}).items():
            for key, value in stats.items():
                row[f"{layer}.{key}"] = value
        # Set-up layers report their wall; a layer also called in the
        # timed calls keeps the timed wall the ratios divide by.
        for layer, stats in setup.get(e_index, {}).items():
            row.setdefault(f"{layer}.wall_s", stats["wall_s"])
        for key, value in recorder.counters.items():
            if key[0] == e_index:
                row[key[1]] = value
        if episode["result"] is not None:
            row.update(episode["result"].layer)
        for name, (num, den) in spec.RATIOS.items():
            row[name] = row.get(num, 0.0) / row[den] if row.get(den) else 0.0
        rows.append(row)

    # Host times the program measures itself come from the untraced
    # reference episode: tracing inflates them.
    host = reference["result"].host_layer if reference["result"] else {}
    out = {}
    for name in names:
        if name in host:
            out[name] = float(host[name])
        elif name == "trace.coverage":
            out[name] = recorder.entry_coverage()
        elif name == "trace.overhead":
            traced = statistics.median(s for e in episodes for s in e["call_s"])
            untraced = statistics.median(reference["call_s"])
            out[name] = traced / untraced - 1.0
        else:
            out[name] = float(statistics.median(row.get(name, 0.0) for row in rows))
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(doc: dict, argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in doc["workloads"]])
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=doc["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    doc = spec.declared()
    args = parse_args(doc, argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace:
        with recording(workload, trace=False) as recorder:
            reference = run_episode(workload, args.seed, recorder)
        with recording(workload, trace=True) as recorder:
            episodes = run_episodes(workload, args.seed, args.seconds, recorder)
        declared = doc["per_layer"]
        metrics = per_layer(
            recorder, episodes, reference, [m["name"] for m in declared]
        )
        out_dir = ROOT / spec.OUT_DIR
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"{args.workload}-spans.npz"
        recorder.dump(spans_path)
        print(f"spans: {len(recorder.start)} written to "
              f"{spans_path.relative_to(ROOT)}")
        all_episodes = [reference] + episodes
        notes = {}
    else:
        with recording(workload, trace=False) as recorder:
            episodes = run_episodes(workload, args.seed, args.seconds, recorder)
        declared = doc["end_to_end"]
        metrics, notes = end_to_end(workload, episodes)
        all_episodes = episodes
    checks = episode_checks(all_episodes)

    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        units.update(spec.REPORTED_UNITS)
    first = all_episodes[0]["result"]
    print(f"episodes: {len(all_episodes)}")
    if first is not None:
        print(f"digest: {first.digest}")
        print(f"modelled: {modelled(first)}")
    for name in sorted(metrics):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {metrics[name]:>16.6g} {units.get(name, '')}{note}")
    for label, ok in checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {label}")
    for episode in all_episodes:
        for error in episode["errors"]:
            print(f"  error: {error}")

    correct = all(ok for _, ok in checks)
    attempted = sum(len(e["call_s"]) for e in all_episodes)
    failed = sum(e["failed"] for e in all_episodes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
