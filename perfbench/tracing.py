"""In-memory span recorder that wraps layer methods from outside.

Nothing under ``src/`` is edited: :meth:`SpanRecorder.wrap` replaces a
class or module attribute with a timing wrapper and
:meth:`SpanRecorder.restore` puts the original back.  Every call becomes
one span (name, start, end, parent span, phase span, run id) stored in
flat ``array`` columns, so a fleet episode's ~10^5 spans cost tens of
bytes each.  Spans are written out once, by :meth:`SpanRecorder.dump`,
after the run.

A span's *self time* is its duration minus the durations of the spans
directly nested in it.  Two span names mark the *phase* of an episode:
``bench.setup`` around building it and ``bench.call`` around each timed
call.  A span's phase is the innermost of these enclosing it, so a
``bench.call`` may sit inside a ``bench.setup`` (the fleet episode times
only ``TridentServer.run`` inside ``run_fleet_workload``).  Per-layer
numbers aggregate spans by the phase they ran in.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SETUP = "bench.setup"
CALL = "bench.call"


class SpanRecorder:
    """Collects spans and per-layer counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Compact columns: a traced fleet episode makes ~5e5 spans.
        self.name_col = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("i")
        self.run = array("h")
        self._columns: dict[str, np.ndarray] | None = None
        self._stack: list[int] = []
        self._phases: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._setup_id = self._name_id(SETUP)
        self._call_id = self._name_id(CALL)
        #: Episode index stamped on every span (the run id).
        self.run_id = 0
        #: Duration of every ``bench.call`` span, in closing order.
        self.call_s: list[float] = []
        #: (run id, key) -> summed value, counted only inside bench.call.
        self.counters: dict[tuple[int, str], float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        stack = self._stack
        phases = self._phases
        index = len(self.start)
        if name_id == self._call_id or name_id == self._setup_id:
            phases.append(index)
        self.name_col.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.phase.append(phases[-1] if phases else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        end = self.end[index] = time.perf_counter()
        self._stack.pop()
        phases = self._phases
        if phases and phases[-1] == index:
            phases.pop()
            if self.name_col[index] == self._call_id:
                self.call_s.append(end - self.start[index])

    @property
    def in_call(self) -> bool:
        """True while the innermost open phase span is a ``bench.call``."""
        phases = self._phases
        return bool(phases) and self.name_col[phases[-1]] == self._call_id

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def count(self, key: str, value: float = 1.0) -> None:
        """Add to a per-episode counter when inside a timed call."""
        if self.in_call:
            self.counters[(self.run_id, key)] += value

    def peak(self, key: str, value: float) -> None:
        """Keep the largest value seen in a timed call."""
        if self.in_call:
            slot = (self.run_id, key)
            self.counters[slot] = max(self.counters[slot], value)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None, raises=None):
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is a class or a module; wrapping a module's function
        times the calls that look it up as a global of that module.
        ``after(args, kwargs, result, recorder)`` runs once the call
        returns and may add counters; a call that raises an exception of
        type ``raises`` adds one to the counter ``name + ".faults"``.
        Static methods stay static.
        """
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        name_id = self._name_id(name)
        fault_key = name + ".faults"
        recorder = self

        def wrapper(*args, **kwargs):
            index = recorder._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if raises is not None and isinstance(exc, raises):
                    recorder.count(fault_key)
                raise
            finally:
                recorder._close(index)
            if after is not None:
                after(args, kwargs, result, recorder)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        """The span table as NumPy columns, plus duration and self time.

        Computed once, after recording has finished.
        """
        if self._columns is not None and len(self._columns["start"]) == len(self.start):
            return self._columns
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        self._columns = {
            "name": np.frombuffer(self.name_col, dtype=np.int16),
            "start": start,
            "end": end,
            "parent": parent,
            "phase": np.frombuffer(self.phase, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int16),
            "dur": dur,
            "self": dur - child,
        }
        return self._columns

    def per_run(self, phase_name: str) -> dict[int, dict[str, dict]]:
        """run id -> span name -> {calls, self_s, wall_s} in one phase."""
        cols = self.columns()
        phase = cols["phase"]
        under = (phase >= 0) & (cols["name"][phase] == self._name_ids[phase_name])
        n_names = len(self.names)
        out: dict[int, dict[str, dict]] = {}
        for run_id in np.unique(cols["run"][under]):
            sel = under & (cols["run"] == run_id)
            names = cols["name"][sel]
            calls = np.bincount(names, minlength=n_names)
            self_s = np.bincount(names, cols["self"][sel], minlength=n_names)
            wall_s = np.bincount(names, cols["dur"][sel], minlength=n_names)
            out[int(run_id)] = {
                self.names[nid]: {
                    "calls": int(calls[nid]),
                    "self_s": float(self_s[nid]),
                    "wall_s": float(wall_s[nid]),
                }
                for nid in np.nonzero(calls)[0]
            }
        return out

    def entry_coverage(self) -> float:
        """Share of the timed wall spent in named spans below the entry calls.

        The entry calls are the spans directly inside ``bench.call``
        (``serving.server.run``; ``forward_batch`` and ``attest_batch``;
        ``train_step``).  Their own self time, plus the benchmark's glue
        around them, is the part of the timed wall no layer span names.
        """
        cols = self.columns()
        is_call = cols["name"] == self._call_id
        wall = float(cols["dur"][is_call].sum())
        if wall <= 0.0:
            return 0.0
        entry = np.isin(cols["parent"], np.nonzero(is_call)[0])
        unattributed = cols["self"][is_call].sum() + cols["self"][entry].sum()
        return 1.0 - float(unattributed) / wall

    def dump(self, path) -> None:
        """Write every span once, as compressed NumPy columns (seconds)."""
        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "start", "end", "parent", "run")},
        )
