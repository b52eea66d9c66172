"""Online fault detection from program-and-verify readback.

The controller never sees the stuck mask — that is device ground truth.
What it *does* see is the verify loop's ``converged`` mask after every
persistent weight write: a stuck cell whose frozen level sits outside
tolerance of its target never converges, no matter how many pulses the
writer spends.  A healthy cell occasionally fails the loop too (with
write_std 1.5 / read_std 0.3 / tol 1.0 the per-attempt acceptance is
~0.48, so ~0.13% of healthy cells exhaust a 10-iteration budget), which
is why detection is *strike-based*: a cell is flagged faulty only after
``strike_threshold`` consecutive unconverged writes, and any converged
write clears its strikes.  Two consecutive misses from a healthy cell
happen with probability ~2e-6 — transient noise and persistent wear
separate cleanly.

Strikes are kept in *physical* ring coordinates, so a row remapped onto a
spare carries no history from the row it replaced and a retired row keeps
its record (useful if the spare pool ever recycles).

The second health signal is time: GST retention is Arrhenius-activated
(:mod:`repro.devices.drift`), so the detector can also answer "has the
deployment aged past its drift budget?" — the refresh trigger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.drift import RetentionModel
from repro.errors import ConfigError, FaultError


@dataclass(frozen=True)
class DriftHealth:
    """Retention check: has programmed state drifted past its budget?"""

    age_s: float
    temperature_k: float
    worst_case_weight_error: float
    error_budget: float
    refresh_interval_s: float

    @property
    def needs_refresh(self) -> bool:
        """True when the worst-case drift exceeds the error budget."""
        return self.worst_case_weight_error > self.error_budget


class BankFaultMap:
    """Strike counters and inferred-faulty flags for one bank's rings.

    Physical-shape arrays (``(rows + spare_rows, cols)``): remaps move a
    logical row between physical rows, and health history belongs to the
    physical ring.
    """

    def __init__(self, physical_rows: int, cols: int, strike_threshold: int = 2) -> None:
        if physical_rows < 1 or cols < 1:
            raise FaultError(
                f"fault map dimensions must be positive, got {physical_rows}x{cols}"
            )
        if strike_threshold < 1:
            raise ConfigError(
                f"strike threshold must be >= 1, got {strike_threshold}"
            )
        self.strike_threshold = strike_threshold
        self.strikes = np.zeros((physical_rows, cols), dtype=np.int64)
        self.faulty = np.zeros((physical_rows, cols), dtype=bool)
        self.writes_observed = 0

    def observe(self, bank, result) -> None:
        """Fold one verified write's readback into the strike counters.

        ``result.converged`` has the programmed block's shape; the block's
        logical rows are translated to physical rows through the bank's
        current remap table, so observations land on the rings that were
        actually pulsed.
        """
        converged = np.atleast_2d(np.asarray(result.converged, dtype=bool))
        r, c = converged.shape
        phys = bank.active_row_map[:r]
        block = np.ix_(phys, np.arange(c))
        block_strikes = np.where(converged, 0, self.strikes[block] + 1)
        self.strikes[block] = block_strikes
        self.faulty[block] = block_strikes >= self.strike_threshold
        self.writes_observed += 1

    def observe_physical(self, result) -> None:
        """Fold a full-physical-array readback (a bank self-test pattern)
        into the strike counters — no row-map translation needed."""
        converged = np.asarray(result.converged, dtype=bool)
        if converged.shape != self.strikes.shape:
            raise FaultError(
                f"physical readback shape {converged.shape} != fault map "
                f"{self.strikes.shape}"
            )
        self.strikes = np.where(converged, 0, self.strikes + 1)
        self.faulty = self.strikes >= self.strike_threshold
        self.writes_observed += 1

    # ------------------------------------------------------------------
    def row_fault_counts(self, bank, cols_used: int | None = None) -> np.ndarray:
        """Inferred faulty-cell count per *logical* row of ``bank``.

        Reads the flags through the bank's current remap table — after a
        successful remap the logical row's count drops to the spare ring
        row's (usually zero).
        """
        c = bank.cols if cols_used is None else cols_used
        return self.faulty[bank.active_row_map, :c].sum(axis=1)

    def spare_fault_counts(self, bank, cols_used: int | None = None) -> dict[int, int]:
        """{free spare physical row: inferred faulty cells} for ``bank``.

        Spares wear like any ring; the repair engine picks the cleanest.
        Spare rows are only observed once written, so an unexercised spare
        reports zero — optimistic, corrected by the post-remap verify.
        """
        c = bank.cols if cols_used is None else cols_used
        return {
            int(s): int(self.faulty[s, :c].sum()) for s in bank.free_spare_rows
        }

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the strike counters and inferred-faulty flags."""
        return {
            "strike_threshold": self.strike_threshold,
            "strikes": self.strikes.copy(),
            "faulty": self.faulty.copy(),
            "writes_observed": self.writes_observed,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (shape-checked)."""
        strikes = np.asarray(state["strikes"], dtype=np.int64)
        if strikes.shape != self.strikes.shape:
            raise FaultError(
                f"fault-map snapshot shape {strikes.shape} != {self.strikes.shape}"
            )
        self.strike_threshold = int(state["strike_threshold"])
        self.strikes = strikes.copy()
        self.faulty = np.asarray(state["faulty"], dtype=bool).copy()
        self.writes_observed = int(state["writes_observed"])


class FaultDetector:
    """Per-bank online fault maps fed by the accelerator's write hook.

    Attach to a :class:`~repro.arch.TridentAccelerator` running with
    program-verify enabled; every verified weight write then updates the
    written bank's :class:`BankFaultMap`.  The detector is an *observer*
    — it never mutates hardware state; acting on the maps is the
    :class:`~repro.faults.repair.FaultManager`'s job.
    """

    def __init__(self, strike_threshold: int = 2) -> None:
        if strike_threshold < 1:
            raise ConfigError(
                f"strike threshold must be >= 1, got {strike_threshold}"
            )
        self.strike_threshold = strike_threshold
        #: pe_index -> fault map (created on first observed write).
        self.maps: dict[int, BankFaultMap] = {}
        #: pe_index -> most recent ProgramVerifyResult.
        self.last_results: dict[int, object] = {}
        self.retention = RetentionModel()

    def attach(self, accelerator) -> "FaultDetector":
        """Register on the accelerator's write hook; returns self."""
        accelerator.add_write_listener(self.observe_write)
        return self

    def observe_write(self, pe_index: int, layer_index: int, tile_index: int, bank, result) -> None:
        """Write-listener callback (signature fixed by the accelerator)."""
        fault_map = self.maps.get(pe_index)
        if fault_map is None:
            fault_map = BankFaultMap(
                bank.physical_rows, bank.cols, self.strike_threshold
            )
            self.maps[pe_index] = fault_map
        fault_map.observe(bank, result)
        self.last_results[pe_index] = result

    def screen(self, pe_index: int, bank, writer) -> list:
        """Built-in self-test: march-test ``bank`` and absorb the readback.

        Exercises every physical ring row (spares included) with the
        bank's :meth:`~repro.arch.WeightBank.selftest`, so spare health is
        *measured* before a repair trusts a remap to one — an unexercised
        spare would otherwise look perfectly clean.  Leaves the bank
        needing a reprogram (the caller pays it).  Returns the per-pattern
        results.
        """
        fault_map = self.maps.get(pe_index)
        if fault_map is None:
            fault_map = BankFaultMap(
                bank.physical_rows, bank.cols, self.strike_threshold
            )
            self.maps[pe_index] = fault_map
        results = bank.selftest(writer)
        for result in results:
            fault_map.observe_physical(result)
        return results

    # ------------------------------------------------------------------
    def map_for(self, pe_index: int) -> BankFaultMap | None:
        """The fault map for one PE (None before its first verified write)."""
        return self.maps.get(pe_index)

    @property
    def total_flagged(self) -> int:
        """Total cells flagged faulty across every observed bank."""
        return sum(int(m.faulty.sum()) for m in self.maps.values())

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of every per-bank fault map (strike history included).

        ``last_results`` — the most recent raw readbacks — are transient
        diagnostics and deliberately not serialized; the strike counters
        carry everything repair decisions depend on.
        """
        return {
            "strike_threshold": self.strike_threshold,
            "maps": {
                str(pe_index): fault_map.state_dict()
                for pe_index, fault_map in self.maps.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, rebuilding per-PE maps."""
        self.strike_threshold = int(state["strike_threshold"])
        self.maps = {}
        self.last_results = {}
        for key, map_state in state["maps"].items():
            strikes = np.asarray(map_state["strikes"], dtype=np.int64)
            fault_map = BankFaultMap(
                strikes.shape[0], strikes.shape[1], self.strike_threshold
            )
            fault_map.load_state_dict(map_state)
            self.maps[int(key)] = fault_map

    # ------------------------------------------------------------------
    def check_drift(
        self,
        age_s: float,
        temperature_k: float = 300.0,
        error_budget: float | None = None,
        weight_step: float = 2.0 / 254.0,
    ) -> DriftHealth:
        """Retention health after ``age_s`` seconds at ``temperature_k``.

        Default budget is half an 8-bit weight LSB — drift beyond that
        starts flipping quantized levels and the deployment should
        refresh (reprogram) its banks.
        """
        if age_s < 0:
            raise ConfigError(f"age must be non-negative, got {age_s}")
        budget = weight_step / 2.0 if error_budget is None else error_budget
        if budget <= 0:
            raise ConfigError(f"error budget must be positive, got {budget}")
        worst = self.retention.worst_case_weight_error(age_s, temperature_k)
        interval = self.retention.refresh_interval_s(budget, temperature_k)
        return DriftHealth(
            age_s=age_s,
            temperature_k=temperature_k,
            worst_case_weight_error=worst,
            error_budget=budget,
            refresh_interval_s=interval,
        )
