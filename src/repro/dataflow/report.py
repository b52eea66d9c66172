"""Cost records produced by the dataflow analyses."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScheduleError


@dataclass(frozen=True)
class LayerCost:
    """Per-layer, per-inference cost (batch effects already amortized)."""

    name: str
    macs: int
    time_s: float
    energy_j: float
    #: Component energies [J]: tuning / streaming / hold / conversion /
    #: memory — keys depend on the architecture.
    energy_breakdown: dict[str, float] = field(default_factory=dict)
    symbols: int = 0
    tiles: int = 0
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.time_s < 0 or self.energy_j < 0:
            raise ScheduleError(f"{self.name}: negative cost")


@dataclass(frozen=True)
class ModelCost:
    """Whole-model inference cost for one accelerator."""

    model: str
    accelerator: str
    layers: tuple[LayerCost, ...]
    total_macs: int

    @property
    def time_s(self) -> float:
        """Latency of one inference [s]."""
        return sum(layer.time_s for layer in self.layers)

    @property
    def energy_j(self) -> float:
        """Energy of one inference [J]."""
        return sum(layer.energy_j for layer in self.layers)

    @property
    def inferences_per_second(self) -> float:
        """Steady-state throughput (Fig 6's metric)."""
        t = self.time_s
        if t <= 0:
            raise ScheduleError(f"{self.model}: non-positive inference time")
        return 1.0 / t

    @property
    def effective_tops(self) -> float:
        """Achieved tera-ops/s (2 ops per MAC)."""
        return 2.0 * self.total_macs * self.inferences_per_second / 1e12

    def energy_component(self, key: str) -> float:
        """Sum one energy-breakdown component across layers [J]."""
        return sum(layer.energy_breakdown.get(key, 0.0) for layer in self.layers)

    @property
    def average_power_w(self) -> float:
        """Energy / time — sanity check against the power budget."""
        return self.energy_j / self.time_s
