"""DAG network descriptor.

A :class:`Network` is a directed acyclic graph of :class:`LayerSpec` nodes.
It exists to answer the questions the dataflow analysis asks — per-layer
shapes, GEMMs, MACs, parameters — for arbitrary topologies (plain chains,
ResNet residuals, Inception branches).

Nodes are added in any order and reference their inputs by name; ``"input"``
is the implicit source.  Shape inference walks the graph once in topological
order and caches per-node results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError
from repro.nn.layers import GEMMShape, LayerSpec, TensorShape

INPUT = "input"


@dataclass(frozen=True)
class LayerStats:
    """Resolved per-layer analysis record."""

    name: str
    kind: str
    output: TensorShape
    macs: int
    params: int
    gemm: GEMMShape | None
    fused_activation: bool


@dataclass(frozen=True)
class NetworkStats:
    """Whole-network totals."""

    name: str
    layers: tuple[LayerStats, ...]
    total_macs: int
    total_params: int
    n_weight_layers: int

    @property
    def total_activations(self) -> int:
        """Total activation elements produced by fused-activation layers."""
        return sum(s.output.elements for s in self.layers if s.fused_activation)


class Network:
    """A named DAG of layer descriptors."""

    def __init__(self, name: str, input_shape: TensorShape) -> None:
        if not name:
            raise ShapeError("network name must be non-empty")
        self.name = name
        self.input_shape = input_shape
        self._layers: dict[str, LayerSpec] = {}
        self._inputs: dict[str, list[str]] = {}
        self._order: list[str] = []
        self._shapes: dict[str, TensorShape] | None = None

    # ------------------------------------------------------------------
    def add(self, layer: LayerSpec, inputs: str | list[str] = "") -> str:
        """Add a layer; ``inputs`` defaults to the previously added node.

        Returns the layer name, convenient for wiring branches.
        """
        if layer.name in self._layers or layer.name == INPUT:
            raise ShapeError(f"duplicate layer name {layer.name!r}")
        if isinstance(inputs, str):
            if inputs:
                sources = [inputs]
            elif self._order:
                sources = [self._order[-1]]
            else:
                sources = [INPUT]
        else:
            sources = list(inputs)
        if not sources:
            raise ShapeError(f"{layer.name}: needs at least one input")
        for src in sources:
            if src != INPUT and src not in self._layers:
                raise ShapeError(
                    f"{layer.name}: unknown input {src!r} (add inputs first)"
                )
        self._layers[layer.name] = layer
        self._inputs[layer.name] = sources
        self._order.append(layer.name)
        self._shapes = None
        return layer.name

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def layer(self, name: str) -> LayerSpec:
        """Look a layer up by name."""
        try:
            return self._layers[name]
        except KeyError:
            raise ShapeError(f"no layer named {name!r}") from None

    def inputs_of(self, name: str) -> list[str]:
        """Names of a node's inputs."""
        return list(self._inputs[name])

    # ------------------------------------------------------------------
    def _resolve_shapes(self) -> dict[str, TensorShape]:
        if self._shapes is not None:
            return self._shapes
        shapes: dict[str, TensorShape] = {INPUT: self.input_shape}
        # Insertion order is topological because add() requires inputs to
        # pre-exist; verify anyway so corrupted graphs fail loudly.
        for name in self._order:
            ins = []
            for src in self._inputs[name]:
                if src not in shapes:
                    raise ShapeError(
                        f"{name}: input {src!r} not resolved — graph is not "
                        "in dependency order"
                    )
                ins.append(shapes[src])
            shapes[name] = self._layers[name].output_shape(ins)
        self._shapes = shapes
        return shapes

    def shape_of(self, name: str) -> TensorShape:
        """Resolved output shape of a node (or the input)."""
        return self._resolve_shapes()[name]

    @property
    def output_shape(self) -> TensorShape:
        """Shape of the final node's output."""
        if not self._order:
            return self.input_shape
        return self.shape_of(self._order[-1])

    # ------------------------------------------------------------------
    def stats(self) -> NetworkStats:
        """Full per-layer + total analysis (one shape walk, cached)."""
        shapes = self._resolve_shapes()
        records: list[LayerStats] = []
        total_macs = 0
        total_params = 0
        n_weight = 0
        for name in self._order:
            layer = self._layers[name]
            ins = [shapes[src] for src in self._inputs[name]]
            macs = layer.macs(ins)
            params = layer.params(ins)
            records.append(
                LayerStats(
                    name=name,
                    kind=type(layer).__name__,
                    output=shapes[name],
                    macs=macs,
                    params=params,
                    gemm=layer.gemm(ins),
                    fused_activation=layer.fused_activation,
                )
            )
            total_macs += macs
            total_params += params
            if layer.has_weights:
                n_weight += 1
        return NetworkStats(
            name=self.name,
            layers=tuple(records),
            total_macs=total_macs,
            total_params=total_params,
            n_weight_layers=n_weight,
        )

    def compute_layers(self) -> list[LayerStats]:
        """Only the layers that occupy weight banks (conv/dense)."""
        return [s for s in self.stats().layers if s.gemm is not None]
