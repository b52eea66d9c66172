"""Layer descriptors with shape, MAC, and parameter accounting.

These are *descriptors*, not executable layers: they carry exactly the
information the Maestro-style dataflow analysis consumes — output shape,
multiply-accumulate count, parameter count, and (for the compute layers)
the GEMM the layer lowers to under a weight-stationary dataflow.
Executable math lives in :mod:`repro.nn.reference`.

Shape convention: feature maps are (height, width, channels); dense
activations are (1, 1, features).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError


@dataclass(frozen=True)
class TensorShape:
    """A (H, W, C) activation shape."""

    height: int
    width: int
    channels: int

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise ShapeError(f"all dimensions must be positive, got {self}")

    @property
    def elements(self) -> int:
        """Total element count H x W x C."""
        return self.height * self.width * self.channels

    def bytes(self, bytes_per_element: int = 1) -> int:
        """Footprint in bytes at the given precision (default int8)."""
        return self.elements * bytes_per_element


@dataclass(frozen=True)
class GEMMShape:
    """The matrix multiply a compute layer lowers to.

    ``(M x K) @ (K x N)``: M = output channels/features (weight rows),
    K = reduction size (R*S*C per group), N = output spatial positions.
    ``groups`` independent GEMMs of this shape run per layer (1 for normal
    conv/dense; C for depthwise conv).
    """

    m: int
    k: int
    n: int
    groups: int = 1

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n, self.groups) < 1:
            raise ShapeError(f"GEMM dims must be positive, got {self}")

    @property
    def macs(self) -> int:
        """Multiply-accumulates: m x k x n x groups."""
        return self.m * self.k * self.n * self.groups


class LayerSpec:
    """Base layer descriptor."""

    #: Whether the layer owns weights that occupy photonic banks.
    has_weights = False
    #: Whether an activation function follows (fused, for cost accounting).
    fused_activation = False

    def __init__(self, name: str) -> None:
        if not name:
            raise ShapeError("layer name must be non-empty")
        self.name = name

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        """Shape produced from the given input shapes."""
        raise NotImplementedError

    def macs(self, inputs: list[TensorShape]) -> int:
        """Multiply-accumulate operations for one inference."""
        return 0

    def params(self, inputs: list[TensorShape]) -> int:
        """Trainable parameter count."""
        return 0

    def gemm(self, inputs: list[TensorShape]) -> GEMMShape | None:
        """Weight-stationary GEMM lowering, if this is a compute layer."""
        return None

    def _single(self, inputs: list[TensorShape]) -> TensorShape:
        if len(inputs) != 1:
            raise ShapeError(f"{self.name}: expected 1 input, got {len(inputs)}")
        return inputs[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


class Conv2D(LayerSpec):
    """Standard 2-D convolution (optionally grouped)."""

    has_weights = True

    def __init__(
        self,
        name: str,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int | None = None,
        groups: int = 1,
        fused_activation: bool = True,
        bias: bool = True,
    ) -> None:
        super().__init__(name)
        if out_channels < 1 or kernel < 1 or stride < 1 or groups < 1:
            raise ShapeError(f"{name}: conv parameters must be positive")
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = kernel // 2 if padding is None else padding
        self.groups = groups
        self.fused_activation = fused_activation
        self.bias = bias
        if self.padding < 0:
            raise ShapeError(f"{name}: padding must be non-negative")

    def _check_groups(self, c_in: int) -> None:
        if c_in % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"{self.name}: groups={self.groups} must divide both "
                f"in_channels={c_in} and out_channels={self.out_channels}"
            )

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        s = self._single(inputs)
        self._check_groups(s.channels)
        return TensorShape(
            _conv_out(s.height, self.kernel, self.stride, self.padding),
            _conv_out(s.width, self.kernel, self.stride, self.padding),
            self.out_channels,
        )

    def gemm(self, inputs: list[TensorShape]) -> GEMMShape:
        s = self._single(inputs)
        self._check_groups(s.channels)
        out = self.output_shape(inputs)
        return GEMMShape(
            m=self.out_channels // self.groups,
            k=self.kernel * self.kernel * (s.channels // self.groups),
            n=out.height * out.width,
            groups=self.groups,
        )

    def macs(self, inputs: list[TensorShape]) -> int:
        return self.gemm(inputs).macs

    def params(self, inputs: list[TensorShape]) -> int:
        s = self._single(inputs)
        self._check_groups(s.channels)
        weights = (
            self.out_channels * (s.channels // self.groups) * self.kernel * self.kernel
        )
        return weights + (self.out_channels if self.bias else 0)


class DepthwiseConv2D(Conv2D):
    """Depthwise convolution: groups == channels, one filter per channel."""

    def __init__(
        self,
        name: str,
        kernel: int,
        stride: int = 1,
        padding: int | None = None,
        fused_activation: bool = True,
    ) -> None:
        # out_channels/groups are bound at shape time (they equal C_in).
        super().__init__(
            name,
            out_channels=1,
            kernel=kernel,
            stride=stride,
            padding=padding,
            groups=1,
            fused_activation=fused_activation,
        )

    def _bind(self, s: TensorShape) -> Conv2D:
        return Conv2D(
            self.name,
            out_channels=s.channels,
            kernel=self.kernel,
            stride=self.stride,
            padding=self.padding,
            groups=s.channels,
            fused_activation=self.fused_activation,
        )

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        s = self._single(inputs)
        return self._bind(s).output_shape(inputs)

    def gemm(self, inputs: list[TensorShape]) -> GEMMShape:
        s = self._single(inputs)
        return self._bind(s).gemm(inputs)

    def macs(self, inputs: list[TensorShape]) -> int:
        return self.gemm(inputs).macs

    def params(self, inputs: list[TensorShape]) -> int:
        s = self._single(inputs)
        return self._bind(s).params(inputs)


class Dense(LayerSpec):
    """Fully connected layer over a flattened input."""

    has_weights = True

    def __init__(
        self, name: str, out_features: int, fused_activation: bool = True, bias: bool = True
    ) -> None:
        super().__init__(name)
        if out_features < 1:
            raise ShapeError(f"{name}: out_features must be positive")
        self.out_features = out_features
        self.fused_activation = fused_activation
        self.bias = bias

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        self._single(inputs)
        return TensorShape(1, 1, self.out_features)

    def gemm(self, inputs: list[TensorShape]) -> GEMMShape:
        s = self._single(inputs)
        return GEMMShape(m=self.out_features, k=s.elements, n=1)

    def macs(self, inputs: list[TensorShape]) -> int:
        return self.gemm(inputs).macs

    def params(self, inputs: list[TensorShape]) -> int:
        s = self._single(inputs)
        return self.out_features * s.elements + (self.out_features if self.bias else 0)


class Pool(LayerSpec):
    """Max or average pooling."""

    def __init__(
        self, name: str, kernel: int, stride: int | None = None, padding: int = 0, mode: str = "max"
    ) -> None:
        super().__init__(name)
        if kernel < 1:
            raise ShapeError(f"{name}: kernel must be positive")
        if mode not in ("max", "avg"):
            raise ShapeError(f"{name}: mode must be 'max' or 'avg', got {mode!r}")
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.padding = padding
        self.mode = mode

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        s = self._single(inputs)
        return TensorShape(
            _conv_out(s.height, self.kernel, self.stride, self.padding),
            _conv_out(s.width, self.kernel, self.stride, self.padding),
            s.channels,
        )


class GlobalAvgPool(LayerSpec):
    """Spatial global average: (H, W, C) -> (1, 1, C)."""

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        s = self._single(inputs)
        return TensorShape(1, 1, s.channels)


class Activation(LayerSpec):
    """Standalone activation marker (kind records ReLU/GST semantics)."""

    def __init__(self, name: str, kind: str = "relu") -> None:
        super().__init__(name)
        self.kind = kind

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        return self._single(inputs)


class BatchNorm(LayerSpec):
    """Batch normalization, folded into the preceding conv at inference."""

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        return self._single(inputs)

    def params(self, inputs: list[TensorShape]) -> int:
        return 2 * self._single(inputs).channels


class Add(LayerSpec):
    """Elementwise residual addition of two same-shape branches."""

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        if len(inputs) < 2:
            raise ShapeError(f"{self.name}: Add needs >= 2 inputs")
        first = inputs[0]
        for other in inputs[1:]:
            if other != first:
                raise ShapeError(
                    f"{self.name}: cannot add shapes {first} and {other}"
                )
        return first


class Concat(LayerSpec):
    """Channel concatenation of branches with matching spatial dims."""

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        if len(inputs) < 2:
            raise ShapeError(f"{self.name}: Concat needs >= 2 inputs")
        h, w = inputs[0].height, inputs[0].width
        channels = 0
        for s in inputs:
            if (s.height, s.width) != (h, w):
                raise ShapeError(
                    f"{self.name}: spatial mismatch {s} vs ({h}, {w})"
                )
            channels += s.channels
        return TensorShape(h, w, channels)
