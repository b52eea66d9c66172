"""Tests for layer descriptors and the DAG network."""

import pytest

from repro.errors import ShapeError
from repro.nn.graph import Network
from repro.nn.layers import (
    Activation,
    Add,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GEMMShape,
    GlobalAvgPool,
    Pool,
    TensorShape,
)

IN224 = TensorShape(224, 224, 3)


class TestTensorShape:
    def test_elements_and_bytes(self):
        s = TensorShape(4, 5, 6)
        assert s.elements == 120
        assert s.bytes() == 120
        assert s.bytes(2) == 240

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            TensorShape(0, 5, 5)


class TestConv2D:
    def test_output_shape_same_padding(self):
        conv = Conv2D("c", 64, kernel=3)
        assert conv.output_shape([IN224]) == TensorShape(224, 224, 64)

    def test_output_shape_stride(self):
        conv = Conv2D("c", 64, kernel=7, stride=2, padding=3)
        assert conv.output_shape([IN224]) == TensorShape(112, 112, 64)

    def test_alexnet_first_layer(self):
        conv = Conv2D("c", 96, kernel=11, stride=4, padding=2)
        assert conv.output_shape([IN224]) == TensorShape(55, 55, 96)

    def test_macs_formula(self):
        conv = Conv2D("c", 64, kernel=3)
        s = TensorShape(8, 8, 16)
        # 8*8 positions * 64 outputs * 3*3*16 reduction
        assert conv.macs([s]) == 64 * 64 * 9 * 16

    def test_params_with_bias(self):
        conv = Conv2D("c", 64, kernel=3)
        assert conv.params([TensorShape(8, 8, 16)]) == 64 * 9 * 16 + 64

    def test_params_without_bias(self):
        conv = Conv2D("c", 64, kernel=3, bias=False)
        assert conv.params([TensorShape(8, 8, 16)]) == 64 * 9 * 16

    def test_gemm_lowering(self):
        conv = Conv2D("c", 64, kernel=3)
        g = conv.gemm([TensorShape(8, 8, 16)])
        assert g == GEMMShape(m=64, k=144, n=64, groups=1)
        assert g.macs == conv.macs([TensorShape(8, 8, 16)])

    def test_grouped_conv(self):
        conv = Conv2D("c", 32, kernel=3, groups=4)
        g = conv.gemm([TensorShape(8, 8, 16)])
        assert g.groups == 4
        assert g.m == 8
        assert g.k == 9 * 4

    def test_groups_must_divide(self):
        conv = Conv2D("c", 30, kernel=3, groups=4)
        with pytest.raises(ShapeError):
            conv.output_shape([TensorShape(8, 8, 16)])

    def test_collapsed_output_rejected(self):
        conv = Conv2D("c", 8, kernel=9, padding=0)
        with pytest.raises(ShapeError):
            conv.output_shape([TensorShape(4, 4, 3)])

    def test_multiple_inputs_rejected(self):
        conv = Conv2D("c", 8, kernel=1)
        with pytest.raises(ShapeError):
            conv.output_shape([IN224, IN224])


class TestDepthwise:
    def test_output_preserves_channels(self):
        dw = DepthwiseConv2D("dw", kernel=3, stride=2)
        assert dw.output_shape([TensorShape(16, 16, 32)]) == TensorShape(8, 8, 32)

    def test_gemm_one_filter_per_channel(self):
        dw = DepthwiseConv2D("dw", kernel=3)
        g = dw.gemm([TensorShape(16, 16, 32)])
        assert g.m == 1
        assert g.k == 9
        assert g.groups == 32

    def test_macs_cheaper_than_full_conv(self):
        s = TensorShape(16, 16, 32)
        dw = DepthwiseConv2D("dw", kernel=3)
        full = Conv2D("c", 32, kernel=3)
        assert dw.macs([s]) * 32 == full.macs([s])

    def test_params(self):
        dw = DepthwiseConv2D("dw", kernel=3)
        assert dw.params([TensorShape(16, 16, 32)]) == 32 * 9 + 32


class TestDense:
    def test_flattens_input(self):
        d = Dense("fc", 10)
        assert d.output_shape([TensorShape(6, 6, 256)]) == TensorShape(1, 1, 10)

    def test_gemm(self):
        d = Dense("fc", 10)
        g = d.gemm([TensorShape(6, 6, 256)])
        assert g == GEMMShape(m=10, k=9216, n=1)

    def test_params(self):
        d = Dense("fc", 10)
        assert d.params([TensorShape(1, 1, 20)]) == 210


class TestPoolAndFriends:
    def test_maxpool(self):
        p = Pool("p", kernel=3, stride=2)
        assert p.output_shape([TensorShape(55, 55, 96)]) == TensorShape(27, 27, 96)

    def test_pool_defaults_stride_to_kernel(self):
        p = Pool("p", kernel=2)
        assert p.output_shape([TensorShape(8, 8, 4)]) == TensorShape(4, 4, 4)

    def test_pool_rejects_bad_mode(self):
        with pytest.raises(ShapeError):
            Pool("p", kernel=2, mode="median")

    def test_global_avg_pool(self):
        g = GlobalAvgPool("gap")
        assert g.output_shape([TensorShape(7, 7, 2048)]) == TensorShape(1, 1, 2048)

    def test_pools_have_no_macs_or_gemm(self):
        p = Pool("p", kernel=2)
        assert p.macs([TensorShape(8, 8, 4)]) == 0
        assert p.gemm([TensorShape(8, 8, 4)]) is None

    def test_activation_passthrough(self):
        a = Activation("act", kind="relu")
        assert a.output_shape([IN224]) == IN224

    def test_batchnorm_params(self):
        bn = BatchNorm("bn")
        assert bn.params([TensorShape(8, 8, 64)]) == 128

    def test_batchnorm_passthrough_and_repr(self):
        bn = BatchNorm("bn")
        assert bn.output_shape([IN224]) == IN224
        assert repr(bn) == "BatchNorm('bn')"


class TestAddConcat:
    def test_add_same_shapes(self):
        a = Add("add")
        s = TensorShape(7, 7, 64)
        assert a.output_shape([s, s]) == s

    def test_add_rejects_mismatch(self):
        a = Add("add")
        with pytest.raises(ShapeError):
            a.output_shape([TensorShape(7, 7, 64), TensorShape(7, 7, 32)])

    def test_add_needs_two_inputs(self):
        with pytest.raises(ShapeError):
            Add("add").output_shape([IN224])

    def test_concat_channels(self):
        c = Concat("cat")
        out = c.output_shape([TensorShape(7, 7, 64), TensorShape(7, 7, 32)])
        assert out == TensorShape(7, 7, 96)

    def test_concat_rejects_spatial_mismatch(self):
        c = Concat("cat")
        with pytest.raises(ShapeError):
            c.output_shape([TensorShape(7, 7, 64), TensorShape(8, 8, 32)])


class TestNetwork:
    def _chain(self):
        net = Network("tiny", TensorShape(8, 8, 3))
        net.add(Conv2D("c1", 4, kernel=3))
        net.add(Pool("p1", kernel=2))
        net.add(Dense("fc", 10, fused_activation=False))
        return net

    def test_shapes_resolve(self):
        net = self._chain()
        assert net.shape_of("c1") == TensorShape(8, 8, 4)
        assert net.shape_of("p1") == TensorShape(4, 4, 4)
        assert net.output_shape == TensorShape(1, 1, 10)

    def test_stats_totals(self):
        net = self._chain()
        s = net.stats()
        assert s.total_macs == 8 * 8 * 4 * 27 + 10 * 64
        assert s.n_weight_layers == 2
        assert len(s.layers) == 3

    def test_branching(self):
        net = Network("branch", TensorShape(8, 8, 4))
        a = net.add(Conv2D("a", 4, kernel=1))
        b = net.add(Conv2D("b", 4, kernel=1), "input")
        net.add(Add("sum"), [a, b])
        assert net.output_shape == TensorShape(8, 8, 4)

    def test_duplicate_name_rejected(self):
        net = Network("n", IN224)
        net.add(Conv2D("c", 4, kernel=1))
        with pytest.raises(ShapeError):
            net.add(Conv2D("c", 8, kernel=1))

    def test_unknown_input_rejected(self):
        net = Network("n", IN224)
        with pytest.raises(ShapeError):
            net.add(Conv2D("c", 4, kernel=1), "ghost")

    def test_layer_lookup(self):
        net = self._chain()
        assert net.layer("c1").name == "c1"
        with pytest.raises(ShapeError):
            net.layer("nope")
        assert "c1" in net
        assert len(net) == 3

    def test_inputs_of(self):
        net = self._chain()
        assert net.inputs_of("c1") == ["input"]
        assert net.inputs_of("p1") == ["c1"]

    def test_compute_layers_only_weighted(self):
        net = self._chain()
        names = [s.name for s in net.compute_layers()]
        assert names == ["c1", "fc"]

    def test_activation_totals(self):
        net = self._chain()
        # Only c1 has fused activation: 8*8*4 elements.
        assert net.stats().total_activations == 256
