"""Cross-module integration tests: the paper's headline results end-to-end."""

import numpy as np
import pytest

from repro import InSituTrainer, NoiseModel, TridentAccelerator, TridentConfig
from repro.arch.area import AreaModel
from repro.arch.power import PowerModel
from repro.baselines import photonic_baselines
from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.eval.figures import fig4_photonic_energy, fig6_inferences_per_second
from repro.eval.tables import table3_power, table5_training
from repro.nn import build_model
from repro.nn.datasets import make_teacher, to_analog_range
from repro.nn.quantization import quantize_tensor
from repro.nn.reference import DigitalMLP
from repro.training.trainer import train_classifier


class TestPaperHeadlines:
    """Each assertion is a sentence from the paper's abstract/conclusion."""

    def test_44_pes_256_mrrs_at_30w(self):
        cfg = TridentConfig()
        assert cfg.n_pes == 44
        assert cfg.mrrs_per_pe == 256
        assert PowerModel(cfg).fits_budget()

    def test_chip_under_one_square_inch(self):
        assert AreaModel(TridentConfig()).fits_one_square_inch

    def test_energy_improvement_up_to_43_pct(self):
        report = fig4_photonic_energy()
        best = max(c.measured_value for c in report.comparisons)
        assert best == pytest.approx(43.5, abs=1.5)

    def test_latency_improvement_up_to_150_pct(self):
        report = fig6_inferences_per_second()
        photonic = [c.measured_value for c in report.comparisons
                    if c.metric in ("vs deap-cnn", "vs crosslight", "vs pixel")]
        assert max(photonic) == pytest.approx(150.2, abs=3.0)

    def test_2x_tuning_speedup_vs_thermal(self):
        from repro.devices.tuning import GSTTuning, ThermalTuning

        assert ThermalTuning().write_time_s / GSTTuning().write_time_s == pytest.approx(2.0)

    def test_post_tuning_power_drop(self):
        cfg = TridentConfig()
        assert cfg.pe_total_power_w == pytest.approx(0.676, abs=0.001)
        assert cfg.pe_streaming_power_w == pytest.approx(0.113, abs=0.001)

    def test_table3_and_fig4_use_same_device_parameters(self):
        """The cost model's Trident point must be derived from the same
        config that regenerates Table III."""
        cfg = TridentConfig()
        arch = PhotonicArch.trident(cfg)
        report = table3_power(cfg)
        total_row = [r for r in report.rows if r[0] == "Total"][0]
        assert arch.sizing_power_pe_w * 1e3 == pytest.approx(total_row[1])


class TestInSituVsOfflineMismatch:
    """The paper's motivation (Sec. I): offline-trained weights deployed on
    analog hardware lose accuracy to quantization/noise mismatch; in-situ
    training absorbs it."""

    @pytest.fixture(scope="class")
    def task(self):
        data = make_teacher(n_samples=400, n_features=10, n_classes=3, seed=5)
        data = to_analog_range(data)
        return data.split(0.8, seed=1)

    def _hw(self, dims, weights, noise):
        acc = TridentAccelerator(noise=noise)
        acc.map_mlp(dims)
        acc.set_weights([w.copy() for w in weights])
        return acc

    def test_insitu_training_closes_the_gap(self, task):
        train, test = task
        dims = [10, 14, 3]
        noise = NoiseModel(enabled=True, thermal_noise_std=0.01,
                           shot_noise_coeff=0.01, rin_coeff=0.005, seed=11)

        # Offline: train digitally, deploy onto noisy quantized hardware.
        digital = DigitalMLP(dims, activation="gst", seed=7)
        for epoch in range(8):
            for xb, yb in train.batches(16, seed=epoch):
                digital.train_step(xb, yb, lr=0.3)
        deployed = self._hw(dims, digital.weights, noise)
        offline_acc = float(np.mean(
            np.argmax(deployed.forward_batch(test.x), axis=1) == test.y
        ))

        # In-situ: train on the same noisy hardware.
        acc = self._hw(dims, DigitalMLP(dims, activation="gst", seed=7).weights, noise)
        trainer = InSituTrainer(acc, lr=0.3)
        hist = train_classifier(trainer, train, test, epochs=8, batch_size=16)

        digital_acc = digital.accuracy(test.x, test.y)
        # In-situ hardware accuracy approaches the digital ceiling.
        assert hist.final_test_accuracy >= offline_acc - 0.05
        assert hist.final_test_accuracy >= digital_acc - 0.1


class TestQuantizationResolutionStory:
    """Sec. II-B: 6-bit (thermal) resolution breaks training; 8 bits work."""

    def test_8bit_weights_preserve_accuracy_6bit_degrade_more(self):
        data = make_teacher(n_samples=300, n_features=8, n_classes=3, seed=3)
        data = to_analog_range(data)
        train, test = data.split(0.8, seed=2)
        mlp = DigitalMLP([8, 12, 3], activation="gst", seed=4)
        for epoch in range(10):
            for xb, yb in train.batches(16, seed=epoch):
                mlp.train_step(xb, yb, lr=0.3)
        base = mlp.accuracy(test.x, test.y)

        def quantized_accuracy(bits):
            q = DigitalMLP([8, 12, 3], activation="gst", seed=4)
            q.weights = [quantize_tensor(w, bits).values for w in mlp.weights]
            return q.accuracy(test.x, test.y)

        drop8 = base - quantized_accuracy(8)
        drop4 = base - quantized_accuracy(4)
        assert drop8 <= 0.05
        assert drop4 >= drop8


class TestBudgetScalingConsistency:
    def test_all_archs_scale_with_budget(self):
        for budget in (10.0, 30.0, 60.0):
            for arch in photonic_baselines(budget):
                assert arch.n_pes * arch.sizing_power_pe_w <= budget

    def test_throughput_grows_with_budget(self):
        net = build_model("resnet50")
        ips = []
        for budget in (10.0, 30.0, 60.0):
            arch = [a for a in photonic_baselines(budget) if a.name == "trident"][0]
            ips.append(PhotonicCostModel(arch, batch=128).model_cost(net).inferences_per_second)
        assert ips[0] < ips[1] < ips[2]


class TestTableVShape:
    def test_sign_pattern(self):
        """Trident wins VGG-16 and ResNet-50, loses GoogleNet (the paper's
        crossover); MobileNetV2 is the documented deviation."""
        report = table5_training()
        rows = {r[0]: (r[1], r[2]) for r in report.rows}
        assert rows["vgg16"][1] < rows["vgg16"][0]
        assert rows["resnet50"][1] < rows["resnet50"][0]
        assert rows["googlenet"][1] > rows["googlenet"][0]
