"""Tests for accuracy, evaluation, LSSR, throughput and convergence metrics."""

import numpy as np
import pytest

from repro.cluster.compute_model import PAPER_WORKLOADS
from repro.comm.cost_model import CommunicationCostModel
from repro.data.datasets import make_classification_splits
from repro.metrics.accuracy import accuracy, top_k_accuracy
from repro.metrics.convergence import ConvergenceDetector, better_than
from repro.metrics.evaluation import evaluate_model
from repro.metrics.lssr import LSSRTracker, communication_reduction, lssr
from repro.metrics.throughput import relative_throughput, scaling_efficiency, throughput_curve
from repro.nn.models import MLP


class TestAccuracy:
    def test_perfect_and_zero(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_sequence_logits_flattened(self):
        logits = np.zeros((2, 3, 4))
        logits[..., 2] = 5.0
        targets = np.full((2, 3), 2)
        assert accuracy(logits, targets) == 1.0

    def test_top_k_contains_target(self):
        logits = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        assert top_k_accuracy(logits, np.array([2]), k=3) == 1.0
        assert top_k_accuracy(logits, np.array([0]), k=3) == 0.0

    def test_top_k_never_below_top_1(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((50, 10))
        targets = rng.integers(0, 10, size=50)
        assert top_k_accuracy(logits, targets, k=5) >= accuracy(logits, targets)

    def test_k_larger_than_classes_is_one(self):
        logits = np.random.default_rng(0).standard_normal((10, 3))
        assert top_k_accuracy(logits, np.zeros(10, dtype=np.int64), k=10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(5), np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), k=0)


class TestEvaluateModel:
    def test_classification_metrics_in_range(self):
        train, test = make_classification_splits(128, 64, 4, 8, seed=0)
        model = MLP((8, 16, 4), rng=np.random.default_rng(0))
        result = evaluate_model(model, test, task="classification", batch_size=32)
        assert 0.0 <= result.metric <= 1.0
        assert result.metric_name == "accuracy"
        assert result.num_samples == 64
        assert result.higher_is_better

    def test_top_k_metric_name(self):
        _, test = make_classification_splits(64, 64, 10, 8, seed=0)
        model = MLP((8, 16, 10), rng=np.random.default_rng(0))
        result = evaluate_model(model, test, top_k=5)
        assert result.metric_name == "top5_accuracy"

    def test_language_modeling_perplexity(self):
        from repro.data.datasets import make_sequence_splits
        from repro.nn.models import TransformerLM

        _, test = make_sequence_splits(600, 600, 12, bptt=6, seed=0)
        model = TransformerLM(vocab_size=12, d_model=8, num_heads=2, num_layers=1,
                              dim_feedforward=16, rng=np.random.default_rng(0))
        result = evaluate_model(model, test, task="language_modeling", batch_size=16)
        assert result.metric_name == "perplexity"
        assert result.metric > 1.0
        assert not result.higher_is_better

    def test_max_batches_limits_samples(self):
        _, test = make_classification_splits(64, 64, 4, 8, seed=0)
        model = MLP((8, 8, 4), rng=np.random.default_rng(0))
        result = evaluate_model(model, test, batch_size=16, max_batches=2)
        assert result.num_samples == 32

    def test_restores_training_mode(self):
        _, test = make_classification_splits(64, 64, 4, 8, seed=0)
        model = MLP((8, 8, 4), rng=np.random.default_rng(0))
        model.train()
        evaluate_model(model, test)
        assert model.training

    def test_invalid_task(self):
        _, test = make_classification_splits(64, 64, 4, 8, seed=0)
        model = MLP((8, 8, 4), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            evaluate_model(model, test, task="detection")


def _eval_cases():
    """(model, test dataset, task) for every model family the ledger evaluates."""
    from repro.data.datasets import make_image_splits, make_sequence_splits
    from repro.nn.models import ConvNet, ResNetLike, TransformerLM

    rng = np.random.default_rng(0)
    _, flat = make_classification_splits(64, 70, 4, 8, seed=0)
    _, images = make_image_splits(32, 40, 3, in_channels=1, image_size=6, seed=0)
    _, tokens = make_sequence_splits(600, 600, 12, bptt=6, seed=0)
    return {
        "mlp": (MLP((8, 16, 4), rng=rng), flat, "classification"),
        "resnet": (ResNetLike(input_dim=8, num_classes=4, width=12, depth=2, rng=rng),
                   flat, "classification"),
        "convnet": (ConvNet(in_channels=1, num_classes=3, image_size=6, channels=(2, 3),
                            rng=rng), images, "classification"),
        "transformer": (TransformerLM(vocab_size=12, d_model=8, num_heads=2, num_layers=1,
                                      dim_feedforward=16, rng=rng),
                        tokens, "language_modeling"),
    }


#: Every attribute a layer stashes for ``backward``.
_CACHE_ATTRS = ("_cache", "_cache_x", "_mask", "_out", "_x", "_ids", "_shape")


def _held_caches(model):
    return [
        f"{name}.{attr}"
        for name, module in model.named_modules()
        for attr in _CACHE_ATTRS
        if getattr(module, attr, None) is not None
    ]


class TestInferenceEvaluation:
    @pytest.mark.parametrize("family", ["mlp", "resnet", "convnet", "transformer"])
    def test_matches_training_forward_and_keeps_no_cache(self, family):
        """Bit-identical to the caching forward + full cross-entropy it replaced."""
        from repro.nn.losses import cross_entropy_with_logits, perplexity_from_loss

        model, dataset, task = _eval_cases()[family]
        batch_size = 16  # does not divide either dataset: the last batch is short
        total_loss, total_correct, n = 0.0, 0.0, len(dataset)
        model.eval()
        for start in range(0, n, batch_size):
            idx = np.arange(start, min(start + batch_size, n))
            inputs, targets = dataset[idx]
            logits = model.forward(inputs)
            loss, _ = cross_entropy_with_logits(logits, targets)
            total_loss += loss * idx.size
            total_correct += accuracy(logits, targets) * idx.size
        model.train()
        assert _held_caches(model)  # the training-path forward does cache

        result = evaluate_model(model, dataset, task=task, batch_size=batch_size)
        assert result.loss == total_loss / n
        if task == "language_modeling":
            assert result.metric == perplexity_from_loss(total_loss / n)
        else:
            assert result.metric == total_correct / n
        assert _held_caches(model) == []
        assert model.training
        assert not any(module._inference for _, module in model.named_modules())

    def test_flags_restored_when_evaluation_raises(self):
        model, dataset, _ = _eval_cases()["mlp"]
        _, wrong_width = make_classification_splits(64, 64, 4, 5, seed=0)
        model.train()
        with pytest.raises(ValueError):
            evaluate_model(model, wrong_width)
        assert model.training
        assert not any(module._inference for _, module in model.named_modules())


class TestLSSR:
    def test_eqn4(self):
        assert lssr(90, 10) == pytest.approx(0.9)
        assert lssr(0, 50) == 0.0
        assert lssr(50, 0) == 1.0
        assert lssr(0, 0) == 0.0

    def test_communication_reduction(self):
        """LSSR 0.9 means a 10x communication reduction over BSP."""
        assert communication_reduction(0.9) == pytest.approx(10.0)
        assert communication_reduction(0.0) == 1.0
        assert communication_reduction(1.0) == float("inf")

    def test_tracker_counts(self):
        tracker = LSSRTracker()
        tracker.record_local(8)
        tracker.record_sync(2)
        assert tracker.value == pytest.approx(0.8)
        assert tracker.total_steps == 10
        assert tracker.reduction_factor == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lssr(-1, 5)
        with pytest.raises(ValueError):
            communication_reduction(1.5)
        tracker = LSSRTracker()
        with pytest.raises(ValueError):
            tracker.record_local(-1)


class TestThroughput:
    comm = CommunicationCostModel(topology="ps")

    def test_single_worker_is_one(self):
        spec = PAPER_WORKLOADS["resnet101"]
        assert relative_throughput(spec, 1, 32, self.comm) == pytest.approx(1.0)

    def test_sublinear_scaling(self):
        """Fig. 1a: relative throughput grows far slower than the worker count."""
        spec = PAPER_WORKLOADS["resnet101"]
        t16 = relative_throughput(spec, 16, 32, self.comm)
        assert 1.0 < t16 < 8.0

    def test_larger_model_scales_worse(self):
        """VGG11 (507 MB) scales worse than the Transformer (52 MB)."""
        t_vgg = relative_throughput(PAPER_WORKLOADS["vgg11"], 8, 32, self.comm)
        t_tr = relative_throughput(PAPER_WORKLOADS["transformer"], 8, 20, self.comm)
        assert t_vgg < t_tr

    def test_scaling_efficiency_below_one(self):
        spec = PAPER_WORKLOADS["alexnet"]
        assert scaling_efficiency(spec, 16, 128, self.comm) < 1.0

    def test_throughput_curve_keys(self):
        spec = PAPER_WORKLOADS["resnet101"]
        curve = throughput_curve(spec, [1, 2, 4], 32, self.comm)
        assert set(curve) == {1, 2, 4}

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            relative_throughput(PAPER_WORKLOADS["resnet101"], 0, 32, self.comm)


class TestConvergence:
    def test_better_than_directions(self):
        assert better_than(0.9, 0.8, higher_is_better=True)
        assert better_than(80.0, 90.0, higher_is_better=False)
        assert not better_than(0.8, 0.9, higher_is_better=True)

    def test_stops_after_patience_without_improvement(self):
        detector = ConvergenceDetector(patience=2, min_delta=0.01)
        assert not detector.update(0.5)
        assert not detector.update(0.505)   # below min_delta => stale 1
        assert detector.update(0.501)       # stale 2 => stop

    def test_improvement_resets_patience(self):
        detector = ConvergenceDetector(patience=2, min_delta=0.0)
        detector.update(0.5)
        detector.update(0.4)
        detector.update(0.6)
        assert detector.stale_evals == 0
        assert detector.best == 0.6

    def test_perplexity_mode(self):
        detector = ConvergenceDetector(higher_is_better=False, patience=2)
        detector.update(100.0)
        detector.update(90.0)
        assert detector.best == 90.0

    def test_target_stops_immediately(self):
        detector = ConvergenceDetector(target=0.9, patience=10)
        assert detector.update(0.95)

    def test_converged_metric_requires_updates(self):
        with pytest.raises(RuntimeError):
            _ = ConvergenceDetector().converged_metric

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceDetector(patience=0)
        with pytest.raises(ValueError):
            ConvergenceDetector(min_delta=-1.0)
