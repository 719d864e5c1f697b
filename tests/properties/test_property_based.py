"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import SignSGDCompressor, TopKCompressor
from repro.core.gradient_tracker import TrackerBank
from repro.data.injection import adjusted_batch_size
from repro.data.partition import DefaultPartitioner, SelSyncPartitioner
from repro.metrics.lssr import communication_reduction, lssr
from repro.nn.losses import cross_entropy_with_logits, log_softmax
from repro.utils.flatten import flatten_arrays, unflatten_vector


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestFlattenProperties:
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_flatten_unflatten_roundtrip(self, shapes, seed):
        rng = np.random.default_rng(seed)
        tree = {f"p{i}": rng.standard_normal(shape) for i, shape in enumerate(shapes)}
        vec, spec = flatten_arrays(tree)
        rebuilt = unflatten_vector(vec, spec)
        assert vec.size == sum(int(np.prod(s)) for s in shapes)
        for name in tree:
            np.testing.assert_array_equal(rebuilt[name], tree[name])


class _ScalarTracker:
    """Per-worker reference: the scalar EWMA / Δ(gᵢ) recursion, one Python float at a time."""

    def __init__(self, alpha, eps=1e-12):
        self.alpha, self.eps = alpha, eps
        self.smoothed = None
        self.max_delta = 0.0

    def update(self, raw):
        if self.smoothed is None:
            smoothed, delta = raw, 0.0
        else:
            smoothed = self.alpha * raw + (1.0 - self.alpha) * self.smoothed
            delta = abs(smoothed - self.smoothed) / max(abs(self.smoothed), self.eps)
        self.smoothed = smoothed
        self.max_delta = max(self.max_delta, delta)
        return delta


class TestTrackerBankProperties:
    @given(data=st.data(), num_workers=st.integers(1, 16), steps=st.integers(1, 30),
           alpha=st.floats(min_value=0.01, max_value=1.0),
           threshold=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_bank_equals_scalar_recursion(self, data, num_workers, steps, alpha, threshold):
        """Δ, flags and running max are bit-equal to N scalar trackers under crash/rejoin."""
        raws = data.draw(hnp.arrays(
            np.float64, (steps, num_workers),
            elements=st.floats(min_value=1e-6, max_value=1e6),
        ))
        masks = data.draw(hnp.arrays(np.bool_, (steps, num_workers)))
        bank = TrackerBank(num_workers, alpha=alpha)
        reference = [_ScalarTracker(alpha) for _ in range(num_workers)]
        for raw, active in zip(raws, masks):
            deltas = bank.update(raw, active)
            expected = [
                ref.update(float(x)) if live else 0.0
                for ref, x, live in zip(reference, raw, active)
            ]
            assert deltas.tolist() == expected
            flags = active & (deltas >= threshold)
            assert flags.tolist() == [live and d >= threshold for d, live in zip(expected, active)]
        assert bank.max_delta.tolist() == [ref.max_delta for ref in reference]
        assert bank.seen.tolist() == [ref.smoothed is not None for ref in reference]

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=100),
           alpha=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_smoothed_value_bounded_by_observations(self, values, alpha):
        bank = TrackerBank(1, alpha=alpha)
        for v in values:
            bank.update([v], [True])
            assert min(values) - 1e-9 <= bank.smoothed[0] <= max(values) + 1e-9


class TestPartitionProperties:
    @given(
        dataset_size=st.integers(8, 500),
        num_workers=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_defdp_is_a_partition(self, dataset_size, num_workers, seed):
        if dataset_size < num_workers:
            dataset_size = num_workers
        result = DefaultPartitioner(seed=seed).partition(dataset_size, num_workers)
        combined = np.sort(np.concatenate(result.worker_indices))
        np.testing.assert_array_equal(combined, np.arange(dataset_size))

    @given(
        dataset_size=st.integers(8, 500),
        num_workers=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_seldp_is_a_permutation_for_every_rank(self, dataset_size, num_workers, seed):
        if dataset_size < num_workers:
            dataset_size = num_workers
        result = SelSyncPartitioner(seed=seed).partition(dataset_size, num_workers)
        for idx in result.worker_indices:
            np.testing.assert_array_equal(np.sort(idx), np.arange(dataset_size))


class TestInjectionProperties:
    @given(
        batch=st.integers(1, 512),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        beta=st.floats(min_value=0.0, max_value=1.0),
        workers=st.integers(1, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_bprime_bounded_and_monotone(self, batch, alpha, beta, workers):
        b_prime = adjusted_batch_size(batch, alpha, beta, workers)
        assert 1 <= b_prime <= batch
        # Effective batch after injection stays within ~1 sample of the target.
        effective = b_prime * (1 + alpha * beta * workers)
        assert effective >= batch - (1 + alpha * beta * workers)


class TestLSSRProperties:
    @given(local=st.integers(0, 10_000), sync=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_lssr_in_unit_interval(self, local, sync):
        value = lssr(local, sync)
        assert 0.0 <= value <= 1.0
        if value < 1.0:
            assert communication_reduction(value) >= 1.0


class TestSoftmaxProperties:
    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 8), st.integers(2, 10)),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_a_distribution(self, logits):
        probs = np.exp(log_softmax(logits))
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    @given(
        logits=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 6), st.integers(2, 8)),
            elements=st.floats(min_value=-20, max_value=20, allow_nan=False),
        ),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_cross_entropy_nonnegative_and_grad_sums_to_zero(self, logits, seed):
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, logits.shape[-1], size=logits.shape[0])
        loss, grad = cross_entropy_with_logits(logits, targets)
        assert loss >= 0.0
        np.testing.assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-9)


class TestCompressorProperties:
    @given(
        vector=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(4, 256),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        )
    )
    # mean(|v|) of this vector underflows to 0.0; the scale must stay positive.
    @example(vector=np.array([5e-324, 0.0, 0.0, 0.0]))
    @settings(max_examples=40, deadline=None)
    def test_signsgd_preserves_signs(self, vector):
        out = SignSGDCompressor().roundtrip(vector)
        nonzero = vector != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(vector[nonzero]))

    @given(
        vector=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(10, 300),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        ratio=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_topk_error_never_exceeds_norm(self, vector, ratio):
        comp = TopKCompressor(ratio=ratio)
        out = comp.roundtrip(vector)
        assert np.linalg.norm(vector - out) <= np.linalg.norm(vector) + 1e-9
        # Top-k keeps actual entries, so reconstruction magnitudes never exceed originals.
        assert np.all(np.abs(out) <= np.abs(vector) + 1e-12)
