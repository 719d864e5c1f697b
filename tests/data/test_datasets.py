"""Tests for synthetic datasets and the dataset registry."""

import hashlib

import numpy as np
import pytest

from repro.data.datasets import (
    DATASET_REGISTRY,
    ClassificationDataset,
    SequenceDataset,
    _markov_transition_matrix,
    _sample_markov_stream,
    build_dataset,
    make_classification_dataset,
    make_sequence_dataset,
    make_sequence_splits,
)


def _sha(tokens):
    return hashlib.sha256(np.ascontiguousarray(tokens, dtype=np.int64).tobytes()).hexdigest()


class TestClassificationDataset:
    def test_length_and_indexing(self):
        ds = make_classification_dataset(100, 5, 8, seed=0)
        assert len(ds) == 100
        x, y = ds[np.array([0, 1, 2])]
        assert x.shape == (3, 8)
        assert y.shape == (3,)

    def test_every_class_present(self):
        ds = make_classification_dataset(200, 10, 8, seed=0)
        assert set(np.unique(ds.targets).tolist()) == set(range(10))

    def test_labels_in_range(self):
        ds = make_classification_dataset(64, 4, 8, seed=1)
        assert ds.targets.min() >= 0 and ds.targets.max() < 4

    def test_class_separation_matters(self):
        """Larger class_sep should spread the class centroids further apart."""
        tight = make_classification_dataset(500, 4, 16, class_sep=0.5, noise=1.0, seed=0)
        wide = make_classification_dataset(500, 4, 16, class_sep=6.0, noise=1.0, seed=0)

        def centroid_spread(ds):
            centroids = np.stack([ds.inputs[ds.targets == c].mean(axis=0) for c in range(4)])
            return np.linalg.norm(centroids - centroids.mean(axis=0), axis=1).mean()

        assert centroid_spread(wide) > centroid_spread(tight)

    def test_deterministic_with_seed(self):
        a = make_classification_dataset(50, 3, 4, seed=5)
        b = make_classification_dataset(50, 3, 4, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_subset(self):
        ds = make_classification_dataset(50, 3, 4, seed=0)
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.inputs[0], ds.inputs[1])

    def test_sample_bytes_positive(self):
        ds = make_classification_dataset(10, 2, 4, seed=0)
        assert ds.sample_bytes > 0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((4, 2, 2)), np.zeros(4, dtype=np.int64), 2)
        with pytest.raises(TypeError):
            ClassificationDataset(np.zeros((4, 2)), np.zeros(4), 2)
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((4, 2)), np.array([0, 1, 2, 5]), 3)
        with pytest.raises(ValueError):
            make_classification_dataset(3, 10, 4)


class TestSequenceDataset:
    def test_window_shapes(self):
        ds = make_sequence_dataset(1000, 20, bptt=8, seed=0)
        x, y = ds[np.array([0, 1])]
        assert x.shape == (2, 8)
        assert y.shape == (2, 8)

    def test_targets_are_shifted_inputs(self):
        ds = make_sequence_dataset(500, 10, bptt=4, seed=0)
        x, y = ds[0]
        np.testing.assert_array_equal(x[1:], y[:-1])

    def test_tokens_within_vocab(self):
        ds = make_sequence_dataset(500, 12, bptt=4, seed=0)
        assert ds.tokens.min() >= 0 and ds.tokens.max() < 12

    def test_markov_structure_learnable(self):
        """The banded transition should make some successors far more likely."""
        ds = make_sequence_dataset(20_000, 20, bptt=4, bandwidth=3, seed=0)
        tokens = ds.tokens
        transitions = np.zeros((20, 20))
        np.add.at(transitions, (tokens[:-1], tokens[1:]), 1)
        row = transitions[5] / max(transitions[5].sum(), 1)
        assert row.max() > 3.0 / 20  # far above uniform probability

    def test_length_counts_nonoverlapping_windows(self):
        ds = make_sequence_dataset(101, 10, bptt=10, seed=0)
        assert len(ds) == 10

    def test_subset(self):
        ds = make_sequence_dataset(500, 10, bptt=5, seed=0)
        sub = ds.subset(np.array([0, 2]))
        assert len(sub) >= 2

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            make_sequence_dataset(100, 1)
        with pytest.raises(ValueError):
            SequenceDataset(np.arange(3), bptt=5, vocab_size=10)
        with pytest.raises(TypeError):
            SequenceDataset(np.zeros(100), bptt=5, vocab_size=10)


def _searchsorted_walk(num_tokens, probs, rng):
    """The per-token ``np.searchsorted`` walk the bisect walk replaced."""
    cdf = np.cumsum(probs, axis=1)
    stream = np.empty(num_tokens, dtype=np.int64)
    stream[0] = rng.integers(0, probs.shape[0])
    uniforms = rng.random(num_tokens)
    for t in range(1, num_tokens):
        stream[t] = min(np.searchsorted(cdf[stream[t - 1]], uniforms[t]), probs.shape[0] - 1)
    return stream


class TestMarkovSampler:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_the_searchsorted_walk(self, seed):
        for vocab in (2, 3, 17, 200):
            for bandwidth in (1, 5):
                for temperature in (0.0, 0.4, 2.0):
                    probs = _markov_transition_matrix(
                        vocab, bandwidth, temperature, np.random.default_rng(seed)
                    )
                    got = _sample_markov_stream(300, probs, np.random.default_rng(seed + 50))
                    want = _searchsorted_walk(300, probs, np.random.default_rng(seed + 50))
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, want)

    def test_draws_past_the_last_cdf_entry_stay_in_the_vocabulary(self):
        # Rows summing to 0.5: half of all draws land past the last entry.
        stream = _sample_markov_stream(50, np.full((4, 4), 0.125), np.random.default_rng(0))
        assert stream.shape == (50,)
        assert stream.min() >= 0 and stream.max() < 4
        assert (stream == 3).any()

    def test_needs_one_token(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="num_tokens"):
            _sample_markov_stream(0, probs, np.random.default_rng(0))


class TestPinnedGenerator:
    """sha256 of streams the per-token ``np.searchsorted`` walk produced."""

    @pytest.mark.parametrize(
        "seed,train,test",
        [
            (0, "a881fbe2643ad310d5dc76fe56fff4eb38b0b72c9aa306d2fbaa05c509ea608b",
             "e36209e3b891f5a1660750059a1c757fd09dc22e1797f9b601560176213b6708"),
            (7, "8199754417bf24f0cca3711db7114618c65132e25fed549c8509a7639265ae00",
             "fc3a1a76110434704bf37cbc0180cc500d4661743760fa0d644b482a45916f1f"),
        ],
    )
    def test_wikitext103_streams(self, seed, train, test):
        bundle = build_dataset("wikitext103", seed=seed)
        assert (bundle.train.tokens.size, bundle.test.tokens.size) == (60_000, 7_500)
        assert _sha(bundle.train.tokens) == train
        assert _sha(bundle.test.tokens) == test

    def test_small_splits(self):
        train, test = make_sequence_splits(600, 600, 12, bptt=6, seed=0)
        assert _sha(train.tokens) == (
            "f8c22a3e294598c2ba8762b69cb9bd2409d6bc80a7a724f9cbd77d3493bb6d31"
        )
        assert _sha(test.tokens) == (
            "e78894ffdb881120c95671993cb7c572549252c23991bef3a09d3b312359485b"
        )

    @pytest.mark.parametrize(
        "seed,token,next_draw",
        [(1, 94, 0.14415961271963373), (2, 167, 0.8142257405942803),
         (3, 162, 0.8012744652063969)],
    )
    def test_one_token_draws_what_it_did(self, seed, token, next_draw):
        # The first token and the uniforms come off the generator in the same
        # order, so the generator is left in the same state too.
        probs = _markov_transition_matrix(200, 5, 0.4, np.random.default_rng(0))
        rng = np.random.default_rng(seed)
        assert _sample_markov_stream(1, probs, rng).tolist() == [token]
        assert rng.random() == next_draw

    def test_two_token_vocabulary(self):
        ds = make_sequence_dataset(40, 2, bptt=4, seed=5)
        assert ds.tokens.tolist() == [
            1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1,
            1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1,
        ]


def _window_loop(ds, idx):
    """The per-window slice + ``np.stack`` lookup the gather replaced."""
    starts = np.atleast_1d(np.asarray(idx, dtype=np.int64)) * ds.bptt
    x = np.stack([ds.tokens[s : s + ds.bptt] for s in starts])
    y = np.stack([ds.tokens[s + 1 : s + ds.bptt + 1] for s in starts])
    if np.ndim(idx) == 0:
        return x[0], y[0]
    return x, y


class TestSequenceWindows:
    @pytest.fixture
    def ds(self):
        return make_sequence_dataset(1000, 20, bptt=8, seed=1)

    def _check(self, got, want):
        for a, b in zip(got, want):
            assert a.dtype == np.int64 and a.flags.c_contiguous
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("idx", [0, 5, np.int64(3), np.array(4)])
    def test_scalar_index(self, ds, idx):
        self._check(ds[idx], _window_loop(ds, idx))
        assert ds[idx][0].shape == (8,)

    @pytest.mark.parametrize("idx", [np.array([0, 3, 9]), [1, 2], np.arange(16)])
    def test_index_array(self, ds, idx):
        self._check(ds[idx], _window_loop(ds, idx))

    def test_last_window(self, ds):
        last = len(ds) - 1
        self._check(ds[last], _window_loop(ds, last))
        self._check(ds[np.array([last])], _window_loop(ds, np.array([last])))
        assert ds[last][1][-1] == ds.tokens[(last + 1) * 8]

    def test_empty_index(self, ds):
        x, y = ds[np.array([], dtype=np.int64)]
        assert x.shape == y.shape == (0, 8)
        assert x.dtype == y.dtype == np.int64

    def test_negative_ids_wrap(self, ds):
        self._check(ds[-1], ds[len(ds) - 1])
        self._check(ds[np.array([-2, 0])], ds[np.array([len(ds) - 2, 0])])

    def test_ids_past_the_end_raise(self):
        ds = SequenceDataset(np.arange(50), bptt=16, vocab_size=50)
        assert len(ds) == 3
        with pytest.raises(IndexError):
            ds[len(ds)]
        with pytest.raises(IndexError):
            ds[np.array([0, 3])]
        with pytest.raises(IndexError):
            ds.subset(np.array([2, 3]))

    def test_windows_are_copies(self, ds):
        x, y = ds[2]
        before = ds.tokens.copy()
        x[:] = -1
        y[:] = -1
        np.testing.assert_array_equal(ds.tokens, before)

    def test_subset_concatenates_the_windows(self, ds):
        indices = np.array([0, 7, 3, len(ds) - 1])
        pieces = [ds.tokens[s : s + 9] for s in indices * 8]
        sub = ds.subset(indices)
        np.testing.assert_array_equal(sub.tokens, np.concatenate(pieces))
        assert (sub.bptt, sub.vocab_size) == (8, 20)
        with pytest.raises(ValueError):
            ds.subset(np.array([], dtype=np.int64))


class TestRegistry:
    @pytest.mark.parametrize("name,classes", [("cifar10", 10), ("cifar100", 100)])
    def test_cifar_analogs(self, name, classes):
        bundle = build_dataset(name, seed=0, train_samples=512, test_samples=256)
        assert bundle.task == "classification"
        assert bundle.train.num_classes == classes
        assert len(bundle.test) == 256

    def test_imagenet_analog_top_level_metadata(self):
        bundle = build_dataset("imagenet1k", seed=0, train_samples=512, test_samples=256)
        assert bundle.metadata["paper_train_samples"] == 1_280_000

    def test_wikitext_analog_is_language_modeling(self):
        bundle = build_dataset("wikitext103", seed=0, num_tokens=2000, bptt=8)
        assert bundle.task == "language_modeling"
        assert bundle.train.bptt == 8

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            build_dataset("mnist")

    def test_registry_contains_paper_datasets(self):
        for name in ("cifar10", "cifar100", "imagenet1k", "wikitext103"):
            assert name in DATASET_REGISTRY
