"""Synthetic datasets standing in for CIFAR-10/100, ImageNet-1K and WikiText-103.

Classification data is drawn from a Gaussian mixture with one component per
class: class centers are random unit vectors scaled by ``class_sep`` and
samples add isotropic noise.  This yields realistic learning curves (rapid
early progress, a plateau, further gains after LR decay) while keeping every
label structure needed for the IID / non-IID experiments.

Language-model data is a first-order Markov chain over a synthetic vocabulary
with a banded transition matrix, so there is real sequential structure for a
Transformer to learn and perplexity decreases smoothly during training.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import new_rng


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's own array stays writable).

    Dataset arrays never change after construction: batches are fancy-index
    copies, and the runs of one scenario share one built dataset
    (:func:`repro.scenarios.runner.run_scenario`).
    """
    view = array.view()
    view.flags.writeable = False
    return view


class ClassificationDataset:
    """In-memory classification dataset: ``inputs`` (n, d) and ``targets`` (n,)."""

    def __init__(
        self, inputs: np.ndarray, targets: np.ndarray, num_classes: int, name: str = ""
    ) -> None:
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D (n, d), got shape {inputs.shape}")
        if targets.ndim != 1 or targets.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"targets must be 1-D with length {inputs.shape[0]}, got {targets.shape}"
            )
        if not np.issubdtype(targets.dtype, np.integer):
            raise TypeError("targets must be integer class ids")
        if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
            raise ValueError("target labels out of range for num_classes")
        self.inputs = _read_only(inputs)
        self.targets = _read_only(targets.astype(np.int64))
        self.num_classes = int(num_classes)
        self.name = name

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def __getitem__(self, idx) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[idx], self.targets[idx]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def sample_bytes(self) -> int:
        """Size of one training sample in bytes (float32 transport)."""
        return self.inputs.shape[1] * 4 + 8

    def subset(self, indices: np.ndarray) -> "ClassificationDataset":
        """View of the dataset restricted to ``indices`` (copies the arrays)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ClassificationDataset(
            self.inputs[indices], self.targets[indices], self.num_classes, name=self.name
        )


class SequenceDataset:
    """Next-token-prediction dataset of fixed-length windows over a token stream."""

    def __init__(
        self, token_stream: np.ndarray, bptt: int, vocab_size: int, name: str = ""
    ) -> None:
        token_stream = np.asarray(token_stream)
        if not np.issubdtype(token_stream.dtype, np.integer):
            raise TypeError("token stream must hold integer token ids")
        if bptt < 1:
            raise ValueError(f"bptt must be >= 1, got {bptt}")
        if token_stream.size < bptt + 1:
            raise ValueError("token stream shorter than one bptt window")
        self.tokens = _read_only(token_stream.astype(np.int64))
        self.bptt = int(bptt)
        self.vocab_size = int(vocab_size)
        self.name = name
        # Non-overlapping windows, like sequential bptt batching in the paper.
        self._starts = _read_only(np.arange((self.tokens.size - 1) // self.bptt) * self.bptt)
        self._span = _read_only(np.arange(self.bptt + 1))

    def __len__(self) -> int:
        return self._starts.size

    def _windows(self, idx) -> np.ndarray:
        """``(..., bptt + 1)`` token windows in one gather.

        Window ids follow NumPy's indexing rules: negative ids wrap, ids past
        the end raise ``IndexError``.
        """
        return self.tokens[self._starts[idx][..., None] + self._span]

    def __getitem__(self, idx) -> Tuple[np.ndarray, np.ndarray]:
        windows = self._windows(idx)
        return windows[..., :-1].copy(), windows[..., 1:].copy()

    @property
    def input_dim(self) -> int:
        return self.bptt

    @property
    def num_classes(self) -> int:
        return self.vocab_size

    @property
    def sample_bytes(self) -> int:
        return self.bptt * 8 * 2

    @property
    def targets(self) -> np.ndarray:
        """Per-window pseudo-label (first target token), used only by partitioners."""
        return self.tokens[self._starts + 1]

    def subset(self, indices: np.ndarray) -> "SequenceDataset":
        """Dataset over the concatenated ``bptt + 1``-token windows ``indices``."""
        stream = self._windows(np.asarray(indices, dtype=np.int64)).ravel()
        return SequenceDataset(stream, self.bptt, self.vocab_size, name=self.name)


@dataclass
class DatasetBundle:
    """Train/test pair plus workload metadata used by the experiment harness."""

    train: object
    test: object
    task: str  # "classification" or "language_modeling"
    name: str = ""
    metadata: Dict[str, float] = field(default_factory=dict)


def make_classification_dataset(
    num_samples: int,
    num_classes: int,
    input_dim: int,
    class_sep: float = 3.0,
    noise: float = 1.0,
    seed: Optional[int] = 0,
    name: str = "synthetic-classification",
    centers: Optional[np.ndarray] = None,
) -> ClassificationDataset:
    """Gaussian-mixture classification data with one component per class.

    ``centers`` can be passed explicitly so multiple datasets (e.g. a train
    and a test split) are drawn from the *same* mixture; otherwise centers are
    derived from ``seed``.
    """
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = new_rng(seed)
    if centers is None:
        centers = rng.standard_normal((num_classes, input_dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True) + 1e-12
        centers *= class_sep
    else:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape != (num_classes, input_dim):
            raise ValueError(
                f"centers must have shape ({num_classes}, {input_dim}), got {centers.shape}"
            )
    labels = rng.integers(0, num_classes, size=num_samples)
    # Guarantee every class appears at least once so non-IID splits are valid.
    labels[:num_classes] = np.arange(num_classes)
    rng.shuffle(labels)
    samples = centers[labels] + noise * rng.standard_normal((num_samples, input_dim))
    return ClassificationDataset(samples, labels, num_classes, name=name)


def make_classification_splits(
    num_train: int,
    num_test: int,
    num_classes: int,
    input_dim: int,
    class_sep: float = 3.0,
    noise: float = 1.0,
    seed: Optional[int] = 0,
    name: str = "synthetic-classification",
) -> Tuple[ClassificationDataset, ClassificationDataset]:
    """Train/test datasets sampled from the *same* Gaussian mixture.

    Drawing the class centers once and sampling both splits from them is what
    makes test accuracy a meaningful generalization metric.
    """
    rng = new_rng(seed)
    centers = rng.standard_normal((num_classes, input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True) + 1e-12
    centers *= class_sep
    train = make_classification_dataset(
        num_train, num_classes, input_dim, class_sep=class_sep, noise=noise,
        seed=None if seed is None else seed + 1, name=f"{name}-train", centers=centers,
    )
    test = make_classification_dataset(
        num_test, num_classes, input_dim, class_sep=class_sep, noise=noise,
        seed=None if seed is None else seed + 2, name=f"{name}-test", centers=centers,
    )
    return train, test


def make_sequence_dataset(
    num_tokens: int,
    vocab_size: int,
    bptt: int = 16,
    bandwidth: int = 5,
    temperature: float = 0.4,
    seed: Optional[int] = 0,
    name: str = "synthetic-text",
) -> SequenceDataset:
    """Markov-chain token stream with a banded, learnable transition structure."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    rng = new_rng(seed)
    probs = _markov_transition_matrix(vocab_size, bandwidth, temperature, rng)
    stream = _sample_markov_stream(num_tokens, probs, rng)
    return SequenceDataset(stream, bptt=bptt, vocab_size=vocab_size, name=name)


def _markov_transition_matrix(
    vocab_size: int, bandwidth: int, temperature: float, rng: np.random.Generator
) -> np.ndarray:
    """Banded transition probabilities: each token prefers nearby successors."""
    logits = np.full((vocab_size, vocab_size), -6.0)
    for offset in range(1, bandwidth + 1):
        idx = np.arange(vocab_size)
        logits[idx, (idx + offset) % vocab_size] = 2.0 / offset
    logits += temperature * rng.standard_normal((vocab_size, vocab_size))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _sample_markov_stream(
    num_tokens: int, probs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    if num_tokens < 1:
        raise ValueError(f"num_tokens must be >= 1, got {num_tokens}")
    last = probs.shape[0] - 1
    # Inverse-CDF walk over plain Python floats: ``bisect_left`` compares the
    # same float64 values under the same left-side rule as np.searchsorted,
    # without a NumPy dispatch per token.  A draw past a row's last CDF entry
    # (an unnormalised row, or a cumsum that rounds below 1) takes the last
    # token, so the walk never leaves the vocabulary.
    cdf = np.cumsum(probs, axis=1).tolist()
    token = int(rng.integers(0, last + 1))
    stream = [token]
    append = stream.append
    for u in rng.random(num_tokens).tolist()[1:]:
        token = bisect_left(cdf[token], u)
        if token > last:
            token = last
        append(token)
    return np.array(stream, dtype=np.int64)


def make_sequence_splits(
    train_tokens: int,
    test_tokens: int,
    vocab_size: int,
    bptt: int = 16,
    bandwidth: int = 5,
    temperature: float = 0.4,
    seed: Optional[int] = 0,
    name: str = "synthetic-text",
) -> Tuple[SequenceDataset, SequenceDataset]:
    """Train/test token streams drawn from the *same* Markov process."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    rng = new_rng(seed)
    probs = _markov_transition_matrix(vocab_size, bandwidth, temperature, rng)
    train_stream = _sample_markov_stream(train_tokens, probs, rng)
    test_stream = _sample_markov_stream(test_tokens, probs, rng)
    train = SequenceDataset(train_stream, bptt=bptt, vocab_size=vocab_size, name=f"{name}-train")
    test = SequenceDataset(test_stream, bptt=bptt, vocab_size=vocab_size, name=f"{name}-test")
    return train, test


# --------------------------------------------------------------------------- #
# Registry of paper-named dataset analogs
# --------------------------------------------------------------------------- #
DatasetFactory = Callable[..., DatasetBundle]
DATASET_REGISTRY: Dict[str, DatasetFactory] = {}


def register_dataset(name: str, factory: DatasetFactory) -> None:
    key = name.lower()
    if key in DATASET_REGISTRY:
        raise KeyError(f"dataset {name!r} already registered")
    DATASET_REGISTRY[key] = factory


def build_dataset(name: str, seed: int = 0, **kwargs) -> DatasetBundle:
    """Build a registered dataset analog (scaled down unless overridden)."""
    key = name.lower()
    if key not in DATASET_REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}")
    return DATASET_REGISTRY[key](seed=seed, **kwargs)


def _classification_bundle(
    name: str,
    num_classes: int,
    train_samples: int,
    test_samples: int,
    input_dim: int,
    class_sep: float,
    noise: float,
    seed: int,
    paper_samples: int,
) -> DatasetBundle:
    train, test = make_classification_splits(
        train_samples, test_samples, num_classes, input_dim,
        class_sep=class_sep, noise=noise, seed=seed, name=name,
    )
    return DatasetBundle(
        train=train,
        test=test,
        task="classification",
        name=name,
        metadata={"paper_train_samples": paper_samples, "num_classes": num_classes},
    )


def _cifar10_like(seed: int = 0, train_samples: int = 4096, test_samples: int = 1024,
                  input_dim: int = 64, **kw) -> DatasetBundle:
    return _classification_bundle(
        "cifar10", 10, train_samples, test_samples, input_dim,
        class_sep=kw.get("class_sep", 3.5), noise=kw.get("noise", 1.0),
        seed=seed, paper_samples=50_000,
    )


def _cifar100_like(seed: int = 0, train_samples: int = 6144, test_samples: int = 1536,
                   input_dim: int = 64, **kw) -> DatasetBundle:
    return _classification_bundle(
        "cifar100", 100, train_samples, test_samples, input_dim,
        class_sep=kw.get("class_sep", 4.0), noise=kw.get("noise", 1.0),
        seed=seed, paper_samples=50_000,
    )


def _imagenet_like(seed: int = 0, train_samples: int = 8192, test_samples: int = 2048,
                   input_dim: int = 96, num_classes: int = 200, **kw) -> DatasetBundle:
    return _classification_bundle(
        "imagenet1k", num_classes, train_samples, test_samples, input_dim,
        class_sep=kw.get("class_sep", 4.5), noise=kw.get("noise", 1.0),
        seed=seed, paper_samples=1_280_000,
    )


def _wikitext_like(seed: int = 0, num_tokens: int = 60_000, vocab_size: int = 200,
                   bptt: int = 16, **kw) -> DatasetBundle:
    train, test = make_sequence_splits(
        num_tokens, max(num_tokens // 8, bptt * 8), vocab_size, bptt=bptt,
        seed=seed, name="wikitext103",
    )
    return DatasetBundle(
        train=train,
        test=test,
        task="language_modeling",
        name="wikitext103",
        metadata={"paper_tokens": 100_000_000, "vocab_size": vocab_size},
    )


register_dataset("cifar10", _cifar10_like)
register_dataset("cifar100", _cifar100_like)
register_dataset("imagenet1k", _imagenet_like)
register_dataset("imagenet", _imagenet_like)
register_dataset("wikitext103", _wikitext_like)
register_dataset("wikitext", _wikitext_like)
