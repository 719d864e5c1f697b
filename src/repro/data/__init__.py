"""Data substrate: synthetic datasets, loaders, partitioning and injection.

The paper trains on CIFAR-10/100, ImageNet-1K and WikiText-103.  Those are
replaced by synthetic datasets with the same *structural* properties the
experiments rely on (class labels for IID / non-IID splits, a token stream
for the language-model workload).

The partitioning schemes — DefDP (default disjoint chunks) and SelDP (the
paper's circular-queue rotation, Fig. 7) — and the randomized data-injection
mechanism for non-IID data (§III-E) live here as well.

A step's data is one block: each worker's :class:`DataLoader` hands out an
index row, the cluster indexes the dataset once for all N rows, and injection
appends its pool along the block's batch axis.  Dataset arrays are
read-only, so the runs of one scenario share one built bundle.
"""

from repro.data.datasets import (
    ClassificationDataset,
    SequenceDataset,
    make_classification_dataset,
    make_classification_splits,
    make_sequence_dataset,
    make_sequence_splits,
    DATASET_REGISTRY,
    build_dataset,
    DatasetBundle,
)
from repro.data.loader import DataLoader
from repro.data.partition import (
    Partitioner,
    DefaultPartitioner,
    SelSyncPartitioner,
    partition_layout,
)
from repro.data.noniid import LabelSkewPartitioner, label_distribution
from repro.data.injection import DataInjection, adjusted_batch_size

__all__ = [
    "ClassificationDataset",
    "SequenceDataset",
    "make_classification_dataset",
    "make_classification_splits",
    "make_sequence_dataset",
    "make_sequence_splits",
    "DATASET_REGISTRY",
    "build_dataset",
    "DatasetBundle",
    "DataLoader",
    "Partitioner",
    "DefaultPartitioner",
    "SelSyncPartitioner",
    "partition_layout",
    "LabelSkewPartitioner",
    "label_distribution",
    "DataInjection",
    "adjusted_batch_size",
]
