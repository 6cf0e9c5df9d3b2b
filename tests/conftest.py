"""Shared fixtures.

The heavy desk-scale fixtures (digit corpus, trained classifier) are
session-scoped so the acceptance suite builds them once. Real MNIST IDX
files are used instead of the synthetic corpus when MNIST_DIR is set and
contains the four standard files.
"""

import os
from pathlib import Path

# one BLAS thread unless the caller sets another count: the suite runs its own
# thread pools, and BLAS threads on top of them oversubscribe a small machine.
# Set before numpy loads, as perfbench and the demo tests do.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

from shiftdetect import digits, nets
from shiftdetect.data import TensorDataset, flatten, load_idx, random_split

DESK_TRAIN, DESK_VAL, DESK_TEST = 5000, 2000, 2000

# property tests replay the same examples on every run and have no time limit,
# so they neither vary between runs nor flake on a slow or shared machine
settings.register_profile("shiftdetect", derandomize=True, deadline=None)
settings.load_profile("shiftdetect")


def _mnist_pool() -> TensorDataset | None:
    root = os.environ.get("MNIST_DIR")
    if not root:
        return None
    root = Path(root)
    images = root / "train-images-idx3-ubyte"
    labels = root / "train-labels-idx1-ubyte"
    if images.exists() and labels.exists():
        return load_idx(images, labels)
    return None


@pytest.fixture(scope="session")
def desk_pool() -> TensorDataset:
    """Pool backing the desk-scale benchmark runs (MNIST if available)."""
    mnist = _mnist_pool()
    if mnist is not None:
        keep = min(mnist.n, DESK_TRAIN + DESK_VAL + DESK_TEST)
        return mnist.subset(np.arange(keep))
    return digits.make_digits(DESK_TRAIN + DESK_VAL + DESK_TEST, seed=424242)


@pytest.fixture(scope="session")
def desk_split(desk_pool):
    return random_split(desk_pool, DESK_TRAIN, DESK_VAL, DESK_TEST, seed=31)


@pytest.fixture(scope="session")
def desk_classifier(desk_split):
    """Label classifier at desk scale; must be strong enough for BBSD/FGSM."""
    cfg = nets.TrainConfig(batch_size=128, lr0=0.1, momentum=0.9,
                           max_epochs=15, patience=5, seed=7)
    clf = nets.train_label_classifier(
        (flatten(desk_split.train), desk_split.train.labels),
        (flatten(desk_split.val), desk_split.val.labels),
        desk_split.train.num_classes, cfg, hidden_dims=(256,))
    return clf
