"""Shared fixtures.

The heavy desk-scale fixtures (digit corpus, trained classifier) are
session-scoped so the acceptance suite builds them once. Real MNIST IDX
files are used instead of the synthetic corpus when MNIST_DIR is set and
contains the four standard files. The grad_check fixture is the
finite-difference oracle the backprop tests compare against.
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
    """The (train, val, test) parts of the desk pool."""
    return random_split(desk_pool, DESK_TRAIN, DESK_VAL, DESK_TEST, seed=31)


@pytest.fixture(scope="session")
def desk_classifier(desk_split):
    """Label classifier at desk scale; must be strong enough for BBSD/FGSM."""
    train, val, _ = desk_split
    cfg = nets.TrainConfig(batch_size=128, lr0=0.1, max_epochs=15, patience=5, seed=7)
    clf = nets.train_label_classifier(
        (flatten(train), train.labels), (flatten(val), val.labels),
        train.num_classes, cfg, hidden_dims=(256,))
    return clf


def _grad_check(net: nets.NetParams, loss: str, batch) -> float:
    """Max relative error between analytic and central finite-difference grads.

    Steps are h = 1e-5 * max(1, |w|) per parameter; the relative error uses
    a floored denominator max(|a| + |n|, 1e-6) so noise near zero gradients
    does not dominate. Intended for small nets only.
    """
    x, target = batch
    x = np.asarray(x, dtype=np.float64)
    _, grads_w, grads_b, _ = nets.loss_and_gradients(net, x, target, loss)
    worst = 0.0
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, grad in zip(params, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                h = 1e-5 * max(1.0, abs(orig))
                flat[i] = orig + h
                up, _ = nets._loss_and_delta(loss, nets.forward(net, x), target)
                flat[i] = orig - h
                down, _ = nets._loss_and_delta(loss, nets.forward(net, x), target)
                flat[i] = orig
                numeric = (up - down) / (2.0 * h)
                err = abs(gflat[i] - numeric) / max(abs(gflat[i]) + abs(numeric), 1e-6)
                worst = max(worst, err)
    return worst


@pytest.fixture()
def grad_check():
    return _grad_check
