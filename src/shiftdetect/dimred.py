"""Closed-form dimensionality reducers and the dispatch to a Representation.

Eight reduction methods are supported: identity (no reduction), PCA, sparse
random projection, untrained and trained autoencoders, the soft and hard
outputs of a label classifier, and a domain classifier (which reads the
rows themselves), each one row of METHOD_TABLE. All reducers are fitted on
training data only and are frozen afterwards: reducing the same matrix
twice yields bit-identical output. save_model and load_model write and read
the one model a command loads from disk: the label classifier that an
adversarial shift attacks (shift --model).
"""

from __future__ import annotations

import math
import zipfile
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from . import nets
from .errors import Rule, ShiftDetectError

class DrKind(str, Enum):
    NORED = "nored"
    PCA = "pca"
    SRP = "srp"
    UAE = "uae"
    TAE = "tae"
    BBSDS = "bbsds"
    BBSDH = "bbsdh"
    CLASSIF = "classif"


@dataclass(frozen=True)
class Representation:
    """Reduced data handed to the two-sample tests.

    Continuous: values is an (N, K) float matrix and arity is None.
    Categorical: values is an (N,) int vector of ids < arity.
    """

    values: np.ndarray
    arity: int | None = None

    @property
    def is_categorical(self) -> bool:
        return self.arity is not None


# ---------------------------------------------------------------------------
# PCA

@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray        # (D,)
    components: np.ndarray  # (K, D), orthonormal rows


def fit_pca(x: np.ndarray, k: int) -> PcaModel:
    """Top-K principal components of the sample covariance of x.

    The components are the top-K eigenvectors of the D x D scatter matrix
    C^T C of the mean-centred (N, D) data C, taken from a partial symmetric
    eigensolver (only the K wanted eigenpairs), in descending order. The
    cost is O(N D^2) to form the scatter matrix plus O(D^3) for the
    eigensolver, for every N; no (N, D) factor is built. Sign convention:
    each component is flipped so its largest-magnitude coordinate is
    positive, which pins the decomposition across platforms. The variance
    a component explains is that of pca_project(model, x) along it.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if k < 1 or k > min(n - 1, d):
        raise ShiftDetectError(f"k must be in [1, min(n-1, d)] = [1, {min(n - 1, d)}], got {k}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, vectors = scipy.linalg.eigh(centered.T @ centered, subset_by_index=[d - k, d - 1])
    components = vectors[:, ::-1].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components)


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.mean.shape[0]:
        raise ShiftDetectError(
            f"x has {x.shape[1]} columns, model was fitted on {model.mean.shape[0]}"
        )
    return (x - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Sparse random projection

@dataclass(frozen=True)
class SrpMatrix:
    matrix: np.ndarray  # (D, K) with entries in {+sqrt(v/K), 0, -sqrt(v/K)}, v = sqrt(D)


def build_srp(d: int, k: int, seed: int) -> SrpMatrix:
    """Very sparse random projection matrix (Li, Hastie & Church, 2006).

    Entries are +sqrt(v/K) with probability 1/(2v), -sqrt(v/K) with
    probability 1/(2v), and 0 otherwise, with v = sqrt(D) so the expected
    nonzero density is 1/sqrt(D). The scaling preserves squared norms in
    expectation.
    """
    if d < 1 or k < 1:
        raise ShiftDetectError(f"d and k must be >= 1, got d={d}, k={k}")
    v = math.sqrt(d)
    u = np.random.default_rng(seed).random((d, k))
    scale = math.sqrt(v / k)
    matrix = np.zeros((d, k))
    matrix[u < 1.0 / (2.0 * v)] = scale
    matrix[u >= 1.0 - 1.0 / (2.0 * v)] = -scale
    return SrpMatrix(matrix=matrix)


def srp_project(model: SrpMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.matrix.shape[0]:
        raise ShiftDetectError(
            f"x has {x.shape[1]} columns, projection expects {model.matrix.shape[0]}"
        )
    return x @ model.matrix


# ---------------------------------------------------------------------------
# The method table

@dataclass(frozen=True)
class MethodRow:
    """The fitted model a method reads, by name (methods over one model share
    it) and type, and its transform (model, rows) -> Representation. NORED
    and CLASSIF read no model, and their transform returns the rows
    themselves, uncopied: CLASSIF's test trains the domain classifier on
    them (harness.check). BBSDH (categorical ids) and CLASSIF (its binomial
    test) have no multivariate test. fits_rows marks a model learned from
    the rows it is fitted on: tested on those rows, its outputs can differ
    from unseen rows' under no shift, so detect tests other rows
    (harness.fit_and_reference_rows).
    """

    model: str | None
    model_type: type
    transform: Callable[[object, np.ndarray], Representation]
    multivariate: bool = True
    fits_rows: bool = False


def _identity(_, x: np.ndarray) -> Representation:
    return Representation(x)


METHOD_TABLE = {
    DrKind.NORED: MethodRow(None, object, _identity),
    DrKind.PCA: MethodRow("pca", PcaModel, lambda m, x: Representation(pca_project(m, x)),
                          fits_rows=True),
    DrKind.SRP: MethodRow("srp", SrpMatrix, lambda m, x: Representation(srp_project(m, x))),
    DrKind.UAE: MethodRow("uae", nets.Autoencoder, lambda m, x: Representation(nets.encode(m, x))),
    DrKind.TAE: MethodRow("tae", nets.Autoencoder, lambda m, x: Representation(nets.encode(m, x)),
                          fits_rows=True),
    DrKind.BBSDS: MethodRow("label_clf", nets.SoftmaxClassifier,
                            lambda m, x: Representation(nets.softmax_outputs(m, x)),
                            fits_rows=True),
    DrKind.BBSDH: MethodRow("label_clf", nets.SoftmaxClassifier,
                            lambda m, x: Representation(nets.hard_predictions(m, x),
                                                        m.num_classes),
                            multivariate=False, fits_rows=True),
    DrKind.CLASSIF: MethodRow(None, object, _identity, multivariate=False),
}


def reduce(kind: DrKind, fitted, x: np.ndarray) -> Representation:
    """Apply a fitted reducer to a flattened data matrix.

    fitted is the model METHOD_TABLE names for the kind (ignored for NORED
    and CLASSIF, which return the float64 rows of x uncopied); a missing or
    mistyped one raises ShiftDetectError.
    """
    kind = DrKind(kind)
    row = METHOD_TABLE[kind]
    if not isinstance(fitted, row.model_type):
        raise ShiftDetectError(f"expected a fitted {row.model_type.__name__} for {kind.value}")
    return row.transform(fitted, np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# Persistence: the label classifier, as one versioned npz file

_FORMAT_VERSION = 1


def save_model(model, path) -> None:
    """Write a label classifier to one flat npz file.

    The file holds format_version, kind "classifier", num_classes and the
    net's arrays net_n_layers, net_activations, net_w<i> and net_b<i>;
    load_model gives back a classifier whose outputs are bit-identical.
    """
    if not isinstance(model, nets.SoftmaxClassifier):
        raise TypeError(f"cannot save a {type(model).__name__}")
    net = model.net
    np.savez(path, format_version=_FORMAT_VERSION, kind="classifier",
             num_classes=model.num_classes, net_n_layers=net.n_layers,
             net_activations=np.array(net.activations),
             **{f"net_w{i}": w for i, w in enumerate(net.weights)},
             **{f"net_b{i}": b for i, b in enumerate(net.biases)})


def _read(archive, path, key: str, rule: Rule | None = None, shape: tuple = ()):
    """archive[key], refused by a ShiftDetectError naming path and key unless
    it is there, readable (np.load will not unpickle an object array) and of
    shape (None: any size there). Its items, as Python values, must keep rule; with
    no rule, the array comes back and must hold finite real numbers."""
    if key not in archive.files:
        raise ShiftDetectError(f"{path}: no key {key!r}")
    try:
        value = archive[key]
    except ValueError as exc:
        raise ShiftDetectError(f"{path}: {key} cannot be read: {exc}") from None
    if value.ndim != len(shape) or any(n not in (None, got) for n, got in zip(shape, value.shape)):
        expected = str(tuple("*" if n is None else n for n in shape)).replace("'", "")
        raise ShiftDetectError(f"{path}: {key} has shape {value.shape}, expected {expected}")
    if rule is None:
        if value.dtype.kind not in "fiu" or not np.isfinite(value).all():
            raise ShiftDetectError(f"{path}: {key} must hold finite real numbers")
        return value
    items = value.tolist()
    for i, item in enumerate(items if shape else [items]):
        rule.check(item, f"{path}: {key}" + (f"[{i}]" if shape else ""))
    return items


def load_model(path) -> nets.SoftmaxClassifier:
    """The label classifier save_model wrote to path. Anything else raises
    ShiftDetectError naming path and the key at fault: a missing or
    unreadable key, a version or kind save_model does not write, an unknown
    activation, a non-finite weight, layers whose shapes do not chain, or a
    last layer that is not num_classes wide."""
    if not zipfile.is_zipfile(path):  # np.load would read an array or try to unpickle
        raise ShiftDetectError(f"{path} is not an npz archive")
    with np.load(path) as archive:
        version = _read(archive, path, "format_version", Rule("integer"))
        if version != _FORMAT_VERSION:
            raise ShiftDetectError(f"{path}: unsupported model format version {version}")
        kind = _read(archive, path, "kind", Rule("string"))
        if kind != "classifier":
            raise ShiftDetectError(f"{path}: unknown model kind {kind!r}")
        num_classes = _read(archive, path, "num_classes", Rule("integer", 1))
        n_layers = _read(archive, path, "net_n_layers", Rule("integer", 1))
        # the nets would run an unknown activation as identity
        net = nets.NetParams(activations=_read(archive, path, "net_activations",
                                               Rule("string", choices=nets._ACTIVATIONS),
                                               (n_layers,)))
        for i in range(n_layers):
            fan_in = net.weights[-1].shape[1] if i else None
            fan_out = num_classes if i == n_layers - 1 else None
            net.weights.append(_read(archive, path, f"net_w{i}", shape=(fan_in, fan_out)))
            net.biases.append(_read(archive, path, f"net_b{i}", shape=net.weights[-1].shape[1:]))
        return nets.SoftmaxClassifier(net=net, num_classes=num_classes)
