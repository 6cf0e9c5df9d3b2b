"""Closed-form dimensionality reducers and the dispatch to a Representation.

Eight reduction methods are supported: identity (no reduction), PCA, sparse
random projection, untrained and trained autoencoders, the soft and hard
outputs of a label classifier, and (end-to-end, in the harness) a domain
classifier, each one row of METHOD_TABLE. All reducers are fitted on
training data only and are frozen afterwards: reducing the same matrix
twice yields bit-identical output. save_model and load_model write and read
every model type METHOD_TABLE names, in one file format.
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
from .errors import BadK, DimensionMismatch, IncompatibleMode, NotFitted

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

    @property
    def n(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# PCA

@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray                # (D,)
    components: np.ndarray          # (K, D), orthonormal rows
    explained_variance: np.ndarray  # (K,), nonincreasing


def fit_pca(x: np.ndarray, k: int) -> PcaModel:
    """Top-K principal components of the sample covariance of x.

    The components are the top-K eigenvectors of the D x D scatter matrix
    C^T C of the mean-centred (N, D) data C, taken from a partial symmetric
    eigensolver (only the K wanted eigenpairs), in descending order. The
    cost is O(N D^2) to form the scatter matrix plus O(D^3) for the
    eigensolver, for every N; no (N, D) factor is built. Sign convention:
    each component is flipped so its largest-magnitude coordinate is
    positive, which pins the decomposition across platforms.

    explained_variance is the sample variance of the training projections,
    ||C v||^2 / (N - 1), not the eigenvalue: eigenvalues of C^T C carry an
    absolute error of about eps * lambda_1, while the projections of a
    rank-deficient input's null directions come out as (numerically) zero.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if k < 1 or k > min(n - 1, d):
        raise BadK(f"k must be in [1, min(n-1, d)] = [1, {min(n - 1, d)}], got {k}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, vectors = scipy.linalg.eigh(centered.T @ centered, subset_by_index=[d - k, d - 1])
    components = vectors[:, ::-1].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    projections = centered @ components.T
    variance = np.einsum("ij,ij->j", projections, projections) / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.mean.shape[0]:
        raise DimensionMismatch(
            f"x has {x.shape[1]} columns, model was fitted on {model.mean.shape[0]}"
        )
    return (x - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Sparse random projection

@dataclass(frozen=True)
class SrpMatrix:
    matrix: np.ndarray  # (D, K) with entries in {+sqrt(v/K), 0, -sqrt(v/K)}
    sparsity: float     # v; nonzero density is 1/v
    seed: int


def build_srp(d: int, k: int, seed: int) -> SrpMatrix:
    """Very sparse random projection matrix (Li, Hastie & Church, 2006).

    Entries are +sqrt(v/K) with probability 1/(2v), -sqrt(v/K) with
    probability 1/(2v), and 0 otherwise, with v = sqrt(D) so the expected
    nonzero density is 1/sqrt(D). The scaling preserves squared norms in
    expectation.
    """
    if d < 1 or k < 1:
        raise BadK(f"d and k must be >= 1, got d={d}, k={k}")
    v = math.sqrt(d)
    u = np.random.default_rng(seed).random((d, k))
    scale = math.sqrt(v / k)
    matrix = np.zeros((d, k))
    matrix[u < 1.0 / (2.0 * v)] = scale
    matrix[u >= 1.0 - 1.0 / (2.0 * v)] = -scale
    return SrpMatrix(matrix=matrix, sparsity=v, seed=seed)


def srp_project(model: SrpMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.matrix.shape[0]:
        raise DimensionMismatch(
            f"x has {x.shape[1]} columns, projection expects {model.matrix.shape[0]}"
        )
    return x @ model.matrix


# ---------------------------------------------------------------------------
# The method table

@dataclass(frozen=True)
class MethodRow:
    """The fitted model a method reads, by name (methods over one model share
    it) and type, and its transform (model, rows) -> Representation. NORED's
    transform returns the rows themselves, uncopied. CLASSIF has no
    transform: the harness trains and tests it end to end. BBSDH
    (categorical ids) and CLASSIF (its binomial test) have no multivariate test.
    """

    model: str | None
    model_type: type
    transform: Callable[[object, np.ndarray], Representation] | None
    multivariate: bool = True


METHOD_TABLE = {
    DrKind.NORED: MethodRow(None, object, lambda _, x: Representation(x)),
    DrKind.PCA: MethodRow("pca", PcaModel, lambda m, x: Representation(pca_project(m, x))),
    DrKind.SRP: MethodRow("srp", SrpMatrix, lambda m, x: Representation(srp_project(m, x))),
    DrKind.UAE: MethodRow("uae", nets.Autoencoder, lambda m, x: Representation(nets.encode(m, x))),
    DrKind.TAE: MethodRow("tae", nets.Autoencoder, lambda m, x: Representation(nets.encode(m, x))),
    DrKind.BBSDS: MethodRow("label_clf", nets.SoftmaxClassifier,
                            lambda m, x: Representation(nets.softmax_outputs(m, x))),
    DrKind.BBSDH: MethodRow("label_clf", nets.SoftmaxClassifier,
                            lambda m, x: Representation(nets.hard_predictions(m, x),
                                                        m.num_classes), multivariate=False),
    DrKind.CLASSIF: MethodRow(None, object, None, multivariate=False),
}


def reduce(kind: DrKind, fitted, x: np.ndarray) -> Representation:
    """Apply a fitted reducer to a flattened data matrix.

    fitted is the model METHOD_TABLE names for the kind (ignored for NORED,
    which returns the float64 rows of x uncopied); a missing or mistyped
    one raises NotFitted. CLASSIF has no standalone
    representation and raises IncompatibleMode.
    """
    kind = DrKind(kind)
    row = METHOD_TABLE[kind]
    if row.transform is None:
        raise IncompatibleMode(f"{kind.value} is handled end-to-end by the harness")
    if not isinstance(fitted, row.model_type):
        raise NotFitted(f"expected a fitted {row.model_type.__name__} for {kind.value}")
    return row.transform(fitted, np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# Persistence: one versioned npz file per fitted model

def _net_arrays(prefix: str, net: nets.NetParams) -> dict:
    arrays = {f"{prefix}n_layers": net.n_layers,
              f"{prefix}activations": np.array(net.activations)}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays.update({f"{prefix}w{i}": w, f"{prefix}b{i}": b})
    return arrays


def _net_from(prefix: str, archive) -> nets.NetParams:
    n_layers = int(archive[f"{prefix}n_layers"])
    return nets.NetParams(weights=[archive[f"{prefix}w{i}"] for i in range(n_layers)],
                          biases=[archive[f"{prefix}b{i}"] for i in range(n_layers)],
                          activations=[str(a) for a in archive[f"{prefix}activations"]])


# kind tag -> (model type, its arrays, the model back from an open archive)
_SAVED_KINDS = {
    "pca": (PcaModel,
            lambda m: dict(mean=m.mean, components=m.components,
                           explained_variance=m.explained_variance),
            lambda a: PcaModel(mean=a["mean"], components=a["components"],
                               explained_variance=a["explained_variance"])),
    "srp": (SrpMatrix,
            lambda m: dict(matrix=m.matrix, sparsity=m.sparsity, seed=m.seed),
            lambda a: SrpMatrix(matrix=a["matrix"], sparsity=float(a["sparsity"]),
                                seed=int(a["seed"]))),
    "classifier": (nets.SoftmaxClassifier,
                   lambda m: dict(num_classes=m.num_classes, **_net_arrays("net_", m.net)),
                   lambda a: nets.SoftmaxClassifier(net=_net_from("net_", a),
                                                    num_classes=int(a["num_classes"]))),
    "autoencoder": (nets.Autoencoder,
                    lambda m: dict(trained=m.trained, **_net_arrays("enc_", m.encoder),
                                   **_net_arrays("dec_", m.decoder)),
                    lambda a: nets.Autoencoder(encoder=_net_from("enc_", a),
                                               decoder=_net_from("dec_", a),
                                               trained=bool(a["trained"]))),
}
_FORMAT_VERSION = 1


def save_model(model, path) -> None:
    """Write a fitted model of a type METHOD_TABLE names to one flat npz file.

    The file holds format_version, a kind tag and the model's arrays;
    load_model gives back a model whose outputs are bit-identical.
    """
    for kind, (model_type, arrays, _) in _SAVED_KINDS.items():
        if isinstance(model, model_type):
            np.savez(path, format_version=_FORMAT_VERSION, kind=kind, **arrays(model))
            return
    raise TypeError(f"cannot save a {type(model).__name__}")


def load_model(path):
    """The model save_model wrote to path; a file that is not one raises ValueError."""
    if not zipfile.is_zipfile(path):  # np.load would read an array or try to unpickle
        raise ValueError(f"{path} is not an npz archive")
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        kind = str(archive["kind"])
        if kind not in _SAVED_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        return _SAVED_KINDS[kind][2](archive)
