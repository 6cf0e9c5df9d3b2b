"""Closed-form dimensionality reducers and the dispatch to a Representation.

Eight reduction methods are supported: identity (no reduction), PCA, sparse
random projection, untrained and trained autoencoders, the soft and hard
outputs of a label classifier, and (end-to-end, in the harness) a domain
classifier, each one row of METHOD_TABLE. All reducers are fitted on
training data only and are frozen afterwards: reducing the same matrix
twice yields bit-identical output.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nets
from .errors import BadK, DimensionMismatch, IncompatibleMode, NotFitted

REDUCER_FORMAT_VERSION = 1


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

    Computed by SVD of the mean-centered data (equivalent to the covariance
    eigendecomposition). Sign convention: each component is flipped so its
    largest-magnitude coordinate is positive, which pins the decomposition
    across platforms. Rank-deficient inputs are allowed; trailing variances
    come out as (numerically) zero.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if k < 1 or k > min(n - 1, d):
        raise BadK(f"k must be in [1, min(n-1, d)] = [1, {min(n - 1, d)}], got {k}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    variance = (s[:k] ** 2) / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != model.mean.shape[0]:
        raise DimensionMismatch(
            f"x has {x.shape[1]} columns, model was fitted on {model.mean.shape[0]}"
        )
    return (x - model.mean) @ model.components.T


def pca_reconstruct(model: PcaModel, z: np.ndarray) -> np.ndarray:
    """Map latent rows back to the input space (lossy for K < rank)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[1] != model.components.shape[0]:
        raise DimensionMismatch(
            f"z has {z.shape[1]} columns, model has {model.components.shape[0]} components"
        )
    return z @ model.components + model.mean


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
    it) and type, and its transform (model, rows) -> Representation. CLASSIF
    has no transform: the harness trains and tests it end to end. BBSDH
    (categorical ids) and CLASSIF (its binomial test) have no multivariate test.
    """

    model: str | None
    model_type: type
    transform: Callable[[object, np.ndarray], Representation] | None
    multivariate: bool = True


METHOD_TABLE = {
    DrKind.NORED: MethodRow(None, object, lambda _, x: Representation(x.copy())),
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

    fitted is the model METHOD_TABLE names for the kind (ignored for NORED);
    a missing or mistyped one raises NotFitted. CLASSIF has no standalone
    representation and raises IncompatibleMode.
    """
    kind = DrKind(kind)
    row = METHOD_TABLE[kind]
    if row.transform is None:
        raise IncompatibleMode(f"{kind.value} is handled end-to-end by the harness")
    if not isinstance(fitted, row.model_type):
        raise NotFitted(f"expected a fitted {row.model_type.__name__} for {kind.value}")
    return row.transform(fitted, np.asarray(x, dtype=np.float64))


def save_reducer(model, path) -> None:
    """Persist a PcaModel or SrpMatrix as a versioned flat npz dump."""
    if isinstance(model, PcaModel):
        np.savez(path, format_version=REDUCER_FORMAT_VERSION, kind="pca",
                 mean=model.mean, components=model.components,
                 explained_variance=model.explained_variance)
    elif isinstance(model, SrpMatrix):
        np.savez(path, format_version=REDUCER_FORMAT_VERSION, kind="srp",
                 matrix=model.matrix, sparsity=model.sparsity, seed=model.seed)
    else:
        raise TypeError(f"cannot persist reducer of type {type(model).__name__}; "
                        "network-backed reducers are saved via nets.save_net")


def load_reducer(path):
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != REDUCER_FORMAT_VERSION:
            raise ValueError(f"unsupported reducer format version {version}")
        kind = str(archive["kind"])
        if kind == "pca":
            return PcaModel(mean=archive["mean"], components=archive["components"],
                            explained_variance=archive["explained_variance"])
        if kind == "srp":
            return SrpMatrix(matrix=archive["matrix"], sparsity=float(archive["sparsity"]),
                             seed=int(archive["seed"]))
    raise ValueError(f"unknown reducer kind {kind!r}")
