import numpy as np
import pytest

from shiftdetect import nets
from shiftdetect.dimred import (
    DrKind,
    build_srp,
    fit_pca,
    load_reducer,
    pca_project,
    pca_reconstruct,
    reduce,
    save_reducer,
    srp_project,
)
from shiftdetect.errors import BadK, DimensionMismatch, IncompatibleMode, NotFitted
from shiftdetect.stattest import chi2_sf


# ---------------------------------------------------------------------------
# PCA

def test_pca_rank_one_line():
    x = np.array([[t, t] for t in (-2.0, -1.0, 0.0, 1.0, 2.0)])
    model = fit_pca(x, 1)
    assert np.allclose(np.abs(model.components[0]), 1 / np.sqrt(2))
    assert model.components[0][0] > 0  # sign convention
    total_var = x.var(axis=0, ddof=1).sum()
    assert abs(model.explained_variance[0] - total_var) < 1e-12


def test_pca_hand_eigendecomposition():
    # sample covariance is exactly diag(4, 1) for these four points
    a, b = np.sqrt(6.0), np.sqrt(1.5)
    x = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
    model = fit_pca(x, 2)
    assert np.allclose(model.explained_variance, [4.0, 1.0])
    assert np.allclose(np.abs(model.components), np.eye(2), atol=1e-12)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.random((60, 12))
    model = fit_pca(x, 6)
    gram = model.components @ model.components.T
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8


def test_pca_projected_train_variance_matches_explained():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 10)) @ np.diag(np.linspace(3, 0.5, 10))
    model = fit_pca(x, 5)
    z = pca_project(model, x)
    rel = np.abs(z.var(axis=0, ddof=1) - model.explained_variance) / model.explained_variance
    assert np.max(rel) < 1e-6


def test_pca_explained_variance_nonincreasing_nonnegative():
    rng = np.random.default_rng(2)
    model = fit_pca(rng.random((40, 8)), 8 - 1)
    ev = model.explained_variance
    assert np.all(np.diff(ev) <= 1e-12)
    assert np.all(ev >= 0)


def test_pca_project_mean_is_zero():
    rng = np.random.default_rng(3)
    x = rng.random((30, 6))
    model = fit_pca(x, 3)
    assert np.max(np.abs(pca_project(model, model.mean[None, :]))) < 1e-12


def test_pca_project_component_gives_unit_vector():
    rng = np.random.default_rng(4)
    model = fit_pca(rng.random((30, 6)), 3)
    for i in range(3):
        row = model.components[i][None, :] + model.mean
        proj = pca_project(model, row)[0]
        expected = np.zeros(3)
        expected[i] = 1.0
        assert np.allclose(proj, expected, atol=1e-10)


def test_pca_reconstruction_error_equals_discarded_eigenvalues():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((80, 9)) * np.linspace(2.0, 0.3, 9)
    k = 4
    model = fit_pca(x, k)
    recon = pca_reconstruct(model, pca_project(model, x))
    err = np.sum((x - recon) ** 2)
    # oracle: full eigendecomposition of the sample covariance
    eigvals = np.linalg.eigvalsh(np.cov(x, rowvar=False))[::-1]
    expected = eigvals[k:].sum() * (x.shape[0] - 1)
    assert abs(err - expected) < 1e-8 * max(1.0, expected)


def test_pca_bad_k_and_degenerate_n():
    rng = np.random.default_rng(6)
    with pytest.raises(BadK):
        fit_pca(rng.random((10, 4)), 5)
    with pytest.raises(BadK):
        fit_pca(rng.random((10, 4)), 0)
    with pytest.raises(BadK):
        fit_pca(rng.random((1, 4)), 1)  # variance undefined for n=1


def test_pca_rank_deficient_allowed():
    rng = np.random.default_rng(7)
    base = rng.random((20, 2))
    x = np.hstack([base, base @ np.array([[1.0, 2.0], [0.5, 0.1]])])
    model = fit_pca(x, 3)
    assert model.explained_variance[2] < 1e-20


def test_pca_project_dim_mismatch():
    model = fit_pca(np.random.default_rng(8).random((10, 4)), 2)
    with pytest.raises(DimensionMismatch):
        pca_project(model, np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# SRP

def test_srp_three_values_and_frequency():
    d, k = 784, 32
    srp = build_srp(d, k, seed=0)
    v = np.sqrt(d)
    scale = np.sqrt(v / k)
    values = np.unique(srp.matrix)
    assert set(np.round(values, 12)) <= {round(-scale, 12), 0.0, round(scale, 12)}
    density = np.count_nonzero(srp.matrix) / srp.matrix.size
    se = np.sqrt((1 / v) * (1 - 1 / v) / srp.matrix.size)
    assert abs(density - 1 / v) <= 3 * se


def test_srp_chi2_goodness_of_fit():
    # entry distribution vs the three-valued rule on 1e5 entries
    d, k = 1000, 100
    srp = build_srp(d, k, seed=1)
    v = np.sqrt(d)
    scale = np.sqrt(v / k)
    observed = np.array([
        np.sum(srp.matrix > scale / 2),
        np.sum(srp.matrix == 0.0),
        np.sum(srp.matrix < -scale / 2),
    ], dtype=float)
    total = srp.matrix.size
    expected = np.array([1 / (2 * v), 1 - 1 / v, 1 / (2 * v)]) * total
    x2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2_sf(x2, 2) > 0.01


def test_srp_deterministic():
    a = build_srp(50, 10, seed=9)
    b = build_srp(50, 10, seed=9)
    assert np.array_equal(a.matrix, b.matrix)


def test_srp_single_entry():
    srp = build_srp(1, 1, seed=3)
    v = 1.0
    assert srp.matrix[0, 0] in (-np.sqrt(v), 0.0, np.sqrt(v))


def test_srp_projection_basics():
    srp = build_srp(20, 5, seed=4)
    assert np.all(srp_project(srp, np.zeros((3, 20))) == 0.0)
    e7 = np.zeros((1, 20))
    e7[0, 7] = 1.0
    assert np.array_equal(srp_project(srp, e7)[0], srp.matrix[7])
    with pytest.raises(DimensionMismatch):
        srp_project(srp, np.zeros((2, 19)))


def test_srp_johnson_lindenstrauss_distortion():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((50, 784))
    srp = build_srp(784, 32, seed=5)
    z = srp_project(srp, x)

    def pairwise_sq(m):
        sq = np.sum(m * m, axis=1)
        return (sq[:, None] + sq[None, :] - 2 * m @ m.T)[np.triu_indices(50, k=1)]

    ratio = np.mean(pairwise_sq(z) / pairwise_sq(x))
    assert 0.8 <= ratio <= 1.2


# ---------------------------------------------------------------------------
# reduce dispatch

def test_reduce_nored_identity():
    x = np.random.default_rng(11).random((5, 784))
    rep = reduce(DrKind.NORED, None, x)
    assert not rep.is_categorical
    assert np.array_equal(rep.values, x)


def test_reduce_pca_shape():
    rng = np.random.default_rng(12)
    x = rng.random((100, 50))
    rep = reduce(DrKind.PCA, fit_pca(x, 32), x)
    assert rep.values.shape == (100, 32)


def test_reduce_bbsds_softmax_rows():
    rng = np.random.default_rng(13)
    clf = nets.SoftmaxClassifier(net=nets.init_network((8, 6, 4), seed=0), num_classes=4)
    rep = reduce(DrKind.BBSDS, clf, rng.standard_normal((30, 8)))
    assert not rep.is_categorical
    assert np.all(rep.values >= 0.0)
    assert np.max(np.abs(rep.values.sum(axis=1) - 1.0)) < 1e-6


def test_reduce_bbsdh_categorical():
    clf = nets.SoftmaxClassifier(net=nets.init_network((8, 4), seed=1), num_classes=4)
    rep = reduce(DrKind.BBSDH, clf, np.random.default_rng(14).random((30, 8)))
    assert rep.is_categorical
    assert rep.arity == 4
    assert rep.values.max() < 4


def test_reduce_deterministic_bit_exact():
    rng = np.random.default_rng(15)
    x = rng.random((40, 20))
    model = fit_pca(x, 8)
    a = reduce(DrKind.PCA, model, x)
    b = reduce(DrKind.PCA, model, x)
    assert np.array_equal(a.values, b.values)


def test_reduce_not_fitted_and_classif():
    x = np.zeros((3, 4))
    pca = fit_pca(np.random.default_rng(0).random((9, 4)), 2)
    ae = nets.Autoencoder(encoder=nets.init_network((4, 2)), decoder=nets.init_network((2, 4)))
    clf = nets.SoftmaxClassifier(net=nets.init_network((4, 3)), num_classes=3)
    # every kind that reads a model refuses None and a model of another type
    wrong_model = {DrKind.PCA: build_srp(4, 2, seed=0), DrKind.SRP: pca,
                   DrKind.UAE: clf, DrKind.TAE: pca, DrKind.BBSDS: ae, DrKind.BBSDH: ae}
    for kind, wrong in wrong_model.items():
        for fitted in (None, wrong):
            with pytest.raises(NotFitted):
                reduce(kind, fitted, x)
    with pytest.raises(IncompatibleMode):
        reduce(DrKind.CLASSIF, None, x)


def test_reducer_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    x = rng.random((30, 10))
    pca = fit_pca(x, 4)
    save_reducer(pca, tmp_path / "pca.npz")
    back = load_reducer(tmp_path / "pca.npz")
    assert np.array_equal(pca_project(back, x), pca_project(pca, x))

    srp = build_srp(10, 3, seed=6)
    save_reducer(srp, tmp_path / "srp.npz")
    srp_back = load_reducer(tmp_path / "srp.npz")
    assert np.array_equal(srp_back.matrix, srp.matrix)
    assert srp_back.seed == 6
