import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special

from shiftdetect import digits, harness, nets, shifts
from shiftdetect.data import flatten
from shiftdetect.dimred import (
    METHOD_TABLE,
    DrKind,
    build_srp,
    fit_pca,
    load_model,
    pca_project,
    reduce,
    save_model,
    srp_project,
)
from shiftdetect.errors import ShiftDetectError


# ---------------------------------------------------------------------------
# PCA

def _svd_pca(x, k):
    """Reference: top-k components (sign-pinned) and all singular values of the
    mean-centred data, from a thin SVD."""
    _, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return components, s


def test_pca_rank_one_line():
    x = np.array([[t, t] for t in (-2.0, -1.0, 0.0, 1.0, 2.0)])
    model = fit_pca(x, 1)
    assert np.allclose(np.abs(model.components[0]), 1 / np.sqrt(2))
    assert model.components[0][0] > 0  # sign convention
    total_var = x.var(axis=0, ddof=1).sum()
    assert abs(pca_project(model, x).var(axis=0, ddof=1)[0] - total_var) < 1e-12


def test_pca_hand_eigendecomposition():
    # sample covariance is exactly diag(4, 1) for these four points
    a, b = np.sqrt(6.0), np.sqrt(1.5)
    x = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
    model = fit_pca(x, 2)
    assert np.allclose(pca_project(model, x).var(axis=0, ddof=1), [4.0, 1.0])
    assert np.allclose(np.abs(model.components), np.eye(2), atol=1e-12)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.random((60, 12))
    model = fit_pca(x, 6)
    gram = model.components @ model.components.T
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8


def test_pca_explained_variance_nonincreasing_nonnegative():
    rng = np.random.default_rng(2)
    x = rng.random((40, 8))
    ev = pca_project(fit_pca(x, 8 - 1), x).var(axis=0, ddof=1)
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
    recon = pca_project(model, x) @ model.components + model.mean
    err = np.sum((x - recon) ** 2)
    # oracle: full eigendecomposition of the sample covariance
    eigvals = np.linalg.eigvalsh(np.cov(x, rowvar=False))[::-1]
    expected = eigvals[k:].sum() * (x.shape[0] - 1)
    assert abs(err - expected) < 1e-8 * max(1.0, expected)


def test_pca_bad_k_and_degenerate_n():
    rng = np.random.default_rng(6)
    with pytest.raises(ShiftDetectError,
                       match=r"^k must be in \[1, min\(n-1, d\)\] = \[1, 4\], got 5$"):
        fit_pca(rng.random((10, 4)), 5)
    with pytest.raises(ShiftDetectError, match=r"= \[1, 4\], got 0$"):
        fit_pca(rng.random((10, 4)), 0)
    with pytest.raises(ShiftDetectError, match=r"= \[1, 0\], got 1$"):
        fit_pca(rng.random((1, 4)), 1)  # variance undefined for n=1


def test_pca_rank_deficient_allowed():
    rng = np.random.default_rng(7)
    base = rng.random((20, 2))
    x = np.hstack([base, base @ np.array([[1.0, 2.0], [0.5, 0.1]])])
    model = fit_pca(x, 3)
    assert pca_project(model, x).var(axis=0, ddof=1)[2] < 1e-20


@st.composite
def _pca_problem(draw):
    """(x, k) with n <= D and n > D, columns on scales 1e-3..1e3 around offsets,
    and rank cut by setting columns to copies or combinations of others."""
    n, d = draw(st.integers(2, 24)), draw(st.integers(1, 16))
    k = draw(st.integers(1, min(n - 1, d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
         + rng.uniform(-100, 100, size=d))
    columns, weights = st.integers(0, d - 1), st.floats(-3.0, 3.0)
    for i, j, a, l, b in draw(st.lists(st.tuples(columns, columns, weights, columns, weights),
                                       max_size=3)):
        x[:, i] = a * x[:, j] + b * x[:, l]
    return x, k


@given(_pca_problem())
@example((np.random.default_rng(0).random((5, 12)), 4))           # n <= D
@example((np.hstack([np.arange(20.0)[:, None]] * 3), 2))          # rank one
def test_pca_matches_thin_svd(problem):
    x, k = problem
    n = x.shape[0]
    model = fit_pca(x, k)
    reference, s = _svd_pca(x, k)
    lam = s ** 2 / (n - 1)
    lam1 = lam[0]
    assert np.max(np.abs(model.components @ model.components.T - np.eye(k))) < 1e-12
    ev = pca_project(model, x).var(axis=0, ddof=1)
    assert np.all(np.abs(ev - lam[:k]) <= 1e-9 * lam[:k] + 1e-12 * lam1)
    assert np.all(np.diff(ev) <= 1e-12 * lam1)
    assert np.all(ev >= 0.0)
    pivots = np.argmax(np.abs(model.components), axis=1)
    assert np.all(model.components[np.arange(k), pivots] > 0.0)
    # the span of the top k is defined only when the eigenvalue after it is apart
    gap = lam[k - 1] - (lam[k] if k < lam.size else 0.0)
    if gap > 0.0 and gap >= 1e-6 * lam1:
        projector = model.components.T @ model.components
        assert np.max(np.abs(projector - reference.T @ reference)) <= 1e-12 * lam1 / gap


def test_pca_digits_benchmark_shape_matches_thin_svd():
    x = flatten(digits.make_digits(2000, seed=0))
    assert x.shape == (2000, 784)
    model = fit_pca(x, 32)
    reference, s = _svd_pca(x, 32)
    assert np.max(np.abs(model.components - reference)) < 1e-10
    assert np.allclose(pca_project(model, x).var(axis=0, ddof=1), s[:32] ** 2 / 1999,
                       rtol=1e-9, atol=0.0)


def test_pca_project_dim_mismatch():
    model = fit_pca(np.random.default_rng(8).random((10, 4)), 2)
    with pytest.raises(ShiftDetectError, match="^x has 5 columns, model was fitted on 4$"):
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
    assert special.chdtrc(2, x2) > 0.01


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
    with pytest.raises(ShiftDetectError, match="^x has 19 columns, projection expects 20$"):
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
    assert rep.values is x  # uncopied


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


def test_reduce_commutes_with_a_row_permutation():
    # the grid reduces each side once and then shuffles the reduced rows, so a
    # row's reduction must not depend on its position among the others
    train = digits.make_digits(80, seed=5)
    cfg = harness.ExperimentConfig(
        methods=tuple(harness.MethodSpec(kind) for kind in DrKind),
        shifts=(harness.NamedShift("none", shifts.preset("no_shift")),),
        n_train=train.n, n_val=0, n_test=0, latent_dim=4, hidden_dim=8,
        ae_epochs=1, clf_epochs=1, batch_size=16)
    fitted = harness.fit_reducers(train, cfg)
    x = flatten(digits.make_digits(301, seed=6))
    order = np.random.default_rng(7).permutation(x.shape[0])
    for kind, row in METHOD_TABLE.items():
        if row.transform is not None:
            handle = fitted.handle_for(kind)
            assert np.array_equal(reduce(kind, handle, x).values[order],
                                  reduce(kind, handle, x[order]).values), kind


def test_reduce_not_fitted_and_classif():
    x = np.zeros((3, 4))
    pca = fit_pca(np.random.default_rng(0).random((9, 4)), 2)
    ae = nets.Autoencoder(encoder=nets.init_network((4, 2)), decoder=nets.init_network((2, 4)))
    clf = nets.SoftmaxClassifier(net=nets.init_network((4, 3)), num_classes=3)
    # every kind that reads a model refuses None and a model of another type
    wrong_model = {DrKind.PCA: build_srp(4, 2, seed=0), DrKind.SRP: pca,
                   DrKind.UAE: clf, DrKind.TAE: pca, DrKind.BBSDS: ae, DrKind.BBSDH: ae}
    for kind, wrong in wrong_model.items():
        message = f"^expected a fitted {METHOD_TABLE[kind].model_type.__name__} for {kind.value}$"
        for fitted in (None, wrong):
            with pytest.raises(ShiftDetectError, match=message):
                reduce(kind, fitted, x)
    # the domain classifier reads the flat rows, uncopied, as NORED does
    for kind in (DrKind.NORED, DrKind.CLASSIF):
        rep = reduce(kind, None, x)
        assert np.shares_memory(rep.values, x) and rep.arity is None


# ---------------------------------------------------------------------------
# persistence

def test_save_model_refuses_every_model_but_the_label_classifier(tmp_path):
    # shift --model reads a label classifier; no command loads any other model
    x = np.random.default_rng(16).random((30, 10))
    ae = nets.Autoencoder(encoder=nets.init_network((10, 2)), decoder=nets.init_network((2, 10)))
    for model in (fit_pca(x, 4), build_srp(10, 3, seed=6), ae, ae.encoder):
        with pytest.raises(TypeError, match=f"^cannot save a {type(model).__name__}$"):
            save_model(model, tmp_path / "model.npz")
    assert not (tmp_path / "model.npz").exists()


@given(widths=st.lists(st.integers(1, 7), min_size=2, max_size=5),
       activation=st.sampled_from(nets._ACTIVATIONS), seed=st.integers(0, 2**32 - 1))
def test_saved_classifier_keeps_its_softmax_outputs(tmp_path_factory, widths, activation,
                                                    seed):
    clf = nets.SoftmaxClassifier(net=nets.init_network(widths, activation, seed=seed),
                                 num_classes=widths[-1])
    path = tmp_path_factory.mktemp("clf") / "clf.npz"
    save_model(clf, path)
    back = load_model(path)
    x = np.random.default_rng(seed).standard_normal((9, widths[0]))
    assert back.num_classes == clf.num_classes and back.net.activations == clf.net.activations
    assert nets.softmax_outputs(back, x).tobytes() == nets.softmax_outputs(clf, x).tobytes()


def test_load_model_reads_the_saved_key_layout(tmp_path):
    """A file in the format_version 1 key layout, written here with np.savez, loads."""
    rng = np.random.default_rng(16)
    w = [rng.standard_normal(shape) for shape in ((6, 4), (4, 3), (3, 6))]
    b = [rng.standard_normal(shape[1]) for shape in ((6, 4), (4, 3), (3, 6))]
    layouts = {
        "pca": dict(kind="pca", mean=w[0][:, 0], components=w[0].T,
                    explained_variance=b[0]),
        "srp": dict(kind="srp", matrix=w[0], sparsity=2.5, seed=6),
        "classifier": dict(kind="classifier", num_classes=3, net_n_layers=2,
                           net_activations=np.array(["relu", "identity"]),
                           net_w0=w[0], net_b0=b[0], net_w1=w[1], net_b1=b[1]),
        "autoencoder": dict(kind="autoencoder", trained=True,
                            enc_n_layers=1, enc_activations=np.array(["tanh"]),
                            enc_w0=w[2].T, enc_b0=b[1], dec_n_layers=1,
                            dec_activations=np.array(["identity"]), dec_w0=w[2], dec_b0=b[2]),
    }
    for name, arrays in layouts.items():
        np.savez(tmp_path / f"{name}.npz", format_version=1, **arrays)
    # the other layouts a format_version 1 file could hold are kinds no command reads
    for name in ("pca", "srp", "autoencoder"):
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / name))}.npz: "
                                             f"unknown model kind '{name}'$"):
            load_model(tmp_path / f"{name}.npz")
    clf = load_model(tmp_path / "classifier.npz")
    assert isinstance(clf, nets.SoftmaxClassifier) and clf.num_classes == 3
    net, want_w, want_b, acts = clf.net, w[:2], b[:2], ["relu", "identity"]
    assert net.activations == acts
    assert all(np.array_equal(got, want) for got, want in zip(net.weights, want_w))
    assert all(np.array_equal(got, want) for got, want in zip(net.biases, want_b))
    assert (len(net.weights), len(net.biases)) == (len(want_w), len(want_b))

    np.savez(tmp_path / "v2.npz", format_version=2, **layouts["pca"])
    np.savez(tmp_path / "net.npz", format_version=1, kind="net", net_n_layers=1,
             net_activations=np.array(["identity"]), net_w0=w[2], net_b0=b[2])
    # the nets would run an unknown activation as identity: a linear net
    np.savez(tmp_path / "sigmoid.npz", format_version=1, **dict(
        layouts["classifier"], net_activations=np.array(["sigmoid", "identity"])))
    np.save(tmp_path / "array.npy", w[0])
    (tmp_path / "rows.csv").write_text("0.5,0.25,1\n")
    for name, message in (("v2.npz", "unsupported model format version 2"),
                          ("net.npz", "unknown model kind 'net'"),
                          ("sigmoid.npz", r"sigmoid.npz: net_activations\[0\] must be one of "
                                          r"relu, tanh, identity, got 'sigmoid'$"),
                          ("array.npy", "is not an npz archive"),
                          ("rows.csv", "is not an npz archive")):
        with pytest.raises(ValueError, match=message):
            load_model(tmp_path / name)
