import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from shiftdetect import nets
from shiftdetect.dimred import load_model, save_model
from shiftdetect.errors import ShiftDetectError
from shiftdetect.nets import (
    SoftmaxClassifier,
    TrainConfig,
    accuracy,
    domain_scores,
    encode,
    forward,
    hard_predictions,
    init_network,
    loss_and_gradients,
    softmax_outputs,
    train_autoencoder,
    train_domain_classifier,
    train_label_classifier,
)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    TrainConfig(max_epochs=0, patience=1)  # boundary values are fine
    # a fractional count, a bool or a non-finite or text rate is refused by name
    for field, value in (("batch_size", 2.5), ("batch_size", True), ("patience", 1.5),
                         ("max_epochs", 1.5), ("lr0", float("inf")), ("lr0", float("nan")),
                         ("lr0", "x")):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})


def test_init_deterministic():
    a = init_network((4, 3), seed=5)
    b = init_network((4, 3), seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


def test_init_biases_zero_and_weight_scale():
    net = init_network((784, 256), seed=0)
    assert np.all(net.biases[0] == 0.0)
    std = net.weights[0].std()
    assert abs(std - 1.0 / np.sqrt(784)) < 0.1 / np.sqrt(784)


def test_init_bad_dims():
    with pytest.raises(ShiftDetectError, match=r"^need >= 2 positive layer dims, got \(4,\)$"):
        init_network((4,))
    with pytest.raises(ShiftDetectError,
                       match=r"^need >= 2 positive layer dims, got \(4, 0, 2\)$"):
        init_network((4, 0, 2))


def test_forward_dim_mismatch():
    net = init_network((4, 2), seed=0)
    with pytest.raises(ShiftDetectError, match="^input has 5 columns, net expects 4$"):
        forward(net, np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# gradients

def test_grad_check_linear_mse(grad_check):
    rng = np.random.default_rng(0)
    net = init_network((4, 3), activation="identity", seed=1)
    x, t = rng.standard_normal((6, 4)), rng.standard_normal((6, 3))
    assert grad_check(net, "mse", (x, t)) < 1e-7


def test_grad_check_two_layer_cross_entropy(grad_check):
    rng = np.random.default_rng(1)
    net = init_network((5, 4, 3), activation="tanh", seed=2)
    x, y = rng.standard_normal((7, 5)), rng.integers(0, 3, 7)
    assert grad_check(net, "softmax_ce", (x, y)) < 1e-4


def test_grad_check_relu_net(grad_check):
    rng = np.random.default_rng(2)
    net = init_network((6, 5, 2), activation="relu", seed=3)
    x, y = rng.standard_normal((9, 6)), rng.integers(0, 2, 9)
    assert grad_check(net, "softmax_ce", (x, y)) < 1e-4


def test_zero_gradient_at_perfect_fit():
    # a linear net reproducing its own outputs sits at the MSE global minimum
    net = init_network((3, 2), activation="identity", seed=4)
    x = np.random.default_rng(3).standard_normal((5, 3))
    t = forward(net, x)
    _, grads_w, grads_b, _ = loss_and_gradients(net, x, t, "mse")
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads_w + grads_b))
    assert norm < 1e-8


# ---------------------------------------------------------------------------
# autoencoders

def test_uae_zero_epochs_returns_initialized_net():
    rng = np.random.default_rng(4)
    x = rng.random((20, 8))
    cfg = TrainConfig(max_epochs=0, seed=6)
    ae = train_autoencoder(x, x, (8, 5, 2), cfg)
    ref = train_autoencoder(x[:3], x[:3], (8, 5, 2), cfg)
    init = init_network((8, 5, 2, 5, 8), seed=6)  # the mirrored net, drawn at cfg's seed
    assert len(ae.encoder.weights) == 2
    assert all(np.array_equal(a, b)
               for a, b in zip(ae.encoder.weights, init.weights[:2]))
    assert all(np.array_equal(a, b)
               for a, b in zip(ae.encoder.weights, ref.encoder.weights))


def test_tae_on_linear_subspace_beats_variance():
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((3, 20))
    x = rng.standard_normal((500, 3)) @ basis * 0.1
    cfg = TrainConfig(max_epochs=150, patience=30, batch_size=32, lr0=0.5, seed=7)
    ae = train_autoencoder(x[:400], x[400:], (20, 12, 3), cfg)
    init = init_network((20, 12, 3, 12, 20), seed=7)
    assert not any(np.array_equal(a, b) for a, b in zip(ae.encoder.weights, init.weights[:2]))
    held_out = x[400:]
    assert np.mean((forward(ae.decoder, encode(ae, held_out)) - held_out) ** 2) < 0.1 * x.var()


def test_training_loss_decreases_convex_toy():
    # linear autoencoder with a tiny lr: epoch losses trend down
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((60, 6)) * 0.5
        net = init_network((6, 2, 6), activation="identity", seed=seed)
        losses = []
        cfgs = TrainConfig(max_epochs=1, batch_size=60, lr0=0.05, seed=seed)
        for _ in range(6):
            loss, *_ = loss_and_gradients(net, x, x, "mse")
            losses.append(loss)
            # a constant score keeps the initial snapshot; _sgd trains `net` itself
            nets._sgd(net, x, x, "mse", lambda c: 0.0, cfgs)
        final, _, _, _ = loss_and_gradients(net, x, x, "mse")
        assert final <= losses[0]
        assert losses[-1] <= losses[1]


def test_train_autoencoder_raises_diverged_at_a_huge_lr():
    x = np.random.default_rng(5).random((100, 8))
    cfg = TrainConfig(lr0=1e6, batch_size=10, max_epochs=5, seed=1)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ShiftDetectError, match="^non-finite loss at epoch 1$"):
        train_autoencoder(x, x[:10], (8, 8, 2), cfg)


def test_encode_shapes_and_purity():
    rng = np.random.default_rng(6)
    x = rng.random((100, 32))
    ae = train_autoencoder(x, x, (32, 16, 4), TrainConfig(max_epochs=0, seed=8))
    z1, z2 = encode(ae, x), encode(ae, x)
    assert z1.shape == (100, 4)
    assert np.array_equal(z1, z2)


def test_encode_zero_input_zero_latent():
    ae = train_autoencoder(np.zeros((4, 6)), np.zeros((2, 6)), (6, 3),
                           TrainConfig(max_epochs=0, seed=9))
    assert np.all(encode(ae, np.zeros((2, 6))) == 0.0)


# ---------------------------------------------------------------------------
# classifiers

def _blobs(rng, n, sep):
    half = n // 2
    x = np.vstack([rng.normal(0.0, 1.0, (half, 4)),
                   rng.normal(sep, 1.0, (n - half, 4))])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


def bayes_linear_accuracy(x, y, sep):
    """Oracle: the generating Gaussians' optimal rule is a midplane threshold."""
    preds = (x.sum(axis=1) > 4 * sep / 2).astype(int)
    return float(np.mean(preds == y))


def test_classifier_on_separable_blobs():
    rng = np.random.default_rng(7)
    x_train, y_train = _blobs(rng, 400, 3.0)
    x_val, y_val = _blobs(rng, 200, 3.0)
    oracle = bayes_linear_accuracy(x_val, y_val, 3.0)
    assert oracle >= 0.95  # the problem is actually this easy
    clf = train_label_classifier((x_train, y_train), (x_val, y_val), 2,
                                 TrainConfig(max_epochs=20, batch_size=32, seed=10),
                                 hidden_dims=(16,))
    assert accuracy(clf, x_val, y_val) >= 0.95


def test_classifier_constant_labels():
    rng = np.random.default_rng(8)
    x = rng.random((50, 5))
    y = np.full(50, 2, dtype=int)
    clf = train_label_classifier((x, y), (x, y), 4,
                                 TrainConfig(max_epochs=5, batch_size=16, seed=11))
    assert np.all(hard_predictions(clf, x) == 2)
    assert accuracy(clf, x, y) == 1.0


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(9)
    clf = SoftmaxClassifier(net=init_network((6, 8, 5), seed=12), num_classes=5)
    probs = softmax_outputs(clf, rng.standard_normal((40, 6)) * 5)
    assert np.all(probs > 0.0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6


def test_uniform_logits_uniform_probs():
    clf = SoftmaxClassifier(net=init_network((3, 4), seed=0, zero_last=True),
                            num_classes=4)
    probs = softmax_outputs(clf, np.ones((2, 3)))
    assert np.allclose(probs, 0.25)


def test_argmax_tie_break_lowest_index():
    assert np.argmax(np.array([0.1, 0.7, 0.2])) == 1
    assert np.argmax(np.array([0.5, 0.5, 0.5])) == 0


def test_hard_predictions_match_softmax_argmax():
    rng = np.random.default_rng(10)
    clf = SoftmaxClassifier(net=init_network((7, 9, 6), seed=13), num_classes=6)
    x = rng.standard_normal((1000, 7))
    assert np.array_equal(hard_predictions(clf, x),
                          np.argmax(softmax_outputs(clf, x), axis=1))


def test_label_swap_mirrors_scores():
    # same design matrix, labels flipped: class scores mirror exactly because
    # the output layer starts at zero
    rng = np.random.default_rng(11)
    x = rng.random((40, 6))
    y = rng.integers(0, 2, 40)
    cfg = TrainConfig(max_epochs=8, batch_size=8, seed=14)
    clf_a = train_label_classifier((x, y), (x, y), 2, cfg, hidden_dims=(8,))
    clf_b = train_label_classifier((x, 1 - y), (x, 1 - y), 2, cfg, hidden_dims=(8,))
    scores_a = softmax_outputs(clf_a, x)[:, 1]
    scores_b = softmax_outputs(clf_b, x)[:, 1]
    assert np.max(np.abs(scores_a - (1.0 - scores_b))) < 1e-6


def test_domain_scores_in_unit_interval_and_rank_by_logit():
    rng = np.random.default_rng(12)
    a, b = rng.random((30, 5)), rng.random((30, 5)) + 0.5
    clf = train_domain_classifier(np.vstack([a, b]), a.shape[0],
                                  TrainConfig(max_epochs=6, batch_size=8, seed=15))
    x = rng.random((50, 5))
    scores = domain_scores(clf, x)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    logits = forward(clf.net, x)
    diff = logits[:, 1] - logits[:, 0]
    assert np.array_equal(np.argsort(scores, kind="stable"),
                          np.argsort(diff, kind="stable"))


def test_label_classifier_refuses_out_of_range_labels():
    x = np.zeros((4, 3))
    for bad in ([0, 1, -1, 0], [0, 1, 2, 0]):
        with pytest.raises(ValueError, match=r"labels must be in \[0, 2\)"):
            train_label_classifier((x, np.array(bad)), (x, np.zeros(4, dtype=int)), 2,
                                   TrainConfig(max_epochs=1))


def test_domain_classifier_needs_nonempty_halves():
    for n_source in (0, 4, -1, 5):  # of 4 stacked rows
        with pytest.raises(ValueError, match="both halves must be non-empty"):
            train_domain_classifier(np.ones((4, 3)), n_source, TrainConfig(max_epochs=1))


def test_training_determinism():
    rng = np.random.default_rng(13)
    x, y = rng.random((80, 6)), rng.integers(0, 3, 80)
    cfg = TrainConfig(max_epochs=6, batch_size=16, seed=16)
    a = train_label_classifier((x, y), (x, y), 3, cfg)
    b = train_label_classifier((x, y), (x, y), 3, cfg)
    assert all(np.array_equal(p, q) for p, q in zip(a.net.weights, b.net.weights))
    assert all(np.array_equal(p, q) for p, q in zip(a.net.biases, b.net.biases))


def test_early_stopping_returns_best_epoch():
    # scripted scores dip at the end of epoch 2, then only get worse; the
    # returned net must be the epoch-2 snapshot and patience must stop the run
    rng = np.random.default_rng(14)
    x = rng.random((40, 4))
    net = init_network((4, 4), activation="identity", seed=17)
    scripted = [5.0, 4.0, 3.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    calls = []
    snapshots = []

    def score(candidate):
        snapshots.append([w.copy() for w in candidate.weights])
        calls.append(scripted[len(calls)])
        return calls[-1]

    best, best_epoch = nets._sgd(net, x, x, "mse", score,
                                 TrainConfig(max_epochs=10, patience=3, batch_size=8, seed=18))
    assert len(calls) == 6  # initial + epochs 1..2 improving, then 3 stale epochs
    assert best_epoch == 2
    assert all(np.array_equal(a, b) for a, b in zip(best.weights, snapshots[2]))


def test_input_grad_flag_only_drops_the_input_gradient():
    rng = np.random.default_rng(16)
    net = init_network((9, 6, 4, 3), activation="relu", seed=21)
    x, y = rng.standard_normal((11, 9)), rng.integers(0, 3, 11)
    full = loss_and_gradients(net, x, y, "softmax_ce")
    value, grads_w, grads_b, grad_x = loss_and_gradients(net, x, y, "softmax_ce",
                                                         input_grad=False)
    assert grad_x is None and full[3].shape == x.shape
    assert value == full[0]
    assert all(np.array_equal(a, b) for a, b in zip(grads_w + grads_b, full[1] + full[2]))


# ---------------------------------------------------------------------------
# golden training bytes
#
# SHA-256 of trained float64 parameters (weights then biases, layer by layer)
# as produced by the allocating SGD step these digests were recorded with:
# the in-place step must reproduce every bit. The digests pin this numpy and
# OpenBLAS build; another BLAS may round GEMMs differently.

def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _params_sha256(*params) -> str:
    return _sha256(*(a for net in params for a in net.weights + net.biases))


def _golden_tae(rng):
    # 160 rows at batch 32, relu hidden layer, linear bottleneck
    x = rng.random((200, 64))
    ae = train_autoencoder(x[:160], x[160:], (64, 32, 8),
                           TrainConfig(max_epochs=4, batch_size=32, lr0=0.5, seed=3))
    return _params_sha256(ae.encoder, ae.decoder)


def _golden_label_classifier(rng):
    # 150 rows at batch 32: the last batch of every epoch has 22 rows
    x = rng.standard_normal((150, 20))
    y = x[:, :5].argmax(axis=1)
    clf = train_label_classifier((x, y), (x[:60], y[:60]), 5,
                                 TrainConfig(max_epochs=5, batch_size=32, seed=4),
                                 hidden_dims=(24,))
    assert clf.best_epoch == 5
    return clf


def _golden_domain_classifier(rng):
    source, target = rng.random((45, 16)), rng.random((45, 16)) + 0.2
    clf = train_domain_classifier(np.vstack([source, target]), 45,
                                  TrainConfig(max_epochs=6, batch_size=16, seed=5),
                                  hidden_dims=(8,))
    assert clf.best_epoch == 6
    return _params_sha256(clf.net)


def _golden_tanh_sgd(rng):
    net = init_network((10, 7, 3), activation="tanh", seed=6)
    x, t = rng.standard_normal((50, 10)), rng.standard_normal((50, 3))
    nets._sgd(net, x, t, "mse", lambda c: 0.0, TrainConfig(max_epochs=3, batch_size=16, seed=7))
    return _params_sha256(net)  # _sgd trains its argument in place


def _golden_input_gradient(rng):
    clf = _golden_label_classifier(rng)
    x = rng.standard_normal((40, 20))
    return _sha256(nets.input_gradient(clf, x, x[:, :5].argmax(axis=1)))


@pytest.mark.parametrize("build, digest", [
    (_golden_tae, "b2f2ba52068d8dd463df0043e6ab159dfe51978838df1864cc309ed39ba06b9d"),
    (lambda rng: _params_sha256(_golden_label_classifier(rng).net),
     "8f0b9eb7dfc93a130a0c53e312b5da7b8d7d84ab792806c54454e906c5e1e24b"),
    (_golden_domain_classifier,
     "81cea23eb99cb668c1e1302df93e06969cba79c53606f8a162b8957a9c7d3ad9"),
    (_golden_tanh_sgd, "31ac7303dee6613b5b988f6673f6d921bb35acbac18542790d99f7644ca0ef17"),
    (_golden_input_gradient, "ea49bc2945c8afdb136c3b0feb6b2df80a4872cc481208b2044089b73f420d03"),
], ids=["tae", "label_classifier_ragged", "domain_classifier", "tanh_sgd", "input_gradient"])
def test_golden_training_bytes(build, digest):
    assert build(np.random.default_rng(2024)) == digest


def test_concurrent_domain_classifiers_match_serial():
    # each training run owns its step buffers: two threads training four
    # classifiers give the same bits as training them one after another
    rng = np.random.default_rng(17)
    jobs = [(np.vstack([rng.random((40, 12)), rng.random((40, 12)) + 0.1 * k]), 40,
             TrainConfig(max_epochs=5, batch_size=16, seed=30 + k)) for k in range(4)]
    serial = [train_domain_classifier(*job, hidden_dims=(16,)) for job in jobs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda job: train_domain_classifier(*job, hidden_dims=(16,)),
                                 jobs))
    assert [_params_sha256(c.net) for c in threaded] == [_params_sha256(c.net) for c in serial]


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    x = rng.random((10, 6))
    clf = SoftmaxClassifier(net=init_network((6, 5, 3), seed=19), num_classes=3)
    save_model(clf, tmp_path / "clf.npz")
    back = load_model(tmp_path / "clf.npz")
    assert isinstance(back, SoftmaxClassifier)
    assert back.num_classes == 3
    assert np.array_equal(softmax_outputs(back, x), softmax_outputs(clf, x))
