"""Minimal gradient-checked neural-network engine.

Provides the learned reducers: untrained/trained autoencoders, the label
classifier whose soft/hard outputs serve as representations, and the
binary domain classifier. Everything is dense float64 numpy; training is
plain SGD with momentum, a 1/sqrt(t) learning-rate decay over epochs, and
patience-based early stopping that returns the best validation snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDims, DimensionMismatch, Diverged

NET_FORMAT_VERSION = 1

_ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class NetParams:
    """A stack of dense layers: out = act(x @ W + b), W shaped (fan_in, fan_out)."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activations: list = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def dims(self) -> tuple:
        return (self.in_dim, *(w.shape[1] for w in self.weights))

    def copy(self) -> "NetParams":
        return NetParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activations=list(self.activations),
        )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr0: float = 0.1
    momentum: float = 0.9
    max_epochs: int = 30
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class Autoencoder:
    encoder: NetParams  # D -> ... -> K
    decoder: NetParams  # K -> ... -> D
    trained: bool = False

    @property
    def latent_dim(self) -> int:
        return self.encoder.out_dim


@dataclass
class SoftmaxClassifier:
    net: NetParams  # logits for num_classes classes
    num_classes: int
    # epoch whose snapshot training kept; 0 is the initial net (for the label
    # classifier, constant outputs). None when unknown, e.g. after load_net.
    best_epoch: int | None = None


def init_network(layer_dims, activation: str = "relu", seed: int = 0,
                 zero_last: bool = False) -> NetParams:
    """Build a dense net with scaled symmetric weight init and zero biases.

    Hidden layers use `activation`; the final layer is linear (identity).
    Weights are drawn N(0, 1/fan_in); with zero_last the output layer
    starts at exactly zero, which makes class scores start uniform and
    keeps two-class training symmetric under label swap.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise BadDims(f"need >= 2 positive layer dims, got {layer_dims}")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    rng = np.random.default_rng(seed)
    net = NetParams()
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        last = i == len(dims) - 2
        if last and zero_last:
            w = np.zeros((fan_in, fan_out))
        else:
            w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        net.weights.append(w)
        net.biases.append(np.zeros(fan_out))
        net.activations.append("identity" if last else activation)
    return net


def _apply_activation(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "tanh":
        return np.tanh(z)
    return z


def _activation_grad(tag: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return (z > 0.0).astype(np.float64)
    if tag == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def forward(net: NetParams, x: np.ndarray) -> np.ndarray:
    """Output of the net for a batch of rows."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape[1] != net.in_dim:
        raise DimensionMismatch(f"input has {a.shape[1]} columns, net expects {net.in_dim}")
    for w, b, tag in zip(net.weights, net.biases, net.activations):
        a = _apply_activation(tag, a @ w + b)
    return a


def _forward_cached(net, x):
    pre, post = [], [x]
    a = x
    for w, b, tag in zip(net.weights, net.biases, net.activations):
        z = a @ w + b
        a = _apply_activation(tag, z)
        pre.append(z)
        post.append(a)
    return pre, post


def _loss_and_delta(loss: str, output: np.ndarray, target) -> tuple[float, np.ndarray]:
    batch = output.shape[0]
    if loss == "mse":
        residual = output - target
        return float(np.mean(residual * residual)), 2.0 * residual / residual.size
    if loss == "softmax_ce":
        labels = np.asarray(target, dtype=np.int64)
        shift = output - output.max(axis=1, keepdims=True)
        log_norm = np.log(np.sum(np.exp(shift), axis=1, keepdims=True))
        log_probs = shift - log_norm
        value = float(-np.mean(log_probs[np.arange(batch), labels]))
        delta = np.exp(log_probs)
        delta[np.arange(batch), labels] -= 1.0
        return value, delta / batch
    raise ValueError(f"unknown loss {loss!r}")


def loss_and_gradients(net: NetParams, x: np.ndarray, target, loss: str):
    """Backprop: returns (loss, weight grads, bias grads, gradient w.r.t. x)."""
    x = np.asarray(x, dtype=np.float64)
    pre, post = _forward_cached(net, x)
    value, delta = _loss_and_delta(loss, post[-1], target)
    grads_w = [None] * net.n_layers
    grads_b = [None] * net.n_layers
    for layer in range(net.n_layers - 1, -1, -1):
        delta = delta * _activation_grad(net.activations[layer], pre[layer], post[layer + 1])
        grads_w[layer] = post[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        delta = delta @ net.weights[layer].T
    return value, grads_w, grads_b, delta


def input_gradient(clf: SoftmaxClassifier, x: np.ndarray, labels) -> np.ndarray:
    """d(cross-entropy)/dx for each row, used by gradient-sign attacks."""
    _, _, _, grad_x = loss_and_gradients(clf.net, x, labels, "softmax_ce")
    return grad_x


def grad_check(net: NetParams, loss: str, batch) -> float:
    """Max relative error between analytic and central finite-difference grads.

    Steps are h = 1e-5 * max(1, |w|) per parameter; the relative error uses
    a floored denominator max(|a| + |n|, 1e-6) so noise near zero gradients
    does not dominate. Intended for small nets only.
    """
    x, target = batch
    x = np.asarray(x, dtype=np.float64)
    _, grads_w, grads_b, _ = loss_and_gradients(net, x, target, loss)
    worst = 0.0
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, grad in zip(params, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                h = 1e-5 * max(1.0, abs(orig))
                flat[i] = orig + h
                up, _ = _loss_and_delta(loss, forward(net, x), target)
                flat[i] = orig - h
                down, _ = _loss_and_delta(loss, forward(net, x), target)
                flat[i] = orig
                numeric = (up - down) / (2.0 * h)
                err = abs(gflat[i] - numeric) / max(abs(gflat[i]) + abs(numeric), 1e-6)
                worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Training

def _sgd(net: NetParams, x: np.ndarray, target, loss: str, score_fn, cfg: TrainConfig):
    """SGD + momentum with lr_t = lr0/sqrt(t) per epoch and early stopping.

    score_fn(net) -> float to minimize; evaluated on the initial net and
    after every epoch. Returns (snapshot, epoch) for the best (strictly
    smallest) score, so the result is never worse than the best epoch seen;
    epoch 0 is the initial net.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    velocity_w = [np.zeros_like(w) for w in net.weights]
    velocity_b = [np.zeros_like(b) for b in net.biases]

    best, best_epoch = net.copy(), 0
    best_score = score_fn(net)
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        lr = cfg.lr0 / np.sqrt(epoch)
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch])).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_target = target[idx]
            value, grads_w, grads_b, _ = loss_and_gradients(net, x[idx], batch_target, loss)
            if not np.isfinite(value):
                raise Diverged(f"non-finite loss at epoch {epoch}")
            for layer in range(net.n_layers):
                velocity_w[layer] = cfg.momentum * velocity_w[layer] - lr * grads_w[layer]
                velocity_b[layer] = cfg.momentum * velocity_b[layer] - lr * grads_b[layer]
                net.weights[layer] += velocity_w[layer]
                net.biases[layer] += velocity_b[layer]
        score = score_fn(net)
        if not np.isfinite(score):
            raise Diverged(f"non-finite validation score at epoch {epoch}")
        if score < best_score:
            best, best_score, best_epoch = net.copy(), score, epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best, best_epoch


def _autoencoder_layers(arch) -> tuple[list, list]:
    dims = [int(d) for d in arch]
    if len(dims) < 2:
        raise BadDims(f"autoencoder arch needs >= 2 dims, got {arch}")
    if dims[-1] >= dims[0]:
        raise BadDims(f"bottleneck {dims[-1]} must be smaller than input dim {dims[0]}")
    return dims, dims[::-1]


def _split_autoencoder(net: NetParams, n_encoder_layers: int) -> Autoencoder:
    encoder = NetParams(weights=net.weights[:n_encoder_layers],
                        biases=net.biases[:n_encoder_layers],
                        activations=net.activations[:n_encoder_layers])
    decoder = NetParams(weights=net.weights[n_encoder_layers:],
                        biases=net.biases[n_encoder_layers:],
                        activations=net.activations[n_encoder_layers:])
    return Autoencoder(encoder=encoder, decoder=decoder)


def train_autoencoder(x_train: np.ndarray, x_val: np.ndarray, arch,
                      cfg: TrainConfig) -> Autoencoder:
    """Train encoder/decoder jointly on reconstruction error.

    arch lists the encoder dims from input down to the bottleneck, e.g.
    (784, 256, 32); the decoder mirrors it. Hidden layers are ReLU, the
    bottleneck and output are linear. With cfg.max_epochs == 0 the randomly
    initialized net is returned untouched (the untrained-autoencoder
    reducer).
    """
    encoder_dims, decoder_dims = _autoencoder_layers(arch)
    full_dims = encoder_dims + decoder_dims[1:]
    net = init_network(full_dims, activation="relu", seed=cfg.seed)
    # the bottleneck output is linear, like the final layer
    net.activations[len(encoder_dims) - 2] = "identity"

    x_train = np.asarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)

    def val_error(candidate):
        residual = forward(candidate, x_val) - x_val
        return float(np.mean(residual * residual))

    trained = cfg.max_epochs > 0
    if trained:
        net, _ = _sgd(net, x_train, x_train, "mse", val_error, cfg)
    ae = _split_autoencoder(net, len(encoder_dims) - 1)
    ae.trained = trained
    return ae


def encode(ae: Autoencoder, x: np.ndarray) -> np.ndarray:
    return forward(ae.encoder, x)


def reconstruct(ae: Autoencoder, x: np.ndarray) -> np.ndarray:
    return forward(ae.decoder, encode(ae, x))


def reconstruction_mse(ae: Autoencoder, x: np.ndarray) -> float:
    """Per-element mean squared reconstruction error."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.mean((reconstruct(ae, x) - x) ** 2))


def train_label_classifier(train, val, num_classes: int, cfg: TrainConfig,
                           hidden_dims=(256,)) -> SoftmaxClassifier:
    """Cross-entropy training with early stopping on validation accuracy."""
    x_train, y_train = train
    x_val, y_val = val
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    if y_train.size and y_train.max() >= num_classes:
        raise ValueError(f"labels must be < {num_classes}")
    dims = (x_train.shape[1], *hidden_dims, num_classes)
    net = init_network(dims, activation="relu", seed=cfg.seed, zero_last=True)

    x_val = np.asarray(x_val, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.int64)

    def neg_val_accuracy(candidate):
        preds = np.argmax(forward(candidate, x_val), axis=1)
        return -float(np.mean(preds == y_val))

    best_epoch = 0
    if cfg.max_epochs > 0:
        net, best_epoch = _sgd(net, x_train, y_train, "softmax_ce", neg_val_accuracy, cfg)
    return SoftmaxClassifier(net=net, num_classes=num_classes, best_epoch=best_epoch)


def train_domain_classifier(source_half: np.ndarray, target_half: np.ndarray,
                            cfg: TrainConfig, hidden_dims=(32,)) -> SoftmaxClassifier:
    """Binary classifier distinguishing source (class 0) from target (class 1).

    Trains only on the supplied halves; there is no separate validation
    pool at this point of the protocol, so best-epoch selection uses the
    training halves themselves. Evaluation on held-out halves is the
    caller's job.
    """
    source_half = np.atleast_2d(np.asarray(source_half, dtype=np.float64))
    target_half = np.atleast_2d(np.asarray(target_half, dtype=np.float64))
    if source_half.shape[0] == 0 or target_half.shape[0] == 0:
        raise ValueError("both halves must be non-empty")
    if source_half.shape[1] != target_half.shape[1]:
        raise DimensionMismatch(
            f"halves disagree in dim: {source_half.shape[1]} vs {target_half.shape[1]}"
        )
    x = np.vstack([source_half, target_half])
    y = np.concatenate([
        np.zeros(source_half.shape[0], dtype=np.int64),
        np.ones(target_half.shape[0], dtype=np.int64),
    ])
    return train_label_classifier((x, y), (x, y), 2, cfg, hidden_dims=hidden_dims)


def softmax_outputs(clf: SoftmaxClassifier, x: np.ndarray) -> np.ndarray:
    """Rows of class probabilities; each row sums to 1."""
    logits = forward(clf.net, x)
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    return exp / exp.sum(axis=1, keepdims=True)


def hard_predictions(clf: SoftmaxClassifier, x: np.ndarray) -> np.ndarray:
    """Argmax class ids (ties broken toward the lowest index)."""
    return np.argmax(forward(clf.net, x), axis=1)


def domain_scores(clf: SoftmaxClassifier, x: np.ndarray) -> np.ndarray:
    """Per-sample probability of belonging to the target domain."""
    if clf.num_classes != 2:
        raise ValueError("domain scores require a binary classifier")
    return softmax_outputs(clf, x)[:, 1]


def accuracy(clf: SoftmaxClassifier, x: np.ndarray, y) -> float:
    return float(np.mean(hard_predictions(clf, x) == np.asarray(y, dtype=np.int64)))


# ---------------------------------------------------------------------------
# Persistence

def _pack_params(prefix: str, net: NetParams, payload: dict) -> None:
    payload[f"{prefix}n_layers"] = net.n_layers
    payload[f"{prefix}activations"] = np.array(net.activations)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"{prefix}w{i}"] = w
        payload[f"{prefix}b{i}"] = b


def _unpack_params(prefix: str, archive) -> NetParams:
    n_layers = int(archive[f"{prefix}n_layers"])
    return NetParams(
        weights=[archive[f"{prefix}w{i}"] for i in range(n_layers)],
        biases=[archive[f"{prefix}b{i}"] for i in range(n_layers)],
        activations=[str(a) for a in archive[f"{prefix}activations"]],
    )


def save_net(model, path) -> None:
    """Versioned flat dump; loading reproduces identical outputs bit-for-bit."""
    payload = {"format_version": NET_FORMAT_VERSION}
    if isinstance(model, SoftmaxClassifier):
        payload["kind"] = "classifier"
        payload["num_classes"] = model.num_classes
        _pack_params("net_", model.net, payload)
    elif isinstance(model, Autoencoder):
        payload["kind"] = "autoencoder"
        payload["trained"] = model.trained
        _pack_params("enc_", model.encoder, payload)
        _pack_params("dec_", model.decoder, payload)
    elif isinstance(model, NetParams):
        payload["kind"] = "net"
        _pack_params("net_", model, payload)
    else:
        raise TypeError(f"cannot persist {type(model).__name__}")
    np.savez(path, **payload)


def load_net(path):
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != NET_FORMAT_VERSION:
            raise ValueError(f"unsupported net format version {version}")
        kind = str(archive["kind"])
        if kind == "classifier":
            return SoftmaxClassifier(net=_unpack_params("net_", archive),
                                     num_classes=int(archive["num_classes"]))
        if kind == "autoencoder":
            return Autoencoder(encoder=_unpack_params("enc_", archive),
                               decoder=_unpack_params("dec_", archive),
                               trained=bool(archive["trained"]))
        if kind == "net":
            return _unpack_params("net_", archive)
    raise ValueError(f"unknown model kind {kind!r}")
