"""Minimal gradient-checked neural-network engine.

Provides the learned reducers: untrained/trained autoencoders, the label
classifier whose soft/hard outputs serve as representations, and the
binary domain classifier. Everything is dense float64 numpy; training is
plain SGD with momentum, a 1/sqrt(t) learning-rate decay over epochs, and
patience-based early stopping that returns the best validation snapshot.
A training step updates in place, into buffers sized once per run, and skips
the input gradient; each in-place operation rounds as the expression it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Rule, ShiftDetectError, check_fields, key

_ACTIVATIONS = ("relu", "tanh", "identity")
MOMENTUM = 0.9  # SGD momentum of every training run


class Diverged(ShiftDetectError):
    """A training run whose loss or validation score stopped being finite."""


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

    def copy(self) -> "NetParams":
        return NetParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activations=list(self.activations),
        )


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; a field that breaks its rule raises ShiftDetectError.
    ExperimentConfig's training keys read the same rules."""

    batch_size: int = key(Rule("integer", 1), 128)
    lr0: float = key(Rule("finite number", 0, ends="(]"), 0.1)
    max_epochs: int = key(Rule("integer", 0), 30)
    patience: int = key(Rule("integer", 1), 10)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class Autoencoder:
    encoder: NetParams  # D -> ... -> K
    decoder: NetParams  # K -> ... -> D


@dataclass
class SoftmaxClassifier:
    net: NetParams  # logits for num_classes classes
    num_classes: int
    # epoch whose snapshot training kept; 0 is the initial net (for the label
    # classifier, constant outputs). None when unknown, e.g. after dimred.load_model.
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
        raise ShiftDetectError(f"need >= 2 positive layer dims, got {layer_dims}")
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


def _dense(a: np.ndarray, w: np.ndarray, b: np.ndarray, tag: str, out=None) -> np.ndarray:
    """act(a @ w + b), computed in one array: `out` if given, else a fresh one."""
    z = np.matmul(a, w, out=out)
    z += b
    if tag == "relu":
        np.maximum(z, 0.0, out=z)
    elif tag == "tanh":
        np.tanh(z, out=z)
    return z


def _backprop_activation(tag: str, delta: np.ndarray, a: np.ndarray) -> None:
    """Multiply delta in place by the activation's derivative at output a."""
    if tag == "relu":
        delta *= a > 0.0  # max(z, 0) > 0 exactly where z > 0
    elif tag == "tanh":
        delta *= 1.0 - a * a


def forward(net: NetParams, x: np.ndarray) -> np.ndarray:
    """Output of the net for a batch of rows."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape[1] != net.in_dim:
        raise ShiftDetectError(f"input has {a.shape[1]} columns, net expects {net.in_dim}")
    for w, b, tag in zip(net.weights, net.biases, net.activations):
        a = _dense(a, w, b, tag)
    return a


def _packed(arrays) -> tuple[np.ndarray, list]:
    """One flat, uninitialised array, and views of it shaped like `arrays`."""
    flat = np.empty(sum(a.size for a in arrays))
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


class _StepBuffers:
    """Arrays a backprop step writes into, for up to `rows` rows. One per
    training run, never shared: domain classifiers train concurrently.
    grads_w and grads_b are views of the one array grads, laid out as
    weights then biases."""

    def __init__(self, net: NetParams, rows: int):
        self.batch = np.empty((rows, net.in_dim))
        self.rows = np.arange(rows)
        self.post = [np.empty((rows, w.shape[1])) for w in net.weights]
        self.delta = [np.empty((rows, w.shape[1])) for w in net.weights]
        self.grads, grads = _packed(net.weights + net.biases)
        self.grads_w, self.grads_b = grads[:net.n_layers], grads[net.n_layers:]


def _loss_and_delta(loss: str, output: np.ndarray, target, out=None,
                    rows=None) -> tuple[float, np.ndarray]:
    """Mean loss and its gradient w.r.t. output. rows, when given, starts
    with np.arange(batch). The reductions round as np.max/sum/mean do."""
    batch = output.shape[0]
    if loss == "mse":
        residual = np.subtract(output, target, out=out)
        value = float(np.add.reduce(residual * residual, axis=None)) / residual.size
        residual *= 2.0
        residual /= residual.size
        return value, residual
    if loss == "softmax_ce":
        labels = np.asarray(target, dtype=np.int64)
        rows = np.arange(batch) if rows is None else rows[:batch]
        shift = output - np.maximum.reduce(output, axis=1, keepdims=True)
        log_norm = np.log(np.add.reduce(np.exp(shift), axis=1, keepdims=True))
        log_probs = shift - log_norm
        value = -(float(np.add.reduce(log_probs[rows, labels])) / batch)
        delta = np.exp(log_probs, out=out)
        delta[rows, labels] -= 1.0
        delta /= batch
        return value, delta
    raise ValueError(f"unknown loss {loss!r}")


def loss_and_gradients(net: NetParams, x: np.ndarray, target, loss: str,
                       input_grad: bool = True, buffers: _StepBuffers | None = None):
    """Backprop: returns (loss, weight grads, bias grads, gradient w.r.t. x).

    input_grad=False skips the input gradient (None). Intermediates and the
    returned gradients live in `buffers` (fresh when None) until its next use.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = x.shape[0]
    if buffers is None:
        buffers = _StepBuffers(net, rows)
    post = [x]
    for w, b, tag, out in zip(net.weights, net.biases, net.activations, buffers.post):
        post.append(_dense(post[-1], w, b, tag, out[:rows]))
    value, delta = _loss_and_delta(loss, post[-1], target, out=buffers.delta[-1][:rows],
                                   rows=buffers.rows)
    for layer in range(net.n_layers - 1, -1, -1):
        _backprop_activation(net.activations[layer], delta, post[layer + 1])
        np.matmul(post[layer].T, delta, out=buffers.grads_w[layer])
        np.add.reduce(delta, axis=0, out=buffers.grads_b[layer])
        if layer:
            delta = np.matmul(delta, net.weights[layer].T, out=buffers.delta[layer - 1][:rows])
    grad_x = delta @ net.weights[0].T if input_grad else None
    return value, buffers.grads_w, buffers.grads_b, grad_x


def input_gradient(clf: SoftmaxClassifier, x: np.ndarray, labels) -> np.ndarray:
    """d(cross-entropy)/dx for each row, used by gradient-sign attacks."""
    _, _, _, grad_x = loss_and_gradients(clf.net, x, labels, "softmax_ce")
    return grad_x


# ---------------------------------------------------------------------------
# Training

def _sgd(net: NetParams, x: np.ndarray, target, loss: str, score_fn, cfg: TrainConfig):
    """SGD + momentum m = MOMENTUM with lr_t = lr0/sqrt(t) per epoch and early stopping.

    score_fn(net) -> float to minimize; evaluated on the initial net and
    after every epoch. Returns (snapshot, epoch) for the best (strictly
    smallest) score, so the result is never worse than the best epoch seen;
    epoch 0 is the initial net. A step updates `net` in place with v *= m;
    g *= lr; v -= g; p += v, which rounds as v = m*v - lr*g. To make that
    four numpy calls per step, `net`'s weights and biases are first moved
    into one flat array, laid out as the gradients are, and `net` holds
    views of it from then on.
    """
    autoencode = target is x
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    params, views = _packed(net.weights + net.biases)
    for view, p in zip(views, net.weights + net.biases):
        view[...] = p
    net.weights[:], net.biases[:] = views[:net.n_layers], views[net.n_layers:]
    velocity = np.zeros_like(params)
    buffers = _StepBuffers(net, min(n, cfg.batch_size))
    grads = buffers.grads

    best, best_epoch = net.copy(), 0
    best_score = score_fn(net)
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        lr = cfg.lr0 / np.sqrt(epoch)
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch])).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = np.take(x, idx, axis=0, out=buffers.batch[:idx.size], mode="clip")
            value, _, _, _ = loss_and_gradients(
                net, batch, batch if autoencode else target[idx], loss,
                input_grad=False, buffers=buffers)
            if not math.isfinite(value):
                raise Diverged(f"non-finite loss at epoch {epoch}")
            velocity *= MOMENTUM
            grads *= lr
            velocity -= grads
            params += velocity
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
        raise ShiftDetectError(f"autoencoder arch needs >= 2 dims, got {arch}")
    if dims[-1] >= dims[0]:
        raise ShiftDetectError(f"bottleneck {dims[-1]} must be smaller than input dim {dims[0]}")
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

    if cfg.max_epochs > 0:
        net, _ = _sgd(net, x_train, x_train, "mse", val_error, cfg)
    return _split_autoencoder(net, len(encoder_dims) - 1)


def encode(ae: Autoencoder, x: np.ndarray) -> np.ndarray:
    return forward(ae.encoder, x)


def train_label_classifier(train, val, num_classes: int, cfg: TrainConfig,
                           hidden_dims=(256,)) -> SoftmaxClassifier:
    """Cross-entropy training with early stopping on validation accuracy."""
    x_train, y_train = train
    x_val, y_val = val
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    if y_train.size and (y_train.min() < 0 or y_train.max() >= num_classes):
        raise ValueError(f"labels must be in [0, {num_classes})")
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


def train_domain_classifier(x: np.ndarray, n_source: int, cfg: TrainConfig,
                            hidden_dims=(32,)) -> SoftmaxClassifier:
    """Binary classifier distinguishing source (class 0) from target (class 1).

    x stacks the training rows: its first n_source rows are the source
    half, the rest the target half. A float64 x is trained on as given,
    never copied. There is no separate validation pool at this point of the
    protocol, so best-epoch selection uses the training rows themselves.
    Evaluation on held-out halves is the caller's job.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not 0 < n_source < x.shape[0]:
        raise ValueError(f"both halves must be non-empty: {n_source} source rows "
                         f"of {x.shape[0]}")
    y = np.zeros(x.shape[0], dtype=np.int64)
    y[n_source:] = 1
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
