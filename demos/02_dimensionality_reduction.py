"""Dimensionality reduction, eight ways
========================================

Shows every reducer the detector pipeline supports on the bundled
procedural digit corpus: no reduction, PCA, sparse random projection,
untrained and trained autoencoders, and the label classifier's soft and
hard outputs. The domain classifier, which reduces straight to a domain
prediction, appears in demo 05.
"""

import numpy as np

from shiftdetect import (
    DrKind,
    TrainConfig,
    build_srp,
    fit_pca,
    flatten,
    pca_project,
    random_split,
    reduce,
    srp_project,
    train_autoencoder,
    train_label_classifier,
)
from shiftdetect import digits, nets

corpus = digits.make_digits(3000, seed=7)
train, val, test = random_split(corpus, 2400, 300, 300, seed=0)
x_train, x_val, x_test = flatten(train), flatten(val), flatten(test)
d = x_train.shape[1]
k = 32
print(f"corpus: {corpus.n} digit images, flattened to D = {d}; target K = {k}\n")

# --- PCA --------------------------------------------------------------------
pca = fit_pca(x_train, k)
variances = pca_project(pca, x_train).var(axis=0, ddof=1)
explained = variances.sum() / x_train.var(axis=0, ddof=1).sum()
print(f"PCA: top-{k} components explain {explained:.0%} of the variance")
print(f"     leading component variances: {np.round(variances[:4], 3)}")

# --- sparse random projection ------------------------------------------------
srp = build_srp(d, k, seed=1)
density = np.count_nonzero(srp.matrix) / srp.matrix.size
print(f"SRP: nonzero density {density:.3f} (expected {1 / np.sqrt(d):.3f})")

# squared distances are preserved in expectation; a single projection draw
# is noisy on spiky image vectors, so look at a few seeds
pair = x_test[:100]
sq = lambda m: np.sum((m[None, :, :] - m[:, None, :]) ** 2, axis=-1)
base = sq(pair)[np.triu_indices(100, 1)]
ratios = []
for seed in range(4):
    proj = srp_project(build_srp(d, k, seed=seed), pair)
    ratios.append(np.mean(sq(proj)[np.triu_indices(100, 1)] / base))
print(f"     pairwise-distance distortion over 4 draws: "
      f"{np.round(ratios, 2)} (unbiased around 1.0)")

# --- autoencoders -------------------------------------------------------------
arch = (d, 256, k)
uae = train_autoencoder(x_train, x_val, arch, TrainConfig(max_epochs=0, seed=2))
tae = train_autoencoder(x_train, x_val, arch,
                        TrainConfig(max_epochs=10, patience=5, lr0=2.0, seed=2))


def reconstruction_mse(ae):
    return np.mean((nets.forward(ae.decoder, nets.encode(ae, x_test)) - x_test) ** 2)


print(f"UAE: untrained encoder, reconstruction MSE {reconstruction_mse(uae):.4f}")
print(f"TAE: trained encoder,   reconstruction MSE {reconstruction_mse(tae):.4f} "
      f"(pixel variance {x_test.var():.4f})")

# --- label-classifier representations -----------------------------------------
clf = train_label_classifier((x_train, train.labels), (x_val, val.labels),
                             10, TrainConfig(max_epochs=10, patience=5, seed=3),
                             hidden_dims=(256,))
print(f"label classifier: val accuracy {nets.accuracy(clf, x_val, val.labels):.3f}")

for kind, fitted in ((DrKind.NORED, None), (DrKind.PCA, pca), (DrKind.SRP, srp),
                     (DrKind.UAE, uae), (DrKind.TAE, tae),
                     (DrKind.BBSDS, clf), (DrKind.BBSDH, clf)):
    rep = reduce(kind, fitted, x_test[:5])
    shape = rep.values.shape if not rep.is_categorical else f"{rep.values.shape} ids < {rep.arity}"
    print(f"  reduce({kind.value:6s}) -> {shape}")
