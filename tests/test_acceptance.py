"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 10 run on the desk-scale corpus (procedural digits, or real
MNIST when MNIST_DIR points at the IDX files); the rest are synthetic or
analytic. Everything is seeded, so a passing suite is reproducible.
"""

import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

from shiftdetect import digits, harness, nets, shifts, stattest
from shiftdetect.cli import main as cli_main
from shiftdetect.data import TensorDataset, flatten, load_idx, split_indices
from shiftdetect.dimred import DrKind, Representation, fit_pca, pca_project
from shiftdetect.errors import ShiftDetectError
from shiftdetect.harness import ExperimentConfig, MethodSpec, NamedShift
from shiftdetect.nets import TrainConfig
from shiftdetect.stattest import (
    TestMode,
    binomial_two_sided,
    bonferroni_aggregate,
    chi2_independence,
    dispatch_test,
    ks_pvalues_by_column,
    mmd2_unbiased,
)


@pytest.fixture()
def report(capsys):
    """Print one PASS/FAIL line per criterion on the live terminal."""

    def _line(criterion: int, passed: bool, detail: str) -> None:
        line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert passed, line

    return _line


def _spearman(xs, ys) -> float:
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        return 0.0  # a flat curve is trivially nondecreasing
    rx, ry = scipy.stats.rankdata(xs), scipy.stats.rankdata(ys)
    return float(np.corrcoef(rx, ry)[0, 1])


# ---------------------------------------------------------------------------
# 1. Oracle equivalence

def test_criterion_1_oracle_equivalence(report):
    started = time.time()
    rng = np.random.default_rng(11)
    checks = []

    worst_rel = 0.0
    for _ in range(50):
        m, n = rng.integers(2, 51), rng.integers(2, 51)
        d = rng.integers(1, 21)
        x, y = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        fast = mmd2_unbiased(x, y)

        def rbf_kernel(a, b):
            return math.exp(-0.5 * float(np.sum((a - b) ** 2)))

        xx = sum(rbf_kernel(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
        yy = sum(rbf_kernel(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
        xy = sum(rbf_kernel(x[i], y[j]) for i in range(m) for j in range(n))
        slow = xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)
        worst_rel = max(worst_rel, abs(fast - slow) / max(1e-30, abs(slow)))
    checks.append(("mmd triple-sum", worst_rel < 1e-10))

    ks_exact = True
    for _ in range(25):
        a = rng.normal(size=rng.integers(1, 40))
        b = rng.normal(size=rng.integers(1, 40))
        stat = stattest._ks_statistics(a[:, None], b[:, None])[0]
        brute = max(abs(np.mean(a <= z) - np.mean(b <= z))
                    for z in np.concatenate([a, b]))
        # scipy forms the ECDF difference in another order: a few ulps apart
        scipy_gap = abs(stat - scipy.stats.ks_2samp(a, b).statistic)
        ne = a.size * b.size / (a.size + b.size)
        p = scipy.special.kolmogorov((math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * stat)
        ks_exact &= (stat == brute and scipy_gap <= 4 * np.finfo(np.float64).eps
                     and ks_pvalues_by_column(a, b)[0] == p)
    checks.append(("ks brute-force equality", ks_exact))

    x2, p = chi2_independence([[10, 0], [0, 10]])
    checks.append(("chi2 hand formula", abs(x2 - 20.0) < 1e-12
                   and abs(p - math.erfc(math.sqrt(10.0))) < 1e-12))

    exact = 2 * sum(Fraction(math.comb(100, i)) for i in range(60, 101)) / Fraction(2) ** 100
    checks.append(("binomial tail oracle",
                   abs(binomial_two_sided(60, 100) - float(exact)) < 1e-9))

    elapsed = time.time() - started
    checks.append(("runtime < 10 s", elapsed < 10.0))
    failed = [name for name, ok in checks if not ok]
    report(1, not failed,
            f"mmd rel err {worst_rel:.2e}; binomial p {binomial_two_sided(60, 100):.6f}; "
            f"{elapsed:.1f}s" + (f"; FAILED: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 2. Bonferroni arithmetic

def test_criterion_2_bonferroni_matches_quoted_threshold(report):
    threshold = 0.05 / 784
    ok_value = abs(threshold - 6.377551020408163e-05) < 1e-18
    ok_quote = 6.3e-05 <= threshold < 6.4e-05
    out = bonferroni_aggregate([2.7e-10] + [0.7] * 783, alpha=0.05)
    report(2, ok_value and ok_quote and out.reject,
            f"0.05/784 = {threshold:.6e}; min p 2.7e-10 reject={out.reject}")


# ---------------------------------------------------------------------------
# 3. Calibration under the null

def test_criterion_3_null_calibration(report):
    started = time.time()
    rej_ks = 0
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        src = Representation(rng.normal(size=(100, 50)))
        tgt = Representation(rng.normal(size=(100, 50)))
        rej_ks += dispatch_test(src, tgt, DrKind.NORED, TestMode.UNIVARIATE,
                                alpha=0.05).reject
    rate_ks = rej_ks / 200

    rej_mmd = 0
    for trial in range(200):
        rng = np.random.default_rng(5000 + trial)
        model = fit_pca(rng.normal(size=(300, 50)), 8)
        src = Representation(pca_project(model, rng.normal(size=(100, 50))))
        tgt = Representation(pca_project(model, rng.normal(size=(100, 50))))
        rej_mmd += dispatch_test(src, tgt, DrKind.PCA, TestMode.MULTIVARIATE,
                                 alpha=0.05, seed=trial, n_perms=300).reject
    rate_mmd = rej_mmd / 200
    elapsed = time.time() - started
    ok = 0.01 <= rate_ks <= 0.10 and 0.01 <= rate_mmd <= 0.10 and elapsed < 600
    report(3, ok, f"NoRed+KS rate {rate_ks:.3f}, PCA+MMD rate {rate_mmd:.3f} "
                   f"(band [0.01, 0.10]); {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 4. Power patterns at desk scale

GN_PRESETS = ("small_gn_shift", "medium_gn_shift", "large_gn_shift")
DELTAS = (0.1, 0.5, 1.0)


@pytest.fixture(scope="module")
def power_result(desk_pool):
    entries = [NamedShift(f"{name}@d{d:g}", shifts.preset(name, d),
                          shifts.intensity_of(name))
               for name in GN_PRESETS for d in DELTAS]
    entries += [NamedShift(f"medium_img_shift@d{d:g}",
                           shifts.preset("medium_img_shift", d), "medium")
                for d in DELTAS]
    cfg = ExperimentConfig(
        methods=(MethodSpec(DrKind.NORED), MethodSpec(DrKind.PCA),
                 MethodSpec(DrKind.SRP), MethodSpec(DrKind.UAE),
                 MethodSpec(DrKind.TAE), MethodSpec(DrKind.BBSDS),
                 MethodSpec(DrKind.BBSDH),
                 MethodSpec(DrKind.PCA, TestMode.MULTIVARIATE),
                 MethodSpec(DrKind.CLASSIF)),
        shifts=tuple(entries),
        n_train=5000, n_val=2000, n_test=2000,
        sample_sizes=(10, 20, 50, 100, 200, 500, 1000), runs=5,
        latent_dim=32, hidden_dim=256, domain_hidden_dim=32,
        ae_epochs=12, clf_epochs=12, domain_epochs=8, n_perms=300,
        seed=20240808,
    )
    # two pool threads: records do not depend on threads (criterion 9)
    return harness.run_experiment(desk_pool, cfg, threads=2)


def test_criterion_4a_large_noise_detected_at_small_sample(power_result, report):
    recs = [r for r in power_result.records
            if r.shift == "large_gn_shift@d1" and r.method == "nored"
            and r.sample_size == 100 and r.status == "ok"]
    rate = sum(r.outcome.reject for r in recs) / len(recs)
    report(4, rate >= 0.9, f"(a) large noise at s=100 via NoRed: "
                            f"detected {rate:.0%} of {len(recs)} runs (need >= 90%)")


def test_criterion_4b_accuracy_nondecreasing_in_sample_size(power_result, report):
    rows = harness.detection_accuracy(power_result, ("method", "mode", "sample_size"))
    curves = {}
    for row in rows:
        curves.setdefault((row["method"], row["mode"]), []).append(
            (row["sample_size"], row["accuracy"]))
    rhos = {}
    for key, curve in curves.items():
        curve.sort()
        rhos[key] = _spearman([s for s, _ in curve], [a for _, a in curve])
    bad = {k: round(v, 3) for k, v in rhos.items() if v < 0}
    detail = ", ".join(f"{m}/{mo}={rho:.2f}" for (m, mo), rho in sorted(rhos.items()))
    report(4, not bad, f"(b) Spearman rho per method: {detail}")


def test_criterion_4c_intensity_ordering(power_result, report):
    rows = harness.detection_accuracy(power_result, ("intensity", "sample_size"))
    at1000 = {r["intensity"]: r["accuracy"] for r in rows if r["sample_size"] == 1000}
    ok = at1000["large"] > at1000["medium"] > at1000["small"]
    report(4, ok, f"(c) s=1000 accuracy: large {at1000['large']:.3f} > "
                   f"medium {at1000['medium']:.3f} > small {at1000['small']:.3f}")


def test_criterion_4d_delta_ordering(power_result, report):
    rows = harness.detection_accuracy(power_result, ("delta", "sample_size"))
    at1000 = {r["delta"]: r["accuracy"] for r in rows if r["sample_size"] == 1000}
    ok = at1000[1.0] >= at1000[0.5] >= at1000[0.1]
    report(4, ok, f"(d) s=1000 accuracy by affected fraction: "
                   f"1.0 -> {at1000[1.0]:.3f} >= 0.5 -> {at1000[0.5]:.3f} "
                   f">= 0.1 -> {at1000[0.1]:.3f}")


# ---------------------------------------------------------------------------
# 5. Multivariate sample cap

def test_criterion_5_multivariate_cap(report):
    rng = np.random.default_rng(55)
    big = Representation(rng.normal(size=(10000, 3)))
    small = Representation(rng.normal(size=(100, 3)))
    refused = False
    try:
        dispatch_test(small, big, DrKind.PCA, TestMode.MULTIVARIATE)
    except ShiftDetectError as exc:
        refused = str(exc) == "multivariate mode capped at 1000"

    pool = TensorDataset(rng.random((20500, 1, 4, 1)),
                         rng.integers(0, 2, 20500), 2)
    cfg = ExperimentConfig(
        methods=(MethodSpec(DrKind.PCA, TestMode.MULTIVARIATE),
                 MethodSpec(DrKind.NORED)),
        shifts=(NamedShift("no_shift", shifts.preset("no_shift"), "none"),),
        n_train=400, n_val=10000, n_test=10000,
        sample_sizes=(10000,), runs=1, latent_dim=2,
        ae_epochs=0, clf_epochs=0, domain_epochs=0, n_perms=10, seed=5,
    )
    res = harness.run_experiment(pool, cfg)
    by_mode = {r.mode: r for r in res.records}
    skipped = (by_mode["multivariate"].status == "skipped"
               and "cap" in by_mode["multivariate"].reason)
    ran_univ = by_mode["univariate"].status == "ok"
    report(5, refused and skipped and ran_univ,
            f"dispatch refused s=10000 ({refused}); harness skipped the cell "
            f"({skipped}) while the univariate cell ran ({ran_univ})")


# ---------------------------------------------------------------------------
# 6. Gradient checks on every trainable architecture

def test_criterion_6_gradient_checks(report, grad_check):
    rng = np.random.default_rng(66)
    worst = 0.0
    for i in range(20):
        flavor = i % 4
        if flavor == 0:  # autoencoder stack: relu hidden, linear bottleneck/out
            d, h, k = rng.integers(4, 9), rng.integers(3, 7), rng.integers(2, 4)
            net = nets.init_network((d, h, k, h, d), activation="relu", seed=i)
            net.activations[1] = "identity"
            batch = rng.random((6, d))
            err = grad_check(net, "mse", (batch, batch))
        elif flavor == 1:  # label classifier, 10-way
            d, h = rng.integers(5, 10), rng.integers(4, 8)
            net = nets.init_network((d, h, 10), activation="relu", seed=i,
                                    zero_last=True)
            for w in net.weights:  # move off the zero-init saddle
                w += rng.normal(scale=0.05, size=w.shape)
            x, y = rng.normal(size=(8, d)), rng.integers(0, 10, 8)
            err = grad_check(net, "softmax_ce", (x, y))
        elif flavor == 2:  # domain classifier, 2-way
            d, h = rng.integers(4, 9), rng.integers(3, 7)
            net = nets.init_network((d, h, 2), activation="relu", seed=i,
                                    zero_last=True)
            for w in net.weights:
                w += rng.normal(scale=0.05, size=w.shape)
            x, y = rng.normal(size=(10, d)), rng.integers(0, 2, 10)
            err = grad_check(net, "softmax_ce", (x, y))
        else:  # tanh variant of the classifier stack
            d, h = rng.integers(4, 9), rng.integers(3, 7)
            net = nets.init_network((d, h, 4), activation="tanh", seed=i)
            x, y = rng.normal(size=(7, d)), rng.integers(0, 4, 7)
            err = grad_check(net, "softmax_ce", (x, y))
        worst = max(worst, err)
    report(6, worst < 1e-4, f"max relative gradient error {worst:.2e} over "
                             f"20 instances (need < 1e-4)")


# ---------------------------------------------------------------------------
# 7. FGSM properties

def test_criterion_7_fgsm(desk_split, desk_classifier, report):
    _, val, test = desk_split
    val_acc = nets.accuracy(desk_classifier, flatten(val), val.labels)
    base_acc = nets.accuracy(desk_classifier, flatten(test), test.labels)

    eps = 0.1
    grad = nets.input_gradient(desk_classifier, flatten(test), test.labels)
    pre_clip = eps * np.sign(grad)
    linf_ok = np.max(np.abs(pre_clip)) <= eps  # exact by construction

    attacked = shifts.apply_adversarial(test, desk_classifier, eps, 1.0, seed=77)
    in_range = attacked.images.min() >= 0.0 and attacked.images.max() <= 1.0
    ball_ok = np.max(np.abs(attacked.images - test.images)) <= eps + 1e-12
    adv_acc = nets.accuracy(desk_classifier, flatten(attacked), attacked.labels)
    drop = base_acc - adv_acc
    ok = val_acc >= 0.9 and linf_ok and in_range and ball_ok and drop >= 0.2
    report(7, ok, f"val acc {val_acc:.3f} (>= 0.9); eps-ball exact {linf_ok}; "
                   f"range ok {in_range}; accuracy {base_acc:.3f} -> {adv_acc:.3f} "
                   f"(drop {drop:.3f} >= 0.2)")


# ---------------------------------------------------------------------------
# 8. Domain-classifier sanity

def test_criterion_8_domain_classifier_sanity(report):
    cfg = TrainConfig(batch_size=32, max_epochs=10, patience=10, seed=0)
    calm = 0
    for trial in range(20):
        rng = np.random.default_rng(800 + trial)
        src = rng.normal(0.0, 1.0, (100, 5))
        tgt = rng.normal(0.0, 1.0, (100, 5))
        check = harness.run_domain_classifier_test(src, tgt, cfg, alpha=0.05,
                                                   seed=trial)
        calm += check.outcome.p_value >= 0.05

    rejects = 0
    trials = 10
    for trial in range(trials):
        rng = np.random.default_rng(900 + trial)
        src = rng.normal(0.0, 1.0, (100, 5))
        tgt = rng.normal(10.0, 1.0, (100, 5))
        check = harness.run_domain_classifier_test(src, tgt, cfg, alpha=0.05,
                                                   seed=trial)
        rejects += check.outcome.reject
    ok = calm >= 18 and rejects == trials
    report(8, ok, f"null: p >= 0.05 in {calm}/20 (need >= 18); "
                   f"disjoint Gaussians at s=100: rejected {rejects}/{trials} (need all)")


# ---------------------------------------------------------------------------
# 9. cmd_bench determinism across thread counts

def test_criterion_9_bench_byte_identical(tmp_path, capsys, report):
    config = {
        "dataset": {"kind": "synthetic", "seed": 12},
        "methods": [{"kind": "nored"}, {"kind": "pca", "mode": "multivariate"},
                    {"kind": "bbsdh"}, {"kind": "classif"}],
        "shifts": [{"preset": "no_shift"},
                   {"preset": "large_gn_shift", "delta": 1.0},
                   {"preset": "ko_shift", "delta": 0.5}],
        "n_train": 400, "n_val": 200, "n_test": 200,
        "sample_sizes": [10, 50, 100], "runs": 2, "seed": 99,
        "latent_dim": 8, "hidden_dim": 32, "domain_hidden_dim": 8,
        "ae_epochs": 2, "clf_epochs": 3, "domain_epochs": 5, "n_perms": 100,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for name, threads in (("t1", 1), ("t4", 4), ("t1_again", 1)):
        outdir = tmp_path / name
        code = cli_main(["bench", "--config", str(cfg_path), "--out", str(outdir),
                         "--threads", str(threads)])
        assert code == 0
        digests.append((outdir / "records.csv").read_bytes())
    capsys.readouterr()
    identical = digests[0] == digests[1] == digests[2]
    report(9, identical, f"records.csv byte-identical across --threads 1/4/1 "
                          f"({len(digests[0])} bytes)")


# ---------------------------------------------------------------------------
# 10. Original-split mode

def _criterion10_split():
    """The train and test parts of a shipped split, and what they are."""
    root = os.environ.get("MNIST_DIR")
    if root:
        root = Path(root)
        train = load_idx(root / "train-images-idx3-ubyte",
                         root / "train-labels-idx1-ubyte")
        test = load_idx(root / "t10k-images-idx3-ubyte",
                        root / "t10k-labels-idx1-ubyte")
        return train, test, "mnist"
    train = digits.make_digits(4000, seed=606)
    sixes = train.class_indices(6)
    images = train.images.copy()
    images[sixes] = shifts.affine_transform_images(
        images[sixes], np.full(sixes.size, 8.0), np.zeros((sixes.size, 2)), np.ones(sixes.size))
    train = TensorDataset(images, train.labels, train.num_classes)
    test = digits.make_digits(2000, seed=608)
    return train, test, "synthetic canonical stand-in (train sixes rotated 8 degrees)"


def _raw_pixel_ks(part_a, part_b):
    """KS+Bonferroni over raw pixels: the test `detect --method nored` runs."""
    return dispatch_test(Representation(part_a), Representation(part_b),
                         DrKind.NORED, TestMode.UNIVARIATE)


def test_criterion_10_original_split_mode(report):
    train, test, source = _criterion10_split()
    sixes_a = flatten(train.subset(train.class_indices(6)))
    sixes_b = flatten(test.subset(test.class_indices(6)))
    canonical = _raw_pixel_ks(sixes_a, sixes_b)
    pooled = np.concatenate([sixes_a, sixes_b])
    calm = 0
    for seed in range(10):
        # a random re-split of the pooled parts at the same sizes
        a, b, _ = split_indices(pooled.shape[0], len(sixes_a), len(sixes_b), 0, seed)
        calm += not _raw_pixel_ks(pooled[a], pooled[b]).reject
    ok = canonical.reject and calm >= 9
    report(10, ok, f"{source}: canonical split rejected (min p "
                    f"{canonical.statistic:.2e} < {0.05 / 784:.2e}), re-splits calm "
                    f"in {calm}/10 seeds (need >= 9)")
