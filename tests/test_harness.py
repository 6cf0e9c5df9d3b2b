import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import shiftdetect
from shiftdetect import digits, harness, nets, shifts
from shiftdetect.data import TensorDataset
from shiftdetect.dimred import METHOD_TABLE, DrKind, Representation
from shiftdetect.errors import ShiftDetectError
from shiftdetect.harness import (
    ExperimentConfig,
    MethodSpec,
    NamedShift,
    detection_accuracy,
    read_records_csv,
    run_domain_classifier_test,
    run_experiment,
    top_exemplars,
    write_records_csv,
)
from shiftdetect.nets import TrainConfig
from shiftdetect.stattest import TestMode, TestOutcome, TestTag, binomial_two_sided


def _small_config(**overrides):
    base = dict(
        methods=(MethodSpec(DrKind.NORED), MethodSpec(DrKind.PCA),
                 MethodSpec(DrKind.PCA, TestMode.MULTIVARIATE),
                 MethodSpec(DrKind.CLASSIF)),
        shifts=(NamedShift("no_shift", shifts.preset("no_shift"), "none"),
                NamedShift("large_gn", shifts.preset("large_gn_shift", 1.0), "large")),
        n_train=300, n_val=150, n_test=150,
        sample_sizes=(10, 50, 100), runs=2,
        latent_dim=8, hidden_dim=32, domain_hidden_dim=8,
        ae_epochs=2, clf_epochs=2, domain_epochs=6, n_perms=100, seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def small_corpus():
    return digits.make_digits(700, seed=99)


@pytest.fixture(scope="module")
def small_result(small_corpus):
    return run_experiment(small_corpus, _small_config())


def test_grid_size(small_result):
    # |shifts| * |methods| * |sizes| * runs
    assert len(small_result.records) == 2 * 4 * 3 * 2


def test_grid_reproducible_bitwise(small_corpus, small_result):
    again = run_experiment(small_corpus, _small_config())
    for a, b in zip(small_result.records, again.records):
        assert (a.shift, a.method, a.mode, a.sample_size, a.run) == \
               (b.shift, b.method, b.mode, b.sample_size, b.run)
        assert a.status == b.status
        if a.outcome is not None:
            assert a.outcome == b.outcome


def test_grid_thread_count_invariant(small_corpus, small_result):
    threaded = run_experiment(small_corpus, _small_config(), threads=4)
    for a, b in zip(small_result.records, threaded.records):
        assert a.status == b.status
        assert a.outcome == b.outcome


def test_pipelined_pool_records_do_not_depend_on_threads(small_corpus):
    # s = 2 skips classif (one sample per half), s = 200 exceeds the 150-row sides
    cfg = _small_config(sample_sizes=(2, 10, 200))
    results = [run_experiment(small_corpus, cfg, threads=t).records for t in (1, 2, 3)]
    reasons = {r.reason for r in results[0] if r.status == "skipped"}
    assert reasons == {"fewer than 2 samples per half",
                       "insufficient samples (source 150, target 150)"}
    assert any(r.method == "classif" and r.status == "ok" for r in results[0])
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("threads", [0, -2])
def test_run_experiment_refuses_threads_below_one(small_corpus, monkeypatch, threads):
    def no_fit(*args, **kwargs):
        raise AssertionError("reducers fitted before threads was checked")

    monkeypatch.setattr(harness, "fit_reducers", no_fit)
    with pytest.raises(ShiftDetectError, match=f"^threads must be >= 1, got {threads}$"):
        run_experiment(small_corpus, _small_config(), threads=threads)


class _RecordingPool(ThreadPoolExecutor):
    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shutdown_calls = 0
        self.made.append(self)

    def shutdown(self, *args, **kwargs):
        self.shutdown_calls += 1
        super().shutdown(*args, **kwargs)


def test_failing_cell_raises_and_shuts_the_pool_down(small_corpus, monkeypatch):
    dispatch = harness.dispatch_test

    def failing_dispatch(rep_source, rep_target, kind, mode, **kwargs):
        if rep_source.values.shape[0] == 50:
            raise RuntimeError("cell failed")
        return dispatch(rep_source, rep_target, kind, mode, **kwargs)

    monkeypatch.setattr(harness, "dispatch_test", failing_dispatch)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", _RecordingPool)
    _RecordingPool.made.clear()
    cfg = _small_config(methods=(MethodSpec(DrKind.NORED), MethodSpec(DrKind.CLASSIF)),
                        sample_sizes=(10, 50))
    raised = []

    def target():
        try:
            run_experiment(small_corpus, cfg, threads=2)
        except Exception as exc:  # handed to the test thread
            raised.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "run_experiment hung after a cell raised"
    assert len(raised) == 1 and isinstance(raised[0], RuntimeError)
    (pool,) = _RecordingPool.made
    assert pool.shutdown_calls == 1
    with pytest.raises(RuntimeError):
        pool.submit(print)  # a shut-down pool takes no new work


def test_grid_reduces_each_side_once_per_kind(small_corpus, monkeypatch):
    # a run's source rows once per kind, and each block's target once per
    # kind: both modes of pca share one reduction, and classif's reduction
    # is the identity
    reduce = harness.reduce
    calls = []

    def counting_reduce(kind, fitted, x):
        calls.append(DrKind(kind))
        return reduce(kind, fitted, x)

    monkeypatch.setattr(harness, "reduce", counting_reduce)
    cfg = _small_config(methods=(MethodSpec(DrKind.NORED), MethodSpec(DrKind.PCA),
                                 MethodSpec(DrKind.PCA, TestMode.MULTIVARIATE),
                                 MethodSpec(DrKind.BBSDS), MethodSpec(DrKind.BBSDH),
                                 MethodSpec(DrKind.CLASSIF)),
                        sample_sizes=(10,))
    run_experiment(small_corpus, cfg)
    per_kind = cfg.runs + cfg.runs * len(cfg.shifts)
    kinds = (DrKind.NORED, DrKind.PCA, DrKind.BBSDS, DrKind.BBSDH, DrKind.CLASSIF)
    assert Counter(calls) == {kind: per_kind for kind in kinds}


def test_training_rows_are_freed_before_the_first_cell(small_corpus, monkeypatch):
    fit, dispatch = harness.fit_reducers, harness.dispatch_test
    train_images, alive_in_cells = [], []

    def watched_fit(train, cfg):
        train_images.append(weakref.ref(train.images))
        return fit(train, cfg)

    def watching_dispatch(*args, **kwargs):
        alive_in_cells.append(train_images[0]() is not None)
        return dispatch(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_reducers", watched_fit)
    monkeypatch.setattr(harness, "dispatch_test", watching_dispatch)
    cfg = _small_config(methods=tuple(MethodSpec(k) for k in DrKind), sample_sizes=(10,),
                        runs=1)
    run_experiment(small_corpus, cfg)
    assert alive_in_cells and not any(alive_in_cells)


# records.csv of a tiny grid over all eight kinds, (pca, multivariate) and an
# adversarial shift, with sizes that hit both skip reasons; the hash pins the
# bytes a refactor of the method dispatch must keep
GOLDEN_CONFIG = {
    "dataset": {"kind": "synthetic", "seed": 3},
    "methods": [k.value for k in DrKind] + [["pca", "multivariate"]],
    "shifts": [{"preset": "no_shift", "name": "no_shift", "intensity": "none"},
               {"preset": "adv_shift", "delta": 0.5, "name": "adv", "intensity": "medium"}],
    "n_train": 200, "n_val": 60, "n_test": 60, "sample_sizes": [2, 20, 100], "runs": 1,
    "latent_dim": 4, "hidden_dim": 16, "domain_hidden_dim": 4,
    "ae_epochs": 2, "clf_epochs": 2, "domain_epochs": 2, "n_perms": 50, "seed": 3,
}
GOLDEN_RECORDS_SHA256 = "31d2acb4cd339501206bea5576af9273288cd78e8fb97bc5fc21b42187207f0a"
# the tables bench writes from those records: their row order and number
# formats are pinned apart from the records
GOLDEN_TABLES_SHA256 = {
    "accuracy_by_method.csv": "bf37bb585c48e4d9adb147d48359080d2ed5e9f60f17b99586d596b4ca1b47ee",
    "accuracy_by_shift.csv": "307055568cea563b313219bda722f9bf47f9ca2785301398fa904e9324321312",
    "accuracy_by_intensity.csv": "20363df565c438e8ca628fb2bc5acac60ed50ec40f0322e73c37711d54bb467d",
    "accuracy_by_delta.csv": "4cd0be0b32abf92f32527074df3a98befc0a1d36af276cc71e22b39d6e51ff46",
    "pvalue_curves.csv": "e7a6e1ce14bed5445b7f9ceadfcbfbd9014c55211c1029b550288d8e0a0da212",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_golden_records_all_kinds(tmp_path, threads):
    # the BLAS thread count moves the last bits of the pca, srp and uae
    # multivariate MMD statistics (srp fits nothing, so not only fit_pca's
    # eigensolver), so the grid runs in a child process held at one BLAS thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    package_root = str(Path(shiftdetect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(GOLDEN_CONFIG))
    subprocess.run([sys.executable, "-m", "shiftdetect.cli", "bench", "--config",
                    str(config_path), "--out", str(out), "--threads", str(threads)],
                   env=env, check=True, capture_output=True)
    result = read_records_csv(out / "records.csv")
    reasons = {r.reason for r in result.records if r.status == "skipped"}
    assert reasons == {"fewer than 2 samples per half",
                       "insufficient samples (source 60, target 60)"}
    assert hashlib.sha256((out / "records.csv").read_bytes()).hexdigest() == \
        GOLDEN_RECORDS_SHA256
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_TABLES_SHA256} == GOLDEN_TABLES_SHA256


def test_multivariate_cells_capped_not_errored():
    cfg = _small_config(sample_sizes=(10, 2000), n_val=150, n_test=150)
    # sizes above the pool are skipped for insufficiency; build one where the
    # cap itself triggers: use sizes within pool but above the MMD cap
    corpus = digits.make_digits(3000, seed=7)
    cfg = _small_config(n_train=400, n_val=1300, n_test=1300,
                        sample_sizes=(10, 1200), runs=1)
    res = run_experiment(corpus, cfg)
    capped = [r for r in res.records
              if r.mode == "multivariate" and r.sample_size == 1200]
    assert capped
    assert all(r.status == "skipped" and r.reason == "multivariate mode capped at 1000"
               for r in capped)
    univ = [r for r in res.records
            if r.mode == "univariate" and r.sample_size == 1200 and r.method == "nored"]
    assert all(r.status == "ok" for r in univ)


def test_classif_small_s_skipped(small_result):
    tiny = [r for r in small_result.records
            if r.method == "classif" and r.sample_size < 4]
    for r in tiny:
        assert r.status == "skipped"


def test_classif_skip_policy_exact():
    corpus = digits.make_digits(400, seed=13)
    cfg = _small_config(methods=(MethodSpec(DrKind.CLASSIF),),
                        n_train=100, n_val=140, n_test=140,
                        sample_sizes=(2, 3, 4, 10), runs=1)
    res = run_experiment(corpus, cfg)
    by_size = {r.sample_size: r for r in res.records}
    assert by_size[2].status == "skipped"
    assert by_size[3].status == "skipped"
    assert by_size[4].status == "ok"
    assert by_size[10].status == "ok"


def test_sizes_beyond_pool_are_skipped(small_result):
    # no such sizes in the small config; construct explicitly
    corpus = digits.make_digits(260, seed=3)
    cfg = _small_config(n_train=100, n_val=80, n_test=80,
                        sample_sizes=(50, 100), runs=1,
                        methods=(MethodSpec(DrKind.NORED),))
    res = run_experiment(corpus, cfg)
    big = [r for r in res.records if r.sample_size == 100]
    assert all(r.status == "skipped" and "insufficient" in r.reason for r in big)


def test_detection_accuracy_bounds(small_result):
    rows = detection_accuracy(small_result, ("shift",))
    by_shift = {row["shift"]: row["accuracy"] for row in rows}
    assert by_shift["large_gn"] > by_shift["no_shift"]
    for row in rows:
        assert 0.0 <= row["accuracy"] <= 1.0


def test_detection_accuracy_trivial_cases(tmp_path):
    rec = harness.Record(shift="s", intensity="none", delta=0.0, method="nored",
                         mode="univariate", sample_size=10, run=0, status="ok")
    from shiftdetect.stattest import TestOutcome, TestTag
    hit = harness.Record(**{**rec.__dict__, "outcome": TestOutcome(0.0, 0.001, 0.05, True, TestTag.CHI2)})
    miss = harness.Record(**{**rec.__dict__, "outcome": TestOutcome(0.0, 0.9, 0.05, False, TestTag.CHI2)})
    all_hits = harness.ExperimentResult(records=[hit, hit])
    none_hit = harness.ExperimentResult(records=[miss, miss])
    assert detection_accuracy(all_hits, ("shift",))[0]["accuracy"] == 1.0
    assert detection_accuracy(none_hit, ("shift",))[0]["accuracy"] == 0.0
    with pytest.raises(ShiftDetectError, match="^no usable records$"):
        detection_accuracy(harness.ExperimentResult(records=[]), ("shift",))
    # the table is refused before its file is created
    skipped = harness.Record(**{**rec.__dict__, "status": "skipped"})
    with pytest.raises(ShiftDetectError, match="^no usable records$"):
        harness.write_accuracy_csv(harness.ExperimentResult(records=[skipped]), ("shift",),
                                   tmp_path / "acc.csv")
    assert not (tmp_path / "acc.csv").exists()


def test_detection_accuracy_sorts_sizes_numerically(small_result):
    rows = detection_accuracy(small_result, ("method", "sample_size"))
    sizes_per_method = {}
    for row in rows:
        sizes_per_method.setdefault(row["method"], []).append(row["sample_size"])
    for sizes in sizes_per_method.values():
        assert sizes == sorted(sizes)


def _curve(result, shift, method):
    """The p-value curve rows (pvalue_curves.csv's) of one (shift, method) pair."""
    return [row for row in harness._pvalue_curves(result.records)
            if (row["shift"], row["method"]) == (shift, method)]


def test_pvalue_evolution_series(small_result):
    series = _curve(small_result, "no_shift", "nored")
    assert len(series) == 3  # one entry per sample size
    assert [row["sample_size"] for row in series] == [10, 50, 100]
    for row in series:
        assert row["min_p"] <= row["mean_p"] <= row["max_p"]
    assert _curve(small_result, "nope", "nored") == []


def test_pvalue_curves_keep_the_two_modes_apart(small_result, tmp_path):
    # pca runs in both modes: KS and MMD p-values are separate curves
    runs = _small_config().runs
    series = _curve(small_result, "no_shift", "pca")
    assert [(row["mode"], row["sample_size"]) for row in series] == [
        (mode, s) for mode in ("multivariate", "univariate") for s in (10, 50, 100)]
    assert all(row["n"] == runs for row in series)
    harness.write_pvalue_curves_csv(small_result, tmp_path / "curves.csv")
    with open(tmp_path / "curves.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == ["shift", "method", "mode", "sample_size", "mean_p", "min_p",
                             "max_p", "n"]
    pca = [(r["shift"], r["mode"], r["sample_size"], r["mean_p"], r["n"]) for r in rows
           if r["method"] == "pca" and r["shift"] == "no_shift"]
    assert pca == [("no_shift", row["mode"], str(row["sample_size"]), repr(row["mean_p"]),
                    str(runs)) for row in series]


def test_pvalue_declines_under_strong_shift(small_result):
    series = _curve(small_result, "large_gn", "nored")
    means = [row["mean_p"] for row in series]
    assert means[-1] <= means[0]


def test_pvalue_flat_under_null():
    # mean p-value over many runs shows no trend in s for iid data
    corpus = digits.make_digits(700, seed=21)
    cfg = _small_config(methods=(MethodSpec(DrKind.NORED),),
                        shifts=(NamedShift("no_shift", shifts.preset("no_shift"), "none"),),
                        runs=6, sample_sizes=(10, 30, 100))
    series = _curve(run_experiment(corpus, cfg), "no_shift", "nored")
    means = [row["mean_p"] for row in series]
    assert max(means) - min(means) < 0.6  # no systematic collapse toward 0
    assert min(means) > 0.2


# ---------------------------------------------------------------------------
# domain classifier path and exemplars

def test_fit_reducers_fits_each_named_model_once():
    ds = digits.make_digits(120, seed=4)
    cfg = _small_config(methods=(MethodSpec(DrKind.NORED), MethodSpec(DrKind.UAE),
                                 MethodSpec(DrKind.CLASSIF)), n_train=120)
    assert set(harness.fit_reducers(ds, cfg).models) == {"uae"}
    # bbsds and bbsdh read one label classifier; an adversarial shift needs it too
    adv = (NamedShift("adv", shifts.preset("adv_shift", 0.5), "medium"),)
    for methods, shift_list in (((MethodSpec(DrKind.BBSDS), MethodSpec(DrKind.BBSDH)),
                                 cfg.shifts), ((MethodSpec(DrKind.NORED),), adv)):
        fitted = harness.fit_reducers(ds, _small_config(methods=methods, shifts=shift_list,
                                                        n_train=120))
        assert set(fitted.models) == {"label_clf"}
        assert fitted.handle_for(DrKind.BBSDH) is fitted.models["label_clf"]
        assert fitted.handle_for(DrKind.NORED) is None


def test_fit_reducers_fits_every_method_table_model_type():
    # every model METHOD_TABLE names, fitted as the harness fits them: "uae"
    # an autoencoder at its initial draw, "tae" one that training moved
    train = digits.make_digits(60, seed=3)
    cfg = ExperimentConfig(
        methods=tuple(MethodSpec(kind) for kind in DrKind),
        shifts=(NamedShift("none", shifts.preset("no_shift")),),
        n_train=train.n, n_val=0, n_test=0, latent_dim=4, hidden_dim=8,
        ae_epochs=2, clf_epochs=2, batch_size=16)
    models = harness.fit_reducers(train, cfg).models
    assert {type(m) for m in models.values()} == {
        row.model_type for row in METHOD_TABLE.values() if row.model is not None}
    arch = (train.dim, 8, 4, 8, train.dim)
    for name, seed_part, at_init in (("uae", 12, True), ("tae", 14, False)):
        init = nets.init_network(arch, seed=harness._derive_seed(cfg.seed, seed_part))
        assert [np.array_equal(got, drawn) for got, drawn in
                zip(models[name].encoder.weights, init.weights[:2])] == [at_init] * 2, name


@pytest.mark.parametrize("kinds, split_drawn", [
    ((DrKind.NORED, DrKind.PCA, DrKind.SRP, DrKind.UAE, DrKind.CLASSIF), False),
    ((DrKind.NORED, DrKind.TAE), True),
    ((DrKind.BBSDS,), True),
])
def test_fit_reducers_draws_the_early_stopping_split_only_for_trained_nets(
        monkeypatch, kinds, split_drawn):
    parts = []

    def spy(*args):
        parts.append(args)
        return derive(*args)

    derive = harness._derive_seed
    monkeypatch.setattr(harness, "_derive_seed", spy)
    ds = digits.make_digits(120, seed=4)
    cfg = _small_config(methods=tuple(MethodSpec(k) for k in kinds), n_train=120, ae_epochs=1,
                        clf_epochs=1)
    harness.fit_reducers(ds, cfg)
    assert ((cfg.seed, 13) in parts) == split_drawn


@pytest.mark.parametrize("kind", [DrKind.BBSDH, DrKind.CLASSIF])
def test_method_spec_refuses_multivariate_for_a_univariate_method(kind):
    message = (f"^method entry \\['{kind.value}', 'multivariate'\\]: "
               f"{kind.value} has no multivariate test$")
    with pytest.raises(ShiftDetectError, match=message):
        MethodSpec(kind, TestMode.MULTIVARIATE)
    with pytest.raises(ShiftDetectError, match=message):
        ExperimentConfig.from_dict({"methods": [[kind.value, "multivariate"]],
                                    "shifts": [{"preset": "no_shift"}],
                                    "n_train": 10, "n_val": 10, "n_test": 10})
    assert MethodSpec(kind).mode == TestMode.UNIVARIATE
    assert MethodSpec(DrKind.BBSDS, TestMode.MULTIVARIATE).mode == TestMode.MULTIVARIATE
    # plain strings are taken as the enums they name
    assert MethodSpec("pca", "multivariate") == MethodSpec(DrKind.PCA, TestMode.MULTIVARIATE)


def test_fit_reducers_refuses_one_class_labels():
    ds = digits.make_digits(60, seed=3)
    one_class = TensorDataset(ds.images, np.zeros(ds.n, dtype=np.int64), 1)
    cfg = _small_config(methods=(MethodSpec(DrKind.BBSDS),), n_train=60)
    with pytest.raises(ShiftDetectError,
                       match="^the label classifier needs training data with >= 2 classes$"):
        harness.fit_reducers(one_class, cfg)


def test_train_config_keeps_an_explicit_learning_rate():
    cfg = _small_config(lr0=0.3, ae_lr0=0.7)
    assert cfg.train_config(3, 1).lr0 == 0.3
    assert cfg.train_config(3, 1, lr0=cfg.ae_lr0).lr0 == 0.7
    with pytest.raises(ValueError):  # no silent fallback to cfg.lr0
        cfg.train_config(3, 1, lr0=0.0)
    boundary = _small_config(ae_epochs=0, clf_epochs=0, domain_epochs=0, momentum=0.0,
                             patience=1, batch_size=1, domain_batch_size=1)
    assert boundary.train_config(0, 1).max_epochs == 0


def test_domain_check_requires_enough_samples():
    with pytest.raises(ShiftDetectError, match="^fewer than 2 samples per half$"):
        run_domain_classifier_test(np.zeros((3, 2)), np.zeros((10, 2)),
                                   TrainConfig(max_epochs=1))


def _domain_check_by_copies(cfg, source, target, rows, seed, train_seed):
    """The domain check by copies: the s rows of each side, the two training
    halves from those, np.vstack of the halves, then the held-out rows. Both
    sides use min(n_src, n_tgt) rows of their shuffled order, half to train.
    (accuracy, p-value, held-out target rows, their indices)."""
    source, target = source[rows[0]], target[rows[1]]
    n = min(source.shape[0], target.shape[0])
    half = n // 2
    if half < 2:
        raise ShiftDetectError("fewer than 2 samples per half")
    rng = np.random.default_rng(seed)
    src_order = rng.permutation(source.shape[0])
    tgt_order = rng.permutation(target.shape[0])
    x = np.vstack([source[src_order[:half]], target[tgt_order[:half]]])
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    clf = nets.train_label_classifier((x, y), (x, y), 2, cfg.domain_train_config(train_seed),
                                      hidden_dims=(cfg.domain_hidden_dim,))
    held_src = source[src_order[half:n]]
    held_tgt_idx = tgt_order[half:n]
    held_tgt = target[held_tgt_idx]
    correct = int(np.sum(nets.hard_predictions(clf, held_src) == 0)
                  + np.sum(nets.hard_predictions(clf, held_tgt) == 1))
    n_heldout = held_src.shape[0] + held_tgt.shape[0]
    p_value = binomial_two_sided(correct, n_heldout)
    return correct / n_heldout, p_value, held_tgt, held_tgt_idx


@pytest.mark.parametrize("n_src, n_tgt", [(4, 4), (5, 5), (4, 7), (40, 40), (41, 41),
                                          (41, 40)])
def test_domain_check_by_position_matches_the_copying_path(n_src, n_tgt):
    rng = np.random.default_rng(n_src * 100 + n_tgt)
    source = rng.random((60, 20))
    target = rng.random((50, 20)) + 0.1
    # a row subset in shuffled order, as a grid cell passes order[:s]
    rows = (rng.permutation(60)[:n_src], rng.permutation(50)[:n_tgt])
    cfg = _small_config(domain_epochs=3, domain_batch_size=8)
    acc, p, held, held_idx = _domain_check_by_copies(cfg, source, target, rows, 11, 12)

    got = harness.domain_check(cfg, source, target, 11, 12, rows=rows)
    assert (got.accuracy, got.outcome.p_value) == (acc, p)
    assert got.heldout_target.tobytes() == held.tobytes()
    assert np.array_equal(got.heldout_target_indices, held_idx)
    n = min(n_src, n_tgt)  # the larger side's extra rows go unused
    assert got.n_heldout == 2 * (n - n // 2) == 2 * harness.domain_halves(n_src, n_tgt)[1]
    outcome = harness.check(cfg, MethodSpec(DrKind.CLASSIF), Representation(source),
                            Representation(target), 11, 12, rows=rows)
    assert outcome == got.outcome
    # without rows, every row is tested, as when the rows were gathered first
    whole = harness.domain_check(cfg, source[rows[0]], target[rows[1]], 11, 12)
    assert (whole.accuracy, whole.heldout_target.tobytes()) == (acc, held.tobytes())
    assert np.array_equal(whole.heldout_target_indices, held_idx)


@pytest.mark.parametrize("n_src, n_tgt", [(3, 10), (10, 3), (2, 2)])
def test_domain_check_by_position_refuses_fewer_than_2_per_half(n_src, n_tgt):
    rng = np.random.default_rng(3)
    source, target = rng.random((20, 4)), rng.random((20, 4))
    rows = (rng.permutation(20)[:n_src], rng.permutation(20)[:n_tgt])
    cfg = _small_config(domain_epochs=1)
    with pytest.raises(ShiftDetectError) as old:
        _domain_check_by_copies(cfg, source, target, rows, 1, 2)
    with pytest.raises(ShiftDetectError) as new:
        harness.domain_check(cfg, source, target, 1, 2, rows=rows)
    assert str(new.value) == str(old.value) == "fewer than 2 samples per half"


@pytest.mark.parametrize("rows", [(np.array([0, 1, 2, 20]), np.arange(4)),
                                  (np.arange(4), np.array([-1, 0, 1, 2])),
                                  (np.arange(4.0), np.arange(4))])
def test_domain_check_refuses_rows_outside_the_sides(rows):
    source, target = np.zeros((20, 4)), np.ones((20, 4))
    with pytest.raises((IndexError, ValueError), match="rows must"):
        harness.domain_check(_small_config(domain_epochs=1), source, target, 1, rows=rows)


def test_domain_check_refuses_sides_of_different_width():
    with pytest.raises(ShiftDetectError, match="^sides disagree in dim: 3 vs 4$"):
        run_domain_classifier_test(np.zeros((10, 3)), np.ones((10, 4)),
                                   TrainConfig(max_epochs=1))


@pytest.mark.parametrize("route", ["grid_cell", "whole_sides"])
def test_domain_check_holds_one_training_matrix(route):
    # one (200 + 200, 784) training matrix, freed before the held-out rows
    # are gathered, which are of the same size: nothing else of row size
    rng = np.random.default_rng(8)
    source, target = rng.random((800, 784)), rng.random((800, 784)) + 0.05
    cfg = _small_config(domain_epochs=2)
    matrix_bytes = (200 + 200) * 784 * 8
    if route == "grid_cell":
        rows = (rng.permutation(800)[:400], rng.permutation(800)[:400])
    else:
        source, target, rows = source[:400], target[:400], None
    reps = Representation(source), Representation(target)
    tracemalloc.start()
    try:
        harness.check(cfg, MethodSpec(DrKind.CLASSIF), *reps, 1, 2, rows=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * matrix_bytes


def _fixed_check(reject: bool):
    """A DomainCheck of a small trained classifier over 10 held-out rows,
    whose outcome rejects or not as asked."""
    clf = nets.train_domain_classifier(np.vstack([np.zeros((4, 3)), np.ones((4, 3))]), 4,
                                       TrainConfig(max_epochs=2, batch_size=4))
    p = 0.01 if reject else 0.9
    outcome = TestOutcome(statistic=0.5, p_value=p, alpha=0.05, reject=reject,
                          test_tag=TestTag.BINOMIAL)
    return harness.DomainCheck(clf=clf, outcome=outcome, accuracy=0.5, n_heldout=20,
                               heldout_target=np.random.default_rng(0).random((10, 3)),
                               heldout_target_indices=np.arange(10))


def test_top_exemplars_gate():
    check = _fixed_check(reject=False)
    top_different, top_similar = top_exemplars(check, 3)
    assert not check.outcome.reject
    assert top_different == [] and top_similar == []


def test_top_exemplars_refuses_k_below_one():
    for k in (0, -3):
        for reject in (True, False):  # refused whether or not the gate passes
            with pytest.raises(ShiftDetectError, match=f"^k must be >= 1, got {k}$"):
                top_exemplars(_fixed_check(reject), k)


def test_top_exemplars_ranking():
    # classifier with a known monotone score: pick extremes correctly
    rng = np.random.default_rng(1)
    source = rng.normal(0.0, 0.3, (60, 2))
    target = rng.normal(2.0, 0.3, (60, 2))
    check = run_domain_classifier_test(source, target,
                                       TrainConfig(max_epochs=10, batch_size=8, seed=2),
                                       alpha=0.05, seed=3)
    scores = nets.domain_scores(check.clf, check.heldout_target)
    top_different, top_similar = top_exemplars(check, 1)
    assert check.outcome.reject
    assert top_different[0][0] == int(np.argmax(scores))
    assert top_similar[0][0] == int(np.argmin(scores))
    assert top_different[0][1] >= top_similar[0][1]


def test_top_exemplars_planted_recovery():
    # target held-out contains 10% source-like points; they should dominate
    # the most-similar decile
    rng = np.random.default_rng(4)
    source = rng.normal(0.0, 1.0, (400, 5))
    target = rng.normal(3.0, 1.0, (400, 5))
    planted = rng.normal(0.0, 1.0, (40, 5))
    target[-40:] = planted  # kept at the end; shuffle happens inside
    check = run_domain_classifier_test(source, target,
                                       TrainConfig(max_epochs=10, batch_size=32, seed=5),
                                       alpha=0.05, seed=6)
    planted_heldout = {i for i, orig in enumerate(check.heldout_target_indices)
                       if orig >= 360}
    k = check.heldout_target.shape[0] // 10
    _, top_similar = top_exemplars(check, k)
    assert check.outcome.reject
    similar = {i for i, _ in top_similar}
    recovered = len(similar & planted_heldout)
    assert recovered >= 0.7 * min(k, len(planted_heldout))


# ---------------------------------------------------------------------------
# records CSV round trip

def test_records_csv_round_trip(tmp_path, small_result):
    path = tmp_path / "records.csv"
    write_records_csv(small_result, path)
    back = read_records_csv(path)
    assert len(back.records) == len(small_result.records)
    for a, b in zip(small_result.records, back.records):
        assert (a.shift, a.method, a.mode, a.sample_size, a.run, a.status) == \
               (b.shift, b.method, b.mode, b.sample_size, b.run, b.status)
        if a.outcome is not None:
            assert b.outcome.p_value == a.outcome.p_value
            assert b.outcome.statistic == a.outcome.statistic
            assert b.outcome.reject == a.outcome.reject
