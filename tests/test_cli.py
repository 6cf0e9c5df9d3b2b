import csv
import hashlib
import json

import numpy as np
import pytest

from shiftdetect import cli, digits, harness, nets
from shiftdetect.cli import main
from shiftdetect.data import TensorDataset, flatten, load_csv, load_idx, write_csv, write_idx
from shiftdetect.dimred import METHOD_TABLE, DrKind, fit_pca, save_model
from shiftdetect.stattest import TestMode


@pytest.fixture()
def sample_files(tmp_path):
    rng = np.random.default_rng(0)
    near = np.clip(rng.normal(0.4, 0.1, (160, 1, 8, 1)), 0, 1)
    far = np.clip(rng.normal(0.8, 0.1, (160, 1, 8, 1)), 0, 1)
    src = tmp_path / "source.csv"
    tgt_same = tmp_path / "target_same.csv"
    tgt_far = tmp_path / "target_far.csv"
    write_csv(TensorDataset(near, rng.integers(0, 2, 160), 2), src)
    write_csv(TensorDataset(near.copy(), rng.integers(0, 2, 160), 2), tgt_same)
    write_csv(TensorDataset(far, rng.integers(0, 2, 160), 2), tgt_far)
    return src, tgt_same, tgt_far


def test_detect_identical_files_exit_zero(tmp_path, sample_files, capsys):
    src, _, _ = sample_files
    code = main(["detect", str(src), str(src), "--method", "nored"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["p_value"] == 1.0
    assert not out["reject"]


def test_detect_shifted_files_exit_three(sample_files, capsys):
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", "nored"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["reject"]


def test_detect_missing_file_exit_66(sample_files, capsys):
    src, _, _ = sample_files
    code = main(["detect", str(src), "/nonexistent/file.csv"])
    captured = capsys.readouterr()
    assert code == 66
    assert captured.out == ""  # no outcome printed on the data channel


def test_detect_usage_error_exit_64(sample_files):
    src, _, far = sample_files
    assert main(["detect", str(src), str(far), "--method", "bogus"]) == 64


def test_detect_bbsd_without_labels_exit_65(tmp_path, capsys):
    rng = np.random.default_rng(5)
    unlabeled = TensorDataset(rng.random((50, 1, 6, 1)), np.zeros(50, dtype=int), 1)
    path = tmp_path / "unlabeled.csv"
    write_csv(unlabeled, path)
    code = main(["detect", str(path), str(path), "--method", "bbsds", "--epochs", "1"])
    capsys.readouterr()
    assert code == 65


def test_detect_names_the_file_and_line_of_a_bad_csv_row(tmp_path, sample_files, capsys):
    src, _, _ = sample_files
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2,0\n0.3,abc,1\n")
    assert main(["detect", str(src), str(bad), "--method", "nored"]) == 65
    assert capsys.readouterr().err == (f"error: {bad} line 2: could not convert "
                                       f"string to float: 'abc'\n")


@pytest.mark.parametrize("second_row, message", [
    ("0.3,1.5,1", "pixel values must lie in [0, 1]"),
    ("0.3,0.4,-1", "labels must be >= 0, got -1"),
], ids=["pixel-above-1", "negative-label"])
def test_detect_names_the_line_of_an_out_of_range_csv_value(tmp_path, sample_files, capsys,
                                                            second_row, message):
    src, _, _ = sample_files
    bad = tmp_path / "oob.csv"
    bad.write_text(f"0.1,0.2,0\n{second_row}\n")
    assert main(["detect", str(src), str(bad), "--method", "nored"]) == 65
    assert capsys.readouterr().err == f"error: {bad} line 2: {message}\n"


_DETECT_KEYS = {"statistic", "p_value", "alpha", "reject", "test_tag", "method", "mode",
                "n_source", "n_target", "n_fit", "n_reference"}


def test_detect_bbsd_reports_untrained_classifier(sample_files, capsys):
    # the fixture's labels carry no signal: at seed 0 no epoch beats the
    # initial net, whose outputs are constant, and detect says so once
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", "bbsds", "--seed", "0"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 0
    assert set(out) == _DETECT_KEYS | {"classifier_best_epoch"}
    assert out["classifier_best_epoch"] == 0
    assert len([line for line in captured.err.splitlines() if line.startswith("warning:")]) == 1


def test_detect_bbsd_trained_classifier_no_warning(sample_files, capsys):
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", "bbsdh", "--seed", "15"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 3
    assert out["classifier_best_epoch"] > 0
    assert "warning" not in captured.err
    main(["detect", str(src), str(far), "--method", "pca"])
    assert set(json.loads(capsys.readouterr().out)) == _DETECT_KEYS


def test_detect_bbsdh_one_shared_class_exit_zero(sample_files, capsys):
    # at seed 26 the classifier trains (best epoch > 0) yet puts every source
    # and target row in one class: one shared class is no evidence of shift
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", "bbsdh", "--seed", "26"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["test_tag"] == "chi2"
    assert (out["statistic"], out["p_value"]) == (0.0, 1.0)
    assert out["classifier_best_epoch"] > 0


def test_detect_multivariate_mode(sample_files, capsys):
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", "pca",
                 "--mode", "multivariate", "--latent-dim", "4"])
    out = json.loads(capsys.readouterr().out)
    assert out["test_tag"] == "mmd_perm"
    assert code == 3


# the test each reducer routes to, as in the README's reducer table
_ROUTE_TAG = {DrKind.BBSDH: "chi2", DrKind.CLASSIF: "binomial"}


@pytest.mark.parametrize("kind", list(DrKind))
def test_detect_every_method_routes_to_its_test(sample_files, capsys, kind):
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", kind.value, "--epochs", "2",
                 "--latent-dim", "4", "--hidden-dim", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 3)
    assert out["test_tag"] == _ROUTE_TAG.get(kind, "ks_bonferroni")
    assert (out["method"], out["mode"]) == (kind.value, "univariate")


@pytest.mark.parametrize("kind", ["pca", "tae", "bbsds", "bbsdh"])
def test_detect_tests_source_rows_its_model_was_not_fitted_on(sample_files, monkeypatch,
                                                              capsys, kind):
    # a model tested on the rows it was fitted on sees a shift under the null
    src, _, far = sample_files
    fitted, tested = [], []
    fit_reducers, reduce = harness.fit_reducers, cli.reduce

    def record_fit(train, cfg):
        fitted.append(flatten(train))
        return fit_reducers(train, cfg)

    def record_reduce(k, handle, x):
        tested.append(x)
        return reduce(k, handle, x)

    monkeypatch.setattr("shiftdetect.harness.fit_reducers", record_fit)
    monkeypatch.setattr("shiftdetect.cli.reduce", record_reduce)
    assert main(["detect", str(src), str(far), "--method", kind, "--epochs", "2",
                 "--latent-dim", "4", "--hidden-dim", "8"]) in (0, 3)
    out = json.loads(capsys.readouterr().out)
    rows = {tuple(r) for r in flatten(load_csv(src))}
    fit_rows, source_rows = ({tuple(r) for r in x} for x in (fitted[0], tested[0]))
    assert len(rows) == 160 and not fit_rows & source_rows and fit_rows | source_rows == rows
    assert (out["n_fit"], out["n_reference"], out["n_source"]) == (80, 80, 160)


def _refuse_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("data built, split, shifted or a model fitted before the "
                             "arguments were checked")

    for target in ("shiftdetect.digits.make_digits", "shiftdetect.harness.fit_and_reference_rows",
                   "shiftdetect.harness.fit_reducers",
                   "shiftdetect.harness.run_domain_classifier_test",
                   "shiftdetect.shifts.apply_shift"):
        monkeypatch.setattr(target, no_work)


@pytest.mark.parametrize("argv", [["detect", "--method", kind.value] for kind in DrKind]
                         + [["detect", "--method", "classif", "--exemplars", "3", "--out", "ex"]],
                         ids=[kind.value for kind in DrKind] + ["exemplars"])
def test_detect_and_exemplars_refuse_files_of_different_widths(tmp_path, sample_files,
                                                               monkeypatch, capsys, argv):
    _refuse_work(monkeypatch)
    src, _, _ = sample_files
    rng = np.random.default_rng(2)
    narrow = tmp_path / "narrow.csv"
    write_csv(TensorDataset(rng.random((160, 1, 5, 1)), rng.integers(0, 2, 160), 2), narrow)
    for source, target, widths in ((src, narrow, (8, 5)), (narrow, src, (5, 8))):
        assert main([argv[0], str(source), str(target)] + argv[1:]) == 65
        assert capsys.readouterr().err == (
            f"error: {source} has {widths[0]} pixel columns and {target} has {widths[1]}; "
            f"the two samples must have the same width\n")
    assert not (tmp_path / "ex").exists()


def test_detect_clamps_an_autoencoder_bottleneck_below_the_file_width(sample_files,
                                                                      monkeypatch, capsys):
    # 8-column files against the default --latent-dim 32: uae and tae fit a
    # bottleneck of 7, and uae with default flags tells same from far
    fit_reducers, bottlenecks = harness.fit_reducers, []

    def record_bottleneck(train, cfg):
        bottlenecks.append(cfg.latent_dim)
        return fit_reducers(train, cfg)

    monkeypatch.setattr("shiftdetect.harness.fit_reducers", record_bottleneck)
    src, same, far = sample_files
    for target, flags, code in ((same, ["--method", "uae"], 0), (far, ["--method", "uae"], 3),
                                (same, ["--method", "tae", "--epochs", "0"], 0)):
        assert main(["detect", str(src), str(target)] + flags) == code
        assert json.loads(capsys.readouterr().out)["reject"] == (code == 3)
    assert bottlenecks == [7, 7, 7]


def test_detect_trains_tae_with_default_flags_on_narrow_files(sample_files, capsys):
    # ae_lr0 is stated for 784 columns and scaled to the width: at 8 columns
    # the unscaled step diverged (non-finite validation score at epoch 2)
    src, same, far = sample_files
    for target, code in ((same, 0), (far, 3)):
        assert main(["detect", str(src), str(target), "--method", "tae"]) == code
        assert json.loads(capsys.readouterr().out)["reject"] == (code == 3)


@pytest.mark.parametrize("kind", [kind.value for kind in harness.FITTED_ON_ROWS])
def test_detect_refuses_a_negative_seed_before_splitting(sample_files, monkeypatch, capsys, kind):
    # these kinds draw their fit/reference split from --seed; nored draws none
    _refuse_work(monkeypatch)
    src, _, far = sample_files
    errors = []
    for method in ("nored", kind):
        assert main(["detect", str(src), str(far), "--method", method, "--seed", "-1"]) == 65
        errors.append(capsys.readouterr().err)
    assert errors[1] == errors[0] == "error: seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("kind", ["bbsdh", "classif"])
def test_detect_refuses_multivariate_for_a_univariate_method(sample_files, monkeypatch,
                                                             capsys, kind):
    _refuse_work(monkeypatch)
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", kind, "--mode", "multivariate"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert f"method entry ['{kind}', 'multivariate']" in captured.err


def test_shift_delta_zero_identity(tmp_path, sample_files, capsys):
    src, _, _ = sample_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "gaussian_noise", "sigma": 10.0,
                                "delta": 0.0, "seed": 1}))
    out_path = tmp_path / "out.csv"
    assert main(["shift", str(src), str(out_path), "--spec", str(spec)]) == 0
    assert out_path.read_bytes() == src.read_bytes()
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_changed"] == 0


def test_shift_knockout_all_zeros(tmp_path, sample_files, capsys):
    src, _, _ = sample_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "ko_shift", "delta": 1.0}))
    out_path = tmp_path / "out.csv"
    assert main(["shift", str(src), str(out_path), "--spec", str(spec)]) == 0
    shifted = load_csv(out_path)
    assert np.all(shifted.labels != 0)
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_removed"] == (load_csv(src).labels == 0).sum()


def test_shift_gaussian_medium_affected_count(tmp_path, sample_files, capsys):
    src, _, _ = sample_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "medium_gn_shift", "delta": 0.5}))
    out_path = tmp_path / "out.csv"
    main(["shift", str(src), str(out_path), "--spec", str(spec)])
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_changed"] == 80  # floor(0.5 * 160)


def test_shift_bad_spec_exit_65(tmp_path, sample_files, capsys):
    src, _, _ = sample_files
    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    assert main(["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec)]) == 65
    for doc in ({"kind": "no_such_kind"}, {"preset": "ko_shift", "bogus": 1},
                {"kind": "gaussian_noise", "bogus": 1}, ["ko_shift"], {"preset": ["ko_shift"]},
                # parameters the shift would not read
                {"preset": "medium_gn_shift", "epsilon": 0.3},
                {"preset": "no_shift", "delta": 0.7},
                {"kind": "gaussian_noise", "sigma": 5, "class_id": 4},
                {"kind": "composite", "parts": [{"kind": "only_zero", "sigma": 1}]}):
        spec.write_text(json.dumps(doc))
        assert main(["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec)]) == 65
    # a non-finite, negative or non-integer parameter is refused by name,
    # before the shift runs
    for field, doc in (("sigma", {"kind": "gaussian_noise", "sigma": float("inf")}),
                       ("sigma", {"kind": "gaussian_noise", "sigma": float("nan")}),
                       ("rot_max_deg", {"kind": "image", "rot_max_deg": float("nan")}),
                       ("zoom_max_frac", {"kind": "image", "zoom_max_frac": 1e400}),
                       ("trans_max_frac", {"kind": "image", "trans_max_frac": -0.1}),
                       ("epsilon", {"kind": "adversarial", "epsilon": float("-inf")}),
                       ("seed", {"kind": "gaussian_noise", "sigma": 5, "seed": 2.5}),
                       ("seed", {"kind": "gaussian_noise", "sigma": 5, "seed": -3}),
                       ("seed", {"kind": "gaussian_noise", "sigma": 5, "seed": True}),
                       ("class_id", {"kind": "knockout", "class_id": 1.5}),
                       ("class_id", {"kind": "knockout", "class_id": True}),
                       ("delta", {"kind": "gaussian_noise", "sigma": 5, "delta": True}),
                       ("delta", {"preset": "ko_shift", "delta": "0.5"}),
                       ("parts", {"kind": "composite", "parts": 3}),
                       ("sigma", {"kind": "composite", "parts": [
                           {"kind": "gaussian_noise", "sigma": float("inf")}]})):
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec)]) == 65
        assert f"{field} must be" in capsys.readouterr().err
    for doc, named in (({"preset": "huge_gn_shift"}, "unknown preset 'huge_gn_shift'"),
                       ({"preset": "ko_shift", "seed": None},
                        "spec.seed must be an integer >= 0, got None"),
                       ({"preset": "adv_shift", "epsilon": None},
                        "spec.epsilon must be a finite number >= 0, got None"),
                       ({"kind": "composite", "parts": [3]},
                        "spec.parts[0] must be an object, got 3")):
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec)]) == 65
        assert named in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    spec.write_text(json.dumps({"preset": "no_shift", "delta": 0.0}))
    assert main(["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec)]) == 0


def test_shift_adversarial_with_a_saved_classifier(tmp_path, sample_files, capsys):
    src, _, _ = sample_files
    ds = load_csv(src)
    clf = nets.train_label_classifier((flatten(ds), ds.labels), (flatten(ds), ds.labels), 2,
                                      nets.TrainConfig(max_epochs=3, batch_size=16),
                                      hidden_dims=(16,))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "adv_shift", "delta": 0.5, "epsilon": 0.1}))
    argv = ["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec), "--model"]
    save_model(clf, tmp_path / "clf.npz")
    assert main(argv + [str(tmp_path / "clf.npz")]) == 0
    assert json.loads(capsys.readouterr().out)["n_changed"] == 80  # floor(0.5 * 160)

    assert main(argv + [str(tmp_path / "none.npz")]) == 66
    assert "no such file" in capsys.readouterr().err
    # an autoencoder and a PCA file in the format_version 1 layouts no command reads
    encoder, decoder = nets.init_network((8, 2)), nets.init_network((2, 8))
    pca = fit_pca(flatten(ds), 2)
    old_layouts = {"ae": dict(kind="autoencoder", trained=False, enc_n_layers=1,
                              enc_activations=np.array(encoder.activations),
                              enc_w0=encoder.weights[0], enc_b0=encoder.biases[0],
                              dec_n_layers=1, dec_activations=np.array(decoder.activations),
                              dec_w0=decoder.weights[0], dec_b0=decoder.biases[0]),
                   "pca": dict(kind="pca", mean=pca.mean, components=pca.components,
                               explained_variance=np.ones(2))}
    for name, arrays in old_layouts.items():
        np.savez(tmp_path / f"{name}.npz", format_version=1, **arrays)
        assert main(argv + [str(tmp_path / f"{name}.npz")]) == 65
        assert capsys.readouterr().err == (f"error: {tmp_path / name}.npz: unknown model kind "
                                           f"'{arrays['kind']}'\n")
    with np.load(tmp_path / "clf.npz") as archive:
        arrays = dict(archive, net_activations=np.array(["sigmoid", "identity"]))
    np.savez(tmp_path / "sigmoid.npz", **arrays)
    assert main(argv + [str(tmp_path / "sigmoid.npz")]) == 65
    assert capsys.readouterr().err == (f"error: {tmp_path / 'sigmoid.npz'}: net_activations[0] "
                                       f"must be one of relu, tanh, identity, got 'sigmoid'\n")


# each file breaks the classifier layout in one key (None drops the key);
# load_model names the file and that key before the attack runs
_BROKEN_LAYOUTS = {
    "missing_key": ({"net_w1": None}, "no key 'net_w1'"),
    "layers_do_not_chain": ({"net_w1": np.zeros((5, 2))},
                            "net_w1 has shape (5, 2), expected (16, 2)"),
    "bias_of_the_wrong_length": ({"net_b0": np.zeros(3)}, "net_b0 has shape (3,), expected (16,)"),
    "last_layer_not_num_classes_wide": ({"num_classes": 3},
                                        "net_w1 has shape (16, 2), expected (16, 3)"),
    "activation_per_layer": ({"net_activations": np.array(["relu"])},
                             "net_activations has shape (1,), expected (2,)"),
    "non_finite_weight": ({"net_w0": np.full((8, 16), np.nan)},
                          "net_w0 must hold finite real numbers"),
    "object_array": ({"net_b1": np.array([0.0, "x"], dtype=object)},
                     "net_b1 cannot be read: Object arrays cannot be loaded when "
                     "allow_pickle=False"),
}


@pytest.mark.parametrize("case", list(_BROKEN_LAYOUTS))
def test_shift_refuses_a_model_file_that_breaks_the_classifier_layout(tmp_path, sample_files,
                                                                     capsys, case):
    src, _, _ = sample_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "adv_shift", "delta": 0.5, "epsilon": 0.1}))
    clf = nets.SoftmaxClassifier(net=nets.init_network((8, 16, 2), seed=1), num_classes=2)
    save_model(clf, tmp_path / "clf.npz")
    changes, message = _BROKEN_LAYOUTS[case]
    with np.load(tmp_path / "clf.npz") as archive:
        arrays = {k: v for k, v in {**archive, **changes}.items() if v is not None}
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    argv = ["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec), "--model"]
    assert main(argv + [str(bad)]) == 65
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "o.csv").exists()
    assert main(argv + [str(tmp_path / "clf.npz")]) == 0


def test_shift_refuses_image_shifts_on_csv_rows(tmp_path, sample_files, capsys):
    # each CSV row is a 1 x 8 image: an image shift would blank it, not move it
    src, _, _ = sample_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "medium_img_shift", "delta": 1}))
    assert main(["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec)]) == 65
    assert "got image shape (1, 8, 1)" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(
        BENCH_CONFIG, dataset={"kind": "csv", "path": str(src)}, methods=["nored"],
        shifts=[{"preset": "small_img_shift"}], n_train=80, n_val=40, n_test=40, runs=1)))
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 65
    assert "got image shape (1, 8, 1)" in capsys.readouterr().err
    assert not (tmp_path / "x" / "records.csv").exists()


def test_shift_to_idx_refuses_labels_above_a_byte(tmp_path):
    src = tmp_path / "wide_labels.csv"
    write_csv(TensorDataset(np.zeros((3, 1, 4, 1)), [300, 1, 0], 301), src)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "no_shift"}))
    out = f"{tmp_path / 'out.idx'},{tmp_path / 'labels.idx'}"
    assert main(["shift", str(src), out, "--spec", str(spec)]) == 65
    assert not (tmp_path / "labels.idx").exists()


@pytest.mark.parametrize("as_idx", [False, True], ids=["csv", "idx"])
def test_shift_an_empty_file_writes_an_empty_file(tmp_path, capsys, as_idx):
    empty = TensorDataset(np.zeros((0, 4, 4, 1)), np.zeros(0, dtype=int), 2)
    if as_idx:
        write_idx(empty, tmp_path / "in.idx", tmp_path / "in_labels.idx")
        source = f"{tmp_path / 'in.idx'},{tmp_path / 'in_labels.idx'}"
        out = f"{tmp_path / 'out.idx'},{tmp_path / 'out_labels.idx'}"
    else:
        (tmp_path / "in.csv").write_text("")
        source, out = str(tmp_path / "in.csv"), str(tmp_path / "out.csv")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "medium_gn_shift"}))
    assert main(["shift", source, out, "--spec", str(spec)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_input"] == summary["n_output"] == 0
    written = load_idx(*out.split(",")) if as_idx else load_csv(out)
    assert written.n == 0


@pytest.mark.parametrize("content", ["", "0\n1\n0\n1\n"], ids=["no-rows", "no-pixels"])
@pytest.mark.parametrize("command, side", [("detect", "source"), ("detect", "target"),
                                           ("exemplars", "source"), ("exemplars", "target")])
def test_detect_and_exemplars_refuse_a_file_with_nothing_to_test(tmp_path, sample_files,
                                                                 monkeypatch, capsys, command,
                                                                 side, content):
    _refuse_work(monkeypatch)
    src, _, far = sample_files
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    argv = ["detect", *((bad, far) if side == "source" else (src, bad))]
    if command == "exemplars":  # detect with the exemplar report
        argv += ["--method", "classif", "--exemplars", "3", "--out", tmp_path / "ex"]
    assert main([str(a) for a in argv]) == 65
    rows = content.count("\n")
    assert capsys.readouterr().err == (f"error: {bad} holds {rows} rows of 0 pixels; "
                                       f"a sample needs at least one of each\n")
    assert not (tmp_path / "ex").exists()


def test_idx_pair_io(tmp_path, capsys):
    from shiftdetect.data import write_idx
    rng = np.random.default_rng(1)
    ds = TensorDataset(rng.integers(0, 256, (40, 4, 4, 1)) / 255.0,
                       rng.integers(0, 3, 40), 3)
    write_idx(ds, tmp_path / "imgs.idx", tmp_path / "labs.idx")
    pair = f"{tmp_path}/imgs.idx,{tmp_path}/labs.idx"
    out_pair = f"{tmp_path}/out_imgs.idx,{tmp_path}/out_labs.idx"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "composite"}))
    assert main(["shift", pair, out_pair, "--spec", str(spec)]) == 0
    assert (tmp_path / "out_imgs.idx").read_bytes() == (tmp_path / "imgs.idx").read_bytes()


# ---------------------------------------------------------------------------
# bench

BENCH_CONFIG = {
    "dataset": {"kind": "synthetic", "seed": 5},
    "methods": [{"kind": "nored"}, {"kind": "pca", "mode": "multivariate"},
                {"kind": "classif"}],
    "shifts": [{"preset": "no_shift"},
               {"preset": "large_gn_shift", "delta": 1.0}],
    "n_train": 250, "n_val": 120, "n_test": 120,
    "sample_sizes": [10, 50], "runs": 2, "seed": 3,
    "latent_dim": 6, "hidden_dim": 16, "domain_hidden_dim": 8,
    "ae_epochs": 1, "clf_epochs": 1, "domain_epochs": 4, "n_perms": 60,
}


def _run_bench(tmp_path, outname, threads=1):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BENCH_CONFIG))
    outdir = tmp_path / outname
    code = main(["bench", "--config", str(cfg_path), "--out", str(outdir),
                 "--threads", str(threads)])
    return code, outdir


def test_bench_outputs_and_determinism(tmp_path, capsys):
    code_a, dir_a = _run_bench(tmp_path, "run_a", threads=1)
    code_b, dir_b = _run_bench(tmp_path, "run_b", threads=4)
    capsys.readouterr()
    assert code_a == 0 and code_b == 0
    for name in ("records.csv", "accuracy_by_method.csv", "accuracy_by_shift.csv",
                 "accuracy_by_intensity.csv", "accuracy_by_delta.csv",
                 "pvalue_curves.csv", "manifest.json"):
        assert (dir_a / name).exists()
    # byte-identical records regardless of thread count
    assert (dir_a / "records.csv").read_bytes() == (dir_b / "records.csv").read_bytes()
    manifest = json.loads((dir_a / "manifest.json").read_text())
    assert set(manifest["artifacts"]) >= {"records.csv", "pvalue_curves.csv"}
    assert manifest["skipped_by_reason"] == {}
    assert manifest["elapsed_seconds"] > 0.0  # the grid's own wall time


def test_bench_manifest_counts_skipped_cells_by_reason(tmp_path, capsys):
    # s = 2 leaves classif one sample per half; s = 200 exceeds both 120-row sides
    doc = dict(BENCH_CONFIG, sample_sizes=[2, 10, 200], runs=1)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    outdir = tmp_path / "skips"
    code = main(["bench", "--config", str(cfg_path), "--out", str(outdir)])
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["skipped_by_reason"] == {
        "fewer than 2 samples per half": 2,                   # 2 shifts
        "insufficient samples (source 120, target 120)": 6,  # 3 methods x 2 shifts
    }
    records = harness.read_records_csv(outdir / "records.csv").records
    assert sum(r.status == "skipped" for r in records) == 8


def test_bench_every_cell_skipped_writes_manifest_exit_65(tmp_path, capsys):
    doc = dict(BENCH_CONFIG, sample_sizes=[500], n_val=20, runs=1)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    outdir = tmp_path / "all_skipped"
    code = main(["bench", "--config", str(cfg_path), "--out", str(outdir)])
    err = capsys.readouterr().err
    assert code == 65
    reason = "insufficient samples (source 20, target 120)"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["skipped_by_reason"] == {reason: 6}  # 3 methods x 2 shifts
    assert manifest["artifacts"] == ["records.csv"]
    assert reason in err


def test_bench_grid_shape_and_smoke_budget(tmp_path, capsys):
    import time
    started = time.time()
    code, outdir = _run_bench(tmp_path, "run_c")
    elapsed = time.time() - started
    capsys.readouterr()
    assert code == 0
    assert elapsed < 60.0  # tiny smoke config stays well inside a minute
    lines = (outdir / "records.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 2 * 3 * 2 * 2  # shifts * methods * sizes * runs


def test_bench_bad_config_exit_65(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dataset": {"kind": "synthetic"}}))
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 65


@pytest.mark.parametrize("key, value", [
    ("ae_epochs", -1), ("clf_epochs", -3), ("domain_epochs", -1),
    ("batch_size", 0), ("batch_size", 2.5), ("domain_batch_size", 0),
    ("lr0", 0), ("ae_lr0", 0), ("ae_lr0", -0.5),
    ("patience", 0), ("patience", 1.5), ("domain_batch_size", True),
    ("latent_dim", 0), ("hidden_dim", 0), ("domain_hidden_dim", 0),
    ("n_perms", 0), ("n_perms", 100.0), ("runs", 0), ("runs", 1.5),
    ("n_train", 10.5), ("n_train", -3), ("n_train", 0), ("n_val", -1), ("n_test", 2.5),
    ("sample_sizes", [10.5]), ("sample_sizes", []), ("sample_sizes", [10, 0]),
    ("sample_sizes", 10), ("sample_sizes", [True]),
    ("seed", 2.5), ("seed", "3"), ("seed", -1), ("seed", True), ("runs", True),
])
def test_bench_bad_training_setting_exit_65_before_corpus(tmp_path, monkeypatch, capsys,
                                                         key, value):
    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built before the config was checked")

    monkeypatch.setattr("shiftdetect.digits.make_digits", no_corpus)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(BENCH_CONFIG, **{key: value})))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 65
    assert f"error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_bench_threads_below_one_exit_64_before_corpus(tmp_path, monkeypatch, capsys, threads):
    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built before --threads was checked")

    monkeypatch.setattr("shiftdetect.digits.make_digits", no_corpus)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BENCH_CONFIG))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
                 "--threads", threads])
    assert code == 64
    assert f"error: threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# BENCH_CONFIG takes n_train + n_val + n_test = 490 rows
@pytest.mark.parametrize("key, value", [
    ("seed", 2.5), ("seed", "3"), ("seed", True), ("seed", -1),
    ("n_pool", 600.7), ("n_pool", "600"), ("n_pool", True), ("n_pool", 489),
])
def test_bench_bad_synthetic_dataset_exit_65_before_corpus(tmp_path, monkeypatch, capsys,
                                                          key, value):
    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built before the dataset object was checked")

    monkeypatch.setattr("shiftdetect.digits.make_digits", no_corpus)
    cfg_path = tmp_path / "config.json"
    dataset = dict(BENCH_CONFIG["dataset"], **{key: value})
    cfg_path.write_text(json.dumps(dict(BENCH_CONFIG, dataset=dataset)))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 65
    assert f"error: dataset.{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("dataset, message", [
    ({"kind": "synthetic", "extra": 1}, "dataset kind 'synthetic' takes no key 'extra'"),
    ({"seed": 5, "path": "x.csv"}, "dataset kind 'synthetic' takes no key 'path'"),
    ({"kind": "idx"}, "dataset kind 'idx' needs the key 'images'"),
    ({"kind": "idx", "images": "i.idx"}, "dataset kind 'idx' needs the key 'labels'"),
    ({"kind": "idx", "images": "i", "labels": "l", "seed": 1}, "takes no key 'seed'"),
    ({"kind": "csv"}, "dataset kind 'csv' needs the key 'path'"),
    ({"kind": "csv", "path": "x.csv", "n_pool": 600}, "takes no key 'n_pool'"),
    ({"kind": "csv", "path": 7}, "dataset.path must be a path string, got 7"),
    ({"kind": ["csv"]}, "unknown dataset kind ['csv']"),
    ({"kind": "npz"}, "unknown dataset kind 'npz'"),
])
def test_bench_dataset_keys_exit_65_before_reading(tmp_path, monkeypatch, capsys,
                                                   dataset, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data built or read before the dataset object was checked")

    for target in ("shiftdetect.digits.make_digits", "shiftdetect.cli.load_csv",
                   "shiftdetect.cli.load_idx"):
        monkeypatch.setattr(target, no_data)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(BENCH_CONFIG, dataset=dataset)))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 65
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bench_accuracy_by_method_keeps_size_and_power_apart(tmp_path, capsys):
    # no_shift rows are the test's size, large_gn_shift rows its power
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(BENCH_CONFIG, methods=["nored"], sample_sizes=[10])))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "acc")])
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / "acc" / "accuracy_by_method.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["shift"], r["method"], r["mode"], r["sample_size"], r["n"]) for r in rows] == [
        ("large_gn_shift@d1", "nored", "univariate", "10", "2"),
        ("no_shift@d0", "nored", "univariate", "10", "2")]


@pytest.mark.parametrize("kind", ["bbsdh", "classif"])
def test_bench_refuses_multivariate_for_a_univariate_method(tmp_path, monkeypatch, capsys,
                                                            kind):
    _refuse_work(monkeypatch)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(BENCH_CONFIG, methods=["nored", [kind, "multivariate"]])))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 65
    assert f"method entry ['{kind}', 'multivariate']" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key", ["methods", "shifts"])
def test_bench_empty_methods_or_shifts_exit_65_before_corpus(tmp_path, monkeypatch, capsys,
                                                              key):
    _refuse_work(monkeypatch)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(BENCH_CONFIG, **{key: []})))
    code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 65
    assert f"error: {key} must be a non-empty list, got []" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bench_custom_shift_entries(tmp_path, monkeypatch, capsys):
    noise = {"kind": "gaussian_noise", "sigma": 100, "delta": 0.5}
    doc = dict(BENCH_CONFIG, methods=["nored"], sample_sizes=[10], runs=1,
               shifts=[dict(noise, name="noise"),
                       dict(noise, name="loud", intensity="large", sigma=200)])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "ok")]) == 0
    records = harness.read_records_csv(tmp_path / "ok" / "records.csv").records
    assert [(r.shift, r.intensity, r.delta, r.status) for r in records] == [
        ("noise", "custom", 0.5, "ok"), ("loud", "large", 0.5, "ok")]

    # a custom entry has no preset to name it after
    _refuse_work(monkeypatch)
    cfg_path.write_text(json.dumps(dict(doc, shifts=[noise])))
    capsys.readouterr()
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 65
    assert "custom shift entries need a 'name'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# no_shift and gaussian noise read pixels as a flat row, so a corpus gives the
# same records whatever image shape its file format reads it as
FILE_BENCH_CONFIG = dict(BENCH_CONFIG, methods=["nored", "pca"], sample_sizes=[10, 40],
                         runs=1, n_train=100, n_val=40, n_test=40,
                         shifts=[{"preset": "no_shift"},
                                 {"preset": "medium_gn_shift", "delta": 0.5}])


def _bench_records(tmp_path, name, dataset) -> bytes:
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(dict(FILE_BENCH_CONFIG, dataset=dataset)))
    assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
    return (tmp_path / name / "records.csv").read_bytes()


def test_bench_reads_csv_and_idx_datasets(tmp_path):
    corpus = digits.make_digits(180, seed=5)
    write_csv(corpus, tmp_path / "corpus.csv")
    synthetic = _bench_records(tmp_path, "synthetic", {"kind": "synthetic", "seed": 5})
    assert _bench_records(tmp_path, "csv", {"kind": "csv",
                                            "path": str(tmp_path / "corpus.csv")}) == synthetic

    # an IDX pair holds pixels on the byte grid: bench it against the CSV of
    # the corpus load_idx reads back
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(corpus, images, labels)
    write_csv(load_idx(images, labels), tmp_path / "bytes.csv")
    idx = _bench_records(tmp_path, "idx", {"kind": "idx", "images": str(images),
                                           "labels": str(labels)})
    assert idx == _bench_records(tmp_path, "bytes", {"kind": "csv",
                                                     "path": str(tmp_path / "bytes.csv")})
    assert idx != synthetic


def test_bench_missing_config_exit_66(tmp_path):
    assert main(["bench", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x")]) == 66


# ---------------------------------------------------------------------------
# detect --exemplars

def test_exemplars_identical_data_gated(tmp_path, sample_files, capsys):
    src, same, _ = sample_files
    outdir = tmp_path / "ex"
    code = main(["detect", str(src), str(same), "--method", "classif", "--exemplars", "5",
                 "--out", str(outdir), "--epochs", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert not report["gate_passed"]
    assert report["top_different"] == []
    assert not payload["reject"] and payload["outdir"] == str(outdir)


def test_exemplars_shifted_data_reported(tmp_path, sample_files, capsys):
    src, _, far = sample_files
    outdir = tmp_path / "ex2"
    code = main(["detect", str(src), str(far), "--method", "classif", "--exemplars", "5",
                 "--out", str(outdir), "--epochs", "10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    report = json.loads((outdir / "report.json").read_text())
    assert report["gate_passed"] and payload["reject"]
    assert report["binomial_p"] == payload["p_value"]
    assert len(report["top_different"]) == 5
    scores = [e["score"] for e in report["top_different"]]
    assert scores == sorted(scores, reverse=True)
    sim_scores = [e["score"] for e in report["top_similar"]]
    assert sim_scores == sorted(sim_scores)
    assert (outdir / "top_different_samples.csv").exists()


def test_exemplars_bad_alpha_exit_65(tmp_path, sample_files, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    src, _, far = sample_files
    argv = ["detect", str(src), str(far), "--method", "classif", "--exemplars", "3",
            "--out", str(tmp_path / "ex6")]
    assert main(argv + ["--alpha", "1.5"]) == 65
    assert "alpha must be a finite number in (0, 1), got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "ex6").exists()


def test_exemplars_k_too_large_exit_64(tmp_path, sample_files, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("domain classifier trained before --exemplars was checked")

    monkeypatch.setattr("shiftdetect.nets.train_domain_classifier", no_training)
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", "classif", "--exemplars", "500",
                 "--out", str(tmp_path / "ex3"), "--epochs", "2"])
    assert code == 64
    assert "k=500 exceeds held-out target size 80" in capsys.readouterr().err


def test_exemplars_k_up_to_odd_heldout_half(tmp_path, sample_files, capsys):
    # 161 rows a side: 80 train the domain classifier, 81 are held out
    src, _, _ = sample_files
    rng = np.random.default_rng(1)
    odd_src, odd = tmp_path / "source_odd.csv", tmp_path / "target_odd.csv"
    for path, mean in ((odd_src, 0.4), (odd, 0.8)):
        write_csv(TensorDataset(np.clip(rng.normal(mean, 0.1, (161, 1, 8, 1)), 0, 1),
                                rng.integers(0, 2, 161), 2), path)
    argv = ["detect", str(odd_src), str(odd), "--method", "classif", "--out",
            str(tmp_path / "ex5"), "--epochs", "2"]
    assert main(argv + ["--exemplars", "82"]) == 64
    assert "k=82 exceeds held-out target size 81" in capsys.readouterr().err
    assert main(argv + ["--exemplars", "81"]) == 3
    # against the 160-row source both sides use 160 rows: 80 are held out
    argv[1] = str(src)
    assert main(argv + ["--exemplars", "81"]) == 64
    assert "k=81 exceeds held-out target size 80" in capsys.readouterr().err


def test_domain_check_on_iid_files_of_unequal_size_sees_no_shift(tmp_path, capsys):
    # the held-out sides are balanced, so a classifier that learns only the
    # sides' sizes scores chance: at 2:1 an unbalanced split read 2/3 as a shift
    rng = np.random.default_rng(0)
    iid = np.clip(rng.normal(0.4, 0.1, (240, 1, 8, 1)), 0, 1)
    labels = rng.integers(0, 2, 240)
    src, tgt = tmp_path / "source.csv", tmp_path / "target.csv"
    write_csv(TensorDataset(iid[:160], labels[:160], 2), src)
    write_csv(TensorDataset(iid[160:], labels[160:], 2), tgt)
    assert main(["detect", str(src), str(tgt), "--method", "classif"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n_source"], out["n_target"], out["reject"]) == (160, 80, False)
    assert main(["detect", str(src), str(tgt), "--method", "classif", "--exemplars", "3",
                 "--out", str(tmp_path / "ex")]) == 0
    assert json.loads(capsys.readouterr().out) == dict(out, outdir=str(tmp_path / "ex"))
    report = json.loads((tmp_path / "ex" / "report.json").read_text())
    assert not report["gate_passed"]
    assert report["n_heldout"] == 80  # 40 rows of each side
    assert report["top_different"] == report["top_similar"] == []


@pytest.mark.parametrize("k", ["0", "-3"])
def test_exemplars_k_below_one_exit_64(tmp_path, sample_files, monkeypatch, capsys, k):
    _refuse_work(monkeypatch)
    src, _, far = sample_files
    code = main(["detect", str(src), str(far), "--method", "classif", "--exemplars", k,
                 "--out", str(tmp_path / "ex4")])
    assert code == 64
    assert f"k must be >= 1, got {k}" in capsys.readouterr().err
    assert not (tmp_path / "ex4").exists()


def test_exemplars_is_an_unknown_command_exit_64(sample_files, capsys):
    src, _, far = sample_files
    assert main(["exemplars", str(src), str(far), "-k", "3", "--out", "ex"]) == 64
    assert "invalid choice: 'exemplars'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--method", "pca", "--exemplars", "3", "--out", "ex"],
     "--exemplars needs --method classif, got pca"),
    (["--method", "classif", "--exemplars", "3"], "--exemplars needs --out"),
    (["--method", "classif", "--out", "ex"], "--out needs --exemplars"),
], ids=["other-method", "no-out", "out-alone"])
def test_detect_refuses_exemplars_flags_that_do_not_go_together(tmp_path, sample_files,
                                                                 monkeypatch, capsys, flags,
                                                                 message):
    _refuse_work(monkeypatch)
    src, _, far = sample_files
    monkeypatch.chdir(tmp_path)
    assert main(["detect", str(src), str(far)] + flags) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not (tmp_path / "ex").exists()


# SHA-256 of detect's stdout over every (kind, mode) pair MethodSpec accepts,
# in DrKind x TestMode order, each on the same and then the far target; and
# of the three files --exemplars writes for the far target. Both outputs
# are pinned bit for bit. The four tae lines were re-recorded when tae's step
# became ae_lr0 scaled by width / AE_LR0_WIDTH; the other lines did not move.
DETECT_GOLDEN_SHA256 = "aeaf8f1dfc400ff2521e9b58fb68af418dae66211e5958ecf6295d14a6f6d92c"
EXEMPLARS_GOLDEN_SHA256 = {
    "report.json": "a020f3fac6fb382161841b75987e8600226d8331bb9d46d8a50272fb634b8102",
    "top_different_samples.csv":
        "d00645cf32341d757fbba430e4b2b793ecf7a76e31315495d6a269477e4035f4",
    "top_similar_samples.csv":
        "77ebffb027e2399c40ee2c7c6dd9fcbfbd26d066a0939e23b407898b2dd236f3",
}


def test_detect_and_exemplars_outputs_are_pinned(tmp_path, sample_files, capsys):
    src, same, far = sample_files
    digest = hashlib.sha256()
    for kind in DrKind:
        for mode in TestMode:
            if mode == TestMode.MULTIVARIATE and not METHOD_TABLE[kind].multivariate:
                continue
            for target in (same, far):
                main(["detect", str(src), str(target), "--method", kind.value,
                      "--mode", mode.value, "--epochs", "3", "--latent-dim", "4",
                      "--hidden-dim", "8", "--seed", "4"])
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == DETECT_GOLDEN_SHA256
    outdir = tmp_path / "ex"
    assert main(["detect", str(src), str(far), "--method", "classif", "--exemplars", "5",
                 "--epochs", "3", "--out", str(outdir)]) == 3
    assert {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in EXEMPLARS_GOLDEN_SHA256} == EXEMPLARS_GOLDEN_SHA256


# ---------------------------------------------------------------------------
# report

def test_report_reemits_tables(tmp_path, capsys):
    code, outdir = _run_bench(tmp_path, "run_r")
    capsys.readouterr()
    assert code == 0
    rep_dir = tmp_path / "rederived"
    code = main(["report", "--records", str(outdir / "records.csv"),
                 "--out", str(rep_dir)])
    capsys.readouterr()
    assert code == 0
    for name in ("accuracy_by_method.csv", "accuracy_by_shift.csv",
                 "accuracy_by_intensity.csv", "accuracy_by_delta.csv",
                 "pvalue_curves.csv"):
        assert (rep_dir / name).read_bytes() == (outdir / name).read_bytes()


_HEADER = ",".join(harness.RECORD_COLUMNS)
_OK_ROW = "noise,custom,0.5,nored,univariate,5,0,ok,ks_bonferroni,0.5,0.2,false,"


# unchecked, the first exits 65 naming no line and the others exit 0: a
# maybe or a nan read as no reject, a short row read with its tail missing
@pytest.mark.parametrize("text, message", [
    (_HEADER.replace(",status", "") + "\n" + _OK_ROW.replace(",ok", "") + "\n",
     f"line 1: the header must be {_HEADER}, got ['shift',"),
    (_HEADER + "\n" + _OK_ROW.replace("false", "maybe") + "\n",
     "line 2: reject must be one of true, false, got 'maybe'"),
    (_HEADER + "\n" + _OK_ROW.replace("0.2", "nan") + "\n",
     "line 2: p_value must be a finite number in [0, 1], got nan"),
    (_HEADER + "\n" + _OK_ROW + "\n" + _OK_ROW.rsplit(",", 2)[0] + "\n",
     "line 3: 11 fields, expected 13"),
], ids=["no-status-column", "reject-maybe", "p-value-nan", "short-row"])
def test_report_refuses_records_bench_could_not_have_written(tmp_path, capsys, text, message):
    records = tmp_path / "records.csv"
    records.write_text(text)
    code = main(["report", "--records", str(records), "--out", str(tmp_path / "r")])
    assert code == 65
    assert capsys.readouterr().err.startswith(f"error: {records} {message}")
    assert not (tmp_path / "r").exists()


def test_report_missing_records_exit_66(tmp_path):
    argv = ["report", "--records", str(tmp_path / "no.csv"), "--out", str(tmp_path / "r")]
    assert main(argv) == 66
    assert main(argv + ["--alpha", "0.1"]) == 64  # the tables read only reject and p_value


def test_shift_refuses_a_classifier_with_fewer_classes_than_the_labels(tmp_path, capsys):
    # the attack's loss reads each label's class score: label 4 has none in
    # a 2-class net
    src = tmp_path / "five_classes.csv"
    rng = np.random.default_rng(3)
    write_csv(TensorDataset(rng.random((20, 1, 8, 1)), np.arange(20) % 5, 5), src)
    save_model(nets.SoftmaxClassifier(net=nets.init_network((8, 16, 2), seed=1), num_classes=2),
               tmp_path / "clf.npz")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "adv_shift", "delta": 0.5, "epsilon": 0.1}))
    argv = ["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec),
            "--model", str(tmp_path / "clf.npz")]
    assert main(argv) == 65
    assert capsys.readouterr().err == ("error: dataset labels run to 4, but the classifier has "
                                       "2 classes\n")
    assert not (tmp_path / "o.csv").exists()


def _refusal_argv(tmp_path, site, src):
    """The argv of a command that reaches the refusal at site, and the text
    its error must hold: the file, key or value at fault."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"preset": "no_shift"}))
    shift = ["shift", str(src), str(tmp_path / "o.csv"), "--spec", str(spec)]
    if site == "load_model":
        (tmp_path / "clf.npz").write_text("not a zip")
        return shift + ["--model", str(tmp_path / "clf.npz")], f"{tmp_path / 'clf.npz'}"
    if site == "read_records_csv":
        (tmp_path / "records.csv").write_text("shift\n")
        return (["report", "--records", str(tmp_path / "records.csv"), "--out",
                 str(tmp_path / "r")], f"{tmp_path / 'records.csv'} line 1: the header")
    if site == "write_idx":
        write_csv(TensorDataset(np.zeros((3, 1, 4, 1)), [300, 1, 0], 301), src)
        return (["shift", str(src), f"{tmp_path / 'o.idx'},{tmp_path / 'l.idx'}", "--spec",
                 str(spec)], "labels as bytes in [0, 255], got 300")
    if site == "apply_image_shift":
        spec.write_text(json.dumps({"preset": "small_img_shift"}))
        return shift, "got image shape (1, 8, 1)"
    spec.write_bytes(b"\xff{}")
    return shift, f"spec {spec} is not UTF-8 text"


@pytest.mark.parametrize("site", ["load_model", "read_records_csv", "write_idx",
                                  "apply_image_shift", "read_json"])
def test_each_refusal_a_command_reaches_exits_65_naming_what_is_at_fault(tmp_path, sample_files,
                                                                       capsys, site):
    argv, named = _refusal_argv(tmp_path, site, sample_files[0])
    assert main(argv) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1


def _bad_path_argv(tmp_path, case, src):
    """The argv of a command given a directory as an input file, or an output
    path it cannot write; its exit code; and the path its error must name."""
    folder, afile = tmp_path / "folder", tmp_path / "afile"
    folder.mkdir()
    afile.write_text("")
    spec, config, records = tmp_path / "spec.json", tmp_path / "config.json", tmp_path / "r.csv"
    spec.write_text(json.dumps({"preset": "no_shift"}))
    config.write_text(json.dumps(BENCH_CONFIG))
    records.write_text(_HEADER + "\n" + _OK_ROW + "\n")
    out, missing = str(tmp_path / "out"), tmp_path / "none" / "o.csv"
    return {
        "shift-output-in-no-directory": (["shift", str(src), str(missing), "--spec", str(spec)],
                                         65, missing),
        "shift-output-is-a-directory": (["shift", str(src), str(folder), "--spec", str(spec)],
                                        65, folder),
        "bench-config-is-a-directory": (["bench", "--config", str(folder), "--out", out],
                                        66, folder),
        "report-records-is-a-directory": (["report", "--records", str(folder), "--out", out],
                                          66, folder),
        "detect-source-is-a-directory": (["detect", str(folder), str(src)], 66, folder),
        "report-out-is-a-file": (["report", "--records", str(records), "--out", str(afile)],
                                 65, afile),
        "bench-out-is-a-file": (["bench", "--config", str(config), "--out", str(afile)],
                                65, afile),
        "exemplars-out-is-a-file": (["detect", str(src), str(src), "--method", "classif",
                                     "--exemplars", "3", "--out", str(afile)], 65, afile),
    }[case]


@pytest.mark.parametrize("case", ["shift-output-in-no-directory", "shift-output-is-a-directory",
                                  "bench-config-is-a-directory", "report-records-is-a-directory",
                                  "detect-source-is-a-directory", "report-out-is-a-file",
                                  "bench-out-is-a-file", "exemplars-out-is-a-file"])
def test_a_directory_input_exits_66_and_an_unwritable_output_65_naming_the_path(
        tmp_path, sample_files, monkeypatch, capsys, case):
    _refuse_work(monkeypatch)
    argv, code, named = _bad_path_argv(tmp_path, case, sample_files[0])
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(named) in captured.err
    assert not (tmp_path / "none").exists() and (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize("error", [ValueError("a bug"), KeyError("a bug")])
def test_an_exception_that_is_no_refusal_propagates_out_of_main(tmp_path, monkeypatch, error):
    # only a ShiftDetectError is bad input; anything else is a bug and keeps
    # its traceback
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness, "run_experiment", broken)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BENCH_CONFIG))
    with pytest.raises(type(error), match="a bug"):
        main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
