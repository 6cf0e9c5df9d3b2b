"""Config rules: the README key table, the refusal of bad bench configs and
shift specs by key path, and fuzz gates over mutated documents."""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftdetect import cli, digits, harness, shifts
from shiftdetect.cli import main
from shiftdetect.data import TensorDataset, write_csv
from shiftdetect.errors import rules_of
from shiftdetect.harness import ExperimentConfig, MethodSpec


def test_readme_table_names_exactly_the_rule_tables_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| Key | Type and bounds | Default |"):]
    listed = re.findall(r"^\| `([^`]+)` \|", table.split("\n\n")[0], re.M)
    keys = {*harness._DOC_RULES, "dataset.kind",
            *(f"dataset.{k}" for rules in cli._DATASET_KEYS.values() for k in rules),
            *(f"methods[].{k}" for k in rules_of(MethodSpec)),
            *(f"shifts[].{k}" for k in (*harness._LABELS, *harness._PRESET_RULES,
                                        *rules_of(shifts.ShiftSpec)))}
    assert sorted(listed) == sorted(keys)
    assert len(listed) == len(set(listed))
    assert list(harness._DOC_RULES) == listed[:len(harness._DOC_RULES)]


def test_readme_table_names_the_kinds_that_read_each_shift_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bounds = dict(re.findall(r"^\| `shifts\[\]\.([^`]+)` \| ([^|]*) \|", readme, re.M))
    kinds = {name: re.findall(r"`([^`]+)`", text) for name, text in bounds.items()}
    assert kinds.pop("kind") == list(shifts._KINDS)
    for name, listed in kinds.items():
        assert {k for k in listed if k in shifts._KINDS} == {
            kind for kind, (reads, _) in shifts._KINDS.items() if name in reads}, name


def _bench(doc, tmp_path):
    """Exit code and stderr of bench on doc, written as JSON (NaN and
    infinities as JSON's extensions)."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    return code, err.getvalue()


TINY = {"dataset": {"kind": "synthetic", "seed": 5}, "methods": ["nored"],
        "shifts": [{"preset": "no_shift"}, {"name": "noise", "kind": "gaussian_noise",
                                            "sigma": 50, "delta": 0.5}],
        "n_train": 20, "n_val": 10, "n_test": 10, "sample_sizes": [5], "runs": 1,
        "n_perms": 10}


def _entry(key, index, value):
    """TINY with the key of its first methods or shifts entry set to value."""
    entries = [dict(e) if isinstance(e, dict) else e for e in TINY[key]]
    entries[index] = value
    return dict(TINY, **{key: entries})


# unchecked, each of these ends in an uncaught exception, a Python internal
# in place of a message, or a run of something other than the config says
@pytest.mark.parametrize("doc, message", [
    (dict(TINY, methods=[3]),
     "methods[0] must be a kind string, a [kind, mode] pair or an object, got 3"),
    (["nored"], "config must be an object, got ['nored']"),
    (dict(TINY, alpha="0.05"), "alpha must be a finite number in (0, 1), got '0.05'"),
    (dict(TINY, lr0="x"), "lr0 must be a finite number > 0, got 'x'"),
    (dict(TINY, momentum=0.9), "config takes no key 'momentum'; it takes methods, shifts"),
    (dict(TINY, methods="nored"), "methods must be a non-empty list, got 'nored'"),
    (dict(TINY, methods=[["pca", "univariate", "x"]]),
     "methods[0] must be a kind string, a [kind, mode] pair or an object"),
    (dict(TINY, foo=1), "config takes no key 'foo'; it takes methods, shifts, n_train"),
    (dict(TINY, methods=[{"kind": "nored", "x": 1}]),
     "methods[0] takes no key 'x'; it takes kind, mode"),
    (dict(TINY, methods=[{"kind": "x"}]), "methods[0].kind must be one of nored, pca"),
    (dict(TINY, methods=[["pca", 3]]), "methods[0].mode must be one of univariate"),
    (_entry("shifts", 1, dict(TINY["shifts"][1], name=3)),
     "shifts[1].name must be a string, got 3"),
    (_entry("shifts", 0, {"preset": "no_shift", "intensity": 7}),
     "shifts[0].intensity must be a string, got 7"),
    (_entry("shifts", 1, dict(TINY["shifts"][1], delta=True)),
     "shifts[1].delta must be a finite number in [0, 1], got True"),
    (_entry("shifts", 1, dict(TINY["shifts"][1], delta="0.5")),
     "shifts[1].delta must be a finite number in [0, 1], got '0.5'"),
    (_entry("shifts", 1, {"name": "c", "kind": "composite", "parts": 3}),
     "shifts[1].parts must be a list, got 3"),
    (_entry("shifts", 1, {"name": "c", "kind": "composite", "parts": [3]}),
     "shifts[1].parts[0] must be an object, got 3"),
    (dict(TINY, lr0=math.inf), "lr0 must be a finite number > 0, got inf"),
    (dict(TINY, ae_lr0=math.nan), "ae_lr0 must be a finite number > 0, got nan"),
    (dict(TINY, dataset=3), "dataset must be an object, got 3"),
    # a repeated entry counts its cells twice, or merges two shifts' rows
    (dict(TINY, sample_sizes=[5, 5]), "sample_sizes[1] repeats sample_sizes[0]: 5"),
    (dict(TINY, methods=["nored", ["nored", "univariate"]]),
     "methods[1] repeats methods[0]: ('nored', 'univariate')"),
    (_entry("shifts", 0, dict(TINY["shifts"][1], sigma=1)),
     "shifts[1] repeats shifts[0]: 'noise'"),
])
def test_bench_refuses_a_bad_config_by_key_path_before_the_corpus(tmp_path, monkeypatch,
                                                                  doc, message):
    def no_work(*args, **kwargs):
        raise AssertionError("data built or a model fitted before the config was checked")

    for target in ("shiftdetect.digits.make_digits", "shiftdetect.harness.fit_reducers"):
        monkeypatch.setattr(target, no_work)
    code, err = _bench(doc, tmp_path)
    assert code == 65
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err
    assert not (tmp_path / "out").exists()


def test_bench_whose_training_diverges_exits_65(tmp_path):
    # numpy warns of the overflow first; from a shell its lines precede the error's
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, err = _bench(dict(TINY, methods=["tae"], ae_lr0=1e12), tmp_path)
    assert code == 65
    assert err.splitlines()[-1] == "error: non-finite validation score at epoch 2"
    assert not (tmp_path / "out").exists()  # --out is made only once the grid has run


# --epochs, --batch-size and --hidden-dim feed config keys of other names
# (ae_epochs, clf_epochs, ...), and detect clamps --latent-dim before the
# config sees it, so the message names the flag
@pytest.mark.parametrize("flag, value, message", [
    ("--lr0", "inf", "lr0 must be a finite number > 0, got inf"),
    ("--lr0", "nan", "lr0 must be a finite number > 0, got nan"),
    ("--alpha", "nan", "alpha must be a finite number in (0, 1), got nan"),
    ("--epochs", "-1", "--epochs must be an integer >= 0, got -1"),
    ("--batch-size", "0", "--batch-size must be an integer >= 1, got 0"),
    ("--hidden-dim", "0", "--hidden-dim must be an integer >= 1, got 0"),
    ("--latent-dim", "0", "--latent-dim must be an integer >= 1, got 0")])
def test_one_shot_commands_refuse_a_bad_setting_before_fitting(tmp_path, monkeypatch, capsys,
                                                               flag, value, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a split was drawn or a model fitted before the settings were "
                             "checked")

    for target in ("shiftdetect.harness.fit_and_reference_rows",
                   "shiftdetect.harness.fit_reducers",
                   "shiftdetect.harness.run_domain_classifier_test"):
        monkeypatch.setattr(target, no_work)
    data = tmp_path / "data.csv"
    write_csv(TensorDataset(np.full((20, 1, 4, 1), 0.5), np.arange(20) % 2, 2), data)
    assert main(["detect", str(data), str(data), flag, value]) == 65
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Fuzz gates: one key of a valid document is replaced, added or removed

BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, "", "x", "0.5", "nored"]),
    st.recursive(st.integers(-2, 2) | st.text(max_size=2),
                 lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
                     st.text(max_size=2), inner, max_size=2), max_leaves=4))


def _paths(doc, prefix=""):
    """(path, container, key) of every value in a JSON document, depth first."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(doc, dict):
            path = f"{prefix}.{key}" if prefix else key
        else:
            path = f"{prefix}[{key}]"
        yield path, doc, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


@st.composite
def mutated(draw, base: dict):
    """(document, the key its mutation touched): base with one value replaced
    by a bad one, one unknown key added or one key removed, or a non-object
    in place of the whole document."""
    doc = json.loads(json.dumps(base))
    how = draw(st.sampled_from(["replace", "replace", "replace", "add", "remove", "whole"]))
    if how == "whole":
        return draw(st.lists(BAD_VALUES, max_size=2) | BAD_VALUES.filter(
            lambda v: not isinstance(v, dict))), None
    path, container, key = draw(st.sampled_from(list(_paths(doc))))
    if how == "add" and isinstance(container, dict):
        container["zz"] = draw(BAD_VALUES)
        return doc, "zz"
    if how == "remove" and isinstance(container, dict):
        del container[key]
        # an entry without its preset is read as a custom spec with no kind
        return doc, "kind" if key == "preset" else str(key)
    container[key] = draw(BAD_VALUES)
    return doc, path.rsplit(".", 1)[-1].split("[")[0]


def _check_gate(code: int, err: str, touched: str, ran: bool):
    """Exit 0, 64 or 65; a refusal made before any work names the key."""
    assert code in (0, 64, 65), err
    if code == 65 and not ran:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert touched in err, err


@settings(max_examples=150)
@given(mutated(TINY))
def test_fuzz_bench_configs_exit_cleanly_and_name_the_key(case):
    doc, touched = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("shiftdetect.digits.make_digits", wraps=digits.make_digits) as corpus:
        code, err = _bench(doc, Path(tmp))
    _check_gate(code, err, touched or "config", corpus.called)


SPECS = {"spec": {"preset": "medium_gn_shift", "delta": 0.5, "seed": 1},
         "composite": {"kind": "composite", "delta": 1.0,
                       "parts": [{"kind": "gaussian_noise", "sigma": 5.0, "delta": 0.5},
                                 {"kind": "knockout", "class_id": 1, "delta": 0.5}]}}


@pytest.fixture(scope="module")
def spec_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    write_csv(TensorDataset(np.full((8, 1, 4, 1), 0.5), np.arange(8) % 2, 2), path)
    return path


@settings(max_examples=100)
@given(st.sampled_from(sorted(SPECS)).flatmap(lambda name: mutated(SPECS[name])))
def test_fuzz_shift_specs_exit_cleanly_and_name_the_key(spec_input, case):
    doc, touched = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("shiftdetect.shifts.apply_shift", wraps=shifts.apply_shift) as applied:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["shift", str(spec_input), str(Path(tmp) / "o.csv"), "--spec", str(spec)])
    _check_gate(code, err.getvalue(), touched or "spec", applied.called)


@pytest.fixture(scope="module")
def records_rows(tmp_path_factory):
    """The rows of a records.csv bench wrote: a header, two ok and two skipped rows."""
    tmp = tmp_path_factory.mktemp("records")
    code, _ = _bench(dict(TINY, sample_sizes=[5, 50]), tmp)
    assert code == 0
    with open(tmp / "out" / "records.csv", newline="") as f:
        return list(csv.reader(f))


@st.composite
def mutated_records(draw, rows: list) -> str:
    """The text of rows with one field replaced, removed or added, one row
    cut short or dropped, or one piece of text put in at any place."""
    rows = [list(row) for row in rows]
    line = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(0, len(rows[line]) - 1))
    value = draw(st.sampled_from(["", "x", "nan", "inf", "-1", "1.5", "0", "true", "maybe",
                                  "ok", "skipped", "chi2", "5.5", '"', "\n", "a,b"]))
    how = draw(st.sampled_from(["replace", "replace", "remove", "add", "cut", "drop", "text"]))
    if how == "replace":
        rows[line][column] = value
    elif how == "remove":
        del rows[line][column]
    elif how == "add":
        rows[line].insert(column, value)
    elif how == "cut":
        del rows[line][column:]
    elif how == "drop":
        del rows[line]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    text = out.getvalue()
    if how == "text":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + value + text[at:]
    return text


@settings(max_examples=100)
@given(data=st.data())
def test_fuzz_records_files_exit_cleanly(records_rows, data):
    text = data.draw(mutated_records(records_rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--records", str(path), "--out", str(Path(tmp) / "r")])
    assert code in (0, 65), err.getvalue()
    if code == 65:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def test_library_config_gets_the_same_rules():
    base = dict(methods=(MethodSpec("nored"),),
                shifts=(harness.NamedShift("no_shift", shifts.preset("no_shift")),),
                n_train=10, n_val=5, n_test=5)
    assert ExperimentConfig(**base).sample_sizes == (10, 20, 50, 100, 200, 500, 1000, 10000)
    for key, value in (("lr0", math.inf), ("batch_size", 2.5), ("runs", True),
                       ("alpha", "0.05"), ("methods", ()), ("sample_sizes", [0])):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ExperimentConfig(**dict(base, **{key: value}))
