"""Command-line front end.

Subcommands: detect (one-shot two-sample test between two files; with
--exemplars, also the domain classifier's most and least target-like rows),
shift (apply a perturbation spec to a dataset on disk), bench (full grid
with CSV outputs and a manifest), report (re-derive tables from records.csv).

Machine-readable JSON goes to stdout; log text goes to stderr. Exit codes:
0 = no shift detected, 3 = shift detected, 64 = usage error, 65 = bad
data/config or an output path that cannot be written (a ShiftDetectError),
66 = missing input file or a directory given as one. Any other exception is
a bug, and its traceback is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, digits, harness, nets, shifts
from .data import TensorDataset, flatten, load_csv, load_idx, write_csv, write_idx
from .dimred import DrKind, load_model, reduce
from .errors import Rule, ShiftDetectError, check_object, rules_of
from .harness import ExperimentConfig, MethodSpec, NamedShift
from .stattest import TestMode

EXIT_SHIFT_DETECTED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _require_files(*paths) -> None:
    for p in paths:
        if Path(p).is_dir():
            raise FileNotFoundError(f"{p} is a directory, not a file")
        if not Path(p).exists():
            raise FileNotFoundError(f"no such file: {p}")


def _check_output(path, directory: bool = False) -> None:
    """Refuse, before any work, an output path that cannot be written: a
    file must go into an existing directory and not be one itself; a
    directory is made with its parents, so the nearest of them that exists
    must be a directory."""
    path = Path(path)
    if directory:
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            raise ShiftDetectError(f"output directory {path}: {nearest} is not a directory")
    elif path.is_dir():
        raise ShiftDetectError(f"output {path} is a directory")
    elif not path.parent.is_dir():
        raise ShiftDetectError(f"output {path}: no directory {path.parent}")


def _read_dataset(images, labels=None) -> TensorDataset:
    """A CSV file, or an IDX pair when labels is given."""
    if labels is None:
        _require_files(images)
        return load_csv(images)
    _require_files(images, labels)
    return load_idx(images, labels)


def _load_dataset(arg: str) -> TensorDataset:
    """CSV path, or an 'images,labels' IDX pair."""
    return _read_dataset(*arg.split(",", 1))


def _read_json(path, what: str):
    """The JSON document at path; what names it in the error message."""
    _require_files(path)
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ShiftDetectError(f"{what} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ShiftDetectError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def _write_dataset(ds: TensorDataset, arg: str) -> None:
    if "," in arg:
        images_path, labels_path = arg.split(",", 1)
        write_idx(ds, images_path, labels_path)
    else:
        write_csv(ds, arg)


def _outcome_payload(outcome) -> dict:
    return {
        "statistic": outcome.statistic,
        "p_value": outcome.p_value,
        "alpha": outcome.alpha,
        "reject": outcome.reject,
        "test_tag": outcome.test_tag.value,
    }


# ---------------------------------------------------------------------------
# detect

def _load_samples(args) -> tuple[TensorDataset, TensorDataset]:
    """The source and target files, refused before any split or fit unless
    each has a row and a pixel column and both have the same width."""
    source, target = _load_dataset(args.source), _load_dataset(args.target)
    for arg, ds in ((args.source, source), (args.target, target)):
        if ds.n == 0 or ds.dim == 0:
            raise ShiftDetectError(f"{arg} holds {ds.n} rows of {ds.dim} pixels; a sample "
                                   f"needs at least one of each")
    if source.dim != target.dim:
        raise ShiftDetectError(f"{args.source} has {source.dim} pixel columns and {args.target} "
                               f"has {target.dim}; the two samples must have the same width")
    return source, target


# detect's training flags, by dest (--latent-dim is latent_dim): each flag's
# type, its default and the config keys it sets; the first key's rule refuses
# a bad value
_TRAINING_FLAGS = {
    "alpha": (float, 0.05, ("alpha",)),
    "seed": (int, 0, ("seed",)),
    "latent_dim": (int, 32, ("latent_dim",)),
    "ae_lr0": (float, 2.0, ("ae_lr0",)),
    "hidden_dim": (int, 64, ("hidden_dim", "domain_hidden_dim")),
    "epochs": (int, 20, ("ae_epochs", "clf_epochs", "domain_epochs")),
    "batch_size": (int, 32, ("batch_size", "domain_batch_size")),
    "lr0": (float, 0.1, ("lr0",)),
    "patience": (int, 10, ("patience",)),
}


def _check_flags(args) -> None:
    """Refuse a training flag that breaks its first key's rule, naming the flag."""
    rules = rules_of(ExperimentConfig)
    for dest, (_, _, keys) in _TRAINING_FLAGS.items():
        rules[keys[0]].check(getattr(args, dest), "--" + dest.replace("_", "-"))


def _one_shot_config(args, source: TensorDataset, method: MethodSpec,
                     latent_dim: int) -> ExperimentConfig:
    """detect's training flags, checked by _check_flags, as a config for fitting on
    source. Seeds derive from --seed as in bench; latent_dim is clamped by detect."""
    settings = {key: getattr(args, dest) for dest, (_, _, keys) in _TRAINING_FLAGS.items()
                for key in keys}
    return ExperimentConfig(
        methods=(method,), shifts=(NamedShift("no_shift", shifts.preset("no_shift")),),
        n_train=source.n, n_val=0, n_test=0, **dict(settings, latent_dim=latent_dim))


def _exemplar_usage_error(args) -> str | None:
    """Why detect's --exemplars and --out cannot be used as given, or None."""
    if args.exemplars is None:
        return None if args.out is None else "--out needs --exemplars"
    if args.method != DrKind.CLASSIF.value:
        return f"--exemplars needs --method classif, got {args.method}"
    if args.out is None:
        return "--exemplars needs --out"
    return None if args.exemplars >= 1 else f"k must be >= 1, got {args.exemplars}"


def _write_exemplars(check: harness.DomainCheck, k: int, out: str) -> str:
    """Write report.json and the top_different/top_similar sample CSVs of
    check into the directory out, made here; returns its name."""
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {"gate_passed": check.outcome.reject, "binomial_p": check.outcome.p_value,
           "heldout_accuracy": check.accuracy, "n_heldout": check.n_heldout, "k": k}
    for name, entries in zip(("top_different", "top_similar"), harness.top_exemplars(check, k)):
        doc[name] = [{"heldout_index": i, "target_row": int(check.heldout_target_indices[i]),
                      "score": s} for i, s in entries]
        with open(outdir / f"{name}_samples.csv", "w", newline="") as f:
            for i, score in entries:
                row = [repr(float(v)) for v in check.heldout_target[i]]
                f.write(",".join(row + [repr(score)]) + "\n")
    with open(outdir / "report.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    return str(outdir)


def cmd_detect(args) -> int:
    if usage := _exemplar_usage_error(args):
        return _usage_error(usage)
    method = MethodSpec(DrKind(args.method), TestMode(args.mode))  # refuses a bad pair
    kind, mode = method.kind, method.mode
    source, target = _load_samples(args)
    if args.exemplars:
        _, n_heldout_target = harness.domain_halves(source.n, target.n)
        if args.exemplars > n_heldout_target:
            return _usage_error(f"k={args.exemplars} exceeds held-out target size "
                                f"{n_heldout_target}")
        _check_output(args.out, directory=True)
    _check_flags(args)  # before a split is drawn from --seed or a model fitted
    fit_rows, reference_rows = harness.fit_and_reference_rows(kind, source.n, args.seed)
    fit = source.subset(fit_rows)
    # the latent size is clamped to min(latent_dim, n - 1, D) of the fit rows,
    # so PCA stays defined on small samples; an autoencoder's bottleneck must
    # be narrower than its input, so uae and tae take D - 1 for D
    width = source.dim - 1 if kind in (DrKind.UAE, DrKind.TAE) else source.dim
    cfg = _one_shot_config(args, fit, method, min(args.latent_dim, max(1, min(fit.n - 1, width))))
    handle = harness.fit_reducers(fit, cfg).handle_for(kind)
    extra = {}
    if isinstance(handle, nets.SoftmaxClassifier):
        extra["classifier_best_epoch"] = handle.best_epoch
        if handle.best_epoch == 0:
            _log("warning: the label classifier never beat its initial net on the "
                 "held-out rows; its outputs are constant, so BBSD cannot see a shift")
    source_rep = reduce(kind, handle, flatten(source)[reference_rows])
    target_rep = reduce(kind, handle, flatten(target))
    if args.exemplars:  # classif: the check's classifier also ranks the held-out target rows
        check = harness.domain_check(cfg, source_rep.values, target_rep.values, seed=cfg.seed)
        outcome, extra["outdir"] = check.outcome, _write_exemplars(check, args.exemplars, args.out)
    else:
        outcome = harness.check(cfg, method, source_rep, target_rep, seed=cfg.seed)
    payload = _outcome_payload(outcome)
    payload.update(method=kind.value, mode=mode.value, n_source=source.n, n_target=target.n,
                   n_fit=fit.n, n_reference=reference_rows.size, **extra)
    _emit(payload)
    return EXIT_SHIFT_DETECTED if outcome.reject else 0


# ---------------------------------------------------------------------------
# shift

def cmd_shift(args) -> int:
    for path in args.output.split(",", 1):  # a CSV path or an IDX pair
        _check_output(path)
    ds = _load_dataset(args.input)
    spec = harness.parse_shift_spec(_read_json(args.spec, "spec"))
    classifier = None
    if args.model:
        _require_files(args.model)
        classifier = load_model(args.model)
    shifted = shifts.apply_shift(spec, ds, classifier=classifier)
    _write_dataset(shifted, args.output)
    n_changed = ""
    if shifted.n == ds.n:
        n_changed = int(np.sum(np.any(shifted.images != ds.images, axis=(1, 2, 3))))
    _emit({
        "n_input": ds.n,
        "n_output": shifted.n,
        "n_removed": ds.n - shifted.n,
        "n_changed": n_changed,
        "spec": spec.to_dict(),
        "output": args.output,
    })
    return 0


# ---------------------------------------------------------------------------
# bench

_PATH = Rule("path string")
# each dataset kind's keys besides "kind" and their rules; a file kind needs
# all of its keys, and n_pool must also cover n_train + n_val + n_test
_DATASET_KEYS = {"synthetic": {"seed": Rule("integer", 0), "n_pool": Rule("integer", 1)},
                 "idx": {"images": _PATH, "labels": _PATH},
                 "csv": {"path": _PATH}}


def _dataset_from_config(doc: dict, cfg: ExperimentConfig) -> TensorDataset:
    """The dataset a bench config names; its keys are checked before any
    corpus is built or file is read."""
    ds_cfg = doc.get("dataset")
    if ds_cfg is None:
        raise ShiftDetectError("config needs a 'dataset' object")
    kind = ds_cfg.get("kind", "synthetic")
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        raise ShiftDetectError(f"unknown dataset kind {kind!r}; known: {', '.join(_DATASET_KEYS)}")
    keys = _DATASET_KEYS[kind]
    check_object(ds_cfg, {"kind": Rule("string"), **keys}, "dataset", f"dataset kind {kind!r}",
                 required=() if kind == "synthetic" else keys)
    if kind == "idx":
        return _read_dataset(ds_cfg["images"], ds_cfg["labels"])
    if kind == "csv":
        return _read_dataset(ds_cfg["path"])
    need = cfg.n_train + cfg.n_val + cfg.n_test
    n_pool = ds_cfg.get("n_pool", need)
    Rule("integer", need).check(n_pool, "dataset.n_pool")
    return digits.make_digits(n_pool, seed=ds_cfg.get("seed", cfg.seed))


# accuracy_by_method keeps shifts apart: no_shift rows are test size, the
# others power
_ACCURACY_TABLES = (("accuracy_by_method.csv", ("shift", "method", "mode", "sample_size")),
                   ("accuracy_by_shift.csv", ("shift", "sample_size")),
                   ("accuracy_by_intensity.csv", ("intensity", "sample_size")),
                   ("accuracy_by_delta.csv", ("delta", "sample_size")))


def _write_tables(result, outdir: Path) -> list:
    """Accuracy tables and p-value curves of a result; returns their file names."""
    for name, group in _ACCURACY_TABLES:
        harness.write_accuracy_csv(result, group, outdir / name)
    harness.write_pvalue_curves_csv(result, outdir / "pvalue_curves.csv")
    return [name for name, _ in _ACCURACY_TABLES] + ["pvalue_curves.csv"]


def cmd_bench(args) -> int:
    if args.threads < 1:
        return _usage_error(f"threads must be >= 1, got {args.threads}")
    _check_output(args.out, directory=True)
    doc = _read_json(args.config, "config")
    cfg = ExperimentConfig.from_dict(doc)
    dataset = _dataset_from_config(doc, cfg)
    _log(f"running grid: {len(cfg.shifts)} shifts x {len(cfg.methods)} methods x "
         f"{len(cfg.sample_sizes)} sizes x {cfg.runs} runs")
    result = harness.run_experiment(dataset, cfg, threads=args.threads)
    outdir = Path(args.out)  # made only once the grid has run, so a failed one leaves none
    outdir.mkdir(parents=True, exist_ok=True)
    harness.write_records_csv(result, outdir / "records.csv")
    skipped = Counter(r.reason for r in result.records if r.status == "skipped")
    usable = len(result.records) > skipped.total()
    artifacts = ["records.csv"] + (_write_tables(result, outdir) if usable else [])

    manifest = {
        "config_path": str(args.config),
        "output_dir": str(outdir),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "tool_version": __version__,
        "seed": cfg.seed,
        "threads": args.threads,
        "artifacts": artifacts,
        "n_records": len(result.records),
        "skipped_by_reason": dict(skipped),
        "elapsed_seconds": result.elapsed_seconds,
    }
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    if not usable:
        _log("error: no usable records; every cell was skipped: "
             + "; ".join(f"{reason} ({n} cells)" for reason, n in skipped.items()))
        return EXIT_DATA
    _emit({"outdir": str(outdir), "n_records": len(result.records),
           "artifacts": artifacts + ["manifest.json"]})
    return 0


# ---------------------------------------------------------------------------
# report

def cmd_report(args) -> int:
    _check_output(args.out, directory=True)
    _require_files(args.records)
    result = harness.read_records_csv(args.records)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _emit({"outdir": str(outdir), "artifacts": _write_tables(result, outdir)})
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="shiftdetect",
                     description="Detect dataset shift between samples of data.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "detect", help="two-sample test between a source and a target file",
        description="One-shot detection: pca, tae, bbsds and bbsdh fit their "
                    "model on a seeded half of the source and test the other "
                    "half; the other methods test the whole source. Both "
                    "sides are reduced and tested. BBSD methods need labeled "
                    "source data.")
    p.add_argument("source", help="CSV path or 'images,labels' IDX pair")
    p.add_argument("target", help="CSV path or 'images,labels' IDX pair")
    p.add_argument("--method", default="nored", choices=[k.value for k in DrKind])
    p.add_argument("--mode", default="univariate",
                   choices=[m.value for m in TestMode])
    for dest, (type_, default, _) in _TRAINING_FLAGS.items():
        p.add_argument("--" + dest.replace("_", "-"), type=type_, default=default)
    p.add_argument("--exemplars", type=int, default=None, metavar="K",
                   help="with --method classif: write the K held-out target rows the "
                        "domain classifier finds most and least target-like to --out")
    p.add_argument("--out", default=None, help="directory of the --exemplars report")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("shift", help="apply a shift spec to a dataset on disk")
    p.add_argument("input", help="CSV path or 'images,labels' IDX pair")
    p.add_argument("output", help="CSV path or 'images,labels' IDX pair")
    p.add_argument("--spec", required=True, help="JSON shift spec or preset document")
    p.add_argument("--model", default=None,
                   help="saved classifier (needed by adversarial shifts)")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("bench", help="run the full benchmark grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="re-derive accuracy tables from records.csv")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/version or usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except ShiftDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
