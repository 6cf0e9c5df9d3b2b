"""Command-line front end.

Subcommands: detect (one-shot two-sample test between two files), shift
(apply a perturbation spec to a dataset on disk), bench (full experiment
grid with CSV outputs and a manifest), exemplars (most-anomalous samples
via the domain classifier), report (re-derive tables from records.csv).

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


# the flags whose bad value the config would report under another key name
# (ae_epochs for --epochs) or after detect's clamp (--latent-dim), each with
# the key whose rule it keeps; --alpha, --lr0, --patience and --seed are
# spelled as their keys
_FLAG_KEYS = {"epochs": "ae_epochs", "batch_size": "batch_size", "hidden_dim": "hidden_dim",
              "latent_dim": "latent_dim", "ae_lr0": "ae_lr0"}


def _one_shot_config(args, source: TensorDataset, method: MethodSpec,
                     **reducer_settings) -> ExperimentConfig:
    """The training flags of detect/exemplars as a config for fitting on source.

    Seeds derive from --seed as in bench. detect passes the settings that
    only its reducers read (latent_dim, ae_lr0) as reducer_settings. Each
    flag of _FLAG_KEYS the command has must keep its key's rule, and is
    named as the flag when it does not.
    """
    rules = rules_of(ExperimentConfig)
    for dest, name in _FLAG_KEYS.items():
        if hasattr(args, dest):
            rules[name].check(getattr(args, dest), "--" + dest.replace("_", "-"))
    return ExperimentConfig(
        methods=(method,), shifts=(NamedShift("no_shift", shifts.preset("no_shift")),),
        n_train=source.n, n_val=0, n_test=0, alpha=args.alpha, seed=args.seed,
        hidden_dim=args.hidden_dim, domain_hidden_dim=args.hidden_dim,
        ae_epochs=args.epochs, clf_epochs=args.epochs, domain_epochs=args.epochs,
        batch_size=args.batch_size, domain_batch_size=args.batch_size,
        lr0=args.lr0, patience=args.patience, **reducer_settings)


def cmd_detect(args) -> int:
    method = MethodSpec(DrKind(args.method), TestMode(args.mode))  # refuses a bad pair
    kind, mode = method.kind, method.mode
    source, target = _load_samples(args)
    rules_of(ExperimentConfig)["seed"].check(args.seed, "seed")  # before a split is drawn from it
    fit_rows, reference_rows = harness.fit_and_reference_rows(kind, source.n, args.seed)
    fit = source.subset(fit_rows)
    # the latent size is clamped to min(latent_dim, n - 1, D) of the fit rows,
    # so PCA stays defined on small samples; an autoencoder's bottleneck must
    # be narrower than its input, so uae and tae take D - 1 for D
    width = source.dim - 1 if kind in (DrKind.UAE, DrKind.TAE) else source.dim
    k = min(args.latent_dim, max(1, min(fit.n - 1, width)))
    cfg = _one_shot_config(args, fit, method, latent_dim=k, ae_lr0=args.ae_lr0)
    handle = harness.fit_reducers(fit, cfg).handle_for(kind)
    fit_info = {}
    if isinstance(handle, nets.SoftmaxClassifier):
        fit_info["classifier_best_epoch"] = handle.best_epoch
        if handle.best_epoch == 0:
            _log("warning: the label classifier never beat its initial net on the "
                 "held-out rows; its outputs are constant, so BBSD cannot see a shift")
    outcome = harness.check(cfg, method, reduce(kind, handle, flatten(source)[reference_rows]),
                            reduce(kind, handle, flatten(target)), seed=cfg.seed)
    payload = _outcome_payload(outcome)
    payload.update(method=kind.value, mode=mode.value, n_source=source.n, n_target=target.n,
                   n_fit=fit.n, n_reference=reference_rows.size, **fit_info)
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
        print(f"error: threads must be >= 1, got {args.threads}", file=sys.stderr)
        return EXIT_USAGE
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
# exemplars

def cmd_exemplars(args) -> int:
    if args.k < 1:
        print(f"error: k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
    source, target = _load_samples(args)
    _, n_heldout_target = harness.domain_halves(source.n, target.n)
    if args.k > n_heldout_target:
        print(f"error: k={args.k} exceeds held-out target size {n_heldout_target}",
              file=sys.stderr)
        return EXIT_USAGE
    _check_output(args.out, directory=True)
    check = harness.domain_check(_one_shot_config(args, source, MethodSpec(DrKind.CLASSIF)),
                                 flatten(source), flatten(target), seed=args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {
        "gate_passed": check.outcome.reject,
        "binomial_p": check.outcome.p_value,
        "heldout_accuracy": check.accuracy,
        "n_heldout": check.n_heldout,
        "k": args.k,
    }
    for name, entries in zip(("top_different", "top_similar"),
                             harness.top_exemplars(check, args.k)):
        doc[name] = [{"heldout_index": i, "target_row": int(check.heldout_target_indices[i]),
                      "score": s} for i, s in entries]
        with open(outdir / f"{name}_samples.csv", "w", newline="") as f:
            for i, score in entries:
                row = [repr(float(v)) for v in check.heldout_target[i]]
                f.write(",".join(row + [repr(score)]) + "\n")
    with open(outdir / "report.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    _emit({"gate_passed": doc["gate_passed"], "binomial_p": doc["binomial_p"],
           "outdir": str(outdir)})
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

    def add_training_flags(p):
        p.add_argument("--hidden-dim", type=int, default=64)
        p.add_argument("--epochs", type=int, default=20)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--lr0", type=float, default=0.1)
        p.add_argument("--patience", type=int, default=10)

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
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--latent-dim", type=int, default=32)
    p.add_argument("--ae-lr0", type=float, default=2.0)
    add_training_flags(p)
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

    p = sub.add_parser("exemplars", help="most-anomalous samples via the domain classifier")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    add_training_flags(p)
    p.set_defaults(func=cmd_exemplars)

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
