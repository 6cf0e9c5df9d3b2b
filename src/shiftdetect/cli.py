"""Command-line front end.

Subcommands: detect (one-shot two-sample test between two files), shift
(apply a perturbation spec to a dataset on disk), bench (full experiment
grid with CSV outputs and a manifest), exemplars (most-anomalous samples
via the domain classifier), report (re-derive tables from records.csv).

Machine-readable JSON goes to stdout; log text goes to stderr. Exit codes:
0 = no shift detected, 3 = shift detected, 64 = usage error, 65 = bad
data/config, 66 = missing input file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, digits, harness, nets, shifts
from .data import TensorDataset, flatten, load_csv, load_idx, write_csv, write_idx
from .dimred import DrKind, reduce
from .errors import ConfigInvalid, ShiftDetectError
from .harness import ExperimentConfig, MethodSpec, NamedShift
from .stattest import TestMode, dispatch_test

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


def _load_dataset(arg: str) -> TensorDataset:
    """CSV path, or an 'images,labels' IDX pair."""
    if "," in arg:
        images_path, labels_path = arg.split(",", 1)
        for p in (images_path, labels_path):
            if not Path(p).exists():
                raise FileNotFoundError(p)
        return load_idx(images_path, labels_path)
    if not Path(arg).exists():
        raise FileNotFoundError(arg)
    return load_csv(arg)


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

def _one_shot_config(args, source: TensorDataset, method: MethodSpec) -> ExperimentConfig:
    """The training flags of detect/exemplars as a config for fitting on the source.

    The latent size is clamped to min(latent_dim, n - 1, D), so PCA stays
    defined on small samples; seeds derive from --seed as in bench.
    """
    k = min(args.latent_dim, max(1, min(source.n - 1, math.prod(source.image_shape))))
    return ExperimentConfig(
        methods=(method,), shifts=(NamedShift("no_shift", shifts.preset("no_shift")),),
        n_train=source.n, n_val=0, n_test=0, alpha=args.alpha, seed=args.seed,
        latent_dim=k, hidden_dim=args.hidden_dim, domain_hidden_dim=args.hidden_dim,
        ae_epochs=args.epochs, clf_epochs=args.epochs, domain_epochs=args.epochs,
        batch_size=args.batch_size, domain_batch_size=args.batch_size,
        lr0=args.lr0, ae_lr0=args.ae_lr0, patience=args.patience)


def _domain_check(args, source: TensorDataset, target: TensorDataset) -> harness.DomainCheck:
    cfg = _one_shot_config(args, source, MethodSpec(DrKind.CLASSIF))
    return harness.run_domain_classifier_test(
        flatten(source), flatten(target), cfg.domain_train_config(args.seed),
        alpha=args.alpha, seed=args.seed, hidden_dims=(cfg.domain_hidden_dim,))


def cmd_detect(args) -> int:
    method = MethodSpec(DrKind(args.method), TestMode(args.mode))  # refuses a bad pair
    kind, mode = method.kind, method.mode
    source = _load_dataset(args.source)
    target = _load_dataset(args.target)
    fit_info = {}
    if kind == DrKind.CLASSIF:
        outcome = _domain_check(args, source, target).outcome
    else:
        cfg = _one_shot_config(args, source, method)
        handle = harness.fit_reducers(source, cfg).handle_for(kind)
        if isinstance(handle, nets.SoftmaxClassifier):
            fit_info["classifier_best_epoch"] = handle.best_epoch
            if handle.best_epoch == 0:
                _log("warning: the label classifier never beat its initial net on the "
                     "held-out rows; its outputs are constant, so BBSD cannot see a shift")
        outcome = dispatch_test(reduce(kind, handle, flatten(source)),
                                reduce(kind, handle, flatten(target)), kind, mode,
                                alpha=args.alpha, seed=args.seed)
    payload = _outcome_payload(outcome)
    payload.update(method=kind.value, mode=mode.value,
                   n_source=source.n, n_target=target.n, **fit_info)
    _emit(payload)
    return EXIT_SHIFT_DETECTED if outcome.reject else 0


# ---------------------------------------------------------------------------
# shift

def cmd_shift(args) -> int:
    ds = _load_dataset(args.input)
    if not Path(args.spec).exists():
        raise FileNotFoundError(args.spec)
    with open(args.spec) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"spec is not valid JSON: {exc}") from exc
    spec = harness.parse_shift_spec(doc)
    classifier = None
    if args.model:
        if not Path(args.model).exists():
            raise FileNotFoundError(args.model)
        classifier = nets.load_net(args.model)
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

def _dataset_from_config(doc: dict, cfg: ExperimentConfig) -> TensorDataset:
    ds_cfg = doc.get("dataset")
    if not isinstance(ds_cfg, dict):
        raise ConfigInvalid("config needs a 'dataset' object")
    kind = ds_cfg.get("kind", "synthetic")
    if kind == "synthetic":
        n_pool = int(ds_cfg.get("n_pool", cfg.n_train + cfg.n_val + cfg.n_test))
        return digits.make_digits(n_pool, seed=int(ds_cfg.get("seed", cfg.seed)))
    if kind == "idx":
        for key in ("images", "labels"):
            if not Path(ds_cfg[key]).exists():
                raise FileNotFoundError(ds_cfg[key])
        return load_idx(ds_cfg["images"], ds_cfg["labels"])
    if kind == "csv":
        if not Path(ds_cfg["path"]).exists():
            raise FileNotFoundError(ds_cfg["path"])
        return load_csv(ds_cfg["path"])
    raise ConfigInvalid(f"unknown dataset kind {kind!r}")


_ACCURACY_TABLES = (("accuracy_by_method.csv", ("method", "mode", "sample_size")),
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
    if not Path(args.config).exists():
        raise FileNotFoundError(args.config)
    with open(args.config) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    cfg = ExperimentConfig.from_dict(doc)
    dataset = _dataset_from_config(doc, cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    _log(f"running grid: {len(cfg.shifts)} shifts x {len(cfg.methods)} methods x "
         f"{len(cfg.sample_sizes)} sizes x {cfg.runs} runs")
    result = harness.run_experiment(dataset, cfg, threads=args.threads)
    harness.write_records_csv(result, outdir / "records.csv")
    artifacts = ["records.csv"] + _write_tables(result, outdir)

    manifest = {
        "config_path": str(args.config),
        "output_dir": str(outdir),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "tool_version": __version__,
        "seed": cfg.seed,
        "threads": args.threads,
        "artifacts": artifacts,
        "n_records": len(result.records),
        "skipped_by_reason": dict(Counter(
            r.reason for r in result.records if r.status == "skipped")),
        "elapsed_seconds": result.metadata.get("elapsed_seconds"),
    }
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    _emit({"outdir": str(outdir), "n_records": len(result.records),
           "artifacts": artifacts + ["manifest.json"]})
    return 0


# ---------------------------------------------------------------------------
# exemplars

def cmd_exemplars(args) -> int:
    if args.k < 1:
        print(f"error: k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
    source = _load_dataset(args.source)
    target = _load_dataset(args.target)
    check = _domain_check(args, source, target)
    n_heldout_target = check.heldout_target.shape[0]
    if args.k > n_heldout_target:
        print(f"error: k={args.k} exceeds held-out target size {n_heldout_target}",
              file=sys.stderr)
        return EXIT_USAGE
    report = harness.top_exemplars(check.clf, check.heldout_target, args.k,
                                   check.outcome.p_value, alpha=args.alpha)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    doc = {
        "gate_passed": report.gate_passed,
        "binomial_p": report.binomial_p,
        "heldout_accuracy": check.accuracy,
        "n_heldout": check.n_heldout,
        "k": args.k,
        "top_different": [
            {"heldout_index": i, "target_row": int(check.heldout_target_indices[i]),
             "score": s} for i, s in report.top_different],
        "top_similar": [
            {"heldout_index": i, "target_row": int(check.heldout_target_indices[i]),
             "score": s} for i, s in report.top_similar],
    }
    with open(outdir / "report.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)

    for name, entries in (("top_different", report.top_different),
                          ("top_similar", report.top_similar)):
        with open(outdir / f"{name}_samples.csv", "w", newline="") as f:
            for i, score in entries:
                row = [repr(float(v)) for v in check.heldout_target[i]]
                f.write(",".join(row + [repr(score)]) + "\n")

    _emit({"gate_passed": report.gate_passed, "binomial_p": report.binomial_p,
           "outdir": str(outdir)})
    return 0


# ---------------------------------------------------------------------------
# report

def cmd_report(args) -> int:
    if not Path(args.records).exists():
        raise FileNotFoundError(args.records)
    result = harness.read_records_csv(args.records, alpha=args.alpha)
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
        p.add_argument("--latent-dim", type=int, default=32)
        p.add_argument("--hidden-dim", type=int, default=64)
        p.add_argument("--epochs", type=int, default=20)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--lr0", type=float, default=0.1)
        p.add_argument("--ae-lr0", type=float, default=2.0)
        p.add_argument("--patience", type=int, default=10)

    p = sub.add_parser(
        "detect", help="two-sample test between a source and a target file",
        description="One-shot detection: the chosen reducer is fitted on the "
                    "source sample itself, then both sides are reduced and "
                    "tested. BBSD methods need labeled source data.")
    p.add_argument("source", help="CSV path or 'images,labels' IDX pair")
    p.add_argument("target", help="CSV path or 'images,labels' IDX pair")
    p.add_argument("--method", default="nored", choices=[k.value for k in DrKind])
    p.add_argument("--mode", default="univariate",
                   choices=[m.value for m in TestMode])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--alpha", type=float, default=0.05)
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
        print(f"error: no such file: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ShiftDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
