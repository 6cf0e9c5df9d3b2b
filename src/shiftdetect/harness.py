"""End-to-end experiment pipeline.

Fits every requested reducer once on the training split, re-splits
validation/test per run, applies each shift to the test side only, sweeps
target sample sizes, and records one TestOutcome per grid cell. Cells are
independent given the fitted reducers; every random choice derives from
(base seed, cell coordinates), so results do not depend on scheduling and
a fixed base seed reproduces the result bit-exactly.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from . import nets, shifts
from .data import TensorDataset, flatten, split_indices
from .dimred import METHOD_TABLE, DrKind, Representation, build_srp, fit_pca, reduce
from .errors import Rule, ShiftDetectError, check_fields, check_object, key, rules_of
from .nets import SoftmaxClassifier, TrainConfig
from .stattest import (
    TestMode,
    TestOutcome,
    TestTag,
    binomial_two_sided,
    dispatch_test,
)


@dataclass(frozen=True)
class MethodSpec:
    kind: DrKind = key(Rule("string", choices=tuple(DrKind)))
    mode: TestMode = key(Rule("string", choices=tuple(TestMode)), TestMode.UNIVARIATE)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "kind", DrKind(self.kind))
        object.__setattr__(self, "mode", TestMode(self.mode))
        if self.mode == TestMode.MULTIVARIATE and not METHOD_TABLE[self.kind].multivariate:
            raise ShiftDetectError(f"method entry [{self.kind.value!r}, 'multivariate']: "
                                   f"{self.kind.value} has no multivariate test")


@dataclass(frozen=True)
class NamedShift:
    name: str
    spec: shifts.ShiftSpec
    intensity: str = "custom"


_COUNT, _POSITIVE, _TRAIN = Rule("integer", 0), Rule("integer", 1), rules_of(TrainConfig)


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark grid and its training settings. Each field is a config
    key with its rule and default, read by __post_init__ and from_dict alike;
    README's table of config keys lists them."""

    methods: tuple = key(Rule("non-empty list"))
    shifts: tuple = key(Rule("non-empty list"))
    n_train: int = key(_POSITIVE)
    n_val: int = key(_COUNT)
    n_test: int = key(_COUNT)
    sample_sizes: tuple = key(Rule("non-empty list of integers", 1),
                              (10, 20, 50, 100, 200, 500, 1000, 10000))
    runs: int = key(_POSITIVE, 5)
    alpha: float = key(Rule("finite number", 0, 1, "()"), 0.05)
    seed: int = key(_COUNT, 0)
    latent_dim: int = key(_POSITIVE, 32)
    hidden_dim: int = key(_POSITIVE, 256)
    domain_hidden_dim: int = key(_POSITIVE, 32)
    ae_epochs: int = key(_TRAIN["max_epochs"], 15)
    clf_epochs: int = key(_TRAIN["max_epochs"], 15)
    domain_epochs: int = key(_TRAIN["max_epochs"], 10)
    batch_size: int = key(_TRAIN["batch_size"], 128)
    # domain pools are tiny; keep enough updates per epoch
    domain_batch_size: int = key(_TRAIN["batch_size"], 32)
    lr0: float = key(_TRAIN["lr0"], 0.1)
    ae_lr0: float = key(_TRAIN["lr0"], 2.0)  # per-element MSE gradients are ~1/D the CE scale
    momentum: float = key(_TRAIN["momentum"], 0.9)
    patience: int = key(_TRAIN["patience"], 5)
    n_perms: int = key(_POSITIVE, 1000)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))
        # a repeated entry would count its cells twice, or merge two shifts' rows
        for name, entries in (("sample_sizes", self.sample_sizes),
                              ("methods", [(m.kind.value, m.mode.value) for m in self.methods]),
                              ("shifts", [s.name for s in self.shifts])):
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ShiftDetectError(f"{name}[{i}] repeats {name}[{entries.index(entry)}]: "
                                           f"{entry!r}")

    @staticmethod
    def from_dict(doc) -> "ExperimentConfig":
        """The config a JSON document holds: an object with every required
        key and no unknown one. "dataset" is left to the bench command.
        The error names the first bad key's path."""
        check_object(doc, _DOC_RULES, "", "config",
                     required=[f.name for f in fields(ExperimentConfig) if f.default is MISSING])
        methods = tuple(_method_from_entry(m, f"methods[{i}]")
                        for i, m in enumerate(doc["methods"]))
        named = tuple(_shift_from_entry(s, f"shifts[{i}]") for i, s in enumerate(doc["shifts"]))
        rest = {k: v for k, v in doc.items() if k not in ("methods", "shifts", "dataset")}
        return ExperimentConfig(methods=methods, shifts=named, **rest)

    def train_config(self, epochs: int, seed: int, lr0: float | None = None) -> TrainConfig:
        return TrainConfig(batch_size=self.batch_size, lr0=self.lr0 if lr0 is None else lr0,
                           momentum=self.momentum, max_epochs=epochs,
                           patience=self.patience, seed=seed)

    def domain_train_config(self, seed: int) -> TrainConfig:
        """Training settings of the source-vs-target domain classifier."""
        return TrainConfig(batch_size=self.domain_batch_size, lr0=self.lr0,
                           momentum=self.momentum, max_epochs=self.domain_epochs,
                           patience=self.patience, seed=seed)


_DOC_RULES = {**rules_of(ExperimentConfig), "dataset": Rule("object")}
_LABELS = {"name": Rule("string"), "intensity": Rule("string")}  # a shift entry's labels
_PRESET_RULES = {"preset": Rule("string"),
                 **{k: rules_of(shifts.ShiftSpec)[k] for k in ("delta", "seed", "epsilon")}}


def _method_from_entry(entry, path: str) -> MethodSpec:
    """A method entry: a kind string, a [kind, mode] pair or a {"kind", "mode"} object."""
    if isinstance(entry, str):
        entry = {"kind": entry}
    elif isinstance(entry, (list, tuple)) and len(entry) == 2:
        entry = dict(zip(("kind", "mode"), entry))
    elif not isinstance(entry, dict):
        raise ShiftDetectError(f"{path} must be a kind string, a [kind, mode] pair or an "
                               f"object, got {entry!r}")
    check_object(entry, rules_of(MethodSpec), path, required=("kind",))
    return MethodSpec(**entry)


def parse_shift_spec(entry, path: str = "spec") -> shifts.ShiftSpec:
    """ShiftSpec of a preset entry ({"preset": name, ...}) or a custom spec.

    The labels name and intensity must be strings and are skipped. A custom
    spec is read by ShiftSpec.from_dict; a preset entry carries only the
    keys of _PRESET_RULES, and shifts.preset refuses a value its preset
    does not take. The error names path and the bad key.
    """
    Rule("object").check(entry, path)
    check_object({k: v for k, v in entry.items() if k in _LABELS}, _LABELS, path)
    spec = {k: v for k, v in entry.items() if k not in _LABELS}
    if "preset" not in spec:
        return shifts.ShiftSpec.from_dict(spec, path)
    check_object(spec, _PRESET_RULES, path)
    try:
        return shifts.preset(spec.pop("preset"), **spec)
    except ValueError as exc:
        raise ShiftDetectError(f"{path}: {exc}") from exc


def _shift_from_entry(entry, path: str) -> NamedShift:
    spec = parse_shift_spec(entry, path)
    label, preset_name, intensity = (entry.get(k) for k in ("name", "preset", "intensity"))
    if preset_name is not None:
        return NamedShift(name=label or f"{preset_name}@d{spec.delta:g}", spec=spec,
                          intensity=intensity or shifts.intensity_of(preset_name))
    if label is None:
        raise ShiftDetectError(f"{path}: custom shift entries need a 'name'")
    return NamedShift(name=label, spec=spec, intensity=intensity or "custom")


@dataclass
class Record:
    shift: str
    intensity: str
    delta: float
    method: str
    mode: str
    sample_size: int
    run: int
    status: str                      # "ok" or "skipped"
    outcome: TestOutcome | None = None
    reason: str = ""


@dataclass
class ExperimentResult:
    records: list
    elapsed_seconds: float | None = None  # run_experiment's wall time; None when read back


@dataclass
class FittedReducers:
    """Fitted models by the name METHOD_TABLE gives them ("pca", "label_clf", ...)."""

    models: dict = field(default_factory=dict)

    def handle_for(self, kind: DrKind):
        return self.models.get(METHOD_TABLE[DrKind(kind)].model)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def fit_reducers(train: TensorDataset, cfg: ExperimentConfig) -> FittedReducers:
    """Fit the models METHOD_TABLE names for cfg.methods, on training data only.

    The label classifier is also fitted when a shift is adversarial. It and
    the trained autoencoder carve an internal 90/10 early-stopping split out
    of the training part, drawn only when one of them is fitted; validation
    and test data are never seen here.
    """
    needed = {METHOD_TABLE[m.kind].model for m in cfg.methods}
    if any(shifts.needs_classifier(s.spec) for s in cfg.shifts):
        needed.add("label_clf")
    x = flatten(train)
    d = x.shape[1]
    models = {}

    if "pca" in needed:
        models["pca"] = fit_pca(x, cfg.latent_dim)
    if "srp" in needed:
        models["srp"] = build_srp(d, cfg.latent_dim, seed=_derive_seed(cfg.seed, 11))
    arch = (d, cfg.hidden_dim, cfg.latent_dim)
    if "uae" in needed:
        models["uae"] = nets.train_autoencoder(
            x, x[:1], arch, cfg.train_config(0, _derive_seed(cfg.seed, 12)))

    if not needed & {"tae", "label_clf"}:
        return FittedReducers(models)
    inner_n = max(1, int(0.9 * train.n))
    fit_idx, stop_idx, _ = split_indices(train.n, inner_n, train.n - inner_n, 0,
                                         seed=_derive_seed(cfg.seed, 13))
    x_fit, x_stop = x[fit_idx], x[stop_idx]
    y_fit, y_stop = train.labels[fit_idx], train.labels[stop_idx]
    if x_stop.shape[0] == 0:
        x_stop, y_stop = x_fit, y_fit

    if "tae" in needed:
        models["tae"] = nets.train_autoencoder(
            x_fit, x_stop, arch,
            cfg.train_config(cfg.ae_epochs, _derive_seed(cfg.seed, 14), lr0=cfg.ae_lr0))
    if "label_clf" in needed:
        if train.num_classes < 2:
            raise ShiftDetectError("the label classifier needs training data with >= 2 classes")
        models["label_clf"] = nets.train_label_classifier(
            (x_fit, y_fit), (x_stop, y_stop), train.num_classes,
            cfg.train_config(cfg.clf_epochs, _derive_seed(cfg.seed, 15)),
            hidden_dims=(cfg.hidden_dim,))
    return FittedReducers(models)


# the kinds whose model is fitted on training rows: tested on rows it saw,
# such a model's outputs can differ from unseen rows' under no shift
FITTED_ON_ROWS = (DrKind.PCA, DrKind.TAE, DrKind.BBSDS, DrKind.BBSDH)


def fit_and_reference_rows(kind: DrKind, n: int, seed: int) -> tuple:
    """(rows to fit on, rows to test) of an n-row source checked by kind.

    A kind of FITTED_ON_ROWS gets disjoint halves of a split seeded by seed,
    n // 2 rows to fit on; any other kind fits on and tests every row.
    """
    if kind not in FITTED_ON_ROWS:
        return np.arange(n), np.arange(n)
    fit, reference, _ = split_indices(n, n // 2, n - n // 2, 0, seed=_derive_seed(seed, 71))
    return fit, reference


# ---------------------------------------------------------------------------
# Domain-classifier path

@dataclass
class DomainCheck:
    clf: SoftmaxClassifier
    outcome: TestOutcome
    accuracy: float
    n_heldout: int
    heldout_target: np.ndarray
    heldout_target_indices: np.ndarray


def domain_halves(n_source: int, n_target: int) -> tuple[int, int]:
    """(rows per side trained on, rows per side held out) of a domain check.

    Both sides use n = min(n_source, n_target) rows, n // 2 to train and
    the rest held out, so the held-out sides are balanced and chance
    accuracy is 1/2; the larger side's extra rows go unused.
    """
    n = min(n_source, n_target)
    return n // 2, n - n // 2


def run_domain_classifier_test(source: np.ndarray, target: np.ndarray,
                               train_cfg: TrainConfig, alpha: float = 0.05,
                               seed: int = 0, hidden_dims=(32,),
                               rows: tuple | None = None) -> DomainCheck:
    """Half-split domain-classifier protocol with an exact binomial test.

    Both sides are shuffled by the seed, and each side's shuffled order
    gives domain_halves' training rows, then its held-out rows. The
    training rows train a source-vs-target classifier, and held-out
    accuracy is compared against chance with a two-sided binomial test
    over all held-out samples. Bin(n, 1/2) is the null of chance only when
    both held-out sides have the same size (a classifier that always
    answers the larger side would score its share), hence the balance.

    rows, when given, is a (source positions, target positions) pair, and
    the test runs on source[rows[0]] and target[rows[1]] without gathering
    them: the training halves are gathered straight into one stacked
    matrix, and the held-out rows only after that matrix is freed.
    heldout_target_indices are positions within the target rows tested.
    """
    source = np.atleast_2d(np.asarray(source, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if source.shape[1] != target.shape[1]:
        raise ShiftDetectError(f"sides disagree in dim: {source.shape[1]} vs {target.shape[1]}")
    src_rows, tgt_rows = rows or (None, None)
    src_rows, tgt_rows = _positions(source, src_rows), _positions(target, tgt_rows)
    half, held = domain_halves(src_rows.size, tgt_rows.size)
    if half < 2:
        # the exact text is the skip reason a grid cell records
        raise ShiftDetectError("fewer than 2 samples per half")
    rng = np.random.default_rng(seed)
    src_order = src_rows[rng.permutation(src_rows.size)[:half + held]]
    tgt_perm = rng.permutation(tgt_rows.size)[:half + held]
    tgt_order = tgt_rows[tgt_perm]

    # take with out= and mode="clip" writes in place; mode="raise" would
    # buffer a copy. _positions has checked every position.
    x = np.empty((2 * half, source.shape[1]))
    np.take(source, src_order[:half], axis=0, out=x[:half], mode="clip")
    np.take(target, tgt_order[:half], axis=0, out=x[half:], mode="clip")
    clf = nets.train_domain_classifier(x, half, train_cfg, hidden_dims=hidden_dims)
    del x

    correct = int(np.sum(nets.hard_predictions(clf, source[src_order[half:]]) == 0))
    held_tgt = target[tgt_order[half:]]
    correct += int(np.sum(nets.hard_predictions(clf, held_tgt) == 1))
    p = binomial_two_sided(correct, 2 * held)
    acc = correct / (2 * held)
    outcome = TestOutcome(statistic=acc, p_value=p, alpha=alpha,
                          reject=p < alpha, test_tag=TestTag.BINOMIAL)
    return DomainCheck(clf=clf, outcome=outcome, accuracy=acc, n_heldout=2 * held,
                       heldout_target=held_tgt, heldout_target_indices=tgt_perm[half:])


def _positions(x: np.ndarray, rows) -> np.ndarray:
    """rows as positions into x's rows, checked; every row of x when None."""
    if rows is None:
        return np.arange(x.shape[0])
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"rows must be a 1-D integer array, got {rows.dtype} {rows.shape}")
    if rows.size and not (0 <= rows.min() and rows.max() < x.shape[0]):
        raise IndexError(f"rows must lie in [0, {x.shape[0]})")
    return rows


def domain_check(cfg: ExperimentConfig, source: np.ndarray, target: np.ndarray, seed: int,
                 train_seed: int | None = None, rows: tuple | None = None) -> DomainCheck:
    """run_domain_classifier_test under cfg; train_seed (seed when None) seeds training."""
    return run_domain_classifier_test(
        source, target, cfg.domain_train_config(seed if train_seed is None else train_seed),
        alpha=cfg.alpha, seed=seed, hidden_dims=(cfg.domain_hidden_dim,), rows=rows)


def top_exemplars(check: DomainCheck, k: int) -> tuple:
    """(top_different, top_similar): the k held-out target rows of check that
    its classifier scores most and least target-like, as (index, score)
    pairs with scores descending and ascending. Both are empty unless
    check.outcome rejects. k must be at least 1.
    """
    if k < 1:
        raise ShiftDetectError(f"k must be >= 1, got {k}")
    if not check.outcome.reject:
        return [], []
    scores = nets.domain_scores(check.clf, check.heldout_target)
    return tuple([(int(i), float(scores[i])) for i in np.argsort(signed, kind="stable")[:k]]
                 for signed in (-scores, scores))


# ---------------------------------------------------------------------------
# The experiment grid

def check(cfg: ExperimentConfig, method: MethodSpec, source_rep: Representation,
          target_rep: Representation, seed: int, train_seed: int | None = None,
          rows: tuple | None = None) -> TestOutcome:
    """The method's test of two representations that reduce gave for its kind.

    rows, when given, is a (source positions, target positions) pair, and
    only those rows of each representation are tested. classif runs
    domain_check, which gathers its training and held-out rows from the
    representations by position; every other method gathers the rows and
    goes through dispatch_test with seed, and train_seed goes unread.
    """
    if method.kind == DrKind.CLASSIF:
        return domain_check(cfg, source_rep.values, target_rep.values, seed, train_seed,
                            rows).outcome
    if rows is not None:
        source_rep, target_rep = (Representation(rep.values[r], rep.arity)
                                  for rep, r in zip((source_rep, target_rep), rows))
    return dispatch_test(source_rep, target_rep, method.kind, method.mode, alpha=cfg.alpha,
                         seed=seed, n_perms=cfg.n_perms)


def run_experiment(dataset: TensorDataset, cfg: ExperimentConfig,
                   threads: int = 1) -> ExperimentResult:
    """Execute the full (shift x method x sample size x run) grid.

    The training split is fixed once; each run re-splits the remaining pool
    into validation (source) and test (target), applies every shift to the
    test side only, and draws nested subsamples of each requested size from
    one per-(run, shift) shuffled order of each side. The split is held as
    row indices into dataset: the training rows exist only while the
    reducers are fitted, and each run gathers its own validation and test
    rows. Every cell is _cell bound to its grid coordinates: it passes the
    first s positions of each side's order to check as rows, not a gathered
    copy of them. Cells run in a pool of `threads` (>= 1) threads, one
    (run, shift) block ahead: block k+1 is queued before block k's results
    are collected, so the pool does not wait at block boundaries while the
    next shift is applied. Records come back in grid order regardless of
    threads.
    """
    if threads < 1:
        raise ShiftDetectError(f"threads must be >= 1, got {threads}")
    started = time.time()
    train_idx, val_idx, test_idx = split_indices(dataset.n, cfg.n_train, cfg.n_val,
                                                 cfg.n_test, seed=cfg.seed)
    fitted = fit_reducers(dataset.subset(train_idx), cfg)

    keyed_records = []
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        in_flight = []
        for block in _grid_blocks(cfg, fitted, dataset, np.concatenate([val_idx, test_idx])):
            queued = [(key, pool.submit(cell)) for key, cell in block]
            keyed_records.extend((key, future.result()) for key, future in in_flight)
            in_flight = queued
        keyed_records.extend((key, future.result()) for key, future in in_flight)
    finally:
        # after a failure, queued cells are dropped and only running ones finish
        pool.shutdown(cancel_futures=True)

    keyed_records.sort(key=lambda kv: kv[0])
    return ExperimentResult(records=[r for _, r in keyed_records],
                            elapsed_seconds=time.time() - started)


def _grid_blocks(cfg: ExperimentConfig, fitted: FittedReducers, dataset: TensorDataset,
                 vt_idx: np.ndarray):
    """Yield the [(key, cell), ...] of each (run, shift) block in grid order.

    vt_idx holds the dataset rows of the validation/test pool. Each kind
    reduces a run's source rows once, and each block's target once; a
    block's shift is applied and its target reduced only when the block is
    asked for, and it holds nothing else but what its cells read. A cell is
    _cell bound to its representations, orders, labels and seeds. The seeds
    derive from the cell's grid coordinates: classif's test and training
    seeds carry no method index, every other method's test seed does.
    """
    kinds = dict.fromkeys(m.kind for m in cfg.methods)
    for run in range(cfg.runs):
        val_pos, test_pos, _ = split_indices(vt_idx.size, cfg.n_val, cfg.n_test, 0,
                                             seed=np.random.SeedSequence([cfg.seed, 21, run]))
        source_flat = flatten(dataset)[vt_idx[val_pos]]
        test_r = dataset.subset(vt_idx[test_pos])
        source_reps = {k: reduce(k, fitted.handle_for(k), source_flat) for k in kinds}

        for shift_idx, named in enumerate(cfg.shifts):
            spec = shifts.with_seed(named.spec, _derive_seed(cfg.seed, 31, run, shift_idx))
            target_flat = flatten(shifts.apply_shift(
                spec, test_r, classifier=fitted.models.get("label_clf")))
            src_order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 41, run, shift_idx])
            ).permutation(source_flat.shape[0])
            tgt_order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 42, run, shift_idx])
            ).permutation(target_flat.shape[0])
            target_reps = {k: reduce(k, fitted.handle_for(k), target_flat) for k in kinds}

            block = []
            for midx, method in enumerate(cfg.methods):
                source = (source_reps[method.kind], src_order)
                target = (target_reps[method.kind], tgt_order)
                for s in cfg.sample_sizes:
                    if method.kind == DrKind.CLASSIF:
                        seeds = (_derive_seed(cfg.seed, 52, run, shift_idx, s),
                                 _derive_seed(cfg.seed, 51, run, shift_idx, s))
                    else:
                        seeds = (_derive_seed(cfg.seed, 61, run, shift_idx, midx, s),)
                    labels = dict(shift=named.name, intensity=named.intensity,
                                  delta=named.spec.delta, method=method.kind.value,
                                  mode=method.mode.value, sample_size=s, run=run)
                    block.append(((shift_idx, midx, s, run),
                                  partial(_cell, cfg, method, source, target, seeds, labels)))
            del target_flat, target_reps  # the cells hold what they read
            yield block


def _cell(cfg: ExperimentConfig, method: MethodSpec, source: tuple, target: tuple,
          seeds: tuple, labels: dict) -> Record:
    """One grid cell: check on the first s = labels["sample_size"] positions of
    each (representation, order) side, with seeds as its seed arguments.

    The cell is skipped when a side has fewer than s rows, and when check
    raises a ShiftDetectError (too few rows per half for the domain
    classifier, the multivariate sample cap, ...), with the error's text as
    the reason.
    """
    (source_rep, src_order), (target_rep, tgt_order) = source, target
    s = labels["sample_size"]
    if s > src_order.size or s > tgt_order.size:
        return Record(**labels, status="skipped", reason=f"insufficient samples "
                      f"(source {src_order.size}, target {tgt_order.size})")
    try:
        outcome = check(cfg, method, source_rep, target_rep, *seeds,
                        rows=(src_order[:s], tgt_order[:s]))
    except ShiftDetectError as exc:
        return Record(**labels, status="skipped", reason=str(exc))
    return Record(**labels, status="ok", outcome=outcome)


# ---------------------------------------------------------------------------
# Aggregation

def _ok_groups(records, fields: tuple) -> list:
    """The ok records grouped by the values of the named Record fields, as
    (key, records) pairs sorted by key: numbers sort numerically, everything
    else as text."""
    groups: dict = {}
    for rec in records:
        if rec.status == "ok":
            groups.setdefault(tuple(getattr(rec, f) for f in fields), []).append(rec)

    def mixed_key(item):
        return tuple((0, v, "") if isinstance(v, (int, float)) else (1, 0, str(v))
                     for v in item[0])
    return sorted(groups.items(), key=mixed_key)


def detection_accuracy(result: ExperimentResult, group_by: tuple) -> list:
    """Rejection rate within each group of non-skipped records.

    group_by names Record fields, e.g. ("method", "sample_size"). Returns
    sorted rows of {field: value, ..., "accuracy": rate, "n": count}.
    """
    groups = _ok_groups(result.records, group_by)
    if not groups:
        raise ShiftDetectError("no usable records")
    return [{**dict(zip(group_by, key)),
             "accuracy": sum(int(r.outcome.reject) for r in recs) / len(recs),
             "n": len(recs)}
            for key, recs in groups]


_CURVE_KEY = ("shift", "method", "mode", "sample_size")


def _pvalue_curves(records) -> list:
    """Mean and min/max p-value per (shift, method, mode, sample_size) of the
    ok records, one row per group in sorted order."""
    rows = []
    for key, recs in _ok_groups(records, _CURVE_KEY):
        ps = [r.outcome.p_value for r in recs]
        rows.append({**dict(zip(_CURVE_KEY, key)), "mean_p": float(np.mean(ps)),
                     "min_p": float(np.min(ps)), "max_p": float(np.max(ps)), "n": len(ps)})
    return rows


# ---------------------------------------------------------------------------
# CSV persistence

RECORD_COLUMNS = ("shift", "intensity", "delta", "method", "mode", "sample_size",
                  "run", "status", "test_tag", "statistic", "p_value", "reject",
                  "reason")


def _write_csv(path, header, rows: list) -> None:
    """Write header and rows; every results table goes through here. rows is
    a list built before the file is opened, so a row builder that raises
    leaves no file behind."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _record_row(r: Record) -> list:
    if r.outcome is None:
        tag, stat, p, reject = "", "", "", ""
    else:
        tag = r.outcome.test_tag.value
        stat = repr(r.outcome.statistic)
        p = repr(r.outcome.p_value)
        reject = "true" if r.outcome.reject else "false"
    return [r.shift, r.intensity, repr(float(r.delta)), r.method, r.mode, r.sample_size,
            r.run, r.status, tag, stat, p, reject, r.reason]


def write_records_csv(result: ExperimentResult, path) -> None:
    """One row per grid cell; floats keep full round-trip precision."""
    _write_csv(path, RECORD_COLUMNS, [_record_row(r) for r in result.records])


_STATUS, _REJECT, _P_VALUE = (Rule("string", choices=("ok", "skipped")),
                              Rule("string", choices=("true", "false")),
                              Rule("finite number", 0, 1))


def read_records_csv(path) -> ExperimentResult:
    """The records write_records_csv wrote to path. A header other than
    RECORD_COLUMNS, a row of another length or status, or a field that does
    not parse (on ok rows, reject true/false and p_value a number in
    [0, 1]) raises ValueError naming the line. records.csv keeps no
    alpha; each outcome gets 0.05, which no table reads."""
    records = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != list(RECORD_COLUMNS):
                raise ValueError(f"the header must be {','.join(RECORD_COLUMNS)}, got {header}")
            for values in reader:
                records.append(_record_from_row(values))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path} line {max(reader.line_num, 1)}: {exc}") from exc
    return ExperimentResult(records=records)


def _record_from_row(values: list) -> Record:
    if len(values) != len(RECORD_COLUMNS):
        raise ValueError(f"{len(values)} fields, expected {len(RECORD_COLUMNS)}")
    row = dict(zip(RECORD_COLUMNS, values))
    _STATUS.check(row["status"], "status")
    outcome = None
    if row["status"] == "ok":
        _REJECT.check(row["reject"], "reject")
        p_value = float(row["p_value"])
        _P_VALUE.check(p_value, "p_value")
        outcome = TestOutcome(statistic=float(row["statistic"]), p_value=p_value, alpha=0.05,
                              reject=row["reject"] == "true",
                              test_tag=TestTag(row["test_tag"]))
    return Record(shift=row["shift"], intensity=row["intensity"], delta=float(row["delta"]),
                  method=row["method"], mode=row["mode"],
                  sample_size=int(row["sample_size"]), run=int(row["run"]),
                  status=row["status"], outcome=outcome, reason=row["reason"])


def write_accuracy_csv(result: ExperimentResult, group_by: tuple, path) -> None:
    rows = [[*(row[g] for g in group_by), repr(row["accuracy"]), row["n"]]
            for row in detection_accuracy(result, group_by)]
    _write_csv(path, [*group_by, "accuracy", "n"], rows)


def write_pvalue_curves_csv(result: ExperimentResult, path) -> None:
    stats = ("mean_p", "min_p", "max_p")
    rows = [[*(row[k] for k in _CURVE_KEY), *(repr(row[k]) for k in stats), row["n"]]
            for row in _pvalue_curves(result.records)]
    _write_csv(path, [*_CURVE_KEY, *stats, "n"], rows)
