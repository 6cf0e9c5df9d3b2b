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
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import nets, shifts
from .data import DataSplit, TensorDataset, flatten, split_indices
from .dimred import METHOD_TABLE, DrKind, Representation, build_srp, fit_pca, reduce
from .errors import ConfigInvalid, EmptyResult, NotFound, ShiftDetectError
from .nets import SoftmaxClassifier, TrainConfig
from .stattest import (
    TestMode,
    TestOutcome,
    TestTag,
    binomial_two_sided,
    bonferroni_aggregate,
    dispatch_test,
    ks_pvalues_by_column,
)


@dataclass(frozen=True)
class MethodSpec:
    kind: DrKind
    mode: TestMode = TestMode.UNIVARIATE

    def __post_init__(self):
        object.__setattr__(self, "kind", DrKind(self.kind))
        object.__setattr__(self, "mode", TestMode(self.mode))
        if self.mode == TestMode.MULTIVARIATE and not METHOD_TABLE[self.kind].multivariate:
            raise ConfigInvalid(f"method entry [{self.kind.value!r}, 'multivariate']: "
                                f"{self.kind.value} has no multivariate test")


@dataclass(frozen=True)
class NamedShift:
    name: str
    spec: shifts.ShiftSpec
    intensity: str = "custom"


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple
    shifts: tuple
    n_train: int
    n_val: int
    n_test: int
    sample_sizes: tuple = (10, 20, 50, 100, 200, 500, 1000, 10000)
    runs: int = 5
    alpha: float = 0.05
    seed: int = 0
    latent_dim: int = 32
    hidden_dim: int = 256
    domain_hidden_dim: int = 32
    ae_epochs: int = 15
    clf_epochs: int = 15
    domain_epochs: int = 10
    batch_size: int = 128
    domain_batch_size: int = 32  # domain pools are tiny; keep enough updates per epoch
    lr0: float = 0.1
    ae_lr0: float = 2.0  # per-element MSE gradients are ~1/D the CE scale
    momentum: float = 0.9
    patience: int = 5
    n_perms: int = 1000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigInvalid(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.methods:
            raise ConfigInvalid("at least one method is required")
        if not self.shifts:
            raise ConfigInvalid("at least one shift is required")
        sizes = self.sample_sizes
        if (not isinstance(sizes, (list, tuple)) or not sizes
                or not all(_is_int(s) and s >= 1 for s in sizes)):
            raise ConfigInvalid(f"sample_sizes must be a non-empty list of integers >= 1, "
                                f"got {sizes!r}")
        object.__setattr__(self, "sample_sizes", tuple(sizes))
        for key, low in (("n_train", 1), ("n_val", 0), ("n_test", 0),
                         ("ae_epochs", 0), ("clf_epochs", 0), ("domain_epochs", 0),
                         ("batch_size", 1), ("domain_batch_size", 1), ("patience", 1),
                         ("latent_dim", 1), ("hidden_dim", 1), ("domain_hidden_dim", 1),
                         ("runs", 1), ("n_perms", 1), ("seed", 0)):
            value = getattr(self, key)
            if not _is_int(value) or value < low:
                raise ConfigInvalid(f"{key} must be an integer >= {low}, got {value!r}")
        for key in ("lr0", "ae_lr0"):
            if not getattr(self, key) > 0:
                raise ConfigInvalid(f"{key} must be > 0, got {getattr(self, key)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigInvalid(f"momentum must be in [0, 1), got {self.momentum}")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        raw.pop("dataset", None)
        try:
            methods = tuple(_method_from_entry(m) for m in raw.pop("methods"))
            named = tuple(_shift_from_entry(s) for s in raw.pop("shifts"))
        except KeyError as exc:
            raise ConfigInvalid(f"missing config key: {exc}") from exc
        try:
            return ExperimentConfig(methods=methods, shifts=named, **raw)
        except TypeError as exc:
            raise ConfigInvalid(str(exc)) from exc

    def train_config(self, epochs: int, seed: int, lr0: float | None = None) -> TrainConfig:
        return TrainConfig(batch_size=self.batch_size, lr0=self.lr0 if lr0 is None else lr0,
                           momentum=self.momentum, max_epochs=epochs,
                           patience=self.patience, seed=seed)

    def domain_train_config(self, seed: int) -> TrainConfig:
        """Training settings of the source-vs-target domain classifier."""
        return TrainConfig(batch_size=self.domain_batch_size, lr0=self.lr0,
                           momentum=self.momentum, max_epochs=self.domain_epochs,
                           patience=self.patience, seed=seed)


def _is_int(value) -> bool:
    # a JSON true is a numbers.Integral, but no count or seed
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _method_from_entry(entry) -> MethodSpec:
    if isinstance(entry, str):
        return MethodSpec(kind=DrKind(entry))
    if isinstance(entry, (list, tuple)):
        kind, mode = entry
        return MethodSpec(kind=DrKind(kind), mode=TestMode(mode))
    return MethodSpec(kind=DrKind(entry["kind"]),
                      mode=TestMode(entry.get("mode", "univariate")))


def parse_shift_spec(entry: dict) -> shifts.ShiftSpec:
    """ShiftSpec of a preset entry ({"preset": name, ...}) or a custom spec.

    The labels "name" and "intensity" are skipped. A custom spec carries
    only the keys ShiftSpec.to_dict writes for its kind; a preset entry
    carries epsilon only for adv_shift, and delta for no_shift only as 0.
    An unknown or unread key or a bad value raises ConfigInvalid.
    """
    if not isinstance(entry, dict):
        raise ConfigInvalid(f"a shift entry must be a JSON object, got {entry!r}")
    fields = {k: v for k, v in entry.items() if k not in ("name", "intensity")}
    preset_name = fields.pop("preset", None)
    try:
        if preset_name is None:
            return shifts.ShiftSpec.from_dict(fields)
        spec = shifts.preset(preset_name, **fields)
        if "epsilon" in fields and preset_name != "adv_shift":
            raise ValueError(f"{preset_name} does not read epsilon")
        if preset_name == "no_shift" and fields.get("delta", 0.0) != 0.0:
            raise ValueError(f"no_shift takes delta 0 only, got {fields['delta']!r}")
        return spec
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad shift entry {entry!r}: {exc}") from exc


def _shift_from_entry(entry) -> NamedShift:
    if isinstance(entry, NamedShift):
        return entry
    spec = parse_shift_spec(entry)
    label, preset_name, intensity = (entry.get(k) for k in ("name", "preset", "intensity"))
    if preset_name is not None:
        return NamedShift(name=label or f"{preset_name}@d{spec.delta:g}", spec=spec,
                          intensity=intensity or shifts.intensity_of(preset_name))
    if label is None:
        raise ConfigInvalid("custom shift entries need a 'name'")
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
    metadata: dict = field(default_factory=dict)


@dataclass
class FittedReducers:
    """Fitted models by the name METHOD_TABLE gives them ("pca", "label_clf", ...)."""

    models: dict = field(default_factory=dict)

    def handle_for(self, kind: DrKind):
        return self.models.get(METHOD_TABLE[DrKind(kind)].model)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _spec_needs_classifier(spec: shifts.ShiftSpec) -> bool:
    if spec.kind == shifts.KIND_ADVERSARIAL:
        return True
    return any(_spec_needs_classifier(p) for p in spec.parts)


def concat_datasets(a: TensorDataset, b: TensorDataset) -> TensorDataset:
    if a.image_shape != b.image_shape or a.num_classes != b.num_classes:
        raise ConfigInvalid("datasets disagree in shape or class count")
    return TensorDataset(np.concatenate([a.images, b.images]),
                         np.concatenate([a.labels, b.labels]), a.num_classes)


def fit_reducers(train: TensorDataset, cfg: ExperimentConfig) -> FittedReducers:
    """Fit the models METHOD_TABLE names for cfg.methods, on training data only.

    The label classifier is also fitted when a shift is adversarial. It and
    the trained autoencoder carve an internal 90/10 early-stopping split out
    of the training part; validation and test data are never seen here.
    """
    needed = {METHOD_TABLE[m.kind].model for m in cfg.methods}
    if any(_spec_needs_classifier(s.spec) for s in cfg.shifts):
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

    inner_n = max(1, int(0.9 * train.n))
    perm = np.random.default_rng(_derive_seed(cfg.seed, 13)).permutation(train.n)
    x_fit, x_stop = x[perm[:inner_n]], x[perm[inner_n:]]
    y = train.labels
    y_fit, y_stop = y[perm[:inner_n]], y[perm[inner_n:]]
    if x_stop.shape[0] == 0:
        x_stop, y_stop = x_fit, y_fit

    if "tae" in needed:
        models["tae"] = nets.train_autoencoder(
            x_fit, x_stop, arch,
            cfg.train_config(cfg.ae_epochs, _derive_seed(cfg.seed, 14), lr0=cfg.ae_lr0))
    if "label_clf" in needed:
        if train.num_classes < 2:
            raise ConfigInvalid("the label classifier needs training data with >= 2 classes")
        models["label_clf"] = nets.train_label_classifier(
            (x_fit, y_fit), (x_stop, y_stop), train.num_classes,
            cfg.train_config(cfg.clf_epochs, _derive_seed(cfg.seed, 15)),
            hidden_dims=(cfg.hidden_dim,))
    return FittedReducers(models)


# ---------------------------------------------------------------------------
# Domain-classifier path

@dataclass
class DomainCheck:
    clf: SoftmaxClassifier
    outcome: TestOutcome
    accuracy: float
    n_heldout: int
    heldout_source: np.ndarray
    heldout_target: np.ndarray
    heldout_target_indices: np.ndarray


def run_domain_classifier_test(source: np.ndarray, target: np.ndarray,
                               train_cfg: TrainConfig, alpha: float = 0.05,
                               seed: int = 0, hidden_dims=(32,)) -> DomainCheck:
    """Half-split domain-classifier protocol with an exact binomial test.

    Both sides are shuffled by the seed and split 50/50; the first halves
    train a source-vs-target classifier, the second halves are scored, and
    held-out accuracy is compared against chance with a two-sided binomial
    test over all held-out samples.
    """
    source = np.atleast_2d(np.asarray(source, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    half_src, half_tgt = source.shape[0] // 2, target.shape[0] // 2
    if half_src < 2 or half_tgt < 2:
        # the exact text is the skip reason a grid cell records
        raise ConfigInvalid("fewer than 2 samples per half")
    rng = np.random.default_rng(seed)
    src_order = rng.permutation(source.shape[0])
    tgt_order = rng.permutation(target.shape[0])

    clf = nets.train_domain_classifier(
        source[src_order[:half_src]], target[tgt_order[:half_tgt]],
        train_cfg, hidden_dims=hidden_dims)

    held_src = source[src_order[half_src:]]
    held_tgt_idx = tgt_order[half_tgt:]
    held_tgt = target[held_tgt_idx]
    preds_src = nets.hard_predictions(clf, held_src)
    preds_tgt = nets.hard_predictions(clf, held_tgt)
    correct = int(np.sum(preds_src == 0) + np.sum(preds_tgt == 1))
    n_heldout = held_src.shape[0] + held_tgt.shape[0]
    p = binomial_two_sided(correct, n_heldout)
    acc = correct / n_heldout
    outcome = TestOutcome(statistic=acc, p_value=p, alpha=alpha,
                          reject=p < alpha, test_tag=TestTag.BINOMIAL)
    return DomainCheck(clf=clf, outcome=outcome, accuracy=acc, n_heldout=n_heldout,
                       heldout_source=held_src, heldout_target=held_tgt,
                       heldout_target_indices=held_tgt_idx)


@dataclass
class ExemplarReport:
    gate_passed: bool
    binomial_p: float
    top_different: list  # (index, score), scores descending
    top_similar: list    # (index, score), scores ascending


def top_exemplars(domain_clf: SoftmaxClassifier, target_heldout: np.ndarray,
                  k: int, binomial_p: float, alpha: float = 0.05) -> ExemplarReport:
    """Most/least target-typical held-out samples by domain-classifier score.

    Only reported when the binomial test rejects; otherwise the report is
    empty with the gate recorded. k must be at least 1.
    """
    if k < 1:
        raise ConfigInvalid(f"k must be >= 1, got {k}")
    if binomial_p >= alpha:
        return ExemplarReport(gate_passed=False, binomial_p=binomial_p,
                              top_different=[], top_similar=[])
    scores = nets.domain_scores(domain_clf, target_heldout)
    desc = np.argsort(-scores, kind="stable")[:k]
    asc = np.argsort(scores, kind="stable")[:k]
    return ExemplarReport(
        gate_passed=True,
        binomial_p=binomial_p,
        top_different=[(int(i), float(scores[i])) for i in desc],
        top_similar=[(int(i), float(scores[i])) for i in asc],
    )


# ---------------------------------------------------------------------------
# The experiment grid

def run_experiment(dataset: TensorDataset, cfg: ExperimentConfig,
                   threads: int = 1) -> ExperimentResult:
    """Execute the full (shift x method x sample size x run) grid.

    The training split is fixed once; each run re-splits the remaining pool
    into validation (source) and test (target), applies every shift to the
    test side only, and draws nested subsamples of each requested size from
    one per-(run, shift) shuffled order. The split is held as row indices
    into dataset: the training rows exist only while the reducers are
    fitted, and each run gathers its own validation and test rows. Cells
    run in a pool of max(1, threads) threads, one (run, shift) block ahead:
    block k+1 is queued before block k's results are collected, so the pool
    does not wait at block boundaries while the next shift is applied.
    Records come back in grid order regardless of threads.
    """
    started = time.time()
    train_idx, val_idx, test_idx = split_indices(dataset.n, cfg.n_train, cfg.n_val,
                                                 cfg.n_test, seed=cfg.seed)
    fitted = fit_reducers(dataset.subset(train_idx), cfg)

    keyed_records = []
    pool = ThreadPoolExecutor(max_workers=max(1, threads))
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
    metadata = {
        "n_records": len(keyed_records),
        "elapsed_seconds": time.time() - started,
        "seed": cfg.seed,
        "alpha": cfg.alpha,
    }
    return ExperimentResult(records=[r for _, r in keyed_records], metadata=metadata)


def _grid_blocks(cfg: ExperimentConfig, fitted: FittedReducers, dataset: TensorDataset,
                 vt_idx: np.ndarray):
    """Yield the [(key, cell), ...] of each (run, shift) block in grid order.

    vt_idx holds the dataset rows of the validation/test pool. Each kind
    reduces a run's source rows once, and each block's target once; a
    block's shift is applied and its target reduced only when the block is
    asked for, and it holds nothing else but what its cells read.
    """
    kinds = dict.fromkeys(m.kind for m in cfg.methods if m.kind != DrKind.CLASSIF)
    for run in range(cfg.runs):
        perm = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 21, run])).permutation(vt_idx.size)
        source_flat = flatten(dataset)[vt_idx[perm[:cfg.n_val]]]
        test_r = dataset.subset(vt_idx[perm[cfg.n_val:cfg.n_val + cfg.n_test]])
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
            reps = {k: (_rows(rep, src_order),
                        _rows(reduce(k, fitted.handle_for(k), target_flat), tgt_order))
                    for k, rep in source_reps.items()}
            n_src, n_tgt = source_flat.shape[0], target_flat.shape[0]

            block = []
            for midx, method in enumerate(cfg.methods):
                if method.kind == DrKind.CLASSIF:
                    test = _domain_test(cfg, source_flat, src_order, target_flat, tgt_order,
                                        run, shift_idx)
                else:
                    test = _rep_test(cfg, method, *reps[method.kind], run, shift_idx, midx)
                for s in cfg.sample_sizes:
                    key = (shift_idx, midx, s, run)
                    base = dict(shift=named.name, intensity=named.intensity,
                                delta=named.spec.delta, method=method.kind.value,
                                mode=method.mode.value, sample_size=s, run=run)
                    block.append((key, _make_cell(base, s, n_src, n_tgt, test)))
            del target_flat, reps, test  # the cells hold what they read
            yield block


def _rows(rep: Representation, order: np.ndarray) -> Representation:
    return Representation(rep.values[order], rep.arity)


def _domain_test(cfg, source_flat, src_order, target_flat, tgt_order, run, shift_idx):
    """The domain classifier on the first s rows of each side's order, as a
    function of s. It trains on the flat rows; its seeds derive from the
    cell's grid coordinates.
    """
    def test(s):
        return run_domain_classifier_test(
            source_flat[src_order[:s]], target_flat[tgt_order[:s]],
            cfg.domain_train_config(_derive_seed(cfg.seed, 51, run, shift_idx, s)),
            alpha=cfg.alpha, seed=_derive_seed(cfg.seed, 52, run, shift_idx, s),
            hidden_dims=(cfg.domain_hidden_dim,)).outcome
    return test


def _rep_test(cfg, method, rep_src, rep_tgt, run, shift_idx, midx):
    """The method's test on the first s rows of each shuffled representation,
    as a function of s; its seed derives from the cell's grid coordinates.
    """
    def test(s):
        return dispatch_test(
            Representation(rep_src.values[:s], rep_src.arity),
            Representation(rep_tgt.values[:s], rep_tgt.arity),
            method.kind, method.mode, alpha=cfg.alpha,
            seed=_derive_seed(cfg.seed, 61, run, shift_idx, midx, s), n_perms=cfg.n_perms)
    return test


def _make_cell(base, s, n_src, n_tgt, test):
    """One grid cell: test(s) unless a side has fewer than s rows.

    A ShiftDetectError from the test (too few rows per half for the domain
    classifier, the multivariate sample cap, ...) makes the cell skipped,
    with the error's text as the reason.
    """
    def cell() -> Record:
        if s > n_src or s > n_tgt:
            return Record(**base, status="skipped",
                          reason=f"insufficient samples (source {n_src}, target {n_tgt})")
        try:
            outcome = test(s)
        except ShiftDetectError as exc:
            return Record(**base, status="skipped", reason=str(exc))
        return Record(**base, status="ok", outcome=outcome)

    return cell


# ---------------------------------------------------------------------------
# Aggregation

def _ok_records(result: ExperimentResult) -> list:
    return [r for r in result.records if r.status == "ok"]


def detection_accuracy(result: ExperimentResult, group_by: tuple) -> list:
    """Rejection rate within each group of non-skipped records.

    group_by names Record fields, e.g. ("method", "sample_size"). Returns
    sorted rows of {field: value, ..., "accuracy": rate, "n": count}.
    """
    usable = _ok_records(result)
    if not usable:
        raise EmptyResult("no usable records")
    groups: dict = {}
    for rec in usable:
        key = tuple(getattr(rec, f) for f in group_by)
        hits, total = groups.get(key, (0, 0))
        groups[key] = (hits + int(rec.outcome.reject), total + 1)
    def mixed_key(key):
        # numbers sort numerically, everything else as text
        return tuple((0, v, "") if isinstance(v, (int, float)) else (1, 0, str(v))
                     for v in key)

    rows = []
    for key in sorted(groups, key=mixed_key):
        hits, total = groups[key]
        row = dict(zip(group_by, key))
        row["accuracy"] = hits / total
        row["n"] = total
        rows.append(row)
    return rows


def pvalue_evolution(result: ExperimentResult, shift: str, method: str) -> list:
    """Mean and min/max p-value per sample size for one (shift, method) pair."""
    recs = [r for r in _ok_records(result) if r.shift == shift and r.method == method]
    if not recs:
        raise NotFound(f"no records for shift={shift!r}, method={method!r}")
    by_size: dict = {}
    for rec in recs:
        by_size.setdefault(rec.sample_size, []).append(rec.outcome.p_value)
    return [
        {"sample_size": s, "mean_p": float(np.mean(ps)), "min_p": float(np.min(ps)),
         "max_p": float(np.max(ps)), "n": len(ps)}
        for s, ps in sorted(by_size.items())
    ]


def original_split_check(given: DataSplit, random_seed: int, alpha: float = 0.05,
                         restrict_class: int | None = None) -> tuple:
    """Raw-pixel KS-Bonferroni on a canonical split vs a random re-split.

    Compares the train and test parts of the given split as distributions
    (optionally restricted to one class), then pools those parts, re-splits
    them at the same sizes with the given seed, and tests again. Returns
    (canonical outcome, re-split outcome): an iid split should fail to
    reject in both; a non-iid canonical split rejects only in the first.
    """
    part_a, part_b = given.train, given.test
    if restrict_class is not None:
        part_a = part_a.subset(part_a.class_indices(restrict_class))
        part_b = part_b.subset(part_b.class_indices(restrict_class))
    canonical = bonferroni_aggregate(
        ks_pvalues_by_column(flatten(part_a), flatten(part_b)), alpha)

    pooled = concat_datasets(part_a, part_b)
    perm = np.random.default_rng(random_seed).permutation(pooled.n)
    re_a = pooled.subset(perm[:part_a.n])
    re_b = pooled.subset(perm[part_a.n:])
    resplit = bonferroni_aggregate(
        ks_pvalues_by_column(flatten(re_a), flatten(re_b)), alpha)
    return canonical, resplit


# ---------------------------------------------------------------------------
# CSV persistence

RECORD_COLUMNS = ("shift", "intensity", "delta", "method", "mode", "sample_size",
                  "run", "status", "test_tag", "statistic", "p_value", "reject",
                  "reason")


def write_records_csv(result: ExperimentResult, path) -> None:
    """One row per grid cell; floats keep full round-trip precision."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for r in result.records:
            if r.outcome is None:
                tag, stat, p, reject = "", "", "", ""
            else:
                tag = r.outcome.test_tag.value
                stat = repr(r.outcome.statistic)
                p = repr(r.outcome.p_value)
                reject = "true" if r.outcome.reject else "false"
            writer.writerow([r.shift, r.intensity, repr(float(r.delta)), r.method,
                             r.mode, r.sample_size, r.run, r.status, tag, stat, p,
                             reject, r.reason])


def read_records_csv(path, alpha: float = 0.05) -> ExperimentResult:
    records = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            outcome = None
            if row["status"] == "ok":
                outcome = TestOutcome(statistic=float(row["statistic"]),
                                      p_value=float(row["p_value"]), alpha=alpha,
                                      reject=row["reject"] == "true",
                                      test_tag=TestTag(row["test_tag"]))
            records.append(Record(
                shift=row["shift"], intensity=row["intensity"],
                delta=float(row["delta"]), method=row["method"], mode=row["mode"],
                sample_size=int(row["sample_size"]), run=int(row["run"]),
                status=row["status"], outcome=outcome, reason=row["reason"]))
    return ExperimentResult(records=records)


def write_accuracy_csv(result: ExperimentResult, group_by: tuple, path) -> None:
    rows = detection_accuracy(result, group_by)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow([*group_by, "accuracy", "n"])
        for row in rows:
            writer.writerow([*(row[g] for g in group_by), repr(row["accuracy"]), row["n"]])


def write_pvalue_curves_csv(result: ExperimentResult, path) -> None:
    pairs = sorted({(r.shift, r.method) for r in _ok_records(result)})
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["shift", "method", "sample_size", "mean_p", "min_p",
                         "max_p", "n"])
        for shift_name, method in pairs:
            for row in pvalue_evolution(result, shift_name, method):
                writer.writerow([shift_name, method, row["sample_size"],
                                 repr(row["mean_p"]), repr(row["min_p"]),
                                 repr(row["max_p"]), row["n"]])
