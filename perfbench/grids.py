"""grid-stats and grid-trained: the ``shiftdetect bench`` command in-process.

One run of a grid workload:

1. a verification pass: one bench command with ``--threads 1`` whose
   cell-level calls are wrapped to check every result against the scipy
   oracles. Its ``records.csv`` is the reference for the rest of the run,
   which also checks that results do not depend on the thread count;
2. the timed window: bench commands with ``--threads 2`` one after another,
   each started while at least half of it is expected to fall within
   ``--seconds``, so the window averages ``--seconds``.
   Untraced commands carry a single hook where ``harness.fit_reducers``
   returns: it takes the timestamp that ends ``setup_s`` and undoes the
   CPU pinning described below. With tracing on, untraced and traced
   commands (which carry the same hook) alternate; every ``records.csv``
   must equal the reference byte for byte. The window ends at the first
   command that fails.

On a shared machine one CPU can run ~1.5x slower than another for minutes.
The set-up (corpus, split, reducer fitting) is serial, so each command runs
it pinned to one CPU, taking the CPUs in turn, and the hook lets the cell
pool use every CPU again. setup_s and wall_s are medians over the commands
whose set-up ran on the CPU with the lower median set-up time. The test
phase below runs its threads on every CPU, so its median is over all
untraced commands.

A check, as on monitor-stream, is one target sample of size s run through
every method: the cells of one (run, shift, s). The timed commands have no
per-cell hook, so the test phase, wall - setup, is the one measured time
behind cells_per_s, checks_per_s and the check metrics: check_p50_ms and
check_p90_ms both read threads x (wall - setup) / checks, the mean time
of a check. They are not a latency distribution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from shiftdetect import cli, harness

import oracles
import spans

THREADS = 2

_SHIFT = {"no_shift": ("no_shift", 0.0), "medium_gn@0.5": ("medium_gn_shift", 0.5),
          "medium_img@0.5": ("medium_img_shift", 0.5), "adv_shift@0.5": ("adv_shift", 0.5),
          "ko_shift@0.5": ("ko_shift", 0.5)}

GRIDS = {
    "grid-stats": {
        "methods": ["nored", "pca", "srp", ["pca", "multivariate"],
                    ["srp", "multivariate"], ["uae", "multivariate"]],
        "shifts": ["no_shift", "medium_gn@0.5", "medium_img@0.5"],
        "n_train": 2000, "n_val": 1000, "n_test": 1000,
    },
    # n_test 1200 keeps 1000 target rows after the knockout removes class-0 rows
    "grid-trained": {
        "methods": ["tae", "bbsds", "bbsdh", "classif"],
        "shifts": ["no_shift", "adv_shift@0.5", "ko_shift@0.5"],
        "n_train": 2000, "n_val": 1000, "n_test": 1200,
    },
}

# patience >= epochs: every seed trains for the same number of epochs, so the
# work in a run does not depend on where early stopping would have ended it
FULL = {"sample_sizes": [10, 100, 1000], "runs": 2, "n_perms": 1000, "patience": 15}
# --short: a few seconds per command, for the benchmark's self-test
SHORT = {"n_train": 300, "n_val": 150, "n_test": 180, "sample_sizes": [10, 50], "runs": 1,
         "n_perms": 100, "hidden_dim": 32, "latent_dim": 8, "ae_epochs": 2,
         "clf_epochs": 6, "domain_epochs": 2}


def config(workload: str, seed: int, short: bool) -> dict:
    doc = {**GRIDS[workload], **FULL, "seed": seed}
    if short:
        doc.update(SHORT)
    doc["shifts"] = [{"name": name, "preset": _SHIFT[name][0], "delta": _SHIFT[name][1]}
                     for name in doc["shifts"]]
    doc["dataset"] = {"kind": "synthetic", "seed": seed,
                      "n_pool": doc["n_train"] + doc["n_val"] + doc["n_test"]}
    return doc


class _Bench:
    """One ``shiftdetect bench`` command run through ``cli.main``."""

    def __init__(self, config_path: Path, out_dir: Path, threads: int):
        self.argv = ["bench", "--config", str(config_path), "--out", str(out_dir),
                     "--threads", str(threads)]
        self.out_dir = out_dir

    def __call__(self, tracer=None, cpu=None) -> dict:
        """Run the command; with ``cpu`` set, its serial set-up runs on that CPU."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        setup_end = []
        allowed = os.sched_getaffinity(0)
        sink = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
            if tracer is not None:
                stack.enter_context(tracer)
                stack.enter_context(tracer.span("cli.main"))
            fit_reducers = harness.fit_reducers  # the tracer's wrapper when traced

            def boundary(*args, **kwargs):
                fitted = fit_reducers(*args, **kwargs)
                setup_end.append(time.perf_counter())
                # the cell pool's threads, started after this, may use every CPU
                os.sched_setaffinity(0, allowed)
                return fitted

            stack.callback(spans.restore, spans.patch_everywhere(fit_reducers, boundary))
            stack.callback(os.sched_setaffinity, 0, allowed)
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            code = cli.main(self.argv)
            wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"bench exited with {code}: {sink.getvalue().strip()}")
        records = (self.out_dir / "records.csv").read_bytes()
        result = harness.read_records_csv(self.out_dir / "records.csv")
        return {"wall": wall, "setup": setup_end[0] - start, "cpu": cpu, "records": records,
                "cells": len(result.records),
                "skipped": sum(r.status != "ok" for r in result.records)}


class _CellChecks:
    """Wrappers for the verification pass that check each cell's result."""

    def __init__(self, seed: int):
        self.failures = []
        self.checked = 0
        self.rng = np.random.default_rng([seed, 97])
        self._patched = []

    def __enter__(self):
        dispatch = harness.dispatch_test
        domain_test = harness.run_domain_classifier_test

        def checked_dispatch(rep_source, rep_target, *args, **kwargs):
            outcome = dispatch(rep_source, rep_target, *args, **kwargs)
            self._check(oracles.check_dispatch(outcome, rep_source, rep_target, self.rng))
            return outcome

        def checked_domain_test(*args, **kwargs):
            check = domain_test(*args, **kwargs)
            self._check(oracles.check_binomial(
                round(check.accuracy * check.n_heldout), check.n_heldout,
                check.outcome.p_value))
            return check

        try:
            for original, wrapper in ((dispatch, checked_dispatch),
                                      (domain_test, checked_domain_test)):
                self._patched += spans.patch_everywhere(original, wrapper)
        except BaseException:
            spans.restore(self._patched)
            raise
        return self

    def _check(self, failures: list) -> None:
        self.checked += 1
        self.failures += failures

    def __exit__(self, *exc):
        spans.restore(self._patched)


def _golden(workload: str) -> dict:
    with open(Path(__file__).with_name("baseline.json")) as f:
        return json.load(f)["records_sha256"].get(workload, {})


def run(workload: str, seed: int, seconds: float, trace: bool, short: bool,
        work_dir: Path) -> dict:
    work_dir.mkdir(parents=True, exist_ok=True)
    doc = config(workload, seed, short)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(doc))
    attempted, failed, notes = 0, 0, []

    def attempt(bench, tracer=None, cpu=None):
        nonlocal attempted, failed
        try:
            result = bench(tracer, cpu)
        except Exception:  # counted as one failed operation
            notes.append(traceback.format_exc())
            attempted += 1
            failed += 1
            return None
        attempted += result["cells"]
        failed += result["skipped"]
        return result

    checks = _CellChecks(seed)
    with checks:
        reference = attempt(_Bench(config_path, work_dir / "verify", threads=1))
    failed += len(checks.failures)
    notes += checks.failures[:20]
    if reference is None:
        return {"attempted": attempted, "failed": failed, "metrics": {},
                "details": {"notes": notes}}

    timed = _Bench(config_path, work_dir / "timed", threads=THREADS)
    cpus = sorted(os.sched_getaffinity(0))
    # with tracing on, each CPU runs an untraced and then a traced command
    group = 2 if trace else 1
    untraced, traced = [], []
    start = time.perf_counter()
    for k in itertools.count():
        done = untraced + traced
        if (len(done) >= group * len(cpus) and time.perf_counter() - start
                + statistics.median(r["wall"] for r in done) / 2 > seconds):
            break
        tracer = spans.Tracer() if trace and k % 2 == 1 else None
        result = attempt(timed, tracer, cpus[(k // group) % len(cpus)])
        if result is None:  # counted in `failed`; the window ends with it
            break
        result["tracer"] = tracer
        (traced if tracer else untraced).append(result)

    mismatched = sum(r["records"] != reference["records"] for r in untraced + traced)
    failed += mismatched
    if mismatched:
        notes.append(f"{mismatched} commands wrote a records.csv that differs from the "
                     "--threads 1 verification pass")

    digest = hashlib.sha256(reference["records"]).hexdigest()
    golden = _golden(workload).get(str(seed)) if not short else None
    details = {"records_sha256": digest,
               "records_changed_vs_baseline": None if golden is None else int(golden != digest),
               "oracle_checked_cells": checks.checked,
               "bench_commands": {"untraced": len(untraced), "traced": len(traced)},
               "notes": notes}
    n_checks = doc["runs"] * len(doc["shifts"]) * len(doc["sample_sizes"])
    metrics = {}
    if untraced:
        by_cpu = {}
        for r in untraced:
            by_cpu.setdefault(r["cpu"], []).append(r)
        # the set-up is serial and pinned; the CPU on which it ran faster is
        # the one less disturbed by other load, and its commands are reported
        setup_cpu = min(by_cpu, key=lambda cpu: statistics.median(
            r["setup"] for r in by_cpu[cpu]))
        chosen = by_cpu[setup_cpu]
        # the test phase runs on every CPU whatever the set-up's CPU, so its
        # median is over all commands; it is the one time behind every rate
        test_s = statistics.median(r["wall"] - r["setup"] for r in untraced)
        check_ms = 1e3 * THREADS * test_s / n_checks
        metrics.update(
            setup_s=statistics.median(r["setup"] for r in chosen),
            wall_s=statistics.median(r["wall"] for r in chosen),
            cells_per_s=chosen[0]["cells"] / test_s,
            checks_per_s=n_checks / test_s,
            check_p50_ms=check_ms,
            check_p90_ms=check_ms,
        )
        details.update(setup_cpu=setup_cpu, setup_s_by_cpu={
            cpu: statistics.median(r["setup"] for r in rs) for cpu, rs in by_cpu.items()})
    if traced:
        metrics.update(spans.layer_metrics(spans.combine(
            {"bench": [spans.profile(r["tracer"], THREADS) for r in traced]})))
        metrics["harness.skipped_share"] = statistics.median(
            r["skipped"] / r["cells"] for r in traced)
        metrics["trace.overhead_share"] = (
            statistics.median(r["wall"] for r in traced)
            / statistics.median(r["wall"] for r in untraced) - 1.0)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "details": details}
