"""monitor-stream: one closed-loop caller checking target batches for shift.

The benchmark generates the corpus (input, not timed) and splits it into a
training part, a reference part and a pool of target rows. A seeded
stream of target batches, 12 of each s in {10, 20, 50} rows, half clean
and half shifted (medium_gn or medium_img at delta 0.5), is made before
the clock starts. Set-up fits pca, srp and the label classifier with
``harness.fit_reducers`` and reduces the reference once. A check is one
batch run through ``dimred.reduce`` and ``stattest.dispatch_test`` for each
method in ``METHODS``, against s reference rows drawn for that batch, so
both sides have s rows as in a grid cell. The caller sends the next batch
when the previous check returns; a pass sends the whole stream, and passes
follow each other until ``--seconds`` are used.

On a shared machine the same check runs up to ~2x slower while other
tenants load the host, in phases that last from a fraction of a second to
minutes, and one CPU can be slower than another. A median over all checks
of a run jumps between the slow and the fast level when about half of the
run falls in slow phases. So the stream is short (a pass takes 1-2 s) and
each batch is checked once per pass, 11 to 17 times in a 25-second run; a
batch's latency is the mean of its untraced checks, which spreads the
slow phases over every batch alike, and check_p50_ms and check_p90_ms are
percentiles of those over the 36 batches (3-4 lie beyond p90).
checks_per_s is untraced checks / their summed latency, cells_per_s six
times that, and wall_s the mean time of an untraced pass. Set-ups
(``SETUPS_PER_CPU`` on each CPU) and passes alternate between the CPUs the
process may use; ``setup_s`` is the median set-up time of the CPU with the
lower median.

Output checks: every pass must reproduce the first pass's outcomes
exactly, and every second check of the first pass is compared with the
scipy oracles after the clock has stopped.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback

import numpy as np

from shiftdetect import digits, dimred, harness, shifts, stattest
from shiftdetect.data import flatten
from shiftdetect.dimred import DrKind, Representation
from shiftdetect.harness import ExperimentConfig, MethodSpec, NamedShift
from shiftdetect.stattest import TestMode

import oracles
import spans

METHODS = (MethodSpec(DrKind.NORED), MethodSpec(DrKind.PCA), MethodSpec(DrKind.SRP),
           MethodSpec(DrKind.BBSDS), MethodSpec(DrKind.BBSDH),
           MethodSpec(DrKind.PCA, TestMode.MULTIVARIATE))
SIZES = (10, 20, 50)
SHIFTS = ("medium_gn_shift", "medium_img_shift")
SETUPS_PER_CPU = 2
ORACLE_EVERY = 2

# patience >= epochs, as on the grids: set-up work does not depend on the seed
FULL = {"n_train": 2000, "n_ref": 1000, "n_pool": 1000, "batches_per_size": 12,
        "cfg": {"patience": 15}}
SHORT = {"n_train": 300, "n_ref": 150, "n_pool": 150, "batches_per_size": 4,
         "cfg": {"n_perms": 100, "hidden_dim": 32, "latent_dim": 8, "clf_epochs": 6}}


def _stream(pool, n_ref: int, per_size: int, seed: int) -> list:
    """Seeded target batches: (flattened rows, reference rows, test seed)."""
    rng = np.random.default_rng([seed, 7])
    batches = []
    for s in SIZES:
        for i in range(per_size):
            shift = None if i % 2 == 0 else SHIFTS[(i // 2) % len(SHIFTS)]
            ds = pool.subset(rng.choice(pool.n, size=s, replace=False))
            if shift is not None:
                spec = shifts.with_seed(shifts.preset(shift, delta=0.5),
                                        int(rng.integers(2 ** 31)))
                ds = shifts.apply_shift(spec, ds)
            batches.append((flatten(ds), rng.choice(n_ref, size=s, replace=False),
                            int(rng.integers(2 ** 31))))
    return [batches[i] for i in rng.permutation(len(batches))]


def _setup(train, reference: np.ndarray, cfg: ExperimentConfig):
    fitted = harness.fit_reducers(train, cfg)
    return fitted, [dimred.reduce(m.kind, fitted.handle_for(m.kind), reference)
                    for m in METHODS]


def _check(batch, fitted, reference_reps, cfg: ExperimentConfig) -> list:
    rows, ref_rows, test_seed = batch
    pairs = []
    for method, ref in zip(METHODS, reference_reps):
        rep = dimred.reduce(method.kind, fitted.handle_for(method.kind), rows)
        ref_sample = Representation(values=ref.values[ref_rows], arity=ref.arity)
        outcome = stattest.dispatch_test(ref_sample, rep, method.kind, method.mode,
                                         alpha=cfg.alpha, seed=test_seed,
                                         n_perms=cfg.n_perms)
        pairs.append((ref_sample, rep, outcome))
    return pairs


def run(seed: int, seconds: float, trace: bool, short: bool) -> dict:
    size = SHORT if short else FULL
    n_train, n_ref = size["n_train"], size["n_ref"]
    profiles = {"corpus": [], "setup": [], "pass": []}
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    # traced and untraced passes alternate, so with tracing on each CPU runs a pair
    group = 2 if trace else 1

    def traced(kind: str, func, *args):
        """Run func; with tracing on, as one traced unit of the given kind."""
        if not trace:
            return func(*args)
        tracer = spans.Tracer()
        with tracer, tracer.span(f"client.{kind}"):
            out = func(*args)
        profiles[kind].append(spans.profile(tracer))
        return out

    corpus = traced("corpus",
                    lambda: digits.make_digits(n_train + n_ref + size["n_pool"], seed))
    train = corpus.subset(np.arange(n_train))
    reference = flatten(corpus.subset(np.arange(n_train, n_train + n_ref)))
    pool = corpus.subset(np.arange(n_train + n_ref, corpus.n))
    cfg = ExperimentConfig(methods=METHODS,
                           shifts=(NamedShift("no_shift", shifts.preset("no_shift")),),
                           n_train=n_train, n_val=n_ref, n_test=size["n_pool"], seed=seed,
                           **size["cfg"])
    stream = _stream(pool, n_ref, size["batches_per_size"], seed)

    attempted, failed, notes = 0, 0, []
    first_pass, sampled = {}, []
    setup_times = {cpu: [] for cpu in cpus}
    # untraced check latencies, by batch and by CPU
    latencies = [[] for _ in stream]
    by_cpu = {cpu: [] for cpu in cpus}
    walls = {cpu: {"untraced": [], "traced": []} for cpu in cpus}

    def one_pass(pass_index: int, cpu: int, timed: bool) -> None:
        nonlocal attempted, failed
        for i, batch in enumerate(stream):
            attempted += 1
            start = time.perf_counter()
            try:
                pairs = _check(batch, fitted, reference_reps, cfg)
            except Exception:  # a failed check is counted and the stream goes on
                failed += 1
                notes.append(traceback.format_exc())
                continue
            if timed:
                latency = time.perf_counter() - start
                latencies[i].append(latency)
                by_cpu[cpu].append(latency)
            outcomes = [outcome for _, _, outcome in pairs]
            if pass_index == 0:
                first_pass[i] = outcomes
                if i % ORACLE_EVERY == 0:
                    sampled.append(pairs)
            elif first_pass.get(i) != outcomes:
                failed += 1
                notes.append(f"batch {i}: outcomes differ from the first pass")

    try:
        for k in range(SETUPS_PER_CPU * len(cpus)):
            cpu = cpus[k % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            fitted, reference_reps = traced("setup", _setup, train, reference, cfg)
            setup_times[cpu].append(time.perf_counter() - start)

        deadline = time.perf_counter() + seconds
        pass_index = 0
        # every CPU gets its passes; later passes start while half of one fits
        while (pass_index < group * len(cpus)
               or time.perf_counter() + statistics.median(
                   w for cpu_walls in walls.values() for w in cpu_walls["untraced"]) / 2
               < deadline):
            cpu = cpus[(pass_index // group) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            use_tracer = trace and pass_index % 2 == 1
            start = time.perf_counter()
            if use_tracer:
                traced("pass", one_pass, pass_index, cpu, False)
            else:
                one_pass(pass_index, cpu, True)
            walls[cpu]["traced" if use_tracer else "untraced"].append(
                time.perf_counter() - start)
            pass_index += 1
    finally:
        os.sched_setaffinity(0, allowed)

    rng = np.random.default_rng([seed, 97])
    for pairs in sampled:
        failures = [msg for ref, rep, outcome in pairs
                    for msg in oracles.check_dispatch(outcome, ref, rep, rng)]
        failed += bool(failures)
        notes += failures[:5]

    # the CPU less disturbed by other load is the one with the lower median
    setup_cpu = min(cpus, key=lambda cpu: statistics.median(setup_times[cpu]))
    metrics = {"setup_s": statistics.median(setup_times[setup_cpu])}
    if all(latencies):
        means = [statistics.mean(lat) for lat in latencies]
        n_checks = sum(len(lat) for lat in latencies)
        check_s = sum(sum(lat) for lat in latencies)
        metrics.update(wall_s=statistics.mean(
                           w for cpu_walls in walls.values() for w in cpu_walls["untraced"]),
                       check_p50_ms=1e3 * statistics.median(means),
                       check_p90_ms=1e3 * statistics.quantiles(means, n=10)[8],
                       checks_per_s=n_checks / check_s,
                       cells_per_s=len(METHODS) * n_checks / check_s)
    if trace:
        metrics.update(spans.layer_metrics(spans.combine(profiles)))
        metrics["trace.overhead_share"] = statistics.median(
            statistics.median(w["traced"]) / statistics.median(w["untraced"])
            for w in walls.values()) - 1.0
    details = {"checks_per_pass": len(stream), "passes": pass_index,
               "cpus": cpus, "setup_cpu": setup_cpu,
               "checks_per_batch": min(len(lat) for lat in latencies),
               "all_checks_p50_ms_by_cpu": {cpu: 1e3 * statistics.median(v)
                                            for cpu, v in by_cpu.items() if v},
               "oracle_checked_checks": len(sampled), "notes": notes}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "details": details}
