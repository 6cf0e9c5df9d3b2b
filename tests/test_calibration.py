"""Null calibration: every method's test size at the small sample sizes the
paper sweeps (s = 10, 20), on the digits, with the trained reducers; and
the domain classifier's size when the two sides differ in size.

One seeded grid runs every (kind, mode) pair MethodSpec accepts under
no_shift, so each reject is a false alarm. A group of R runs at level alpha
fails when its reject count is one a Binomial(R, alpha) draw reaches with
probability at most FAMILY_LEVEL / (number of groups), Bonferroni over the
groups. The bound comes from scipy here, not from the counts seen.
"""

import numpy as np
import scipy.stats

from shiftdetect import digits, shifts
from shiftdetect.dimred import METHOD_TABLE, DrKind
from shiftdetect.harness import (
    ExperimentConfig,
    MethodSpec,
    NamedShift,
    run_domain_classifier_test,
    run_experiment,
)
from shiftdetect.nets import TrainConfig
from shiftdetect.stattest import TestMode

RUNS, SIZES, ALPHA, FAMILY_LEVEL = 100, (10, 20), 0.05, 0.05
METHODS = tuple(MethodSpec(kind, mode) for kind in DrKind for mode in TestMode
                if mode == TestMode.UNIVARIATE or METHOD_TABLE[kind].multivariate)


def _fail_at(runs: int, groups: int) -> int:
    """The smallest reject count c with P(X >= c) <= FAMILY_LEVEL / groups,
    X ~ Binomial(runs, ALPHA)."""
    return int(scipy.stats.binom.isf(FAMILY_LEVEL / groups, runs, ALPHA)) + 1


def _clopper_pearson(rejects: int, n: int, level: float = 0.95) -> tuple:
    """Exact two-sided confidence bounds on a binomial rate."""
    tail = (1 - level) / 2
    low = scipy.stats.beta.ppf(tail, rejects, n - rejects + 1) if rejects else 0.0
    high = scipy.stats.beta.ppf(1 - tail, rejects + 1, n - rejects) if rejects < n else 1.0
    return float(low), float(high)


def test_every_method_holds_its_size_at_small_samples():
    cfg = ExperimentConfig(
        methods=METHODS, shifts=(NamedShift("no_shift", shifts.preset("no_shift")),),
        n_train=1000, n_val=200, n_test=200, sample_sizes=SIZES, runs=RUNS, alpha=ALPHA,
        seed=11, latent_dim=16, hidden_dim=64, ae_epochs=5, clf_epochs=5, domain_epochs=5,
        n_perms=200)
    result = run_experiment(digits.make_digits(1400, seed=11), cfg, threads=2)
    assert all(r.status == "ok" for r in result.records)

    groups = len(METHODS) * len(SIZES)
    fail_at = _fail_at(RUNS, groups)
    rejects = {}
    for r in result.records:
        key = (r.method, r.mode, r.sample_size)
        rejects[key] = rejects.get(key, 0) + int(r.outcome.reject)
    assert len(rejects) == groups
    print(f"\nnull rejects of {RUNS} runs at alpha {ALPHA}; a group fails at {fail_at}")
    for (method, mode, s), count in rejects.items():
        low, high = _clopper_pearson(count, RUNS)
        print(f"  {method:8s} {mode:13s} s={s:3d}  {count:3d}  rate {count / RUNS:.2f}  "
              f"95% CI [{low:.3f}, {high:.3f}]")
    too_many = {key: count for key, count in rejects.items() if count >= fail_at}
    assert not too_many, f"more null rejects than {fail_at - 1} of {RUNS}: {too_many}"


RATIOS, MIN_ROWS = ((1, 1), (2, 1), (10, 1), (1, 10)), 40


def test_domain_check_holds_its_size_when_the_sides_differ_in_size():
    # iid Gaussian sides of MIN_ROWS x (source, target) ratio rows and a tiny
    # net: held-out sides of unequal size made Bin(n, 1/2) the wrong null, and
    # a classifier that learnt only the sizes rejected nearly every pair
    fail_at = _fail_at(RUNS, len(RATIOS))
    rejects = {}
    for ratio in RATIOS:
        rejects[ratio] = 0
        for run in range(RUNS):
            rng = np.random.default_rng([run, *ratio])
            source, target = (rng.normal(size=(MIN_ROWS * r, 4)) for r in ratio)
            check = run_domain_classifier_test(
                source, target, TrainConfig(batch_size=16, max_epochs=3, seed=run),
                alpha=ALPHA, seed=run, hidden_dims=(4,))
            rejects[ratio] += int(check.outcome.reject)
    print(f"\ndomain-check null rejects of {RUNS} runs by (source, target) ratio: {rejects}; "
          f"a ratio fails at {fail_at}")
    too_many = {ratio: count for ratio, count in rejects.items() if count >= fail_at}
    assert not too_many, f"more null rejects than {fail_at - 1} of {RUNS}: {too_many}"
