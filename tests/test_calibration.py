"""Null calibration: every method's test size at the small sample sizes the
paper sweeps (s = 10, 20), on the digits, with the trained reducers.

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
from shiftdetect.harness import ExperimentConfig, MethodSpec, NamedShift, run_experiment
from shiftdetect.stattest import TestMode

RUNS, SIZES, ALPHA, FAMILY_LEVEL = 100, (10, 20), 0.05, 0.05
METHODS = tuple(MethodSpec(kind, mode) for kind in DrKind for mode in TestMode
                if mode == TestMode.UNIVARIATE or METHOD_TABLE[kind].multivariate)


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
    # the smallest count c with P(X >= c) <= FAMILY_LEVEL / groups
    fail_at = int(scipy.stats.binom.isf(FAMILY_LEVEL / groups, RUNS, ALPHA)) + 1
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
