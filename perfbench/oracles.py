"""Output checks: recompute test results with scipy and compare.

Each check returns a list of failure messages (empty when the output is
right). The oracles use no shiftdetect statistics code:

* KS: the statistic of every column comes from the pooled ranks, and on a
  sample of columns (always including the one with the smallest p-value)
  equals ``scipy.stats.ks_2samp``. Each column's p-value is
  ``scipy.special.kolmogorov`` of the statistic with the small-sample
  correction; their minimum, the Bonferroni p-value and the decision must
  match the outcome. The package truncates the Kolmogorov series at terms
  below 1e-12, so p-values agree to about that much;
* chi-squared: statistic and p-value equal
  ``scipy.stats.chi2_contingency(correction=False)`` on the 2xK table
  with empty columns dropped;
* binomial: the p-value equals ``scipy.stats.binomtest(k, n, 0.5)``;
* MMD: the observed statistic equals the unbiased MMD^2 computed from an
  RBF kernel on ``scipy.spatial.distance.cdist``, and the permutation
  p-value lies in (0, 1].
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats
from scipy.spatial.distance import cdist

from shiftdetect import stattest

KS_COLUMNS = 32
KS_P_TOLERANCE = 1e-11  # the package drops Kolmogorov series terms below 1e-12
MMD_BANDWIDTH = 1.0  # the bandwidth dispatch_test passes to the permutation test


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _decision(outcome, p_value: float) -> list:
    if outcome.reject != (p_value < outcome.alpha):
        return [f"{outcome.test_tag.value}: reject={outcome.reject} at p={p_value}"]
    return []


def ks_statistics(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Two-sample KS statistic of every column, from the pooled ranks."""
    n, m = len(source), len(target)
    pooled = np.vstack([source, target])
    order = np.argsort(pooled, axis=0, kind="stable")
    values = np.take_along_axis(pooled, order, axis=0)
    from_source = order < n
    gap = np.abs(np.cumsum(from_source, axis=0) / n - np.cumsum(~from_source, axis=0) / m)
    # the two ECDFs are compared after the last of each run of tied values
    last_of_ties = np.ones(pooled.shape, dtype=bool)
    last_of_ties[:-1] = values[1:] != values[:-1]
    return np.where(last_of_ties, gap, 0.0).max(axis=0)


def check_ks(outcome, source: np.ndarray, target: np.ndarray, rng) -> list:
    source = np.atleast_2d(np.asarray(source, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    k = source.shape[1]
    statistics = ks_statistics(source, target)
    ne = len(source) * len(target) / (len(source) + len(target))
    p_values = special.kolmogorov((math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * statistics)
    columns = {int(np.argmin(p_values))}
    columns.update(int(j) for j in rng.choice(k, size=min(k, KS_COLUMNS), replace=False))
    failures = []
    for j in sorted(columns):
        theirs = stats.ks_2samp(source[:, j], target[:, j], method="asymp").statistic
        if not _close(statistics[j], float(theirs)):
            failures.append(f"ks column {j}: rank statistic {statistics[j]} != scipy {theirs}")
    min_p = float(p_values.min())
    if not _close(outcome.statistic, min_p, rel=1e-8, abs_tol=KS_P_TOLERANCE):
        failures.append(f"ks: min p {outcome.statistic} != scipy {min_p}")
    bonferroni = min(1.0, k * min_p)
    if not _close(outcome.p_value, bonferroni, rel=1e-8, abs_tol=k * KS_P_TOLERANCE):
        failures.append(f"ks: Bonferroni p {outcome.p_value} != scipy {bonferroni}")
    if (abs(min_p - outcome.alpha / k) > KS_P_TOLERANCE
            and outcome.reject != (min_p < outcome.alpha / k)):
        failures.append(f"ks: reject={outcome.reject} with scipy min p {min_p} over {k} columns")
    return failures


def check_chi2(outcome, source_ids: np.ndarray, target_ids: np.ndarray, arity: int) -> list:
    table = np.stack([np.bincount(source_ids, minlength=arity),
                      np.bincount(target_ids, minlength=arity)])
    table = table[:, table.sum(axis=0) > 0]
    res = stats.chi2_contingency(table, correction=False)
    failures = []
    if not _close(outcome.statistic, float(res.statistic)):
        failures.append(f"chi2: statistic {outcome.statistic} != scipy {res.statistic}")
    if not _close(outcome.p_value, float(res.pvalue)):
        failures.append(f"chi2: p {outcome.p_value} != scipy {res.pvalue}")
    return failures + _decision(outcome, outcome.p_value)


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Unbiased MMD^2 with an RBF kernel, diagonal terms left out."""
    def mean_kernel(a, b, same):
        kernel = np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * bandwidth ** 2))
        if same:
            return (kernel.sum() - len(a)) / (len(a) * (len(a) - 1))
        return kernel.mean()

    return float(mean_kernel(x, x, True) + mean_kernel(y, y, True)
                 - 2.0 * mean_kernel(x, y, False))


def check_mmd(outcome, x: np.ndarray, y: np.ndarray) -> list:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    expected = mmd2_unbiased(x, y, MMD_BANDWIDTH)
    failures = []
    if not _close(outcome.statistic, expected, rel=1e-7, abs_tol=1e-10):
        failures.append(f"mmd: observed {outcome.statistic} != scipy-kernel MMD^2 {expected}")
    if not 0.0 < outcome.p_value <= 1.0:
        failures.append(f"mmd: p {outcome.p_value} outside (0, 1]")
    return failures + _decision(outcome, outcome.p_value)


def check_binomial(successes: int, n: int, p_value: float) -> list:
    expected = float(stats.binomtest(successes, n, 0.5).pvalue)
    if not _close(p_value, expected, rel=1e-7):
        return [f"binomial {successes}/{n}: p {p_value} != scipy {expected}"]
    return []


def check_dispatch(outcome, rep_source, rep_target, rng) -> list:
    """Check one ``dispatch_test`` result against the oracle for its test."""
    tag = outcome.test_tag
    if tag == stattest.TestTag.KS_BONFERRONI:
        return check_ks(outcome, rep_source.values, rep_target.values, rng)
    if tag == stattest.TestTag.CHI2:
        arity = max(rep_source.arity, rep_target.arity)
        return check_chi2(outcome, rep_source.values, rep_target.values, arity)
    if tag == stattest.TestTag.MMD_PERM:
        return check_mmd(outcome, rep_source.values, rep_target.values)
    return [f"unexpected test tag {tag!r} from dispatch_test"]
