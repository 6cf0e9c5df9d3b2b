"""Two-sample tests on synthetic data
=====================================

Walks through the four statistical tests the toolkit builds on: the
Kolmogorov-Smirnov test with Bonferroni aggregation, the kernel MMD with
a permutation p-value, the chi-squared independence test, and the exact
binomial test. Everything here is tiny and runs in a couple of seconds.
"""

import numpy as np

from shiftdetect import (
    binomial_two_sided,
    bonferroni_aggregate,
    chi2_independence,
    mmd2_unbiased,
    mmd_permutation_test,
)
from shiftdetect.stattest import ks_pvalues_by_column

rng = np.random.default_rng(0)

# --- Kolmogorov-Smirnov on one dimension -----------------------------------
same_a = rng.normal(0.0, 1.0, 500)
same_b = rng.normal(0.0, 1.0, 500)
moved = rng.normal(0.6, 1.0, 500)

# a 1-D sample is one column: one KS p-value
(p,) = ks_pvalues_by_column(same_a, same_b)
print(f"KS, same distribution:    p = {p:.3f}")
(p,) = ks_pvalues_by_column(same_a, moved)
print(f"KS, mean shifted by 0.6:  p = {p:.2e}")

# --- many dimensions: test each one, correct for multiplicity --------------
d = 32
source = rng.normal(size=(300, d))
target = rng.normal(size=(300, d))
target[:, 7] += 0.8  # shift hides in a single coordinate
p_values = ks_pvalues_by_column(source, target)
outcome = bonferroni_aggregate(p_values, alpha=0.05)
print(f"\nper-dimension KS over {d} dims, shift planted in dim 7:")
print(f"  min p = {outcome.statistic:.2e} (threshold alpha/K = {0.05 / d:.2e})")
print(f"  reject H0: {outcome.reject}")

# --- kernel MMD for a joint multivariate view ------------------------------
x = rng.normal(size=(200, 5))
y_same = rng.normal(size=(200, 5))
y_far = rng.normal(0.7, 1.0, (200, 5))
print(f"\nunbiased MMD^2, same dist:   {mmd2_unbiased(x, y_same):+.4f}"
      "   (can be negative; that is expected)")
print(f"unbiased MMD^2, shifted:     {mmd2_unbiased(x, y_far):+.4f}")
out = mmd_permutation_test(x, y_far, n_perms=500, alpha=0.05, seed=1)
print(f"permutation test on shifted: p = {out.p_value:.4f}, reject = {out.reject}")

# --- categorical data: chi-squared on a 2xK contingency table --------------
source_preds = rng.integers(0, 10, 400)
target_preds = np.concatenate([rng.integers(0, 10, 300), np.zeros(100, dtype=int)])
table = np.stack([np.bincount(source_preds, minlength=10),
                  np.bincount(target_preds, minlength=10)])
x2, p = chi2_independence(table)
print(f"\nchi-squared on class frequencies (target over-predicts class 0):")
print(f"  X^2 = {x2:.1f}, p = {p:.2e}")

# --- binomial test on a domain classifier's held-out accuracy --------------
print("\nbinomial test of accuracy vs chance (n = 200 held-out samples):")
for correct in (104, 120, 140):
    p = binomial_two_sided(correct, 200)
    print(f"  accuracy {correct / 200:.2f}: p = {p:.4f}")
