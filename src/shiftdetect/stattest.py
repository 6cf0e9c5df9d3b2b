"""Two-sample tests and the dispatcher mapping representations to tests.

Continuous representations are tested either per-dimension with the
Kolmogorov-Smirnov test aggregated by Bonferroni correction, or jointly
with an unbiased squared-MMD estimate whose p-value comes from a
permutation test on a cached kernel matrix. Categorical representations
use Pearson's chi-squared independence test on a 2xK contingency table.
Domain-classifier accuracies use an exact two-sided binomial test.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import bdtr, chdtrc, kolmogorov

from .dimred import DrKind, Representation
from .errors import ShiftDetectError

MULTIVARIATE_SAMPLE_CAP = 1000
KS_BLOCK_ELEMENTS = 1 << 15  # pooled values per KS rank pass: 256 KB temporaries stay in cache
PERM_CHUNK = 256  # permutations drawn and evaluated per MMD batch
KERNEL_BLOCK_ELEMENTS = 1 << 15  # kernel entries finished per row block: 256 KB stays in cache
MMD_BLOCK_ROWS = 256  # kernel rows per product of the permutation evaluation's upper block triangle


class TestTag(str, Enum):
    KS_BONFERRONI = "ks_bonferroni"
    MMD_PERM = "mmd_perm"
    CHI2 = "chi2"
    BINOMIAL = "binomial"


class TestMode(str, Enum):
    UNIVARIATE = "univariate"
    MULTIVARIATE = "multivariate"


@dataclass(frozen=True)
class TestOutcome:
    """Statistic, p-value and the accept/reject decision at level alpha."""

    statistic: float
    p_value: float
    alpha: float
    reject: bool
    test_tag: TestTag


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov

def _ks_statistics(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """KS statistic of every column of an (n, K) and an (m, K) sample.

    Columns are processed in blocks of at most KS_BLOCK_ELEMENTS pooled
    values. Each pooled column is sorted once; the source count is a
    cumulative sum over the sorted order and the target count its
    complement. The ECDF gap is read only at the last element of each run
    of tied values, where both counts equal the number of sample points
    <= that value, i.e. exactly where sup_z |F_a(z) - F_b(z)| is attained.
    """
    n, m = source.shape[0], target.shape[0]
    total = n + m
    k = source.shape[1]
    stats = np.empty(k)
    width = max(1, KS_BLOCK_ELEMENTS // total)
    ranks = np.arange(1, total + 1)
    for lo in range(0, k, width):
        hi = min(k, lo + width)
        pooled = np.concatenate([source[:, lo:hi].T, target[:, lo:hi].T], axis=1)
        order = np.argsort(pooled, axis=1)  # default sort: a stable one is ~4x slower
        values = np.take_along_axis(pooled, order, axis=1)
        count_a = np.cumsum(order < n, axis=1)
        gap = count_a / n
        gap -= (ranks - count_a) / m
        np.abs(gap, out=gap)
        # inside a run of ties the unstable sort leaves the counts arbitrary
        gap[:, :-1][values[:, 1:] == values[:, :-1]] = 0.0
        stats[lo:hi] = gap.max(axis=1)
    return stats


def _ks_pvalues(stats: np.ndarray, n: int, m: int) -> np.ndarray:
    """Asymptotic p-values with the small-sample correction (see ks_pvalues_by_column)."""
    ne = n * m / (n + m)
    return kolmogorov((math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * stats)


def _as_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float (rows, features) matrices; a 1-D sample is one column.

    Raises ShiftDetectError when the feature counts differ.
    """
    x, y = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (x, y))
    x, y = (v[:, None] if v.ndim == 1 else v for v in (x, y))
    if x.shape[1] != y.shape[1]:
        raise ShiftDetectError(f"feature counts differ: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def _require_finite(*samples: np.ndarray) -> None:
    for sample in samples:
        if not np.isfinite(sample).all():
            raise ShiftDetectError("samples must not contain NaN or infinite values")


def ks_pvalues_by_column(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """KS p-value for each column of an (n, K) and an (m, K) matrix.

    A 1-D sample is one column. Column j's statistic is the exact
    sup_z |F_a(z) - F_b(z)| over the pooled points, and all columns go
    through one vectorised rank pass (see _ks_statistics). Its p-value is
    the Kolmogorov survival function (scipy.special.kolmogorov) at
    lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * S, ne = n*m/(n+m), Stephens'
    small-sample correction. Raises ShiftDetectError on an empty sample,
    on NaN or infinite values and on unequal column counts.
    """
    source, target = _as_samples(source, target)
    if source.shape[0] == 0 or target.shape[0] == 0:
        raise ShiftDetectError("both samples must be non-empty")
    _require_finite(source, target)
    return _ks_pvalues(_ks_statistics(source, target), source.shape[0], target.shape[0])


def bonferroni_aggregate(p_values, alpha: float) -> TestOutcome:
    """Combine K p-values conservatively: reject iff min(p) < alpha/K.

    The reported p_value is min(1, K * min(p)) so a single number can be
    compared against alpha directly; the statistic is the raw minimum.
    """
    p = np.asarray(p_values, dtype=np.float64).ravel()
    if p.size == 0:
        raise ShiftDetectError("no p-values to aggregate")
    k = p.size
    min_p = float(p.min())
    return TestOutcome(
        statistic=min_p,
        p_value=min(1.0, k * min_p),
        alpha=alpha,
        reject=min_p < alpha / k,
        test_tag=TestTag.KS_BONFERRONI,
    )


# ---------------------------------------------------------------------------
# Maximum mean discrepancy

def _kernel_matrix(z: np.ndarray, bandwidth: float) -> np.ndarray:
    """RBF kernel exp(-d_ij / (2 bandwidth^2)) of the rows of z, built in
    place of the Gram matrix, with d_ij = max(0, (|z_i|^2 + |z_j|^2) - 2 z_i.z_j).

    The Gram matrix comes from one product; the elementwise steps then run
    over blocks of whole rows of at most KERNEL_BLOCK_ELEMENTS entries, so
    each block stays in cache from its first step to its last. Every entry
    sees the same operations in the same order as on the whole matrix, so
    the bits do not depend on the block size.
    """
    scale = bandwidth * bandwidth
    norms = np.sum(z * z, axis=1)
    out = z @ z.T
    total = out.shape[0]
    rows = max(1, KERNEL_BLOCK_ELEMENTS // max(1, total))
    scratch = np.empty((min(rows, total), total))
    for lo in range(0, total, rows):
        block = out[lo:lo + rows]
        sq = scratch[:block.shape[0]]
        block *= 2.0
        np.add.outer(norms[lo:lo + rows], norms, out=sq)
        sq -= block
        np.maximum(sq, 0.0, out=block)
        block *= -0.5
        block /= scale
        np.exp(block, out=block)
    return out


def mmd2_unbiased(x, y, bandwidth: float = 1.0) -> float:
    """Unbiased squared-MMD estimate (diagonal terms excluded; may be negative).

    mmd2 = sum_{i != j} k(x_i, x_j) / (m(m-1))
         + sum_{i != j} k(y_i, y_j) / (n(n-1))
         - 2 * sum_{i, j} k(x_i, y_j) / (mn)
    """
    x, y = _as_samples(x, y)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ShiftDetectError(f"need at least 2 samples per side, got m={m}, n={n}")
    _require_finite(x, y)
    return _mmd2_observed(_kernel_matrix(np.vstack([x, y]), bandwidth), m, n)


def _mmd2_observed(kernel: np.ndarray, m: int, n: int) -> float:
    """Unbiased MMD^2 of the first m pooled samples against the last n."""
    kxx, kyy, kxy = kernel[:m, :m], kernel[m:, m:], kernel[:m, m:]
    return float(
        (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
        + (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
        - 2.0 * kxy.sum() / (m * n)
    )


def _mmd2_from_assignments(kernel: np.ndarray, row_sums: np.ndarray, member_x: np.ndarray,
                           m: int, n: int, scratch: np.ndarray) -> np.ndarray:
    """Batch-evaluate the unbiased MMD^2 from a cached kernel matrix.

    member_x is a (B, N) 0/1 matrix; row b marks which pooled samples play
    the role of X in permutation b. Each row needs only z.K.z and z.K.1.
    row_sums is kernel.sum(axis=1), taken once per test, so z.K.1 is one
    matrix-vector product. K is symmetric, so z.K.z is the sum over row
    blocks [lo, hi) of the diagonal block's form plus twice the form of
    the block to its right: one product member_x[:, lo:hi] @ K[lo:hi, lo:]
    per block, about B*N^2/2 multiply-adds in all. The products go into
    scratch, a flat buffer of at least B*N floats reused across calls.
    The diagonal sums are subtracted as m and n, i.e. as if every K_ii were
    1. The kernel's K_ii are exp(-r / (2 bandwidth^2)) with r the rounding
    residue of (|z_i|^2 + |z_i|^2) - 2 z_i.z_i: <= 1, and on the package's
    representations within 1e-12 of it, where about a third are not exactly
    1. So a split's value here differs from _mmd2_observed's by about
    1e-12, and the observed split is counted by its tie rule, not by its
    value. The last bits depend on the block layout (MMD_BLOCK_ROWS).
    """
    b, total_n = member_x.shape
    zkz = np.zeros(b)
    for lo in range(0, total_n, MMD_BLOCK_ROWS):
        hi = min(total_n, lo + MMD_BLOCK_ROWS)
        prod = scratch[:b * (total_n - lo)].reshape(b, total_n - lo)
        np.matmul(member_x[:, lo:hi], kernel[lo:hi, lo:], out=prod)
        zkz += np.einsum("bn,bn->b", prod[:, :hi - lo], member_x[:, lo:hi])
        if hi < total_n:
            zkz += 2.0 * np.einsum("bn,bn->b", prod[:, hi - lo:], member_x[:, hi:])
    zk1 = member_x @ row_sums
    s_xx = zkz - m
    s_xy = zk1 - zkz
    s_yy = row_sums.sum() - 2.0 * zk1 + zkz - n
    return s_xx / (m * (m - 1)) + s_yy / (n * (n - 1)) - 2.0 * s_xy / (m * n)


def _smallest_m(keys: np.ndarray, m: int) -> np.ndarray:
    """0/1 matrix marking the m smallest keys of each row, as argpartition picks them.

    The set is read as keys <= the row's m-th smallest key: one partition
    of the keys, no index arrays, and the 0/1 matrix is written over the
    partitioned copy. A row where a key ties with the m-th smallest has
    more than m such keys; it is redone by argpartition, so every row
    equals the argpartition choice bit for bit.
    """
    member_x = np.partition(keys, m - 1, axis=1)
    kth = member_x[:, m - 1:m].copy()
    np.less_equal(keys, kth, out=member_x)
    for row in np.flatnonzero(member_x.sum(axis=1) != m):
        member_x[row] = 0.0
        member_x[row, np.argpartition(keys[row], m - 1)[:m]] = 1.0
    return member_x


def _permutation_memberships(seed: int, n_perms: int, total_n: int, m: int):
    """Yield (B, N) 0/1 X-membership matrices, B <= PERM_CHUNK, n_perms rows in all.

    Every row comes from one generator seeded by SeedSequence([seed]). Row
    i draws N uniform keys and its X-set is the m smallest (_smallest_m),
    so each row has exactly m members, and the first rows do not depend on
    n_perms or on the chunk size.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for start in range(0, n_perms, PERM_CHUNK):
        yield _smallest_m(rng.random((min(PERM_CHUNK, n_perms - start), total_n)), m)


def _stop_count(n_perms: int, alpha: float) -> int:
    """Smallest h >= 1 with (1.0 + h) / (1.0 + n_perms) >= alpha, for 0 < alpha < 1.

    The search evaluates that float expression itself, so a test stops
    (e reaches h) exactly when its full-run p-value (1 + e) / (1 + n_perms)
    could no longer fall below alpha, bit for bit.
    """
    return 1 + bisect.bisect_left(range(1, n_perms + 1), True,
                                  key=lambda h: (1.0 + h) / (1.0 + n_perms) >= alpha)


def mmd_permutation_test(x, y, n_perms: int = 1000, alpha: float = 0.05,
                         seed: int = 0, bandwidth: float = 1.0) -> TestOutcome:
    """Permutation test on the unbiased MMD^2 with a cached kernel matrix.

    The pooled kernel matrix is computed once; permutations are evaluated
    from the cache in chunks of at most PERM_CHUNK, each by products over
    the kernel's upper block triangle (see _mmd2_from_assignments), about
    N^2/2 multiply-adds per permutation. A drawn permutation counts as an
    exceedance when its value is >= observed, or when it reproduces the
    observed split (the first m pooled rows as X, or, when m == n, the last
    n as X) whatever its rounding.

    The test stops early once it cannot reject (Besag & Clifford, 1991).
    With e exceedances among all n_perms draws the add-one p-value
    (1 + e) / (1 + n_perms) is below alpha iff e < h, h = _stop_count(n_perms,
    alpha). Drawing stops at the end of the chunk in which the count
    reaches h; with L the 1-based index of the draw that brought it there,
    p = max(h / L, (1 + h) / (1 + n_perms)). h / L is the valid sequential
    p-value; the max keeps p >= alpha, so reject == (p < alpha) holds for
    every test. A test whose count stays below h runs all draws and reports
    (1 + e) / (1 + n_perms), so a rejecting test's p-value is the full
    run's. L is read from a running count over the draws, and every draw
    comes from one stream seeded by seed, so the outcome does not depend on
    PERM_CHUNK or on the thread count. Raises ShiftDetectError on NaN or
    infinite values and ValueError unless n_perms >= 1 and 0 < alpha < 1.
    """
    x, y = _as_samples(x, y)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ShiftDetectError(f"need at least 2 samples per side, got m={m}, n={n}")
    if n_perms < 1:
        raise ValueError("n_perms must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    _require_finite(x, y)

    kernel = _kernel_matrix(np.vstack([x, y]), bandwidth)
    observed = _mmd2_observed(kernel, m, n)
    row_sums = kernel.sum(axis=1)
    scratch = np.empty(min(PERM_CHUNK, n_perms) * (m + n))
    stop = _stop_count(n_perms, alpha)

    exceed = drawn = 0
    for member_x in _permutation_memberships(seed, n_perms, m + n, m):
        values = _mmd2_from_assignments(kernel, row_sums, member_x, m, n, scratch)
        x_kept = member_x[:, :m].sum(axis=1)
        tie = (x_kept == m) | (x_kept == 0) if m == n else x_kept == m
        count = exceed + np.cumsum((values >= observed) | tie)
        if count[-1] >= stop:
            draws = drawn + 1 + int(np.argmax(count >= stop))
            p = max(stop / draws, (1.0 + stop) / (1.0 + n_perms))
            break
        exceed, drawn = int(count[-1]), drawn + member_x.shape[0]
    else:
        p = (1.0 + exceed) / (1.0 + n_perms)
    return TestOutcome(
        statistic=observed,
        p_value=p,
        alpha=alpha,
        reject=p < alpha,
        test_tag=TestTag.MMD_PERM,
    )


# ---------------------------------------------------------------------------
# Chi-squared and binomial

def chi2_independence(counts) -> tuple[float, float]:
    """Pearson independence test on a 2xK table of class frequencies.

    Expected cell counts are E_ij = N * p_i. * p_.j. Columns whose combined
    total is zero are dropped and the column count adjusted; no continuity
    correction or pseudo-counts. Degrees of freedom = K_effective - 1. When
    both samples fall in one class (one non-empty column, dof 0) they agree
    exactly and the result is (0.0, 1.0), as scipy's chi2_contingency gives.
    A table with an empty row raises ShiftDetectError.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != 2:
        raise ShiftDetectError(f"expected a 2xK table, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    row_tot = counts.sum(axis=1)
    if (row_tot == 0).any():
        raise ShiftDetectError("both rows must contain at least one observation")
    keep = counts.sum(axis=0) > 0
    counts = counts[:, keep]
    k_eff = counts.shape[1]
    if k_eff == 1:
        return 0.0, 1.0
    col_tot = counts.sum(axis=0)
    n_sum = counts.sum()
    expected = np.outer(row_tot, col_tot) / n_sum
    x2 = float(np.sum((counts - expected) ** 2 / expected))
    return x2, float(chdtrc(k_eff - 1, x2))


def binomial_two_sided(successes: int, n: int) -> float:
    """Exact two-sided p under Bin(n, 1/2): 2 * min(P(X<=k), P(X>=k)), clamped to 1.

    At p = 1/2, P(X>=k) = P(X<=n-k), so this is twice scipy.special.bdtr at
    min(k, n-k); extreme tails (e.g. 2^-100) keep full relative precision.
    """
    if n < 1 or successes < 0 or successes > n:
        raise ShiftDetectError(f"successes={successes}, n={n}")
    return min(1.0, 2.0 * float(bdtr(min(successes, n - successes), n, 0.5)))


# ---------------------------------------------------------------------------
# Dispatch

def dispatch_test(rep_source: Representation, rep_target: Representation,
                  kind: DrKind, mode: TestMode, alpha: float = 0.05,
                  seed: int = 0, n_perms: int = 1000) -> TestOutcome:
    """Route a pair of representations to the appropriate two-sample test.

    Continuous + univariate: per-dimension KS tests aggregated with the
    Bonferroni correction. Continuous + multivariate: MMD permutation test,
    only admissible up to MULTIVARIATE_SAMPLE_CAP samples on each side.
    Categorical (hard predictions): chi-squared independence test. The
    domain-classifier method has no standalone representation and is
    handled by the experiment harness.
    """
    if kind == DrKind.CLASSIF:
        raise ShiftDetectError(
            "the domain classifier is tested end-to-end (binomial on held-out accuracy)"
        )
    if rep_source.is_categorical != rep_target.is_categorical:
        raise ShiftDetectError("source and target representations disagree in kind")

    if rep_source.is_categorical:
        if mode != TestMode.UNIVARIATE:
            raise ShiftDetectError("categorical representations support only the chi-squared path")
        arity = max(rep_source.arity, rep_target.arity)
        x2, p = chi2_independence(np.stack([
            np.bincount(np.asarray(rep.values, dtype=np.int64), minlength=arity)
            for rep in (rep_source, rep_target)]))
        return TestOutcome(statistic=x2, p_value=p, alpha=alpha,
                           reject=p < alpha, test_tag=TestTag.CHI2)

    if mode == TestMode.UNIVARIATE:
        p_values = ks_pvalues_by_column(rep_source.values, rep_target.values)
        return bonferroni_aggregate(p_values, alpha)

    if max(rep_source.values.shape[0], rep_target.values.shape[0]) > MULTIVARIATE_SAMPLE_CAP:
        # the exact text is the skip reason a grid cell records
        raise ShiftDetectError(f"multivariate mode capped at {MULTIVARIATE_SAMPLE_CAP}")
    return mmd_permutation_test(rep_source.values, rep_target.values,
                                n_perms=n_perms, alpha=alpha, seed=seed)
