"""Two-sample tests and the dispatcher mapping representations to tests.

Continuous representations are tested either per-dimension with the
Kolmogorov-Smirnov test aggregated by Bonferroni correction, or jointly
with an unbiased squared-MMD estimate whose p-value comes from a
permutation test on a cached kernel matrix. Categorical representations
use Pearson's chi-squared independence test on a 2xK contingency table.
Domain-classifier accuracies use an exact two-sided binomial test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaincc, gammaln

from .dimred import DrKind, Representation
from .errors import (
    BadCounts,
    DegenerateTable,
    DimensionMismatch,
    EmptyInput,
    EmptySample,
    IncompatibleMode,
    NonFiniteInput,
    SampleCapExceeded,
    TooFewSamples,
)

MULTIVARIATE_SAMPLE_CAP = 1000
KS_BLOCK_ELEMENTS = 1 << 15  # pooled values per KS rank pass: 256 KB temporaries stay in cache
PERM_CHUNK = 256  # permutations drawn and evaluated per MMD batch
KERNEL_BLOCK_ELEMENTS = 1 << 15  # kernel entries finished per row block: 256 KB stays in cache


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

def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lam) = 2*sum_j (-1)^(j-1) exp(-2 j^2 lam^2).

    The series is truncated once terms drop below 1e-12; the result is
    clamped to [0, 1].
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 100_000):
        term = math.exp(-2.0 * j * j * lam * lam)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


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
    """Asymptotic p-values with the small-sample correction
    lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * S, ne = n*m/(n+m).

    The scalar kolmogorov_sf runs once per distinct lam (statistics take
    few distinct values): np.exp would round differently from math.exp on
    some inputs and change the p-values' last bits.
    """
    ne = n * m / (n + m)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * stats
    distinct, inverse = np.unique(lam, return_inverse=True)
    return np.array([kolmogorov_sf(float(v)) for v in distinct], dtype=np.float64)[inverse]


def _as_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float (rows, features) matrices; a 1-D sample is one column.

    Raises DimensionMismatch when the feature counts differ.
    """
    x, y = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (x, y))
    x, y = (v[:, None] if v.ndim == 1 else v for v in (x, y))
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"feature counts differ: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def _require_finite(*samples: np.ndarray) -> None:
    for sample in samples:
        if not np.isfinite(sample).all():
            raise NonFiniteInput("samples must not contain NaN or infinite values")


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS test: exact statistic, asymptotic p-value.

    The statistic is sup_z |F_a(z) - F_b(z)| over all pooled sample
    points. The p-value uses the Kolmogorov asymptotic distribution with
    the small-sample correction lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * S
    where ne = n*m/(n+m). This is the one-column case of
    ks_pvalues_by_column.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise EmptySample("both samples must be non-empty")
    _require_finite(a, b)
    stats = _ks_statistics(a[:, None], b[:, None])
    return float(stats[0]), float(_ks_pvalues(stats, a.size, b.size)[0])


def ks_pvalues_by_column(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """KS p-value for each column of an (n, K) and an (m, K) matrix.

    A 1-D sample is one column. All columns go through one vectorised rank
    pass (see _ks_statistics); column j's p-value is bit-identical to
    ks_two_sample on column j. Raises NonFiniteInput on NaN or infinite
    values and DimensionMismatch on unequal column counts.
    """
    source, target = _as_samples(source, target)
    if source.shape[0] == 0 or target.shape[0] == 0:
        raise EmptySample("both samples must be non-empty")
    _require_finite(source, target)
    return _ks_pvalues(_ks_statistics(source, target), source.shape[0], target.shape[0])


def bonferroni_aggregate(p_values, alpha: float) -> TestOutcome:
    """Combine K p-values conservatively: reject iff min(p) < alpha/K.

    The reported p_value is min(1, K * min(p)) so a single number can be
    compared against alpha directly; the statistic is the raw minimum.
    """
    p = np.asarray(p_values, dtype=np.float64).ravel()
    if p.size == 0:
        raise EmptyInput("no p-values to aggregate")
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

def rbf_kernel(x, y, bandwidth: float = 1.0) -> float:
    """Squared exponential kernel exp(-||x-y||^2 / (2*bandwidth^2))."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise DimensionMismatch(f"vector lengths differ: {x.size} vs {y.size}")
    sq = float(np.sum((x - y) ** 2))
    return math.exp(-0.5 * sq / (bandwidth * bandwidth))


def _pairwise_sq_dists(z: np.ndarray, finish=None) -> np.ndarray:
    """max(0, (|z_i|^2 + |z_j|^2) - 2 z_i.z_j), built in place of the Gram matrix.

    The Gram matrix comes from one product; the elementwise steps then run
    over blocks of whole rows of at most KERNEL_BLOCK_ELEMENTS entries, so
    each block stays in cache from its first step to its last. finish, if
    given, is applied in place to each finished block. Every entry sees the
    same operations in the same order as on the whole matrix, so the bits
    do not depend on the block size.
    """
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
        if finish is not None:
            finish(block)
    return out


def _kernel_matrix(z: np.ndarray, bandwidth: float) -> np.ndarray:
    scale = bandwidth * bandwidth

    def to_kernel(block: np.ndarray) -> None:
        block *= -0.5
        block /= scale
        np.exp(block, out=block)

    return _pairwise_sq_dists(z, to_kernel)


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median heuristic: bandwidth^2 = median of pooled pairwise squared distances / 2."""
    sq = _pairwise_sq_dists(np.vstack(_as_samples(x, y)))
    med = float(np.median(sq[np.triu_indices_from(sq, k=1)]))
    return math.sqrt(med / 2.0) if med > 0 else 1.0


def mmd2_unbiased(x, y, bandwidth: float = 1.0) -> float:
    """Unbiased squared-MMD estimate (diagonal terms excluded; may be negative).

    mmd2 = sum_{i != j} k(x_i, x_j) / (m(m-1))
         + sum_{i != j} k(y_i, y_j) / (n(n-1))
         - 2 * sum_{i, j} k(x_i, y_j) / (mn)
    """
    x, y = _as_samples(x, y)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise TooFewSamples(f"need at least 2 samples per side, got m={m}, n={n}")
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


def _mmd2_from_assignments(kernel: np.ndarray, total: float, member_x: np.ndarray,
                           m: int, n: int) -> np.ndarray:
    """Batch-evaluate the unbiased MMD^2 from a cached kernel matrix.

    total is kernel.sum(), taken once per test. member_x is a (B, N) 0/1
    matrix; row b marks which pooled samples play the role of X in
    permutation b. Uses kernel diag == 1 (RBF, identical points) to
    subtract diagonals in closed form.
    """
    kv = member_x @ kernel  # (B, N)
    s_xx = np.einsum("bn,bn->b", kv, member_x) - m
    s_x_tot = kv.sum(axis=1)
    s_xy = s_x_tot - (s_xx + m)
    s_yy = total - 2.0 * s_x_tot + (s_xx + m) - n
    return s_xx / (m * (m - 1)) + s_yy / (n * (n - 1)) - 2.0 * s_xy / (m * n)


def _permutation_memberships(seed: int, n_perms: int, total_n: int, m: int):
    """Yield (B, N) 0/1 X-membership matrices, B <= PERM_CHUNK, n_perms rows in all.

    Every row comes from one generator seeded by SeedSequence([seed]). Row
    i draws N uniform keys and its X-set is the m smallest (argpartition),
    so each row has exactly m members, and the first rows do not depend on
    n_perms or on the chunk size.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for start in range(0, n_perms, PERM_CHUNK):
        keys = rng.random((min(PERM_CHUNK, n_perms - start), total_n))
        member_x = np.zeros_like(keys)
        np.put_along_axis(member_x, np.argpartition(keys, m - 1, axis=1)[:, :m], 1.0, axis=1)
        yield member_x


def mmd_permutation_test(x, y, n_perms: int = 1000, alpha: float = 0.05,
                         seed: int = 0, bandwidth: float | None = 1.0) -> TestOutcome:
    """Permutation test on the unbiased MMD^2 with a cached kernel matrix.

    The pooled kernel matrix is computed once; permutations are evaluated
    from the cache in chunks of at most PERM_CHUNK by one matrix product
    each. p-value is the add-one estimator (1 + #{perm >= observed}) /
    (1 + n_perms), which is valid and strictly positive. All permutations
    come from one stream seeded by seed, so results do not depend on thread
    count or chunking. bandwidth=None selects the median heuristic. Raises
    NonFiniteInput on NaN or infinite values.
    """
    x, y = _as_samples(x, y)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise TooFewSamples(f"need at least 2 samples per side, got m={m}, n={n}")
    if n_perms < 1:
        raise ValueError("n_perms must be >= 1")
    _require_finite(x, y)
    if bandwidth is None:
        bandwidth = median_bandwidth(x, y)

    kernel = _kernel_matrix(np.vstack([x, y]), bandwidth)
    observed = _mmd2_observed(kernel, m, n)
    total = kernel.sum()

    exceed = 0
    for member_x in _permutation_memberships(seed, n_perms, m + n, m):
        exceed += int(np.sum(_mmd2_from_assignments(kernel, total, member_x, m, n) >= observed))
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

def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-squared distribution via the
    regularized incomplete gamma function."""
    if x <= 0.0:
        return 1.0
    return float(gammaincc(df / 2.0, x / 2.0))


def chi2_independence(counts) -> tuple[float, float]:
    """Pearson independence test on a 2xK table of class frequencies.

    Expected cell counts are E_ij = N * p_i. * p_.j. Columns whose combined
    total is zero are dropped and the column count adjusted; no continuity
    correction or pseudo-counts. Degrees of freedom = K_effective - 1. When
    both samples fall in one class (one non-empty column, dof 0) they agree
    exactly and the result is (0.0, 1.0), as scipy's chi2_contingency gives.
    A table with an empty row raises DegenerateTable.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != 2:
        raise DimensionMismatch(f"expected a 2xK table, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    row_tot = counts.sum(axis=1)
    if (row_tot == 0).any():
        raise DegenerateTable("both rows must contain at least one observation")
    keep = counts.sum(axis=0) > 0
    counts = counts[:, keep]
    k_eff = counts.shape[1]
    if k_eff == 1:
        return 0.0, 1.0
    col_tot = counts.sum(axis=0)
    n_sum = counts.sum()
    expected = np.outer(row_tot, col_tot) / n_sum
    x2 = float(np.sum((counts - expected) ** 2 / expected))
    return x2, chi2_sf(x2, k_eff - 1)


def _log_binom_pmf(i: np.ndarray, n: int) -> np.ndarray:
    return gammaln(n + 1) - gammaln(i + 1.0) - gammaln(n - i + 1.0) + n * math.log(0.5)


def binomial_two_sided(successes: int, n: int) -> float:
    """Exact two-sided p under Bin(n, 1/2): 2 * min(P(X<=k), P(X>=k)), clamped to 1.

    Tail sums are accumulated in the log domain so extreme tails (e.g.
    2^-100) stay accurate.
    """
    if n < 1 or successes < 0 or successes > n:
        raise BadCounts(f"successes={successes}, n={n}")
    lower_i = np.arange(0, successes + 1, dtype=np.float64)
    upper_i = np.arange(successes, n + 1, dtype=np.float64)

    def logsumexp(v):
        mx = np.max(v)
        return mx + math.log(np.sum(np.exp(v - mx)))

    log_lower = logsumexp(_log_binom_pmf(lower_i, n))
    log_upper = logsumexp(_log_binom_pmf(upper_i, n))
    p = 2.0 * math.exp(min(log_lower, log_upper))
    return min(1.0, p)


# ---------------------------------------------------------------------------
# Dispatch

def categorical_contingency(source_ids: np.ndarray, target_ids: np.ndarray,
                            arity: int) -> np.ndarray:
    """2xK table of class frequencies (row 0 source, row 1 target)."""
    return np.stack([
        np.bincount(np.asarray(source_ids, dtype=np.int64), minlength=arity),
        np.bincount(np.asarray(target_ids, dtype=np.int64), minlength=arity),
    ])


def dispatch_test(rep_source: Representation, rep_target: Representation,
                  kind: DrKind, mode: TestMode, alpha: float = 0.05,
                  seed: int = 0, n_perms: int = 1000) -> TestOutcome:
    """Route a pair of representations to the appropriate two-sample test.

    Continuous + univariate: per-dimension KS tests aggregated with the
    Bonferroni correction. Continuous + multivariate: MMD permutation test,
    only admissible up to MULTIVARIATE_SAMPLE_CAP target samples.
    Categorical (hard predictions): chi-squared independence test. The
    domain-classifier method has no standalone representation and is
    handled by the experiment harness.
    """
    if kind == DrKind.CLASSIF:
        raise IncompatibleMode(
            "the domain classifier is tested end-to-end (binomial on held-out accuracy)"
        )
    if rep_source.is_categorical != rep_target.is_categorical:
        raise IncompatibleMode("source and target representations disagree in kind")

    if rep_source.is_categorical:
        if mode != TestMode.UNIVARIATE:
            raise IncompatibleMode("categorical representations support only the chi-squared path")
        arity = max(rep_source.arity, rep_target.arity)
        table = categorical_contingency(rep_source.values, rep_target.values, arity)
        x2, p = chi2_independence(table)
        return TestOutcome(statistic=x2, p_value=p, alpha=alpha,
                           reject=p < alpha, test_tag=TestTag.CHI2)

    if mode == TestMode.UNIVARIATE:
        p_values = ks_pvalues_by_column(rep_source.values, rep_target.values)
        out = bonferroni_aggregate(p_values, alpha)
        return out

    if rep_target.values.shape[0] > MULTIVARIATE_SAMPLE_CAP:
        # the exact text is the skip reason a grid cell records
        raise SampleCapExceeded(f"multivariate mode capped at {MULTIVARIATE_SAMPLE_CAP}")
    return mmd_permutation_test(rep_source.values, rep_target.values,
                                n_perms=n_perms, alpha=alpha, seed=seed)
