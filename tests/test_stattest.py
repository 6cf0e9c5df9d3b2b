import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from shiftdetect import stattest
from shiftdetect.data import flatten
from shiftdetect.digits import make_digits
from shiftdetect.dimred import DrKind, Representation
from shiftdetect.errors import ShiftDetectError
from shiftdetect.stattest import (
    TestMode,
    TestTag,
    binomial_two_sided,
    bonferroni_aggregate,
    chi2_independence,
    dispatch_test,
    ks_pvalues_by_column,
    mmd2_unbiased,
    mmd_permutation_test,
)

# the messages of two refusals several tests expect
NON_FINITE = "^samples must not contain NaN or infinite values$"
EMPTY_ROW = "^both rows must contain at least one observation$"


# ---------------------------------------------------------------------------
# independent oracles

def brute_force_ks_stat(a, b):
    """Max ECDF gap evaluated at every pooled point."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    best = 0.0
    for z in np.concatenate([a, b]):
        gap = abs(np.mean(a <= z) - np.mean(b <= z))
        best = max(best, gap)
    return best


def rbf_kernel(x, y, bandwidth=1.0):
    """Squared exponential kernel exp(-||x-y||^2 / (2*bandwidth^2)) of two vectors."""
    x, y = np.asarray(x, dtype=np.float64).ravel(), np.asarray(y, dtype=np.float64).ravel()
    return math.exp(-0.5 * float(np.sum((x - y) ** 2)) / (bandwidth * bandwidth))


def brute_force_mmd2(x, y):
    """Literal three-loop evaluation of the unbiased estimator."""
    m, n = len(x), len(y)
    xx = sum(rbf_kernel(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    yy = sum(rbf_kernel(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    xy = sum(rbf_kernel(x[i], y[j]) for i in range(m) for j in range(n))
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)


def ks_stat(a, b):
    """The package's KS statistic of two 1-D samples."""
    return float(stattest._ks_statistics(np.asarray(a, float)[:, None],
                                         np.asarray(b, float)[:, None])[0])


def scipy_ks_stat(a, b):
    return stats.ks_2samp(a, b).statistic


# scipy forms the ECDF difference in another order: a few ulps apart
KS_ULPS = 4 * np.finfo(np.float64).eps


def corrected_kolmogorov_p(statistic, n, m):
    """Kolmogorov survival function at Stephens' corrected statistic."""
    ne = n * m / (n + m)
    return special.kolmogorov((math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * statistic)


def sequential_p_value(hits, n_perms, alpha):
    """Permutation p-value from the exceedance indicators of the draws, in draw order.

    h is the smallest count whose add-one p-value (1 + h) / (1 + n_perms)
    reaches alpha. Fewer than h exceedances in all n_perms draws give the
    full-run estimate (1 + e) / (1 + n_perms); otherwise the test stops at
    the draw L that brings the count to h and the estimate is
    max(h / L, (1 + h) / (1 + n_perms)).
    """
    h = next(h for h in range(1, n_perms + 1) if (1.0 + h) / (1.0 + n_perms) >= alpha)
    count = np.cumsum(hits)
    if count[-1] < h:
        return (1.0 + count[-1]) / (1.0 + n_perms)
    first = int(np.argmax(count >= h)) + 1
    return max(h / first, (1.0 + h) / (1.0 + n_perms))


def exact_binomial_two_sided(k, n):
    """Exact rational tail arithmetic, no lgamma involved."""
    lower = sum(Fraction(math.comb(n, i)) for i in range(0, k + 1))
    upper = sum(Fraction(math.comb(n, i)) for i in range(k, n + 1))
    p = 2 * min(lower, upper) / Fraction(2) ** n
    return float(min(p, Fraction(1)))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov

def test_ks_identical_samples():
    assert ks_stat([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_pvalues_by_column([1, 2, 3], [1, 2, 3])[0] == 1.0


def test_ks_disjoint_supports():
    assert ks_stat([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0


def test_ks_hand_case():
    assert ks_stat([1, 2, 3, 4], [2, 3, 4, 5]) == 0.25


def test_ks_statistic_matches_brute_force_exactly():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.normal(size=rng.integers(1, 40))
        b = rng.normal(size=rng.integers(1, 40))
        if rng.random() < 0.3:  # force ties across samples
            b[: min(len(a), len(b)) // 2] = a[: min(len(a), len(b)) // 2]
        stat = ks_stat(a, b)
        assert stat == brute_force_ks_stat(a, b)
        assert abs(stat - scipy_ks_stat(a, b)) <= KS_ULPS


def test_ks_empty_sample():
    for a, b in (([], [1.0]), ([1.0], []), (np.empty((0, 3)), np.ones((2, 3)))):
        with pytest.raises(ShiftDetectError, match="^both samples must be non-empty$"):
            ks_pvalues_by_column(a, b)


def _tie_heavy_columns(rng, n, m, k):
    """Quarter-step grids with shifted supports, plus two constant columns."""
    source = rng.integers(0, 5, size=(n, k)) / 4.0
    target = rng.integers(1, 6, size=(m, k)) / 4.0
    source[:, 0], target[:, 0] = 0.5, 0.5  # constant and equal: S = 0
    source[:, 1], target[:, 1] = 0.0, 1.0  # constant and disjoint: S = 1
    return source, target


def test_ks_columns_match_scipy_ks_2samp():
    rng = np.random.default_rng(13)
    for n, m, k in [(7, 12, 9), (40, 25, 30), (1, 6, 4), (300, 120, 12)]:
        source, target = _tie_heavy_columns(rng, n, m, k)
        ours = stattest._ks_statistics(source, target)
        for j in range(k):
            assert abs(ours[j] - scipy_ks_stat(source[:, j], target[:, j])) <= KS_ULPS
        assert ours[0] == 0.0 and ours[1] == 1.0


def test_ks_pvalues_match_scipy_kolmogorov():
    rng = np.random.default_rng(14)
    for n, m, k in [(10, 10, 16), (13, 31, 20), (200, 150, 8)]:
        source, target = _tie_heavy_columns(rng, n, m, k)
        source[:, 2:8] += rng.normal(scale=0.3, size=(n, 6))
        ours = ks_pvalues_by_column(source, target)
        for j in range(k):
            d = scipy_ks_stat(source[:, j], target[:, j])
            assert abs(ours[j] - corrected_kolmogorov_p(d, n, m)) <= 1e-11


_ks_values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                       st.floats(-5.0, 5.0, allow_nan=False))


@st.composite
def _ks_problem(draw):
    n, m, k = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 9))
    source = draw(hnp.arrays(np.float64, (n, k), elements=_ks_values))
    target = draw(hnp.arrays(np.float64, (m, k), elements=_ks_values))
    # pooled values per rank pass: small budgets split the columns into uneven blocks
    block = draw(st.integers(1, 2 * (n + m) * k))
    return source, target, block


@given(_ks_problem())
@example((np.array([[0.25]]), np.array([[0.25], [1.0]]), 1))
@example((np.zeros((1, 7)), np.arange(21.0).reshape(3, 7) / 4.0, 12))
def test_ks_by_column_equals_one_column_calls(problem):
    source, target, block = problem
    with mock.patch.object(stattest, "KS_BLOCK_ELEMENTS", block):
        p_values = ks_pvalues_by_column(source, target)
        statistics = stattest._ks_statistics(source, target)
    for j in range(source.shape[1]):
        a, b = source[:, j], target[:, j]
        assert p_values[j] == ks_pvalues_by_column(a, b)[0]
        assert statistics[j] == brute_force_ks_stat(a, b)
        assert abs(statistics[j] - scipy_ks_stat(a, b)) <= KS_ULPS


@given(_ks_problem())
@example((np.zeros((3, 2)), np.ones((4, 2)), 1))  # S = 1 in every column
def test_ks_pvalues_are_scipy_kolmogorov_of_the_corrected_statistic(problem):
    source, target, _ = problem
    n, m = source.shape[0], target.shape[0]
    statistics = stattest._ks_statistics(source, target)
    p_values = ks_pvalues_by_column(source, target)
    assert np.array_equal(p_values, corrected_kolmogorov_p(statistics, n, m))
    assert ((0.0 <= p_values) & (p_values <= 1.0)).all()
    # every statistic the pair (n, m) can take lies on the lattice j / lcm(n, m)
    steps = math.lcm(n, m)
    lattice = stattest._ks_pvalues(np.arange(steps + 1) / steps, n, m)
    assert lattice[0] == 1.0 and (np.diff(lattice) <= 0.0).all()
    order = np.argsort(statistics, kind="stable")
    assert (np.diff(p_values[order]) <= 0.0).all()


_ks_ints = st.integers(-40, 40).map(float)  # few distinct values: many ties


@st.composite
def _ks_pair(draw):
    n, m, k = draw(st.integers(1, 15)), draw(st.integers(1, 15)), draw(st.integers(1, 4))
    return (draw(hnp.arrays(np.float64, (n, k), elements=_ks_ints)),
            draw(hnp.arrays(np.float64, (m, k), elements=_ks_ints)))


@given(_ks_pair())
def test_ks_symmetric_in_its_samples(pair):
    source, target = pair
    forward = ks_pvalues_by_column(source, target)
    assert np.array_equal(forward, ks_pvalues_by_column(target, source))
    assert ((forward > 0.0) & (forward <= 1.0)).all()


@given(_ks_pair(), st.randoms(use_true_random=False))
def test_ks_ignores_row_order(pair, rnd):
    source, target = pair
    rows_s, rows_t = list(range(source.shape[0])), list(range(target.shape[0]))
    rnd.shuffle(rows_s)
    rnd.shuffle(rows_t)
    assert np.array_equal(ks_pvalues_by_column(source, target),
                          ks_pvalues_by_column(source[rows_s], target[rows_t]))


@given(_ks_pair(), st.sampled_from([lambda v: np.exp(v / 8.0), lambda v: v ** 3 + 2.0 * v,
                                    lambda v: 1e-3 * v - 7.0, np.arctan]))
def test_ks_invariant_to_increasing_transforms(pair, transform):
    # on these integer-valued samples every transform keeps distinct values distinct
    source, target = pair
    assert np.array_equal(ks_pvalues_by_column(source, target),
                          ks_pvalues_by_column(transform(source), transform(target)))


def test_ks_rejects_non_finite():
    with pytest.raises(ShiftDetectError, match=NON_FINITE):
        ks_pvalues_by_column([0.0, np.nan], [0.0, 0.0])
    with pytest.raises(ShiftDetectError, match=NON_FINITE):
        ks_pvalues_by_column([0.0, 1.0], [np.inf, 0.0])


def test_ks_by_column_rejects_non_finite():
    # a NaN pixel among all-zero samples must raise, not read as "no shift"
    source, target = np.zeros((20, 16)), np.zeros((20, 16))
    target[3, 5] = np.nan
    with pytest.raises(ShiftDetectError, match=NON_FINITE):
        ks_pvalues_by_column(source, target)
    with pytest.raises(ShiftDetectError, match=NON_FINITE):
        ks_pvalues_by_column(target, source)


def test_ks_by_column_takes_1d_samples_as_one_column():
    a, b = np.arange(5.0), np.arange(5.0) + 10
    p = ks_pvalues_by_column(a, b)
    assert p.shape == (1,)
    assert p[0] == ks_pvalues_by_column(a[:, None], b[:, None])[0]
    assert p[0] == corrected_kolmogorov_p(brute_force_ks_stat(a, b), 5, 5)  # S = 1: 0.0038
    # unequal lengths are two samples of one feature, not a width mismatch
    c = np.arange(7.0)
    assert ks_pvalues_by_column(a, c)[0] == corrected_kolmogorov_p(brute_force_ks_stat(a, c),
                                                                     5, 7)


# ---------------------------------------------------------------------------
# Bonferroni

def test_bonferroni_paper_threshold():
    assert abs(0.05 / 784 - 6.377551020408163e-05) < 1e-18
    out = bonferroni_aggregate([2.7e-10] + [0.9] * 783, alpha=0.05)
    assert out.reject
    assert out.statistic == 2.7e-10


def test_bonferroni_all_ones_no_rejection():
    out = bonferroni_aggregate(np.ones(32), alpha=0.05)
    assert not out.reject
    assert out.p_value == 1.0


def test_bonferroni_k32_rejects_tiny_p():
    out = bonferroni_aggregate([2.7e-10] + [0.5] * 31, alpha=0.05)
    assert 0.05 / 32 == 0.0015625
    assert out.reject


def test_bonferroni_reject_iff_reported_p_below_alpha():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.random(rng.integers(1, 20)) ** 3
        out = bonferroni_aggregate(p, alpha=0.05)
        assert out.reject == (out.p_value < 0.05)
        assert out.reject == (p.min() < 0.05 / p.size)


def test_bonferroni_empty():
    with pytest.raises(ShiftDetectError, match="^no p-values to aggregate$"):
        bonferroni_aggregate([], alpha=0.05)


# ---------------------------------------------------------------------------
# MMD

def test_rbf_kernel_values():
    assert rbf_kernel([1.0, 2.0], [1.0, 2.0]) == 1.0
    x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])  # squared distance 2
    assert abs(rbf_kernel(x, y) - math.exp(-1.0)) < 1e-15
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert rbf_kernel(a, b) == rbf_kernel(b, a)
        assert 0.0 < rbf_kernel(a, b) <= 1.0


def test_mmd2_identical_points_is_zero():
    x = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert abs(mmd2_unbiased(x, x.copy())) < 1e-15


def test_mmd2_hand_case_negative():
    x = np.array([[0.0], [2.0]])
    expected = math.exp(-2.0) - 1.0
    assert abs(mmd2_unbiased(x, x.copy()) - expected) < 1e-12


def test_mmd2_separated_gaussians_large():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.0, (500, 1))
    y = rng.normal(5.0, 1.0, (500, 1))
    assert mmd2_unbiased(x, y) > 0.5


def test_mmd2_matches_triple_loop():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=(rng.integers(2, 20), 3))
        y = rng.normal(size=(rng.integers(2, 20), 3))
        fast = mmd2_unbiased(x, y)
        slow = brute_force_mmd2(x, y)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


def test_mmd2_too_few_samples():
    with pytest.raises(ShiftDetectError, match="^need at least 2 samples per side, got m=1, n=5$"):
        mmd2_unbiased(np.zeros((1, 2)), np.zeros((5, 2)))


def test_mmd_permutation_single_perm_p_values():
    rng = np.random.default_rng(0)
    for seed in range(10):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        out = mmd_permutation_test(x, y, n_perms=1, seed=seed)
        assert out.p_value in (0.5, 1.0)


def test_mmd_permutation_copy_gives_large_p():
    rng = np.random.default_rng(1)
    high = 0
    for seed in range(20):
        x = rng.normal(size=(25, 3))
        out = mmd_permutation_test(x, x.copy(), n_perms=200, seed=seed)
        high += out.p_value >= 0.5
    assert high >= 19  # >= 95% of seeds


def test_mmd_permutation_deterministic_per_seed():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
    for n_perms in (100, 1000):  # one chunk of permutations, then several
        a = mmd_permutation_test(x, y, n_perms=n_perms, seed=9)
        b = mmd_permutation_test(x, y, n_perms=n_perms, seed=9)
        assert a == b


def _relabel_problem(rng, m, n, rows):
    """A pooled sample, its kernel, and random relabelings as 0/1 X-memberships."""
    pooled = rng.normal(size=(m + n, 4))
    kernel = stattest._kernel_matrix(pooled, 1.0)
    perms = [rng.permutation(m + n) for _ in range(rows)]
    member = np.zeros((rows, m + n))
    for row, perm in zip(member, perms):
        row[perm[:m]] = 1.0
    return pooled, kernel, perms, member


def _from_assignments(kernel, member, m, n):
    scratch = np.empty(member.size)
    return stattest._mmd2_from_assignments(kernel, kernel.sum(axis=1), member, m, n, scratch)


def test_mmd_permutation_stats_match_naive_relabeling():
    # the cached-kernel-matrix evaluation must agree with literally permuting
    # the pooled rows and recomputing the unbiased estimate
    rng = np.random.default_rng(12)
    for _ in range(5):
        m, n = int(rng.integers(3, 15)), int(rng.integers(3, 15))
        pooled, kernel, perms, member = _relabel_problem(rng, m, n, 8)
        for value, perm in zip(_from_assignments(kernel, member, m, n), perms):
            naive = mmd2_unbiased(pooled[perm[:m]], pooled[perm[m:]])
            assert abs(value - naive) < 1e-10


@given(st.integers(2, 12), st.integers(2, 12), st.sampled_from([1, 3, 7]),
       st.integers(0, 2**32 - 1))
@example(3, 4, 7, 0)   # N = 7: one block
@example(2, 2, 7, 1)   # N = 4 < block: one short block
@example(5, 9, 7, 2)   # N = 14: two whole blocks
@example(6, 9, 7, 3)   # N = 15: a ragged last block of one row
@example(4, 5, 3, 4)   # N = 9: three blocks of 3
@example(2, 3, 1, 5)   # one row per block
def test_blocked_mmd_evaluation_matches_relabeled_rows(m, n, block, seed):
    # z.K.z over the upper block triangle equals the estimate on literally
    # relabelled rows for any block layout, m != n included
    rng = np.random.default_rng(seed)
    pooled, kernel, perms, member = _relabel_problem(rng, m, n, 5)
    with mock.patch.object(stattest, "MMD_BLOCK_ROWS", block):
        fast = _from_assignments(kernel, member, m, n)
    for value, perm in zip(fast, perms):
        assert abs(value - mmd2_unbiased(pooled[perm[:m]], pooled[perm[m:]])) < 1e-10


def test_mmd_permutation_pvalues_valid_under_null():
    # empirical size at several alphas, a few hundred quick trials
    rng = np.random.default_rng(3)
    pvals = []
    for trial in range(300):
        x = rng.normal(size=(25, 4))
        y = rng.normal(size=(25, 4))
        pvals.append(mmd_permutation_test(x, y, n_perms=120, seed=trial).p_value)
    pvals = np.array(pvals)
    for alpha in (0.01, 0.05, 0.1):
        assert np.mean(pvals <= alpha) <= alpha + 0.03


def _draws(seed, n_perms, total_n, m):
    return list(stattest._permutation_memberships(seed, n_perms, total_n, m))


@pytest.mark.parametrize("n_perms", [1, 127, 128, 129, 255, 256, 257, 1000])
def test_mmd_draws_exactly_m_members_at_chunk_edges(n_perms):
    chunks = _draws(4, n_perms, 23, 9)
    assert all(1 <= c.shape[0] <= stattest.PERM_CHUNK for c in chunks)
    member = np.vstack(chunks)
    assert member.shape == (n_perms, 23)
    assert set(np.unique(member)) <= {0.0, 1.0}
    assert (member.sum(axis=1) == 9).all()
    x, y = np.arange(18.0).reshape(9, 2), np.arange(28.0).reshape(14, 2) / 3.0
    out = mmd_permutation_test(x, y, n_perms=n_perms, seed=4)
    pooled = np.vstack([x, y])
    naive = np.array([mmd2_unbiased(pooled[row == 1], pooled[row == 0]) for row in member])
    tie = member[:, :9].sum(axis=1) == 9
    assert np.min(np.abs(naive[~tie] - out.statistic)) > 1e-9
    assert out.p_value == sequential_p_value(tie | (naive >= out.statistic), n_perms, 0.05)


def _argpartition_reference(keys, m):
    member = np.zeros_like(keys)
    np.put_along_axis(member, np.argpartition(keys, m - 1, axis=1)[:, :m], 1.0, axis=1)
    return member


@given(st.integers(1, 6).flatmap(lambda rows: st.integers(2, 12).flatmap(
    lambda total: st.tuples(
        hnp.arrays(np.float64, (rows, total), elements=st.integers(0, 4).map(float)),
        st.integers(1, total - 1)))))
@example((np.array([[0.5, 0.1, 0.5, 0.9, 0.5, 0.2]]), 3))  # three keys tie at the 3rd smallest
@example((np.array([[0.3, 0.3, 0.7, 0.1], [0.2, 0.4, 0.6, 0.8]]), 2))
@example((np.zeros((2, 5)), 4))                             # every key tied
def test_smallest_m_equals_argpartition_with_ties(problem):
    keys, m = problem
    assert np.array_equal(stattest._smallest_m(keys, m), _argpartition_reference(keys, m))


@pytest.mark.parametrize("n_perms, total_n, m", [(300, 23, 9), (257, 2000, 1000), (5, 4, 2)])
def test_mmd_draws_equal_argpartition_reference(n_perms, total_n, m):
    rng = np.random.default_rng(np.random.SeedSequence([6]))
    reference = [_argpartition_reference(rng.random((min(stattest.PERM_CHUNK, n_perms - lo),
                                                     total_n)), m)
                 for lo in range(0, n_perms, stattest.PERM_CHUNK)]
    drawn = _draws(6, n_perms, total_n, m)
    assert len(drawn) == len(reference)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, reference))


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (2, 3)])
def test_mmd_draws_of_the_observed_split_count_as_ties(m, n):
    # a draw of the observed X-set (or, when m == n, its swap) counts however
    # its permuted value rounds; every other draw is clear of the observed value
    rng = np.random.default_rng(m * 10 + n)
    for seed in range(5):
        x = rng.normal(size=(m, 2))
        y = 50.0 + rng.normal(size=(n, 2))
        pooled = np.vstack([x, y])
        out = mmd_permutation_test(x, y, n_perms=50, seed=seed)
        member = np.vstack(_draws(seed, 50, m + n, m))
        kept = member[:, :m].sum(axis=1)
        tie = (kept == m) | ((kept == 0) & (m == n))
        others = np.array([mmd2_unbiased(pooled[row == 1], pooled[row == 0])
                           for row in member[~tie]])
        assert tie.any()
        assert np.min(np.abs(others - out.statistic)) > 1e-9
        hits = tie.copy()
        hits[~tie] = others > out.statistic
        assert out.p_value == sequential_p_value(hits, 50, 0.05)


def test_mmd_draws_are_prefix_stable():
    full = np.vstack(_draws(11, 1000, 30, 12))
    for k in (1, 127, 128, 129, 256, 257, 500):
        assert np.array_equal(np.vstack(_draws(11, k, 30, 12)), full[:k])
    assert not np.array_equal(np.vstack(_draws(12, 1000, 30, 12)), full)


@pytest.mark.parametrize("half", [10, 200])
def test_mmd_outcome_does_not_depend_on_chunk_size(half):
    rng = np.random.default_rng(half)
    x, y = rng.normal(size=(half, 5)), rng.normal(0.1, 1.0, size=(half, 5))
    default = mmd_permutation_test(x, y, n_perms=300, seed=21)
    for chunk in (1, 7, 128, stattest.PERM_CHUNK):
        with mock.patch.object(stattest, "PERM_CHUNK", chunk):
            assert mmd_permutation_test(x, y, n_perms=300, seed=21) == default


@pytest.mark.parametrize("block", [1, 100, 320, 1 << 20])
def test_kernel_row_blocks_keep_every_bit(block):
    # blocks of 1, 2, 7 and all 45 rows: each entry gets the whole-matrix
    # operations in the same order
    rng = np.random.default_rng(block)
    z = rng.normal(size=(45, 6)) * 3.0
    norms = np.sum(z * z, axis=1)
    gram = z @ z.T
    gram *= 2.0
    sq = np.add.outer(norms, norms)
    sq -= gram
    np.maximum(sq, 0.0, out=sq)
    whole = sq * -0.5
    whole /= 0.7 * 0.7
    np.exp(whole, out=whole)
    with mock.patch.object(stattest, "KERNEL_BLOCK_ELEMENTS", block):
        assert np.array_equal(stattest._kernel_matrix(z, 0.7), whole)


def test_kernel_diagonal_is_one_up_to_the_distance_rounding():
    # the self-distance (|z|^2 + |z|^2) - 2 z.z may round to a tiny positive
    # value, so K_ii is not always exactly 1; _mmd2_from_assignments takes it as 1
    diagonals = [np.diag(stattest._kernel_matrix(z, 1.0)) for z in (
        flatten(make_digits(400, seed=0)),
        np.random.default_rng(0).normal(size=(400, 32)) * 2.0,
        np.random.default_rng(1).uniform(size=(400, 16)))]
    for diagonal in diagonals:
        assert (diagonal <= 1.0).all()
        assert np.abs(1.0 - diagonal).max() <= 1e-12
    assert any((diagonal != 1.0).any() for diagonal in diagonals)


def test_mmd_permutation_p_value_counts_drawn_relabelings():
    # the chunked cached-kernel p-value equals counting literal relabelings,
    # for a test that stops early and for one that rejects after every draw
    rng = np.random.default_rng(16)
    x, shift_noise = rng.normal(size=(8, 3)), rng.normal(size=(11, 3))
    member = np.vstack(_draws(8, 200, 19, 8))
    rejects = []
    for shift in (0.4, 3.0):
        y = shift + shift_noise
        pooled = np.vstack([x, y])
        out = mmd_permutation_test(x, y, n_perms=200, seed=8)
        naive = np.array([mmd2_unbiased(pooled[row == 1], pooled[row == 0]) for row in member])
        assert np.min(np.abs(naive - out.statistic)) > 1e-9
        assert out.p_value == sequential_p_value(naive >= out.statistic, 200, 0.05)
        rejects.append(out.reject)
    assert rejects == [False, True]


@st.composite
def _stopping_problem(draw):
    m, n, d = draw(st.integers(2, 8)), draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.sampled_from([0.0, 0.5, 1.5, 4.0]))
    x, y = rng.normal(size=(m, d)), shift + rng.normal(size=(n, d))
    n_perms = draw(st.integers(1, 600))
    alpha = draw(st.one_of(st.sampled_from([0.05, 0.01, 0.1, 0.5]),
                           st.floats(1e-4, 0.999)))
    return x, y, n_perms, alpha, draw(st.integers(0, 2**32 - 1))


@given(_stopping_problem())
@example((np.zeros((2, 1)), 4.0 + np.arange(3.0)[:, None], 999, 0.05, 0))
@example((np.arange(6.0)[:, None], 9.0 + np.arange(6.0)[:, None], 600, 0.05, 3))
def test_mmd_stopped_test_agrees_with_full_count(problem):
    # the early-stopped test decides as counting every draw does, and keeps
    # the full count's p-value whenever it rejects
    x, y, n_perms, alpha, seed = problem
    m, n = len(x), len(y)
    out = mmd_permutation_test(x, y, n_perms=n_perms, alpha=alpha, seed=seed)
    kernel = stattest._kernel_matrix(np.vstack([x, y]), 1.0)
    exceed = 0
    for member in _draws(seed, n_perms, m + n, m):
        values = _from_assignments(kernel, member, m, n)
        kept = member[:, :m].sum(axis=1)
        tie = (kept == m) | ((kept == 0) & (m == n))
        exceed += int(np.sum((values >= out.statistic) | tie))
    full = (1.0 + exceed) / (1.0 + n_perms)
    assert out.reject == (full < alpha) == (out.p_value < alpha)
    if out.reject:
        assert out.p_value == full
    else:
        assert out.p_value >= alpha
    assert 0.0 < out.p_value <= 1.0


def _exceeding_from(first):
    """Stand-in evaluation: the draws from the first-th on (1-based) exceed any observed value."""
    drawn = [0]

    def evaluate(kernel, row_sums, member_x, m, n, scratch):
        index = drawn[0] + np.arange(1, member_x.shape[0] + 1)
        drawn[0] += member_x.shape[0]
        return np.where(index >= first, np.inf, -np.inf)

    return evaluate


@pytest.mark.parametrize("n_perms, alpha, first, p_value, reject", [
    (999, 0.05, 951, 50 / 1000, False),  # h = 49 reached at L = 999: h / L = 0.049 < alpha
    (999, 0.05, 952, 49 / 1000, True),   # 48 exceedances: the full run's add-one estimate
    (99, 0.07, 50, 6 / 55, False),       # 7 / 100 >= 0.07 in floats, so h = 6, L = 55
])
def test_mmd_stopped_p_value_at_the_hth_exceedance(n_perms, alpha, first, p_value, reject):
    rng = np.random.default_rng(30)
    x, y = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))  # no draw repeats the split
    for chunk in (7, stattest.PERM_CHUNK):
        with mock.patch.object(stattest, "PERM_CHUNK", chunk), \
                mock.patch.object(stattest, "_mmd2_from_assignments", _exceeding_from(first)):
            out = mmd_permutation_test(x, y, n_perms=n_perms, alpha=alpha, seed=1)
        assert (out.p_value, out.reject) == (p_value, reject)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 2.0, math.nan])
def test_mmd_permutation_rejects_alpha_outside_unit_interval(alpha):
    x, y = np.zeros((5, 2)), np.ones((5, 2))
    with pytest.raises(ValueError, match="alpha"):
        mmd_permutation_test(x, y, n_perms=10, alpha=alpha)


def test_mmd_entry_points_reject_unequal_widths():
    x, y = np.zeros((6, 3)), np.ones((5, 4))
    for call in (lambda: mmd_permutation_test(x, y, n_perms=10),
                 lambda: mmd2_unbiased(x, y)):
        with pytest.raises(ShiftDetectError, match="^feature counts differ: 3 vs 4$"):
            call()


def test_mmd2_rejects_non_finite():
    x, y = np.zeros((10, 4)), np.zeros((10, 4))
    y[2, 1] = np.nan
    with pytest.raises(ShiftDetectError, match=NON_FINITE):
        mmd2_unbiased(x, y)


def test_mmd_permutation_rejects_non_finite():
    # a NaN pixel among all-zero samples must raise, not yield a (false) rejection
    x, y = np.zeros((10, 4)), np.zeros((10, 4))
    y[2, 1] = np.nan
    with pytest.raises(ShiftDetectError, match=NON_FINITE):
        mmd_permutation_test(x, y, seed=0)
    with pytest.raises(ShiftDetectError, match=NON_FINITE):
        mmd_permutation_test(np.full((3, 2), -np.inf), x[:, :2])


# ---------------------------------------------------------------------------
# chi-squared

def test_chi2_identical_rows():
    x2, p = chi2_independence([[5, 5], [5, 5]])
    assert x2 == 0.0
    assert p == 1.0


def test_chi2_disjoint_hand_case():
    x2, p = chi2_independence([[10, 0], [0, 10]])
    assert abs(x2 - 20.0) < 1e-12
    # df=1 oracle: p = erfc(sqrt(x2 / 2))
    assert abs(p - math.erfc(math.sqrt(10.0))) < 1e-12


def test_chi2_proportional_rows_zero():
    u = np.array([3, 7, 11, 2])
    x2, p = chi2_independence(np.vstack([4 * u, 9 * u]))
    assert abs(x2) < 1e-10
    assert p > 0.999999


def test_chi2_zero_columns_dropped():
    x2_full, p_full = chi2_independence([[10, 0, 5], [2, 0, 9]])
    x2_drop, p_drop = chi2_independence([[10, 5], [2, 9]])
    assert x2_full == x2_drop
    assert p_full == p_drop


def test_chi2_invariances():
    rng = np.random.default_rng(4)
    table = rng.integers(1, 30, size=(2, 6))
    x2, p = chi2_independence(table)
    perm = rng.permutation(6)
    x2_p, p_p = chi2_independence(table[:, perm])
    x2_swap, p_swap = chi2_independence(table[::-1])
    assert abs(x2 - x2_p) < 1e-10
    assert abs(x2 - x2_swap) < 1e-10
    assert abs(p - p_p) < 1e-12
    assert abs(p - p_swap) < 1e-12


def test_chi2_degenerate():
    # both samples in one class: no evidence of shift, as scipy reports for 2x1
    oracle = stats.chi2_contingency([[4], [1]])
    assert chi2_independence([[4, 0], [1, 0]]) == (oracle.statistic, oracle.pvalue) == (0.0, 1.0)
    with pytest.raises(ShiftDetectError, match=EMPTY_ROW):
        chi2_independence([[0, 0], [1, 2]])


@st.composite
def _sparse_table(draw):
    k = draw(st.integers(2, 8))
    table = draw(hnp.arrays(np.int64, (2, k), elements=st.integers(0, 40)))
    empty = draw(hnp.arrays(np.bool_, k))
    table[:, empty] = 0
    return table


@given(_sparse_table())
@example(np.array([[3, 0, 5, 0], [1, 0, 9, 0]]))
@example(np.array([[0, 7, 0], [2, 0, 0]]))
def test_chi2_matches_scipy_contingency_with_empty_columns(table):
    if (table.sum(axis=1) == 0).any():
        with pytest.raises(ShiftDetectError, match=EMPTY_ROW):
            chi2_independence(table)
        return
    x2, p = chi2_independence(table)
    kept = table[:, table.sum(axis=0) > 0]
    oracle = stats.chi2_contingency(kept, correction=False)
    assert x2 == pytest.approx(oracle.statistic, rel=1e-9, abs=1e-12)
    assert p == pytest.approx(oracle.pvalue, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# binomial

def test_binomial_center_clamped():
    assert binomial_two_sided(50, 100) == 1.0


def test_binomial_60_of_100():
    p = binomial_two_sided(60, 100)
    assert abs(p - exact_binomial_two_sided(60, 100)) < 1e-9
    assert abs(p - 0.0569) < 5e-4


def test_binomial_extreme():
    assert abs(binomial_two_sided(100, 100) - 2.0 * 2.0 ** -100) < 1e-40


def test_binomial_symmetry():
    for n in (1, 7, 30, 101):
        for k in range(0, n + 1, max(1, n // 7)):
            assert binomial_two_sided(k, n) == pytest.approx(
                binomial_two_sided(n - k, n), abs=1e-14)


def test_binomial_matches_exact_oracle():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 200))
        k = int(rng.integers(0, n + 1))
        assert binomial_two_sided(k, n) == pytest.approx(
            exact_binomial_two_sided(k, n), abs=1e-9)


@given(st.integers(1, 2000).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example((0, 2000))
@example((1000, 2000))
@example((1001, 2000))
@example((1999, 2000))
@example((1, 1075))  # about 5e-321: binomtest underflows to 0
def test_binomial_matches_scipy_binomtest(problem):
    k, n = problem
    # below the smallest normal double neither side keeps relative precision
    assert binomial_two_sided(k, n) == pytest.approx(
        stats.binomtest(k, n, 0.5).pvalue, rel=1e-9, abs=np.finfo(np.float64).tiny)


def test_binomial_bad_counts():
    with pytest.raises(ShiftDetectError, match="^successes=5, n=4$"):
        binomial_two_sided(5, 4)
    with pytest.raises(ShiftDetectError, match="^successes=0, n=0$"):
        binomial_two_sided(0, 0)


# ---------------------------------------------------------------------------
# dispatch

def _cont(values):
    return Representation(values=np.asarray(values, float))


def test_dispatch_univariate_uses_bonferroni_over_columns():
    rng = np.random.default_rng(8)
    src = _cont(rng.normal(size=(80, 10)))
    tgt = _cont(rng.normal(size=(80, 10)))
    out = dispatch_test(src, tgt, DrKind.BBSDS, TestMode.UNIVARIATE, alpha=0.05)
    assert out.test_tag == TestTag.KS_BONFERRONI
    assert out.reject == (out.statistic < 0.05 / 10)


def test_dispatch_identical_representations_accept():
    rng = np.random.default_rng(9)
    src = _cont(rng.normal(size=(50, 4)))
    out = dispatch_test(src, _cont(src.values.copy()), DrKind.PCA,
                        TestMode.UNIVARIATE)
    assert out.p_value == 1.0
    assert not out.reject


def test_dispatch_categorical_goes_to_chi2():
    src = Representation(values=np.zeros(100, dtype=int), arity=10)
    tgt = Representation(values=np.ones(100, dtype=int), arity=10)
    out = dispatch_test(src, tgt, DrKind.BBSDH, TestMode.UNIVARIATE, alpha=1e-6)
    assert out.test_tag == TestTag.CHI2
    assert out.reject  # reduces to the [[100,0],[0,100]] table


def test_dispatch_multivariate_cap():
    rng = np.random.default_rng(10)
    src = _cont(rng.normal(size=(1500, 3)))
    tgt = _cont(rng.normal(size=(1500, 3)))
    with pytest.raises(ShiftDetectError, match="^multivariate mode capped at 1000$"):
        dispatch_test(src, tgt, DrKind.PCA, TestMode.MULTIVARIATE)
    # 1000 target samples are still admissible
    out = dispatch_test(_cont(rng.normal(size=(100, 3))),
                        _cont(rng.normal(size=(1000, 3))),
                        DrKind.PCA, TestMode.MULTIVARIATE, n_perms=20)
    assert out.test_tag == TestTag.MMD_PERM


def test_dispatch_multivariate_cap_applies_to_the_source_too():
    # the kernel is (source + target) rows square: a large source is refused
    # with the same text as a large target
    rng = np.random.default_rng(12)
    src = _cont(rng.normal(size=(stattest.MULTIVARIATE_SAMPLE_CAP + 1, 3)))
    tgt = _cont(rng.normal(size=(10, 3)))
    for a, b in ((src, tgt), (tgt, src)):
        with pytest.raises(ShiftDetectError, match="^multivariate mode capped at 1000$"):
            dispatch_test(a, b, DrKind.PCA, TestMode.MULTIVARIATE, n_perms=20)
    out = dispatch_test(_cont(src.values[:-1]), tgt, DrKind.PCA, TestMode.MULTIVARIATE,
                        n_perms=20)
    assert out.test_tag == TestTag.MMD_PERM


def test_dispatch_classif_refused():
    src = _cont(np.zeros((10, 2)))
    with pytest.raises(ShiftDetectError, match=r"^the domain classifier is tested end-to-end "
                                                r"\(binomial on held-out accuracy\)$"):
        dispatch_test(src, src, DrKind.CLASSIF, TestMode.UNIVARIATE)


def test_dispatch_categorical_multivariate_refused():
    src = Representation(values=np.zeros(10, dtype=int), arity=2)
    with pytest.raises(ShiftDetectError,
                       match="^categorical representations support only the chi-squared path$"):
        dispatch_test(src, src, DrKind.BBSDH, TestMode.MULTIVARIATE)
