import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engdyn import cli
from engdyn.errors import InvalidInput, UndefinedCorrelation
from engdyn.stats import (_exact_p, _normal_p, mann_whitney_u, normal_cdf,
                          pairwise_category_tests, rank_average, spearman,
                          t_two_sided_p)


# ------------------------------------------------------------- oracles

def oracle_ranks(values):
    """Average ranks by direct counting, no sorting."""
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def loop_rank_average(values):
    """The run-by-run loop that rank_average replaced, kept as its oracle."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(len(a), dtype=float)
    i = 0
    sorted_a = a[order]
    while i < len(a):
        j = i
        while j + 1 < len(a) and sorted_a[j + 1] == sorted_a[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def oracle_spearman_rho(x, y):
    rx, ry = oracle_ranks(x), oracle_ranks(y)
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def oracle_mwu_exact(x, y):
    """Two-tailed p by full enumeration of group labelings, in rationals."""
    n1 = len(x)
    pooled = list(x) + list(y)
    ranks = oracle_ranks(pooled)
    u_obs = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    us = []
    for combo in itertools.combinations(range(len(pooled)), n1):
        us.append(sum(ranks[i] for i in combo) - n1 * (n1 + 1) / 2.0)
    total = len(us)
    n_le = sum(1 for u in us if u <= u_obs)
    n_ge = sum(1 for u in us if u >= u_obs)
    p = 2 * Fraction(min(n_le, n_ge), total)
    return u_obs, min(p, Fraction(1))


def tie_term(x, y):
    """sum(t^3 - t) / (n^3 - n) over the tie groups t of the pooled sample."""
    pooled = list(x) + list(y)
    n = len(pooled)
    groups = [pooled.count(v) for v in set(pooled)]
    return sum(t ** 3 - t for t in groups) / (n ** 3 - n)


# ------------------------------------------------------------- spearman

class TestSpearman:
    def test_perfect_antimonotone(self):
        result = spearman([1, 2, 3], [3, 2, 1])
        assert result.rho == -1.0
        assert result.p_value == 0.0

    def test_tied_data_matches_oracle(self):
        x = [1, 2, 2, 3]
        y = [1, 2, 3, 4]
        assert spearman(x, y).rho == pytest.approx(
            oracle_spearman_rho(x, y), abs=1e-12)

    def test_random_datasets_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            # integer draws force ties, floats keep variety
            if rng.random() < 0.5:
                x = rng.integers(0, 6, n).astype(float)
                y = rng.integers(0, 6, n).astype(float)
            else:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            try:
                got = spearman(x, y)
            except UndefinedCorrelation:
                assert len(set(x.tolist())) == 1 or len(set(y.tolist())) == 1
                continue
            assert got.rho == pytest.approx(oracle_spearman_rho(x, y),
                                            abs=1e-12)
            assert 0.0 <= got.p_value <= 1.0

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = spearman(x, y).rho
        assert spearman(np.exp(x), y).rho == base
        assert spearman(x, y ** 3).rho == base
        assert spearman(np.exp(x), y ** 3).rho == base

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=30,
                    unique=True))
    @settings(max_examples=100, deadline=None)
    def test_self_correlation(self, x):
        assert spearman(x, x).rho == 1.0
        assert spearman(x, [-v for v in x]).rho == -1.0

    def test_errors(self):
        with pytest.raises(InvalidInput):
            spearman([1, 2], [1, 2])
        with pytest.raises(InvalidInput):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(InvalidInput):
            spearman([1, 2, math.nan], [1, 2, 3])
        with pytest.raises(UndefinedCorrelation):
            spearman([5, 5, 5], [1, 2, 3])

    def test_rank_average(self):
        assert rank_average([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]

    # a small pool forces ties, NaN, signed zeros and infinities together
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 2.5]),
        st.floats()), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_rank_average_matches_loop(self, values):
        assert rank_average(values).tobytes() == \
            loop_rank_average(values).tobytes()

    def test_agrees_with_scipy(self):
        from scipy.stats import spearmanr
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            x = rng.integers(0, 10, n).astype(float)
            y = x + rng.normal(0, 2, n)
            if len(set(x.tolist())) < 2:
                continue
            ours = spearman(x, y)
            ref_rho, ref_p = spearmanr(x, y)
            assert ours.rho == pytest.approx(ref_rho, abs=1e-12)
            assert ours.p_value == pytest.approx(ref_p, abs=1e-10)


# ---------------------------------------------------------- mann-whitney

class TestMannWhitney:
    def test_clean_separation(self):
        u, p = mann_whitney_u([1, 2], [3, 4])
        assert u == 0.0
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_interleaved_small_sample(self):
        u, p = mann_whitney_u([1, 3], [2, 4])
        assert p > 0.6

    def test_all_tied(self):
        u, p = mann_whitney_u([5, 5, 5], [5, 5, 5])
        assert u == 4.5
        assert p == 1.0

    def test_exact_matches_enumeration_across_sizes(self):
        rng = np.random.default_rng(17)
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                for _ in range(10):
                    x = rng.permutation(np.arange(n1 + n2) + 1.0)[:n1]
                    y = np.setdiff1d(np.arange(n1 + n2) + 1.0, x)
                    # untied samples of at most 8 take the exact test
                    u, p = mann_whitney_u(x, y)
                    assert p == _exact_p(u, n1, n2)
                    u_ref, p_ref = oracle_mwu_exact(list(x), list(y))
                    assert u == u_ref
                    assert abs(p - float(p_ref)) < 1e-12

    def test_one_sided_alternatives(self):
        # The test is two-sided only: U stays the U of x, and p is twice the
        # smaller one-sided tail, here P(U >= 4) = 1/6 (P(U <= 4) = 1).
        u, p = mann_whitney_u([3, 4], [1, 2])
        assert u == 4.0
        assert p == pytest.approx(2.0 * (1.0 / 6.0), abs=1e-12)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=12),
           st.lists(st.integers(0, 9), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_complement_identity(self, x, y):
        u_xy, _ = mann_whitney_u(x, y)
        u_yx, _ = mann_whitney_u(y, x)
        assert u_xy + u_yx == pytest.approx(len(x) * len(y), abs=1e-9)

    def test_exact_and_normal_agree_loosely_at_eight(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pool = rng.permutation(np.arange(16, dtype=float))
            x, y = pool[:8], pool[8:]
            u, _ = mann_whitney_u(x, y)
            p_exact = _exact_p(u, 8, 8)
            p_normal = _normal_p(u, 8, 8, 0.0)
            assert abs(p_exact - p_normal) < 0.05

    def test_auto_switches_to_normal_on_ties(self):
        # tied data cannot use the exact table; the normal approximation answers
        x, y = [1, 2, 2], [2, 3, 4]
        u, p = mann_whitney_u(x, y)
        assert 0.0 <= p <= 1.0
        assert p == _normal_p(u, 3, 3, tie_term(x, y))

    def test_auto_switches_to_normal_on_size(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=30)
        y = rng.normal(size=30) + 2.0
        u, p = mann_whitney_u(x, y)
        assert p < 0.001
        assert p == _normal_p(u, 30, 30, 0.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInput):
            mann_whitney_u([], [1.0])

    def test_p_capped_at_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        _, p = mann_whitney_u(x, x.copy())
        assert p <= 1.0

    def test_normal_approx_agrees_with_scipy(self):
        from scipy.stats import mannwhitneyu
        rng = np.random.default_rng(29)
        for _ in range(25):
            n1 = int(rng.integers(5, 40))
            n2 = int(rng.integers(5, 40))
            x = rng.integers(0, 12, n1).astype(float)  # ties guaranteed
            y = rng.integers(0, 12, n2).astype(float) + rng.integers(0, 3)
            u, _ = mann_whitney_u(x, y)
            p = _normal_p(u, n1, n2, tie_term(x.tolist(), y.tolist()))
            ref = mannwhitneyu(x, y, alternative="two-sided",
                               method="asymptotic", use_continuity=True)
            assert u == pytest.approx(ref.statistic, abs=1e-9)
            assert p == pytest.approx(ref.pvalue, abs=1e-12)


# ------------------------------------------------- p-value distributions

# grid and bound fixed before the implementation was first run against them
T_DFS = (1, 2, 3, 5, 10, 30, 100, 198, 1000, 10000)
T_VALUES = (1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0)
REL_BOUND = 1e-12
SMALLEST_CHECKED = 1e-300  # below it a double has lost relative precision


def mp_t_two_sided(t, df):
    """P(|T| >= t) = I_x(df/2, 1/2), x = df / (df + t^2), at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        return mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                              regularized=True)


def assert_relative(value, ref):
    assert 0.0 <= value <= 1.0
    if ref >= SMALLEST_CHECKED:
        assert abs(value - ref) <= REL_BOUND * ref, (value, ref)


class TestPValueDistributions:
    @pytest.mark.parametrize("df", T_DFS)
    def test_t_tail_matches_mpmath(self, df):
        for t in T_VALUES:
            ref = mp_t_two_sided(t, df)
            assert_relative(t_two_sided_p(t, df), ref)
            assert t_two_sided_p(-t, df) == t_two_sided_p(t, df)

    def test_normal_cdf_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for z in np.linspace(-37.0, 8.0, 901).tolist():
                assert_relative(normal_cdf(z), mpmath.ncdf(z))
        assert normal_cdf(-40.0) == 0.0 and normal_cdf(40.0) == 1.0

    def test_agree_with_scipy_on_random_draws(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(2026)
        dfs = rng.integers(1, 10_001, 10_000)
        ts = 10.0 ** rng.uniform(-3.0, 2.0, 10_000)
        zs = rng.uniform(-37.0, 8.0, 10_000)
        t_ref = 2.0 * special.stdtr(dfs, -ts)
        z_ref = special.ndtr(zs)
        for df, t, ref in zip(dfs.tolist(), ts.tolist(), t_ref.tolist()):
            assert_relative(t_two_sided_p(t, df), ref)
        for z, ref in zip(zs.tolist(), z_ref.tolist()):
            assert_relative(normal_cdf(z), ref)

    @pytest.mark.parametrize("df", (1, 7, 29, 30, 31, 10**6, 10**9))
    def test_t_tail_edges_stay_in_unit_interval(self, df):
        assert t_two_sided_p(0.0, df) == 1.0
        assert t_two_sided_p(1e200, df) == 0.0
        for t in (1e-8, 1.0, 1e4, 1e8):
            assert 0.0 <= t_two_sided_p(t, df) <= 1.0


# -------------------------------------------------- pairwise category tests

class TestPairwiseCategoryTests:
    def test_bonferroni_bookkeeping_for_ten_categories(self):
        from engdyn.model import CATEGORIES
        rng = np.random.default_rng(1)
        samples = {cat: [float(rng.normal()) for _ in range(3)]
                   for cat in CATEGORIES}
        matrix = pairwise_category_tests(samples, "alpha", alpha_level=0.05)
        assert matrix.categories == CATEGORIES
        assert matrix.n_pairs == 45
        assert matrix.corrected_threshold == 0.05 / 45
        assert matrix.corrected_threshold == pytest.approx(0.0011111, abs=1e-6)

    def test_matrix_symmetric_with_empty_diagonal(self):
        rng = np.random.default_rng(2)
        values = [float(rng.normal()) for _ in range(12)]
        samples = {"Politics": values[0::3], "Health": values[1::3],
                   "Social": values[2::3]}
        matrix = pairwise_category_tests(samples, "speed_index")
        assert matrix.categories == ("Politics", "Health", "Social")
        p = matrix.p_values
        assert np.allclose(p, p.T, equal_nan=True)
        assert np.all(np.isnan(np.diag(p)))
        assert np.all((p[~np.isnan(p)] >= 0) & (p[~np.isnan(p)] <= 1))
        for (i, x), (j, y) in itertools.combinations(enumerate(samples.values()), 2):
            assert p[i, j] == mann_whitney_u(x, y).p_value

    def test_small_category_excluded_with_warning(self, capsys):
        # analyze drops a category with fewer than 2 topics before the
        # pairwise tests and says so on stderr
        values = {tid: (v, v, v, v) for tid, v in
                  {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 5.0}.items()}
        members = {"Politics": ["a", "b"], "Health": ["c", "d"], "Economy": ["e"]}
        summaries, matrices = cli._category_tests(values, members, 0.05)
        err = capsys.readouterr().err.splitlines()
        for name in cli.MATRIX_METRICS:
            assert (f"warning: category 'Economy' has 1 topic(s); excluded from "
                    f"pairwise {name} tests") in err
            assert summaries[name]["excluded_categories"] == ["Economy"]
            assert matrices[name].categories == ("Politics", "Health")
            assert matrices[name].p_values[0, 1] == mann_whitney_u(
                [1.0, 2.0], [3.0, 4.0]).p_value

    def test_fewer_than_two_categories_rejected(self):
        with pytest.raises(InvalidInput) as info:
            pairwise_category_tests({"Politics": [1.0, 2.0]}, "alpha")
        assert str(info.value) == "need at least 2 categories with 2+ topics each"

    def test_summary_keys(self):
        samples = {"Health": [1.5, 2.5], "Politics": [1.0, 2.0]}
        summary = pairwise_category_tests(samples, "love_hate").summary()
        assert set(summary) == {"metric", "n_pairs", "threshold",
                                "frac_significant"}
        assert summary["metric"] == "love_hate"
        assert summary["n_pairs"] == 1
