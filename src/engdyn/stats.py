"""Nonparametric statistics: Spearman correlation, Mann-Whitney U, and
Bonferroni-corrected pairwise category comparisons.

Everything here is rank-based. Ranking uses average ranks for ties
throughout, and the Mann-Whitney test switches between an exact null
distribution (small untied samples) and the tie-corrected normal
approximation with continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, UndefinedCorrelation

EXACT_LIMIT = 8  # per-sample cutoff; enumeration stays <= C(16, 8) labelings


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    p_value: float
    n: int


class MannWhitneyResult(NamedTuple):
    u: float  # U statistic of the first sample
    p_value: float


def rank_average(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their positions."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="mergesort")
    sorted_a = a[order]
    # runs of equal values in sorted order; NaN != NaN, so each NaN is its own
    first = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
    last = np.r_[first[1:], len(a)] - 1
    ranks = np.empty(len(a), dtype=float)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with the two-tailed t-approximation p-value.

    rho is the Pearson correlation of the average-rank vectors; the p-value
    uses t = rho * sqrt((n-2) / (1-rho^2)) on n-2 degrees of freedom, with
    p = 0 at rho = +/-1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise InvalidInput(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise InvalidInput(f"need at least 3 pairs, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInput("inputs contain non-finite values")

    rx = rank_average(x)
    ry = rank_average(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise UndefinedCorrelation("a rank vector has zero variance")
    rho = float(dx @ dy) / math.sqrt(vx * vy)
    rho = max(-1.0, min(1.0, rho))

    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = t_two_sided_p(t, n - 2)
    return CorrelationResult(rho=rho, p_value=p, n=n)


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t on ``df`` degrees of freedom.

    This is I_x(df/2, 1/2), the regularized incomplete beta at
    x = df / (df + t^2), computed as a tail, never as 1 - (central mass):
    for df >= 30 and t^2 <= df by DiDonato and Morris's asymptotic series
    in erfc (BGRAT); otherwise by the incomplete beta's continued fraction,
    whose complement 1 - I_{1-x}(1/2, df/2) is taken only where the result
    exceeds about 0.1. Relative error stays below 1e-12 wherever the
    result exceeds 1e-300 (tests/test_stats.py checks it against mpmath).
    """
    a = 0.5 * df
    s = t * t
    if a >= 15.0 and s <= df:
        return _t_tail_series(a, s)
    if math.isinf(s):
        return 0.0
    x = df / (df + s)
    y = s / (df + s)
    # x^a y^(1/2) / B(a, 1/2), with B(a, 1/2) = sqrt(pi) Gamma(a) / Gamma(a + 1/2)
    front = (math.exp(-a * math.log1p(s / df)) * math.sqrt(y)
             * _half_gamma_ratio(a) / math.sqrt(math.pi))
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


def _half_gamma_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a); its asymptotic series above 100, where
    the series is exact to double precision (a lgamma difference is not)."""
    if a < 100.0:
        return math.gamma(a + 0.5) / math.gamma(a)
    r = 1.0 / a
    return math.sqrt(a) * (1.0 + r * (-1.0 / 8 + r * (1.0 / 128 + r * (5.0 / 1024 + r * (
        -21.0 / 32768 + r * (-399.0 / 262144 + r * 869.0 / 4194304))))))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (modified Lentz), without the
    x^a (1-x)^b / (a B(a, b)) factor; converges fast for x < (a+1)/(a+b+2)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):  # about 40 at most where it is used
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _series_coefficients(b: float, count: int) -> tuple[float, ...]:
    """p_1..p_count of DiDonato and Morris (1992), eq. 9.4."""
    p = [1.0]
    for n in range(1, count + 1):
        acc = sum((m * b - n) * p[n - m] / math.factorial(2 * m + 1)
                  for m in range(1, n))
        p.append(acc / n + (b - 1.0) / math.factorial(2 * n + 1))
    return tuple(p[1:])


_HALF_SERIES = _series_coefficients(0.5, 30)


def _t_tail_series(a: float, s: float) -> float:
    """I_x(a, 1/2) with x = 2a / (2a + s), for a >= 15 and s <= 2a.

    BGRAT (DiDonato and Morris 1992, eq. 9-9.6) at b = 1/2, where the
    incomplete gamma Q(1/2, u) is erfc(sqrt(u)):
    I = Gamma(a + 1/2) / (Gamma(a) sqrt(T)) * sum_n p_n K_n with
    T = a - 1/4, u = -T log x, K_0 = erfc(sqrt(u)) and K_n by recurrence.
    """
    big_t = a - 0.25
    lx = -math.log1p(s / (2.0 * a))
    u = -big_t * lx
    k = math.erfc(math.sqrt(u))
    h = math.sqrt(u / math.pi) * math.exp(-u)  # u^(1/2) e^-u / Gamma(1/2)
    total = k
    lx2 = 0.25 * lx * lx
    lxp = 1.0
    t4 = 4.0 * big_t * big_t
    b2n = 0.5
    for pn in _HALF_SERIES:
        k = (b2n * (b2n + 1.0) * k + (u + b2n + 1.0) * h * lxp) / t4
        lxp *= lx2
        b2n += 2.0
        r = pn * k
        total += r
        if abs(r) <= 1e-16 * abs(total):
            break
    # at t = 0 the rounded series can read 1 + a few ulps
    return min(1.0, _half_gamma_ratio(a) / math.sqrt(big_t) * total)


@lru_cache(maxsize=None)
def _u_counts(n1: int, n2: int) -> tuple[int, ...]:
    """Null distribution of U for untied samples: counts of each U value.

    Recursion on whether the largest observation belongs to the first
    sample: c(n1, n2, u) = c(n1-1, n2, u-n2) + c(n1, n2-1, u).
    """
    if n1 == 0 or n2 == 0:
        return (1,)
    drop_x = _u_counts(n1 - 1, n2)
    drop_y = _u_counts(n1, n2 - 1)
    out = [0] * (n1 * n2 + 1)
    for u in range(len(out)):
        if 0 <= u - n2 < len(drop_x):
            out[u] += drop_x[u - n2]
        if u < len(drop_y):
            out[u] += drop_y[u]
    return tuple(out)


def _exact_p(u: float, n1: int, n2: int) -> float:
    """Two-sided p of U for untied samples, from the exact null."""
    counts = _u_counts(n1, n2)
    total = math.comb(n1 + n2, n1)
    # untied samples make U an integer
    ui = int(round(u))
    p_le = sum(counts[: ui + 1]) / total
    p_ge = sum(counts[ui:]) / total
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_p(u: float, n1: int, n2: int, tie_term: float) -> float:
    """Two-sided p of U by the normal approximation, with tie-corrected
    variance and continuity correction."""
    n = n1 + n2
    mu = 0.5 * n1 * n2
    variance = n1 * n2 * (n + 1) / 12.0 * (1.0 - tie_term)
    if variance <= 0.0:
        return 1.0  # every observation tied; U is pinned at its mean
    sd = math.sqrt(variance)
    p_le = normal_cdf((u - mu + 0.5) / sd)
    p_ge = normal_cdf(-(u - mu - 0.5) / sd)
    return min(1.0, 2.0 * min(p_le, p_ge))


def mann_whitney_u(x: Sequence[float], y: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test; returns (U of x, p-value).

    The p-value enumerates the exact null distribution when both samples
    have at most ``EXACT_LIMIT`` values and no ties are present, and
    otherwise comes from the normal approximation with tie-corrected
    variance and continuity correction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise InvalidInput("samples must be non-empty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInput("inputs contain non-finite values")

    n1, n2 = len(x), len(y)
    pooled = np.concatenate([x, y])
    ranks = rank_average(pooled)
    u1 = float(ranks[:n1].sum()) - 0.5 * n1 * (n1 + 1)

    _, tie_counts = np.unique(pooled, return_counts=True)
    has_ties = bool(np.any(tie_counts > 1))
    n = n1 + n2
    tie_term = float(((tie_counts.astype(float) ** 3 - tie_counts).sum())
                     / (n ** 3 - n)) if n > 1 else 0.0

    if not has_ties and n1 <= EXACT_LIMIT and n2 <= EXACT_LIMIT:
        return MannWhitneyResult(u1, _exact_p(u1, n1, n2))
    return MannWhitneyResult(u1, _normal_p(u1, n1, n2, tie_term))


@dataclass
class PairwiseTestMatrix:
    """Symmetric matrix of pairwise two-tailed Mann-Whitney p-values."""

    metric_name: str
    categories: tuple[str, ...]
    p_values: np.ndarray  # NaN diagonal
    corrected_threshold: float

    @property
    def n_pairs(self) -> int:
        k = len(self.categories)
        return k * (k - 1) // 2

    def frac_significant(self, threshold: float | None = None) -> float:
        cutoff = self.corrected_threshold if threshold is None else threshold
        upper = self.p_values[np.triu_indices(len(self.categories), 1)]
        return int(np.count_nonzero(upper < cutoff)) / len(upper)

    def summary(self) -> dict:
        return {
            "metric": self.metric_name,
            "n_pairs": self.n_pairs,
            "threshold": self.corrected_threshold,
            "frac_significant": self.frac_significant(),
        }


def pairwise_category_tests(
    samples: Mapping[str, Sequence[float]],
    metric_name: str,
    alpha_level: float = 0.05,
) -> PairwiseTestMatrix:
    """Two-tailed Mann-Whitney tests between every pair of categories.

    ``samples`` maps each category to its values, in the order the matrix
    lists them; every pair of them is tested. The Bonferroni threshold
    divides ``alpha_level`` by the number of pairs.
    """
    if not (0.0 < alpha_level < 1.0):
        raise InvalidInput("alpha_level must lie in (0, 1)")
    if len(samples) < 2:
        raise InvalidInput("need at least 2 categories with 2+ topics each")

    categories = tuple(samples)
    k = len(categories)
    matrix = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            _, p = mann_whitney_u(samples[categories[i]], samples[categories[j]])
            matrix[i, j] = matrix[j, i] = p

    n_pairs = k * (k - 1) // 2
    return PairwiseTestMatrix(
        metric_name=metric_name,
        categories=categories,
        p_values=matrix,
        corrected_threshold=alpha_level / n_pairs,
    )
