import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engdyn.curvefit import sigmoid
from engdyn.errors import DomainError, InvalidInput
from engdyn.metrics import love_hate, reaction_totals, speed_index, topic_metrics

from conftest import make_post, table_of


# ------------------------------------------------------------- oracles

def speed_index_quadrature(alpha: float, beta: float, horizon: float,
                           tol: float = 1e-10) -> float:
    """Adaptive Simpson evaluation of the Speed Index's mean value, an
    independent cross-check of the closed form; ``tol`` bounds the error of
    the returned (already T-normalized) value."""
    if alpha <= 0 or horizon <= 0:
        raise DomainError("speed_index requires alpha > 0 and horizon > 0")
    if tol <= 0:
        raise DomainError("tol must be positive")

    def f(t: float) -> float:
        return sigmoid(t, alpha, beta)

    # Seed panels around the transition so a coarse first parabola cannot
    # miss a near-step rise.
    knots = {0.0, horizon}
    for k in (-16.0, -8.0, -4.0, 0.0, 4.0, 8.0, 16.0):
        c = beta + k / alpha
        if 0.0 < c < horizon:
            knots.add(c)
    points = sorted(knots)

    total = 0.0
    budget = tol * horizon  # tolerance for the raw integral
    for a, b in zip(points[:-1], points[1:]):
        share = budget * (b - a) / horizon
        total += _adaptive_simpson(f, a, b, share)
    return min(max(total / horizon, 0.0), 1.0)


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _adaptive_simpson(f, a: float, b: float, eps: float) -> float:
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _adaptive_step(f, a, b, fa, fm, fb, whole, eps, depth=50)


def _adaptive_step(f, a, b, fa, fm, fb, whole, eps, depth) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    half = 0.5 * eps
    return (_adaptive_step(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _adaptive_step(f, m, b, fm, frm, fb, right, half, depth - 1))


class TestSpeedIndex:
    @pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0, 100.0])
    @pytest.mark.parametrize("horizon", [10.0, 1000.0, 2000.0])
    def test_centered_curve_scores_half(self, alpha, horizon):
        assert speed_index(alpha, horizon / 2.0, horizon) == pytest.approx(
            0.5, abs=1e-12)

    def test_near_step_value(self):
        horizon = 1000.0
        assert speed_index(100.0, 0.25 * horizon, horizon) == pytest.approx(
            0.75, abs=1e-3)

    def test_reference_value_against_quadrature(self):
        closed = speed_index(0.005, 300.0, 1000.0)
        quad = speed_index_quadrature(0.005, 300.0, 1000.0, tol=1e-10)
        assert closed == pytest.approx(quad, abs=1e-10)
        assert closed == pytest.approx(0.6657, abs=5e-4)

    def test_independent_quadrature_oracle(self):
        # re-derive the reference value with scipy's quadrature as a second,
        # unrelated integrator
        from scipy.integrate import quad

        area, err = quad(lambda t: sigmoid(t, 0.005, 300.0), 0.0, 1000.0,
                         epsabs=1e-12, epsrel=1e-12)
        assert speed_index(0.005, 300.0, 1000.0) == pytest.approx(
            area / 1000.0, abs=1e-9)

    def test_closed_form_matches_quadrature_on_random_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            alpha = float(np.exp(rng.uniform(np.log(1e-4), np.log(1.0))))
            horizon = float(rng.uniform(10.0, 2000.0))
            beta = float(rng.uniform(0.0, 2.0 * horizon))
            closed = speed_index(alpha, beta, horizon)
            quad = speed_index_quadrature(alpha, beta, horizon, tol=1e-10)
            assert abs(closed - quad) < 1e-9

    def test_quadrature_symmetry_instances(self):
        assert speed_index_quadrature(0.01, 500.0, 1000.0) == pytest.approx(
            0.5, abs=1e-10)
        assert speed_index_quadrature(3.0, 50.0, 100.0) == pytest.approx(
            0.5, abs=1e-10)

    def test_strictly_decreasing_in_beta(self):
        betas = np.linspace(-200.0, 1800.0, 41)
        values = [speed_index(0.01, b, 1000.0) for b in betas]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha,horizon", [(0.0, 10.0), (-1.0, 10.0),
                                               (0.5, 0.0), (0.5, -3.0)])
    def test_domain_errors(self, alpha, horizon):
        with pytest.raises(DomainError):
            speed_index(alpha, 5.0, horizon)
        with pytest.raises(DomainError):
            speed_index_quadrature(alpha, 5.0, horizon)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            speed_index(math.nan, 5.0, 10.0)

    @given(st.floats(1e-4, 10.0), st.floats(-500.0, 1500.0),
           st.floats(10.0, 2000.0))
    @settings(max_examples=150, deadline=None)
    def test_bounded_to_unit_interval(self, alpha, beta, horizon):
        assert 0.0 <= speed_index(alpha, beta, horizon) <= 1.0


class TestLoveHate:
    def test_only_love(self):
        posts = [make_post(love=10, angry=0)]
        assert love_hate(table_of(posts)) == 1.0

    def test_only_angry(self):
        posts = [make_post(love=0, angry=5)]
        assert love_hate(table_of(posts)) == -1.0

    def test_pooled_and_mean_modes_diverge_correctly(self):
        posts = [make_post(love=3, angry=1, post_id="a"),
                 make_post(love=0, angry=0, post_id="b"),
                 make_post(love=1, angry=3, post_id="c")]
        assert love_hate(table_of(posts), "pooled") == 0.0
        # per-post scores +0.5 and -0.5; the zero-reaction post is excluded
        assert love_hate(table_of(posts), "mean_of_posts") == 0.0

    def test_mean_mode_matches_enumeration(self):
        posts = [make_post(love=l, angry=h, post_id=f"{l}-{h}")
                 for l, h in [(4, 1), (0, 2), (0, 0), (7, 7), (1, 0)]]
        explicit = []
        for p in posts:
            if p.love + p.angry > 0:
                explicit.append((p.love - p.angry) / (p.love + p.angry))
        assert love_hate(table_of(posts), "mean_of_posts") == pytest.approx(
            sum(explicit) / len(explicit))

    def test_undefined_when_no_reactions(self):
        posts = [make_post(love=0, angry=0)]
        assert love_hate(table_of(posts), "pooled") is None
        assert love_hate(table_of(posts), "mean_of_posts") is None

    def test_mixed_topics_rejected(self):
        posts = [make_post("a", love=1), make_post("b", love=1)]
        with pytest.raises(InvalidInput):
            love_hate(table_of(posts))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInput):
            love_hate(table_of([make_post(love=1)]), "median")

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=1, max_size=20),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_pooled_scale_invariance(self, pairs, k):
        posts = [make_post(love=l, angry=h, post_id=str(i))
                 for i, (l, h) in enumerate(pairs)]
        scaled = [make_post(love=k * l, angry=k * h, post_id=str(i))
                  for i, (l, h) in enumerate(pairs)]
        base = love_hate(table_of(posts), "pooled")
        if base is None:
            assert love_hate(table_of(scaled), "pooled") is None
        else:
            assert love_hate(table_of(scaled), "pooled") == pytest.approx(base, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                    min_size=1, max_size=25),
           st.sampled_from(["pooled", "mean_of_posts"]))
    @settings(max_examples=100, deadline=None)
    def test_score_bounded(self, pairs, mode):
        posts = [make_post(love=l, angry=h, post_id=str(i))
                 for i, (l, h) in enumerate(pairs)]
        score = love_hate(table_of(posts), mode)
        if score is not None:
            assert -1.0 <= score <= 1.0


class TestTopicMetrics:
    def test_assembly(self):
        posts = [make_post(day=0, likes=5, love=4, angry=1, post_id="a"),
                 make_post(day=9, likes=5, love=0, angry=0, post_id="b")]
        tm = topic_metrics("t", table_of(posts), alpha=0.1, beta=5.0, horizon=9.0)
        assert tm.total_love == 4 and tm.total_angry == 1
        assert tm.lh_score == pytest.approx(0.6)
        assert 0.0 <= tm.speed_index <= 1.0

    def test_reaction_totals(self):
        posts = [make_post(love=2, angry=3, post_id="a"),
                 make_post(love=0, angry=0, post_id="b")]
        assert reaction_totals(table_of(posts)) == (2, 3)
