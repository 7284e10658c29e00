import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engdyn import curvefit, synth
from engdyn.curvefit import (_sigmoid_parts, _truncated_parts, bridge_meat, fit,
                             initial_guess, sigmoid)
from engdyn.errors import (DegenerateFit, EngdynError, InsufficientData,
                           InvalidInput)
from engdyn.model import build_series
from engdyn.stats import spearman

from conftest import series_from_curve
from test_golden import DIGESTS_PATH, environment


def masked_sigmoid(t, alpha, beta):
    """The logistic curve as two masked branches, as ``sigmoid`` computed it
    before it became one ``np.where``: the oracle of its bits."""
    z = np.asarray(alpha * (np.asarray(t, dtype=float) - beta))
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestSigmoid:
    def test_bits_equal_the_masked_branches(self):
        rng = np.random.default_rng(2026)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                   1e-300, -1e-300, 5e-324, -5e-324]
        t = np.concatenate([rng.normal(0.0, 40.0, 20_000),
                            rng.uniform(700.0, 800.0, 500),
                            -rng.uniform(700.0, 800.0, 500),
                            [700.0, -700.0, 745.2, -745.2, 800.0, -800.0],
                            special])
        for alpha, beta in ((1.0, 0.0), (0.003, 250.0), (7.5, -3.0)):
            assert np.array_equal(bits(sigmoid(t, alpha, beta)),
                                  bits(masked_sigmoid(t, alpha, beta)))
        for z in special + [750.0, -750.0]:
            for arg in (z, np.array(z)):  # a Python scalar, a 0-d array
                value = sigmoid(arg, 1.0, 0.0)
                assert type(value) is float
                assert bits(value) == bits(masked_sigmoid(arg, 1.0, 0.0))

    @pytest.mark.parametrize("alpha", [1e-4, 0.01, 1.0, 100.0])
    def test_midpoint_is_half(self, alpha):
        assert sigmoid(123.0, alpha, 123.0) == 0.5

    def test_steep_limit_saturates(self):
        assert sigmoid(1.0, 100.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(-1.0, 100.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_high_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 60
        expected = float(1 / (1 + mpmath.e ** 5))
        assert sigmoid(0.0, 0.01, 500.0) == pytest.approx(expected, rel=1e-15)

    def test_extreme_arguments_stay_finite(self):
        values = sigmoid(np.array([-700.0, 700.0]), 1.0, 0.0)
        assert values[0] == pytest.approx(math.exp(-700.0), rel=1e-12)
        assert values[1] == 1.0
        saturated = sigmoid(np.array([-800.0, 800.0]), 1.0, 0.0)
        assert saturated[0] == 0.0 and saturated[1] == 1.0

    @given(st.floats(-1e3, 1e3), st.floats(1e-4, 10.0), st.floats(-1e3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_output_in_unit_interval(self, t, alpha, beta):
        assert 0.0 <= sigmoid(t, alpha, beta) <= 1.0

    def test_jacobian_matches_central_differences(self):
        # draws keep |alpha*(t-beta)| in [0.5, 6] so both partials are far
        # from the underflow regime where finite differences lose meaning
        rng = np.random.default_rng(77)
        h = 1e-6
        for _ in range(100):
            alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(1.0))))
            beta = float(rng.uniform(0.0, 1000.0))
            z = float(rng.uniform(0.5, 6.0) * rng.choice([-1.0, 1.0]))
            t = beta + z / alpha
            _, da, db = _sigmoid_parts(t, alpha, beta)
            fd_a = (sigmoid(t, alpha + h, beta) - sigmoid(t, alpha - h, beta)) / (2 * h)
            fd_b = (sigmoid(t, alpha, beta + h) - sigmoid(t, alpha, beta - h)) / (2 * h)
            assert abs(da - fd_a) / max(abs(fd_a), 1e-12) < 1e-5
            assert abs(db - fd_b) / max(abs(fd_b), 1e-12) < 1e-5


class TestInitialGuess:
    def test_beta_read_off_midpoint(self):
        t = np.arange(0.0, 1001.0)
        series = series_from_curve(t, sigmoid(t, 0.01, 500.0))
        alpha0, beta0 = initial_guess(series)
        assert abs(beta0 - 500.0) <= 1.0
        assert 0.001 < alpha0 < 0.1

    def test_step_series_hits_clamp_branch(self):
        series = series_from_curve([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        alpha0, _ = initial_guess(series)
        assert alpha0 == 1.0


class TestFit:
    def test_noiseless_recovery_is_exact(self):
        t = np.arange(0.0, 1001.0)
        series = series_from_curve(t, sigmoid(t, 0.01, 500.0))
        result = fit(series)
        assert result.converged
        assert result.alpha_hat == pytest.approx(0.01, rel=1e-6)
        assert result.beta_hat == pytest.approx(500.0, rel=1e-6)
        assert result.rss < 1e-18

    def test_gaussian_noise_recovery_within_three_se(self):
        # 1000 seeded replicates of iid measurement noise on the fractions;
        # joint two-parameter 3-sigma coverage should exceed 99%
        rng = np.random.default_rng(2024)
        t = np.arange(0.0, 1001.0)
        truth = sigmoid(t, 0.005, 300.0)
        hits = 0
        for _ in range(1000):
            series = series_from_curve(t, truth + rng.normal(0.0, 0.01, len(t)))
            r = fit(series)
            if (r.converged
                    and abs(r.alpha_hat - 0.005) <= 3 * r.se_alpha
                    and abs(r.beta_hat - 300.0) <= 3 * r.se_beta):
                hits += 1
        assert hits >= 990

    def test_noisy_series_converge_within_budget(self):
        # the optimizer reaches its gradient tolerance from the heuristic
        # start on generated engagement streams
        converged = 0
        for seed in range(1000):
            spec = synth.SynthSpec("t", 0.01, 500.0, 1400.0, 400,
                                   noise_seed=seed)
            series = build_series(synth.generate_topic(spec), "t")
            r = fit(series)
            if r.converged and r.iterations <= 200:
                converged += 1
        assert converged >= 990

    def test_converged_implies_stationary(self):
        spec = synth.SynthSpec("t", 0.008, 600.0, 1400.0, 500, noise_seed=5)
        series = build_series(synth.generate_topic(spec), "t")
        r = fit(series)
        assert r.converged
        t = np.asarray(series.times)
        y = np.asarray(series.fractions)
        f = sigmoid(t, r.alpha_hat, r.beta_hat)
        core = f * (1 - f)
        grad = np.array([
            np.sum((y - f) * r.alpha_hat * (t - r.beta_hat) * core),
            np.sum((y - f) * -r.alpha_hat * core),
        ])
        assert np.max(np.abs(grad)) < curvefit._GRAD_TOL

    def test_duplication_leaves_estimates_unchanged(self):
        rng = np.random.default_rng(11)
        t = np.arange(0.0, 801.0)
        y = sigmoid(t, 0.01, 350.0) + rng.normal(0.0, 0.01, len(t))
        single = series_from_curve(t, y)
        doubled = series_from_curve(
            np.concatenate([t, t]),
            np.concatenate([y, y]))
        r1, r2 = fit(single), fit(doubled)
        assert r2.alpha_hat == pytest.approx(r1.alpha_hat, rel=1e-9)
        assert r2.beta_hat == pytest.approx(r1.beta_hat, rel=1e-9)

    def test_standard_errors_shrink_with_post_count(self):
        counts, se_a, se_b = [], [], []
        for i, n in enumerate([100, 200, 400, 800, 1600, 3200]):
            for rep in range(4):
                spec = synth.SynthSpec("t", 0.01, 500.0, 1400.0, n,
                                       noise_seed=100 * i + rep)
                r = fit(build_series(synth.generate_topic(spec), "t"))
                counts.append(n)
                se_a.append(r.se_alpha)
                se_b.append(r.se_beta)
        assert spearman(counts, se_a).rho < 0
        assert spearman(counts, se_b).rho < 0

    def test_nonconvergence_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(curvefit, "_MAX_ITER", 1)
        rng = np.random.default_rng(3)
        t = np.arange(0.0, 301.0)
        y = sigmoid(t, 0.02, 150.0) + rng.normal(0.0, 0.05, len(t))
        r = fit(series_from_curve(t, y))
        assert not r.converged
        assert r.iterations == 1

    def test_degenerate_jacobian_raises(self, monkeypatch):
        # start in a fully saturated configuration: f identically 1 at all
        # sample times leaves no usable curvature
        monkeypatch.setattr(curvefit, "initial_guess", lambda series: (100.0, -1e6))
        series = series_from_curve([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateFit):
            fit(series)

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            fit(series_from_curve([0.0, 1.0], [0.5, 1.0]))

    def test_negative_beta_recovered(self):
        # half-saturation before the window start is legal and identifiable
        t = np.arange(0.0, 301.0)
        r = fit(series_from_curve(t, sigmoid(t, 0.02, -30.0)))
        assert r.converged
        assert r.beta_hat == pytest.approx(-30.0, rel=1e-6)

    def test_alpha_always_positive(self):
        rng = np.random.default_rng(8)
        t = np.arange(0.0, 101.0)
        y = np.clip(sigmoid(t, 0.05, 50.0) + rng.normal(0, 0.05, len(t)), 0, 1)
        r = fit(series_from_curve(t, y))
        assert r.alpha_hat > 0


class TestWindowFit:
    def test_truncated_jacobian_matches_central_differences(self):
        # steps sized so rounding in the differences stays near 1e-11
        rng = np.random.default_rng(78)
        h, hb = 1e-5, 1e-2
        for _ in range(50):
            alpha = float(np.exp(rng.uniform(np.log(0.002), np.log(0.05))))
            beta = float(rng.uniform(100.0, 1000.0))
            window = (float(rng.uniform(-50.0, 50.0)),
                      float(rng.uniform(1000.0, 1500.0)))
            t = np.linspace(window[0], window[1], 7)
            _, da, db = _truncated_parts(t, alpha, beta, window)

            def curve(a, b):
                return _truncated_parts(t, a, b, window)[0]
            fd_a = (curve(alpha * (1 + h), beta) - curve(alpha * (1 - h), beta)) \
                / (2 * h * alpha)
            fd_b = (curve(alpha, beta + hb) - curve(alpha, beta - hb)) / (2 * hb)
            assert np.allclose(da, fd_a, rtol=1e-5, atol=1e-6 * np.max(np.abs(fd_a)))
            assert np.allclose(db, fd_b, rtol=1e-5, atol=1e-6 * np.max(np.abs(fd_b)))

    def test_bridge_meat_matches_dense_covariance(self):
        rng = np.random.default_rng(5)
        F = np.sort(rng.uniform(0.0, 1.0, 40))
        F[10] = F[11]  # a tie, as saturated samples of a curve give
        J = rng.normal(size=(40, 2))
        n_posts = 250
        sigma = (np.minimum.outer(F, F) - np.outer(F, F)) / n_posts
        dense = J.T @ sigma @ J
        fast = bridge_meat(F, J, n_posts)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_noiseless_truncated_curve_recovered(self):
        t = np.arange(0.0, 1001.0)
        window = (-20.0, 990.0)
        series = series_from_curve(
            t, _truncated_parts(t, 0.003, 300.0, window)[0], n_posts=1000)
        r = fit(series, window=window)
        assert r.converged
        assert r.alpha_hat == pytest.approx(0.003, rel=1e-6)
        assert r.beta_hat == pytest.approx(300.0, rel=1e-6)

    @pytest.mark.parametrize("window", [(5.0, 5.0), (10.0, 0.0),
                                        (0.0, math.inf), (math.nan, 1.0),
                                        (6.0, 5.0), (math.nan, 10.0)])
    def test_invalid_window_rejected(self, window):
        t = np.arange(0.0, 101.0)
        with pytest.raises(InvalidInput) as info:
            fit(series_from_curve(t, sigmoid(t, 0.1, 50.0)), window=window)
        assert str(info.value) == f"window must be finite with start < end, got {window}"


def digest_series(i):
    """The i-th of 40 generated series, from gentle to step-like slopes and
    every fifth with a handful of posts, and its generator window in series
    days (see ``test_acceptance``)."""
    spec = synth.SynthSpec(f"d{i:02d}", 0.002 * 1.15 ** i, 100.0 + 31.0 * i,
                           1400.0, 4 + i if i % 5 == 4 else 200 + 20 * i,
                           noise_seed=i)
    series = build_series(synth.generate_topic(spec), spec.topic_id)
    shift = (series.t0 - synth.CORPUS_EPOCH).total_seconds() / 86400.0 + 1.0
    return series, (-shift, spec.horizon_days - shift)


class TestFitBytes:
    """The fit's exact results and its work, pinned. The digests are the
    sha256 of the fits' reprs, one line per series; a change to the LM loop
    that claims to keep the fit must reproduce them bit for bit. Like the
    golden digests, they hold for the interpreter and numpy recorded in
    ``golden_digests.json``."""

    @pytest.mark.parametrize("windowed, expected", [
        (False, "0f2ad313937d87e338dbf0aa6d6a0a914ddb1f1765f94d6676450c1fc20bbe90"),
        (True, "11aa6978524ed1838f67595111573778259473004df58d0c053b5d0dcce6d900"),
    ])
    def test_repr_digest(self, windowed, expected):
        recorded = json.loads(DIGESTS_PATH.read_text())["environment"]
        if environment() != recorded:
            pytest.skip(f"digests recorded under {recorded}, "
                        f"running {environment()}")
        lines = []
        for i in range(40):
            series, window = digest_series(i)
            try:
                lines.append(repr(fit(series, window=window if windowed else None)))
            except EngdynError as exc:
                lines.append(type(exc).__name__)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected

    @pytest.mark.parametrize("windowed", [False, True])
    def test_one_curve_evaluation_per_trial(self, windowed, monkeypatch):
        # trials are the damped systems solved (no trial here leaves the
        # finite range, which is skipped unevaluated); the curve is also
        # evaluated at the start and once for the standard errors
        solve, sigmoid_on = np.linalg.solve, curvefit.sigmoid
        trials, on_grid, on_window = [], [], []

        def counting_solve(a, b):
            trials.append(1)
            return solve(a, b)

        def counting_sigmoid(t, alpha, beta):
            (on_grid if np.shape(t) == np.shape(series.times)
             else on_window).append(1)
            return sigmoid_on(t, alpha, beta)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(curvefit, "sigmoid", counting_sigmoid)
        for i in (0, 13, 27):
            series, window = digest_series(i)
            del trials[:], on_grid[:], on_window[:]
            r = fit(series, window=window if windowed else None)
            assert r.converged and len(trials) >= r.iterations > 0
            assert len(on_grid) == len(trials) + 2
            assert len(on_window) == (len(trials) + 2 if windowed else 0)
