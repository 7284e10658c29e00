import math

import numpy as np
import pytest

from engdyn import curvefit
from engdyn.errors import InvalidInput
from engdyn.metrics import love_hate
from engdyn.model import build_series, parse_posts
from engdyn.synth import (CORPUS_EPOCH, SynthSpec, default_corpus_specs,
                          generate_corpus, generate_topic, sample_times,
                          sign_test_corpus_specs)

from conftest import table_of


def truncated_cdf(t, alpha, beta, horizon):
    f = lambda u: curvefit.sigmoid(u, alpha, beta)
    return (f(t) - f(0.0)) / (f(horizon) - f(0.0))


class TestSampleTimes:
    def test_empirical_cdf_matches_law(self):
        # Kolmogorov-Smirnov distance of 100k draws against the target CDF
        spec = SynthSpec("t", 0.01, 600.0, 1400.0, 100_000, noise_seed=1)
        times = sample_times(spec)
        ecdf = np.arange(1, len(times) + 1) / len(times)
        cdf = truncated_cdf(times, spec.alpha_true, spec.beta_true,
                            spec.horizon_days)
        ks = float(np.max(np.abs(ecdf - cdf)))
        assert ks < 0.01

    def test_steep_law_concentrates_near_midpoint(self):
        spec = SynthSpec("t", 5.0, 700.0, 1400.0, 1000, noise_seed=0)
        times = sample_times(spec)
        assert np.all(times >= 700.0 - 10.0 / 5.0)
        assert np.all(times <= 700.0 + 10.0 / 5.0)

    def test_sorted_and_in_window(self):
        spec = SynthSpec("t", 0.004, 900.0, 1200.0, 3000, noise_seed=3)
        times = sample_times(spec)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0 and times[-1] <= 1200.0

    def test_fixed_seed_reproduces(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 100, noise_seed=4)
        assert np.array_equal(sample_times(spec), sample_times(spec))

    def test_topic_id_decorrelates_streams(self):
        a = SynthSpec("first", 0.01, 500.0, 1400.0, 50, noise_seed=4)
        b = SynthSpec("second", 0.01, 500.0, 1400.0, 50, noise_seed=4)
        assert not np.array_equal(sample_times(a), sample_times(b))


class TestGenerateTopic:
    def test_pure_love_target(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 500, lh_target=1.0,
                         noise_seed=5)
        posts = generate_topic(spec)
        assert all(p.angry == 0 for p in posts)
        assert love_hate(table_of(posts), "pooled") == 1.0

    def test_neutral_target_concentrates(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 10_000, lh_target=0.0,
                         noise_seed=6)
        pooled = love_hate(table_of(generate_topic(spec)), "pooled")
        assert abs(pooled) < 0.02

    def test_designed_target_within_binomial_ci(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 10_000, lh_target=0.4,
                         reaction_rate=8.0, noise_seed=7)
        posts = generate_topic(spec)
        total = sum(p.love + p.angry for p in posts)
        pooled = love_hate(table_of(posts), "pooled")
        half_width = 4.0 / math.sqrt(total)  # 2 binomial SDs on (l-h)/(l+h)
        assert abs(pooled - 0.4) < half_width

    def test_timestamps_sorted_within_window(self):
        spec = SynthSpec("t", 0.01, 400.0, 900.0, 300, noise_seed=8)
        posts = generate_topic(spec)
        stamps = [p.timestamp for p in posts]
        assert stamps == sorted(stamps)
        assert stamps[0] >= CORPUS_EPOCH
        assert (stamps[-1] - CORPUS_EPOCH).total_seconds() <= 900.0 * 86400.0

    def test_engagement_split_covers_all_channels(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 2000, noise_seed=9)
        posts = generate_topic(spec)
        likes = sum(p.likes for p in posts)
        shares = sum(p.shares for p in posts)
        comments = sum(p.comments for p in posts)
        total = likes + shares + comments
        assert total > 0
        for part in (likes, shares, comments):
            assert abs(part / total - 1.0 / 3.0) < 0.01

    def test_validation(self):
        with pytest.raises(InvalidInput):
            SynthSpec("t", -0.01, 500.0, 1400.0, 100)
        with pytest.raises(InvalidInput):
            SynthSpec("t", 0.01, 500.0, 1400.0, 1)
        with pytest.raises(InvalidInput):
            SynthSpec("t", 0.01, 500.0, 1400.0, 100, lh_target=1.5)
        with pytest.raises(InvalidInput):
            SynthSpec("", 0.01, 500.0, 1400.0, 100)


class TestGenerateCorpus:
    def test_counts_preserved(self, tmp_path):
        specs = [SynthSpec(f"s{i}", 0.01, 400.0, 1000.0, 10 + i, noise_seed=1)
                 for i in range(3)]
        posts_path = tmp_path / "posts.jsonl"
        cats_path = tmp_path / "cats.csv"
        generate_corpus(specs, {"s0": ["Politics"], "s1": [], "s2": ["Health"]},
                        posts_path, cats_path)
        result = parse_posts(posts_path.read_text().splitlines())
        assert result.rejects == ()
        by_topic = {tid: len(result.records.topic(tid))
                    for tid in result.records.topic_ids}
        assert by_topic == {"s0": 10, "s1": 11, "s2": 12}
        assert "s0,Politics" in cats_path.read_text()

    def test_duplicate_topic_rejected(self, tmp_path):
        specs = [SynthSpec("dup", 0.01, 400.0, 1000.0, 5),
                 SynthSpec("dup", 0.02, 300.0, 1000.0, 5)]
        with pytest.raises(InvalidInput):
            generate_corpus(specs, {}, tmp_path / "p.jsonl", tmp_path / "c.csv")

    def test_byte_determinism(self, tmp_path):
        specs, cats = default_corpus_specs(4, seed=11, n_posts=(20, 40))
        blobs = []
        for name in ("one", "two"):
            p = tmp_path / f"{name}.jsonl"
            c = tmp_path / f"{name}.csv"
            generate_corpus(specs, cats, p, c)
            blobs.append(p.read_bytes() + c.read_bytes())
        assert blobs[0] == blobs[1]


class TestCorpusDesigns:
    def test_default_corpus_parameter_ranges(self):
        specs, cats = default_corpus_specs(40, seed=3, n_posts=(50, 100))
        assert len(specs) == 40
        assert all(0.001 <= s.alpha_true <= 0.005 for s in specs)
        assert all(600.0 <= s.beta_true <= 1000.0 for s in specs)
        assert all(cats[s.topic_id] for s in specs)

    def test_default_corpus_fits_concentrate_at_small_slopes(self):
        # fitted slopes should stay in the flat-growth band the design
        # targets; window truncation inflates the steepest fits slightly
        specs, _ = default_corpus_specs(30, seed=21, n_posts=(300, 600))
        fitted = []
        for spec in specs:
            series = build_series(table_of(generate_topic(spec)), spec.topic_id)
            fitted.append(curvefit.fit(series).alpha_hat)
        assert float(np.median(fitted)) <= 0.0047
        assert max(fitted) < 0.01

    def test_sign_corpus_designed_lh_decreases_in_si(self):
        specs, _ = sign_test_corpus_specs(50, seed=1, n_posts=10)
        from engdyn.metrics import speed_index
        si = [speed_index(s.alpha_true, s.beta_true, s.horizon_days)
              for s in specs]
        lh = [s.lh_target for s in specs]
        order = np.argsort(si)
        assert np.corrcoef(np.asarray(si)[order], np.asarray(lh)[order])[0, 1] < -0.9
