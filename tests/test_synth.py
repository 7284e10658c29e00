import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_oracle
from engdyn import curvefit
from engdyn.errors import InvalidInput
from engdyn.metrics import love_hate, speed_index
from engdyn.model import CATEGORIES, build_series, parse_posts, read_categories
from engdyn.synth import (CORPUS_EPOCH, MAX_TOPIC_POSTS, SynthSpec,
                          default_corpus_specs, generate_corpus, generate_topic,
                          sample_times)

EPOCH_US = int(CORPUS_EPOCH.timestamp()) * 10**6


def sign_test_corpus_specs(n_topics: int, seed: int = 0, n_posts: int = 600,
                           ) -> tuple[list[SynthSpec], dict[str, list[str]]]:
    """A corpus where the designed Love-Hate target falls as the designed
    Speed Index rises, for end-to-end sign checks of the pipeline."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51C4]))
    horizon = 1400.0
    raw = []
    for i in range(n_topics):
        alpha = float(np.exp(rng.uniform(np.log(0.002), np.log(0.05))))
        beta = float(rng.uniform(150.0, 1100.0))
        raw.append((f"topic{i:04d}", alpha, beta,
                    speed_index(alpha, beta, horizon)))
    si_values = np.array([r[3] for r in raw])
    lo, hi = float(si_values.min()), float(si_values.max())
    span = (hi - lo) or 1.0
    specs = []
    categories: dict[str, list[str]] = {}
    for i, (topic_id, alpha, beta, si) in enumerate(raw):
        lh = 0.9 - 1.6 * (si - lo) / span  # decreasing in designed SI
        specs.append(SynthSpec(
            topic_id=topic_id,
            alpha_true=alpha,
            beta_true=beta,
            horizon_days=horizon,
            n_posts=n_posts,
            lh_target=float(lh),
            noise_seed=seed,
        ))
        categories[topic_id] = [CATEGORIES[i % len(CATEGORIES)]]
    return specs, categories


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
        table = generate_topic(spec)
        assert not table.column("angry").any()
        assert love_hate(table, "pooled") == 1.0

    def test_neutral_target_concentrates(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 10_000, lh_target=0.0,
                         noise_seed=6)
        pooled = love_hate(generate_topic(spec), "pooled")
        assert abs(pooled) < 0.02

    def test_designed_target_within_binomial_ci(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 10_000, lh_target=0.4,
                         reaction_rate=8.0, noise_seed=7)
        table = generate_topic(spec)
        total = int(table.column("love").sum() + table.column("angry").sum())
        pooled = love_hate(table, "pooled")
        half_width = 4.0 / math.sqrt(total)  # 2 binomial SDs on (l-h)/(l+h)
        assert abs(pooled - 0.4) < half_width

    def test_timestamps_sorted_within_window(self):
        spec = SynthSpec("t", 0.01, 400.0, 900.0, 300, noise_seed=8)
        stamps = generate_topic(spec).stamps_us
        assert np.all(np.diff(stamps) >= 0)
        assert stamps[0] >= EPOCH_US
        assert (stamps[-1] - EPOCH_US) / 1e6 <= 900.0 * 86400.0

    def test_engagement_split_covers_all_channels(self):
        spec = SynthSpec("t", 0.01, 500.0, 1400.0, 2000, noise_seed=9)
        table = generate_topic(spec)
        likes, shares, comments = (int(table.column(name).sum())
                                   for name in ("likes", "shares", "comments"))
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

    def test_posts_per_topic_capped(self):
        SynthSpec("t", 0.01, 500.0, 1400.0, MAX_TOPIC_POSTS)
        with pytest.raises(InvalidInput, match="n_posts must lie in"):
            SynthSpec("t", 0.01, 500.0, 1400.0, MAX_TOPIC_POSTS + 1)
        with pytest.raises(InvalidInput, match="n_posts must lie in"):
            SynthSpec("t", 0.01, 500.0, 1400.0, 10**20)

    def test_law_without_mass_in_the_window_rejected(self):
        # sigmoid is 0.0 at both ends, then 1.0 at both: every draw would land
        # on one window edge
        for beta in (1e6, -1e6):
            with pytest.raises(InvalidInput, match="no mass"):
                SynthSpec("t", 0.01, beta, 1400.0, 100)
        # sigmoid(0) underflows to 0.0 but sigmoid(1400) does not: the draws
        # stay inside the window
        times = sample_times(SynthSpec("t", 0.5, 1600.0, 1400.0, 50))
        assert np.all((times > 0.0) & (times <= 1400.0))

    def test_last_writable_second_bounds_the_horizon(self, tmp_path):
        last_us = 253402300799 * 10**6  # 9999-12-31T23:59:59Z
        horizon = (last_us - EPOCH_US) / 1e6 / 86400.0
        with pytest.raises(InvalidInput, match="9999-12-31"):
            SynthSpec("t", 0.01, horizon, horizon + 1 / 86400.0, 100)
        spec = SynthSpec("t", 0.01, horizon, horizon, 100, noise_seed=2)
        assert generate_topic(spec).stamps_us.max() <= last_us
        posts = tmp_path / "p.jsonl"
        generate_corpus([spec], {}, posts, tmp_path / "c.csv")
        assert parse_posts(posts.read_text().splitlines()).rejects == ()


def assert_same_table(table, expected):
    assert table.topic_ids == expected.topic_ids
    for name in ("bounds", "stamps_us", "counts"):
        got, want = getattr(table, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# ids the JSON writer must escape (quotes, backslashes, control characters,
# non-ASCII), that %-formatting must not read as directives, or that the
# CSV writer must quote
ODD_IDS = st.sampled_from(['é"\\ x ', "日本", "a/b", "a,b", "50%", "%d%s%%",
                           "tab\there", "nul\x00", "\u2028", "\U0001F600"])
TOPIC_IDS = ODD_IDS | st.text(st.characters(exclude_categories=("Cs",)),
                              min_size=1, max_size=8)
# 10/11 and 100/101 posts: the id counter's width steps from 1 to 2 and 2 to 3
SPECS = st.builds(
    SynthSpec, topic_id=TOPIC_IDS, alpha_true=st.floats(0.001, 0.1),
    beta_true=st.floats(0.0, 1500.0), horizon_days=st.floats(1.0, 1600.0),
    n_posts=st.sampled_from([2, 10, 11, 100, 101]) | st.integers(2, 2000),
    lh_target=st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0),
    noise_seed=st.integers(-2**63, 2**64 - 1))


class TestRecordOracle:
    @given(SPECS)
    @settings(max_examples=60, deadline=None)
    def test_table_equals_converted_records(self, spec):
        assert_same_table(generate_topic(spec),
                          record_oracle.table_of(record_oracle.generate_topic(spec)))

    @given(st.lists(SPECS, min_size=1, max_size=3, unique_by=lambda s: s.topic_id))
    @settings(max_examples=40, deadline=None)
    def test_posts_bytes_equal_record_writer(self, specs):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            generate_corpus(specs, {}, tmp / "posts.jsonl", tmp / "c.csv")
            record_oracle.write_posts(specs, tmp / "oracle.jsonl")
            assert ((tmp / "posts.jsonl").read_bytes()
                    == (tmp / "oracle.jsonl").read_bytes())


class TestGenerateCorpus:
    def test_categories_round_trip(self, tmp_path):
        ids = ["plain", "a,b", 'say "hi"', "line\nbreak", " padded "]
        cats = {tid: ["Health", "Politics"][: 1 + i % 2] for i, tid in enumerate(ids)}
        specs = [SynthSpec(tid, 0.01, 400.0, 1000.0, 5) for tid in ids]
        path = tmp_path / "c.csv"
        generate_corpus(specs, cats, tmp_path / "p.jsonl", path)
        assert path.read_text().startswith("topic_id,category\nplain,Health\n")
        assert {tid: sorted(labels)
                for tid, labels in read_categories(path).items()} == cats

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
            series = build_series(generate_topic(spec), spec.topic_id)
            fitted.append(curvefit.fit(series).alpha_hat)
        assert float(np.median(fitted)) <= 0.0047
        assert max(fitted) < 0.01

    def test_sign_corpus_designed_lh_decreases_in_si(self):
        specs, _ = sign_test_corpus_specs(50, seed=1, n_posts=10)
        si = [speed_index(s.alpha_true, s.beta_true, s.horizon_days)
              for s in specs]
        lh = [s.lh_target for s in specs]
        order = np.argsort(si)
        assert np.corrcoef(np.asarray(si)[order], np.asarray(lh)[order])[0, 1] < -0.9
