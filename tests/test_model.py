import calendar
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from engdyn import curvefit, synth
from engdyn.errors import (InsufficientData, InvalidInput, TooManyBins,
                           ZeroEngagement)
from engdyn.model import (CATEGORIES, MAX_BINS, MAX_COUNT, build_series,
                          parse_posts, read_categories)

from conftest import (assert_valid_series, make_post, series_fields,
                      series_from_curve, table_of)


def post_line(**overrides):
    obj = {"post_id": "p1", "topic_id": "t1",
           "timestamp": "2018-01-05T12:00:00Z",
           "likes": 3, "shares": 1, "comments": 2, "love": 1, "angry": 0}
    obj.update(overrides)
    return json.dumps(obj)


class TestParsePosts:
    def test_valid_lines_all_kept(self):
        lines = [post_line(post_id=f"p{i}") for i in range(3)]
        result = parse_posts(lines)
        assert len(result.records) == 3
        assert result.rejects == ()

    def test_negative_count_rejected_with_line_number(self):
        lines = [post_line(), post_line(likes=-1), post_line(post_id="p3")]
        result = parse_posts(lines)
        assert len(result.records) == 2
        assert len(result.rejects) == 1
        lineno, reason = result.rejects[0]
        assert lineno == 2
        assert "likes" in reason

    def test_mixed_valid_and_invalid(self):
        # five good lines with two breakages interleaved
        lines = [
            post_line(post_id="a"),
            "{not json",
            post_line(post_id="b"),
            post_line(post_id="c"),
            post_line(post_id="d", timestamp="yesterday"),
            post_line(post_id="e"),
            post_line(post_id="f"),
        ]
        result = parse_posts(lines)
        assert len(result.records) == 5
        assert [ln for ln, _ in result.rejects] == [2, 5]

    def test_empty_stream_is_not_an_error(self):
        result = parse_posts([])
        assert len(result.records) == 0
        assert result.rejects == ()

    def test_blank_lines_skipped(self):
        result = parse_posts(["", post_line(), "   "])
        assert len(result.records) == 1
        assert result.rejects == ()

    def test_missing_field_rejected(self):
        obj = json.loads(post_line())
        del obj["shares"]
        result = parse_posts([json.dumps(obj)])
        assert len(result.records) == 0
        assert "shares" in result.rejects[0][1]

    def test_naive_timestamp_rejected(self):
        result = parse_posts([post_line(timestamp="2018-01-05T12:00:00")])
        assert len(result.records) == 0

    def test_offset_timestamp_normalized_to_utc(self):
        result = parse_posts([post_line(timestamp="2018-01-05T14:00:00+02:00")])
        # the same instant as 12:00 UTC, in microseconds since the epoch
        assert result.records.stamps_us.tolist() == [
            calendar.timegm((2018, 1, 5, 12, 0, 0)) * 10**6]

    def test_float_count_rejected(self):
        result = parse_posts([post_line(likes=1.5)])
        assert len(result.records) == 0

    def test_repeated_post_id_rejected_after_other_checks(self):
        lines = [post_line(post_id="a"), post_line(post_id="b", likes=5),
                 post_line(post_id="a", likes=-1), post_line(post_id="a", likes=7)]
        result = parse_posts(lines)
        assert result.records.column("likes").tolist() == [3, 5]  # first kept
        assert result.rejects == (
            (3, "likes is negative"),
            (4, "duplicate post_id 'a' (first seen on line 1)"))

    def test_stream_repeated_whole_counts_once(self):
        lines = [post_line(post_id=f"p{i}", topic_id=f"t{i % 4}") for i in range(50)]
        once = parse_posts(lines).records
        twice = parse_posts(lines + lines)
        assert len(twice.records) == 50
        assert twice.records.counts.tolist() == once.counts.tolist()
        assert [ln for ln, _ in twice.rejects] == list(range(51, 101))
        assert twice.rejects[0][1] == "duplicate post_id 'p0' (first seen on line 1)"

    def test_count_above_limit_rejected(self):
        result = parse_posts([post_line(likes=MAX_COUNT),
                              post_line(post_id="p2", likes=MAX_COUNT + 1),
                              post_line(post_id="p3", love=10**30)])
        assert result.records.column("likes").tolist() == [MAX_COUNT]
        assert result.rejects == ((2, "likes exceeds 4294967295"),
                                  (3, "love exceeds 4294967295"))


    def test_lone_surrogate_topic_rejected(self):
        # such an id cannot be written to the UTF-8 outputs; the rejected
        # line's post_id is not taken, so line 4 is no duplicate
        lines = [post_line(post_id="a"), post_line(post_id="b", topic_id="t\ud800"),
                 post_line(post_id="c", topic_id="t\ud800"), post_line(post_id="b")]
        result = parse_posts(lines)
        assert result.rejects == ((2, "topic_id holds a lone surrogate"),
                                  (3, "topic_id holds a lone surrogate"))
        assert result.records.topic_ids == ("t1",) and len(result.records) == 2

    def test_too_deep_json_rejected(self):
        # the decoder raises RecursionError, not ValueError, on these
        lines = [post_line(), "[" * 200_000,
                 '{"post_id": ' + "{\"a\": " * 200_000,
                 post_line(post_id="p4")]
        result = parse_posts(lines)
        assert len(result.records) == 2
        assert [ln for ln, _ in result.rejects] == [2, 3]
        assert all(reason.startswith("maximum recursion depth exceeded")
                   for _, reason in result.rejects)

    def test_timestamp_outside_utc_range_rejected(self):
        lines = [post_line(post_id="early", timestamp="0001-01-01T00:30:00+01:00"),
                 post_line(post_id="late", timestamp="9999-12-31T23:30:00-01:00"),
                 # a stamp's text is judged after the counts
                 post_line(post_id="both", timestamp="0001-01-01T00:00:00+00:01",
                           likes=-1),
                 post_line(post_id="edge", timestamp="0001-01-01T00:30:00+00:30")]
        result = parse_posts(lines)
        assert result.rejects == ((1, "timestamp out of range"),
                                  (2, "timestamp out of range"),
                                  (3, "likes is negative"))
        assert len(result.records) == 1


class TestBuildSeries:
    def test_two_post_arithmetic(self):
        posts = [make_post(day=0, likes=10), make_post(day=10, likes=30)]
        fields = series_fields(build_series(table_of(posts), "t", bin_width=1.0))
        assert fields["times"] == tuple(float(k) for k in range(11))
        assert fields["fractions"] == (0.25,) * 10 + (1.0,)
        assert fields["total_engagement"] == 40
        assert fields["horizon_days"] == 10.0

    def test_series_is_read_only(self):
        posts = [make_post(day=0, likes=10), make_post(day=10, likes=30)]
        series = build_series(table_of(posts), "t")
        for column in (series.times, series.fractions):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.5

    def test_series_copies_the_arrays_it_is_given(self):
        times = np.array([0.0, 1.0, 2.0])
        series = series_from_curve(times, [0.25, 0.5, 1.0])
        times[0] = 9.0  # the caller's array stays writable, and apart
        assert series_fields(series)["times"] == (0.0, 1.0, 2.0)

    def test_single_post_insufficient(self):
        with pytest.raises(InsufficientData):
            build_series(table_of([make_post(day=0)]), "t")

    def test_zero_engagement(self):
        posts = [make_post(day=0, likes=0), make_post(day=5, likes=0)]
        with pytest.raises(ZeroEngagement):
            build_series(table_of(posts), "t")

    def test_all_posts_in_one_bin_insufficient(self):
        posts = [make_post(day=0.1, likes=1), make_post(day=0.4, likes=1)]
        with pytest.raises(InsufficientData):
            build_series(table_of(posts), "t")

    def test_bins_capped(self):
        at_cap = [make_post(day=0), make_post(day=MAX_BINS - 1)]
        assert len(build_series(table_of(at_cap), "t").times) == MAX_BINS
        over = [make_post(day=0), make_post(day=MAX_BINS)]
        with pytest.raises(TooManyBins):
            build_series(table_of(over), "t")

    def test_tiny_bin_width_raises_before_allocating(self):
        posts = [make_post(day=d) for d in range(3000)]
        with pytest.raises(TooManyBins):
            build_series(table_of(posts), "t", bin_width=1e-9)

    def test_year_9999_stamp_raises(self):
        lines = [post_line(post_id="a"),
                 post_line(post_id="b", timestamp="9999-12-31T23:59:59Z")]
        with pytest.raises(TooManyBins):
            build_series(parse_posts(lines).records, "t1")

    def test_terminal_fraction_exactly_one(self):
        posts = [make_post(day=d, likes=k + 1) for d, k in
                 zip([0, 3, 3, 7, 19], range(5))]
        series = build_series(table_of(posts), "t")
        assert series.fractions[-1] == 1.0
        assert_valid_series(series)

    def test_synthetic_series_tracks_generating_curve(self):
        # draw a known law whose mass sits almost entirely inside the window
        spec = synth.SynthSpec("t", alpha_true=0.01, beta_true=500.0,
                               horizon_days=1500.0, n_posts=1000, noise_seed=3)
        series = build_series(synth.generate_topic(spec), "t")
        offset = (series.t0 - synth.CORPUS_EPOCH).total_seconds() / 86400.0
        t = np.asarray(series.times) + offset
        expected = curvefit.sigmoid(t, spec.alpha_true, spec.beta_true)
        deviation = np.max(np.abs(np.asarray(series.fractions) - expected))
        assert deviation < 0.05

    def test_wider_bins(self):
        posts = [make_post(day=0, likes=1), make_post(day=21, likes=1)]
        fields = series_fields(build_series(table_of(posts), "t", bin_width=7.0))
        assert fields["times"] == (0.0, 7.0, 14.0, 21.0)
        assert fields["horizon_days"] == 21.0

    @given(st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 20), st.integers(0, 20)),
        min_size=2, max_size=40), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, raw, rnd):
        posts = [make_post(day=day, likes=likes, shares=shares, post_id=str(i))
                 for i, (day, likes, shares) in enumerate(raw)]
        assume(sum(p.engagement for p in posts) > 0)
        assume(max(r[0] for r in raw) > min(r[0] for r in raw))
        shuffled = list(posts)
        rnd.shuffle(shuffled)
        assert (series_fields(build_series(table_of(posts), "t"))
                == series_fields(build_series(table_of(shuffled), "t")))

    def test_topic_isolation(self):
        mine = [make_post("a", day=0, likes=5), make_post("a", day=9, likes=5)]
        other = [make_post("b", day=d, likes=7) for d in (1, 2, 30)]
        merged = [other[0], mine[0], other[1], mine[1], other[2]]
        for tid, posts in (("a", mine), ("b", other)):
            assert (series_fields(build_series(table_of(posts), tid))
                    == series_fields(build_series(table_of(merged), tid)))

    def test_monotone_fractions_invariant(self):
        spec = synth.SynthSpec("t", 0.004, 700.0, 1400.0, 200, noise_seed=9)
        series = build_series(synth.generate_topic(spec), "t")
        assert_valid_series(series)
        y = np.asarray(series.fractions)
        assert np.all(np.diff(y) >= 0)
        assert y[0] >= 0 and y[-1] == 1.0


class TestCategories:
    def test_read_categories(self, tmp_path):
        path = tmp_path / "cats.csv"
        path.write_text("topic_id,category\nt1,Politics\n\nt1,Social\nt2,Health\n")
        assert read_categories(path) == {"t1": frozenset({"Politics", "Social"}),
                                         "t2": frozenset({"Health"})}

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "cats.csv"
        path.write_text("topic_id,category\nt1,Politics\nt1,Sports\nt1,Arts\nt2,Golf\n")
        with pytest.raises(InvalidInput) as err:
            read_categories(path)
        assert str(err.value) == "topic 't1' has unknown categories ['Arts', 'Sports']"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cats.csv"
        path.write_text("topic,cat\nt1,Politics\n")
        with pytest.raises(InvalidInput):
            read_categories(path)

    def test_ten_labels(self):
        assert len(CATEGORIES) == 10
        assert len(set(CATEGORIES)) == 10
