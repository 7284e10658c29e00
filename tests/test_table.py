"""The post table against the record-at-a-time code it replaced.

The oracles below are that code, kept as it was: a parser that yields one
``PostRecord`` per valid line, and the per-record series, Love-Hate and
reaction arithmetic. The table's results must equal theirs exactly, not
within a tolerance, because the table keeps the same float operations in
the same order.
"""

import json
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engdyn.errors import InsufficientData, ZeroEngagement
from engdyn.metrics import love_hate, reaction_totals
from engdyn.model import (COUNT_FIELDS, MAX_COUNT, POST_FIELDS, TopicSeries,
                          build_series, parse_posts)

from conftest import EPOCH, make_post, series_fields, table_of
from record_oracle import PostRecord, assert_same_parse, read_stamp


# ----------------------------------------------------------------- oracles

def oracle_parse(stream):
    """(records, rejects) of the record-at-a-time parser."""
    records, rejects = [], []
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("record is not a JSON object")
            missing = [f for f in POST_FIELDS if f not in obj]
            if missing:
                raise ValueError(f"missing fields: {', '.join(missing)}")
            for name in ("post_id", "topic_id"):
                if not isinstance(obj[name], str) or not obj[name]:
                    raise ValueError(f"{name} must be a non-empty string")
            if not isinstance(obj["timestamp"], str):
                raise ValueError("timestamp must be a string")
            for name in COUNT_FIELDS:
                value = obj[name]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{name} must be an integer")
                if value < 0:
                    raise ValueError(f"{name} is negative")
                if value > MAX_COUNT:
                    raise ValueError(f"{name} exceeds {MAX_COUNT}")
            counts = {name: obj[name] for name in COUNT_FIELDS}
            records.append(PostRecord(
                post_id=obj["post_id"], topic_id=obj["topic_id"],
                timestamp=read_stamp(obj["timestamp"]), **counts))
        except ValueError as exc:
            rejects.append((lineno, str(exc)))
    return records, rejects


def oracle_series(posts, topic_id, bin_width=1.0):
    selected = [p for p in posts if p.topic_id == topic_id]
    if len(selected) < 2:
        raise InsufficientData(topic_id)
    total = sum(p.engagement for p in selected)
    if total <= 0:
        raise ZeroEngagement(topic_id)
    t0 = min(p.timestamp for p in selected)
    offsets = np.array(
        [(p.timestamp - t0).total_seconds() / 86400.0 for p in selected])
    weights = np.array([p.engagement for p in selected], dtype=float)
    bins = np.floor(offsets / bin_width).astype(int)
    n_bins = int(bins.max()) + 1
    if n_bins < 2:
        raise InsufficientData(topic_id)
    per_bin = np.zeros(n_bins)
    np.add.at(per_bin, bins, weights)
    cumulative = np.cumsum(per_bin)
    fractions = cumulative / cumulative[-1]
    times = np.arange(n_bins, dtype=float) * bin_width
    return TopicSeries(topic_id=topic_id, t0=t0, times=times, fractions=fractions,
                       total_engagement=int(total), n_posts=len(selected),
                       horizon_days=float(times[-1]))


def oracle_love_hate(posts, mode):
    if mode == "pooled":
        love = sum(p.love for p in posts)
        angry = sum(p.angry for p in posts)
        return None if love + angry == 0 else (love - angry) / (love + angry)
    scores = [(p.love - p.angry) / (p.love + p.angry)
              for p in posts if p.love + p.angry > 0]
    return sum(scores) / len(scores) if scores else None


def outcome(fn, *args):
    """The fields of the series a function returns (see ``series_fields``),
    or the type of the engdyn error it raised."""
    try:
        return series_fields(fn(*args))
    except (InsufficientData, ZeroEngagement) as exc:
        return type(exc)


# ------------------------------------------------------------------- input

def post_line(**overrides):
    obj = {"post_id": "p", "topic_id": "t", "timestamp": "2018-01-05T12:00:00Z",
           "likes": 3, "shares": 1, "comments": 2, "love": 1, "angry": 0}
    obj.update(overrides)
    return json.dumps(obj)


def mixed_stream():
    """Valid posts of three topics, shuffled, with every kind of reject."""
    rnd = random.Random(4)
    lines = []
    for i in range(90):
        day = rnd.uniform(0.0, 60.0)
        stamp = EPOCH + timedelta(days=day)
        if i % 3 == 0:  # same instant with a +02:00 offset
            text = stamp.astimezone(timezone(timedelta(hours=2))).isoformat()
        elif i % 3 == 1:  # fractional seconds, UTC
            text = stamp.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
        else:
            text = stamp.strftime("%Y-%m-%dT%H:%M:%Sz")
        lines.append(post_line(post_id=f"p{i}", topic_id="abc"[i % 3], timestamp=text,
                               likes=rnd.randint(0, 9), shares=rnd.randint(0, 3),
                               comments=rnd.randint(0, 3), love=rnd.randint(0, 4),
                               angry=rnd.randint(0, 4)))
    rnd.shuffle(lines)
    bad = ["{not json", "[1, 2, 3]", '"text"', "", "   ",
           json.dumps({"post_id": "m", "topic_id": "a"}),
           post_line(post_id=""), post_line(post_id=7), post_line(topic_id=None),
           post_line(timestamp=1515153600), post_line(timestamp="yesterday"),
           post_line(timestamp="2018-01-05T12:00:00"),
           post_line(likes=True), post_line(shares=1.5), post_line(comments="2"),
           post_line(love=-1), post_line(angry=-3),
           # the stamp's text is judged after the counts
           post_line(timestamp="yesterday", likes=-1)]
    for k, line in enumerate(bad):
        lines.insert(5 * k + 1, line)
    return lines


# what the record parser reported for mixed_stream(), recorded from it; the
# two blank lines are skipped without a reason
RECORD_PARSER_REJECTS = [
    (2, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (7, "record is not a JSON object"),
    (12, "record is not a JSON object"),
    (27, "missing fields: timestamp, likes, shares, comments, love, angry"),
    (32, "post_id must be a non-empty string"),
    (37, "post_id must be a non-empty string"),
    (42, "topic_id must be a non-empty string"),
    (47, "timestamp must be a string"),
    (52, "timestamp is not RFC 3339"),
    (57, "timestamp is not RFC 3339"),
    (62, "likes must be an integer"),
    (67, "shares must be an integer"),
    (72, "comments must be an integer"),
    (77, "love is negative"),
    (82, "angry is negative"),
    (87, "likes is negative"),
]


# ------------------------------------------------------------------- tests

class TestParseEquivalence:
    def test_same_rejects_and_rows_as_record_parser(self):
        lines = mixed_stream()
        records, rejects = oracle_parse(lines)
        result = parse_posts(lines)
        assert list(result.rejects) == rejects == RECORD_PARSER_REJECTS
        expected = table_of(records)
        table = result.records
        assert len(table) == len(records) == 90
        assert table.topic_ids == expected.topic_ids == ("a", "b", "c")
        assert table.bounds.tolist() == expected.bounds.tolist() == [0, 30, 60, 90]
        assert table.stamps_us.tolist() == expected.stamps_us.tolist()
        assert table.counts.tolist() == expected.counts.tolist()

    def test_rows_keep_input_order_within_a_topic(self):
        lines = mixed_stream()
        records, _ = oracle_parse(lines)
        table = parse_posts(lines).records
        for tid in table.topic_ids:
            mine = [p for p in records if p.topic_id == tid]
            rows = table.topic(tid)
            assert rows.column("likes").tolist() == [p.likes for p in mine]
            assert rows.column("angry").tolist() == [p.angry for p in mine]

    def test_table_is_read_only(self):
        table = parse_posts(mixed_stream()).records
        with pytest.raises(ValueError):
            table.topic("a").counts[0, 0] = 99


JSON_PIECES = ['{"a": 1}', "[1, 2]", '"s"', "7", "null", "{", "}", ",", " ",
               "\n", "\r\n", "\t", "\x0c", "\ufeff", "\u00a0", "x", '{"b": [', "]}"]
# a post in the layout simulate writes, put in place of each {"a": 1}
POST = ('{"post_id": "p", "topic_id": "t", "timestamp": "2018-01-05T12:00:00Z", '
        '"likes": 3, "shares": 1, "comments": 2, "love": 1, "angry": 0}')


def assert_same_decode(text):
    """``parse_posts`` decodes ``text`` as the per-line parser's
    ``json.loads`` does: the same rows and the same rejects with the same
    reasons, whether or not the line has a post in it, at its head or not."""
    posted = text.replace('{"a": 1}', POST)
    for lines in ([text], [posted], [text, posted], [posted, text]):
        assert_same_parse(lines, chunk_lines=2)


class TestDecodeEquivalence:
    @pytest.mark.parametrize("text", [
        '{"a": 1}', '{"a": 1}\n', '{"a": 1}\r\n', '{"a": 1} \n', ' {"a": 1}\n',
        '\ufeff{"a": 1}\n', '{"a": 1}{"b": 2}\n', '{"a": 1}\n\n', '{"a": 1}\x0c',
        '{"a": 1}\u00a0', '{"a": 1', "", "\n", "[1, 2]\n", '"text"', "1 2",
        '{"a": NaN}', '{"a": 1e400}'])
    def test_same_as_json_loads(self, text):
        assert_same_decode(text)

    @given(st.lists(st.sampled_from(JSON_PIECES), max_size=6).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_same_as_json_loads_on_random_text(self, text):
        assert_same_decode(text)


class TestSeriesEquivalence:
    @pytest.mark.parametrize("bin_width", [1.0, 7.0])
    def test_parsed_stream(self, bin_width):
        lines = mixed_stream()
        records, _ = oracle_parse(lines)
        table = parse_posts(lines).records
        for tid in ("a", "b", "c", "absent"):
            assert (outcome(build_series, table, tid, bin_width)
                    == outcome(oracle_series, records, tid, bin_width))

    def test_shuffled_records(self):
        records, _ = oracle_parse(mixed_stream())
        random.Random(8).shuffle(records)
        table = table_of(records)
        for tid in ("a", "b", "c"):
            assert (series_fields(build_series(table, tid))
                    == series_fields(oracle_series(records, tid)))

    @given(st.lists(st.tuples(st.sampled_from("xyz"),
                              st.integers(0, 4 * 365 * 86400 * 10**6),
                              st.sampled_from([0, 2, -5, 9]),
                              st.integers(0, 30), st.integers(0, 5),
                              st.integers(0, 5), st.integers(0, 6),
                              st.integers(0, 6)),
                    min_size=1, max_size=40),
           st.sampled_from([1.0, 7.0, 0.5, 2.5]))
    @settings(max_examples=150, deadline=None)
    def test_random_record_lists(self, raw, bin_width):
        records = [
            PostRecord(post_id=str(i), topic_id=tid,
                       timestamp=(EPOCH + timedelta(microseconds=us)).astimezone(
                           timezone(timedelta(hours=hours))),
                       likes=likes, shares=shares, comments=comments,
                       love=love, angry=angry)
            for i, (tid, us, hours, likes, shares, comments, love, angry)
            in enumerate(raw)]
        table = table_of(records)
        for tid in "xyz":
            mine = [p for p in records if p.topic_id == tid]
            assert (outcome(build_series, table, tid, bin_width)
                    == outcome(oracle_series, records, tid, bin_width))
            rows = table.topic(tid)
            for mode in ("pooled", "mean_of_posts"):
                assert love_hate(rows, mode) == oracle_love_hate(mine, mode)
            assert reaction_totals(rows) == (
                sum(p.love for p in mine), sum(p.angry for p in mine))

    def test_start_instant_is_the_first_post(self):
        posts = [make_post(day=3.25), make_post(day=1.5, post_id="b"),
                 make_post(day=9.0, post_id="c")]
        series = build_series(table_of(posts), "t")
        assert series.t0 == EPOCH + timedelta(days=1.5)
        assert series.t0.utcoffset() == timedelta(0)
        assert series.t0 == datetime(2018, 1, 2, 12, tzinfo=timezone.utc)
