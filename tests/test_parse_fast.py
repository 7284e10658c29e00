"""``parse_posts``'s fast path against the per-line parser it replaced.

The oracle, ``record_oracle.parse_posts``, sends every line through
``model._check_line`` and its own stamp reader, ``record_oracle.read_stamp``,
and appends rows one at a time. On every stream the fast path must build an
equal table and report the same rejects, in the same order with the same
reasons, whatever the chunk size.
"""

import json
import tracemalloc
from datetime import date, datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import record_oracle
from engdyn import model, synth
from engdyn.model import COUNT_FIELDS, MAX_COUNT, _stamps_us, parse_posts
from record_oracle import assert_same_parse, epoch_us, read_stamp


def post(post_id="p", topic_id="t", timestamp="2018-01-05T12:00:00Z", **counts):
    obj = {"post_id": post_id, "topic_id": topic_id, "timestamp": timestamp,
           "likes": 3, "shares": 1, "comments": 2, "love": 1, "angry": 0}
    obj.update(counts)
    return obj


def line(obj, end="\n"):
    return json.dumps(obj) + end


# ----------------------------------------------------------------- streams

COUNTS = [0, 1, 7, MAX_COUNT, 2**32, -1, True, False, 1.5, 2.0, "3", None, 10**30]

# RFC 3339 stamps of years 1-9999 UTC
READABLE_STAMPS = [
    "2018-01-05T12:00:00Z", "2020-02-29T23:59:59Z", "2000-02-29T00:00:00Z",
    "2400-02-29T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    "1969-12-31T23:59:59Z", "1970-01-01T00:00:00Z", "0004-02-29T12:00:00Z",
    "2020-01-01 00:00:00Z", "2020-01-01t00:00:00z", "2020-01-01T00:00:00z",
    "2020-01-01T00:00:00+00:00", "0001-01-01T00:00:00-00:00",
    "9999-12-31t23:59:59+00:00",
    # offsets, fractions of 1-9 digits, and both at the year edges
    "2020-01-01T00:00:00+23:59", "2020-01-01T00:00:00-23:59", "2018-01-05T14:00:00+02:00",
    "2018-01-05T06:30:00-05:30", "2019-12-31T23:00:00-01:00", "2020-03-01T00:00:00+00:01",
    "2018-01-05T12:00:00.5Z", "2018-01-05T12:00:00.05z", "2018-01-05 12:00:00.123+02:00",
    "2018-01-05T12:00:00.1234-00:00", "1969-12-31T23:59:59.12345Z",
    "2018-01-05T12:00:00.123456Z", "2018-01-05T12:00:00.9999999Z",
    "2018-01-05T12:00:00.00000001-23:59", "2018-01-05T12:00:00.123456789+14:00",
    "0001-01-01T00:30:00+00:30", "0001-01-01T00:00:00.000001-00:01",
    "9999-12-31T23:59:59.999999999+00:00", "9999-12-31T22:59:59.5-01:00",
]
STAMPS = READABLE_STAMPS + [
    # the shape of RFC 3339, naming no instant of years 1-9999 UTC
    "0000-01-01T00:00:00Z", "2020-02-30T00:00:00Z", "2100-02-29T00:00:00Z",
    "1900-02-29T00:00:00Z", "2020-04-31T00:00:00Z", "2020-13-01T00:00:00Z",
    "2020-00-10T00:00:00Z", "2020-01-00T00:00:00Z", "2020-01-01T24:00:00Z",
    "2020-01-01T23:60:00Z", "2020-01-01T23:59:60Z", "2016-12-31T23:59:60Z",
    "2020-01-01T00:00:00+24:00", "2020-01-01T00:00:00-00:60", "2020-02-30T00:00:00+00:00",
    "0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00",
    "0001-01-01T00:00:00.999999+00:01", "0000-12-31T23:30:00-01:00",
    # not RFC 3339
    "+020-01-01T00:00:00Z", "2020-01-01_00:00:00Z", "2020-01-01\u00e900:00:00Z",
    "\uff12020-01-01T00:00:00Z", "2020-01-01T00:00:0\u0665Z", "2020-01-01T00:00:0\ud800Z",
    "2020/01/01T00:00:00Z", " 020-01-01T00:00:00Z", "2020-01-01T00:00:00 ",
    "2020-01-01T00:00:00Z+0:00", "+2020-01-01T00:00:00Z", "2020-01-01T00:00:00+00:00 ",
    "2020-01-01", "", "2020-01-01T00:00:00", "2020-01-01T00:00:00.5", "2020-01-01T00:00:00.Z",
    "2020-01-01T00:00:00.+02:00", "2020-01-01T00:00:00.5.5Z", "2020-01-01T00:00:00+02:00Z",
    "2020-01-01T00:00:00Z\x00", "2020-01-01T00:00:00Z\n", "2020-01-01T00:00:00\nZ",
    # surrounding whitespace
    " 2020-01-01T00:00:00Z", "2020-01-01T00:00:00Z ", "\t2020-01-01T00:00:00Z\n",
    "2020-01-01T00:00:00+02:00\u3000",
    # the ISO 8601 spellings that datetime.fromisoformat reads on Python 3.11
    "20180105T120000Z", "2018-W01-5T12:00:00Z", "2018W015T12:00:00Z", "2018-01-05T120000Z",
    "2018-01-05T1200Z", "2018-01-05T12:00Z", "2018-01-05T12Z", "2018-01-05T12:00:00,5Z",
    "2018-01-05T12:00:00+0200", "2018-01-05T12:00:00+02", "2018-01-05T12:00:00-0530",
    "2018-01-05T12:00:00.5+02", "2018-01-05T12:00:00+02:00:30", "2018-01-05T12:00:00+02:00:30.5",
    "2018-01-05T12:00:00+00:00:00",
    # not strings
    1577836800, None,
]

# fields drawn a little beyond their ranges, joined by the letters the reader
# takes ("T", "t", " ") and others, with 0-9 fraction digits or a bare ".",
# and zones it takes ("Z", "z", offsets) or not
template_stamps = st.builds(
    "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}{}{}".format,
    st.integers(0, 9999) | st.sampled_from([0, 1, 4, 1900, 2000, 2100, 9999]),
    st.integers(0, 13), st.integers(0, 32),
    st.sampled_from("TTt _x\u00e9\ud800"), st.integers(0, 24), st.integers(0, 60),
    st.integers(0, 60),
    st.sampled_from(["", "", ".", ","]) | st.integers(0, 10**9 - 1).flatmap(
        lambda value: st.integers(1, 9).map(lambda k: f".{value % 10**k:0{k}d}")),
    st.sampled_from(["Z", "Z", "z", "_", "", "+00:00", "-00:00", "+0200", "+02"])
    | st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"),
                st.integers(0, 24), st.integers(0, 60)))


def reordered(obj):
    return json.dumps(dict(reversed(list(obj.items())))) + "\n"


# each takes a post object and returns the line that carries it
SHAPES = {
    "plain": line,
    "no newline": lambda obj: line(obj, end=""),
    "reordered keys": reordered,
    "extra key": lambda obj: line(dict(obj, text="x")),
    "duplicate key, last kept": lambda obj: line(obj)[:-2] + ', "likes": 5}\n',
    "duplicate key, first dropped": lambda obj: '{"likes": -1, ' + line(obj)[1:],
    "missing field": lambda obj: line({k: v for k, v in obj.items() if k != "love"}),
    "extra data": lambda obj: line(obj, end=" {}\n"),
    "trailing spaces": lambda obj: line(obj, end="  \n"),
    "carriage return": lambda obj: line(obj, end="\r\n"),
    "byte order mark": lambda obj: "\ufeff" + line(obj),
    "two newlines": lambda obj: line(obj, end="\n\n"),
    "not an object": lambda obj: json.dumps(list(obj.values())) + "\n",
    "blank": lambda obj: "  \n",
    "not JSON": lambda obj: line(obj)[:-3] + "\n",
    "too deep": lambda obj: "[" * 100_000 + "\n",
    # near misses of the layout simulate writes
    "unescaped non-ASCII": lambda obj: json.dumps(obj, ensure_ascii=False) + "\n",
    "control character in an id":
        lambda obj: line(obj).replace('"post_id": "', '"post_id": "\x01', 1),
    "leading zero": lambda obj: line(obj).replace('"likes": ', '"likes": 0', 1),
    "minus zero": lambda obj: line(dict(obj, likes=0)).replace('"likes": 0', '"likes": -0'),
    "eleven digits": lambda obj: line(dict(obj, likes=10**10)),
    "compact separators": lambda obj: json.dumps(obj, separators=(",", ":")) + "\n",
}


@st.composite
def post_lines(draw):
    shape = draw(st.sampled_from(["plain"] * 12 + sorted(SHAPES)))
    # a few ids that repeat, and fresh ones
    post_id = draw(st.sampled_from(["p0", "p1", "p2", "", 7, "p\u00e9", "p\ud800",
                                    "p0\u0000", "p0\u0000\u0000"])
                   | st.integers(0, 10**6).map("q{}".format))
    obj = post(post_id=post_id,
               topic_id=draw(st.sampled_from(["a", "b", "c", "\u00e9", "t\ud800", "",
                                              None])),
               timestamp=draw(st.one_of(st.sampled_from(READABLE_STAMPS),
                                        st.sampled_from(STAMPS), template_stamps)))
    for name in COUNT_FIELDS:
        if draw(st.integers(0, 9)) == 0:
            obj[name] = draw(st.sampled_from(COUNTS))
    return SHAPES[shape](obj)


class TestSameAsPerLineParser:
    @given(st.lists(post_lines(), max_size=40), st.sampled_from([1, 2, 3, 5, 8, 4096]))
    # near misses of the layout simulate writes, each at the head of a chunk:
    # a count with a leading zero, an escaped id, and a post_id that comes
    # back in the next chunk
    @example([SHAPES["leading zero"](post())], 1)
    @example([line(post(topic_id="\u00e9"))], 1)
    @example([line(post()), line(post(likes=5))], 1)
    @settings(max_examples=400, deadline=None)
    def test_random_streams(self, lines, chunk_lines):
        assert_same_parse(lines, chunk_lines)

    def test_unreadable_stamp_of_a_new_topic_and_a_reused_post_id(self):
        # chunks of four lines: in the first, the only line of topic "new"
        # has a stamp the reader rejects, and its post_id comes back two
        # lines later; neither its topic nor its post_id is kept
        lines = [line(post(post_id="p1", topic_id="a")),
                 line(post(post_id="p9", topic_id="new",
                           timestamp="2020-02-30T00:00:00Z")),
                 line(post(post_id="p2", topic_id="a", timestamp="2019-03-01T00:00:00Z")),
                 line(post(post_id="p9", topic_id="a", likes=8)),
                 line(post(post_id="p3", topic_id="b")),
                 line(post(post_id="p9", topic_id="b"))]
        got = assert_same_parse(lines, chunk_lines=4)
        assert got.rejects == (
            (2, "timestamp out of range"),
            (6, "duplicate post_id 'p9' (first seen on line 4)"))
        assert got.records.topic_ids == ("a", "b")
        assert got.records.column("likes").tolist() == [3, 3, 8, 3]

    def test_repeat_of_a_post_id_from_the_previous_chunk_tail(self):
        # chunks of four lines: the second chunk has the layout simulate
        # writes and repeats p4, which came in the first chunk's reordered tail
        lines = [line(post(post_id="p1")), line(post(post_id="p2")),
                 reordered(post(post_id="p3")), reordered(post(post_id="p4")),
                 line(post(post_id="p5")), line(post(post_id="p4", likes=8)),
                 line(post(post_id="p6")), line(post(post_id="p7"))]
        got = assert_same_parse(lines, chunk_lines=4)
        assert got.rejects == ((6, "duplicate post_id 'p4' (first seen on line 4)"),)
        assert got.records.column("likes").tolist() == [3] * 7

    def test_repeat_of_a_post_id_inside_one_chunk(self):
        lines = [line(post(post_id=p, likes=k))
                 for k, p in enumerate(["p1", "p2", "p1", "p3"])]
        got = assert_same_parse(lines, chunk_lines=4)
        assert got.rejects == ((3, "duplicate post_id 'p1' (first seen on line 1)"),)
        assert got.records.column("likes").tolist() == [0, 1, 3]

    def test_rejects_of_every_step_merged_in_line_order(self):
        # the second chunk of 16 lines opens with pattern rows (a repeat of
        # the first chunk, an over-range count), then decoded lines: a blank,
        # a non-JSON line, a stamp the reader rejects, a lone-surrogate
        # topic, a repeat of the same chunk and a repeat in topic "gone",
        # which only rejected lines name. "bad" comes back on a kept line,
        # since its first line was rejected
        lines = [line(post(post_id=f"p{i}")) for i in range(1, 17)]
        lines += [line(post(post_id="p1")),
                  line(post(post_id="big", likes=MAX_COUNT + 1)),
                  line(post(post_id="q1")),
                  "  \n",
                  SHAPES["not JSON"](post(post_id="x")),
                  reordered(post(post_id="bad", topic_id="gone",
                                 timestamp="2020-02-30T00:00:00Z")),
                  line(post(post_id="s", topic_id="t\ud800")),
                  reordered(post(post_id="q1")),
                  line(post(post_id="p2", topic_id="gone")),
                  line(post(post_id="bad"))]
        lines += [reordered(post(post_id=f"r{i}")) for i in range(6)]
        got = assert_same_parse(lines, chunk_lines=16)
        assert [lineno for lineno, _ in got.rejects] == [17, 18, 21, 22, 23, 24, 25]
        assert got.records.topic_ids == ("t",)
        assert len(got.records) == 16 + 1 + 1 + 6

    def test_one_pass_iterator(self):
        lines = [line(post(post_id=f"p{i}", timestamp=stamp))
                 for i, stamp in enumerate(STAMPS)]
        want = record_oracle.parse_posts(lines)
        with mock.patch.object(model, "_CHUNK_LINES", 4):
            got = parse_posts(iter(lines))
        assert got.rejects == want.rejects
        assert got.records.stamps_us.tolist() == want.records.stamps_us.tolist()


class TestRepeatCheck:
    """The repeated post_ids are found at the end of the parse among the rows
    of equal ``hash()``. With the hash that ``model`` calls made constant, or
    ``len``, ids that differ share a hash, and only the exact comparison of
    the ids tells them apart."""

    STREAMS = {
        # chunks of three lines hold repeats within a chunk and across chunks
        "within and across chunks": [line(post(post_id=p, likes=k)) for k, p in enumerate(
            ["p1", "p2", "p1", "ab", "cd", "p2", "cd", "ab", "p1", "p3"])],
        "trailing NUL": [line(post(post_id=p, likes=k)) for k, p in enumerate(
            ["p0", "p0\u0000", "p0\u0000\u0000", "p0\u0000", "p0", "p0\u0000\u0000"])],
        "lone surrogate": [line(post(post_id="p\ud800")), line(post(post_id="p\udc00")),
                           SHAPES["unescaped non-ASCII"](post(post_id="p\ud800", likes=9)),
                           line(post(post_id="p"))],
        # "only" is named by repeated lines alone, so it is no topic of the table
        "topic of repeats only": [line(post(post_id="p1")), line(post(post_id="p2")),
                                  line(post(post_id="p1", topic_id="only")),
                                  reordered(post(post_id="p2", topic_id="only")),
                                  line(post(post_id="p3", topic_id="u"))],
    }

    @pytest.mark.parametrize("chunk_lines", [1, 3, 4096])
    @pytest.mark.parametrize("hash_", [lambda text: 7, len], ids=["constant", "len"])
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_colliding_hashes(self, stream, hash_, chunk_lines):
        with mock.patch.object(model, "hash", hash_, create=True):
            got = assert_same_parse(self.STREAMS[stream], chunk_lines)
        assert "only" not in got.records.topic_ids

    def test_collision_keeps_each_id_once(self):
        with mock.patch.object(model, "hash", len, create=True):
            got = assert_same_parse(self.STREAMS["within and across chunks"], 3)
        assert got.rejects == (
            (3, "duplicate post_id 'p1' (first seen on line 1)"),
            (6, "duplicate post_id 'p2' (first seen on line 2)"),
            (7, "duplicate post_id 'cd' (first seen on line 5)"),
            (8, "duplicate post_id 'ab' (first seen on line 4)"),
            (9, "duplicate post_id 'p1' (first seen on line 1)"))
        assert got.records.column("likes").tolist() == [0, 1, 3, 4, 9]

    def test_parse_peak_memory_per_post(self, tmp_path):
        # the tracemalloc peak of a parse, per post, on about 20k posts: 157
        # bytes with the repeat check at the end of the parse, 230 with a dict
        # of every post_id held through it
        specs, categories = synth.default_corpus_specs(20, seed=5, n_posts=(900, 1100))
        posts = tmp_path / "posts.jsonl"
        synth.generate_corpus(specs, categories, posts, tmp_path / "categories.csv")
        tracemalloc.start()
        try:
            n = len(model.load_posts(posts).records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 19746
        assert peak / n <= 185

    def test_parse_posts_peak_memory_per_post(self, tmp_path):
        # load_posts parses a file this large in two processes, and tracemalloc
        # sees only this process's half and the merge; parse_posts is the
        # whole parse in one process
        specs, categories = synth.default_corpus_specs(20, seed=5, n_posts=(900, 1100))
        posts = tmp_path / "posts.jsonl"
        synth.generate_corpus(specs, categories, posts, tmp_path / "categories.csv")
        tracemalloc.start()
        try:
            with open(posts, encoding="utf-8-sig") as fh:
                n = len(model.parse_posts(fh).records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 19746
        assert peak / n <= 185


def common_shape_lines(shape):
    """Lines of ``shape`` with every readable stamp and 0 and MAX_COUNT in
    each count."""
    return [shape(post(post_id=f"p{i}", topic_id="ab"[i % 2], timestamp=stamp,
                       **{name: count}))
            for i, (stamp, name, count) in enumerate(
                (stamp, name, count) for stamp in READABLE_STAMPS
                for name in COUNT_FIELDS for count in (0, MAX_COUNT))]


# model's json, whose loads raises: only the reasoned step of _check_line
# calls it, after the fast test fails
REASONED_STEP_FAILS = mock.Mock(loads=mock.Mock(side_effect=AssertionError))


class TestFastPath:
    def test_common_shape_never_takes_the_per_line_path(self):
        for shape in (line, reordered):  # read by the pattern, and decoded
            lines = common_shape_lines(shape)
            got = assert_same_parse(lines, chunk_lines=16, json=REASONED_STEP_FAILS)
            assert len(got.records) == len(lines)

    def test_simulate_layout_is_never_decoded(self):
        lines = common_shape_lines(line)
        got = assert_same_parse(lines, chunk_lines=16,
                                _check_line=mock.Mock(side_effect=AssertionError))
        assert len(got.records) == len(lines)

    def test_rejected_lines_alone_are_decoded(self):
        # a repeat and a lone-surrogate topic among the pattern's rows are
        # rejected without decoding; only the over-range count goes through
        # the per-line check
        lines = common_shape_lines(line)
        lines[3] = line(post(post_id="p1"))  # line 2's post_id
        lines[20] = line(post(post_id="x", likes=MAX_COUNT + 1))
        lines[40] = SHAPES["unescaped non-ASCII"](post(post_id="y", topic_id="t\ud800"))
        check = mock.Mock(wraps=model._check_line)
        got = assert_same_parse(lines, chunk_lines=64, _check_line=check)
        assert [lineno for lineno, _ in got.rejects] == [4, 21, 41]
        assert check.call_args_list == [mock.call(lines[20])]

    def test_flagged_stamp_is_rejected_without_the_per_line_checks(self):
        # the reader's reason is the line's: stamps it rejects, read by the
        # pattern and decoded, take no reasoned check
        stamps = ["2020-01-01T00:00:00Z", "2020-01-01_00:00:00Z", "2020-02-30T00:00:00+02:00",
                  "2018-01-05T12:00Z"]
        lines = [shape(post(post_id=f"p{i}{shape.__name__}", timestamp=stamp))
                 for shape in (line, reordered) for i, stamp in enumerate(stamps)]
        got = assert_same_parse(lines, chunk_lines=64, json=REASONED_STEP_FAILS)
        assert got.rejects == tuple(
            (lineno, reason) for start in (1, 5) for lineno, reason in (
                (start + 1, "timestamp is not RFC 3339"), (start + 2, "timestamp out of range"),
                (start + 3, "timestamp is not RFC 3339")))

    def test_other_layouts_try_the_pattern_once_a_chunk(self):
        lines = common_shape_lines(reordered)
        pattern = mock.Mock(wraps=model._CANONICAL)
        assert_same_parse(lines, chunk_lines=16, _CANONICAL=pattern)
        assert pattern.fullmatch.call_count == -(-len(lines) // 16)

    @given(template_stamps)
    @example("0000-12-31T23:59:59Z")
    @example("1900-02-29T00:00:00Z")
    @example("2000-02-29T00:00:00Z")
    @example("0001-01-01T00:59:59.999999+01:00")
    @settings(max_examples=500, deadline=None)
    def test_templated_stamp_read_as_the_per_line_path_reads_it(self, text):
        try:
            want = (0, epoch_us(read_stamp(text)))
        except ValueError as exc:
            want = (model._STAMP_REJECTS.index(str(exc)), None)
        # alone, and in a chunk whose other stamps take the all-"Z" path
        for texts in ([text], [text] + READABLE_STAMPS[:3], READABLE_STAMPS[:3] + [text]):
            values, status = _stamps_us(texts)
            assert values.dtype == status.dtype == np.int64
            assert values.shape == status.shape == (len(texts),)
            at = texts.index(text)
            assert status[at] == want[0]
            if want[1] is not None:
                assert values[at] == want[1]

    @given(st.lists(st.tuples(st.datetimes(min_value=datetime(1, 1, 1),
                                           max_value=datetime(9999, 12, 31, 23, 59, 59)),
                              st.sampled_from(["Z", "z", "+00:00", "-00:00"])),
                    max_size=20),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_second_of_years_1_to_9999(self, stamps, data):
        texts = [ts.isoformat(timespec="seconds") + zone for ts, zone in stamps]
        want = [epoch_us(read_stamp(text)) for text in texts]
        values, status = _stamps_us(texts)
        assert values.dtype == np.int64 and values.tolist() == want
        assert status.tolist() == [0] * len(texts)
        # a stamp that cannot be read flags itself alone
        at = data.draw(st.integers(0, len(texts)))
        values, status = _stamps_us(texts[:at] + ["2020-02-30T00:00:00Z"] + texts[at:])
        assert status.tolist() == [0] * at + [2] + [0] * (len(texts) - at)
        assert np.delete(values, at).tolist() == want

    def test_month_starts_are_first_of_month_ordinals(self):
        # the cycle that starts in 1600, not the one the table is built from
        first = date(1600, 1, 1).toordinal()
        want = [date(1600 + m // 12, m % 12 + 1, 1).toordinal() - first for m in range(4800)]
        assert model._MONTH_STARTS.dtype == np.int64
        assert model._MONTH_STARTS.tolist() == want + [date(2000, 1, 1).toordinal() - first]
