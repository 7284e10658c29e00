"""``load_posts`` reading a file in two processes against ``parse_posts``.

With ``_SPLIT_MIN_BYTES`` lowered to 0, every file with a newline after its
middle is parsed in two halves, the second in a forked child. The records,
the rejects and their reasons must be those of ``parse_posts`` on the same
file opened as text, and no child may be left behind.
"""

import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engdyn
from engdyn import model
from engdyn.model import MAX_COUNT

STAMPS = ["2018-01-05T12:00:00Z", "2018-01-06 08:30:00+00:00", "2018-01-07T00:00:00+02:00",
          "2018-01-08T12:00:00.5Z", "2018-01-09T06:30:00-05:30",  # read
          "2018-02-30T00:00:00Z", "2018-01-07T00:00:00+0200"]  # rejected, for two reasons
REJECTED = ["{", "[1]", '{"post_id": "x"}', "not json", "\ufeff{}"]  # a BOM mid-file is text
BLANK = ["", "   "]
ENDS = ["\n", "\r\n", "\r"]


def post(post_id="p", topic_id="t", timestamp=STAMPS[0], likes=3, keys=None):
    obj = {"post_id": post_id, "topic_id": topic_id, "timestamp": timestamp,
           "likes": likes, "shares": 1, "comments": 2, "love": 1, "angry": 0}
    if keys is not None:  # not the layout simulate writes
        obj = {key: obj[key] for key in keys}
    text = json.dumps(obj, ensure_ascii=False)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: written as an escape
        text = json.dumps(obj)
    return text


def posts(topics):
    return st.builds(post, post_id=st.sampled_from(["p1", "p2", "ab", "cd", "é"]),
                     topic_id=st.sampled_from(topics), timestamp=st.sampled_from(STAMPS),
                     likes=st.sampled_from([0, 5, -1, MAX_COUNT + 1]),
                     keys=st.sampled_from([None, sorted(model.POST_FIELDS)]))


def lines(topics):
    return st.lists(st.tuples(
        st.one_of(posts(topics), st.sampled_from(REJECTED), st.sampled_from(BLANK)),
        st.sampled_from(ENDS)), max_size=25)


@st.composite
def post_files(draw):
    """A BOM or none, lines of the topics "a", "é" and a lone surrogate, then
    lines that may also hold the topic "late", and a last line with or
    without a line end."""
    head = draw(lines(["a", "é", "\ud800"]))
    tail = draw(lines(["a", "é", "\ud800", "late"]))
    text = "".join(body + end for body, end in head + tail)
    text += draw(st.sampled_from(["", post("last", "late")]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial(path):
    with open(path, encoding="utf-8-sig") as fh:
        return model.parse_posts(fh)


def load_and_compare(path):
    """``load_posts(path)``, checked against :func:`serial`, and whether it
    split the file (``parse_posts`` is the path that does not)."""
    with mock.patch.object(model, "parse_posts", wraps=model.parse_posts) as whole:
        got = model.load_posts(path)
    assert_no_child()
    want = serial(path)
    assert got.rejects == want.rejects
    assert got.records.topic_ids == want.records.topic_ids
    for name in ("bounds", "stamps_us", "counts"):
        mine, theirs = getattr(got.records, name), getattr(want.records, name)
        assert mine.dtype == theirs.dtype
        assert mine.tolist() == theirs.tolist()
    return got, not whole.called


@pytest.fixture
def split_all(monkeypatch):
    monkeypatch.setattr(model, "_SPLIT_MIN_BYTES", 0)


@settings(max_examples=150, deadline=None)
@given(data=post_files(), collide=st.booleans())
def test_split_parse_equals_serial(tmp_path_factory, data, collide):
    path = tmp_path_factory.mktemp("split") / "posts.jsonl"
    path.write_bytes(data)
    # with hash = len, ids of one length collide, in either half
    with mock.patch.multiple(model, _SPLIT_MIN_BYTES=0, _CHUNK_LINES=3), \
            mock.patch.object(model, "hash", len if collide else hash, create=True):
        _, split = load_and_compare(path)
    assert split == (b"\n" in data[len(data) // 2:-1])


def halves(first, second, end="\n"):
    """The lines ``first`` and ``second`` as a file split between them: a
    line of spaces after ``first`` moves the middle past its lines."""
    head = "".join(line + end for line in first).encode("utf-8")
    tail = "".join(line + end for line in second).encode("utf-8")
    head += b" " * max(0, len(tail) - len(head) + 2) + end.encode()
    data = head + tail
    assert data.find(b"\n", len(data) // 2) + 1 == len(head)
    return data


def test_repeats_rejects_and_topics_across_the_split(tmp_path, split_all):
    # each half reads stamps of every spelling, and rejects one
    first = [post("p1", "a"), "{", post("p2", "b", likes=7), post("ab", "a", timestamp=STAMPS[4]),
             post("s1", "a", timestamp=STAMPS[6])]
    second = [post("p1", "late"), post("p3", "late", timestamp=STAMPS[2]), "[1]",
              post("ba", "b", timestamp=STAMPS[3]), post("p2", "a"), post("x", "\ud800"),
              post("s2", "b", timestamp=STAMPS[5])]
    path = tmp_path / "posts.jsonl"
    path.write_bytes(halves(first, second, end="\r\n"))
    for collide in (hash, len):
        with mock.patch.object(model, "hash", collide, create=True):
            got, split = load_and_compare(path)
        assert split
        assert got.records.topic_ids == ("a", "b", "late")
        assert got.rejects == (
            (2, "Expecting property name enclosed in double quotes: line 2 column 1 (char 2)"),
            (5, "timestamp is not RFC 3339"),
            (7, "duplicate post_id 'p1' (first seen on line 1)"),
            (9, "record is not a JSON object"),
            (11, "duplicate post_id 'p2' (first seen on line 3)"),
            (12, "topic_id holds a lone surrogate"),
            (13, "timestamp out of range"))


def test_no_newline_after_the_middle_is_one_parse(tmp_path, split_all):
    path = tmp_path / "posts.jsonl"
    path.write_text("".join(post(f"p{i}") + "\r" for i in range(20)) + "\n",
                    encoding="utf-8")
    got, split = load_and_compare(path)
    assert not split
    assert len(got.records) == 20


@pytest.mark.parametrize("bad_line", [3, 16])
def test_invalid_utf8_in_either_half_gives_the_serial_error(tmp_path, split_all, bad_line):
    data = halves([post(f"p{i}") for i in range(10)],
                  [post(f"q{i}") for i in range(10)]).split(b"\n")
    path = tmp_path / "posts.jsonl"
    data[bad_line] = data[bad_line].replace(b'"t"', b'"t\xff"')
    path.write_bytes(b"\n".join(data))
    with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            pytest.raises(UnicodeDecodeError) as got:
        model.load_posts(path)
    assert_no_child()
    assert fork.call_count == 1
    with pytest.raises(UnicodeDecodeError) as want:
        serial(path)
    assert str(got.value) == str(want.value)


def one_file(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_bytes(halves([post("p1"), post("p2", "b")], [post("p1"), post("p3")]))
    return path


def test_a_failed_child_gives_a_serial_parse(tmp_path, split_all):
    with mock.patch.object(pickle, "dump", side_effect=OSError("no room")):
        got, split = load_and_compare(one_file(tmp_path))
    assert not split
    assert got.rejects == ((4, "duplicate post_id 'p1' (first seen on line 1)"),)


def test_without_fork_one_process_parses(tmp_path, split_all, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert not load_and_compare(one_file(tmp_path))[1]


def test_one_cpu_or_another_thread_gives_one_parse(tmp_path, split_all):
    path = one_file(tmp_path)
    assert load_and_compare(path)[1]
    with mock.patch.object(os, "sched_getaffinity", return_value={0}, create=True):
        assert not load_and_compare(path)[1]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not load_and_compare(path)[1]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_small_files_are_one_parse(tmp_path):
    assert not load_and_compare(one_file(tmp_path))[1]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
                    else (os.cpu_count() or 1) < 2, reason="a split parse needs two CPUs")
def test_split_parse_leaves_no_file_open(tmp_path):
    # under -X dev a file object left open prints a ResourceWarning, from
    # whichever half held it; parse_posts, the one-process path, must not run
    code = ("from engdyn import model\n"
            "model._SPLIT_MIN_BYTES, model.parse_posts = 0, None\n"
            f"print(model.load_posts({str(one_file(tmp_path))!r}).rejects)\n")
    src = str(Path(engdyn.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-X", "dev", "-c", code],
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                           text=True, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "((4, \"duplicate post_id 'p1' (first seen on line 1)\"),)\n"
