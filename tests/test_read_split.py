"""``extract-topics`` reading an article file in two processes against one.

With ``_SPLIT_MIN_BYTES`` lowered to 0, every article file with a newline
after its middle is read in two halves, the second in a forked child, through
the ``model.read_halves`` that ``load_posts`` uses. The exit code, the output
tree, stdout and stderr must be those of reading the same file in one
process, and no child may be left behind.
"""

import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engdyn
from engdyn import cli, model, topicgraph

WORDS = ["vote", "ballot", "party", "goal", "team", "coach", "the", "and", "42"]
TOKENS = WORDS + ["Vote", "", "\ud800"]  # a lone surrogate makes its line malformed
MALFORMED = ["{", "[1]", "not json", '{"text": "vote"}', '{"article_id": 5, "text": "x"}',
             '{"article_id": "m", "terms": "vote"}', '\ufeff{"article_id": "bom", "text": "vote"}']
BLANK = ["", "   "]
ENDS = ["\n", "\r\n", "\r"]


def article(article_id, text=None, terms=None):
    obj = {"article_id": article_id}
    obj.update({"text": text} if terms is None else {"terms": terms})
    line = json.dumps(obj, ensure_ascii=False)
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: written as an escape
        line = json.dumps(obj)
    return line


def articles(ids):
    words = st.lists(st.sampled_from(WORDS), max_size=6)
    return st.one_of(
        st.builds(article, st.sampled_from(ids), text=words.map(" ".join)),
        st.builds(article, st.sampled_from(ids), terms=st.lists(st.sampled_from(TOKENS),
                                                                max_size=5)))


def lines(ids):
    return st.lists(st.tuples(
        st.one_of(articles(ids), st.sampled_from(MALFORMED), st.sampled_from(BLANK)),
        st.sampled_from(ENDS)), max_size=20)


@st.composite
def article_files(draw):
    """A BOM or none, lines of the ids "a", "b", "é" and "\\ud800", then lines
    that may also hold the id "late", and a last line with or without a line
    end."""
    head = draw(lines(["a", "b", "é", "\ud800"]))
    tail = draw(lines(["a", "b", "é", "\ud800", "late"]))
    text = "".join(body + end for body, end in head + tail)
    text += draw(st.sampled_from(["", article("last", "vote party")]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def extract(path, out):
    """``extract-topics`` on ``path``: (exit code, output files, stdout,
    stderr), and whether the file was read in two processes."""
    split = []
    real = model.read_halves

    def spy(*args):
        split.append(real(*args))
        return split[-1]

    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(model, "read_halves", spy), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["extract-topics", "--input", str(path), "--out", str(out),
                         "--seed", "1"])
    assert_no_child()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return (code, files, stdout.getvalue(), stderr.getvalue()), split[0] is not None


def extract_and_compare(path):
    """:func:`extract`, checked against reading the file in one process."""
    got, split = extract(path, Path(tempfile.mkdtemp(dir=path.parent)) / "out")
    with mock.patch.object(model, "_SPLIT_MIN_BYTES", 1 << 62):
        want, one = extract(path, Path(tempfile.mkdtemp(dir=path.parent)) / "out")
    assert not one
    assert got == want
    return got, split


@pytest.fixture
def split_all(monkeypatch):
    monkeypatch.setattr(model, "_SPLIT_MIN_BYTES", 0)


@settings(max_examples=150, deadline=None)
@given(data=article_files())
def test_split_read_equals_serial(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("split") / "articles.jsonl"
    path.write_bytes(data)
    # chunks of two text articles, so that chunks end in either half
    with mock.patch.object(model, "_SPLIT_MIN_BYTES", 0), \
            mock.patch.object(topicgraph, "CHUNK_ARTICLES", 2):
        _, split = extract_and_compare(path)
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


def test_repeats_and_empty_articles_across_the_split(tmp_path, split_all):
    # "k" is kept in the first half and repeated twice in the second, once
    # after an article without usable terms; "r" repeats within the second;
    # "t" repeats in the second with a term that no kept article holds, so
    # the child's vocabulary holds "zebra" but no row does
    first = [article("k", "vote ballot party"), article("e1", "the and 42"), "{",
             article("t", terms=["goal", "Team"]), article("s", terms=["x", "\ud800"])]
    second = [article("k", "goal team"), article("e2", terms=["the"]), article("r", "coach goal"),
              article("k", terms=["vote"]), article("r", "vote"), article("n", "team coach vote"),
              article("t", "zebra"), "\ufeff" + article("b", "vote")]
    path = tmp_path / "articles.jsonl"
    path.write_bytes(halves(first, second, end="\r\n"))
    (code, files, _, err), split = extract_and_compare(path)
    assert split
    assert code == 0
    assert err == ("warning: 3 malformed article line(s) skipped\n"
                   "warning: 4 repeated article(s) skipped\n"
                   "warning: 2 article(s) without usable terms skipped\n")
    assert b"zebra" not in b"".join(files.values())


@pytest.mark.parametrize("bad_line", [3, 16])
def test_invalid_utf8_in_either_half_gives_the_serial_error(tmp_path, split_all, bad_line):
    data = halves([article(f"p{i}", "vote party") for i in range(10)],
                  [article(f"q{i}", "goal team coach") for i in range(10)]).split(b"\n")
    data[bad_line] = data[bad_line].replace(b"vote", b"vo\xffte").replace(b"goal", b"go\xffal")
    path = tmp_path / "articles.jsonl"
    path.write_bytes(b"\n".join(data))
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        (code, files, out, err), split = extract_and_compare(path)
    assert fork.call_count == 1
    assert not split
    assert (code, files, out) == (2, {}, "")
    assert err.startswith("error: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


def one_file(tmp_path):
    path = tmp_path / "articles.jsonl"
    path.write_bytes(halves([article("a", "vote party"), article("b", terms=["goal", "team"])],
                            [article("a", "coach"), article("c", "vote goal coach team")]))
    return path


def test_a_failed_child_gives_a_serial_read(tmp_path, split_all):
    with mock.patch.object(pickle, "dump", side_effect=OSError("no room")):
        (code, _, _, err), split = extract_and_compare(one_file(tmp_path))
    assert not split
    assert code == 0
    assert err == "warning: 1 repeated article(s) skipped\n"


def test_without_fork_one_process_reads(tmp_path, split_all, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert not extract_and_compare(one_file(tmp_path))[1]


def test_one_cpu_or_another_thread_gives_one_read(tmp_path, split_all):
    path = one_file(tmp_path)
    assert extract_and_compare(path)[1]
    with mock.patch.object(os, "sched_getaffinity", return_value={0}, create=True):
        assert not extract_and_compare(path)[1]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not extract_and_compare(path)[1]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_small_files_are_one_read(tmp_path):
    assert not extract_and_compare(one_file(tmp_path))[1]


CHILD = """
import sys
from engdyn import cli, model

def read_halves(*args, _read_halves=model.read_halves):
    articles = _read_halves(*args)
    print("split", articles is not None)
    return articles

model._SPLIT_MIN_BYTES, model.read_halves = 0, read_halves
sys.exit(cli.main(["extract-topics", "--input", sys.argv[1], "--out", sys.argv[2]]))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
                    else (os.cpu_count() or 1) < 2, reason="a split read needs two CPUs")
def test_split_read_leaves_no_file_open(tmp_path):
    # under -X dev a file object left open prints a ResourceWarning, from
    # whichever half held it
    path = tmp_path / "articles.jsonl"
    path.write_bytes(halves([article("a", "vote party"), article("b", terms=["goal", "team"])],
                            [article("c", "coach vote"), article("d", "vote goal coach team")]))
    src = str(Path(engdyn.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-X", "dev", "-c", CHILD, str(path),
                            str(tmp_path / "out")],
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                           text=True, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith("split True\n")
