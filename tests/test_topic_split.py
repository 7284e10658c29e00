"""``analyze`` fitting its topics in two processes against one.

With ``_SPLIT_MIN_POSTS`` lowered to 0, every run with two or more topics
fits them in two parts, the topics after the cut in a forked child, through
the ``model.fork_halves`` that the two-process reads use. The exit code, the
whole output tree, stdout and stderr must be those of fitting every topic in
one process, and no child may be left behind.
"""

import contextlib
import io
import json
import math
import os
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engdyn import cli, metrics, model
from engdyn.errors import DomainError

BASE = datetime(2018, 1, 1, tzinfo=timezone.utc)
CATEGORIES = ["Politics", "Economy", "Labor"]


def post(post_id, topic_id, stamp, likes=3, love=1, angry=0):
    return json.dumps({"post_id": post_id, "topic_id": topic_id, "timestamp": stamp,
                       "likes": likes, "shares": 1 if likes else 0,
                       "comments": 2 if likes else 0, "love": love, "angry": angry},
                      ensure_ascii=False)


def day(days):
    return (BASE + timedelta(days=days)).strftime("%Y-%m-%dT%H:%M:%SZ")


def topic(topic_id, kind, n=40):
    """The post lines of a topic of ``kind``: "fit" (``n`` posts on a
    logistic curve), or one that analyze skips: "one" (a single post),
    "bin" (three posts in one day), "zero" (no engagement) or "far" (a span
    of more bins than ``model.MAX_BINS``)."""
    tag = f"{topic_id}#{kind}"
    if kind == "fit":
        slope, middle = 0.02 + 0.01 * (n % 7), 50.0 + n
        return [post(f"{tag}{k}", topic_id,
                     day(middle + math.log((k + 0.5) / (n - k - 0.5)) / slope),
                     likes=1 + k % 5, love=k % 3, angry=(k + n) % 4)
                for k in range(n)]
    if kind == "one":
        return [post(f"{tag}0", topic_id, day(3))]
    if kind == "bin":
        return [post(f"{tag}{k}", topic_id, day(3 + k / 10)) for k in range(3)]
    if kind == "zero":
        return [post(f"{tag}{k}", topic_id, day(3 * k), likes=0) for k in range(3)]
    assert kind == "far"
    return [post(f"{tag}0", topic_id, "0001-01-01T00:00:00Z"),
            post(f"{tag}1", topic_id, "2999-01-01T00:00:00Z")]


def corpus(tmp_path, topics):
    """Posts of ``topics`` (``(id, kind, n)``), interleaved, and a category
    file that puts them in turn in one of three categories."""
    per_topic = [topic(*spec) for spec in topics]
    lines = [topic_lines[k] for k in range(max(map(len, per_topic)))
             for topic_lines in per_topic if k < len(topic_lines)]
    path = tmp_path / "posts.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    categories = tmp_path / "categories.csv"
    categories.write_text("topic_id,category\n" + "".join(
        f'"{topic_id}",{CATEGORIES[i % 3]}\n' for i, (topic_id, _, _) in enumerate(topics)),
        encoding="utf-8")
    return path, categories


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_tree(out):
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()} if out.exists() else {}


def analyze(path, categories, out, extra):
    """``analyze`` on ``path``: (exit code, output tree, stdout, stderr), the
    topics the caller fitted first when it split, and what the split
    returned (``[]``: not tried, ``[None]``: fell back to one process)."""
    split, heads = [], []
    real_split, real_fit = model.fork_halves, cli._fit_topics
    pid = os.getpid()

    def spy(*args):
        split.append(real_split(*args))
        return split[-1]

    def fit_topics(grouped, tids, args):
        if os.getpid() == pid and not heads:
            heads.append(tids)
        return real_fit(grouped, tids, args)

    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(model, "fork_halves", spy), \
            mock.patch.object(cli, "_fit_topics", fit_topics), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["analyze", "--input", str(path), "--categories", str(categories),
                         "--out", str(out), *extra])
    assert_no_child()
    return (code, read_tree(out), stdout.getvalue(), stderr.getvalue()), heads[0], split


def analyze_and_compare(tmp_path, topics, extra=()):
    """:func:`analyze`, checked against fitting every topic in one process;
    returns the result, the topics fitted first and what the split returned."""
    path, categories = corpus(tmp_path, topics)
    got, head, split = analyze(path, categories, tmp_path / "split", extra)
    with mock.patch.object(cli, "_SPLIT_MIN_POSTS", 1 << 62):
        want, whole, one = analyze(path, categories, tmp_path / "one", extra)
    assert one == []
    assert whole == sorted(topic_id for topic_id, _, _ in topics)
    assert got == want
    return got, head, split


@pytest.fixture
def split_all(monkeypatch):
    monkeypatch.setattr(cli, "_SPLIT_MIN_POSTS", 0)


# every kind of skip on each side of the cut; "a/1" (head), "a?1" and "a_1"
# (tail) all sanitize to "a_1"
HEAD = [("a/1", "fit", 40), ("a0", "one", 1), ("a1", "bin", 3), ("a2", "zero", 3),
        ("a3", "far", 2), ("a4", "fit", 86)]
TAIL = [("a?1", "fit", 40), ("aA", "one", 1), ("aB", "bin", 3), ("aC", "zero", 3),
        ("aD", "far", 2), ("aE", "fit", 41), ("a_1", "fit", 45)]
REASONS = ["InsufficientData", "InsufficientData", "ZeroEngagement", "TooManyBins"]
SKIPPED = "".join(f"skipped topic {topic_id}: {reason}\n"
                  for ids in (["a0", "a1", "a2", "a3"], ["aA", "aB", "aC", "aD"])
                  for topic_id, reason in zip(ids, REASONS))


@pytest.mark.parametrize("extra", [[], ["--plots"], ["--lh-mode", "mean"],
                                   ["--plots", "--lh-mode", "mean"]])
def test_skips_and_plot_names_on_both_sides_of_the_cut(tmp_path, split_all, extra):
    (code, files, _, err), head, split = analyze_and_compare(tmp_path, HEAD + TAIL, extra)
    assert head == sorted(topic_id for topic_id, _, _ in HEAD)
    assert split != [] and split != [None]
    assert code == 1
    assert err.endswith(SKIPPED)
    if "--plots" in extra:
        plots = sorted(name for name in files if name.startswith("plots/"))
        assert plots == ["plots/a4.svg", "plots/aE.svg", "plots/a_1-1.svg",
                         "plots/a_1-2.svg", "plots/a_1.svg", "plots/si_vs_lh.svg"]
        assert "a/1" in files["plots/a_1.svg"].decode()
        assert "a?1" in files["plots/a_1-1.svg"].decode()
    else:
        assert not any(name.startswith("plots/") for name in files)


IDS = ["a/1", "a?1", "a_1", "a_1-1", "b", "é", "ü", "__", "si_vs_lh"]
KINDS = ["fit", "fit", "one", "bin", "zero", "far"]


@settings(max_examples=25, deadline=None)
@given(topics=st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(KINDS),
                                 st.integers(20, 60)),
                       min_size=1, max_size=8, unique_by=lambda spec: spec[0]),
       plots=st.booleans())
def test_split_fit_equals_serial(tmp_path_factory, topics, plots):
    with mock.patch.object(cli, "_SPLIT_MIN_POSTS", 0):
        _, head, split = analyze_and_compare(tmp_path_factory.mktemp("split"), topics,
                                             ["--plots"] if plots else [])
    assert (split != []) == (len(topics) > 1)
    assert head == sorted(topic_id for topic_id, _, _ in topics)[:len(head)]


def test_a_failed_child_gives_a_serial_fit(tmp_path, split_all):
    pid, real = os.getpid(), cli._fit_topics

    def fit_topics(*args):
        if os.getpid() != pid:
            raise RuntimeError("the child fails")
        return real(*args)

    with mock.patch.object(cli, "_fit_topics", fit_topics):
        (code, files, _, _), _, split = analyze_and_compare(tmp_path, HEAD + TAIL, ["--plots"])
    assert split == [None]
    assert code == 1
    assert "plots/a_1-2.svg" in files


@pytest.mark.parametrize("failing", ["a4", "aE"])
def test_an_error_in_either_part_exits_as_one_process(tmp_path, split_all, failing):
    real = metrics.topic_metrics

    def topic_metrics(topic_id, *args):
        if topic_id == failing:
            raise DomainError(f"cannot score {topic_id}")
        return real(topic_id, *args)

    with mock.patch.object(metrics, "topic_metrics", topic_metrics):
        (code, files, out, err), _, split = analyze_and_compare(tmp_path, HEAD + TAIL)
    assert split == [None]
    assert (code, files, out, err) == (2, {}, "", f"error: cannot score {failing}\n")


def test_split_needs_two_topics_and_the_threshold(tmp_path):
    topics = [("x", "fit", 30), ("y", "fit", 30)]
    for name in ("at", "below", "one"):
        (tmp_path / name).mkdir()
    with mock.patch.object(cli, "_SPLIT_MIN_POSTS", 60):
        assert analyze_and_compare(tmp_path / "at", topics)[2] not in ([], [None])
    with mock.patch.object(cli, "_SPLIT_MIN_POSTS", 61):
        assert analyze_and_compare(tmp_path / "below", topics)[2] == []
    with mock.patch.object(cli, "_SPLIT_MIN_POSTS", 0):
        assert analyze_and_compare(tmp_path / "one", topics[:1])[2] == []
