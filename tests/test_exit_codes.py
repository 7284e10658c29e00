"""Every command exits 0, 1 or 2, never with a traceback, on mutated input.

Small posts, category, article and spec files, and one posts file of more
than 1 MiB, are mutated by inserting bytes, cutting bytes, cutting lines and
repeating lines, and each is run through the command that reads it:
``analyze``, ``extract-topics`` or ``simulate``. With ``cli._SPLIT_MIN_POSTS``
at 0, the large file is read in two processes and its topics are fitted in
two, so the forked halves and the rows they pickle see mutated input too.
The examples come from a fixed seed, so every run tries the same inputs.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from engdyn import cli, model
from test_topic_split import assert_no_child

SPEC = {"seed": 7, "topics": [
    {"topic_id": "fast", "alpha_true": 0.05, "beta_true": 200.0, "horizon_days": 1400.0,
     "n_posts": 30, "lh_target": -0.5, "categories": ["Politics"]},
    {"topic_id": "slow", "alpha_true": 0.004, "beta_true": 800.0, "horizon_days": 1400.0,
     "n_posts": 40, "lh_target": 0.7, "categories": ["Politics", "Health"]},
    {"topic_id": "mid", "alpha_true": 0.01, "beta_true": 500.0, "horizon_days": 1400.0,
     "n_posts": 30, "categories": ["Health"]},
]}
ARTICLES = [
    {"article_id": "a1", "text": "The river vote split the town council again."},
    {"article_id": "a2", "text": "A second vote on the river bridge and the council."},
    {"article_id": "a3", "terms": ["bridge", "council", "toll", "river"]},
    {"article_id": "a4", "text": "Bridge tolls rise; the council blames the river."},
]
POSITION = st.integers(0, 1 << 30)  # taken modulo the input's length
MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("insert"), POSITION,
              st.binary(min_size=1, max_size=3) | st.text(min_size=1, max_size=3).map(str.encode)),
    st.tuples(st.just("cut"), POSITION, st.integers(1, 40)),
    st.tuples(st.just("cut_line"), POSITION),
    st.tuples(st.just("repeat_line"), POSITION),
), min_size=1, max_size=3)


def mutate(data: bytes, mutations) -> bytes:
    for kind, at, *size in mutations:
        if kind == "insert":
            at %= len(data) + 1
            data = data[:at] + size[0] + data[at:]
        elif kind == "cut":
            at %= len(data) + 1
            data = data[:at] + data[at + size[0]:]
        else:
            lines = data.splitlines(keepends=True)
            if lines:
                at %= len(lines)
                lines[at:at + 1] = [] if kind == "cut_line" else [lines[at]] * 2
                data = b"".join(lines)
    return data


def run(argv):
    """``argv``'s exit code and stderr; no forked child may outlive it."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert_no_child()
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Each input's name: (unmutated bytes, the argv that reads it at IN)."""
    root = tmp_path_factory.mktemp("inputs")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC, indent=1), encoding="utf-8")  # a field a line
    big_spec = root / "big_spec.json"
    big_spec.write_text(json.dumps({"seed": 3, "topics": [
        dict(topic, topic_id=f"{topic['topic_id']}{i}", n_posts=900)
        for i in range(3) for topic in SPEC["topics"]]}), encoding="utf-8")
    for name, path in (("small", spec), ("big", big_spec)):
        assert run(["simulate", "--input", str(path), "--out", str(root / name)])[0] == 0
    posts = (root / "small" / "posts.jsonl").read_bytes()
    big = (root / "big" / "posts.jsonl").read_bytes()
    assert len(big) > 1.1 * model._SPLIT_MIN_BYTES
    categories = root / "small" / "categories.csv"
    analyze = ["analyze", "--out", "OUT", "--plots"]
    return {
        "posts": (posts, analyze + ["--input", "IN", "--categories", str(categories)]),
        "big_posts": (big, analyze + ["--input", "IN", "--categories",
                                      str(root / "big" / "categories.csv")]),
        "categories": (categories.read_bytes(),
                       analyze + ["--input", str(root / "small" / "posts.jsonl"),
                                  "--categories", "IN"]),
        "articles": ("".join(json.dumps(a) + "\n" for a in ARTICLES).encode(),
                     ["extract-topics", "--input", "IN", "--out", "OUT"]),
        "spec": (spec.read_bytes(), ["simulate", "--input", "IN", "--out", "OUT"]),
    }


@seed(31)
@settings(max_examples=100, deadline=None, database=None)
@given(name=st.sampled_from(["posts", "big_posts", "categories", "articles", "spec"]),
       mutations=MUTATIONS)
def test_mutated_input_exits_with_a_contract_code(tmp_path_factory, inputs, name, mutations):
    data, argv = inputs[name]
    work = tmp_path_factory.mktemp("run")
    (work / "in").write_bytes(mutate(data, mutations))
    argv = [str(work / "in") if arg == "IN" else str(work / "out") if arg == "OUT" else arg
            for arg in argv]
    real, splits = model.fork_halves, []

    def spy(*args):
        splits.append(real(*args))
        return splits[-1]

    with mock.patch.object(cli, "_SPLIT_MIN_POSTS", 0), \
            mock.patch.object(model, "fork_halves", spy):
        code, err = run(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if name == "big_posts" and code != 2:
        assert len(splits) == 2  # the read, then the fit
