"""The benchmark's trace hooks still find the layers they time.

``perfbench/traced.py`` replaces the module attributes listed in its
``WRAPPED`` table with timing wrappers, so ``cli`` must keep reaching each
layer through those attributes: a layer renamed, or called some other way,
would read zero time and zero counts in the benchmark without any error.
"""

import importlib.util
import json
from pathlib import Path

import engdyn
from engdyn import cli, topicgraph

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
SPEC = {"seed": 5, "topics": [
    {"topic_id": f"t{i}", "alpha_true": 0.01, "beta_true": 500.0,
     "horizon_days": 1400.0, "n_posts": 40 + i, "categories": ["Politics"]}
    for i in range(3)]}


def load_traced():
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    traced = load_traced()
    assert traced.WRAPPED
    for module_name, attribute, _, _ in traced.WRAPPED:
        assert callable(getattr(getattr(engdyn, module_name), attribute))


def wrap_all(traced, monkeypatch):
    """A recorder whose spans time every ``WRAPPED`` attribute."""
    recorder = traced.Recorder()
    for module_name, attribute, name, count in traced.WRAPPED:
        module = getattr(engdyn, module_name)
        # registers the original, which monkeypatch puts back after the test
        monkeypatch.setattr(module, attribute, getattr(module, attribute))
        recorder.wrap(module, attribute, name, count)
    return recorder


def test_analyze_reaches_load_posts_through_the_module(tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    corpus = tmp_path / "corpus"
    assert cli.main(["simulate", "--input", str(spec), "--out", str(corpus)]) == 0

    traced = load_traced()
    recorder = wrap_all(traced, monkeypatch)
    root = recorder.open("process")
    code = cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                     "--categories", str(corpus / "categories.csv"),
                     "--out", str(tmp_path / "out")])
    recorder.close(root)
    assert code == 0

    layers = traced.layer_metrics(recorder.spans, root[4] - root[3])
    assert sum(1 for span in recorder.spans if span[2] == "model.load_posts") == 1
    assert layers["model.load_posts.posts"] == 40 + 41 + 42
    assert layers["model.load_posts.s"] > 0
    assert layers["model.build_series.calls"] == layers["curvefit.fit.calls"] == 3


def test_extract_topics_reaches_its_layers_through_the_module(tmp_path, monkeypatch):
    # the term kernel is not in WRAPPED, so its time shows in cli.self_s;
    # counting calls to the attribute shows that cli still goes through it
    texts = [("river vote " if i % 2 else "ballot rain ") * 3 for i in range(65)]
    path = tmp_path / "articles.jsonl"
    path.write_text("".join(json.dumps({"article_id": f"a{i}", "text": text}) + "\n"
                            for i, text in enumerate(texts)))
    # 32 articles reach the budget exactly, so chunks of 32, 32 and 1
    monkeypatch.setattr(topicgraph, "CHUNK_CHARS", sum(map(len, texts[:32])))
    kernel_calls = []
    kernel = topicgraph.extract_terms_chunk

    def counted(*args, **kwargs):
        kernel_calls.append(len(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(topicgraph, "extract_terms_chunk", counted)
    traced = load_traced()
    recorder = wrap_all(traced, monkeypatch)
    root = recorder.open("process")
    code = cli.main(["extract-topics", "--input", str(path),
                     "--out", str(tmp_path / "out")])
    recorder.close(root)
    assert code == 0

    assert kernel_calls == [32, 32, 1]
    names = [span[2] for span in recorder.spans]
    for layer in ("topicgraph.project", "topicgraph.louvain",
                  "topicgraph.cluster_report"):
        assert names.count(layer) == 1
    layers = traced.layer_metrics(recorder.spans, root[4] - root[3])
    assert layers["topicgraph.extract_terms.calls"] == 0
    assert layers["topicgraph.project.nodes"] == 4
    # the benchmark counts edges as len(graph.edges): one per edges.csv row
    rows = (tmp_path / "out" / "edges.csv").read_text().splitlines()[1:]
    assert layers["topicgraph.project.edges"] == len(rows) == 2
