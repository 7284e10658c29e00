import dataclasses
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from engdyn.model import TopicSeries
from engdyn.topicgraph import TermGraph

from record_oracle import PostRecord, table_of  # tests take table_of from here

EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)


def make_post(topic_id="t", day=0.0, likes=1, shares=0, comments=0, love=0,
              angry=0, post_id=None):
    stamp = EPOCH + timedelta(days=day)
    return PostRecord(
        post_id=post_id or f"{topic_id}-{day}",
        topic_id=topic_id,
        timestamp=stamp,
        likes=likes, shares=shares, comments=comments,
        love=love, angry=angry,
    )


def series_from_curve(times, fractions, topic_id="s", n_posts=100,
                      total=1000) -> TopicSeries:
    """Wrap raw (t, y) samples as a series for fitter-level tests."""
    times = np.asarray(times, dtype=float)
    return TopicSeries(
        topic_id=topic_id,
        t0=EPOCH,
        times=times,
        fractions=np.asarray(fractions, dtype=float),
        total_engagement=total,
        n_posts=n_posts,
        horizon_days=float(times[-1]),
    )


def series_fields(series: TopicSeries) -> dict:
    """``series``'s fields by name, with ``times`` and ``fractions`` as
    tuples of floats, so that ``==`` compares every value exactly."""
    fields = {f.name: getattr(series, f.name) for f in dataclasses.fields(series)}
    for name in ("times", "fractions"):
        fields[name] = tuple(fields[name].tolist())
    return fields


def assert_valid_series(series: TopicSeries) -> None:
    """The structural invariants of a series built by ``build_series``."""
    t = series.times
    y = series.fractions
    assert len(t) == len(y) >= 2
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert np.all((y >= 0.0) & (y <= 1.0))
    assert np.all(np.diff(y) >= 0.0)
    assert y[-1] == 1.0
    assert series.horizon_days == t[-1] > 0
    assert series.total_engagement > 0 and series.n_posts > 0


def graph_of(nodes, edges):
    """The TermGraph over ``nodes`` (a sequence of terms) whose edges are the
    pairs of ``edges``, a {(term, term): weight} dict."""
    index = {node: i for i, node in enumerate(nodes)}
    rows = sorted((*sorted((index[a], index[b])), w) for (a, b), w in edges.items())
    pairs = np.array([row[:2] for row in rows], dtype=np.intp).reshape(-1, 2)
    return TermGraph(nodes=tuple(nodes), edges=pairs,
                     weights=np.array([row[2] for row in rows]))


def columns(articles):
    """The columns ``project`` takes for ``articles``, each a sequence of
    terms: term ids over a first-seen vocabulary, the vocabulary, and each
    article's term count."""
    vocabulary = {}
    ids = [vocabulary.setdefault(term, len(vocabulary))
           for terms in articles for term in terms]
    return ids, list(vocabulary), [len(terms) for terms in articles]


def edge_rows(graph):
    """``graph``'s edges as (term, term, weight) rows, in stored order."""
    return [(graph.nodes[a], graph.nodes[b], w)
            for (a, b), w in zip(graph.edges.tolist(), graph.weights.tolist())]


TWO_CLIQUE = (("a", "b", "c", "x", "y", "z"),
              {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1,
               ("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 1,
               ("c", "x"): 1})


@pytest.fixture
def two_clique_graph():
    return graph_of(*TWO_CLIQUE)
