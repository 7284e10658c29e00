"""Run one engdyn command with a span recorded around each layer's entry points.

    python traced.py SPANS_JSON ENGDYN_ARGS...

``cli`` reaches every layer through module attributes (``model.load_posts``,
``curvefit.fit``, ...), so replacing those attributes with timing wrappers
before ``cli.main`` runs sees every call without touching the package.
Spans stay in memory and are written to SPANS_JSON once the command has
returned; the exit code is the command's.

The parent turns the spans into per-layer metrics with
:func:`layer_metrics`. Times are ``time.perf_counter`` readings, which on
Linux come from the system-wide monotonic clock, so they line up with the
parent's spawn and exit times.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402


def _fit(result):
    return {"iterations": result.iterations}


def _graph(graph):
    return {"nodes": len(graph.nodes), "edges": len(graph.edges)}


def _partition(graph):
    return {"communities": len(set(graph.partition.values()))}


# (module, attribute, span name, counts taken from the return value)
WRAPPED = (
    ("cli", "cmd_analyze", "cli", None),
    ("cli", "cmd_extract_topics", "cli", None),
    ("model", "load_posts", "model.load_posts",
     lambda result: {"posts": len(result.records)}),
    ("model", "read_categories", "model.read_categories", None),
    ("model", "group_by_topic", "model.group_by_topic", None),
    ("model", "build_series", "model.build_series",
     lambda series: {"bins": len(series.times)}),
    ("curvefit", "fit", "curvefit.fit", _fit),
    ("metrics", "topic_metrics", "metrics.topic_metrics", None),
    ("stats", "spearman", "stats.spearman", None),
    ("stats", "pairwise_category_tests", "stats.pairwise_category_tests", None),
    ("svgplot", "fit_overlay_svg", "svgplot.fit_overlay_svg",
     lambda svg: {"bytes": len(svg)}),
    ("svgplot", "scatter_svg", "svgplot.scatter_svg", lambda svg: {"bytes": len(svg)}),
    ("topicgraph", "extract_terms", "topicgraph.extract_terms", None),
    ("topicgraph", "project", "topicgraph.project", _graph),
    ("topicgraph", "louvain", "topicgraph.louvain", _partition),
    ("topicgraph", "cluster_report", "topicgraph.cluster_report", None),
)


class Recorder:
    """In-memory spans: ``[id, parent id, name, start, end, counts]``."""

    def __init__(self):
        self.spans = []
        self._stack = [0]

    def open(self, name, start=None):
        span = [len(self.spans) + 1, self._stack[-1], name,
                time.perf_counter() if start is None else start, None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span, counts=None):
        span[4] = time.perf_counter()
        span[5] = counts
        self._stack.pop()

    def wrap(self, module, attribute, name, count):
        inner = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = inner(*args, **kwargs)
            except Exception as exc:
                self.close(span, {"error": type(exc).__name__})
                raise
            self.close(span, count(result) if count else None)
            return result

        setattr(module, attribute, wrapper)


def main(argv):
    spans_path, command = argv[0], argv[1:]
    recorder = Recorder()
    root = recorder.open("process", start=T_START)
    span = recorder.open("process.import")
    import engdyn
    from engdyn import cli
    recorder.close(span)
    for module_name, attribute, name, count in WRAPPED:
        recorder.wrap(getattr(engdyn, module_name), attribute, name, count)
    try:
        code = cli.main(command)
    finally:
        recorder.close(root)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    return code


# ------------------------------------------------------------- analysis

# no wrapped layer function calls another, so a layer's self time is its
# summed span time; the cli span's self time excludes the layers it calls
LAYER_TIMES = tuple(name for module, _, name, _ in WRAPPED if module != "cli")


def self_times(spans) -> dict:
    """Each span name's summed self time: duration minus its direct children."""
    child_time: dict = {}
    for sid, parent, _, start, end, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict = {}
    for sid, _, name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return totals


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q / 100.0 * len(values)) - 1)]


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer figures of one traced command run.

    ``wall_s`` is that child's wall time from spawn to exit. Everything it
    holds that no layer span covers (interpreter start, argument parsing,
    span writing, interpreter exit) is ``process.other_s``, so the self
    times of all layers plus ``process.other_s`` add up to ``wall_s``.
    A layer the command does not call reads 0, as do its counts.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
    own = self_times(spans)

    def counts(name, key):
        return [s[5][key] for s in by_name.get(name, ()) if s[5] and key in s[5]]

    out = {"process.import_s": own.get("process.import", 0.0)}
    for name in LAYER_TIMES:
        out[f"{name}.s"] = own.get(name, 0.0)
    out["cli.self_s"] = own.get("cli", 0.0)
    out["model.load_posts.posts"] = sum(counts("model.load_posts", "posts"))
    out["model.build_series.calls"] = len(by_name.get("model.build_series", ()))
    out["model.build_series.bins"] = sum(counts("model.build_series", "bins"))
    out["curvefit.fit.calls"] = len(by_name.get("curvefit.fit", ()))
    out["curvefit.fit.iterations"] = sum(counts("curvefit.fit", "iterations"))
    # a run has one fit per topic (200 on analyze-deep), so the p95 has ten
    # fits beyond it; a p99 would rest on two
    fit_ms = [(s[4] - s[3]) * 1e3 for s in by_name.get("curvefit.fit", ())]
    out["curvefit.fit.p50_ms"] = percentile(fit_ms, 50)
    out["curvefit.fit.p95_ms"] = percentile(fit_ms, 95)
    out["svgplot.fit_overlay_svg.calls"] = len(by_name.get("svgplot.fit_overlay_svg", ()))
    out["svgplot.bytes"] = (sum(counts("svgplot.fit_overlay_svg", "bytes"))
                            + sum(counts("svgplot.scatter_svg", "bytes")))
    out["topicgraph.extract_terms.calls"] = len(by_name.get("topicgraph.extract_terms", ()))
    out["topicgraph.project.nodes"] = sum(counts("topicgraph.project", "nodes"))
    out["topicgraph.project.edges"] = sum(counts("topicgraph.project", "edges"))
    out["topicgraph.louvain.communities"] = sum(counts("topicgraph.louvain", "communities"))
    out["process.other_s"] = wall_s - sum(
        t for name, t in own.items() if name != "process")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
