"""Command-line surface: extract-topics, analyze, simulate.

All outputs are UTF-8, CSVs carry a header row, JSON is pretty-printed,
and every command is byte-identical across reruns for a fixed seed. Exit
codes: 0 success, 1 partial (some topics skipped), 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import curvefit, metrics, model, stats, svgplot, synth, topicgraph
from .errors import (DegenerateFit, EmptyArticle, EngdynError,
                     InsufficientData, InvalidInput, TooManyBins,
                     UndefinedCorrelation, ZeroEngagement)

MATRIX_METRICS = ("alpha", "beta", "speed_index", "love_hate")
ROUNDED_THRESHOLD = 0.001  # the conventional rounding of 0.05 / 45


@dataclass(frozen=True)
class RunConfig:
    posts_path: Path
    out_dir: Path
    categories_path: Path | None = None
    bin_width: float = 1.0
    lh_mode: str = "pooled"
    alpha_level: float = 0.05
    seed: int = 0
    plots: bool = False

    def __post_init__(self):
        if not (0.0 < self.alpha_level < 1.0):
            raise InvalidInput("alpha-level must lie in (0, 1)")
        if not (math.isfinite(self.bin_width) and self.bin_width > 0):
            raise InvalidInput("bin-width-days must be positive and finite")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _open_csv(path: Path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


# ---------------------------------------------------------------- analyze

def _process_topic(topic_id, posts, config):
    """Series + fit + metrics for one topic; returns (result, skip_reason)."""
    try:
        series = model.build_series(posts, topic_id, config.bin_width)
        fit_result = curvefit.fit(series)
        topic_metrics = metrics.topic_metrics(
            topic_id, posts, fit_result.alpha_hat, fit_result.beta_hat,
            series.horizon_days, config.lh_mode)
    except (InsufficientData, TooManyBins, ZeroEngagement, DegenerateFit) as exc:
        return None, type(exc).__name__
    return (series, fit_result, topic_metrics), None


def run_analysis(config: RunConfig) -> dict:
    """The full per-topic pipeline plus the cross-category statistics.

    Returns a manifest with the skipped-topic map; file outputs land under
    ``config.out_dir``.
    """
    parse_result = model.load_posts(config.posts_path)
    if not parse_result.records:
        raise InvalidInput(f"{config.posts_path}: no valid post records")
    assignments = {}
    if config.categories_path is not None:
        assignments = model.read_categories(config.categories_path)

    grouped = model.group_by_topic(parse_result.records)
    topic_ids = sorted(grouped)

    results: dict[str, tuple] = {}
    skipped: dict[str, str] = {}
    for tid in topic_ids:
        result, reason = _process_topic(tid, grouped[tid], config)
        if reason is not None:
            skipped[tid] = reason
        else:
            results[tid] = result

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    fitted_ids = sorted(results)

    fh, writer = _open_csv(out / "fits.csv")
    with fh:
        writer.writerow(["topic_id", "alpha", "beta", "se_alpha", "se_beta",
                         "rss", "n_points", "converged", "iterations"])
        for tid in fitted_ids:
            fr = results[tid][1]
            writer.writerow([tid, _fmt(fr.alpha_hat), _fmt(fr.beta_hat),
                             _fmt(fr.se_alpha), _fmt(fr.se_beta), _fmt(fr.rss),
                             fr.n_points, _fmt(fr.converged), fr.iterations])

    fh, writer = _open_csv(out / "metrics.csv")
    with fh:
        writer.writerow(["topic_id", "speed_index", "lh_score", "lh_mode",
                         "total_love", "total_angry", "n_posts"])
        for tid in fitted_ids:
            series, _, tm = results[tid]
            writer.writerow([tid, _fmt(tm.speed_index), _fmt(tm.lh_score),
                             config.lh_mode, tm.total_love, tm.total_angry,
                             series.n_posts])

    correlations = _correlation_report(results, assignments)
    _write_json(out / "correlations.json", correlations)

    tests_summary, matrices = _category_tests(results, assignments, config)
    matrix_dir = out / "matrices"
    matrix_dir.mkdir(exist_ok=True)
    for name, matrix in matrices.items():
        _write_matrix_csv(matrix_dir / f"{name}.csv", matrix)
        _write_json(matrix_dir / f"{name}_summary.json", matrix.summary())
    _write_significance_table(matrix_dir / "significance_summary.csv", matrices)

    category_table = _category_table(results, assignments)
    fh, writer = _open_csv(out / "category_summary.csv")
    with fh:
        writer.writerow(["category", "alpha_mean", "alpha_sd", "beta_mean",
                         "beta_sd", "si_mean", "si_sd"])
        for row in category_table:
            writer.writerow([row["category"], _fmt(row["alpha_mean"]),
                             _fmt(row["alpha_sd"]), _fmt(row["beta_mean"]),
                             _fmt(row["beta_sd"]), _fmt(row["si_mean"]),
                             _fmt(row["si_sd"])])

    if config.plots:
        _write_plots(out / "plots", results)

    summary = {
        "config": {
            "bin_width_days": config.bin_width,
            "lh_mode": config.lh_mode,
            "alpha_level": config.alpha_level,
            "seed": config.seed,
        },
        "n_input_topics": len(topic_ids),
        "n_fitted": len(fitted_ids),
        "n_converged": sum(1 for tid in fitted_ids if results[tid][1].converged),
        "n_rejected_lines": parse_result.n_rejected,
        "skipped": skipped,
        "per_category": category_table,
        "tests": tests_summary,
    }
    _write_json(out / "summary.json", summary)
    return summary


def _correlation_report(results, assignments) -> dict:
    """Speed Index vs Love-Hate rank correlation, overall and per category."""
    pairs = {tid: (tm.speed_index, tm.lh_score)
             for tid, (_, _, tm) in results.items() if tm.lh_score is not None}

    def corr(ids):
        xs = [pairs[t][0] for t in ids]
        ys = [pairs[t][1] for t in ids]
        try:
            r = stats.spearman(xs, ys)
        except (InvalidInput, UndefinedCorrelation) as exc:
            return {"error": str(exc), "n": len(ids)}
        return {"rho": r.rho, "p_value": r.p_value, "n": r.n}

    report = {"metric": "speed_index_vs_love_hate",
              "all": corr(sorted(pairs))}
    by_category: dict[str, dict] = {}
    for cat in model.CATEGORIES:
        ids = sorted(t for t in pairs
                     if t in assignments and cat in assignments[t].categories)
        if ids:
            by_category[cat] = corr(ids)
    report["by_category"] = by_category
    return report


def _category_tests(results, assignments, config):
    values = {
        "alpha": {tid: fr.alpha_hat for tid, (_, fr, _) in results.items()},
        "beta": {tid: fr.beta_hat for tid, (_, fr, _) in results.items()},
        "speed_index": {tid: tm.speed_index for tid, (_, _, tm) in results.items()},
        "love_hate": {tid: tm.lh_score for tid, (_, _, tm) in results.items()
                      if tm.lh_score is not None},
    }
    summaries: dict[str, dict] = {}
    matrices: dict[str, stats.PairwiseTestMatrix] = {}
    # a category excluded for its size is a notice on stderr, which no
    # warning filter can turn into an error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name in MATRIX_METRICS:
            try:
                matrix = stats.pairwise_category_tests(
                    values[name], assignments.values(), name,
                    alpha_level=config.alpha_level,
                    category_order=model.CATEGORIES)
            except InvalidInput as exc:
                summaries[name] = {"error": str(exc)}
                continue
            matrices[name] = matrix
            summary = matrix.summary()
            summary["frac_below_rounded_0.001"] = matrix.frac_significant(ROUNDED_THRESHOLD)
            summary["excluded_categories"] = list(matrix.excluded)
            summaries[name] = summary
    for notice in caught:
        print(f"warning: {notice.message}", file=sys.stderr)
    return summaries, matrices


def _write_matrix_csv(path: Path, matrix: stats.PairwiseTestMatrix) -> None:
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow([""] + list(matrix.categories))
        for i, cat in enumerate(matrix.categories):
            row = [cat]
            for j in range(len(matrix.categories)):
                row.append("" if i == j else _fmt(float(matrix.p_values[i, j])))
            writer.writerow(row)


def _write_significance_table(path: Path, matrices) -> None:
    names = [n for n in MATRIX_METRICS if n in matrices]
    fh, writer = _open_csv(path)
    with fh:
        writer.writerow([""] + names)
        below = [matrices[n].frac_significant() for n in names]
        writer.writerow(["below_threshold"] + [_fmt(v) for v in below])
        writer.writerow(["above_threshold"] + [_fmt(1.0 - v) for v in below])


def _category_table(results, assignments) -> list[dict]:
    per_cat: dict[str, list[tuple[float, float, float]]] = {}
    for tid, (_, fr, tm) in results.items():
        if tid not in assignments:
            continue
        for cat in assignments[tid].categories:
            per_cat.setdefault(cat, []).append(
                (fr.alpha_hat, fr.beta_hat, tm.speed_index))

    def mean_sd(xs):
        arr = np.asarray(xs)
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else None
        return mean, sd

    table = []
    for cat in model.CATEGORIES:
        if cat not in per_cat:
            continue
        triples = per_cat[cat]
        a_mean, a_sd = mean_sd([t[0] for t in triples])
        b_mean, b_sd = mean_sd([t[1] for t in triples])
        s_mean, s_sd = mean_sd([t[2] for t in triples])
        table.append({
            "category": cat, "n_topics": len(triples),
            "alpha_mean": a_mean, "alpha_sd": a_sd,
            "beta_mean": b_mean, "beta_sd": b_sd,
            "si_mean": s_mean, "si_sd": s_sd,
        })
    return table


def _write_plots(plot_dir: Path, results) -> None:
    plot_dir.mkdir(exist_ok=True)
    used: set[str] = set()
    for tid in sorted(results):
        series, fr, _ = results[tid]
        svg = svgplot.fit_overlay_svg(series.times, series.fractions,
                                      fr.alpha_hat, fr.beta_hat, tid)
        name = base = _safe_name(tid)
        suffix = 1
        while name in used:  # distinct ids can sanitize identically
            name = f"{base}-{suffix}"
            suffix += 1
        used.add(name)
        (plot_dir / f"{name}.svg").write_text(svg, encoding="utf-8")
    points = [(tm.speed_index, tm.lh_score)
              for _, _, tm in (results[t] for t in sorted(results))
              if tm.lh_score is not None]
    if points:
        svg = svgplot.scatter_svg([p[0] for p in points], [p[1] for p in points],
                                  "speed index", "love-hate score",
                                  "speed index vs love-hate")
        (plot_dir / "si_vs_lh.svg").write_text(svg, encoding="utf-8")


def cmd_analyze(args) -> int:
    try:
        config = RunConfig(
            posts_path=Path(args.input),
            out_dir=Path(args.out),
            categories_path=Path(args.categories) if args.categories else None,
            bin_width=args.bin_width_days,
            lh_mode=args.lh_mode,
            alpha_level=args.alpha_level,
            seed=args.seed,
            plots=args.plots,
        )
        summary = run_analysis(config)
    except (OSError, EngdynError) as exc:
        return _fail(str(exc))
    if summary["n_rejected_lines"]:
        print(f"warning: {summary['n_rejected_lines']} malformed input line(s) "
              f"rejected", file=sys.stderr)
    if summary["skipped"]:
        for tid, reason in sorted(summary["skipped"].items()):
            print(f"skipped topic {tid}: {reason}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------- extract-topics

def _decode_article(line: str, stopwords: frozenset[str]
                    ) -> topicgraph.ArticleTerms | tuple[str, str]:
    """Top terms of a pre-tokenized articles line, or (article_id, text) of
    a text line; ValueError, KeyError or TypeError when the line is
    malformed, EmptyArticle when no usable term is left."""
    obj = json.loads(line)
    article_id = obj["article_id"]
    if "terms" in obj:
        terms = obj["terms"]
        if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
            raise TypeError("terms must be a list of strings")
        # a lone surrogate, which the UTF-8 outputs cannot hold, raises a ValueError
        "".join(terms).encode("utf-8")
        return topicgraph.count_terms(article_id, terms, stopwords)
    text = obj["text"]
    if not isinstance(text, str):
        raise TypeError("text must be a string")
    return article_id, text


def _read_articles(lines, stopwords: frozenset[str]):
    """(articles, malformed line count, count of articles without terms).

    Text articles go through the term kernel a chunk at a time and keep
    their place among the pre-tokenized ones.
    """
    articles: list = []
    pending: list[tuple[int, str, str]] = []  # (place, article_id, text)
    bad_lines = empty_articles = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            article = _decode_article(line, stopwords)
        # ValueError covers invalid JSON and integers past the digit limit;
        # RecursionError, JSON nested too deeply to decode
        except (ValueError, KeyError, TypeError, RecursionError):
            bad_lines += 1
            continue
        except EmptyArticle:
            empty_articles += 1
            continue
        if isinstance(article, tuple):
            pending.append((len(articles), *article))
        articles.append(article)
        if len(pending) == topicgraph.CHUNK_ARTICLES:
            _count_texts(articles, pending, stopwords)
    if pending:
        _count_texts(articles, pending, stopwords)
    usable = [article for article in articles if article is not None]
    return usable, bad_lines, empty_articles + len(articles) - len(usable)


def _count_texts(articles: list, pending: list[tuple[int, str, str]],
                 stopwords: frozenset[str]) -> None:
    """Put the top terms of each pending text article, or None when it has
    none, in its place in ``articles``, and empty ``pending``."""
    found = topicgraph.extract_terms_chunk(
        [article_id for _, article_id, _ in pending],
        [text for _, _, text in pending], stopwords)
    for (place, _, _), terms in zip(pending, found):
        articles[place] = terms
    pending.clear()


def cmd_extract_topics(args) -> int:
    # the file is read line by line, so the whole text is never held at
    # once; universal newlines split only at \n, \r and \r\n, never at
    # U+2028 and the like, which JSON strings may hold raw
    try:
        stopwords = topicgraph.load_stopwords(args.stopwords)
        with open(args.input, encoding="utf-8-sig") as fh:
            articles, bad_lines, empty_articles = _read_articles(fh, stopwords)
    except OSError as exc:
        return _fail(str(exc))
    if bad_lines:
        print(f"warning: {bad_lines} malformed article line(s) skipped",
              file=sys.stderr)
    if empty_articles:
        print(f"warning: {empty_articles} article(s) without usable terms "
              "skipped", file=sys.stderr)
    if not articles:
        return _fail("empty corpus")

    graph = topicgraph.louvain(topicgraph.project(articles), seed=args.seed)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        fh, writer = _open_csv(out / "edges.csv")
        with fh:
            writer.writerow(["term1", "term2", "weight"])
            for (a, b), weight in zip(graph.edges.tolist(), graph.weights.tolist()):
                writer.writerow([graph.nodes[a], graph.nodes[b], weight])

        fh, writer = _open_csv(out / "partition.csv")
        with fh:
            writer.writerow(["term", "community"])
            for term in graph.nodes:
                writer.writerow([term, graph.partition[term]])

        fh, writer = _open_csv(out / "clusters.csv")
        with fh:
            writer.writerow(["community", "rank", "term", "intra_degree"])
            for cid, ranked in topicgraph.cluster_report(graph):
                for rank, (term, degree) in enumerate(ranked, start=1):
                    writer.writerow([cid, rank, term, _fmt(degree)])
    except OSError as exc:
        return _fail(str(exc))

    print(f"{len(set(graph.partition.values()))} communities over "
          f"{len(graph.nodes)} terms (Q={graph.modularity:.4f})")
    return 0


# ----------------------------------------------------------------- simulate

def _specs_from_json(obj, cli_seed: int | None):
    if isinstance(obj, list):
        entries, file_seed = obj, None
    elif isinstance(obj, dict) and isinstance(obj.get("topics"), list):
        entries, file_seed = obj["topics"], obj.get("seed")
    else:
        raise InvalidInput("spec JSON must be a list or {'topics': [...]}")
    default_seed = next(s for s in (cli_seed, file_seed, 0) if s is not None)
    specs = []
    category_map = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise InvalidInput("each topic spec must be a JSON object")
        fields = dict(entry)
        categories = fields.pop("categories", [])
        if not (isinstance(categories, list)
                and all(isinstance(c, str) for c in categories)):
            raise InvalidInput("categories must be a list of strings")
        unknown = set(categories) - set(model.CATEGORIES)
        if unknown:
            raise InvalidInput(f"unknown categories {sorted(unknown)}")
        fields.setdefault("noise_seed", default_seed)
        try:
            spec = synth.SynthSpec(**fields)
        except TypeError as exc:
            raise InvalidInput(f"bad topic spec: {exc}") from exc
        specs.append(spec)
        category_map[spec.topic_id] = list(categories)
    return specs, category_map


def cmd_simulate(args) -> int:
    try:
        obj = json.loads(Path(args.input).read_text(encoding="utf-8-sig"))
        specs, category_map = _specs_from_json(obj, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        synth.generate_corpus(specs, category_map,
                              out / "posts.jsonl", out / "categories.csv")
    # RecursionError: spec JSON nested too deeply to decode
    except (OSError, EngdynError, json.JSONDecodeError, RecursionError) as exc:
        return _fail(str(exc))
    print(f"wrote {sum(s.n_posts for s in specs)} posts across "
          f"{len(specs)} topics to {args.out}")
    return 0


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engdyn",
        description="Engagement dynamics toolkit: topic extraction, growth "
                    "curve fits, speed/controversy metrics, category tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-topics",
                       help="cluster article keywords into topic candidates")
    p.add_argument("--input", required=True,
                   help="articles JSONL ({article_id, text} or {article_id, terms})")
    p.add_argument("--stopwords", default=None,
                   help="stopword list path (default: bundled English list)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extract_topics)

    p = sub.add_parser("analyze",
                       help="fit engagement curves and run the statistics")
    p.add_argument("--input", required=True, help="posts JSONL path")
    p.add_argument("--categories", default=None,
                   help="topic_id,category CSV path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bin-width-days", type=float, default=1.0)
    p.add_argument("--lh-mode", choices=["pooled", "mean"], default="pooled")
    p.add_argument("--alpha-level", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plots", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="generate a synthetic ground-truth corpus")
    p.add_argument("--input", required=True, help="spec JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="noise seed for topics that do not set one")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "lh_mode", None) == "mean":
        args.lh_mode = "mean_of_posts"
    try:
        return args.func(args)
    except UnicodeDecodeError as exc:
        # every command reads all of its input before it writes anything
        return _fail(f"not UTF-8 text: {exc}")


def console_main() -> None:
    sys.exit(main())
