"""Command-line surface: extract-topics, analyze, simulate.

All outputs are UTF-8, CSVs carry a header row, JSON is pretty-printed,
and every command is byte-identical across reruns for a fixed seed. Exit
codes: 0 success, 1 partial (some topics skipped), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np

from . import curvefit, metrics, model, stats, svgplot, synth, topicgraph
from .errors import (DegenerateFit, EmptyArticle, EngdynError,
                     InsufficientData, InvalidInput, TooManyBins,
                     UndefinedCorrelation, ZeroEngagement)
from .model import write_csv

MATRIX_METRICS = ("alpha", "beta", "speed_index", "love_hate")
ROUNDED_THRESHOLD = 0.001  # the conventional rounding of 0.05 / 45
SCATTER_NAME = "si_vs_lh"  # plots/ stem of the scatter; no topic plot takes it
# _fit_all fits the topics in two processes from this many posts on. Split
# against one process, with plots, on the first N sorted topics of the
# benchmark's seed-3 analyze-deep corpus (medians of 40 alternating calls;
# 2-vCPU Xeon): 7.7k posts 16.1 vs 8.6 ms (split won 1/40), 9.8k 14.7 vs
# 11.3 (8/40), 12.3k 17.2 vs 19.6 (27/40), 13.5k 21.2 vs 24.2 (40/40), 15.6k
# 22.0 vs 26.2 (33/40), 30.1k 38.5 vs 56.1 (36/40)
_SPLIT_MIN_POSTS = 16_000


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _safe_name(name: str) -> str:
    """``name`` as an ASCII file stem, cut to 200 characters so that a
    ``-N`` suffix and an extension stay below the usual 255-byte limit."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name[:200])


# ---------------------------------------------------------------- analyze

def run_analysis(args) -> dict:
    """The full per-topic pipeline plus the cross-category statistics.

    Returns a manifest with the skipped-topic map; file outputs land under
    ``args.out``.
    """
    posts_path = Path(args.input)
    parse_result = model.load_posts(posts_path)
    if not parse_result.records:
        raise InvalidInput(f"{posts_path}: no valid post records")
    assignments = {}
    if args.categories:
        assignments = model.read_categories(Path(args.categories))

    grouped = model.group_by_topic(parse_result.records)
    # topics in sorted order, so ``results`` lists the fitted ones sorted
    results: dict[str, tuple] = {}
    skipped: dict[str, str] = {}
    tids = sorted(grouped)
    for tid, outcome in zip(tids, _fit_all(grouped, tids, args)):
        if isinstance(outcome, str):
            skipped[tid] = outcome
        else:
            results[tid] = outcome

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "fits.csv",
              ["topic_id", "alpha", "beta", "se_alpha", "se_beta", "rss",
               "n_points", "converged", "iterations"],
              ([tid, _fmt(fr.alpha_hat), _fmt(fr.beta_hat), _fmt(fr.se_alpha),
                _fmt(fr.se_beta), _fmt(fr.rss), fr.n_points, _fmt(fr.converged),
                fr.iterations] for tid, (_, fr, _, _) in results.items()),
              texts=results)
    write_csv(out / "metrics.csv",
              ["topic_id", "speed_index", "lh_score", "lh_mode", "total_love",
               "total_angry", "n_posts"],
              ([tid, _fmt(tm.speed_index), _fmt(tm.lh_score), args.lh_mode,
                tm.total_love, tm.total_angry, n_posts]
               for tid, (n_posts, _, tm, _) in results.items()),
              texts=results)

    # each category's fitted topics in sorted order, categories in
    # CATEGORIES order; a topic counts in each of its categories
    members = {}
    for cat in model.CATEGORIES:
        ids = [tid for tid in results if cat in assignments.get(tid, ())]
        if ids:
            members[cat] = ids

    correlations = _correlation_report(results, members)
    _write_json(out / "correlations.json", correlations)

    tests_summary, matrices = _category_tests(results, members, args.alpha_level)
    matrix_dir = out / "matrices"
    matrix_dir.mkdir(exist_ok=True)
    for name, matrix in matrices.items():
        _write_matrix_csv(matrix_dir / f"{name}.csv", matrix)
        _write_json(matrix_dir / f"{name}_summary.json", matrix.summary())
    _write_significance_table(matrix_dir / "significance_summary.csv", matrices)

    category_table = _category_table(results, members)
    columns = ["category", "alpha_mean", "alpha_sd", "beta_mean", "beta_sd",
               "si_mean", "si_sd"]
    write_csv(out / "category_summary.csv", columns,
              ([_fmt(row[key]) for key in columns] for row in category_table))

    if args.plots:
        _write_plots(out / "plots", results)

    summary = {
        "config": {
            "bin_width_days": args.bin_width_days,
            "lh_mode": args.lh_mode,
            "alpha_level": args.alpha_level,
            "seed": args.seed,
        },
        "n_input_topics": len(grouped),
        "n_fitted": len(results),
        "n_converged": sum(1 for _, fr, _, _ in results.values() if fr.converged),
        "n_rejected_lines": parse_result.n_rejected,
        "skipped": skipped,
        "per_category": category_table,
        "tests": tests_summary,
    }
    _write_json(out / "summary.json", summary)
    return summary


def _fit_topics(grouped, tids, args) -> list:
    """For each of ``tids``, its (post count, fit, metrics, SVG plot or None
    without ``--plots``), or the name of the error that skips it."""
    outcomes = []
    for tid in tids:
        posts = grouped[tid]
        try:
            series = model.build_series(posts, tid, args.bin_width_days)
            fit_result = curvefit.fit(series)
            topic_metrics = metrics.topic_metrics(
                tid, posts, fit_result.alpha_hat, fit_result.beta_hat,
                series.horizon_days, args.lh_mode)
        except (InsufficientData, TooManyBins, ZeroEngagement, DegenerateFit) as exc:
            outcomes.append(type(exc).__name__)
            continue
        svg = (svgplot.fit_overlay_svg(series.times, series.fractions, fit_result.alpha_hat,
                                       fit_result.beta_hat, tid) if args.plots else None)
        outcomes.append((series.n_posts, fit_result, topic_metrics, svg))
    return outcomes


def _fit_all(grouped, tids, args) -> list:
    """:func:`_fit_topics` of ``tids``. With :data:`_SPLIT_MIN_POSTS` posts or
    more, ``tids`` is cut where the running post count passes half its
    total, and a forked child fits the topics after the cut (see
    ``model.fork_halves``); if either half fails, all are fitted here again,
    so errors read as those of one process."""
    running = np.cumsum([len(grouped[tid]) for tid in tids])
    if len(tids) > 1 and running[-1] >= _SPLIT_MIN_POSTS:
        cut = min(int(np.searchsorted(running, running[-1] / 2)) + 1, len(tids) - 1)
        outcomes = model.fork_halves(
            lambda: _fit_topics(grouped, tids[:cut], args),
            lambda: _fit_topics(grouped, tids[cut:], args),
            pickle.dump, lambda first, pipe: first + pickle.load(pipe))
        if outcomes is not None:
            return outcomes
    return _fit_topics(grouped, tids, args)


def _correlation_report(results, members) -> dict:
    """Speed Index vs Love-Hate rank correlation, overall and per category."""
    pairs = {tid: (tm.speed_index, tm.lh_score)
             for tid, (_, _, tm, _) in results.items() if tm.lh_score is not None}

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
    for cat, ids in members.items():
        with_lh = [t for t in ids if t in pairs]
        if with_lh:
            by_category[cat] = corr(with_lh)
    report["by_category"] = by_category
    return report


def _category_tests(results, members, alpha_level):
    # each topic's values in MATRIX_METRICS order; a topic without
    # reactions has no love-hate score
    values = {tid: (fr.alpha_hat, fr.beta_hat, tm.speed_index, tm.lh_score)
              for tid, (_, fr, tm, _) in results.items()}
    summaries: dict[str, dict] = {}
    matrices: dict[str, stats.PairwiseTestMatrix] = {}
    for i, name in enumerate(MATRIX_METRICS):
        samples, excluded = {}, []
        for cat, ids in members.items():
            sample = [values[t][i] for t in ids if values[t][i] is not None]
            if len(sample) >= 2:
                samples[cat] = sample
            elif sample:
                excluded.append(cat)
                print(f"warning: category {cat!r} has {len(sample)} topic(s); "
                      f"excluded from pairwise {name} tests", file=sys.stderr)
        try:
            matrix = stats.pairwise_category_tests(samples, name,
                                                   alpha_level=alpha_level)
        except InvalidInput as exc:
            summaries[name] = {"error": str(exc)}
            continue
        matrices[name] = matrix
        summary = matrix.summary()
        summary["frac_below_rounded_0.001"] = matrix.frac_significant(ROUNDED_THRESHOLD)
        summary["excluded_categories"] = excluded
        summaries[name] = summary
    return summaries, matrices


def _write_matrix_csv(path: Path, matrix: stats.PairwiseTestMatrix) -> None:
    cats = matrix.categories
    write_csv(path, [""] + list(cats),
              ([cat] + ["" if i == j else _fmt(float(matrix.p_values[i, j]))
                        for j in range(len(cats))]
               for i, cat in enumerate(cats)))


def _write_significance_table(path: Path, matrices) -> None:
    names = [n for n in MATRIX_METRICS if n in matrices]
    below = [matrices[n].frac_significant() for n in names]
    write_csv(path, [""] + names,
              [["below_threshold"] + [_fmt(v) for v in below],
               ["above_threshold"] + [_fmt(1.0 - v) for v in below]])


def _category_table(results, members) -> list[dict]:
    def mean_sd(xs):
        arr = np.asarray(xs)
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else None
        return mean, sd

    table = []
    for cat, ids in members.items():
        a_mean, a_sd = mean_sd([results[t][1].alpha_hat for t in ids])
        b_mean, b_sd = mean_sd([results[t][1].beta_hat for t in ids])
        s_mean, s_sd = mean_sd([results[t][2].speed_index for t in ids])
        table.append({
            "category": cat, "n_topics": len(ids),
            "alpha_mean": a_mean, "alpha_sd": a_sd,
            "beta_mean": b_mean, "beta_sd": b_sd,
            "si_mean": s_mean, "si_sd": s_sd,
        })
    return table


def _write_plots(plot_dir: Path, results) -> None:
    plot_dir.mkdir(exist_ok=True)
    used = {SCATTER_NAME}
    free = {}  # base -> a suffix no higher than its first free one
    for tid, (_, _, _, svg) in results.items():
        name = base = _safe_name(tid)
        suffix = free.get(base, 1)
        while name in used:  # distinct ids can sanitize or cut identically
            name = f"{base}-{suffix}"
            suffix += 1
        free[base] = suffix  # names are only added, so the lower ones stay taken
        used.add(name)
        (plot_dir / f"{name}.svg").write_text(svg, encoding="utf-8")
    points = [(tm.speed_index, tm.lh_score)
              for _, _, tm, _ in results.values() if tm.lh_score is not None]
    if points:
        svg = svgplot.scatter_svg([p[0] for p in points], [p[1] for p in points],
                                  "speed index", "love-hate score",
                                  "speed index vs love-hate")
        (plot_dir / f"{SCATTER_NAME}.svg").write_text(svg, encoding="utf-8")


def cmd_analyze(args) -> int:
    if not (0.0 < args.alpha_level < 1.0):
        return _fail("alpha-level must lie in (0, 1)")
    if not (math.isfinite(args.bin_width_days) and args.bin_width_days > 0):
        return _fail("bin-width-days must be positive and finite")
    try:
        summary = run_analysis(args)
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

def _read_articles(stopwords: frozenset[str], lines):
    """(vocabulary, term ids, term counts, malformed line count, repeated
    article count, kept ids): a dict from each term to its id, ids in
    first-seen order; the columns ``topicgraph.project`` takes, int32 term
    ids and a term count for each kept article (0 without usable terms);
    and the kept ids in that order.

    The first article of each id is kept and every later one skipped. Text
    articles go through the term kernel a chunk at a time, so they land
    after the pre-tokenized ones read with them; no output depends on the
    order of the articles.
    """
    vocabulary: dict[str, int] = {}
    term_ids = bytearray()  # int32s
    sizes: list[int] = []
    seen: set[str] = set()
    kept: list[str] = []
    ids: list[str] = []
    texts: list[str] = []
    bad_lines = repeats = 0

    def count_chunk() -> None:
        chunk_sizes, terms, rows, _ = topicgraph.extract_terms_chunk(ids, texts, stopwords)
        term_ids.extend(_term_ids(vocabulary, terms)[rows].tobytes())
        sizes.extend(chunk_sizes.tolist())
        kept.extend(ids)
        ids.clear()
        texts.clear()

    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            article_id = obj["article_id"]
            if not isinstance(article_id, str):
                raise TypeError("article_id must be a string")
            if "terms" in obj:
                tokens = obj["terms"]
                if not (isinstance(tokens, list)
                        and all(isinstance(t, str) for t in tokens)):
                    raise TypeError("terms must be a list of strings")
                # a lone surrogate, which the UTF-8 outputs cannot hold,
                # raises a ValueError
                "".join(tokens).encode("utf-8")
            else:
                tokens, text = None, obj["text"]
                if not isinstance(text, str):
                    raise TypeError("text must be a string")
        # ValueError covers invalid JSON and integers past the digit limit;
        # RecursionError, JSON nested too deeply to decode
        except (ValueError, KeyError, TypeError, RecursionError):
            bad_lines += 1
            continue
        if article_id in seen:
            repeats += 1
            continue
        seen.add(article_id)
        if tokens is not None:
            kept.append(article_id)
            try:
                top = topicgraph.count_terms(article_id, tokens, stopwords)
            except EmptyArticle:
                sizes.append(0)
                continue
            term_ids.extend(_term_ids(vocabulary, [term for term, _ in top]).tobytes())
            sizes.append(len(top))
            continue
        ids.append(article_id)
        texts.append(text)
        if len(ids) == topicgraph.CHUNK_ARTICLES:
            count_chunk()
    if ids:
        count_chunk()
    return (vocabulary, np.frombuffer(term_ids, dtype=np.int32), sizes, bad_lines,
            repeats, kept)


def _term_ids(vocabulary: dict[str, int], terms) -> np.ndarray:
    """The int32 ids of ``terms`` in ``vocabulary``, which gives a new term the next id."""
    return np.array([vocabulary.setdefault(term, len(vocabulary)) for term in terms],
                    dtype=np.int32)


def _merge_articles(first, pipe):
    """The articles of ``first``, then those a child pickled to ``pipe`` but
    the ones of an id ``first`` kept, which are repeats."""
    vocabulary, term_ids, sizes, bad_lines, repeats, kept = first
    later_terms, later_ids, later_sizes, later_bad, later_repeats, later_kept = pickle.load(pipe)
    seen = set(kept)
    new = np.array([article_id not in seen for article_id in later_kept], dtype=bool)
    later_ids = _term_ids(vocabulary, later_terms)[later_ids[np.repeat(new, later_sizes)]]
    sizes += np.compress(new, later_sizes).tolist()
    kept += [article_id for article_id in later_kept if article_id not in seen]
    return (vocabulary, np.concatenate([term_ids, later_ids]), sizes, bad_lines + later_bad,
            repeats + later_repeats + int((~new).sum()), kept)


def cmd_extract_topics(args) -> int:
    # each half of the file is read line by line, so the whole text is never
    # held at once; universal newlines split only at \n, \r and \r\n, never
    # at U+2028 and the like, which JSON strings may hold raw
    try:
        read = functools.partial(_read_articles, topicgraph.load_stopwords(args.stopwords))
        articles = model.read_halves(args.input, read, pickle.dump, _merge_articles)
        if articles is None:
            with open(args.input, encoding="utf-8-sig") as fh:
                articles = read(fh)
    except OSError as exc:
        return _fail(str(exc))
    vocabulary, term_ids, sizes, bad_lines, repeats, _ = articles
    if bad_lines:
        print(f"warning: {bad_lines} malformed article line(s) skipped",
              file=sys.stderr)
    if repeats:
        print(f"warning: {repeats} repeated article(s) skipped", file=sys.stderr)
    empty_articles = sizes.count(0)
    if empty_articles:
        print(f"warning: {empty_articles} article(s) without usable terms "
              "skipped", file=sys.stderr)
    if empty_articles == len(sizes):
        return _fail("empty corpus")

    graph = topicgraph.louvain(topicgraph.project(term_ids, list(vocabulary), sizes),
                               seed=args.seed)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        ends = np.array(graph.nodes, dtype=object)[graph.edges.T].tolist()  # no list an edge
        write_csv(out / "edges.csv", ["term1", "term2", "weight"],
                  zip(*ends, graph.weights.tolist()), texts=graph.nodes)
        write_csv(out / "partition.csv", ["term", "community"],
                  ([term, graph.partition[term]] for term in graph.nodes),
                  texts=graph.nodes)
        write_csv(out / "clusters.csv", ["community", "rank", "term", "intra_degree"],
                  ([cid, rank, term, _fmt(degree)]
                   for cid, ranked in topicgraph.cluster_report(graph)
                   for rank, (term, degree) in enumerate(ranked, start=1)),
                  texts=graph.nodes)
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
