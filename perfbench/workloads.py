"""The benchmark's workloads: their inputs, expected values and output checks.

Every input is a pure function of the seed. Expected values are computed
with the standard library from the generated files (and, for the planted
topics, from the generator's own record), never by calling the code under
test, so a defect in engdyn cannot hide by agreeing with itself.

Run as a script, this module is the article generator of ``extract-topics``:

    python workloads.py articles --seed 3 --out DIR [--params JSON]
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
import sys
from collections import Counter
from itertools import combinations
from datetime import datetime
from pathlib import Path
from typing import ClassVar

PLOT_SUMMARY = "si_vs_lh"  # the speed-vs-sentiment scatter, beside one plot per topic
SECONDS_PER_DAY = 86400


# ------------------------------------------------------------------ helpers

def _ranks(values):
    """Average ranks (1-based), ties sharing the mean of their positions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman rank correlation; 0.0 when either side is constant."""
    rx, ry = _ranks(list(x)), _ranks(list(y))
    n = len(rx)
    if n < 2:
        return 0.0
    mx, my = sum(rx) / n, sum(ry) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / (sxx * syy) ** 0.5


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ analyze

@dataclasses.dataclass(frozen=True)
class AnalyzeWorkload:
    """``engdyn analyze --plots`` on a ``synth.default_corpus_specs`` corpus."""

    name: str
    why: str
    n_topics: int
    n_posts: tuple[int, int]
    # floors on the rank correlation of fitted against designed parameters
    alpha_floor: float
    beta_floor: float
    item_unit: ClassVar[str] = "posts"
    setup_by_engdyn: ClassVar[bool] = True

    def prepare(self, work: Path, seed: int) -> None:
        """Write the simulate spec; ``synth`` supplies the design draws."""
        from engdyn import synth
        specs, categories = synth.default_corpus_specs(
            self.n_topics, seed, n_posts=self.n_posts)
        topics = []
        for spec in specs:
            entry = dataclasses.asdict(spec)
            entry["categories"] = categories[spec.topic_id]
            topics.append(entry)
        work.mkdir(parents=True, exist_ok=True)
        (work / "spec.json").write_text(
            json.dumps({"seed": seed, "topics": topics}), encoding="utf-8")

    def setup_args(self, work: Path, seed: int) -> list[str]:
        return ["simulate", "--input", str(work / "spec.json"),
                "--out", str(work / "corpus")]

    def input_files(self, work: Path) -> list[Path]:
        return [work / "corpus" / "posts.jsonl", work / "corpus" / "categories.csv"]

    def command(self, work: Path, out: Path, seed: int) -> list[str]:
        corpus = work / "corpus"
        return ["analyze", "--input", str(corpus / "posts.jsonl"),
                "--categories", str(corpus / "categories.csv"), "--out", str(out),
                "--plots"]

    def expect(self, work: Path) -> dict:
        """Per-topic sums and bin counts from the JSONL, designs from the spec."""
        per_topic: dict[str, list] = {}
        with open(work / "corpus" / "posts.jsonl", encoding="utf-8") as fh:
            for line in fh:
                post = json.loads(line)
                stamp = datetime.fromisoformat(
                    post["timestamp"].replace("Z", "+00:00")).timestamp()
                acc = per_topic.get(post["topic_id"])
                if acc is None:
                    per_topic[post["topic_id"]] = [1, post["love"], post["angry"],
                                                   stamp, stamp]
                else:
                    acc[0] += 1
                    acc[1] += post["love"]
                    acc[2] += post["angry"]
                    acc[3] = min(acc[3], stamp)
                    acc[4] = max(acc[4], stamp)
        spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
        design = {t["topic_id"]: (t["alpha_true"], t["beta_true"])
                  for t in spec["topics"]}
        topics = {tid: {"n_posts": n, "love": love, "angry": angry,
                        "bins": int((hi - lo) // SECONDS_PER_DAY) + 1}
                  for tid, (n, love, angry, lo, hi) in per_topic.items()}
        return {"topics": topics, "design": design,
                "items": sum(t["n_posts"] for t in topics.values())}

    def work_size(self, expected: dict) -> dict:
        topics = expected["topics"].values()
        return {"posts": expected["items"], "topics": len(expected["topics"]),
                "total_bins": sum(t["bins"] for t in topics)}

    def check(self, expected: dict, out: Path, returncode: int,
              stdout: str) -> list[str]:
        """Problems with one run's output tree; empty when it is correct."""
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            fits = {row["topic_id"]: row for row in _read_csv(out / "fits.csv")}
            rows = {row["topic_id"]: row for row in _read_csv(out / "metrics.csv")}
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]
        problems = []
        # every generated topic has hundreds of posts spread over about four
        # years of daily bins, so each one must be fitted: a skip is a failure
        if returncode != 0:
            problems.append(f"exit code {returncode}, expected 0")
        if summary.get("skipped"):
            problems.append(f"{len(summary['skipped'])} topic(s) skipped")
        if summary.get("n_rejected_lines") != 0:
            problems.append("input lines were rejected; the generated input has none bad")
        topics = expected["topics"]
        if summary.get("n_input_topics") != len(topics):
            problems.append("summary n_input_topics disagrees with the input")
        if set(fits) != set(topics):
            problems.append(f"fits.csv lists {len(fits)} topics, the input has {len(topics)}")
        if set(rows) != set(fits):
            problems.append("metrics.csv and fits.csv list different topics")
        unconverged = sorted(t for t, row in fits.items() if row["converged"] != "true")
        if unconverged:
            problems.append(f"{len(unconverged)} fitted topic(s) did not converge")
        for tid, row in rows.items():
            want = topics.get(tid)
            got = (int(row["n_posts"]), int(row["total_love"]), int(row["total_angry"]))
            if want is None or got != (want["n_posts"], want["love"], want["angry"]):
                problems.append(f"{tid}: n_posts/total_love/total_angry {got} "
                                f"disagree with the input")
        ids = sorted(fits)
        if len(ids) >= 2:
            design = expected["design"]
            for column, index, floor in (("alpha", 0, self.alpha_floor),
                                         ("beta", 1, self.beta_floor)):
                rho = spearman_rho([float(fits[t][column]) for t in ids],
                                   [design[t][index] for t in ids])
                if rho < floor:
                    problems.append(f"rank correlation of fitted and designed "
                                    f"{column} is {rho:.3f} < {floor}")
        missing = [t for t in ids + [PLOT_SUMMARY]
                   if not (out / "plots" / f"{t}.svg").is_file()]
        if missing:
            problems.append(f"{len(missing)} plot(s) missing")
        return problems


# ----------------------------------------------------------- extract-topics

CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
# common English function words; every one is on the generated stopword list
STOPWORDS = ("the", "of", "and", "to", "in", "a", "is", "that", "for", "it",
             "as", "was", "with", "on", "by", "at", "from", "this", "are", "be")
TOKEN = re.compile(r"[a-z]+")


TOPIC_SHARE = 0.5  # share of an article's tokens drawn from its planted topic
STOPWORD_SHARE = 0.15
BACKGROUND_ZIPF = 1.0  # Zipf exponents of the background and topic vocabularies
TOPIC_ZIPF = 1.4


@dataclasses.dataclass(frozen=True)
class ArticleParams:
    """Size of the synthetic article corpus."""

    n_articles: int = 20000
    tokens: int = 200
    n_background: int = 5000
    n_topics: int = 60
    topic_words: int = 120


def write_articles(out: Path, seed: int, params: ArticleParams) -> None:
    """Articles mixing a Zipf background with one planted topic each.

    Each token is a word of the article's planted topic with probability
    ``TOPIC_SHARE`` (Zipf within the topic's own vocabulary), a stopword
    with probability ``STOPWORD_SHARE``, and otherwise a word of the
    shared Zipf background. Writes ``articles.jsonl``, the stopword list
    handed to the program, and ``planted.json`` (topic -> vocabulary),
    which only the checks read.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xA871])
    n_words = params.n_background + params.n_topics * params.topic_words
    words: list[str] = []
    seen = set(STOPWORDS)
    while len(words) < n_words:
        draws = rng.integers(0, [len(CONSONANTS), len(VOWELS)] * 4 + [3])
        word = "".join(CONSONANTS[draws[2 * j]] + VOWELS[draws[2 * j + 1]]
                       for j in range(2 + int(draws[8])))
        if word not in seen:
            seen.add(word)
            words.append(word)
    vocab = words + list(STOPWORDS)

    def zipf_cdf(n, exponent):
        cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** exponent)
        return cdf / cdf[-1]

    background = zipf_cdf(params.n_background, BACKGROUND_ZIPF)
    topical = zipf_cdf(params.topic_words, TOPIC_ZIPF)
    shape = (params.n_articles, params.tokens)
    topic = rng.integers(params.n_topics, size=params.n_articles)
    which, pick = rng.random(shape), rng.random(shape)
    index = np.where(
        which < TOPIC_SHARE,
        params.n_background + topic[:, None] * params.topic_words
        + np.minimum(np.searchsorted(topical, pick), params.topic_words - 1),
        np.where(which < TOPIC_SHARE + STOPWORD_SHARE,
                 n_words + (pick * len(STOPWORDS)).astype(int),
                 np.minimum(np.searchsorted(background, pick),
                            params.n_background - 1)))

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "articles.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for i, row in enumerate(index.tolist()):
            text = " ".join(map(vocab.__getitem__, row))
            fh.write(json.dumps({"article_id": f"a{i:06d}", "text": text}) + "\n")
    (out / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    planted = {str(k): words[params.n_background + k * params.topic_words:
                             params.n_background + (k + 1) * params.topic_words]
               for k in range(params.n_topics)}
    (out / "planted.json").write_text(json.dumps(planted), encoding="utf-8")


def top_terms(text: str, stopwords, k: int = 10) -> list[str]:
    """An article's top-k content words under the ``(-count, term)`` rule."""
    counts = Counter(TOKEN.findall(text.lower()))
    for word in stopwords:
        counts.pop(word, None)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [term for term, _ in ranked[:k]]


def modularity(edges: dict, partition: dict) -> float:
    """Weighted Newman modularity at resolution 1."""
    degree = dict.fromkeys(partition, 0.0)
    intra = 0.0
    for (a, b), w in edges.items():
        degree[a] += w
        degree[b] += w
        if partition[a] == partition[b]:
            intra += 2.0 * w
    two_m = sum(degree.values())
    if two_m == 0:
        return 0.0
    totals: dict = {}
    for node, d in degree.items():
        totals[partition[node]] = totals.get(partition[node], 0.0) + d
    return intra / two_m - sum((t / two_m) ** 2 for t in totals.values())


_REPORT = re.compile(r"(\d+) communities over (\d+) terms \(Q=(-?\d+\.\d+)\)")


@dataclasses.dataclass(frozen=True)
class ExtractWorkload:
    """``engdyn extract-topics`` on seeded articles with planted topics."""

    name: str
    why: str
    params: ArticleParams
    purity_floor: float
    item_unit: ClassVar[str] = "articles"
    setup_by_engdyn: ClassVar[bool] = False

    def prepare(self, work: Path, seed: int) -> None:
        work.mkdir(parents=True, exist_ok=True)

    def setup_args(self, work: Path, seed: int) -> list[str]:
        return [str(Path(__file__).resolve()), "articles", "--seed", str(seed),
                "--out", str(work / "corpus"),
                "--params", json.dumps(dataclasses.asdict(self.params))]

    def input_files(self, work: Path) -> list[Path]:
        return [work / "corpus" / "articles.jsonl", work / "corpus" / "stopwords.txt"]

    def command(self, work: Path, out: Path, seed: int) -> list[str]:
        corpus = work / "corpus"
        return ["extract-topics", "--input", str(corpus / "articles.jsonl"),
                "--stopwords", str(corpus / "stopwords.txt"),
                "--out", str(out), "--seed", str(seed)]

    def expect(self, work: Path) -> dict:
        """The term graph of an independent top-10 count."""
        corpus = work / "corpus"
        stopwords = (corpus / "stopwords.txt").read_text(encoding="utf-8").split()
        nodes: set[str] = set()
        edges: Counter = Counter()
        articles = empty = 0
        with open(corpus / "articles.jsonl", encoding="utf-8") as fh:
            for line in fh:
                terms = sorted(top_terms(json.loads(line)["text"], stopwords))
                nodes.update(terms)
                edges.update(combinations(terms, 2))
                articles += 1
                empty += not terms
        planted = json.loads((corpus / "planted.json").read_text(encoding="utf-8"))
        topic_of = {w: k for k, vocab in planted.items() for w in vocab}
        return {"nodes": nodes, "edges": edges, "weight": sum(edges.values()),
                "topic_of": topic_of, "items": articles, "empty_articles": empty}

    def work_size(self, expected: dict) -> dict:
        return {"articles": expected["items"], "graph_nodes": len(expected["nodes"]),
                "empty_articles": expected["empty_articles"],
                "graph_edges": len(expected["edges"]),
                "total_edge_weight": expected["weight"]}

    def check(self, expected: dict, out: Path, returncode: int,
              stdout: str) -> list[str]:
        """Problems with one run's output tree; empty when it is correct."""
        if returncode != 0:
            return [f"exit code {returncode}, expected 0"]
        report = _REPORT.search(stdout)
        if report is None:
            return ["no community report on stdout"]
        try:
            partition = {row["term"]: int(row["community"])
                         for row in _read_csv(out / "partition.csv")}
            edges = {(row["term1"], row["term2"]): int(row["weight"])
                     for row in _read_csv(out / "edges.csv")}
            clusters = _read_csv(out / "clusters.csv")
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]
        problems = []
        if set(partition) != expected["nodes"]:
            problems.append("graph nodes differ from the independent top-10 count")
        if edges != expected["edges"]:
            problems.append(f"edges.csv (total weight {sum(edges.values())}) differs "
                            f"from the independent co-occurrence count")
        if any(a not in partition or b not in partition for a, b in edges):
            problems.append("an edge endpoint is missing from partition.csv")
            return problems
        communities = set(partition.values())
        if (int(report[1]), int(report[2])) != (len(communities), len(partition)):
            problems.append("printed community/term counts disagree with partition.csv")
        if abs(modularity(edges, partition) - float(report[3])) > 5e-5 + 1e-9:
            problems.append("modularity of edges.csv/partition.csv is not the printed Q")
        if not clusters or {int(row["community"]) for row in clusters} != communities:
            problems.append("clusters.csv does not cover every community")
        purity = planted_purity(partition, expected["topic_of"])
        if purity < self.purity_floor:
            problems.append(f"planted-topic purity {purity:.3f} < {self.purity_floor}")
        return problems


def planted_purity(partition: dict, topic_of: dict) -> float:
    """Share of planted-topic terms that sit in their topic's majority community."""
    by_topic: dict = {}
    for term, community in partition.items():
        if term in topic_of:
            by_topic.setdefault(topic_of[term], Counter())[community] += 1
    total = sum(sum(c.values()) for c in by_topic.values())
    if total == 0:
        return 0.0
    return sum(max(c.values()) for c in by_topic.values()) / total


# ---------------------------------------------------------------- workloads

WORKLOADS = {w.name: w for w in (
    AnalyzeWorkload(
        name="analyze-deep",
        why="analyze --plots on 200 topics of 500-1500 posts (~190k posts): "
            "post parsing dominates, then plots and fits",
        n_topics=200, n_posts=(500, 1500),
        alpha_floor=0.9, beta_floor=0.75),
    ExtractWorkload(
        name="extract-topics",
        why="extract-topics on 20k articles with 60 planted topics: tokenizing, "
            "term graph and Louvain; no analyze layer runs here",
        params=ArticleParams(), purity_floor=0.9),
)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("articles", help="write the extract-topics inputs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", default="{}", help="ArticleParams sizes as JSON")
    args = parser.parse_args(argv)
    write_articles(Path(args.out), args.seed, ArticleParams(**json.loads(args.params)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
