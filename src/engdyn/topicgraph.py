"""Keyword extraction, term co-occurrence projection, and community detection.

Articles are reduced to their top-k most frequent content words; terms
become nodes of an undirected graph whose edge weights count the articles
two terms share. Communities come from a seeded, weighted Louvain pass.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyArticle, InvalidInput

# pair keys lie below n * n for n terms; int32 holds them below this
_INT32_KEYS = 2**31
# bytes.translate table: a-z map to themselves, every other byte to a space
_LETTERS = bytes(b if 0x61 <= b <= 0x7A else 0x20 for b in range(256))


@dataclass(frozen=True)
class ArticleTerms:
    """One article's representative terms, most frequent first."""

    article_id: str
    top_terms: tuple[tuple[str, int], ...]

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(term for term, _ in self.top_terms)


@dataclass
class TermGraph:
    """Weighted term co-occurrence graph, optionally partitioned.

    ``edges`` maps lexicographically sorted term pairs to the number of
    shared articles; there are no self-loops.
    """

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], int]
    partition: dict[str, int] | None = None
    modularity: float | None = None


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list (one word per line, '#' comments allowed).

    Without a path, the bundled English list is used.
    """
    if path is None:
        text = resources.files("engdyn").joinpath("data/stopwords_en.txt") \
            .read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    words = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


def extract_terms(article_id: str, text: str, stopwords: frozenset[str],
                  k: int = 10) -> ArticleTerms:
    """Top-k most frequent content words of one article.

    Tokens are maximal ASCII-letter runs of the lowercased text, so numbers
    and punctuation never survive; stopwords are dropped. Ties at the
    frequency cutoff break lexicographically.
    """
    # every code point outside a-z becomes one separator byte ("?" for
    # non-ASCII, lone surrogates included, then a space), so the words of
    # the split are exactly the [a-z]+ runs of text.lower()
    words = text.lower().encode("ascii", "replace").translate(_LETTERS) \
        .decode("ascii").split()
    return _top_terms(article_id, Counter(words), stopwords, k)


def count_terms(article_id: str, tokens: Sequence[str],
                stopwords: frozenset[str], k: int = 10) -> ArticleTerms:
    """Same selection as :func:`extract_terms` for pre-tokenized input."""
    counts = Counter(token.lower() for token in tokens)
    counts.pop("", None)
    return _top_terms(article_id, counts, stopwords, k)


def _top_terms(article_id: str, counts: Counter, stopwords: frozenset[str],
               k: int) -> ArticleTerms:
    """Drop stopwords from ``counts`` and keep the k largest, ranked by
    (-count, term); ``k <= 0`` slices the full ranking as ``ranked[:k]``."""
    for word in counts.keys() & stopwords:
        counts.pop(word)  # dict.pop; Counter's own __delitem__ runs in Python
    if not counts:
        raise EmptyArticle(f"article {article_id!r} has no usable tokens")
    items = counts.items()
    if len(counts) > k > 0:
        # every term of the top k counts at least the k-th largest count, so
        # only the terms at or above it need the keyed sort; sorting the bare
        # counts runs in C and beats heapq.nlargest's Python loop
        cutoff = sorted(counts.values(), reverse=True)[k - 1]
        items = [item for item in items if item[1] >= cutoff]
    ranked = sorted(items, key=lambda item: (-item[1], item[0]))
    return ArticleTerms(article_id=article_id, top_terms=tuple(ranked[:k]))


def project(articles: Sequence[ArticleTerms]) -> TermGraph:
    """Collapse the article-term relation onto terms.

    Two terms are connected iff they share at least one article; the edge
    weight counts the shared articles.
    """
    if not articles:
        raise InvalidInput("need at least one article")
    term_sets = [sorted(set(article.terms)) for article in articles]
    nodes = sorted(set().union(*term_sets))
    index = {term: i for i, term in enumerate(nodes)}
    n = len(nodes)
    # articles grouped by term count, as rows of term ids; ids follow the
    # sorted term order, so each row is ascending
    by_size: dict[int, list[list[int]]] = {}
    for terms in term_sets:
        if len(terms) > 1:
            by_size.setdefault(len(terms), []).append([index[t] for t in terms])
    # pair key a * n + b with a < b sorts as the pair (nodes[a], nodes[b]);
    # every group writes its keys into one preallocated array, so no list of
    # per-group arrays and no concatenated copy of them is ever held. The
    # keys are the memory peak of extract-topics: int32 when they fit
    dtype = np.int32 if n * n < _INT32_KEYS else np.int64
    keys = np.empty(sum(len(rows) * size * (size - 1) // 2
                        for size, rows in by_size.items()), dtype=dtype)
    at = 0
    for size, rows in by_size.items():
        ids = np.array(rows, dtype=dtype)
        i, j = np.triu_indices(size, 1)
        block = keys[at:at + len(rows) * len(i)].reshape(len(rows), len(i))
        np.multiply(ids[:, i], n, out=block)
        block += ids[:, j]
        at += block.size
    pairs, weights = np.unique(keys, return_counts=True)
    first, second = np.divmod(pairs, n)
    edges = {(nodes[a], nodes[b]): w for a, b, w
             in zip(first.tolist(), second.tolist(), weights.tolist())}
    return TermGraph(nodes=tuple(nodes), edges=edges)


def modularity(graph: TermGraph, partition: dict[str, int],
               resolution: float = 1.0) -> float:
    """Weighted modularity of a partition, recomputed from scratch.

    Q = sum_c [intra_c / (2m) - resolution * (deg_c / (2m))^2] with intra_c
    the doubled weight of edges inside community c and deg_c its total
    weighted degree. An edgeless graph has Q = 0.
    """
    return _modularity_indexed(_adjacency(graph),
                               [partition[node] for node in graph.nodes],
                               resolution)


def louvain(graph: TermGraph, seed: int, resolution: float = 1.0,
            min_gain: float = 1e-7) -> TermGraph:
    """Two-phase Louvain on the weighted graph, reproducible under ``seed``.

    Local moves maximize the modularity gain with node visit order shuffled
    by a seeded RNG; communities are then aggregated and the process repeats
    until a full pass improves modularity by less than ``min_gain``.
    Community ids in the returned partition are renumbered by each
    community's lexicographically smallest term.
    """
    partition, q, _ = _run_louvain(graph, seed, resolution, min_gain)
    return replace(graph, partition=partition, modularity=q)


def louvain_trace(graph: TermGraph, seed: int, resolution: float = 1.0,
                  min_gain: float = 1e-7) -> tuple[float, ...]:
    """Per-pass modularity of the same seeded run (diagnostics)."""
    _, _, history = _run_louvain(graph, seed, resolution, min_gain)
    return history


def _run_louvain(graph: TermGraph, seed: int, resolution: float,
                 min_gain: float) -> tuple[dict[str, int], float, tuple[float, ...]]:
    if not graph.nodes:
        raise InvalidInput("graph has no nodes")
    nodes = graph.nodes
    n = len(nodes)
    adj = _adjacency(graph)

    rng = random.Random(seed)
    level_adj = adj
    assign = list(range(n))  # original node -> current level node
    labels = list(range(n))
    q_prev = q_labels = _modularity_indexed(adj, labels, resolution)
    history: list[float] = []

    while True:
        local = _one_level(level_adj, rng, resolution, min_gain)
        projected = [local[assign[v]] for v in range(n)]
        q = _modularity_indexed(adj, projected, resolution)
        history.append(q)
        if q >= q_prev:
            labels, q_labels = projected, q
        if q - q_prev < min_gain:
            break
        q_prev = q
        level_adj, remap = _aggregate(level_adj, local)
        assign = [remap[local[assign[v]]] for v in range(n)]

    # renumber communities by their smallest member term
    members: dict[int, str] = {}
    for v, c in enumerate(labels):
        if c not in members or nodes[v] < members[c]:
            members[c] = nodes[v]
    order = sorted(members, key=members.get)
    renumber = {c: i for i, c in enumerate(order)}
    partition = {nodes[v]: renumber[labels[v]] for v in range(n)}
    return partition, q_labels, tuple(history)


def _adjacency(graph: TermGraph) -> list[dict[int, float]]:
    """Neighbour weights by node index, in ``graph.nodes`` order."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    adj: list[dict[int, float]] = [dict() for _ in graph.nodes]
    for (a, b), w in graph.edges.items():
        ia, ib = index[a], index[b]
        if ia == ib:
            raise InvalidInput(f"self-loop on {a!r}")
        adj[ia][ib] = adj[ia].get(ib, 0.0) + float(w)
        adj[ib][ia] = adj[ib].get(ia, 0.0) + float(w)
    return adj


def _degrees(adj: list[dict[int, float]]) -> list[float]:
    return [sum(w for j, w in nbrs.items() if j != i) + 2.0 * nbrs.get(i, 0.0)
            for i, nbrs in enumerate(adj)]


def _one_level(adj: list[dict[int, float]], rng: random.Random,
               resolution: float, min_gain: float) -> list[int]:
    n = len(adj)
    comm = list(range(n))
    k = _degrees(adj)
    two_m = sum(k)
    if two_m == 0:
        return comm
    tot = {c: k[c] for c in range(n)}
    order = list(range(n))
    rng.shuffle(order)

    while True:
        sweep_gain = 0.0
        for v in order:
            cv = comm[v]
            kv = k[v]
            links: dict[int, float] = {}
            for u, w in adj[v].items():
                if u != v:
                    cu = comm[u]
                    links[cu] = links.get(cu, 0.0) + w
            tot[cv] -= kv
            stay = links.get(cv, 0.0) - resolution * tot[cv] * kv / two_m
            best_c, best_s = cv, stay
            for c in sorted(links):
                if c == cv:
                    continue
                s = links[c] - resolution * tot[c] * kv / two_m
                if s > best_s:
                    best_c, best_s = c, s
            tot[best_c] = tot.get(best_c, 0.0) + kv
            comm[v] = best_c
            sweep_gain += 2.0 * (best_s - stay) / two_m
        if sweep_gain < min_gain:
            break
    return comm


def _aggregate(adj: list[dict[int, float]],
               comm: list[int]) -> tuple[list[dict[int, float]], dict[int, int]]:
    remap = {c: i for i, c in enumerate(sorted(set(comm)))}
    new_adj: list[dict[int, float]] = [dict() for _ in range(len(remap))]
    for i, nbrs in enumerate(adj):
        ci = remap[comm[i]]
        for j, w in nbrs.items():
            if j < i:
                continue
            cj = remap[comm[j]]
            if ci == cj:
                new_adj[ci][ci] = new_adj[ci].get(ci, 0.0) + w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, remap


def _modularity_indexed(adj: list[dict[int, float]], labels: list[int],
                        resolution: float) -> float:
    k = _degrees(adj)
    two_m = sum(k)
    if two_m == 0:
        return 0.0
    intra2 = 0.0
    for i, nbrs in enumerate(adj):
        for j, w in nbrs.items():
            if j > i and labels[i] == labels[j]:
                intra2 += 2.0 * w
    tot: dict[int, float] = {}
    for i, deg in enumerate(k):
        c = labels[i]
        tot[c] = tot.get(c, 0.0) + deg
    return intra2 / two_m - resolution * sum((d / two_m) ** 2 for d in tot.values())


def cluster_report(graph: TermGraph, top_n: int = 10
                   ) -> list[tuple[int, list[tuple[str, float]]]]:
    """Per-community candidate terms ranked by intra-community degree.

    Returns ``[(community_id, [(term, intra_degree), ...]), ...]`` with at
    most ``top_n`` terms per community, ordered by degree (descending) then
    term; the whole report is deterministic for a fixed partition.
    """
    if graph.partition is None:
        raise InvalidInput("graph has no partition; run louvain first")
    intra: dict[str, float] = {node: 0.0 for node in graph.nodes}
    part = graph.partition
    for (a, b), w in graph.edges.items():
        if part[a] == part[b]:
            intra[a] += w
            intra[b] += w
    groups: dict[int, list[str]] = {}
    for node in graph.nodes:
        groups.setdefault(part[node], []).append(node)
    report = []
    for cid in sorted(groups):
        ranked = sorted(groups[cid], key=lambda term: (-intra[term], term))
        report.append((cid, [(term, intra[term]) for term in ranked[:top_n]]))
    return report
