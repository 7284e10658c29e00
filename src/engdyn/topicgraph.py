"""Keyword extraction, term co-occurrence projection, and community detection.

Articles are reduced to their top-k most frequent content words; terms
become nodes of an undirected graph whose edge weights count the articles
two terms share. Communities come from a seeded, weighted Louvain pass.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyArticle, InvalidInput

# pair keys lie below n * n for n terms; int32 holds them below this
_INT32_KEYS = 2**31
# bytes.translate table: a-z map to themselves, every other byte to a space
_LETTERS = bytes(b if 0x61 <= b <= 0x7A else 0x20 for b in range(256))
# text articles per extract_terms_chunk call from the CLI. Larger chunks
# spread numpy's per-call cost wider but leave more freed heap behind: on
# articles of 200 tokens, extract-topics peaks 0.8 MiB above counting one
# article at a time with 32, 1.1 MiB with 64, 1.6 MiB with 128 and 16 MiB
# with 1,024, while 32 is within a few percent of 128's speed
CHUNK_ARTICLES = 32
# a word of up to _KEY_LETTERS letters has an exact key of 5 bits a letter,
# first letter highest, so keys sort as the words do; the low 5 bits of a
# letter's ASCII code are 1-26
_KEY_LETTERS = 10
_KEY_BITS = 5 * _KEY_LETTERS
_KEY_MASK = (1 << _KEY_BITS) - 1
# marks the key of a longer word, which holds its index in a sorted list
_LONG = np.uint64(1 << 63)
_SHIFTS = np.arange(_KEY_BITS - 5, -1, -5, dtype=np.uint64)
_ASCII = np.frombuffer(b" abcdefghijklmnopqrstuvwxyz     ", dtype=np.uint8)
# by word length: the letter codes among a word's first 8 and next 2 bytes
_FIRST8_MASKS = np.array([((1 << 8 * min(n, 8)) - 1) & 0x1F1F1F1F1F1F1F1F
                          for n in range(_KEY_LETTERS + 1)], dtype=np.uint64)
_LAST2_MASKS = np.array([((1 << 8 * max(n - 8, 0)) - 1) & 0x1F1F
                         for n in range(_KEY_LETTERS + 1)], dtype=np.uint16)
# Louvain stops once a sweep or a pass gains less modularity than this
_MIN_GAIN = 1e-7


@dataclass(eq=False)
class TermGraph:
    """Weighted term co-occurrence graph, optionally partitioned.

    ``nodes`` are the sorted terms; ``edges`` is an (m, 2) integer array of
    node-index pairs i < j in ascending order, and ``weights`` holds the
    number of articles each pair shares. There are no self-loops.
    ``history`` is the modularity after each Louvain pass.
    """

    nodes: tuple[str, ...]
    edges: np.ndarray
    weights: np.ndarray
    partition: dict[str, int] | None = None
    modularity: float | None = None
    history: tuple[float, ...] = ()


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list (one word per line, '#' comments allowed, a
    leading UTF-8 byte order mark ignored).

    Without a path, the bundled English list is used.
    """
    if path is None:
        text = resources.files("engdyn").joinpath("data/stopwords_en.txt") \
            .read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8-sig")
    words = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


def extract_terms(article_id: str, text: str, stopwords: frozenset[str],
                  k: int = 10) -> tuple[tuple[str, int], ...]:
    """Top-k most frequent content words of one article, as (term, count)
    pairs, most frequent first.

    Tokens are maximal ASCII-letter runs of the lowercased text, so numbers
    and punctuation never survive; stopwords are dropped. Ties at the
    frequency cutoff break lexicographically.
    """
    sizes, terms, rows, counts = extract_terms_chunk([article_id], [text], stopwords, k)
    if not sizes[0]:
        raise EmptyArticle(f"article {article_id!r} has no usable tokens")
    return tuple(zip(map(terms.__getitem__, rows.tolist()), counts.tolist()))


def extract_terms_chunk(article_ids: Sequence[str], texts: Sequence[str],
                        stopwords: frozenset[str], k: int = 10
                        ) -> tuple[np.ndarray, list[str], np.ndarray, np.ndarray]:
    """:func:`extract_terms` of many articles at once, as columns: each
    article's term count in the order of ``article_ids`` (0 for an article
    without usable tokens); the chunk's distinct terms; for every article's
    ranked terms, one after the other, the term's index into those; and
    their counts. ``project(rows, terms, sizes)`` takes them as they are.

    Words are counted and ranked as packed integer keys, with one sort each
    over the whole chunk: a word of up to ``_KEY_LETTERS`` letters is its
    own key, and a longer one is keyed by its place among the chunk's longer
    words, which one decode cuts out of the chunk.
    """
    if k < 1:
        raise InvalidInput(f"k must be at least 1, got {k}")
    n = len(texts)
    # every code point outside a-z becomes one separator byte ("?" for
    # non-ASCII, lone surrogates included, then a space), so the words are
    # exactly the [a-z]+ runs of text.lower()
    parts = [text.lower().encode("ascii", "replace").translate(_LETTERS)
             for text in texts]
    # the counting key holds the article index and a word key, the ranking
    # key the article index, a count and a run index; counts, run indices
    # and long-word indices stay below the chunk's letter count, so a single
    # article would need 2**32 letters to overflow any of them
    if n > 1 and (n - 1).bit_length() + max(
            _KEY_BITS, 2 * sum(map(len, parts)).bit_length()) > 64:
        half = n // 2
        first = extract_terms_chunk(article_ids[:half], texts[:half], stopwords, k)
        second = extract_terms_chunk(article_ids[half:], texts[half:], stopwords, k)
        # the second half's terms recoded past the first's, each term once
        index = dict(zip(first[1], range(len(first[1]))))
        recode = np.array([index.setdefault(term, len(index)) for term in second[1]],
                          dtype=np.intp)
        return (np.concatenate([first[0], second[0]]), list(index),
                np.concatenate([first[2], recode[second[2]]]),
                np.concatenate([first[3], second[3]]))
    run_article, counts, words, long_words = _count_words(parts, stopwords)

    # rank by (article, -count, word) with one sort: runs are in (article,
    # word) order, so a run's own index stands for its word
    m = len(counts)
    top = int(counts.max(initial=0))
    count_bits, index_bits = top.bit_length(), m.bit_length()
    rank = run_article.astype(np.uint64) << np.uint64(count_bits + index_bits)
    rank |= (top - counts).astype(np.uint64) << np.uint64(index_bits)
    rank |= np.arange(m, dtype=np.uint64)
    rank.sort()
    order = (rank & np.uint64((1 << index_bits) - 1)).astype(np.intp)
    # keep ranked[:k] of each article
    per_article = np.bincount(run_article, minlength=n)
    place = np.arange(m) - (np.cumsum(per_article) - per_article)[run_article]
    kept = order[place < k]
    keys, rows = np.unique(words[kept], return_inverse=True)
    return np.minimum(per_article, k), _decode_terms(keys, long_words), rows, counts[kept]


def _count_words(parts: list[bytes], stopwords: frozenset[str]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Word counts of each article, stopwords left out: for each distinct
    (article, word) in that order, its article, its count and the word's key
    for :func:`_decode_terms`, and the sorted long words those keys index."""
    keys, is_long, found = _article_word_keys(parts)
    runs, counts = _runs(keys[~is_long] if found else keys)
    # hashable for the cache; frozenset() returns a frozenset itself
    stop = _stopword_keys(frozenset(stopwords))
    if len(stop) and len(runs):
        words = runs & np.uint64(_KEY_MASK)
        at = np.minimum(np.searchsorted(stop, words), len(stop) - 1)
        usable = stop[at] != words
        runs, counts = runs[usable], counts[usable]
    run_article = (runs >> np.uint64(_KEY_BITS)).astype(np.intp)
    if not found:
        return run_article, counts, runs & np.uint64(_KEY_MASK), []

    # a long word's index in the sorted list of the chunk's long words
    # but stopwords; the list's length marks a stopword
    long_words = sorted(set(found) - stopwords)
    index = dict(zip(long_words, range(len(long_words))))
    ids = np.fromiter(map(index.get, found, repeat(len(long_words))),
                      dtype=np.uint64, count=len(found))
    usable = ids < len(long_words)
    ids, prefix_keys = ids[usable], keys[is_long][usable]
    id_bits = np.uint64(len(long_words).bit_length())
    long_runs, long_counts = _runs(
        (prefix_keys >> np.uint64(_KEY_BITS) << id_bits) | ids)
    long_article = long_runs >> id_bits
    long_ids = long_runs & ((np.uint64(1) << id_bits) - np.uint64(1))
    # a long word sorts after the word of its first _KEY_LETTERS letters and
    # before every greater key of up to _KEY_LETTERS letters, so each long
    # run goes after the short runs of its article whose key is at most
    # its prefix's
    prefix = np.empty(len(long_words), dtype=np.uint64)
    prefix[ids] = prefix_keys & np.uint64(_KEY_MASK)
    after = np.searchsorted(runs, (long_article << np.uint64(_KEY_BITS))
                            | prefix[long_ids], side="right")
    is_long_run = np.zeros(len(runs) + len(long_runs), dtype=bool)
    is_long_run[after + np.arange(len(long_runs))] = True

    def merge(short: np.ndarray, long: np.ndarray) -> np.ndarray:
        both = np.empty(len(is_long_run), dtype=short.dtype)
        both[~is_long_run] = short
        both[is_long_run] = long
        return both
    return (merge(run_article, long_article.astype(np.intp)), merge(counts, long_counts),
            merge(runs & np.uint64(_KEY_MASK), long_ids | _LONG), long_words)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` in order and how often each occurs;
    sorts ``keys`` in place."""
    keys.sort()
    new_run = np.empty(len(keys), dtype=bool)
    new_run[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new_run[1:])
    first = np.flatnonzero(new_run)
    return keys[first], np.diff(first, append=len(keys))


def _article_word_keys(parts: list[bytes]
                       ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The (article, word) key of every word, a word of over
    ``_KEY_LETTERS`` letters keyed by its first ``_KEY_LETTERS``; which
    words are that long; and those words, in order."""
    # a space opens the buffer, and enough of them close it for every
    # word's 10-byte read; the words of article i end before ends[i]
    raw = b" ".join([b"", *parts, b" " * _KEY_LETTERS])
    ends = np.cumsum(np.fromiter(map(len, parts), dtype=np.intp,
                                 count=len(parts)) + 1)
    starts, lengths = _word_spans(raw)
    keys = _word_keys(raw, starts, lengths)
    keys |= np.repeat(np.arange(len(parts), dtype=np.uint64) << np.uint64(_KEY_BITS),
                      np.diff(np.searchsorted(starts, ends), prepend=0))
    is_long = lengths > _KEY_LETTERS
    found: list[str] = []
    if is_long.any():
        # each long word with the space after it, so one split lists them
        spans = lengths[is_long] + 1
        at = np.repeat(starts[is_long] - (np.cumsum(spans) - spans), spans) \
            + np.arange(spans.sum())
        found = np.frombuffer(raw, dtype=np.uint8)[at].tobytes().decode("ascii").split()
    return keys, is_long, found


def _word_spans(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of letters in ``raw``, which holds only
    letters and spaces and opens and closes with a space."""
    letters = np.frombuffer(raw, dtype=np.uint8) != 0x20
    edges = np.flatnonzero(letters[1:] != letters[:-1])
    return edges[0::2] + 1, edges[1::2] - edges[0::2]


def _word_keys(raw: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Packed keys of the words at ``starts``: 5 bits a letter, first letter
    highest; a longer word gets the key of its first ``_KEY_LETTERS``."""
    # overlapping little-endian views: element i reads the bytes from i on
    first8 = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    last2 = np.ndarray((len(raw) - 1,), dtype="<u2", buffer=raw, strides=(1,))
    # byte j of x holds letter j's code (the letter's low 5 bits), 0 past the end
    x = first8.take(starts) & _FIRST8_MASKS.take(lengths, mode="clip")
    # fold neighbouring fields together, the earlier letter above the later
    x = ((x & np.uint64(0x00FF00FF00FF00FF)) << np.uint64(5)) \
        | ((x >> np.uint64(8)) & np.uint64(0x00FF00FF00FF00FF))
    x = ((x & np.uint64(0x0000FFFF0000FFFF)) << np.uint64(10)) \
        | ((x >> np.uint64(16)) & np.uint64(0x0000FFFF0000FFFF))
    x = ((x & np.uint64(0xFFFFFFFF)) << np.uint64(20)) | (x >> np.uint64(32))
    y = last2.take(starts + 8) & _LAST2_MASKS.take(lengths, mode="clip")
    y = ((y & 0xFF) << 5) | (y >> 8)
    return (x << np.uint64(10)) | y


def _decode_terms(words: np.ndarray, long_words: list[str]) -> list[str]:
    """The terms of sorted word keys: packed words, then ``_LONG`` plus an
    index into ``long_words``."""
    short = int(np.searchsorted(words, _LONG))
    longer = [long_words[i] for i in (words[short:] - _LONG).tolist()]
    return _decode_keys(words[:short]) + longer


def _decode_keys(keys: np.ndarray) -> list[str]:
    """The words of packed keys (article bits ignored)."""
    # one row of letters a word, padded and followed by spaces
    text = np.full((len(keys), _KEY_LETTERS + 1), 0x20, dtype=np.uint8)
    text[:, :_KEY_LETTERS] = _ASCII.take((keys[:, None] >> _SHIFTS) & np.uint64(31))
    return text.tobytes().decode("ascii").split()


@functools.lru_cache(maxsize=4)
def _stopword_keys(stopwords: frozenset[str]) -> np.ndarray:
    """Sorted keys of the stopwords that a word of up to ``_KEY_LETTERS``
    letters can equal; read-only, since every chunk shares them."""
    words = [word for word in stopwords if 0 < len(word) <= _KEY_LETTERS
             and word.isascii() and word.isalpha() and word.islower()]
    raw = " ".join(["", *words, " " * _KEY_LETTERS]).encode("ascii")
    keys = np.sort(_word_keys(raw, *_word_spans(raw)))
    keys.flags.writeable = False
    return keys


def count_terms(article_id: str, tokens: Sequence[str],
                stopwords: frozenset[str], k: int = 10) -> tuple[tuple[str, int], ...]:
    """Same selection as :func:`extract_terms` for pre-tokenized input."""
    if k < 1:
        raise InvalidInput(f"k must be at least 1, got {k}")
    counts = Counter(token.lower() for token in tokens)
    counts.pop("", None)
    for word in counts.keys() & stopwords:
        counts.pop(word)  # dict.pop; Counter's own __delitem__ runs in Python
    if not counts:
        raise EmptyArticle(f"article {article_id!r} has no usable tokens")
    items = counts.items()
    if len(counts) > k:
        # every term of the top k counts at least the k-th largest count, so
        # only the terms at or above it need the keyed sort; sorting the bare
        # counts runs in C and beats heapq.nlargest's Python loop
        cutoff = sorted(counts.values(), reverse=True)[k - 1]
        items = [item for item in items if item[1] >= cutoff]
    return tuple(sorted(items, key=lambda item: (-item[1], item[0]))[:k])


def project(term_ids: Sequence[int], vocabulary: Sequence[str],
            sizes: Sequence[int]) -> TermGraph:
    """Collapse the article-term relation onto terms.

    The articles come as columns: ``term_ids`` holds every article's terms
    one after the other, as indices into ``vocabulary``, the first
    ``sizes[0]`` of them the first article's and so on, as
    :func:`extract_terms_chunk` returns them. The nodes are the terms that
    some article holds. Two terms are connected iff they share at least one
    article; the edge weight counts the shared articles, so a term repeated
    within an article counts once.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    term_ids = np.asarray(term_ids, dtype=np.intp)
    if not len(sizes):
        raise InvalidInput("need at least one article")
    if sizes.min() < 0 or sizes.sum() != len(term_ids):
        raise InvalidInput(f"{len(term_ids)} terms do not split into articles "
                           "of the term counts given")
    if len(term_ids) and not 0 <= term_ids.min() <= term_ids.max() < len(vocabulary):
        raise InvalidInput(f"term ids must index the {len(vocabulary)} vocabulary terms")
    if len(set(vocabulary)) < len(vocabulary):
        raise InvalidInput("the vocabulary holds a term twice")
    # the held terms in python's str order, which a numpy string array would
    # not keep: its fixed-width elements drop trailing NULs
    held = np.zeros(len(vocabulary), dtype=bool)
    held[term_ids] = True
    order = sorted(np.flatnonzero(held).tolist(), key=vocabulary.__getitem__)
    node_of = np.empty(len(vocabulary), dtype=np.intp)
    node_of[order] = np.arange(len(order))
    n = len(order)
    # one key a row, article * n + term id, so one sort puts each article's
    # ids in ascending order; repeated rows are dropped
    keys = np.repeat(np.arange(len(sizes)) * n, sizes)
    keys += node_of.take(term_ids)
    del term_ids  # an intp copy where the caller's ids were narrower
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    article, ids = np.divmod(keys, n)
    sizes = np.bincount(article, minlength=len(sizes))
    starts = np.cumsum(sizes) - sizes
    del keys, article  # not held while the pairs are built and sorted
    # articles grouped by term count, each group as a matrix of its rows of
    # term ids; pair key a * n + b with a < b sorts as the pair (a, b).
    # Every group writes its keys into one preallocated array, so no list of
    # per-group arrays and no concatenated copy of them is ever held; int32
    # keys when they fit
    dtype = np.int32 if n * n < _INT32_KEYS else np.int64
    ids = ids.astype(dtype)
    group_sizes, members = np.unique(sizes, return_counts=True)
    pairs = np.empty(int(members @ (group_sizes * (group_sizes - 1) // 2)), dtype=dtype)
    at = 0
    for size in group_sizes[group_sizes > 1].tolist():
        rows = ids[starts[sizes == size][:, None] + np.arange(size)]
        # the pairs of each row's a-th id with every later id
        for a in range(size - 1):
            block = pairs[at:at + len(rows) * (size - 1 - a)].reshape(len(rows), -1)
            np.multiply(rows[:, a:a + 1], n, out=block)
            block += rows[:, a + 1:]
            at += block.size
    pairs, weights = _runs(pairs)
    return TermGraph(nodes=tuple(map(vocabulary.__getitem__, order)),
                     edges=np.column_stack(np.divmod(pairs, n)),
                     weights=weights)


def _edge_list(graph: TermGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two endpoints and the float weight of each edge of ``graph``;
    InvalidInput on a self-loop."""
    first, second = np.asarray(graph.edges, dtype=np.intp).T
    loops = np.flatnonzero(first == second)
    if len(loops):
        raise InvalidInput(f"self-loop on {graph.nodes[first[loops[0]]]!r}")
    return first, second, np.asarray(graph.weights, dtype=float)


def _merge(src: np.ndarray, dst: np.ndarray, w: np.ndarray,
           n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges among ``n`` nodes, parallel ones summed and loops
    dropped, sorted by (src, dst)."""
    keep = src != dst
    keys, at = np.unique(src[keep] * n + dst[keep], return_inverse=True)
    src, dst = np.divmod(keys, n)
    return src, dst, np.bincount(at, weights=w[keep], minlength=len(keys))


def _level(graph: TermGraph) -> tuple[np.ndarray, ...]:
    """The first Louvain level of ``graph``: each edge in both directions as
    (src, dst, w) sorted by (src, dst), and every node's weighted degree k."""
    first, second, weights = _edge_list(graph)
    n = len(graph.nodes)
    src, dst, w = _merge(np.concatenate([first, second]),
                         np.concatenate([second, first]),
                         np.concatenate([weights, weights]), n)
    return src, dst, w, np.bincount(src, weights=w, minlength=n)


def modularity(graph: TermGraph, partition: dict[str, int]) -> float:
    """Weighted modularity of a partition, recomputed from scratch.

    Q = sum_c [intra_c / (2m) - (deg_c / (2m))^2] with intra_c the doubled
    weight of edges inside community c and deg_c its total weighted degree.
    An edgeless graph has Q = 0.
    """
    return _modularity(_level(graph), [partition[node] for node in graph.nodes])


def louvain(graph: TermGraph, seed: int) -> TermGraph:
    """Two-phase Louvain on the weighted graph, reproducible under ``seed``.

    Local moves maximize the modularity gain with node visit order shuffled
    by a seeded RNG; communities are then aggregated and the process repeats
    until a full pass improves modularity by less than ``_MIN_GAIN``.
    Community ids in the returned partition are renumbered by each
    community's lexicographically smallest term; ``history`` holds the
    modularity after each pass.
    """
    if not graph.nodes:
        raise InvalidInput("graph has no nodes")
    nodes = graph.nodes
    n = len(nodes)
    level = base = _level(graph)
    ints = np.asarray(graph.weights).dtype.kind in "iu"  # level 0 goes as ints

    rng = random.Random(seed)
    assign = np.arange(n)  # original node -> current level node
    labels = list(range(n))
    q_prev = q_labels = _modularity(base, labels)
    history: list[float] = []

    while True:
        local = np.array(_one_level(level, rng, ints and level is base))
        projected = local[assign].tolist()
        q = _modularity(base, projected)
        history.append(q)
        if q >= q_prev:
            labels, q_labels = projected, q
        if q - q_prev < _MIN_GAIN:
            break
        q_prev = q
        # communities become the nodes of the next level, numbered in order
        # of their ids; a node's degree is the sum of its members', so it
        # counts the weight inside a community twice
        ids, new = np.unique(local, return_inverse=True)
        src, dst, w, k = level
        level = (*_merge(new[src], new[dst], w, len(ids)),
                 np.bincount(new, weights=k, minlength=len(ids)))
        assign = new[assign]

    # nodes are sorted, so communities in order of first appearance are in
    # order of their smallest member term
    renumber = {c: i for i, c in enumerate(dict.fromkeys(labels))}
    partition = {node: renumber[c] for node, c in zip(nodes, labels)}
    return replace(graph, partition=partition, modularity=q_labels,
                   history=tuple(history))


def _one_level(level: tuple[np.ndarray, ...], rng: random.Random, ints: bool) -> list[int]:
    src, dst, w, k = level
    n = len(k)
    comm = list(range(n))
    two_m = float(k.sum())
    if two_m == 0:
        return comm
    # node v's neighbours, in ascending order, and their weights lie at
    # bounds[v]:bounds[v + 1] of dst and w; sliced per visit, since a tuple
    # per edge would set the peak memory of extract-topics
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    # whole weights as ints, which add up as their floats do: most share cached ints
    dst, w, k = dst.tolist(), (w.astype(np.int64) if ints else w).tolist(), k.tolist()
    tot = k.copy()
    order = list(range(n))
    rng.shuffle(order)

    while True:
        sweep_gain = 0.0
        for v in order:
            cv = comm[v]
            kv = k[v]
            links: dict[int, float] = {}
            start, end = bounds[v], bounds[v + 1]
            for u, wu in zip(dst[start:end], w[start:end]):
                cu = comm[u]
                links[cu] = links.get(cu, 0.0) + wu
            tot[cv] -= kv
            stay = links.get(cv, 0.0) - tot[cv] * kv / two_m
            best_c, best_s = cv, stay
            for c in sorted(links):
                if c == cv:
                    continue
                s = links[c] - tot[c] * kv / two_m
                if s > best_s:
                    best_c, best_s = c, s
            tot[best_c] += kv
            comm[v] = best_c
            sweep_gain += 2.0 * (best_s - stay) / two_m
        if sweep_gain < _MIN_GAIN:
            break
    return comm


def _modularity(level: tuple[np.ndarray, ...], labels: list) -> float:
    src, dst, w, k = level
    two_m = float(k.sum())
    if two_m == 0:
        return 0.0
    # communities numbered in order of first appearance, the order in which
    # their (deg_c / 2m)^2 terms are summed
    first: dict = {}
    ids = np.array([first.setdefault(c, len(first)) for c in labels])
    intra2 = float(w[ids[src] == ids[dst]].sum())
    tot = np.bincount(ids, weights=k)
    return intra2 / two_m - sum((d / two_m) ** 2 for d in tot.tolist())


def cluster_report(graph: TermGraph, top_n: int = 10
                   ) -> list[tuple[int, list[tuple[str, float]]]]:
    """Per-community candidate terms ranked by intra-community degree.

    Returns ``[(community_id, [(term, intra_degree), ...]), ...]`` with at
    most ``top_n`` terms per community, ordered by degree (descending) then
    term; the whole report is deterministic for a fixed partition.
    """
    if graph.partition is None:
        raise InvalidInput("graph has no partition; run louvain first")
    first, second, weights = _edge_list(graph)
    part = graph.partition
    labels = np.array([part[node] for node in graph.nodes])
    inside = labels[first] == labels[second]
    n = len(graph.nodes)
    # float even where no edge lies inside, when bincount returns integers
    intra = dict(zip(graph.nodes, np.add(
        np.bincount(first[inside], weights=weights[inside], minlength=n),
        np.bincount(second[inside], weights=weights[inside], minlength=n),
        dtype=float).tolist()))
    groups: dict[int, list[str]] = {}
    for node in graph.nodes:
        groups.setdefault(part[node], []).append(node)
    report = []
    for cid in sorted(groups):
        ranked = sorted(groups[cid], key=lambda term: (-intra[term], term))
        report.append((cid, [(term, intra[term]) for term in ranked[:top_n]]))
    return report
