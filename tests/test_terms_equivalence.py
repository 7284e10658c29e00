"""Term extraction and projection against the code they replaced.

The oracles below are that code, kept as it was: a regex tokenizer with a
dict count and a full ``sorted`` of every term, the same selection for
pre-tokenized input, and a pair loop over each article's sorted terms. The
library's results must equal theirs exactly, including the order of the
ranked terms and of the edges, or both must raise the same exception type.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engdyn.errors import EmptyArticle, InvalidInput
from engdyn.topicgraph import (TermGraph, count_terms, extract_terms,
                               extract_terms_chunk, project)

from conftest import columns, edge_rows

# ----------------------------------------------------------------- oracles

_TOKEN = re.compile(r"[a-z]+")


def oracle_extract_terms(article_id, text, stopwords, k=10):
    counts = {}
    for token in _TOKEN.findall(text.lower()):
        if token in stopwords:
            continue
        counts[token] = counts.get(token, 0) + 1
    if not counts:
        raise EmptyArticle(f"article {article_id!r} has no usable tokens")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple(ranked[:k])


def oracle_extract_terms_chunk(article_ids, texts, stopwords, k=10):
    """Per-article oracle results, ``None`` where the article is empty."""
    results = []
    for article_id, text in zip(article_ids, texts):
        try:
            results.append(oracle_extract_terms(article_id, text, stopwords, k))
        except EmptyArticle:
            results.append(None)
    return results


def oracle_count_terms(article_id, tokens, stopwords, k=10):
    counts = {}
    for token in tokens:
        token = token.lower()
        if token in stopwords or not token:
            continue
        counts[token] = counts.get(token, 0) + 1
    if not counts:
        raise EmptyArticle(f"article {article_id!r} has no usable tokens")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple(ranked[:k])


def oracle_project(articles):
    """The sorted terms and a {(term, term): weight} dict in sorted-pair order."""
    if not articles:
        raise InvalidInput("need at least one article")
    nodes = set()
    edges = {}
    for article in articles:
        terms = sorted({term for term, _ in article})
        nodes.update(terms)
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                pair = (terms[i], terms[j])
                edges[pair] = edges.get(pair, 0) + 1
    return tuple(sorted(nodes)), {pair: edges[pair] for pair in sorted(edges)}


def chunk_articles(texts, stopwords, k=10):
    """The kernel's columns as per-article results, ``None`` where the
    article has no terms, for comparison with the oracle's; the chunk's
    terms must be distinct, and each must be some row's."""
    sizes, terms, rows, counts = extract_terms_chunk(texts, stopwords, k)
    assert len(set(terms)) == len(terms)
    assert set(rows.tolist()) == set(range(len(terms)))
    ends = np.cumsum(sizes).tolist()
    ranked = list(zip([terms[i] for i in rows], counts.tolist()))
    return [tuple(ranked[end - size:end]) if size else None
            for size, end in zip(sizes.tolist(), ends)]


def project_articles(articles):
    return project(*columns([[term for term, _ in article] for article in articles]))


def outcome(fn, *args):
    """The call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: see the asserts
        return type(exc), str(exc)


# -------------------------------------------------------------- strategies

# characters whose lowercase is (or holds) ASCII letters, letters that stay
# non-ASCII, lone surrogates, digits, punctuation, NUL and line breaks
TRICKY = ["İ", "K", "ß", "ﬀ", "é", "\ud800", "\udfff",
          "\x00", "\x85", " ", "\t", "\n", " ", "-", "'", ".", "7", "0"]
WORDS = ["the", "The", "THE", "cat", "Cat", "mat", "a", "ab", "abc", "zeta",
         "vote", "news", "x", "covid19", "co-op", "don't"]

texts = st.one_of(
    st.lists(st.sampled_from(WORDS + TRICKY), max_size=60).map("".join),
    st.lists(st.sampled_from(WORDS + TRICKY), max_size=40).map(" ".join),
    st.text(alphabet=st.sampled_from(TRICKY + list("abcXYZ")), max_size=40),
    st.text(max_size=40),
)
stopword_sets = st.frozensets(
    st.sampled_from(["the", "a", "ab", "cat", "x", "i", "k", "", "The"]),
    max_size=5)
ks = st.integers(1, 12)
# words longer than the 10 letters a packed key holds, sharing that prefix
# with each other and with short words, so only their tails order them
PREFIX = "abcdefghij"
long_words = st.one_of(
    st.sampled_from([PREFIX, PREFIX[:9], PREFIX + "k", PREFIX + "a", PREFIX * 2,
                     PREFIX + "z" * 30, "Abcdefghijk", "abcdefghiJK", "zzzzzzzzzzz"]),
    st.text(alphabet="ab", min_size=1, max_size=30).map(PREFIX.__add__))
long_texts = st.lists(st.one_of(long_words, st.sampled_from(WORDS + TRICKY)),
                      max_size=40).map(" ".join)
chunks = st.lists(st.one_of(texts, long_texts), min_size=1, max_size=40)
# stopwords that are long, empty or hold non-letters beside plain ones
chunk_stopword_sets = st.frozensets(
    st.sampled_from(["the", "a", "cat", "x", "", "The", "co-op", "don't", "x1",
                     " ", PREFIX, PREFIX + "k", PREFIX * 2, PREFIX + "K"]),
    max_size=6)
tokens = st.lists(st.one_of(st.sampled_from(["", "News", "news", "NEWS", "the",
                                             "The", "vote", "İ", "K"]),
                            st.text(max_size=4)), max_size=30)


class TestExtractTerms:
    @given(texts, stopword_sets, ks)
    @settings(max_examples=1000, deadline=None)
    def test_matches_regex_tokenizer(self, text, stopwords, k):
        assert outcome(extract_terms, "a", text, stopwords, k) == \
            outcome(oracle_extract_terms, "a", text, stopwords, k)

    @pytest.mark.parametrize("text", [
        "İstanbul", "Kelvin", "straße", "ﬀort",
        "café café", "a\ud800b a\udfffb", "x\x00y", "covid19 co-op",
    ])
    def test_non_ascii_boundaries(self, text):
        assert extract_terms("a", text, frozenset(), 10) == \
            oracle_extract_terms("a", text, frozenset(), 10)

    def test_non_string_text_raises_like_before(self):
        assert outcome(extract_terms, "a", 5, frozenset())[0] is AttributeError
        assert outcome(oracle_extract_terms, "a", 5, frozenset())[0] is AttributeError


class TestExtractTermsChunk:
    @given(chunks, chunk_stopword_sets, ks)
    @settings(max_examples=500, deadline=None)
    def test_matches_regex_tokenizer_per_article(self, texts, stopwords, k):
        ids = [f"a{i}" for i in range(len(texts))]
        assert chunk_articles(texts, stopwords, k) == \
            oracle_extract_terms_chunk(ids, texts, stopwords, k)

    @pytest.mark.parametrize("texts", [
        [], [""], ["", "123 ...", "the a"], ["\u00e9\u00df 42", "the the"]])
    def test_chunk_without_usable_tokens(self, texts):
        stopwords = frozenset({"the", "a"})
        assert chunk_articles(texts, stopwords) == [None] * len(texts)

    def test_long_words_only(self):
        texts = [PREFIX + "k " + PREFIX + "a " + PREFIX + "k", "the", PREFIX * 3]
        ids = ["a", "b", "c"]
        for k in (1, 2, 10):
            assert chunk_articles(texts, frozenset({"the"}), k) == \
                oracle_extract_terms_chunk(ids, texts, frozenset({"the"}), k)

    def test_long_and_short_words_share_one_ranking(self):
        # equal counts, so only the word order ranks: a long word sorts
        # right after the 10-letter word that is its prefix, before the next
        # greater short key, and articles keep their own long words
        texts = [" ".join([PREFIX + "b", "zz", PREFIX + "a", PREFIX[:9] + "k",
                           PREFIX, PREFIX + "c", PREFIX[:9], PREFIX + "a", "zz",
                           PREFIX + "b", PREFIX + "a", PREFIX + "b", "zzz"]),
                 "yy " + PREFIX + "aa",
                 "the " + PREFIX + "a"]
        ids = ["a", "b", "c"]
        got = chunk_articles(texts, frozenset({"the", PREFIX + "b"}), 6)
        assert got == oracle_extract_terms_chunk(
            ids, texts, frozenset({"the", PREFIX + "b"}), 6)
        assert got[0] == ((PREFIX + "a", 3), ("zz", 2), (PREFIX[:9], 1),
                          (PREFIX, 1), (PREFIX + "c", 1),
                          (PREFIX[:9] + "k", 1))
        assert got[1] == ((PREFIX + "aa", 1), ("yy", 1))
        assert got[2] == ((PREFIX + "a", 1),)

    def test_count_field_wider_than_sixteen_bits(self):
        # 300,001 repeats need 19 bits of count in the ranking key: the first
        # article's terms, some 300,000 below the top count, rank before the
        # second article's only if none of those bits spill into its index
        texts = ["delta delta epsilon",
                 "alpha " * 300_001 + "beta beta gamma " + PREFIX + "k"]
        got = chunk_articles(texts, frozenset(), 3)
        assert got == oracle_extract_terms_chunk(["small", "big"], texts,
                                                 frozenset(), 3)
        assert got[1] == (("alpha", 300_001), ("beta", 2),
                          (PREFIX + "k", 1))

    def test_chunk_past_the_article_field_is_split(self):
        # 2**14 + 1 articles need 15 bits of article index beside the
        # 50-bit word key, so the chunk is counted in two halves
        texts = [f"w{'abc'[i % 3]} {'xyz'[i % 3]}{'xyz'[i % 2]} the"
                 for i in range(2**14 + 1)]
        ids = [str(i) for i in range(len(texts))]
        assert chunk_articles(texts, frozenset({"the"}), 2) == \
            oracle_extract_terms_chunk(ids, texts, frozenset({"the"}), 2)


class TestCountTerms:
    @given(tokens, stopword_sets, ks)
    @settings(max_examples=600, deadline=None)
    def test_matches_dict_count(self, toks, stopwords, k):
        assert outcome(count_terms, "a", toks, stopwords, k) == \
            outcome(oracle_count_terms, "a", toks, stopwords, k)

    def test_non_string_token_raises_like_before(self):
        assert outcome(count_terms, "a", ["ok", None], frozenset())[0] is AttributeError
        assert outcome(oracle_count_terms, "a", ["ok", None], frozenset())[0] \
            is AttributeError


VOCAB = ["alpha", "beta", "delta", "eta", "gamma", "iota", "kappa", "mu",
         "nu", "pi", "rho", "tau"]

article_lists = st.lists(
    st.lists(st.sampled_from(VOCAB), max_size=14),  # 0, 1 or many, repeats
    max_size=25,
).map(lambda rows: [tuple((t, 1) for t in row) for row in rows])


class TestProject:
    @given(article_lists)
    @settings(max_examples=600, deadline=None)
    def test_matches_pair_loop(self, articles):
        got = outcome(project_articles, articles)
        want = outcome(oracle_project, articles)
        if isinstance(got, TermGraph):
            nodes, edges = want
            assert got.nodes == nodes
            # pairs and weights, in sorted-pair order
            assert edge_rows(got) == [(a, b, w) for (a, b), w in edges.items()]
            assert all(type(w) is int for *_, w in edge_rows(got))
        else:
            assert got == want

    def test_articles_of_very_different_sizes(self):
        big = tuple((f"t{i:03d}", 1) for i in range(300))
        small = (("t000", 1), ("t001", 1))
        graph = project_articles([big, small])
        nodes, edges = oracle_project([big, small])
        assert graph.nodes == nodes
        assert edge_rows(graph) == [(a, b, w) for (a, b), w in edges.items()]
        assert len(graph.edges) == 300 * 299 // 2
        assert edge_rows(graph)[0] == ("t000", "t001", 2)


# whole chunks of text articles and single pre-tokenized articles, in any mix
pieces = st.lists(st.one_of(chunks.map(lambda texts: ("texts", texts)),
                            tokens.map(lambda toks: ("tokens", toks))),
                  min_size=1, max_size=5)


class TestColumnsAcrossChunks:
    @given(pieces, chunk_stopword_sets, ks)
    @settings(max_examples=300, deadline=None)
    def test_concatenated_columns_match_per_article_oracle(self, pieces, stopwords, k):
        # the columns of every kernel call and every pre-tokenized article
        # laid end to end, a term count of 0 for each article without terms,
        # as cli._read_articles builds them, each term with an id in one
        # first-seen vocabulary; so each chunk's terms must start where the
        # previous chunk's end
        vocabulary, term_ids, sizes, oracle = {}, [], [], []
        for at, (kind, batch) in enumerate(pieces):
            if kind == "texts":
                ids = [f"c{at}-{i}" for i in range(len(batch))]
                chunk_sizes, terms, rows, _ = extract_terms_chunk(batch, stopwords, k)
                term_ids += [vocabulary.setdefault(terms[i], len(vocabulary)) for i in rows]
                sizes += chunk_sizes.tolist()
                oracle += [article for article in oracle_extract_terms_chunk(
                    ids, batch, stopwords, k) if article is not None]
                continue
            try:
                top = count_terms(f"t{at}", batch, stopwords, k)
            except EmptyArticle:
                sizes.append(0)
                continue
            term_ids += [vocabulary.setdefault(term, len(vocabulary)) for term, _ in top]
            sizes.append(len(top))
            oracle.append(oracle_count_terms(f"t{at}", batch, stopwords, k))
        graph = project(term_ids, list(vocabulary), sizes)
        # articles without terms add nothing, so an all-empty input is a
        # graph without nodes (the CLI stops at "empty corpus" before it)
        nodes, edges = oracle_project(oracle) if oracle else ((), {})
        assert graph.nodes == nodes
        assert edge_rows(graph) == [(a, b, w) for (a, b), w in edges.items()]
