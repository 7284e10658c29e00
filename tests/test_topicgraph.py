import itertools
import tracemalloc

import numpy as np
import pytest

from engdyn import topicgraph
from engdyn.errors import EmptyArticle, InvalidInput
from engdyn.topicgraph import (cluster_report, count_terms, extract_terms,
                               extract_terms_chunk, load_stopwords, louvain,
                               modularity, project)

from conftest import TWO_CLIQUE, columns, edge_rows, graph_of


def set_partitions(items):
    """All partitions of a list into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def oracle_modularity(nodes, edges, blocks):
    """Q from the raw adjacency formula, independent of the library path;
    ``edges`` maps sorted term pairs to weights."""
    label = {}
    for i, blk in enumerate(blocks):
        for node in blk:
            label[node] = i
    degree = {n: 0.0 for n in nodes}
    for (a, b), w in edges.items():
        degree[a] += w
        degree[b] += w
    two_m = sum(degree.values())
    if two_m == 0:
        return 0.0
    q = 0.0
    for i in nodes:
        for j in nodes:
            if label[i] != label[j]:
                continue
            key = (i, j) if i < j else (j, i)
            a_ij = float(edges.get(key, 0)) if i != j else 0.0
            q += a_ij / two_m - degree[i] * degree[j] / (two_m * two_m)
    return q


def brute_force_best(nodes, edges):
    best_q, best_blocks = -2.0, None
    for blocks in set_partitions(list(nodes)):
        q = oracle_modularity(nodes, edges, blocks)
        if q > best_q:
            best_q, best_blocks = q, blocks
    return best_q, best_blocks


def clique_ring(n_cliques=4, size=5):
    """The nodes and the {(term, term): weight} edges of a ring of cliques."""
    edges = {}
    for c in range(n_cliques):
        names = [f"c{c}n{k}" for k in range(size)]
        for a, b in itertools.combinations(names, 2):
            edges[(a, b)] = 1
    for c in range(n_cliques):
        a = f"c{c}n0"
        b = f"c{(c + 1) % n_cliques}n1"
        edges[(a, b) if a < b else (b, a)] = 1
    nodes = tuple(sorted({n for e in edges for n in e}))
    return nodes, edges


class TestExtractTerms:
    def test_hand_counted_example(self):
        terms = extract_terms("a1", "The cat sat on the mat cat cat mat",
                              frozenset({"the", "on"}))
        assert terms == (("cat", 3), ("mat", 2), ("sat", 1))

    def test_stopword_only_text_is_empty(self):
        with pytest.raises(EmptyArticle):
            extract_terms("a1", "the on 123 456", frozenset({"the", "on"}))

    def test_numbers_never_become_terms(self):
        terms = extract_terms("a1", "42 2024 covid19 covid19", frozenset())
        assert [term for term, _ in terms] == ["covid"]

    def test_top_ten_cutoff(self):
        vocab = [chr(ord("a") + i) * 3 for i in range(12)]  # aaa, bbb, ...
        words = []
        for i, word in enumerate(vocab):
            words.extend([word] * (12 - i))
        terms = extract_terms("a1", " ".join(words), frozenset())
        assert len(terms) == 10
        assert terms[0] == ("aaa", 12)
        assert {term for term, _ in terms} == set(vocab[:10])

    def test_cutoff_ties_break_lexicographically(self):
        text = "zeta alpha beta gamma delta " * 2
        terms = extract_terms("a1", text, frozenset(), k=3)
        assert [term for term, _ in terms] == ["alpha", "beta", "delta"]

    def test_frequencies_non_increasing(self):
        terms = extract_terms("a1", "b b b a a c", frozenset())
        freqs = [f for _, f in terms]
        assert freqs == sorted(freqs, reverse=True)

    def test_pretokenized_path(self):
        terms = count_terms("a1", ["News", "news", "the", "vote"],
                            frozenset({"the"}))
        assert terms == (("news", 2), ("vote", 1))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_on_both_paths(self, k):
        with pytest.raises(InvalidInput, match="k must be at least 1"):
            extract_terms("a", "river vote vote ballot", frozenset(), k)
        with pytest.raises(InvalidInput, match="k must be at least 1"):
            extract_terms_chunk(["a", "b"], ["river vote", ""], frozenset(), k)
        with pytest.raises(InvalidInput, match="k must be at least 1"):
            count_terms("a", ["river", "vote", "vote", "ballot"], frozenset(), k)

    def test_chunk_columns(self):
        sizes, terms, rows, counts = extract_terms_chunk(
            ["a1", "a2", "a3"], ["vote vote ballot", "the 42", "river"],
            frozenset({"the"}))
        assert sizes.tolist() == [2, 0, 1]
        assert sorted(terms) == ["ballot", "river", "vote"]
        assert [terms[i] for i in rows] == ["vote", "ballot", "river"]
        assert counts.tolist() == [2, 1, 1]

    def test_bundled_stopwords(self):
        stop = load_stopwords()
        assert {"the", "on", "and", "is"} <= stop

    def test_stopword_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("\ufeffthe\n# a comment\nOf\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "of"})


class TestProject:
    def test_two_articles_share_one_term(self):
        arts = [("a", "b"), ("b", "c")]
        graph = project(*columns(arts))
        assert edge_rows(graph) == [("a", "b", 1), ("b", "c", 1)]
        assert graph.nodes == ("a", "b", "c")

    def test_repeated_cooccurrence_accumulates(self):
        arts = [("a", "b"), ("a", "b")]
        assert edge_rows(project(*columns(arts))) == [("a", "b", 2)]

    def test_weights_match_bruteforce_intersections(self):
        rng = np.random.default_rng(12)
        vocab = [f"w{i}" for i in range(30)]
        arts = []
        for i in range(20):
            picks = rng.choice(vocab, size=rng.integers(2, 9), replace=False)
            arts.append(sorted(picks))
        weights = {(a, b): w for a, b, w in edge_rows(project(*columns(arts)))}
        for t1, t2 in itertools.combinations(sorted({t for a in arts
                                                     for t in a}), 2):
            expected = sum(1 for a in arts
                           if t1 in a and t2 in a)
            assert weights.get((t1, t2), 0) == expected

    def test_order_invariance(self):
        arts = [("a", "b"), ("b", "c"), ("a", "c")]
        forward = project(*columns(arts))
        backward = project(*columns(list(reversed(arts))))
        assert forward.nodes == backward.nodes
        assert edge_rows(forward) == edge_rows(backward)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInput):
            project(*columns([]))

    def test_columns_with_repeated_terms_and_empty_articles(self):
        # a term repeated within an article counts that article once, and an
        # article without terms adds nothing
        graph = project([0, 1, 0, 1, 2, 1], ["a", "b", "c"], [4, 0, 2])
        assert graph.nodes == ("a", "b", "c")
        assert edge_rows(graph) == [("a", "b", 1), ("b", "c", 1)]

    @pytest.mark.parametrize("sizes", [[1, 1], [2, 2], [4, -1]])
    def test_sizes_that_do_not_cover_the_terms_rejected(self, sizes):
        with pytest.raises(InvalidInput, match="do not split"):
            project([0, 1, 2], ["a", "b", "c"], sizes)

    @pytest.mark.parametrize("term_ids, vocabulary, nodes, edges", [
        ([0, 2, 2, 0], ["vote", "zebra", "ballot"], ("ballot", "vote"),
         [("ballot", "vote", 2)]),
        ([1, 2, 3, 2], ["zebra", "vote", "ballot", "yak"], ("ballot", "vote", "yak"),
         [("ballot", "vote", 1), ("ballot", "yak", 1)]),
        ([0, 0, 0, 0], ["vote", "ballot"], ("vote",), []),
    ])
    def test_vocabulary_terms_that_no_row_holds_are_no_nodes(self, term_ids, vocabulary,
                                                             nodes, edges):
        graph = project(term_ids, vocabulary, [2, 2])
        assert graph.nodes == nodes
        assert edge_rows(graph) == edges

    @pytest.mark.parametrize("vocabulary", [["vote", "vote"], ["vote", "ballot", "vote"]])
    def test_repeated_vocabulary_term_rejected(self, vocabulary):
        with pytest.raises(InvalidInput, match="holds a term twice"):
            project([0, 1], vocabulary, [2])

    @pytest.mark.parametrize("term_ids", [[-1, 0], [0, 2], [0, 2**40]])
    def test_ids_outside_the_vocabulary_rejected(self, term_ids):
        with pytest.raises(InvalidInput, match="must index the 2 vocabulary terms"):
            project(term_ids, ["vote", "ballot"], [2])

    @pytest.mark.parametrize("vocabulary", [["vote", "vote\x00"], ["vote\x00", "vote"]])
    def test_terms_differing_by_a_trailing_nul_stay_two_nodes(self, vocabulary):
        graph = project([0, 1], vocabulary, [2])
        assert graph.nodes == ("vote", "vote\x00")
        assert edge_rows(graph) == [("vote", "vote\x00", 1)]

    def test_int32_and_int64_keys_give_the_same_graph(self, monkeypatch):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(300)]
        arts = [sorted(rng.choice(vocab, size=rng.integers(1, 11), replace=False))
                for i in range(200)]
        narrow = project(*columns(arts))
        monkeypatch.setattr(topicgraph, "_INT32_KEYS", 0)
        wide = project(*columns(arts))
        assert narrow.nodes == wide.nodes and len(narrow.edges) > 1000
        assert edge_rows(narrow) == edge_rows(wide)
        assert narrow.weights.dtype == wide.weights.dtype

    def test_peak_memory_per_term_row(self):
        # 10,000 articles of 10 distinct terms among 60 topics of 50 terms:
        # the row keys are freed before the 450,000 pairs are built, and the
        # pairs are counted in place, not in a sorted copy
        rng = np.random.default_rng(7)
        n = 10_000
        ids = np.argsort(rng.random((n, 50)), axis=1)[:, :10] + 50 * rng.integers(60, size=(n, 1))
        term_ids = ids.ravel()
        vocabulary = [f"w{i}" for i in range(3000)]
        tracemalloc.start()
        try:
            graph = project(term_ids, vocabulary, [10] * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(graph.nodes), len(graph.edges)) == (3000, 73325)
        assert peak / len(term_ids) <= 64


class TestLouvain:
    def test_two_cliques_recovered_exactly(self, two_clique_graph):
        result = louvain(two_clique_graph, seed=0)
        part = result.partition
        assert part["a"] == part["b"] == part["c"]
        assert part["x"] == part["y"] == part["z"]
        assert part["a"] != part["x"]
        best_q, best_blocks = brute_force_best(*TWO_CLIQUE)
        assert result.modularity == pytest.approx(best_q, abs=1e-12)
        assert sorted(map(sorted, best_blocks)) == [["a", "b", "c"],
                                                    ["x", "y", "z"]]

    def test_edgeless_graph_is_singletons(self):
        graph = graph_of(("p", "q", "r"), {})
        result = louvain(graph, seed=1)
        assert sorted(result.partition.values()) == [0, 1, 2]
        assert result.modularity == 0.0

    def test_clique_ring_recovers_four_communities(self):
        graph = graph_of(*clique_ring())
        for seed in range(5):
            result = louvain(graph, seed=seed)
            groups = {}
            for node, cid in result.partition.items():
                groups.setdefault(cid, set()).add(node)
            assert len(groups) == 4
            for members in groups.values():
                assert len({m[:2] for m in members}) == 1  # one clique each

    def test_ring_modularity_matches_quotient_bruteforce(self):
        # aggregate each K5 into one node (self-loops dropped, degrees kept
        # through the formula) and brute-force the 4-node quotient
        ring = clique_ring()
        result = louvain(graph_of(*ring), seed=2)
        # by symmetry the optimum groups whole cliques; enumerate clique
        # groupings directly on the original graph
        cliques = [[f"c{c}n{k}" for k in range(5)] for c in range(4)]
        best_q = -2.0
        for blocks in set_partitions(list(range(4))):
            node_blocks = [[n for c in blk for n in cliques[c]]
                           for blk in blocks]
            best_q = max(best_q, oracle_modularity(*ring, node_blocks))
        assert result.modularity == pytest.approx(best_q, abs=1e-12)

    def test_modularity_non_decreasing_per_pass(self, two_clique_graph):
        fixtures = [two_clique_graph, graph_of(*clique_ring())]
        rng = np.random.default_rng(4)
        for n in (5, 8):
            edges = {}
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < 0.45:
                    edges[(f"n{a}", f"n{b}")] = int(rng.integers(1, 4))
            if edges:
                nodes = tuple(sorted({x for e in edges for x in e}))
                fixtures.append(graph_of(nodes, edges))
        for graph in fixtures:
            for seed in range(3):
                trace = louvain(graph, seed=seed).history
                assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_final_q_matches_recomputation(self, two_clique_graph):
        for graph in (two_clique_graph, graph_of(*clique_ring())):
            result = louvain(graph, seed=7)
            assert result.modularity == pytest.approx(
                modularity(graph, result.partition), abs=1e-12)
        # modularity of random partitions of random weighted graphs, some
        # with isolated nodes, against the adjacency formula
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            nodes = tuple(f"n{i:02d}" for i in range(n))
            edges = {(a, b): float(rng.uniform(0.1, 5.0))
                     for a, b in itertools.combinations(nodes, 2)
                     if rng.random() < 0.4}
            graph = graph_of(nodes, edges)
            labels = rng.integers(0, int(rng.integers(1, n + 1)), n).tolist()
            partition = dict(zip(nodes, labels))
            blocks = [[v for v in nodes if partition[v] == c]
                      for c in set(labels)]
            assert modularity(graph, partition) == pytest.approx(
                oracle_modularity(nodes, edges, blocks), abs=1e-12)

    def test_small_graphs_near_bruteforce_optimum(self):
        rng = np.random.default_rng(99)
        for trial in range(6):
            n = int(rng.integers(4, 9))
            edges = {}
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < 0.5:
                    edges[(f"n{a}", f"n{b}")] = int(rng.integers(1, 4))
            if not edges:
                continue
            nodes = tuple(sorted({x for e in edges for x in e}))
            result = louvain(graph_of(nodes, edges), seed=trial)
            best_q, _ = brute_force_best(nodes, edges)
            assert result.modularity >= best_q - 0.05

    def test_seeded_determinism(self, two_clique_graph):
        a = louvain(two_clique_graph, seed=13)
        b = louvain(two_clique_graph, seed=13)
        assert a.partition == b.partition
        assert a.modularity == b.modularity

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidInput):
            louvain(graph_of((), {}), seed=0)

    def test_self_loop_rejected_everywhere(self):
        graph = graph_of(("a", "b"), {("a", "b"): 1, ("b", "b"): 2})
        with pytest.raises(InvalidInput, match="self-loop on 'b'"):
            louvain(graph, seed=0)
        with pytest.raises(InvalidInput, match="self-loop on 'b'"):
            modularity(graph, {"a": 0, "b": 0})
        graph.partition = {"a": 0, "b": 0}
        with pytest.raises(InvalidInput, match="self-loop on 'b'"):
            cluster_report(graph)


class TestClusterReport:
    def test_two_clique_report(self, two_clique_graph):
        result = louvain(two_clique_graph, seed=0)
        report = cluster_report(result)
        assert len(report) == 2
        terms_by_comm = [sorted(t for t, _ in ranked) for _, ranked in report]
        assert ["a", "b", "c"] in terms_by_comm
        assert ["x", "y", "z"] in terms_by_comm

    def test_singletons_have_one_term_each(self):
        graph = graph_of(("p", "q"), {})
        report = cluster_report(louvain(graph, seed=0))
        assert [len(ranked) for _, ranked in report] == [1, 1]
        assert repr(report) == "[(0, [('p', 0.0)]), (1, [('q', 0.0)])]"

    def test_report_is_deterministic(self, two_clique_graph):
        r1 = cluster_report(louvain(two_clique_graph, seed=5))
        r2 = cluster_report(louvain(two_clique_graph, seed=5))
        assert repr(r1) == repr(r2)

    def test_requires_partition(self, two_clique_graph):
        with pytest.raises(InvalidInput):
            cluster_report(two_clique_graph)

    def test_top_n_cap(self):
        edges = {(f"hub", f"s{i}"): 1 for i in range(15)}
        edges = {tuple(sorted(k)): v for k, v in edges.items()}
        nodes = tuple(sorted({x for e in edges for x in e}))
        graph = louvain(graph_of(nodes, edges), seed=0)
        report = cluster_report(graph, top_n=3)
        assert all(len(ranked) <= 3 for _, ranked in report)
