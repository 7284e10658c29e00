"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The round-trip recovery criterion is checked with the estimator that fits
the data the generator makes: the window-aware fit
(``FitOptions(window=...)``, the logistic law truncated to the generator's
window, with Brownian-bridge sandwich standard errors), and beta converted
from series days to the generator's days. The paper's default fit fails
the same criterion on these streams (hit rate ~0): its iid-residual
standard errors are 7-46x smaller than the replicate scatter, and at
alpha = 0.003 the window holds only 62-78% of the sigmoid's rise, which
biases alpha-hat; see the README's "known limitations".
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from engdyn import cli, curvefit, synth
from engdyn.metrics import speed_index, topic_metrics
from engdyn.model import CATEGORIES, build_series
from engdyn.stats import mann_whitney_u, pairwise_category_tests, spearman
from engdyn.topicgraph import louvain

from conftest import graph_of
from test_metrics import speed_index_quadrature
from test_stats import oracle_ranks, oracle_spearman_rho
from test_synth import sign_test_corpus_specs
from test_topicgraph import brute_force_best, clique_ring


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------------ 1

def test_parameter_recovery_roundtrip_grid():
    """Generated post streams, rebuilt and refit: estimates within 3
    reported standard errors of the generating parameters in 99% of
    replicates, full grid under 60 s.

    Series days count from the topic's first post and sample k covers
    engagement through times[k] + bin_width, so a generator day is a
    series day plus ``shift`` = (t0 - CORPUS_EPOCH) + bin_width. The fit
    gets the generator's window [0, horizon] in series days, and beta-hat
    is compared in generator days."""
    start = time.monotonic()
    cells = {}
    hits = total = 0
    bin_width = 1.0
    for alpha in (0.003, 0.01, 0.05):
        for beta in (200.0, 600.0, 900.0):
            cell_hits = 0
            for rep in range(100):
                spec = synth.SynthSpec(
                    "g", alpha, beta, 1400.0, 1000, noise_seed=rep)
                series = build_series(synth.generate_topic(spec), "g",
                                      bin_width=bin_width)
                shift = ((series.t0 - synth.CORPUS_EPOCH).total_seconds()
                         / 86400.0 + bin_width)
                r = curvefit.fit(series, curvefit.FitOptions(
                    window=(-shift, spec.horizon_days - shift)))
                beta_hat = r.beta_hat + shift
                if (r.converged
                        and abs(r.alpha_hat - alpha) <= 3 * r.se_alpha
                        and abs(beta_hat - beta) <= 3 * r.se_beta):
                    cell_hits += 1
            cells[(alpha, beta)] = cell_hits
            hits += cell_hits
            total += 100
    elapsed = time.monotonic() - start
    rate = hits / total
    detail = (f"hit rate {rate:.3f} over {total} replicates in {elapsed:.0f}s; "
              f"per cell {sorted(cells.items())}")
    _report("parameter recovery (round trip, 3x3 grid)",
            elapsed < 60.0 and rate >= 0.99, detail)


def test_parameter_recovery_measurement_noise_grid():
    """Same grid under iid measurement noise on the curve, where the
    reported standard errors are the right yardstick."""
    start = time.monotonic()
    rng = np.random.default_rng(424242)
    t = np.arange(0.0, 1401.0)
    hits = total = 0
    from conftest import series_from_curve
    for alpha in (0.003, 0.01, 0.05):
        for beta in (200.0, 600.0, 900.0):
            truth = curvefit.sigmoid(t, alpha, beta)
            for rep in range(100):
                series = series_from_curve(
                    t, truth + rng.normal(0.0, 0.01, len(t)))
                r = curvefit.fit(series)
                if (r.converged
                        and abs(r.alpha_hat - alpha) <= 3 * r.se_alpha
                        and abs(r.beta_hat - beta) <= 3 * r.se_beta):
                    hits += 1
                total += 1
    elapsed = time.monotonic() - start
    rate = hits / total
    _report("parameter recovery (measurement noise, 3x3 grid)",
            elapsed < 60.0 and rate >= 0.99,
            f"hit rate {rate:.3f} in {elapsed:.0f}s")


# ------------------------------------------------------------------ 2

def test_speed_index_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        alpha = float(np.exp(rng.uniform(np.log(1e-4), np.log(1.0))))
        horizon = float(rng.uniform(10.0, 2000.0))
        beta = float(rng.uniform(0.0, 2.0 * horizon))
        gap = abs(speed_index(alpha, beta, horizon)
                  - speed_index_quadrature(alpha, beta, horizon, tol=1e-10))
        worst = max(worst, gap)
    symmetry = max(abs(speed_index(a, 500.0, 1000.0) - 0.5)
                   for a in (1e-4, 1e-2, 1.0, 100.0))
    _report("speed index identity",
            worst < 1e-9 and symmetry <= 1e-12,
            f"max closed-vs-quadrature gap {worst:.2e}, "
            f"max symmetry error {symmetry:.2e}")


# ------------------------------------------------------------------ 3

def test_mann_whitney_exactness():
    rng = np.random.default_rng(12345)
    worst = 0.0
    checked = 0
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            combos = list(itertools.combinations(range(n1 + n2), n1))
            for _ in range(50):
                pool = rng.permutation(np.arange(n1 + n2, dtype=float) * 3.0
                                       + 1.0)
                x, y = pool[:n1], pool[n1:]
                _, p = mann_whitney_u(x, y)  # untied and at most 6: exact
                ranks = oracle_ranks(pool.tolist())
                u_obs = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
                us = [sum(ranks[i] for i in c) - n1 * (n1 + 1) / 2.0
                      for c in combos]
                n_le = sum(1 for u in us if u <= u_obs)
                n_ge = sum(1 for u in us if u >= u_obs)
                p_ref = min(Fraction(1), 2 * Fraction(min(n_le, n_ge),
                                                      len(us)))
                worst = max(worst, abs(p - float(p_ref)))
                checked += 1
    _report("mann-whitney exactness (n1, n2 <= 6)",
            worst < 1e-12, f"{checked} datasets, worst gap {worst:.2e}")


# ------------------------------------------------------------------ 4

def test_spearman_oracle():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 50))
        if rng.random() < 0.5:
            x = rng.integers(0, 8, n).astype(float)
            y = rng.integers(0, 8, n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        worst = max(worst, abs(spearman(x, y).rho - oracle_spearman_rho(x, y)))
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    base = spearman(x, y).rho
    invariant = (spearman(np.exp(x), y ** 3).rho == base)
    _report("spearman oracle", worst < 1e-12 and invariant,
            f"worst rho gap {worst:.2e}, transform-invariant: {invariant}")


# ------------------------------------------------------------------ 5

def test_louvain_quality():
    two_clique = graph_of(
        ("a", "b", "c", "x", "y", "z"),
        {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1,
         ("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 1, ("c", "x"): 1})
    ring = graph_of(*clique_ring())

    fixtures = [two_clique, ring]
    rng = np.random.default_rng(55)
    small = []
    for trial in range(5):
        n = int(rng.integers(4, 9))
        edges = {}
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                edges[(f"n{a}", f"n{b}")] = int(rng.integers(1, 4))
        if edges:
            nodes = tuple(sorted({u for e in edges for u in e}))
            fixtures.append(graph_of(nodes, edges))
            small.append((nodes, edges))

    monotone = all(
        all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        for graph in fixtures for trace in
        [louvain(graph, seed=s).history for s in range(3)])

    part = louvain(two_clique, seed=0).partition
    cliques_ok = (len({part["a"], part["b"], part["c"]}) == 1
                  and len({part["x"], part["y"], part["z"]}) == 1
                  and part["a"] != part["x"])
    ring_part = louvain(ring, seed=0).partition
    ring_groups = {}
    for node, cid in ring_part.items():
        ring_groups.setdefault(cid, set()).add(node[:2])
    ring_ok = len(ring_groups) == 4 and all(
        len(v) == 1 for v in ring_groups.values())

    near_opt = True
    worst_gap = 0.0
    for nodes, edges in small:
        best_q, _ = brute_force_best(nodes, edges)
        got = louvain(graph_of(nodes, edges), seed=1).modularity
        worst_gap = max(worst_gap, best_q - got)
        near_opt = near_opt and got >= best_q - 0.05

    _report("louvain quality",
            monotone and cliques_ok and ring_ok and near_opt,
            f"monotone passes: {monotone}, clique recovery: {cliques_ok}, "
            f"ring recovery: {ring_ok}, worst brute-force gap {worst_gap:.3f}")


# ------------------------------------------------------------------ 6

def test_pipeline_sign():
    start = time.monotonic()
    specs, _ = sign_test_corpus_specs(200, seed=5, n_posts=600)
    si_values, lh_values = [], []
    for spec in specs:
        posts = synth.generate_topic(spec)
        series = build_series(posts, spec.topic_id)
        fit_result = curvefit.fit(series)
        tm = topic_metrics(spec.topic_id, posts, fit_result.alpha_hat,
                           fit_result.beta_hat, series.horizon_days)
        if tm.lh_score is not None:
            si_values.append(tm.speed_index)
            lh_values.append(tm.lh_score)
    result = spearman(si_values, lh_values)
    elapsed = time.monotonic() - start
    _report("pipeline sign (speed vs sentiment)",
            result.rho < 0 and result.p_value < 0.01 and elapsed < 120.0,
            f"rho {result.rho:.3f}, p {result.p_value:.2e}, n {result.n}, "
            f"{elapsed:.0f}s")


# ------------------------------------------------------------------ 7

def test_bonferroni_bookkeeping(tmp_path):
    rng = np.random.default_rng(3)
    samples = {cat: [float(rng.normal()) for _ in range(3)] for cat in CATEGORIES}
    matrix = pairwise_category_tests(samples, "alpha", alpha_level=0.05)
    threshold_ok = (matrix.n_pairs == 45
                    and matrix.corrected_threshold == 0.05 / 45
                    and repr(matrix.corrected_threshold).startswith("0.001111"))

    # table layout via the command line on a 10-category corpus
    spec_obj = {"seed": 2, "topics": []}
    for i, cat in enumerate(CATEGORIES):
        for j in range(2):
            spec_obj["topics"].append({
                "topic_id": f"{cat.lower()}{j}", "alpha_true": 0.01,
                "beta_true": 400.0 + 10.0 * i, "horizon_days": 900.0,
                "n_posts": 80, "lh_target": 0.2, "categories": [cat]})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_obj))
    corpus = tmp_path / "corpus"
    assert cli.main(["simulate", "--input", str(spec_path),
                     "--out", str(corpus)]) == 0
    out = tmp_path / "run"
    assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                     "--categories", str(corpus / "categories.csv"),
                     "--out", str(out)]) == 0
    table = (out / "matrices" / "significance_summary.csv").read_text() \
        .splitlines()
    layout_ok = (table[0] == ",alpha,beta,speed_index,love_hate"
                 and table[1].startswith("below_threshold,")
                 and table[2].startswith("above_threshold,"))
    summary = json.loads((out / "matrices" / "alpha_summary.json").read_text())
    summary_ok = (summary["n_pairs"] == 45
                  and summary["threshold"] == 0.05 / 45)
    _report("bonferroni bookkeeping",
            threshold_ok and layout_ok and summary_ok,
            f"threshold {matrix.corrected_threshold!r}, table header ok: "
            f"{layout_ok}")


# ------------------------------------------------------------------ 8

def test_same_distribution_calibration():
    rng = np.random.default_rng(17)
    reps = 1000
    significant = 0
    for _ in range(reps):
        samples = {cat: [float(rng.normal()) for _ in range(20)]
                   for cat in ("Politics", "Health")}
        matrix = pairwise_category_tests(samples, "alpha", alpha_level=0.05)
        significant += matrix.frac_significant() > 0
    rate = significant / reps
    band = 2.0 * (0.05 * 0.95 / reps) ** 0.5
    _report("same-distribution calibration",
            abs(rate - 0.05) <= band,
            f"significant rate {rate:.4f}, nominal 0.05 +/- {band:.4f}")


# ------------------------------------------------------------------ 9

def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_command_determinism(tmp_path):
    spec_obj = {"seed": 8, "topics": [
        {"topic_id": f"t{i}", "alpha_true": 0.004 + 0.002 * i,
         "beta_true": 300.0 + 60.0 * i, "horizon_days": 1100.0,
         "n_posts": 150, "lh_target": 0.5 - 0.1 * i,
         "categories": [CATEGORIES[i % 10], CATEGORIES[(i + 3) % 10]]}
        for i in range(8)]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_obj))

    trees = []
    for run in ("a", "b"):
        corpus = tmp_path / f"corpus_{run}"
        assert cli.main(["simulate", "--input", str(spec_path),
                         "--out", str(corpus), "--seed", "8"]) == 0
        trees.append(read_tree(corpus))
    simulate_ok = trees[0] == trees[1]

    corpus = tmp_path / "corpus_a"
    runs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--categories", str(corpus / "categories.csv"),
                         "--out", str(out), "--plots", "--seed", "8"]) == 0
        runs.append(read_tree(out))
    analyze_ok = runs[0] == runs[1] == runs[2]

    articles = tmp_path / "articles.jsonl"
    rows = [{"article_id": f"a{i}",
             "text": ("alpha beta gamma delta " if i % 2 else
                      "omega psi chi phi ") * 3}
            for i in range(10)]
    articles.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    topic_trees = []
    for name in ("x1", "x2"):
        out = tmp_path / name
        assert cli.main(["extract-topics", "--input", str(articles),
                         "--out", str(out), "--seed", "4"]) == 0
        topic_trees.append(read_tree(out))
    extract_ok = topic_trees[0] == topic_trees[1]

    _report("command determinism",
            simulate_ok and analyze_ok and extract_ok,
            f"simulate: {simulate_ok}, analyze: {analyze_ok}, "
            f"extract-topics: {extract_ok}")
