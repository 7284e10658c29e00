import csv
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import engdyn
from engdyn import cli, topicgraph
from engdyn.svgplot import fit_overlay_svg, scatter_svg

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

SPEC_OBJ = {
    "seed": 11,
    "topics": [
        {"topic_id": "fast", "alpha_true": 0.05, "beta_true": 200.0,
         "horizon_days": 1400.0, "n_posts": 220, "lh_target": -0.5,
         "categories": ["Politics", "Social"]},
        {"topic_id": "slow", "alpha_true": 0.004, "beta_true": 800.0,
         "horizon_days": 1400.0, "n_posts": 260, "lh_target": 0.7,
         "categories": ["Health", "Politics"]},
        {"topic_id": "mid", "alpha_true": 0.01, "beta_true": 500.0,
         "horizon_days": 1400.0, "n_posts": 240, "lh_target": 0.1,
         "categories": ["Social", "Health"]},
    ],
}

LONELY_POST = json.dumps({
    "post_id": "only", "topic_id": "lonely",
    "timestamp": "2018-06-01T00:00:00Z",
    "likes": 3, "shares": 0, "comments": 1, "love": 0, "angry": 0,
})


def write_spec(tmp_path, obj=SPEC_OBJ):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    return path


def simulate(tmp_path, out="corpus"):
    spec = write_spec(tmp_path)
    out_dir = tmp_path / out
    code = cli.main(["simulate", "--input", str(spec), "--out", str(out_dir)])
    assert code == 0
    return out_dir


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSimulate:
    def test_emits_expected_topics(self, tmp_path):
        out = simulate(tmp_path)
        lines = (out / "posts.jsonl").read_text().splitlines()
        assert len(lines) == 220 + 260 + 240
        cats = (out / "categories.csv").read_text().splitlines()
        assert cats[0] == "topic_id,category"
        assert "fast,Politics" in cats and "slow,Health" in cats

    def test_same_seed_same_bytes(self, tmp_path):
        a = simulate(tmp_path, "one")
        b = simulate(tmp_path, "two")
        assert read_tree(a) == read_tree(b)

    def test_invalid_spec_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"topics": [{"topic_id": "x"}]}))
        assert cli.main(["simulate", "--input", str(bad),
                         "--out", str(tmp_path / "o")]) == 2

    def test_duplicate_topics_exit_two(self, tmp_path):
        obj = {"topics": [
            {"topic_id": "d", "alpha_true": 0.01, "beta_true": 1.0,
             "horizon_days": 10.0, "n_posts": 5},
            {"topic_id": "d", "alpha_true": 0.01, "beta_true": 1.0,
             "horizon_days": 10.0, "n_posts": 5},
        ]}
        spec = write_spec(tmp_path, obj)
        assert cli.main(["simulate", "--input", str(spec),
                         "--out", str(tmp_path / "o")]) == 2

    def test_missing_input_exits_two(self, tmp_path):
        assert cli.main(["simulate", "--input", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_byte_order_mark_accepted(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b"\xef\xbb\xbf" + json.dumps(SPEC_OBJ).encode())
        assert cli.main(["simulate", "--input", str(spec),
                         "--out", str(tmp_path / "bom")]) == 0
        assert read_tree(tmp_path / "bom") == read_tree(simulate(tmp_path))

    @pytest.mark.parametrize("raw,message", [
        (b'{"topics": []}\xff', "not UTF-8 text"),
        (b"[" * 200_000, "maximum recursion depth exceeded")])
    def test_unreadable_spec_exits_two(self, tmp_path, capsys, raw, message):
        spec = tmp_path / "spec.json"
        spec.write_bytes(raw)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--input", str(spec),
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


GOOD_TOPIC = {"topic_id": "t", "alpha_true": 0.01, "beta_true": 500.0,
              "horizon_days": 1400.0, "n_posts": 50}


def bad_spec_args(tmp_path, override):
    spec = write_spec(tmp_path, {"topics": [dict(GOOD_TOPIC, **override)]})
    return ["simulate", "--input", str(spec)]


def bad_categories_args(tmp_path, row):
    corpus = simulate(tmp_path)
    cats = tmp_path / "cats.csv"
    cats.write_text(f"topic_id,category\n{row}\n")
    return ["analyze", "--input", str(corpus / "posts.jsonl"),
            "--categories", str(cats)]


def surrogate_posts_args(tmp_path, topic_id):
    posts = tmp_path / "posts.jsonl"
    posts.write_text("".join(json.dumps(dict(
        json.loads(LONELY_POST), post_id=f"p{day}", topic_id=topic_id,
        timestamp=f"2018-06-{day:02d}T00:00:00Z")) + "\n" for day in (1, 9)))
    return ["analyze", "--input", str(posts)]


@pytest.mark.parametrize("make_args,value,message", [
    (bad_spec_args, {"alpha_true": float("nan")}, "alpha_true must be a finite number"),
    (bad_spec_args, {"beta_true": "x"}, "beta_true must be a finite number"),
    (bad_spec_args, {"beta_true": 10**400}, "beta_true must be a finite number"),
    (bad_spec_args, {"noise_seed": "x"}, "noise_seed must be an integer"),
    (bad_spec_args, {"n_posts": 5.5}, "n_posts must be an integer"),
    (bad_spec_args, {"topic_id": 5}, "topic_id must be a non-empty string"),
    (bad_spec_args, {"engagement_mean": 1e300}, "engagement_mean must lie in"),
    (bad_spec_args, {"engagement_mean": 1.5e10}, "engagement_mean must lie in"),
    (bad_spec_args, {"reaction_rate": float("inf")}, "reaction_rate must be a finite"),
    (bad_spec_args, {"beta_true": 3e6, "horizon_days": 3e6},
     "horizon_days must end by 9999-12-31T23:59:59Z"),
    (bad_spec_args, {"categories": [["Politics"]]}, "categories must be a list"),
    (bad_spec_args, {"topic_id": "t\ud800"}, "holds a lone surrogate"),
    (bad_categories_args, "fast,Politics,Health", "line 2: expected 2 fields, got 3"),
    (bad_categories_args, "fast", "line 2: expected 2 fields, got 1"),
    (bad_categories_args, ",Politics", "line 2: empty topic_id"),
    (surrogate_posts_args, "t\ud800", "no valid post records"),
    (bad_spec_args, {"n_posts": 10**20}, "n_posts must lie in [2, 1000000]"),
    (bad_spec_args, {"alpha_true": 0.01, "beta_true": 1e6}, "no mass of the logistic law"),
])
def test_bad_input_exits_two_and_writes_nothing(tmp_path, capsys, make_args,
                                               value, message):
    out = tmp_path / "out"
    args = make_args(tmp_path, value) + ["--out", str(out)]
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


class TestAnalyze:
    def test_full_run_outputs(self, tmp_path):
        corpus = simulate(tmp_path)
        out = tmp_path / "run"
        code = cli.main([
            "analyze", "--input", str(corpus / "posts.jsonl"),
            "--categories", str(corpus / "categories.csv"),
            "--out", str(out), "--plots"])
        assert code == 0
        with open(out / "fits.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["topic_id", "alpha", "beta", "se_alpha", "se_beta",
                           "rss", "n_points", "converged", "iterations"]
        assert len(rows) == 4  # three topics + header
        with open(out / "metrics.csv") as fh:
            header = fh.readline().strip()
        assert header == ("topic_id,speed_index,lh_score,lh_mode,"
                          "total_love,total_angry,n_posts")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_fitted"] == 3
        assert summary["skipped"] == {}
        correlations = json.loads((out / "correlations.json").read_text())
        assert correlations["all"]["n"] == 3
        cats_csv = (out / "category_summary.csv").read_text().splitlines()
        assert cats_csv[0] == ("category,alpha_mean,alpha_sd,beta_mean,"
                               "beta_sd,si_mean,si_sd")
        for svg in (out / "plots").glob("*.svg"):
            ET.fromstring(svg.read_text())  # well-formed XML

    def test_single_post_topic_skipped(self, tmp_path):
        corpus = simulate(tmp_path)
        posts = corpus / "posts.jsonl"
        posts.write_text(posts.read_text() + LONELY_POST + "\n")
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(posts),
                         "--out", str(out)])
        assert code == 1  # partial: one topic skipped
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skipped"] == {"lonely": "InsufficientData"}

    def test_matrices_shape_for_three_categories(self, tmp_path):
        corpus = simulate(tmp_path)
        # three topics with two categories each: every category holds 2 topics
        out = tmp_path / "run"
        code = cli.main([
            "analyze", "--input", str(corpus / "posts.jsonl"),
            "--categories", str(corpus / "categories.csv"),
            "--out", str(out)])
        assert code == 0
        for name in ("alpha", "beta", "speed_index", "love_hate"):
            with open(out / "matrices" / f"{name}.csv") as fh:
                rows = list(csv.reader(fh))
            # canonical label order, not alphabetical
            assert rows[0][1:] == ["Politics", "Social", "Health"]
            assert rows[1][1] == ""  # empty diagonal
            assert rows[1][2] == rows[2][1]  # symmetric
            summary = json.loads(
                (out / "matrices" / f"{name}_summary.json").read_text())
            assert set(summary) == {"metric", "n_pairs", "threshold",
                                    "frac_significant"}
            assert summary["n_pairs"] == 3
            assert summary["threshold"] == pytest.approx(0.05 / 3)

    def test_no_valid_posts_exits_two(self, tmp_path):
        bad = tmp_path / "posts.jsonl"
        bad.write_text("not json\n")
        assert cli.main(["analyze", "--input", str(bad),
                         "--out", str(tmp_path / "o")]) == 2

    def test_bad_alpha_level_exits_two(self, tmp_path, capsys):
        # the alpha level is checked first, then the bin width, both before
        # the input is opened or the output directory made
        out = tmp_path / "o"
        assert cli.main(["analyze", "--input", str(tmp_path / "missing.jsonl"),
                         "--out", str(out), "--alpha-level", "1.5",
                         "--bin-width-days", "nan"]) == 2
        assert capsys.readouterr().err == "error: alpha-level must lie in (0, 1)\n"
        assert not out.exists()

    def test_fifty_topic_corpus(self, tmp_path):
        from engdyn.synth import default_corpus_specs, generate_corpus
        specs, cats = default_corpus_specs(50, seed=4, n_posts=(150, 400))
        posts = tmp_path / "posts.jsonl"
        categories = tmp_path / "categories.csv"
        generate_corpus(specs, cats, posts, categories)
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(posts),
                         "--categories", str(categories),
                         "--out", str(out)]) == 0
        with open(out / "fits.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert sum(1 for r in rows if r["converged"] == "true") >= 45
        correlations = json.loads((out / "correlations.json").read_text())
        assert correlations["all"]["n"] == 50
        assert any("rho" in v for v in correlations["by_category"].values())

    def test_lh_mean_mode_flag(self, tmp_path):
        corpus = simulate(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--out", str(out), "--lh-mode", "mean"]) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["lh_mode"] == "mean_of_posts" for row in rows)

    def test_bin_width_flag_coarsens_series(self, tmp_path):
        corpus = simulate(tmp_path)
        narrow = tmp_path / "daily"
        wide = tmp_path / "weekly"
        for out, width in ((narrow, "1"), (wide, "7")):
            assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                             "--out", str(out),
                             "--bin-width-days", width]) == 0
        def points(path):
            with open(path / "fits.csv") as fh:
                return {r["topic_id"]: int(r["n_points"])
                        for r in csv.DictReader(fh)}
        daily, weekly = points(narrow), points(wide)
        assert all(weekly[t] < daily[t] for t in daily)

    def test_zero_reaction_corpus_degrades_gracefully(self, tmp_path):
        from engdyn.synth import SynthSpec, generate_corpus
        specs = [SynthSpec(f"t{i}", 0.01, 300.0, 900.0, 120,
                           reaction_rate=0.0, noise_seed=i) for i in range(3)]
        posts = tmp_path / "posts.jsonl"
        generate_corpus(specs, {}, posts, tmp_path / "cats.csv")
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(posts),
                         "--out", str(out)]) == 0
        correlations = json.loads((out / "correlations.json").read_text())
        assert "error" in correlations["all"]  # no defined sentiment scores
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["lh_score"] == "" for row in rows)

    def test_rejected_lines_counted(self, tmp_path):
        corpus = simulate(tmp_path)
        posts = corpus / "posts.jsonl"
        posts.write_text(posts.read_text() + "garbage\n")
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(posts),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_rejected_lines"] == 1

    def test_too_deep_line_rejected(self, tmp_path):
        corpus = simulate(tmp_path)
        posts = corpus / "posts.jsonl"
        posts.write_text(posts.read_text() + "[" * 200_000 + "\n")
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(posts),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_rejected_lines"] == 1
        assert summary["n_fitted"] == 3

    @pytest.mark.parametrize("name", ["posts.jsonl", "categories.csv"])
    def test_undecodable_input_exits_two(self, tmp_path, capsys, name):
        corpus = simulate(tmp_path)
        path = corpus / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--categories", str(corpus / "categories.csv"),
                         "--out", str(out)]) == 2
        assert "not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_bin_width_exits_two(self, tmp_path, capsys, width):
        corpus = simulate(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--out", str(out), "--bin-width-days", width]) == 2
        assert "bin-width-days" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_bin_width_skips_topics_instead_of_allocating(self, tmp_path,
                                                              capsys):
        corpus = simulate(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--out", str(out), "--bin-width-days", "1e-9"]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skipped"] == {tid: "TooManyBins"
                                      for tid in ("fast", "mid", "slow")}
        assert "skipped topic fast: TooManyBins" in capsys.readouterr().err

    def test_far_future_stamp_skips_its_topic(self, tmp_path):
        corpus = simulate(tmp_path)
        posts = corpus / "posts.jsonl"
        stray = json.loads(posts.read_text().splitlines()[0])
        stray.update(post_id="stray", timestamp="9999-12-31T00:00:00Z")
        posts.write_text(posts.read_text() + json.dumps(stray) + "\n")
        out = tmp_path / "run"
        assert cli.main(["analyze", "--input", str(posts),
                         "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skipped"] == {stray["topic_id"]: "TooManyBins"}
        assert summary["n_fitted"] == 2

    def test_byte_order_marks_accepted(self, tmp_path):
        corpus = simulate(tmp_path)
        plain = tmp_path / "plain"
        assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--categories", str(corpus / "categories.csv"),
                         "--out", str(plain)]) == 0
        for name in ("posts.jsonl", "categories.csv"):
            path = corpus / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = tmp_path / "marked"
        assert cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--categories", str(corpus / "categories.csv"),
                         "--out", str(marked)]) == 0
        summary = json.loads((marked / "summary.json").read_text())
        assert summary["n_rejected_lines"] == 0
        assert read_tree(marked) == read_tree(plain)

    def test_repeated_posts_counted_once(self, tmp_path):
        corpus = simulate(tmp_path)
        posts = corpus / "posts.jsonl"
        once = tmp_path / "once"
        assert cli.main(["analyze", "--input", str(posts), "--out", str(once)]) == 0
        text = posts.read_text()
        posts.write_text(text + text)
        twice = tmp_path / "twice"
        assert cli.main(["analyze", "--input", str(posts), "--out", str(twice)]) == 0
        summary = json.loads((twice / "summary.json").read_text())
        assert summary["n_rejected_lines"] == len(text.splitlines())
        for name in ("fits.csv", "metrics.csv"):
            assert (twice / name).read_bytes() == (once / name).read_bytes()

    def plot_titles(self, tmp_path, topic_ids):
        """Exit code of ``analyze --plots`` over SPEC_OBJ's topics renamed to
        ``topic_ids``, and each plot's file name mapped to its title."""
        topics = [dict(topic, topic_id=tid)
                  for topic, tid in zip(SPEC_OBJ["topics"], topic_ids)]
        spec = write_spec(tmp_path, {"seed": 11, "topics": topics})
        corpus = tmp_path / "corpus"
        assert cli.main(["simulate", "--input", str(spec), "--out", str(corpus)]) == 0
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--out", str(out), "--plots"])
        return code, {svg.name: ET.fromstring(svg.read_text(encoding="utf-8")).find(
                          "{http://www.w3.org/2000/svg}text").text
                      for svg in (out / "plots").glob("*.svg")}

    def test_topic_named_like_the_scatter_keeps_its_plot(self, tmp_path):
        code, titles = self.plot_titles(tmp_path, ["si_vs_lh", "slow", "mid"])
        assert code == 0
        assert titles == {"si_vs_lh-1.svg": "si_vs_lh", "slow.svg": "slow",
                          "mid.svg": "mid",
                          "si_vs_lh.svg": "speed index vs love-hate"}

    def test_plot_titles_escaped_for_any_id(self, tmp_path):
        # markup is escaped; a control character, which XML 1.0 cannot hold
        # even as a reference, becomes U+FFFD in the title
        code, titles = self.plot_titles(tmp_path, ["a<b & c", "]]>", "ctl\u0001id"])
        assert code == 0
        assert titles == {"a_b___c.svg": "a<b & c", "___.svg": "]]>",
                          "ctl_id.svg": "ctl\ufffdid",
                          "si_vs_lh.svg": "speed index vs love-hate"}

    def test_long_topic_ids_get_capped_distinct_plots(self, tmp_path):
        long_x, shared = "x" * 300, "y" * 200
        code, titles = self.plot_titles(
            tmp_path, [long_x, shared + "a", shared + "b"])
        assert code == 0
        assert (tmp_path / "run" / "summary.json").is_file()
        assert titles == {"x" * 200 + ".svg": long_x,
                          shared + ".svg": shared + "a",
                          shared + "-1.svg": shared + "b",
                          "si_vs_lh.svg": "speed index vs love-hate"}

    def test_many_ids_that_sanitize_alike_keep_their_plot_names(self, tmp_path):
        # 3,000 two-character CJK ids all sanitize to "__"; ids that already
        # read as a suffixed name, or as the scatter's, take names the
        # suffixes of "__" reach later
        ids = [chr(0x4E00 + i // 60) + chr(0x4E00 + i % 60) for i in range(3000)]
        ids[10:10] = ["__-12", "si_vs_lh", "__-1"]
        ids.insert(2000, "__-2500")
        used, want = {cli.SCATTER_NAME}, {}
        for tid in ids:  # the loop that tried every suffix from 1 on each collision
            name = base = cli._safe_name(tid)
            suffix = 1
            while name in used:
                name = f"{base}-{suffix}"
                suffix += 1
            used.add(name)
            want[name] = tid
        assert [want[name] for name in ("__-12", "si_vs_lh-1", "__-1-1")] == ids[10:13]
        # each topic's plot holds its id; no love-hate score: no scatter
        cli._write_plots(tmp_path, ids, {"plot": ids, "speed_index": [0.5] * len(ids),
                                         "lh_score": [None] * len(ids)})
        assert {svg.stem: svg.read_text(encoding="utf-8")
                for svg in tmp_path.glob("*.svg")} == want

    def run_with_categories(self, tmp_path, categories):
        """Exit code and output directory of analyze on one simulated topic
        per entry of ``categories``, each holding that entry's labels."""
        topics = [dict(SPEC_OBJ["topics"][i % 3], topic_id=f"t{i}", categories=cats)
                  for i, cats in enumerate(categories)]
        spec = write_spec(tmp_path, {"seed": 5, "topics": topics})
        corpus = tmp_path / "corpus"
        assert cli.main(["simulate", "--input", str(spec), "--out", str(corpus)]) == 0
        out = tmp_path / "run"
        code = cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--categories", str(corpus / "categories.csv"),
                         "--out", str(out)])
        return code, out

    def test_excluded_category_is_a_notice_under_error_filters(self, tmp_path, capsys):
        # four topics in two categories of two, and one lone Health topic;
        # warnings raised as errors must not stop the run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = self.run_with_categories(
                tmp_path, [["Politics"], ["Politics"], ["Social"], ["Social"],
                           ["Health"]])
        assert code == 0
        matrices = [f"matrices/{name}{end}" for name in cli.MATRIX_METRICS
                    for end in (".csv", "_summary.json")]
        assert sorted(read_tree(out)) == sorted(
            ["category_summary.csv", "correlations.json", "fits.csv", "metrics.csv",
             "summary.json", "matrices/significance_summary.csv"] + matrices)
        tests = json.loads((out / "summary.json").read_text())["tests"]
        err = capsys.readouterr().err
        for name in cli.MATRIX_METRICS:
            assert tests[name]["excluded_categories"] == ["Health"]
            assert tests[name]["n_pairs"] == 1
            assert (f"warning: category 'Health' has 1 topic(s); excluded from "
                    f"pairwise {name} tests") in err.splitlines()
        assert "UserWarning" not in err

    def test_too_few_kept_categories_give_the_error_entry(self, tmp_path, capsys):
        code, out = self.run_with_categories(
            tmp_path, [["Politics"], ["Politics"], ["Health"]])
        assert code == 0
        tests = json.loads((out / "summary.json").read_text())["tests"]
        assert tests == {name: {"error": "need at least 2 categories with 2+ "
                                         "topics each"}
                         for name in cli.MATRIX_METRICS}
        assert sorted(read_tree(out / "matrices")) == ["significance_summary.csv"]
        # the notices come before the error entry, so they are still printed
        assert capsys.readouterr().err.splitlines() == [
            f"warning: category 'Health' has 1 topic(s); excluded from pairwise "
            f"{name} tests" for name in cli.MATRIX_METRICS]

    def test_multi_category_topics_count_everywhere(self, tmp_path):
        code, out = self.run_with_categories(tmp_path, [["Politics", "Health"]] * 4)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [(row["category"], row["n_topics"])
                for row in summary["per_category"]] == [("Politics", 4), ("Health", 4)]
        correlations = json.loads((out / "correlations.json").read_text())
        assert {cat: entry["n"] for cat, entry
                in correlations["by_category"].items()} == {"Politics": 4, "Health": 4}
        # both categories hold identical samples, so the test is a wash
        with open(out / "matrices" / "alpha.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["", "Politics", "Health"],
                                            ["Politics", "", "1.0"],
                                            ["Health", "1.0", ""]]


ARTICLES = []
for i in range(6):
    ARTICLES.append({"article_id": f"econ{i}",
                     "text": "market trade economy inflation bank growth "
                             "market trade economy"})
for i in range(6):
    ARTICLES.append({"article_id": f"sport{i}",
                     "text": "match goal team league player coach "
                             "match goal team"})
ARTICLES[0]["text"] += " team"  # one weak cross-link


class TestExtractTopics:
    def write_articles(self, tmp_path, rows=None):
        path = tmp_path / "articles.jsonl"
        rows = ARTICLES if rows is None else rows
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_planted_clusters_recovered(self, tmp_path):
        arts = self.write_articles(tmp_path)
        out = tmp_path / "topics"
        code = cli.main(["extract-topics", "--input", str(arts),
                         "--out", str(out), "--seed", "1"])
        assert code == 0
        with open(out / "partition.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        communities = {}
        for term, cid in rows:
            communities.setdefault(cid, set()).add(term)
        assert len(communities) >= 2
        # the two planted vocabularies end up in different communities
        by_term = {term: cid for term, cid in rows}
        assert by_term["economy"] != by_term["goal"]
        assert by_term["market"] == by_term["inflation"]
        assert by_term["team"] == by_term["league"]

    def test_same_seed_byte_identical(self, tmp_path):
        arts = self.write_articles(tmp_path)
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert cli.main(["extract-topics", "--input", str(arts),
                             "--out", str(out), "--seed", "9"]) == 0
            outs.append(read_tree(out))
        assert outs[0] == outs[1]

    def test_empty_corpus_exits_two(self, tmp_path, capsys):
        path = tmp_path / "articles.jsonl"
        path.write_text("")
        code = cli.main(["extract-topics", "--input", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "empty corpus" in capsys.readouterr().err

    def test_stopword_only_corpus_exits_two(self, tmp_path):
        rows = [{"article_id": "a", "text": "the and of 123"}]
        path = self.write_articles(tmp_path, rows)
        assert cli.main(["extract-topics", "--input", str(path),
                         "--out", str(tmp_path / "o")]) == 2

    def test_pretokenized_articles(self, tmp_path):
        rows = [{"article_id": "a", "terms": ["Alpha", "beta", "alpha"]},
                {"article_id": "b", "terms": ["beta", "gamma"]}]
        path = self.write_articles(tmp_path, rows)
        out = tmp_path / "o"
        assert cli.main(["extract-topics", "--input", str(path),
                         "--out", str(out)]) == 0
        edges = (out / "edges.csv").read_text()
        assert "alpha,beta,1" in edges
        assert "beta,gamma,1" in edges

    def test_terms_differing_by_a_trailing_nul_stay_apart(self, tmp_path):
        # a fixed-width numpy string would drop the NUL and merge the two
        rows = [{"article_id": "a", "terms": ["vote", "vote\u0000", "x"]},
                {"article_id": "b", "terms": ["vote\u0000", "x"]}]
        path = self.write_articles(tmp_path, rows)
        out = tmp_path / "o"
        assert cli.main(["extract-topics", "--input", str(path),
                         "--out", str(out)]) == 0
        with open(out / "partition.csv", newline="", encoding="utf-8") as fh:
            terms = [term for term, _ in list(csv.reader(fh))[1:]]
        assert terms == ["vote", "vote\x00", "x"]
        edges = (out / "edges.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert edges == ["vote,vote\x00,1", "vote,x,1", "vote\x00,x,2"]

    def test_missing_input_exits_two(self, tmp_path):
        assert cli.main(["extract-topics", "--input", str(tmp_path / "x"),
                         "--out", str(tmp_path / "o")]) == 2

    def run_lines(self, tmp_path, name, extra_lines):
        """Exit code and output tree of a run over ARTICLES plus raw lines."""
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in ARTICLES)
                        + "".join(line + "\n" for line in extra_lines))
        out = tmp_path / name
        code = cli.main(["extract-topics", "--input", str(path),
                         "--out", str(out), "--seed", "1"])
        return code, read_tree(out)

    def test_malformed_lines_counted_without_traceback(self, tmp_path, capsys):
        clean = self.run_lines(tmp_path, "clean", [])
        assert clean[0] == 0
        capsys.readouterr()
        bad = ['{"article_id": "b", "text": 5}',
               '{"article_id": "b", "text": null}',
               '{"article_id": "b", "text": ["market"]}',
               '{"article_id": "b", "terms": [null]}',
               '{"article_id": "b", "terms": ["market", 3]}',
               '{"article_id": "b", "terms": "market"}',
               '{"article_id": "b", "terms": {"market": 1}}',
               '{"text": "market goal"}',
               '{"article_id": 7, "text": "market goal"}',
               '{"article_id": null, "terms": ["market", "goal"]}',
               '["article_id", "text"]',
               "not json",
               '{"article_id": "b", "text": ' + "1" * 5000 + "}",
               "[" * 100_000]
        assert self.run_lines(tmp_path, "dirty", bad) == clean
        assert f"warning: {len(bad)} malformed article line(s) skipped" \
            in capsys.readouterr().err

    def test_repeated_articles_counted_once(self, tmp_path, capsys):
        clean = self.run_lines(tmp_path, "clean", [])
        capsys.readouterr()
        # the first copy of an id is kept, whatever the later ones hold
        repeats = [json.dumps(ARTICLES[0]), json.dumps(ARTICLES[0]),
                   '{"article_id": "sport1", "terms": ["market", "goal"]}']
        assert self.run_lines(tmp_path, "repeats", repeats) == clean
        err = capsys.readouterr().err
        assert "warning: 3 repeated article(s) skipped" in err.splitlines()
        assert "malformed" not in err

    def test_articles_without_usable_terms_counted(self, tmp_path, capsys):
        clean = self.run_lines(tmp_path, "clean", [])
        assert "usable terms" not in capsys.readouterr().err
        empty = ['{"article_id": "e1", "text": "the and of 123"}',
                 '{"article_id": "e2", "terms": ["", "The"]}',
                 '{"article_id": "e3", "text": "\u00e9t\u00e9 42"}']
        assert self.run_lines(tmp_path, "empty", empty) == clean
        err = capsys.readouterr().err
        assert "warning: 3 article(s) without usable terms skipped" in err
        assert "malformed" not in err

    def test_line_separators_inside_strings_kept(self, tmp_path, capsys):
        rows = [{"article_id": "a", "text": "market\u2028trade\x85economy"},
                {"article_id": "b", "text": "market\u2029trade\x1eeconomy"}]
        path = tmp_path / "raw.jsonl"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\r\n"
                                for r in rows), encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["extract-topics", "--input", str(path),
                         "--out", str(out)]) == 0
        assert "warning" not in capsys.readouterr().err
        assert (out / "edges.csv").read_text().splitlines()[1:] == [
            "economy,market,2", "economy,trade,2", "market,trade,2"]

    def test_lone_surrogate_term_is_a_malformed_line(self, tmp_path, capsys):
        clean = self.run_lines(tmp_path, "clean", [])
        capsys.readouterr()
        bad = ['{"article_id": "a1", "terms": ["vote", "\\ud800x"]}']
        assert self.run_lines(tmp_path, "dirty", bad) == clean
        assert "warning: 1 malformed article line(s) skipped" \
            in capsys.readouterr().err

    def test_out_that_cannot_be_created_exits_two(self, tmp_path, capsys):
        path = self.write_articles(tmp_path)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        assert cli.main(["extract-topics", "--input", str(path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "a file, not a directory\n"

    def test_undecodable_input_exits_two(self, tmp_path, capsys):
        path = self.write_articles(tmp_path)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert cli.main(["extract-topics", "--input", str(path),
                         "--out", str(tmp_path / "o")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_chunks_match_a_line_at_a_time(self, tmp_path, capsys, monkeypatch):
        # chunks of several text articles and one line of every kind: text
        # (with a word past the packed keys' 10 letters), pre-tokenized,
        # malformed, stopword-only and blank; the output and both warnings
        # equal those of one-article chunks
        kinds = [
            lambda i: json.dumps({"article_id": f"t{i}", "text": (
                "market trade economy bank " if i % 2 else
                "match goal team league ") + "internationally " * (i % 3)}),
            lambda i: json.dumps({"article_id": f"p{i}",
                                  "terms": ["Market", "inflation", "coach"]}),
            lambda i: '{"article_id": "m", "text": 5}',
            lambda i: json.dumps({"article_id": f"s{i}", "text": "the and of 42"}),
            lambda i: "",
        ]
        lines = [kinds[i % len(kinds)](i) for i in range(65)]
        path = tmp_path / "articles.jsonl"
        path.write_text("\n".join(lines) + "\n")
        kernel = topicgraph.extract_terms_chunk
        calls = []

        def counted(texts, *rest):
            calls.append(len(texts))
            return kernel(texts, *rest)

        monkeypatch.setattr(topicgraph, "extract_terms_chunk", counted)
        runs = []
        # every text is non-empty, so a 1-character budget closes each chunk
        # at its first article
        for name, budget in (("chunked", 256), ("per_line", 1)):
            monkeypatch.setattr(topicgraph, "CHUNK_CHARS", budget)
            calls.clear()
            out = tmp_path / name
            code = cli.main(["extract-topics", "--input", str(path),
                             "--out", str(out), "--seed", "1"])
            runs.append((code, read_tree(out), capsys.readouterr().err))
            assert len(calls) > 1 and sum(calls) == 26
        assert calls == [1] * 26  # of the last run
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        malformed = sum(1 for i in range(len(lines)) if i % len(kinds) == 2)
        stopword_only = sum(1 for i in range(len(lines)) if i % len(kinds) == 3)
        assert f"warning: {malformed} malformed article line(s) skipped" in runs[0][2]
        assert f"warning: {stopword_only} article(s) without usable terms " \
            "skipped" in runs[0][2]

    def test_article_order_changes_no_output(self, tmp_path, capsys, monkeypatch):
        # more than two chunks of text articles, so that the chunk bounds
        # move, with pre-tokenized, term-less and malformed lines among them
        monkeypatch.setattr(topicgraph, "CHUNK_CHARS", 2048)
        rnd = random.Random(4)
        vocabularies = ["market trade economy inflation bank growth".split(),
                        "match goal team league player coach".split(),
                        "vote ballot party election senate".split()]
        lines = [json.dumps({"article_id": f"t{i}", "text": " ".join(
                     rnd.choices(vocabularies[i % 3], k=12)
                     + rnd.choices(vocabularies[(i + 1) % 3], k=2))})
                 for i in range(71)]
        lines[10:10] = [json.dumps({"article_id": "p1", "terms": ["Vote", "market"]}),
                        json.dumps({"article_id": "p2", "terms": ["goal", "team"]}),
                        json.dumps({"article_id": "e", "text": "the and of 42"}),
                        '{"article_id": "m", "text": 5}']
        lines.append(json.dumps({"article_id": "p3", "terms": ["coach", "senate"]}))
        shuffled = rnd.sample(lines, len(lines))
        runs = []
        for name, order in (("first", lines), ("second", shuffled)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(line + "\n" for line in order))
            out = tmp_path / name
            code = cli.main(["extract-topics", "--input", str(path),
                             "--out", str(out), "--seed", "3"])
            runs.append((code, read_tree(out), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        err = runs[0][2].err
        assert "warning: 1 malformed article line(s) skipped" in err
        assert "warning: 1 article(s) without usable terms skipped" in err

    def test_chunks_close_at_the_budget(self, monkeypatch):
        # texts of 0-600 characters and one past the budget: every chunk but
        # the last reaches the budget, and only with its last article
        monkeypatch.setattr(topicgraph, "CHUNK_CHARS", 500)
        rng = random.Random(8)
        words = "vote ballot party goal team coach market trade".split()
        texts = [" ".join(rng.choices(words, k=rng.randrange(100))) for _ in range(60)]
        texts[30] = "internationally " * 40
        kernel = topicgraph.extract_terms_chunk
        calls = []

        def counted(chunk_texts, *rest):
            calls.append(list(chunk_texts))
            return kernel(chunk_texts, *rest)

        monkeypatch.setattr(topicgraph, "extract_terms_chunk", counted)
        lines = [json.dumps({"article_id": f"t{i}", "text": text}) for i, text in enumerate(texts)]
        lines.insert(5, json.dumps({"article_id": "p", "terms": ["vote"]}))
        cli._read_articles(frozenset(), lines)
        assert [text for chunk in calls for text in chunk] == texts
        assert len(calls) > 3
        for chunk in calls[:-1]:
            assert sum(map(len, chunk[:-1])) < 500 <= sum(map(len, chunk))
        assert sum(map(len, calls[-1][:-1])) < 500
        assert any(chunk[-1] == texts[30] for chunk in calls)

    def test_long_articles_keep_the_reader_peak_low(self):
        # 64 articles of about 60,000 letters: the kernel takes a few of them
        # a call, so its temporaries stay those of the budget's text
        rng = random.Random(12)
        words = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 9)))
                 for _ in range(5000)]
        lines = [json.dumps({"article_id": f"a{i}", "text": " ".join(rng.choices(words, k=10_000))})
                 for i in range(64)]
        assert 55_000 < len(lines[0]) < 75_000
        tracemalloc.start()
        try:
            sizes = cli._read_articles(frozenset(), lines)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [10] * 64
        assert peak <= 12 * 2**20

    def test_reader_holds_few_bytes_a_term_row(self, tmp_path, monkeypatch):
        # 5,000 articles of the benchmark's extract-topics workload (seed 3):
        # each term is held once, in the vocabulary, and a term row is an
        # int32 id, not a str of its own
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        workloads.write_articles(tmp_path, 3, workloads.ArticleParams(n_articles=5000))
        stopwords = topicgraph.load_stopwords(tmp_path / "stopwords.txt")
        with open(tmp_path / "articles.jsonl", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                articles = cli._read_articles(stopwords, fh)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        vocabulary, term_ids, sizes, *_, kept = articles
        assert len(kept) == 5000 and len(term_ids) == sum(sizes) > 45_000
        assert held / len(term_ids) <= 24

    def test_byte_order_mark_accepted(self, tmp_path):
        plain = self.run_lines(tmp_path, "plain", [])
        path = tmp_path / "plain.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / "marked"
        assert cli.main(["extract-topics", "--input", str(path),
                         "--out", str(out), "--seed", "1"]) == 0
        assert read_tree(out) == plain[1]


class TestSvg:
    def test_fit_overlay_well_formed(self):
        svg = fit_overlay_svg([0.0, 1.0, 2.0, 3.0], [0.1, 0.3, 0.8, 1.0],
                              alpha=1.0, beta=1.5, title="demo")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_scatter_well_formed(self):
        svg = scatter_svg([0.1, 0.5, 0.9], [-0.5, 0.0, 0.7],
                          "x", "y", "demo")
        ET.fromstring(svg)


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy is a test dependency only; importing the CLI must load neither
    # scipy.special (about 0.3 s) nor scipy.stats (more still)
    src = str(Path(engdyn.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c",
         "import engdyn.cli, sys; print('scipy.special' in sys.modules, "
         "'scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True, timeout=120)
    assert child.stdout.strip() == "False False"


NO_SCIPY_CHILD = """
import json, sys
from pathlib import Path
from engdyn import cli, stats

calls = {"t_two_sided_p": 0, "normal_cdf": 0}
for name in calls:
    def counted(*args, _f=getattr(stats, name), _name=name):
        calls[_name] += 1
        return _f(*args)
    setattr(stats, name, counted)

tmp = Path(sys.argv[1])
spec = {"seed": 4, "topics": [
    {"topic_id": f"t{i:02d}", "alpha_true": 0.004 + 0.002 * (i % 5),
     "beta_true": 300.0 + 25.0 * i, "horizon_days": 1400.0, "n_posts": 80,
     "lh_target": 0.6 - 0.06 * i, "categories": [("Politics", "Health")[i % 2]]}
    for i in range(20)]}
(tmp / "spec.json").write_text(json.dumps(spec))
articles = [{"article_id": f"a{i}", "text": " ".join(
    [("river", "ballot")[i % 2] + c for c in "abcdef"] * 3)} for i in range(30)]
(tmp / "articles.jsonl").write_text("\\n".join(map(json.dumps, articles)) + "\\n")
codes = [
    cli.main(["simulate", "--input", str(tmp / "spec.json"), "--out", str(tmp / "c")]),
    cli.main(["analyze", "--input", str(tmp / "c" / "posts.jsonl"),
              "--categories", str(tmp / "c" / "categories.csv"), "--plots",
              "--out", str(tmp / "a")]),
    cli.main(["extract-topics", "--input", str(tmp / "articles.jsonl"),
              "--out", str(tmp / "x")]),
]
print(json.dumps({"codes": codes, "calls": calls,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_command_loads_scipy(tmp_path):
    # the p-values are computed with the stdlib; scipy is a test dependency
    # only. The child counts calls to both p-value functions, so the test
    # fails if analyze stops reaching the Spearman or the normal
    # Mann-Whitney path (10 topics a category) instead of passing vacuously
    src = str(Path(engdyn.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True, timeout=300)
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert report["calls"]["t_two_sided_p"] > 0
    assert report["calls"]["normal_cdf"] > 0
    assert report["scipy"] == []


# ids and terms from text that CSV, JSON, XML and file names each treat
# specially: controls, quotes, commas, both line ends, markup, a line
# separator, a noncharacter and a character outside the BMP
AWKWARD_TEXT = st.text(st.sampled_from(
    list("ab .,;\"'<&>]\r\n\t\x00\x01\x1f\x7f\x85\u2028\ufffe\U0001f600")),
    min_size=1, max_size=6)


def check_outputs(out: Path) -> None:
    """Every .svg, .json and .csv under ``out`` reads back; each CSV row has
    its header's field count."""
    for path in out.rglob("*"):
        if path.suffix == ".svg":
            ET.parse(path)
        elif path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"))
        elif path.suffix == ".csv":
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows and all(len(row) == len(rows[0]) for row in rows), path


@settings(max_examples=25, deadline=None)
@given(topic_ids=st.lists(AWKWARD_TEXT, min_size=1, max_size=4, unique=True),
       terms=st.lists(st.lists(AWKWARD_TEXT, min_size=1, max_size=4),
                      min_size=1, max_size=4))
@example(topic_ids=["r\rn", "plain", "x"], terms=[["x\ry", "plain"]])
def test_every_output_reads_back_for_any_id(topic_ids, terms):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        topics = [{"topic_id": tid, "alpha_true": 0.01, "beta_true": 300.0,
                   "horizon_days": 900.0, "n_posts": 30, "lh_target": 0.2,
                   "categories": [("Politics", "Health")[i % 2]]}
                  for i, tid in enumerate(topic_ids)]
        spec = write_spec(tmp, {"seed": 1, "topics": topics})
        corpus = tmp / "corpus"
        code = cli.main(["simulate", "--input", str(spec), "--out", str(corpus)])
        assert code == 0
        check_outputs(corpus)

        out = tmp / "run"
        code = cli.main(["analyze", "--input", str(corpus / "posts.jsonl"),
                         "--categories", str(corpus / "categories.csv"),
                         "--out", str(out), "--plots"])
        assert code in (0, 1, 2)
        if code != 2:
            check_outputs(out)
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            fitted = sorted(set(topic_ids) - set(summary["skipped"]))
            with open(out / "fits.csv", encoding="utf-8", newline="") as fh:
                assert [row[0] for row in csv.reader(fh)][1:] == fitted
            with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
                scatter = any(row[2] for row in list(csv.reader(fh))[1:])
            assert len(list((out / "plots").iterdir())) == len(fitted) + scatter

        # article ids come from the topic ids, so some repeat
        articles = tmp / "articles.jsonl"
        articles.write_text("".join(
            json.dumps({"article_id": topic_ids[i % len(topic_ids)], "terms": row})
            + "\n" for i, row in enumerate(terms)), encoding="utf-8")
        out = tmp / "topics"
        code = cli.main(["extract-topics", "--input", str(articles),
                         "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            check_outputs(out)
