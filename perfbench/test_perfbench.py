"""Tests of the benchmark itself, on tiny workloads (about 10 s in all).

    python -m pytest perfbench/test_perfbench.py
"""

import csv
import json
import shutil
import sys
import time

import pytest

import run
import traced
from workloads import AnalyzeWorkload, ArticleParams, ExtractWorkload

sys.path.insert(0, str(run.SRC))

TINY_ANALYZE = AnalyzeWorkload(name="tiny-analyze", why="test", n_topics=12,
                               n_posts=(200, 400), alpha_floor=0.5, beta_floor=0.3)
TINY_EXTRACT = ExtractWorkload(
    name="tiny-extract", why="test", purity_floor=0.6,
    params=ArticleParams(n_articles=400, tokens=80, n_background=300,
                         n_topics=6, topic_words=30))


def _kill_at():
    return time.perf_counter() + 120.0


def _prepared(workload, tmp_path):
    setups = run.set_up(workload, 5, tmp_path, _kill_at())
    return workload.expect(tmp_path), setups


def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    work = tmp_path_factory.mktemp("analyze")
    expected, setups = _prepared(TINY_ANALYZE, work)
    result = run.run_command(TINY_ANALYZE, expected, 5, work, False, _kill_at())
    return work, expected, result, setups


def test_setup_is_timed_once_per_repetition(analyzed):
    _, expected, _, setups = analyzed
    assert len(setups) == run.SETUP_REPS
    assert all(r.wall_s > 0 and r.norm_wall_s > 0 for r in setups)
    assert len(expected["topics"]) == TINY_ANALYZE.n_topics


def test_untampered_analyze_output_passes(analyzed):
    _, _, result, _ = analyzed
    assert result.returncode == 0
    assert result.problems == []
    assert result.wall_s > 0 and result.cpu_s > 0 and result.rss_mb > 10
    # the host was probed while the child ran, and its speed scales the wall
    assert result.probe_s > 0
    assert result.norm_wall_s == pytest.approx(
        result.wall_s * run.PROBE_REF_S / result.probe_s)


@pytest.mark.parametrize("tamper", ["drop_fit_row", "change_total_love", "drop_plot",
                                    "skip_topic", "reject_line"])
def test_tampered_analyze_output_fails(analyzed, tmp_path, tamper):
    work, expected, result, _ = analyzed
    out = tmp_path / "out"
    shutil.copytree(work / "out", out)
    returncode = result.returncode
    if tamper == "drop_fit_row":
        _rewrite_csv(out / "fits.csv", lambda rows: rows[:-1])
    elif tamper in ("skip_topic", "reject_line"):
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if tamper == "skip_topic":
            # a topic moved from the fitted outputs into "skipped", with the
            # exit code a skip implies: consistent, but less work done
            dropped = {}
            for name in ("fits.csv", "metrics.csv"):
                def drop(rows):
                    dropped[name] = rows.pop(1)
                    return rows
                _rewrite_csv(out / name, drop)
            summary["skipped"] = {dropped["fits.csv"][0]: "DegenerateFit"}
            returncode = 1
        else:
            summary["n_rejected_lines"] = 1
        (out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    elif tamper == "change_total_love":
        def bump(rows):
            col = rows[0].index("total_love")
            rows[1][col] = str(int(rows[1][col]) + 1)
            return rows
        _rewrite_csv(out / "metrics.csv", bump)
    else:
        next((out / "plots").glob("topic*.svg")).unlink()
    assert TINY_ANALYZE.check(expected, out, returncode, result.stdout)


def test_analyze_exit_code_must_be_zero(analyzed):
    work, expected, result, _ = analyzed
    assert TINY_ANALYZE.check(expected, work / "out", 1, result.stdout)


@pytest.fixture(scope="module")
def extracted(tmp_path_factory):
    work = tmp_path_factory.mktemp("extract")
    expected, _ = _prepared(TINY_EXTRACT, work)
    result = run.run_command(TINY_EXTRACT, expected, 5, work, False, _kill_at())
    return work, expected, result


def test_untampered_extract_output_passes(extracted):
    _, expected, result = extracted
    assert result.returncode == 0
    assert result.problems == []
    assert len(expected["nodes"]) > 30
    assert expected["empty_articles"] == 0


@pytest.mark.parametrize("tamper", ["bump_edge_weight", "move_term", "wrong_q"])
def test_tampered_extract_output_fails(extracted, tmp_path, tamper):
    work, expected, result = extracted
    out = tmp_path / "out"
    shutil.copytree(work / "out", out)
    stdout = result.stdout
    if tamper == "bump_edge_weight":
        def bump(rows):
            rows[1][2] = str(int(rows[1][2]) + 1)
            return rows
        _rewrite_csv(out / "edges.csv", bump)
    elif tamper == "move_term":
        def move(rows):
            communities = sorted({row[1] for row in rows[1:]})
            rows[1][1] = next(c for c in communities if c != rows[1][1])
            return rows
        _rewrite_csv(out / "partition.csv", move)
    else:
        stdout = stdout.replace("(Q=0.", "(Q=0.1")
    assert TINY_EXTRACT.check(expected, out, result.returncode, stdout)


def test_article_generator_is_a_function_of_the_seed(tmp_path):
    params = TINY_EXTRACT.params
    from workloads import write_articles
    write_articles(tmp_path / "a", 7, params)
    write_articles(tmp_path / "b", 7, params)
    write_articles(tmp_path / "c", 8, params)
    same = [(tmp_path / d / "articles.jsonl").read_bytes() for d in "abc"]
    assert same[0] == same[1] != same[2]


def test_traced_self_times_account_for_traced_wall(tmp_path):
    expected, _ = _prepared(TINY_ANALYZE, tmp_path)
    plain = run.run_command(TINY_ANALYZE, expected, 5, tmp_path, False, _kill_at())
    result = run.run_command(TINY_ANALYZE, expected, 5, tmp_path, True, _kill_at())
    assert plain.problems == [] and result.problems == []
    layers = result.layers
    assert layers["curvefit.fit.calls"] == TINY_ANALYZE.n_topics
    assert layers["svgplot.fit_overlay_svg.calls"] == TINY_ANALYZE.n_topics
    assert layers["model.load_posts.posts"] == expected["items"]
    assert layers["model.build_series.bins"] == sum(
        t["bins"] for t in expected["topics"].values())
    assert 0 < layers["curvefit.fit.p50_ms"] <= layers["curvefit.fit.p95_ms"]
    assert layers["topicgraph.project.edges"] == 0  # no topicgraph layer runs here

    times = {k: v for k, v in layers.items() if k.endswith(("_s", ".s"))}
    assert all(v >= 0 for v in times.values())
    # the layers' self times leave out of the traced wall only interpreter
    # start and exit, argument parsing and writing the spans: about a bare
    # interpreter's lifetime
    bare = min(run.launch(["-c", "pass"], tmp_path / "bare", _kill_at()).wall_s
               for _ in range(3))
    spanned = sum(v for k, v in times.items() if k != "process.other_s")
    print(f"wall {result.wall_s:.3f} s, spanned {spanned:.3f} s, bare {bare:.3f} s")
    assert result.wall_s - bare - 0.2 < spanned < result.wall_s - bare

    # the metrics a run prints are exactly those BENCHMARK.json declares
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = run.per_layer([result, plain])
    assert [m["name"] for m in declared["per_layer"]] == list(printed)
    assert all(m["unit"] == printed[m["name"]][1] for m in declared["per_layer"])
    printed = run.end_to_end([plain], [plain], expected["items"])
    assert [m["name"] for m in declared["end_to_end"]] == list(printed)
    assert all(m["unit"] == printed[m["name"]][1] for m in declared["end_to_end"])


def test_layer_self_times_subtract_children():
    spans = [[1, 0, "process", 0.0, 10.0, None],
             [2, 1, "cli", 1.0, 9.0, None],
             [3, 2, "model.load_posts", 2.0, 5.0, {"posts": 4}],
             [4, 2, "curvefit.fit", 5.0, 6.0, {"iterations": 7}],
             [5, 2, "curvefit.fit", 6.0, 6.5, {"iterations": 3}]]
    own = traced.self_times(spans)
    assert own == {"process": 2.0, "cli": 3.5, "model.load_posts": 3.0,
                   "curvefit.fit": 1.5}
    layers = traced.layer_metrics(spans, wall_s=10.5)
    assert layers["cli.self_s"] == 3.5
    assert layers["model.load_posts.posts"] == 4
    assert layers["curvefit.fit.iterations"] == 10
    assert (layers["curvefit.fit.p50_ms"], layers["curvefit.fit.p95_ms"]) == (500.0, 1000.0)
    assert layers["topicgraph.louvain.s"] == 0.0
    assert layers["process.other_s"] == pytest.approx(2.5)


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "analyze-deep", "--seed", "1", "--seconds", "1"]) == 2
    out = capsys.readouterr().out
    assert not any(line.startswith("{") for line in out.splitlines())
