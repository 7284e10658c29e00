"""Golden-output gate: the output trees of all three commands, hashed.

Each case runs one command on a small seeded input and compares the sha256
digest of its output tree (and its exit code) with the values stored in
``golden_digests.json``. A change that claims to keep behaviour must leave
every digest unchanged; the determinism test only compares runs with each
other, so a consistent change of output would slip through it.

Digests depend on the floating-point results of the interpreter and of
numpy, so they are pinned to the versions recorded beside them; under other
versions the test skips and names both version sets. No command loads scipy
(``test_cli.py::test_no_command_loads_scipy``), so its version is not pinned.

Refresh the stored digests, only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from engdyn import cli
from engdyn.model import CATEGORIES

DIGESTS_PATH = Path(__file__).with_name("golden_digests.json")

SPEC_OBJ = {"seed": 5, "topics": [
    {"topic_id": f"g{i:02d}", "alpha_true": 0.003 + 0.004 * (i % 4),
     "beta_true": 250.0 + 70.0 * i, "horizon_days": 1200.0 + 20.0 * i,
     "n_posts": 120 + 25 * i, "lh_target": 0.8 - 0.15 * i,
     "categories": [CATEGORIES[i % 10], CATEGORIES[(i + 3) % 10]]}
    for i in range(10)]}

# lines mixed into the analyze input: every kind of reject, a blank line and
# a topic with a single post (skipped, so the run exits 1)
EXTRA_LINES = [
    "{not json",
    "[1, 2]",
    "",
    json.dumps({"post_id": "x-missing", "topic_id": "g00",
                "timestamp": "2018-03-01T00:00:00Z", "likes": 1}),
    json.dumps({"post_id": "", "topic_id": "g01", "timestamp": "2018-03-01T00:00:00Z",
                "likes": 1, "shares": 0, "comments": 0, "love": 0, "angry": 0}),
    json.dumps({"post_id": "x-naive", "topic_id": "g02", "timestamp": "2018-03-01T00:00:00",
                "likes": 1, "shares": 0, "comments": 0, "love": 0, "angry": 0}),
    json.dumps({"post_id": "x-neg", "topic_id": "g03", "timestamp": "2018-03-01T00:00:00Z",
                "likes": -1, "shares": 0, "comments": 0, "love": 0, "angry": 0}),
    json.dumps({"post_id": "x-float", "topic_id": "g04", "timestamp": "2018-03-01T00:00:00Z",
                "likes": 1, "shares": 0.5, "comments": 0, "love": 0, "angry": 0}),
    json.dumps({"post_id": "x-lonely", "topic_id": "lonely",
                "timestamp": "2019-06-01T12:00:00Z",
                "likes": 4, "shares": 1, "comments": 0, "love": 2, "angry": 1}),
]


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and content digest, sorted."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).hexdigest().encode("ascii") + b"\n")
    return h.hexdigest()


def _analyze_input(corpus: Path, dest: Path) -> Path:
    """The simulated posts shuffled across topics, some stamps rewritten.

    Every seventh post carries the same instant with a +02:00 offset, every
    eleventh gains fractional seconds, and the extra lines are spread in.
    """
    lines = (corpus / "posts.jsonl").read_text(encoding="utf-8").splitlines()
    random.Random(11).shuffle(lines)
    plus2 = timezone(timedelta(hours=2))
    out = []
    for i, line in enumerate(lines):
        obj = json.loads(line)
        stamp = datetime.strptime(obj["timestamp"], "%Y-%m-%dT%H:%M:%SZ")
        if i % 7 == 0:
            obj["timestamp"] = stamp.replace(tzinfo=timezone.utc).astimezone(plus2).isoformat()
        elif i % 11 == 0:
            obj["timestamp"] = stamp.strftime("%Y-%m-%dT%H:%M:%S") + f".{i % 1000:03d}250Z"
        out.append(json.dumps(obj))
    for k, extra in enumerate(EXTRA_LINES):
        out.insert(37 * k + 3, extra)
    path = dest / "posts.jsonl"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def _articles(dest: Path) -> Path:
    """Seeded articles drawn from three planted vocabularies and a shared one."""
    rnd = random.Random(9)
    planted = [[stem + letter for letter in "abcdefgh"]
               for stem in ("river", "ballot", "vaccine")]
    shared = ["common" + a + b for a in "xyz" for b in "abcdefghij"]
    rows = []
    for i in range(150):
        words = rnd.choices(planted[i % 3], k=25) + rnd.choices(shared, k=15)
        rnd.shuffle(words)
        rows.append({"article_id": f"a{i:03d}", "text": " ".join(words)})
    rows.append({"article_id": "pre", "terms": ["rivera", "riverb", "ballotc"]})
    rows.append({"article_id": "empty", "text": "the and of"})
    path = dest / "articles.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def run_cases(tmp: Path) -> dict[str, dict]:
    """Run every golden case under ``tmp``; returns {case: {exit, sha256}}."""
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(SPEC_OBJ), encoding="utf-8")
    corpus = tmp / "corpus"
    results = {"simulate": {
        "exit": cli.main(["simulate", "--input", str(spec), "--out", str(corpus)]),
        "sha256": tree_digest(corpus)}}
    mixed = _analyze_input(corpus, tmp)
    cats = str(corpus / "categories.csv")
    commands = {
        "analyze_plots": ["analyze", "--input", str(mixed), "--categories", cats,
                          "--plots", "--seed", "3"],
        "analyze_mean_week": ["analyze", "--input", str(mixed), "--categories", cats,
                              "--lh-mode", "mean", "--bin-width-days", "7"],
        "extract_topics": ["extract-topics", "--input", str(_articles(tmp)),
                           "--seed", "2"],
    }
    for name, argv in commands.items():
        out = tmp / name
        results[name] = {"exit": cli.main(argv + ["--out", str(out)]),
                         "sha256": tree_digest(out)}
    return results


def environment() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_output_trees_match_stored_digests(tmp_path):
    stored = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    here = environment()
    if stored["environment"] != here:
        pytest.skip(f"digests recorded under {stored['environment']}, running "
                    f"under {here}")
    assert run_cases(tmp_path) == stored["cases"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        cases = run_cases(Path(tmp))
    DIGESTS_PATH.write_text(json.dumps({"environment": environment(), "cases": cases},
                                       indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(json.dumps(cases, indent=2, sort_keys=True))
