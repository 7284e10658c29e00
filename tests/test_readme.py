"""The README's Library example runs as written, and its file formats name the
CSV columns that analyze writes."""

import json
import re
from pathlib import Path

from engdyn import FitResult, TermGraph, build_series, cli, load_posts

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first fenced ``python`` block under the ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)


def test_library_block_runs(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"topic_id": "my_topic", "alpha_true": 0.01,
                                 "beta_true": 500.0, "horizon_days": 1400.0,
                                 "n_posts": 600, "lh_target": 0.3}]))
    assert cli.main(["simulate", "--input", str(spec), "--out", str(tmp_path),
                     "--seed", "1"]) == 0
    capsys.readouterr()
    times = build_series(load_posts(tmp_path / "posts.jsonl").records, "my_topic").times
    monkeypatch.chdir(tmp_path)
    names = {
        "text1": "The river vote split the town council.",
        "text2": "A second vote on the river bridge.",
        # the series' own span in series days: its first bin's start to its
        # last bin's end
        "start": float(times[0]),
        "end": float(times[-1]) + 1.0,
    }
    exec(compile(library_block(), str(README), "exec"), names)
    assert isinstance(names["result"], FitResult)
    assert isinstance(names["windowed"], FitResult)
    assert names["lh"] is not None
    assert min(names["sizes"].tolist()) > 0 and {"river", "vote"} <= set(names["terms"])
    assert isinstance(names["graph"], TermGraph)
    assert set(names["graph"].partition) == set(names["terms"])


def test_file_formats_name_the_csv_columns():
    text = README.read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(fits\.csv|metrics\.csv)` \| `([^`]*)` \|$", text, re.M))
    assert rows == {"fits.csv": ",".join(("topic_id",) + cli.FIT_COLUMNS),
                    "metrics.csv": ",".join(("topic_id",) + cli.METRIC_COLUMNS)}
