"""The record-at-a-time post code that the columnar library replaced, kept
as it was for tests to compare against and to build small tables by hand.

``generate_topic`` and ``post_to_json`` are the generator and the JSON-lines
writer that built one ``PostRecord`` and one ``datetime`` per post;
``table_of`` is the converter from records to a :class:`PostTable`.
``parse_posts`` is the parser that sent every line through the per-line
check, ``model._check_line``, and appended rows one method call at a time;
``model.parse_posts`` must accept the same rows and report the same
rejects on every stream. It reads each stamp with :func:`read_stamp`, a
regular expression and ``datetime`` arithmetic, and not with the columnar
reader ``model._stamps_us``.
"""

import json
import math
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np

from engdyn import model
from engdyn.model import COUNT_FIELDS, ParseResult, PostTable
from engdyn.synth import CORPUS_EPOCH, SynthSpec, _sample_times, rng_for

UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# RFC 3339 section 5.6 date-time
RFC3339 = re.compile(r"(\d{4})-(\d\d)-(\d\d)[Tt ](\d\d):(\d\d):(\d\d)(?:\.(\d+))?"
                     r"(?:[Zz]|([+-])(\d\d):(\d\d))", re.ASCII)


def read_stamp(text: str) -> datetime:
    """The UTC instant of the RFC 3339 date-time ``text``, its fraction
    truncated to microseconds, or ValueError with the parser's reason."""
    match = RFC3339.fullmatch(text)
    if match is None:
        raise ValueError("timestamp is not RFC 3339")
    *fields, fraction, sign, hours, minutes = match.groups()
    hours, minutes = int(hours or 0), int(minutes or 0)
    try:
        if hours > 23 or minutes > 59:
            raise ValueError
        local = datetime(*map(int, fields), int((fraction or "0").ljust(6, "0")[:6]),
                         tzinfo=timezone.utc)
        offset = timedelta(hours=hours, minutes=minutes)
        return local - offset if sign == "+" else local + offset
    except (ValueError, OverflowError):  # no such day or second, or not in years 1-9999
        raise ValueError("timestamp out of range") from None


def epoch_us(ts: datetime) -> int:
    """Microseconds since the Unix epoch of the aware ``ts``."""
    return (ts - UNIX_EPOCH) // timedelta(microseconds=1)


@dataclass(frozen=True)
class PostRecord:
    """One social post with its interaction and reaction counts."""

    post_id: str
    topic_id: str
    timestamp: datetime
    likes: int
    shares: int
    comments: int
    love: int
    angry: int

    @property
    def engagement(self) -> int:
        """Likes + shares + comments; the quantity the curves accumulate."""
        return self.likes + self.shares + self.comments


class TableBuilder:
    """Appends rows in input order; :meth:`table` groups them by topic."""

    def __init__(self):
        self.codes: dict[str, int] = {}  # topic id -> first-seen code
        self.row_codes = array("q")
        self.stamps = array("q")
        self.counts = array("q")

    def add(self, topic_id: str, stamp_us: int, counts) -> None:
        self.row_codes.append(self.codes.setdefault(topic_id, len(self.codes)))
        self.stamps.append(stamp_us)
        self.counts.extend(counts)

    def table(self) -> PostTable:
        names = sorted(self.codes)
        rank = np.empty(len(names), dtype=np.int64)
        rank[[self.codes[name] for name in names]] = np.arange(len(names))
        keys = rank[np.frombuffer(self.row_codes, dtype=np.int64)]
        order = np.argsort(keys, kind="stable")  # keeps input order in a topic
        bounds = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=len(names)), out=bounds[1:])
        counts = np.frombuffer(self.counts, dtype=np.int64).reshape(-1, len(COUNT_FIELDS))
        return PostTable(tuple(names), bounds,
                         np.frombuffer(self.stamps, dtype=np.int64)[order],
                         counts[order])


def parse_posts(stream) -> ParseResult:
    """The per-line post parser: every line through ``model._check_line``
    and :func:`read_stamp`."""
    builder = TableBuilder()
    first_line: dict[str, int] = {}  # accepted post_id -> its line
    rejects: list[tuple[int, str]] = []
    for lineno, line in enumerate(stream, start=1):
        found = model._check_line(line)
        if found is None:  # a blank line
            continue
        if isinstance(found, str):
            rejects.append((lineno, found))
            continue
        post_id, topic_id, stamp, *counts = found
        try:
            stamp = epoch_us(read_stamp(stamp))
        except ValueError as exc:
            rejects.append((lineno, str(exc)))
            continue
        if topic_id not in builder.codes:  # checked once per topic id
            try:
                topic_id.encode("utf-8")  # outputs name the topic in UTF-8
            except UnicodeEncodeError:
                rejects.append((lineno, "topic_id holds a lone surrogate"))
                continue
        seen = first_line.setdefault(post_id, lineno)
        if seen != lineno:
            rejects.append(
                (lineno, f"duplicate post_id {post_id!r} (first seen on line {seen})"))
            continue
        builder.add(topic_id, stamp, counts)
    return ParseResult(builder.table(), tuple(rejects))


def assert_same_parse(lines, chunk_lines, **patched):
    """Parse ``lines`` with ``model.parse_posts``, in chunks of
    ``chunk_lines`` and with the other ``model`` names in ``patched``
    replaced, and compare with :func:`parse_posts`."""
    want = parse_posts(lines)
    with mock.patch.multiple(model, _CHUNK_LINES=chunk_lines, **patched):
        got = model.parse_posts(lines)
    assert got.rejects == want.rejects
    assert got.records.topic_ids == want.records.topic_ids
    for name in ("bounds", "stamps_us", "counts"):
        mine, theirs = getattr(got.records, name), getattr(want.records, name)
        assert mine.dtype == theirs.dtype == np.int64
        assert mine.shape == theirs.shape
        assert mine.tolist() == theirs.tolist()
    return got


def table_of(records) -> PostTable:
    """A list of records as the library's post table."""
    builder = TableBuilder()
    for p in records:
        builder.add(p.topic_id, epoch_us(p.timestamp),
                    (p.likes, p.shares, p.comments, p.love, p.angry))
    return builder.table()


def generate_topic(spec: SynthSpec) -> list[PostRecord]:
    rng = rng_for(spec)
    times = _sample_times(spec, rng)
    n = spec.n_posts
    interactions = rng.poisson(spec.engagement_mean, n)
    split = rng.multinomial(interactions, [1.0 / 3.0] * 3)
    reactions = rng.poisson(spec.reaction_rate, n)
    love = rng.binomial(reactions, (1.0 + spec.lh_target) / 2.0)
    angry = reactions - love

    width = len(str(n - 1)) if n > 1 else 1
    posts = []
    for i in range(n):
        stamp = CORPUS_EPOCH + timedelta(seconds=math.floor(times[i] * 86400.0))
        posts.append(PostRecord(
            post_id=f"{spec.topic_id}-{i:0{width}d}",
            topic_id=spec.topic_id,
            timestamp=stamp,
            likes=int(split[i, 0]),
            shares=int(split[i, 1]),
            comments=int(split[i, 2]),
            love=int(love[i]),
            angry=int(angry[i]),
        ))
    return posts


def post_to_json(post: PostRecord) -> str:
    return json.dumps({
        "post_id": post.post_id,
        "topic_id": post.topic_id,
        "timestamp": post.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "likes": post.likes,
        "shares": post.shares,
        "comments": post.comments,
        "love": post.love,
        "angry": post.angry,
    })


def write_posts(specs, posts_path) -> None:
    """The posts JSONL the record writer made for ``specs``."""
    with open(posts_path, "w", encoding="utf-8", newline="\n") as fh:
        for spec in specs:
            for post in generate_topic(spec):
                fh.write(post_to_json(post))
                fh.write("\n")
