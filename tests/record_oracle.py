"""The record-at-a-time post code that the columnar library replaced, kept
as it was for tests to compare against and to build small tables by hand.

``generate_topic`` and ``post_to_json`` are the generator and the JSON-lines
writer that built one ``PostRecord`` and one ``datetime`` per post;
``table_of`` is the converter from records to a :class:`PostTable`.
"""

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

from engdyn.model import PostTable, _stamp_us, _TableBuilder
from engdyn.synth import CORPUS_EPOCH, SynthSpec, _sample_times, rng_for


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


def table_of(records) -> PostTable:
    """A list of records as the library's post table."""
    builder = _TableBuilder()
    for p in records:
        builder.add(p.topic_id, _stamp_us(p.timestamp),
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
