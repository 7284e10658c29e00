"""Ground-truth synthetic corpus generator.

Post times are drawn by inverse-CDF sampling from the logistic law
truncated to the topic's observation window, so the expected cumulative
engagement follows a known curve; per-post interaction counts are Poisson
with a common mean, keeping the time density (not post size) in charge of
the curve's shape. Love/Angry reactions are generated so the pooled
Love-Hate score has a designed expectation.

Every topic owns an independent RNG stream derived from (noise_seed,
topic_id), so a topic's posts never depend on the other topics or their order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .curvefit import sigmoid
from .errors import InvalidInput
from .metrics import speed_index
from .model import CATEGORIES, PostRecord

CORPUS_EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)

DEFAULT_ENGAGEMENT_MEAN = 140.0  # interactions per post
DEFAULT_REACTION_RATE = 8.0      # love + angry reactions per post


@dataclass(frozen=True)
class SynthSpec:
    """Generation recipe for one synthetic topic."""

    topic_id: str
    alpha_true: float
    beta_true: float
    horizon_days: float
    n_posts: int
    engagement_mean: float = DEFAULT_ENGAGEMENT_MEAN
    lh_target: float = 0.0
    reaction_rate: float = DEFAULT_REACTION_RATE
    noise_seed: int = 0

    def __post_init__(self):
        if not self.topic_id:
            raise InvalidInput("topic_id must be non-empty")
        if self.alpha_true <= 0:
            raise InvalidInput("alpha_true must be positive")
        if self.horizon_days <= 0:
            raise InvalidInput("horizon_days must be positive")
        if self.n_posts < 2:
            raise InvalidInput("n_posts must be at least 2")
        if self.engagement_mean <= 0:
            raise InvalidInput("engagement_mean must be positive")
        if not -1.0 <= self.lh_target <= 1.0:
            raise InvalidInput("lh_target must lie in [-1, 1]")
        if self.reaction_rate < 0:
            raise InvalidInput("reaction_rate must be non-negative")


def rng_for(spec: SynthSpec) -> np.random.Generator:
    """The topic's private RNG stream, a pure function of (seed, topic id)."""
    digest = hashlib.sha256(spec.topic_id.encode("utf-8")).digest()
    topic_word = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(
        np.random.SeedSequence([spec.noise_seed & 0xFFFFFFFFFFFFFFFF, topic_word]))


def _sample_times(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = sigmoid([0.0, spec.horizon_days], spec.alpha_true, spec.beta_true)
    u = rng.uniform(lo, hi, spec.n_posts)
    t = spec.beta_true + np.log(u / (1.0 - u)) / spec.alpha_true
    t = np.clip(t, 0.0, spec.horizon_days)
    t.sort()
    return t


def sample_times(spec: SynthSpec) -> np.ndarray:
    """Sorted post times (days), inverse-CDF draws from the truncated
    logistic law on [0, horizon]."""
    return _sample_times(spec, rng_for(spec))


def generate_topic(spec: SynthSpec) -> list[PostRecord]:
    """Generate one topic's posts.

    Interactions per post are Poisson(engagement_mean) split uniformly
    among likes, shares and comments. Reactions per post are
    Poisson(reaction_rate), each Love with probability (1 + lh_target) / 2,
    so the pooled Love-Hate score targets ``lh_target`` in expectation.
    """
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


def generate_corpus(specs: Sequence[SynthSpec],
                    category_map: Mapping[str, Iterable[str]],
                    posts_path: str | Path,
                    categories_path: str | Path) -> None:
    """Write a whole synthetic corpus in the pipeline's input formats.

    Emits the posts JSONL and the ``topic_id,category`` CSV; output bytes
    are a pure function of the specs.
    """
    seen = set()
    for spec in specs:
        if spec.topic_id in seen:
            raise InvalidInput(f"duplicate topic_id {spec.topic_id!r}")
        seen.add(spec.topic_id)

    with open(posts_path, "w", encoding="utf-8", newline="\n") as fh:
        for spec in specs:
            for post in generate_topic(spec):
                fh.write(post_to_json(post))
                fh.write("\n")

    with open(categories_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("topic_id,category\n")
        for spec in specs:
            for cat in sorted(category_map.get(spec.topic_id, ())):
                fh.write(f"{spec.topic_id},{cat}\n")


def default_corpus_specs(n_topics: int, seed: int = 0,
                         n_posts: tuple[int, int] = (300, 1500),
                         ) -> tuple[list[SynthSpec], dict[str, list[str]]]:
    """A corpus whose design parameters mimic observed topic populations:
    slopes in [0.001, 0.005] per day, half-saturation times in [600, 1000]
    days over a roughly four-year window."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    specs = []
    categories: dict[str, list[str]] = {}
    for i in range(n_topics):
        topic_id = f"topic{i:04d}"
        alpha = float(rng.uniform(0.001, 0.005))
        beta = float(rng.uniform(600.0, 1000.0))
        horizon = float(rng.uniform(1400.0, 1600.0))
        posts = int(rng.integers(n_posts[0], n_posts[1] + 1))
        lh = float(rng.uniform(-0.6, 0.9))
        specs.append(SynthSpec(
            topic_id=topic_id,
            alpha_true=alpha,
            beta_true=beta,
            horizon_days=horizon,
            n_posts=posts,
            lh_target=lh,
            noise_seed=seed,
        ))
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(CATEGORIES), size=k, replace=False)
        categories[topic_id] = sorted(CATEGORIES[p] for p in picks)
    return specs, categories


def sign_test_corpus_specs(n_topics: int, seed: int = 0, n_posts: int = 600,
                           ) -> tuple[list[SynthSpec], dict[str, list[str]]]:
    """A corpus where the designed Love-Hate target falls as the designed
    Speed Index rises, for end-to-end sign checks of the pipeline."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51C4]))
    horizon = 1400.0
    raw = []
    for i in range(n_topics):
        alpha = float(np.exp(rng.uniform(np.log(0.002), np.log(0.05))))
        beta = float(rng.uniform(150.0, 1100.0))
        raw.append((f"topic{i:04d}", alpha, beta,
                    speed_index(alpha, beta, horizon)))
    si_values = np.array([r[3] for r in raw])
    lo, hi = float(si_values.min()), float(si_values.max())
    span = (hi - lo) or 1.0
    specs = []
    categories: dict[str, list[str]] = {}
    for i, (topic_id, alpha, beta, si) in enumerate(raw):
        lh = 0.9 - 1.6 * (si - lo) / span  # decreasing in designed SI
        specs.append(SynthSpec(
            topic_id=topic_id,
            alpha_true=alpha,
            beta_true=beta,
            horizon_days=horizon,
            n_posts=n_posts,
            lh_target=float(lh),
            noise_seed=seed,
        ))
        categories[topic_id] = [CATEGORIES[i % len(CATEGORIES)]]
    return specs, categories
