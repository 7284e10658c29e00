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
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .curvefit import sigmoid
from .errors import InvalidInput
from .model import CATEGORIES, MAX_COUNT, SECONDS_PER_DAY, PostTable, write_csv

CORPUS_EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)
_EPOCH_S = int(CORPUS_EPOCH.timestamp())
# the last stamp the post format (and ``analyze``) can hold
_LAST_S = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())

DEFAULT_ENGAGEMENT_MEAN = 140.0  # interactions per post
DEFAULT_REACTION_RATE = 8.0      # love + angry reactions per post
# Poisson draws with a mean up to half of MAX_COUNT stay below MAX_COUNT:
# the margin is ~46,000 standard deviations
_MAX_RATE = MAX_COUNT // 2
# posts per topic; a topic is drawn and written whole, at about 320 bytes a
# post at the peak, so one topic stays near 320 MB
MAX_TOPIC_POSTS = 1_000_000


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
        if not isinstance(self.topic_id, str) or not self.topic_id:
            raise InvalidInput("topic_id must be a non-empty string")
        try:
            self.topic_id.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidInput(
                f"topic_id {self.topic_id!r} holds a lone surrogate") from None
        for name in ("alpha_true", "beta_true", "horizon_days",
                     "engagement_mean", "lh_target", "reaction_rate"):
            value = getattr(self, name)
            # exact for ints beyond the float range, false for NaN
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not -sys.float_info.max <= value <= sys.float_info.max):
                raise InvalidInput(f"{name} must be a finite number")
        for name in ("n_posts", "noise_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise InvalidInput(f"{name} must be an integer")
        if self.alpha_true <= 0:
            raise InvalidInput("alpha_true must be positive")
        if self.horizon_days <= 0:
            raise InvalidInput("horizon_days must be positive")
        # the last post is stamped floor(horizon_days * 86400) s after the epoch
        if self.horizon_days * SECONDS_PER_DAY >= _LAST_S - _EPOCH_S + 1:
            raise InvalidInput("horizon_days must end by 9999-12-31T23:59:59Z")
        if not 2 <= self.n_posts <= MAX_TOPIC_POSTS:
            raise InvalidInput(f"n_posts must lie in [2, {MAX_TOPIC_POSTS}]")
        if not 0 < self.engagement_mean <= _MAX_RATE:
            raise InvalidInput(f"engagement_mean must lie in (0, {_MAX_RATE}]")
        if not -1.0 <= self.lh_target <= 1.0:
            raise InvalidInput("lh_target must lie in [-1, 1]")
        if not 0 <= self.reaction_rate <= _MAX_RATE:
            raise InvalidInput(f"reaction_rate must lie in [0, {_MAX_RATE}]")
        # post times are inverse-CDF draws between these two values
        lo, hi = sigmoid([0.0, self.horizon_days], self.alpha_true, self.beta_true)
        if not lo < hi:
            raise InvalidInput("alpha_true and beta_true put no mass of the "
                               "logistic law in [0, horizon_days]")


def rng_for(spec: SynthSpec) -> np.random.Generator:
    """The topic's private RNG stream, a pure function of (seed, topic id)."""
    digest = hashlib.sha256(spec.topic_id.encode("utf-8")).digest()
    topic_word = int.from_bytes(digest[:8], "big")
    seed = int(spec.noise_seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([seed, topic_word]))


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


def generate_topic(spec: SynthSpec) -> PostTable:
    """Generate one topic's posts as a one-topic table, rows in time order.

    Interactions per post are Poisson(engagement_mean) split uniformly
    among likes, shares and comments. Reactions per post are
    Poisson(reaction_rate), each Love with probability (1 + lh_target) / 2,
    so the pooled Love-Hate score targets ``lh_target`` in expectation.
    A post at day t is stamped ``CORPUS_EPOCH`` plus floor(t * 86400)
    seconds.
    """
    rng = rng_for(spec)
    times = _sample_times(spec, rng)
    n = spec.n_posts
    interactions = rng.poisson(spec.engagement_mean, n)
    split = rng.multinomial(interactions, [1.0 / 3.0] * 3)
    reactions = rng.poisson(spec.reaction_rate, n)
    love = rng.binomial(reactions, (1.0 + spec.lh_target) / 2.0)
    seconds = _EPOCH_S + np.floor(times * SECONDS_PER_DAY).astype(np.int64)
    return PostTable((spec.topic_id,), np.array([0, n]), seconds * 1_000_000,
                     np.column_stack([split, love, reactions - love]))


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

    # one %-format per line; keys and spacing as json.dumps of a dict, ids
    # escaped by json.dumps itself
    with open(posts_path, "w", encoding="utf-8", newline="\n") as fh:
        for spec in specs:
            table = generate_topic(spec)
            quoted = json.dumps(spec.topic_id).replace("%", "%%")
            width = len(str(len(table) - 1))
            line = ('{"post_id": ' + quoted[:-1] + f'-%0{width}d", "topic_id": '
                    + quoted + ', "timestamp": "%sZ", "likes": %d, "shares": %d, '
                    '"comments": %d, "love": %d, "angry": %d}\n')
            stamps = np.datetime_as_string(
                table.stamps_us.astype("datetime64[us]"), unit="s")
            fh.writelines(line % row for row in zip(
                range(len(table)), stamps.tolist(), *table.counts.T.tolist()))

    rows = [[spec.topic_id, cat] for spec in specs
            for cat in sorted(category_map.get(spec.topic_id, ()))]
    write_csv(categories_path, ["topic_id", "category"], rows,
              texts=[field for row in rows for field in row])


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

