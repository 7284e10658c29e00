"""Per-topic summary metrics: Speed Index and Love-Hate score.

The Speed Index is the time-normalized area under the fitted logistic
curve over the observation window [0, T]; it lives in [0, 1] and is large
for curves that saturate early. The Love-Hate score contrasts Love and
Angry reaction counts, +1 all-Love, -1 all-Angry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, InvalidInput
from .model import PostTable

LH_MODES = ("pooled", "mean_of_posts")


@dataclass(frozen=True)
class TopicMetrics:
    topic_id: str
    speed_index: float
    lh_score: Optional[float]  # None when no post carries Love/Angry reactions
    total_love: int
    total_angry: int


def _softplus(x: float) -> float:
    # ln(1 + e^x), written through the negative-magnitude exponential
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def speed_index(alpha: float, beta: float, horizon: float) -> float:
    """Mean value of the logistic curve over [0, horizon], in closed form.

    The antiderivative of 1/(1+e^(-a(t-b))) is softplus(a(t-b))/a, so the
    normalized area is [softplus(a(T-b)) - softplus(-a*b)] / (a*T).
    """
    if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(horizon)):
        raise DomainError("speed_index requires finite arguments")
    if alpha <= 0 or horizon <= 0:
        raise DomainError("speed_index requires alpha > 0 and horizon > 0")
    upper = _softplus(alpha * (horizon - beta))
    lower = _softplus(-alpha * beta)
    value = (upper - lower) / (alpha * horizon)
    return min(max(value, 0.0), 1.0)  # trim float fuzz at the saturated ends


def reaction_totals(posts: PostTable) -> tuple[int, int]:
    """(total love, total angry)."""
    return int(posts.column("love").sum()), int(posts.column("angry").sum())


def love_hate(posts: PostTable, mode: str = "pooled") -> Optional[float]:
    """Love-Hate score of one topic's posts, or None when undefined.

    ``pooled`` applies (love - angry) / (love + angry) to the summed
    reaction counts; ``mean_of_posts`` scores each post with a nonzero
    denominator and averages. Posts without Love/Angry reactions are
    excluded rather than counted as neutral.
    """
    if mode not in LH_MODES:
        raise InvalidInput(f"unknown love_hate mode {mode!r}")
    if len(posts.topic_ids) > 1:
        raise InvalidInput(f"posts span multiple topics: {list(posts.topic_ids)}")
    if mode == "pooled":
        love, angry = reaction_totals(posts)
        if love + angry == 0:
            return None
        return (love - angry) / (love + angry)
    love, angry = posts.column("love"), posts.column("angry")
    rated = love + angry > 0
    if not rated.any():
        return None
    scores = (love[rated] - angry[rated]) / (love[rated] + angry[rated])
    # Python's sum adds in row order, as the per-post loop did
    return sum(scores.tolist()) / len(scores)


def topic_metrics(topic_id: str, posts: PostTable, alpha: float,
                  beta: float, horizon: float, lh_mode: str = "pooled") -> TopicMetrics:
    """Speed Index and reaction figures of the rows of ``topic_id``."""
    rows = posts.topic(topic_id)
    love, angry = reaction_totals(rows)
    return TopicMetrics(
        topic_id=topic_id,
        speed_index=speed_index(alpha, beta, horizon),
        lh_score=love_hate(rows, mode=lh_mode),
        total_love=love,
        total_angry=angry,
    )
