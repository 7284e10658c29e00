"""Tiny SVG chart emitter (no plotting dependency).

Charts are documentation artifacts: a cumulative curve with its fitted
overlay, and a scatter of two metrics. Output is plain SVG 1.1 text and a
pure function of the inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .curvefit import sigmoid

WIDTH = 640
HEIGHT = 420
MARGIN = 56
# text markup escaped; the characters XML 1.0 cannot hold at all, even as
# references, become U+FFFD
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", **dict.fromkeys(
    [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd")})


def _scale(values, lo, hi, out_lo, out_hi):
    span = (hi - lo) or 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4-byte ASCII pieces that :func:`_points` gathers, each read as one
    little-endian uint32: the integer parts 0-9999 right-aligned with NUL
    padding, and at ``2 * cents + k`` the ``.``, the two digits of the cents
    00-99 and the separator after an x (k = 0, ``,``) or a y (k = 1, `` ``)."""
    ints = np.arange(10000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    digits = np.where((ints >= place) | (place == 1), ints // place % 10 + 48, 0)
    tails = np.empty((100, 2, 4), dtype=np.uint8)
    tails[..., 0] = ord(".")
    tails[..., 1:3] = (ints[:100] // np.array([10, 1]) % 10 + 48)[:, None]
    tails[..., 3] = [ord(","), ord(" ")]
    return digits.astype(np.uint8).view("<u4").ravel(), tails.view("<u4").ravel()


_INTS, _TAILS = _tables()
# 100 times the values that _points writes with 4 integer digits at most
_LIMIT = 999999.0


def _points(xy: np.ndarray) -> str:
    """``("%.2f,%.2f " * (len(xy) // 2) % tuple(xy))[:-1]`` for a flat float
    array of x, y pairs, byte for byte.

    A value in [0, 9999.99] becomes its count of hundredths, and that count's
    integer part and cents are looked up in :data:`_INTS` and :data:`_TAILS`.
    ``%.2f`` rounds the exact binary value half to even. The float ``100 * v``
    is within 6e-11 of the exact product below :data:`_LIMIT`, so the rounding
    is read from it, except within 1e-6 of a half, where ``%.2f`` itself
    writes the value. A polyline with a negative (``-0.0`` too), non-finite or
    larger value is written by the %-format.
    """
    s = xy * 100.0
    if not xy.size or np.signbit(xy).any() or not (s < _LIMIT).all():  # nan fails <
        values = xy.tolist()  # Python floats: numpy scalars format about half as fast
        return ("%.2f,%.2f " * (len(values) // 2) % tuple(values))[:-1]
    low = np.floor(s)
    frac = s - low
    n = low.astype(np.int64) + (frac > 0.5)
    near = np.flatnonzero(np.abs(frac - 0.5) < 1e-6)
    if near.size:
        n[near] = [int(("%.2f" % v).replace(".", "")) for v in xy[near].tolist()]
    whole, cents = np.divmod(n, 100)
    cents *= 2
    cents[1::2] += 1  # the piece of a y ends in " ", that of an x in ","
    text = np.empty((len(n), 2), dtype="<u4")
    text[:, 0] = _INTS[whole]
    text[:, 1] = _TAILS[cents]
    text = text.view(np.uint8).ravel()
    text[-1] = 0  # no separator after the last value
    return text[text != 0].tobytes().decode("ascii")


def _polyline(xs, ys, color: str, width: float = 1.5, dash: str = "") -> str:
    pts = _points(np.column_stack([xs, ys]).ravel())
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra}/>')


def _frame(title: str, xlabel: str, ylabel: str, x_lo, x_hi, y_lo, y_hi) -> list[str]:
    left, right = MARGIN, WIDTH - MARGIN
    top, bottom = MARGIN, HEIGHT - MARGIN
    title, xlabel, ylabel = (s.translate(_TEXT) for s in (title, xlabel, ylabel))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + frac * (right - left)
        y = bottom - frac * (bottom - top)
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" '
                     f'y2="{bottom + 4}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{bottom + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{xv:.3g}</text>')
        parts.append(f'<line x1="{left - 4}" y1="{y:.2f}" x2="{left}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 3:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{yv:.3g}</text>')
    return parts


def fit_overlay_svg(times: Sequence[float], fractions: Sequence[float],
                    alpha: float, beta: float, title: str) -> str:
    """Normalized cumulative curve (solid) with fitted sigmoid (dashed)."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(fractions, dtype=float)
    x_lo, x_hi = float(t[0]), float(t[-1])
    parts = _frame(title, "days since first post", "cumulative engagement share",
                   x_lo, x_hi, 0.0, 1.0)
    left, right = MARGIN, WIDTH - MARGIN
    top, bottom = MARGIN, HEIGHT - MARGIN
    px = _scale(t, x_lo, x_hi, left, right)
    py = _scale(y, 0.0, 1.0, bottom, top)
    parts.append(_polyline(px, py, "#1f5fa8", 1.6))
    grid = np.linspace(x_lo, x_hi, 200)
    fy = sigmoid(grid, alpha, beta)
    parts.append(_polyline(_scale(grid, x_lo, x_hi, left, right),
                           _scale(fy, 0.0, 1.0, bottom, top),
                           "#c03d2e", 1.6, dash="6,4"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_svg(xs: Sequence[float], ys: Sequence[float], xlabel: str,
                ylabel: str, title: str) -> str:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    parts = _frame(title, xlabel, ylabel, x_lo, x_hi, y_lo, y_hi)
    left, right = MARGIN, WIDTH - MARGIN
    top, bottom = MARGIN, HEIGHT - MARGIN
    px = _scale(x, x_lo, x_hi, left, right)
    py = _scale(y, y_lo, y_hi, bottom, top)
    for cx, cy in zip(px, py):
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" '
                     f'fill="#1f5fa8" fill-opacity="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
