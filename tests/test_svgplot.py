"""The SVG curves' coordinates: ``svgplot._points`` against the %-format.

The golden digests hold the plots' bytes only under the pinned interpreter and
numpy; these checks compare the table-lookup writer with ``%.2f`` itself, so
they hold under any version.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engdyn import svgplot


def percent_points(xy) -> str:
    """The points text as ``%.2f`` writes it: the oracle."""
    xy = [float(v) for v in xy]
    return ("%.2f,%.2f " * (len(xy) // 2) % tuple(xy))[:-1]


def percent_polyline(xs, ys, color, width=1.5, dash=""):
    """``svgplot._polyline`` with every coordinate written by the %-format."""
    pts = percent_points(np.column_stack([xs, ys]).ravel())
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra}/>')


def scaled(span):
    # the plots' own tie source: a day or bin index scaled onto the plot area
    return st.integers(0, span).map(lambda i: 56 + 528 * i / span)


IN_RANGE = st.one_of(
    st.floats(0.0, 10000.0, exclude_max=True),
    st.integers(0, 1_999_999).map(lambda k: k / 200),  # exact ties at 2 decimals
    st.integers(0, 79_999).map(lambda k: k / 8),
    st.integers(1, 5000).flatmap(scaled),
    st.floats(9999.993, 9999.996),  # 9999.995 rounds up to 5 integer digits
)
SPECIAL = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300]),
    st.floats(-10000.0, 0.0),
)


def check(pairs):
    xy = np.array(pairs, dtype=float).reshape(-1)
    assert svgplot._points(xy) == percent_points(xy)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(IN_RANGE, IN_RANGE), max_size=30))
@example([(0.125, 2.675)])
@example([(1.005, 0.125)])
@example([(9999.995, 1.005)])
@example([(9999.99, 0.0)])
def test_points_match_percent_format(pairs):
    check(pairs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(IN_RANGE, SPECIAL), st.one_of(IN_RANGE, SPECIAL)),
                max_size=10))
@example([(-0.004, 2.675)])
@example([(0.125, -0.0)])
@example([(math.nan, 1.0), (math.inf, 1e300)])
def test_points_match_percent_format_off_the_plot_area(pairs):
    check(pairs)


def test_fit_overlay_with_tied_coordinates_matches_percent_format(monkeypatch):
    # x = 56 + 528 * t / 3200 holds a tie at 2 decimals at every odd t, whose
    # binary value lies just above or below it; np.rint misrounds 647 of them
    times = np.arange(3201.0)
    fractions = np.linspace(0.0, 1.0, len(times)) ** 2
    x = svgplot._scale(times, 0.0, 3200.0, 56, 584)
    rint = ["%d.%02d" % divmod(int(n), 100) for n in np.rint(x * 100)]
    assert rint != ["%.2f" % v for v in x.tolist()]
    svg = svgplot.fit_overlay_svg(times, fractions, 0.004, 1600.0, "ties")
    monkeypatch.setattr(svgplot, "_polyline", percent_polyline)
    assert svg == svgplot.fit_overlay_svg(times, fractions, 0.004, 1600.0, "ties")
