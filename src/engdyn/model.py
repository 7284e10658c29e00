"""Domain types, post parsing, and normalized cumulative engagement curves.

A post stream (JSON lines) is parsed once into a columnar
:class:`PostTable`, and each topic's slice of it is turned into a series of
daily bins holding the cumulative fraction of total engagement, the raw
material for the growth-curve fit.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, islice, takewhile
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InsufficientData, InvalidInput, TooManyBins, ZeroEngagement

SECONDS_PER_DAY = 86400.0

COUNT_FIELDS = ("likes", "shares", "comments", "love", "angry")
POST_FIELDS = ("post_id", "topic_id", "timestamp") + COUNT_FIELDS
# counts above this are rejected, so int64 sums over any table that fits in
# memory cannot overflow
MAX_COUNT = 2**32 - 1
# bins per topic series; a topic whose span needs more (a stray far-future
# stamp, or a tiny bin width) is skipped instead of allocating them. A million
# daily bins cover 2,700 years, a million hourly bins 114 years.
MAX_BINS = 1_000_000

UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_raw_decode = json.JSONDecoder().raw_decode
_post_fields = operator.itemgetter(*POST_FIELDS)
# lines per chunk; each chunk is read, its stamps converted at once, and its
# rows kept. Larger chunks are no faster and raise the peak RSS of a parse
# (+2 MiB at 4096 lines on 190k posts); at 256 lines the fixed cost of each
# conversion slows decoded corpora by about 6%
_CHUNK_LINES = 1024
# the stamps converted in bulk: the RFC 3339 spellings of a whole second in
# UTC, with "T", "t" or a space between date and time and "Z", "z", "+00:00"
# or "-00:00" last
_STAMP_SHAPE = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_STAMP_DIGITS = _STAMP_SHAPE == ord("0")
_STAMP_PUNCTUATION = (_STAMP_SHAPE == ord("-")) | (_STAMP_SHAPE == ord(":"))
_UTC_OFFSETS = ("+00:00", "-00:00")
_STAMP_PLACEHOLDER = "1970-01-01T00:00:00Z"  # overwritten after conversion
_UNDECODED = object()  # _check_line's default: the line is still to decode
# the line json.dumps writes for a record with its keys in POST_FIELDS order
# and the default separators, as simulate writes it. Strings hold no escape
# and no control character, so each group is the text json.loads returns;
# counts have no sign, no leading zero and at most 10 digits
_CHAR = r'[^"\\\x00-\x1f]'
_CANONICAL = re.compile(
    rf'\{{"post_id": "({_CHAR}+)", "topic_id": "({_CHAR}+)", '
    # 20 characters, or 25 that end in a zero UTC offset
    rf'"timestamp": "({_CHAR}{{19}}(?:{_CHAR}|[+-]00:00))", '
    + ", ".join(f'"{name}": (0|[1-9][0-9]{{0,9}})' for name in COUNT_FIELDS)
    + r"\}\n?")
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])

CATEGORIES = (
    "Art_Culture_Sport",
    "Economy",
    "Environment",
    "Human_Rights",
    "Labor",
    "Politics",
    "Religion",
    "Social",
    "Tech_Sci",
    "Health",
)


@dataclass(frozen=True, eq=False)
class TopicSeries:
    """A topic's time-binned, normalized cumulative engagement curve.

    ``times`` are days since the topic's first post (first entry 0.0,
    strictly increasing); ``fractions`` are the matching cumulative shares
    of total engagement, ending exactly at 1.0 for series built by
    :func:`build_series`. Both are read-only float64 arrays, copied from
    the sequences the constructor is given.

    Bin convention: ``times[k]`` is the start of bin k and ``fractions[k]``
    is the share of engagement through its end, ``times[k] + bin_width``.
    A curve time fitted on the series (such as the half-saturation
    ``beta_hat``) therefore reads in an external frame with origin
    ``origin`` as ``beta_hat + (t0 - origin) / 1 day + bin_width``.
    """

    topic_id: str
    t0: datetime
    times: np.ndarray
    fractions: np.ndarray
    total_engagement: int
    n_posts: int
    horizon_days: float

    def __post_init__(self):
        for name in ("times", "fractions"):
            column = np.array(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)


@dataclass(frozen=True)
class CategoryAssignment:
    """Hand-assigned category labels for one topic."""

    topic_id: str
    categories: frozenset[str]

    def __post_init__(self):
        if not self.categories:
            raise InvalidInput(f"topic {self.topic_id!r} has no categories")
        unknown = self.categories - set(CATEGORIES)
        if unknown:
            raise InvalidInput(
                f"topic {self.topic_id!r} has unknown categories {sorted(unknown)}")


@dataclass(frozen=True, eq=False)
class PostTable:
    """Posts as numpy columns, rows grouped by topic.

    ``topic_ids`` is sorted, and the rows of ``topic_ids[i]`` are
    ``bounds[i]:bounds[i + 1]``, in input order. ``stamps_us`` holds int64
    microseconds since the Unix epoch; ``counts`` is an (n, 5) int64 array
    whose columns follow :data:`COUNT_FIELDS`. Arrays are read-only, so the
    per-topic views that :meth:`topic` hands out cannot alter the table.
    Built by :func:`parse_posts` or :func:`engdyn.synth.generate_topic`.
    """

    topic_ids: tuple[str, ...]
    bounds: np.ndarray
    stamps_us: np.ndarray
    counts: np.ndarray
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        for column in (self.bounds, self.stamps_us, self.counts):
            column.flags.writeable = False
        object.__setattr__(self, "_index",
                           {tid: i for i, tid in enumerate(self.topic_ids)})

    def __len__(self) -> int:
        return len(self.stamps_us)

    def rows(self, topic_id: str) -> slice:
        """The rows of ``topic_id``; empty when the table has none."""
        i = self._index.get(topic_id)
        if i is None:
            return slice(0, 0)
        return slice(int(self.bounds[i]), int(self.bounds[i + 1]))

    def topic(self, topic_id: str) -> PostTable:
        """A table of views holding only the rows of ``topic_id``."""
        rows = self.rows(topic_id)
        n = rows.stop - rows.start
        return PostTable((topic_id,) if n else (), np.array([0, n] if n else [0]),
                         self.stamps_us[rows], self.counts[rows])

    def column(self, name: str) -> np.ndarray:
        """One count column, by its name in :data:`COUNT_FIELDS`."""
        return self.counts[:, COUNT_FIELDS.index(name)]


class _Rows:
    """The parse so far: accepted rows as int64 columns in input order, the
    rejects, and the first line of each accepted ``post_id``."""

    def __init__(self):
        self.codes: dict[str, int] = {}  # topic id -> first-seen code
        self.first_line: dict[str, int] = {}  # accepted post_id -> its line
        self.rejects: list[tuple[int, str]] = []
        self.row_codes = array("q")
        self.counts = array("q")
        self.stamps = array("q")

    def add_chunk(self, start: int, lines: list[str]) -> None:
        """Add ``lines``, the first of which is line ``start``, in three
        steps; only the last changes the parse.

        Read: each line becomes a row, a reject reason or nothing (a blank
        line). The lines at the head of the chunk that match
        :data:`_CANONICAL` are split by it. Every other line is decoded, and
        one of the common shape (one JSON object and at most a newline,
        non-empty string ids, five integer counts in range and a stamp of 20
        characters, or 25 ending in a zero UTC offset) is checked with a few
        C-level tests; the rest go through :func:`_check_line`.

        Convert: the stamps are converted at once by :func:`_stamps_us`. A
        row whose stamp it does not read, or whose count read by the pattern
        exceeds :data:`MAX_COUNT`, goes alone through :func:`_check_line` again.

        Keep: in one pass in line order, a row whose topic id is not UTF-8
        or whose ``post_id`` was already kept is rejected; the others are kept.
        """
        # read
        matches = list(takewhile(bool, map(_CANONICAL.fullmatch, lines)))
        n = len(matches)
        post_ids, topic_ids, texts, *columns = (
            map(list, zip(*map(re.Match.groups, matches))) if matches
            else ([] for _ in POST_FIELDS))
        # ten digits at most, so int64 holds every count
        head = np.fromstring(" ".join(chain.from_iterable(columns)),
                             dtype=np.int64, sep=" ").reshape(len(COUNT_FIELDS), n)
        linenos = list(range(start, start + n))  # per row: its line number
        rejects = []  # (line number, reason), at most one a line
        tail = array("q")  # the counts of the rows after the head
        known, known_stamps = [], []  # the rows the per-line checks read
        top = MAX_COUNT  # a local: read five times a line
        obj = None
        for lineno, line in enumerate(islice(lines, n, None), start + n):
            decoded = False  # whether obj is what json.loads(line) returns
            try:
                obj, end = _raw_decode(line)
                decoded = line[end:] == "\n" or end == len(line)
                post_id, topic_id, stamp, a, b, c, d, e = _post_fields(obj)
            except (ValueError, KeyError, TypeError, RecursionError):
                fast = False
            else:
                fast = (decoded and type(post_id) is str and type(topic_id) is str
                        and post_id and topic_id
                        and int is type(a) is type(b) is type(c) is type(d) is type(e)
                        and 0 <= a <= top and 0 <= b <= top and 0 <= c <= top
                        and 0 <= d <= top and 0 <= e <= top
                        and type(stamp) is str
                        and (len(stamp) == 20 or stamp[19:] in _UTC_OFFSETS))
            if fast:
                tail.extend((a, b, c, d, e))
            else:
                found = _check_line(line, obj) if decoded else _check_line(line)
                if type(found) is not tuple:
                    if found is not None:
                        rejects.append((lineno, found))
                    continue
                post_id, topic_id, stamp_us, five = found
                known.append(len(texts))
                known_stamps.append(stamp_us)
                stamp = _STAMP_PLACEHOLDER
                tail.extend(five)
            linenos.append(lineno)
            post_ids.append(post_id)
            topic_ids.append(topic_id)
            texts.append(stamp)
        # convert
        stamps, readable = _stamps_us(texts)
        stamps[known] = known_stamps
        again = ~readable
        again[:n] |= (head > MAX_COUNT).any(axis=0)
        keep = ~again  # a row flagged here is kept once its line passes
        for row in np.flatnonzero(again).tolist():
            found = _check_line(lines[linenos[row] - start])
            if type(found) is tuple:
                stamps[row], keep[row] = found[2], True
            else:
                rejects.append((linenos[row], found))
        counts = np.concatenate(
            (head.T, np.frombuffer(tail, dtype=np.int64).reshape(-1, len(COUNT_FIELDS))))
        # keep
        codes = self.codes
        for topic_id in dict.fromkeys(topic_ids):
            if topic_id not in codes:
                try:
                    topic_id.encode("utf-8")  # outputs name the topic in UTF-8
                except UnicodeEncodeError:
                    for row in np.flatnonzero(keep).tolist():
                        if topic_ids[row] == topic_id:
                            keep[row] = False
                            rejects.append((linenos[row], "topic_id holds a lone surrogate"))
        # only the rows that passed every other check register their post_id
        ok = keep.tolist()
        kept_lines = list(compress(linenos, ok))
        seen = list(map(self.first_line.setdefault, compress(post_ids, ok), kept_lines))
        if seen != kept_lines:  # a repeat: only such a chunk pays for the scan
            rows = np.flatnonzero(keep)
            for j in compress(range(len(seen)), map(operator.ne, seen, kept_lines)):
                keep[rows[j]] = False
                rejects.append((kept_lines[j], f"duplicate post_id {post_ids[rows[j]]!r} "
                                               f"(first seen on line {seen[j]})"))
            ok = keep.tolist()
        kept_topics = list(compress(topic_ids, ok))
        for topic_id in dict.fromkeys(kept_topics):
            codes.setdefault(topic_id, len(codes))
        self.row_codes.extend(map(codes.__getitem__, kept_topics))
        self.counts.frombytes(counts.compress(keep, axis=0).tobytes())
        self.stamps.frombytes(stamps.compress(keep).tobytes())
        self.rejects.extend(sorted(rejects))

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


@dataclass(frozen=True)
class ParseResult:
    records: PostTable  # the valid posts
    rejects: tuple[tuple[int, str], ...]  # (1-based line number, reason)

    @property
    def n_rejected(self) -> int:
        return len(self.rejects)


def _parse_timestamp(raw) -> datetime:
    if not isinstance(raw, str):
        raise ValueError("timestamp must be a string")
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:  # the UTC instant falls outside years 1-9999
        raise ValueError("timestamp out of range") from None


def _stamp_us(ts: datetime) -> int:
    return (ts - UNIX_EPOCH) // _ONE_US


def _parse_count(obj, name) -> int:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if value < 0:
        raise ValueError(f"{name} is negative")
    if value > MAX_COUNT:
        raise ValueError(f"{name} exceeds {MAX_COUNT}")
    return value


def _check_record(obj) -> tuple[str, str, int, list[int]]:
    """Check one decoded JSON-lines record; returns (post_id, topic_id,
    stamp_us, counts) or raises ValueError with the reject reason."""
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    missing = [f for f in POST_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    for name in ("post_id", "topic_id"):
        if not isinstance(obj[name], str) or not obj[name]:
            raise ValueError(f"{name} must be a non-empty string")
    stamp = _stamp_us(_parse_timestamp(obj["timestamp"]))
    return (obj["post_id"], obj["topic_id"], stamp,
            [_parse_count(obj, name) for name in COUNT_FIELDS])


def _check_line(line: str, obj=_UNDECODED):
    """The per-line checks: ``(post_id, topic_id, stamp_us, counts)`` of
    ``line``, the reason it is rejected, or None when it is blank. ``obj``,
    when given, is what ``json.loads(line)`` returns, so the line is not
    decoded again."""
    if obj is _UNDECODED:
        if not line.strip():
            return None
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # incl. too-deep JSON
            return str(exc)
    try:
        return _check_record(obj)
    except ValueError as exc:
        return str(exc)


def _stamps_us(texts) -> tuple[np.ndarray, np.ndarray]:
    """int64 microseconds since the Unix epoch of ``texts``, stamps of 20
    characters or of 25 that end in a zero UTC offset, and per stamp
    whether it was read. Read are the stamps of the shape
    ``YYYY-MM-DDTHH:MM:SSZ`` (ASCII digits, "T" also "t" or a space, "Z"
    also "z" or the offset) that name a real second of years 1-9999: stamps
    that :func:`_parse_timestamp` accepts, read to the same instant. The
    value of a stamp not read means nothing."""
    joined = "".join(texts)
    if len(joined) != 20 * len(texts):  # write the zero offsets as "Z"
        joined = "".join(t if len(t) == 20 else t[:19] + "Z" for t in texts)
    chars = np.frombuffer(joined.encode("ascii", "replace"),
                          dtype=np.uint8).reshape(-1, 20)
    between = chars[:, 10]
    digits = chars[:, _STAMP_DIGITS].astype(np.int64) - ord("0")
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 0, 12)] + (leap & (month == 2))
    # OR-ing 0x20 lowercases an ASCII letter; only "Z" and "z" give "z"
    readable = ((chars[:, 19] | 0x20 == ord("z"))
                & (chars[:, _STAMP_PUNCTUATION] == _STAMP_SHAPE[_STAMP_PUNCTUATION]).all(axis=1)
                & ((between | 0x20 == ord("t")) | (between == ord(" ")))
                & ((digits >= 0) & (digits <= 9)).all(axis=1)
                & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
                & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60))
    # days since 1970-01-01 in the proleptic Gregorian calendar, counted
    # from 0000-03-01 in 400-year eras (Hinnant's days_from_civil); y >= 0
    y = year - (month <= 2)
    era = y // 400
    year_of_era = y - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4
            - year_of_era // 100 + day_of_year - 719468)
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, readable


def parse_posts(stream: Iterable[str]) -> ParseResult:
    """Parse a line-delimited post stream into a :class:`PostTable`.

    Malformed lines are reported with their 1-based line number instead of
    aborting the whole stream; blank lines are skipped silently. A post
    whose ``post_id`` was already accepted is rejected, so a repeated line
    cannot count its engagement twice; the first one is kept.

    The stream is read in chunks of lines, and each chunk goes once through
    :meth:`_Rows.add_chunk`: its lines are read (the lines at the head of a
    chunk that have the layout ``simulate`` writes by one regular
    expression, :data:`_CANONICAL`; the others decoded and checked with a
    few type tests), its stamps converted at once, and its rows kept in line
    order. A line none of these reads, and a row one of them flags, goes
    alone through the per-line checks, :func:`_check_record`. What is
    accepted, the rejects, their order and their reasons are therefore those
    of the per-line path on every input.
    """
    rows = _Rows()
    stream = iter(stream)
    start = 1  # the line number of the chunk's first line
    while lines := list(islice(stream, _CHUNK_LINES)):
        rows.add_chunk(start, lines)
        start += len(lines)
    rows.first_line.clear()  # the largest part of the parse; freed before table()
    return ParseResult(rows.table(), tuple(rows.rejects))


def load_posts(path: str | Path) -> ParseResult:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_posts(fh)


def build_series(posts: PostTable, topic_id: str,
                 bin_width: float = 1.0) -> TopicSeries:
    """Bin a topic's posts into a normalized cumulative engagement curve.

    Engagement lands in bin ``floor((timestamp - t0) / bin_width)`` with t0
    the topic's earliest post; empty bins carry the running cumulative value
    forward, and the final bin is exactly 1.0 after division by the total.
    The trailing period after the last post is truncated, so the horizon is
    the last post's bin. ``times[k] = k * bin_width`` is the start of bin k,
    while ``fractions[k]`` counts engagement up to its end (see
    :class:`TopicSeries` for converting fitted times to another frame).
    Day offsets are ``microseconds / 1e6 / 86400``, which rounds exactly as
    ``timedelta.total_seconds() / 86400`` for spans below 2**53 us (285 years).
    A span that needs more than :data:`MAX_BINS` bins raises ``TooManyBins``.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise InvalidInput("bin_width must be positive and finite")
    rows = posts.rows(topic_id)
    n_posts = rows.stop - rows.start
    if n_posts < 2:
        raise InsufficientData(
            f"topic {topic_id!r} has {n_posts} post(s); need at least 2")
    engagement = posts.counts[rows, :3].sum(axis=1)
    total = int(engagement.sum())
    if total <= 0:
        raise ZeroEngagement(f"topic {topic_id!r} has zero total engagement")

    stamps = posts.stamps_us[rows]
    us0 = int(stamps.min())
    offsets = ((stamps - us0) / 1e6) / SECONDS_PER_DAY
    # with x the last post's offset in bins, floor(x) + 1 > MAX_BINS exactly
    # when x >= MAX_BINS; checked before any bin array is allocated
    if offsets.max() / bin_width >= MAX_BINS:
        raise TooManyBins(
            f"topic {topic_id!r} needs more than {MAX_BINS} {bin_width}-day bins")
    bins = np.floor(offsets / bin_width).astype(int)
    n_bins = int(bins.max()) + 1
    if n_bins < 2:
        raise InsufficientData(
            f"topic {topic_id!r} spans a single {bin_width}-day bin")

    # bincount adds in row order, as np.add.at would
    per_bin = np.bincount(bins, weights=engagement.astype(float))
    cumulative = np.cumsum(per_bin)
    # divide by the accumulated last value (== total) so the terminal
    # fraction is exactly 1.0 regardless of magnitude
    fractions = cumulative / cumulative[-1]
    times = np.arange(n_bins, dtype=float) * bin_width

    return TopicSeries(
        topic_id=topic_id,
        t0=UNIX_EPOCH + timedelta(microseconds=us0),
        times=times,
        fractions=fractions,
        total_engagement=total,
        n_posts=n_posts,
        horizon_days=float(times[-1]),
    )


def group_by_topic(posts: PostTable) -> dict[str, PostTable]:
    """Each topic's rows as a table of views, keyed by topic id."""
    return {tid: posts.topic(tid) for tid in posts.topic_ids}


def read_categories(path: str | Path) -> dict[str, CategoryAssignment]:
    """Read the ``topic_id,category`` CSV (one row per pair)."""
    pairs: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != ["topic_id", "category"]:
            raise InvalidInput(
                f"{path}: expected header 'topic_id,category', got {header}")
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) != 2:
                raise InvalidInput(
                    f"{path}: line {reader.line_num}: expected 2 fields, got {len(row)}")
            if not row[0]:
                raise InvalidInput(f"{path}: line {reader.line_num}: empty topic_id")
            pairs.setdefault(row[0], set()).add(row[1])
    return {
        topic: CategoryAssignment(topic, frozenset(cats))
        for topic, cats in pairs.items()
    }
