"""Domain types, post parsing, and normalized cumulative engagement curves.

A post stream (JSON lines) is parsed once into a columnar
:class:`PostTable`, and each topic's slice of it is turned into a series of
daily bins holding the cumulative fraction of total engagement, the raw
material for the growth-curve fit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
import operator
import os
import pickle
import re
import signal
import threading
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import chain, compress, islice, takewhile
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
_raw_decode = json.JSONDecoder().raw_decode
_post_fields = operator.itemgetter(*POST_FIELDS)
# lines per chunk; each chunk is read, its stamps converted at once, and its
# rows kept. Larger chunks are no faster and raise the peak RSS of a parse
# (+2 MiB at 4096 lines on 190k posts); at 256 lines the fixed cost of each
# conversion slows decoded corpora by about 6%
_CHUNK_LINES = 1024
# read_halves splits a file this large; on smaller ones the fork and merge
# cost more than half a read saves (break-even 0.75-1 MiB, posts and articles)
_SPLIT_MIN_BYTES = 1 << 20
# _stamps_us's results: read, or the reason a stamp is rejected
_STAMP_REJECTS = (None, "timestamp is not RFC 3339", "timestamp out of range")
# a stamp's bytes with each ASCII digit written as "0", "t" and " " as "T"
# and "z" as "Z": its shape
_SHAPES = bytes.maketrans(b"123456789tz ", b"000000000TZT")
_ZULU = b"0000-00-00T00:00:00Z\n"  # the shape of a whole second in UTC, and its "\n"
_PUNCTUATION = np.array([4, 7, 10, 13, 16])[:, None]  # of "YYYY-MM-DDTHH:MM:SS"
_PUNCTUATION_MARKS = np.frombuffer(_ZULU, dtype=np.uint8)[_PUNCTUATION]
_OFFSET_DIGITS = np.array([-5, -4, -2, -1])[:, None]  # of "+HH:MM", from its end
_PLACES = np.arange(6)  # of the fraction digits read, up to microseconds
_MICROS = 10 ** np.arange(5, -1, -1)  # the weight of each of 6 fraction digits
_FIRST_US, _LAST_US = -62_135_596_800_000_000, 253_402_300_799_999_999  # years 1-9999
# the line json.dumps writes for a record with its keys in POST_FIELDS order
# and the default separators, as simulate writes it. Strings hold no escape
# and no control character, so each group is the text json.loads returns;
# counts have no sign, no leading zero and at most 10 digits
_CHAR = r'[^"\\\x00-\x1f]'
_CANONICAL = re.compile(
    rf'\{{"post_id": "({_CHAR}+)", "topic_id": "({_CHAR}+)", "timestamp": "({_CHAR}*)", '
    + ", ".join(f'"{name}": (0|[1-9][0-9]{{0,9}})' for name in COUNT_FIELDS)
    + r"\}\n?")
# days from 2000-01-01 (ordinal 730120), the start of a 400-year Gregorian cycle, to the
# first of each of its 4,800 months and to its end (146,097); a list, to spare memory
_MONTH_STARTS = np.array([date(2000 + m // 12, m % 12 + 1, 1).toordinal() - 730120
                          for m in range(4801)])

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
    """The parse so far: rows as int64 columns in input order, the rejects, and
    per row the hash, line and text of its post_id for :meth:`drop_repeats`."""

    def __init__(self):
        self.codes: dict[str, int] = {}  # topic id -> first-seen code
        self.rejects: list[tuple[int, str]] = []
        self.row_codes = array("q")
        self.counts = array("q")
        self.stamps = array("q")
        self.hashes, self.lines = array("q"), array("q")  # per row: hash(post_id), line
        self.id_texts: list[str] = []  # per chunk: its rows' post_ids, joined
        self.id_ends = array("q", [0])  # row r's id: [r]:[r + 1] of the joined texts
        self.n_lines = 0  # the lines read

    def add_chunk(self, start: int, lines: list[str]) -> None:
        """Add ``lines``, the first of which is line ``start``, in three
        steps; only the last changes the parse.

        Read: each line becomes a row, a reject reason or nothing (a blank
        line). The lines at the head of the chunk that match
        :data:`_CANONICAL` are split by it; every other line goes through
        :func:`_check_line`.

        Convert: the stamps of all rows are read at once by
        :func:`_stamps_us`. A row whose count read by the pattern exceeds
        :data:`MAX_COUNT` goes alone through :func:`_check_line` again; a
        row whose stamp is not read takes the reader's reason.

        Keep: in line order, a row whose topic id is not UTF-8 is rejected;
        the others are kept, and their post_ids go to the id columns.
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
        for lineno, line in enumerate(islice(lines, n, None), start + n):
            found = _check_line(line)
            if type(found) is not tuple:
                if found is not None:
                    rejects.append((lineno, found))
                continue
            post_id, topic_id, stamp, a, b, c, d, e = found
            tail.extend((a, b, c, d, e))
            linenos.append(lineno)
            post_ids.append(post_id)
            topic_ids.append(topic_id)
            texts.append(stamp)
        # convert
        stamps, status = _stamps_us(texts)
        over = np.zeros(len(texts), dtype=bool)
        over[:n] = (head > MAX_COUNT).any(axis=0)
        keep = (status == 0) & ~over  # counts are checked before stamps
        for row in np.flatnonzero(~keep).tolist():
            rejects.append((linenos[row], _check_line(lines[linenos[row] - start]) if over[row]
                            else _STAMP_REJECTS[status[row]]))
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
        ok = keep.tolist()
        kept_ids = list(compress(post_ids, ok))
        self.hashes.frombytes(np.fromiter(map(hash, kept_ids), np.int64, len(kept_ids)).tobytes())
        self.lines.frombytes(np.array(linenos, dtype=np.int64)[keep].tobytes())
        self.id_texts.append("".join(kept_ids))
        ends = np.cumsum(np.fromiter(map(len, kept_ids), np.int64, len(kept_ids)))
        self.id_ends.frombytes((ends + self.id_ends[-1]).tobytes())
        kept_topics = list(compress(topic_ids, ok))
        for topic_id in dict.fromkeys(kept_topics):
            codes.setdefault(topic_id, len(codes))
        self.row_codes.extend(map(codes.__getitem__, kept_topics))
        self.counts.frombytes(counts.compress(keep, axis=0).tobytes())
        self.stamps.frombytes(stamps.compress(keep).tobytes())
        self.rejects.extend(sorted(rejects))

    def columns(self) -> tuple[array, ...]:
        return self.row_codes, self.counts, self.stamps, self.hashes, self.lines, self.id_ends

    def send(self, out) -> None:
        """Write the rows to ``out`` for :meth:`extend`: a pickle, then the columns raw."""
        pickle.dump((self.codes, self.rejects, self.id_texts, self.n_lines, len(self.stamps)), out)
        for column in self.columns():
            out.write(column)

    def extend(self, pipe) -> _Rows:
        """These rows followed by those :meth:`send` wrote to ``pipe`` for the
        lines after them, whose topics join ``codes`` in first-seen order."""
        codes, rejects, id_texts, n_lines, n = pickle.load(pipe)
        recode = np.array([self.codes.setdefault(topic_id, len(self.codes))
                           for topic_id in codes], dtype=np.int64)
        for column, k, shift in zip(self.columns(), (n, 5 * n, n, n, n, n + 1),
                                    (None, 0, 0, 0, self.n_lines, self.id_ends.pop())):
            # a short read fails the reshape
            data = np.frombuffer(pipe.read(8 * k), dtype=np.int64).reshape(k)
            column.frombytes((recode[data] if shift is None else data + shift).view(np.uint8))
        self.id_texts += id_texts
        self.rejects += [(self.n_lines + lineno, reason) for lineno, reason in rejects]
        self.n_lines += n_lines
        return self

    def result(self) -> ParseResult:
        self.drop_repeats()  # frees the id columns before table()
        return ParseResult(self.table(), tuple(self.rejects))

    def drop_repeats(self) -> None:
        """Reject each row whose post_id an earlier row holds (only rows of equal
        hash are compared), give it the code ``len(codes)``, which names no
        topic, and free the id columns."""
        hashes = np.frombuffer(self.hashes, dtype=np.int64)
        order = np.argsort(hashes, kind="stable")  # the rows of a hash in line order
        hashes = hashes[order]
        later = np.flatnonzero(hashes[1:] == hashes[:-1]) + 1  # sorted: the previous's hash
        rows, firsts = order[later], order[np.searchsorted(hashes, hashes[later])]
        by_line = np.argsort(rows)
        rows, firsts = rows[by_line].tolist(), firsts[by_line].tolist()
        text = "".join(self.id_texts) if rows else ""
        del self.id_texts  # the chunks' texts, once joined
        ends, lines = self.id_ends, self.lines
        ids = [text[ends[r]:ends[r + 1]] for r in rows]
        # compared lazily; a mismatch is a hash collision: find the first row per id
        if not all(map(operator.eq, ids, (text[ends[f]:ends[f + 1]] for f in firsts))):
            seen = {(f, text[ends[f]:ends[f + 1]]): f for f in firsts}
            firsts = [seen.setdefault((f, i), r) for f, i, r in zip(firsts, ids, rows)]
            rows, ids, firsts = [list(compress(c, map(operator.ne, rows, firsts)))
                                 for c in (rows, ids, firsts)]
        self.rejects += [(lines[r], f"duplicate post_id {i!r} (first seen on line {lines[f]})")
                         for r, i, f in zip(rows, ids, firsts)]
        self.rejects.sort()  # two runs in line order, merged
        np.frombuffer(self.row_codes, dtype=np.int64)[rows] = len(self.codes)
        del self.hashes, self.lines, self.id_ends

    def table(self) -> PostTable:
        row_codes = np.frombuffer(self.row_codes, dtype=np.int64)
        n_rows = np.bincount(row_codes, minlength=len(self.codes) + 1)  # per code
        names = sorted(compress(self.codes, n_rows.tolist()))  # the topics with a row
        codes = [self.codes[name] for name in names]
        rank = np.full(len(n_rows), len(names))  # the rows of no name sort last
        rank[codes] = np.arange(len(names))
        bounds = np.zeros(len(names) + 1, dtype=np.int64)
        np.cumsum(n_rows[codes], out=bounds[1:])
        order = np.argsort(rank[row_codes], kind="stable")[:bounds[-1]]  # input order in a topic
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


def _check_line(line: str):
    """The per-line checks: the fields of ``line`` in :data:`POST_FIELDS`
    order, the reason it is rejected, or None when it is blank. The timestamp
    is only checked to be a string: :func:`_stamps_us` reads it, after these
    checks.

    A line of the common shape (one JSON object and at most a newline,
    non-empty string ids, five integer counts in range and a string stamp)
    passes a few C-level tests and returns at once. Any other line is decoded
    again by ``json.loads`` and judged check by check; the first that fails
    gives the reason."""
    try:
        obj, end = _raw_decode(line)
        fields = post_id, topic_id, stamp, a, b, c, d, e = _post_fields(obj)
    except (ValueError, KeyError, TypeError, RecursionError):
        pass
    else:
        if ((line[end:] == "\n" or end == len(line))
                and type(post_id) is str and type(topic_id) is str and post_id and topic_id
                and int is type(a) is type(b) is type(c) is type(d) is type(e)
                and 0 <= a <= MAX_COUNT and 0 <= b <= MAX_COUNT and 0 <= c <= MAX_COUNT
                and 0 <= d <= MAX_COUNT and 0 <= e <= MAX_COUNT
                and type(stamp) is str):
            return fields
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # incl. too-deep JSON
        return str(exc)
    if not isinstance(obj, dict):
        return "record is not a JSON object"
    missing = [f for f in POST_FIELDS if f not in obj]
    if missing:
        return f"missing fields: {', '.join(missing)}"
    for name in ("post_id", "topic_id"):
        if not isinstance(obj[name], str) or not obj[name]:
            return f"{name} must be a non-empty string"
    if not isinstance(obj["timestamp"], str):
        return "timestamp must be a string"
    for name in COUNT_FIELDS:
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, int):
            return f"{name} must be an integer"
        if value < 0:
            return f"{name} is negative"
        if value > MAX_COUNT:
            return f"{name} exceeds {MAX_COUNT}"
    return _post_fields(obj)


def _whole_seconds_us(head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the Unix epoch of ``YYYY-MM-DD?HH:MM:SS``, each
    column of ``head`` the 19 ASCII codes of one stamp, and per stamp whether
    it names a real second of years 1-9999. A column of another shape gives
    values that mean nothing."""
    digits = head.astype(np.int64) - ord("0")
    year = digits[0] * 1000 + digits[1] * 100 + digits[2] * 10 + digits[3]
    month, day, hour, minute, second = digits[5::3] * 10 + digits[6::3]
    cycles, year_of_cycle = np.divmod(year, 400)
    next_month = 12 * year_of_cycle + np.clip(month, 1, 12)  # in _MONTH_STARTS
    first = _MONTH_STARTS[next_month - 1]
    in_range = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
                & (day <= _MONTH_STARTS[next_month] - first)
                & (hour < 24) & (minute < 60) & (second < 60))
    days = cycles * 146097 + first + day - 719529  # 0000-01-01 is day -719528
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, in_range


def _stamps_us(texts) -> tuple[np.ndarray, np.ndarray]:
    """int64 microseconds since the Unix epoch of the strings ``texts``, and
    per stamp an index into :data:`_STAMP_REJECTS`: 0 when it was read, 1
    when it is not an RFC 3339 ``date-time``, 2 when it names no real
    instant of years 1-9999 UTC. The value of a stamp not read means nothing.

    Read are ``YYYY-MM-DD``, "T", "t" or a space, ``HH:MM:SS``, optionally
    "." and one or more digits (truncated to microseconds), then "Z", "z"
    or ``+HH:MM``/``-HH:MM``, the offset subtracted from the local time, all
    in ASCII. A field past its range (a day not in its month, an hour of 24,
    a minute or a second of 60, so a leap second too, an offset of 24 hours
    or more) is out of range.
    """
    n = len(texts)
    raw = ("\n".join(texts) + "\n").encode("ascii", "replace")  # one byte a character
    if len(raw) == 21 * n and raw.translate(_SHAPES).count(_ZULU) == n:
        # every stamp has the shape of _ZULU, so stamp i is row i
        us, in_range = _whole_seconds_us(
            np.frombuffer(raw, dtype=np.uint8).reshape(n, 21)[:, :19].T)
        return us, np.where(in_range, 0, 2)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    ends = np.cumsum(lengths + 1) - 1  # the "\n" after each stamp
    starts = ends - lengths
    padded = raw + bytes(32)  # so that every index below lies in the buffers
    chars = np.frombuffer(padded, dtype=np.uint8)
    marks = np.frombuffer(padded.translate(_SHAPES), dtype=np.uint8)
    zulu = marks[ends - 1] == ord("Z")
    sign = marks[ends - 6]  # of "+HH:MM" unless zulu
    decimals = lengths - 20 - np.where(zulu, 1, 6)  # the fraction's digits; -1: no fraction
    # the characters the grammar fixes (punctuation, "T", ".", the zone's
    # letters) hold their marks, and the stamp has as many digits as it has
    # characters left, so every other character is a digit
    grammar = ((lengths >= 20) & (marks[starts + _PUNCTUATION] == _PUNCTUATION_MARKS).all(axis=0)
               & (zulu | (((sign == ord("+")) | (sign == ord("-"))) & (marks[ends - 3] == ord(":"))))
               & ((decimals == -1) | ((decimals >= 1) & (marks[starts + 19] == ord("."))))
               & (np.add.reduceat(marks == ord("0"), starts, dtype=np.int64)
                  == 14 + np.maximum(decimals, 0) + np.where(zulu, 0, 4)))
    text = sliding_window_view(chars, 26)[starts]  # head, ".", 6 fraction digits
    us, in_range = _whole_seconds_us(text[:, :19].T)
    us += np.where(_PLACES < decimals[:, None], text[:, 20:] - ord("0"), 0) @ _MICROS
    zone = chars[ends + _OFFSET_DIGITS].astype(np.int64) - ord("0")
    hours, minutes = zone[0] * 10 + zone[1], zone[2] * 10 + zone[3]
    us -= np.where(zulu, 0, (hours * 60 + minutes)
                   * np.where(sign == ord("-"), -60_000_000, 60_000_000))
    in_range &= ((zulu | ((hours < 24) & (minutes < 60)))
                 & (us >= _FIRST_US) & (us <= _LAST_US))
    return us, np.where(grammar, np.where(in_range, 0, 2), 1)


def parse_posts(stream: Iterable[str]) -> ParseResult:
    """Parse a line-delimited post stream into a :class:`PostTable`.

    Malformed lines are reported with their 1-based line number instead of
    aborting the whole stream; blank lines are skipped silently. A post
    whose ``post_id`` was already accepted is rejected, so a repeated line
    cannot count its engagement twice; the first one is kept.

    The stream is read in chunks of lines, and each chunk goes once through
    :meth:`_Rows.add_chunk`: its lines are read (those at the head of a chunk
    in the layout ``simulate`` writes by one regular expression,
    :data:`_CANONICAL`; the others, and a row whose count the pattern flags,
    by the per-line check :func:`_check_line`, which judges everything but
    the stamp's text), its stamps read at once by :func:`_stamps_us`, and its
    rows kept in line order. Once the stream ends,
    :meth:`_Rows.drop_repeats` finds the repeated post_ids by their hashes.
    What is accepted, the rejects, their order and their reasons are
    therefore those of the per-line checks followed by the stamp reader on
    every input.
    """
    return _read_rows(iter(stream)).result()


def _read_rows(lines: Iterator[str]) -> _Rows:
    """The rows of ``lines``, numbered from 1."""
    rows = _Rows()
    while chunk := list(islice(lines, _CHUNK_LINES)):
        rows.add_chunk(rows.n_lines + 1, chunk)
        rows.n_lines += len(chunk)
    return rows


class _Head(io.RawIOBase):
    """The first ``left`` bytes of the binary file ``fh``."""

    def __init__(self, fh, left: int):
        self.fh, self.left = fh, left

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.fh.readinto(memoryview(buffer)[:self.left])
        self.left -= n
        return n


def fork_halves(head, tail, send, merge):
    """``merge(head(), pipe)``, where a forked child ran ``send(tail(), out)``
    into the pipe. None where the platform cannot fork, fewer than two CPUs
    are allowed or another thread runs, and when either half fails, so that
    the caller does the whole work again in one process."""
    pid = 0
    try:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if not hasattr(os, "fork") or cpus < 2 or threading.active_count() != 1:
            return None
        rfd, wfd = os.pipe()
        with open(rfd, "rb") as pipe, open(wfd, "wb") as out:
            pid = os.fork()
            if pid == 0:  # the child: do the tail, send it, exit
                try:
                    pipe.close()
                    send(tail(), out)
                    out.close()
                    os._exit(0)
                finally:  # reached only when the above raised
                    os._exit(1)
            out.close()
            result = merge(head(), pipe)
        status, pid = os.waitpid(pid, 0)[1], 0
        return None if status else result
    except Exception:
        return None
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def read_halves(path, read, send, merge):
    """:func:`fork_halves` of ``read`` on the head and the tail of the file at
    ``path``: the tail, the lines after the first newline past its middle, as
    UTF-8, and the head, the rest, a BOM skipped. None when the file is
    smaller than :data:`_SPLIT_MIN_BYTES`, has no such newline or is not
    split (see :func:`fork_halves`)."""
    try:
        size = os.path.getsize(path)
        if size < _SPLIT_MIN_BYTES:
            return None
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as m:
            split = m.find(b"\n", size // 2, size - 1) + 1  # 0: no line after the middle
    except (OSError, ValueError):  # ValueError: an empty file cannot be mapped
        return None
    if not split:
        return None

    def head():
        with open(path, "rb", buffering=0) as fh:
            return read(io.TextIOWrapper(io.BufferedReader(_Head(fh, split)),
                                         encoding="utf-8-sig"))

    def tail():
        with open(path, "rb") as fh:  # its own file offset
            fh.seek(split)
            with io.TextIOWrapper(fh, encoding="utf-8") as text:
                return read(text)

    return fork_halves(head, tail, send, merge)


def load_posts(path: str | Path) -> ParseResult:
    """:func:`parse_posts` of the UTF-8 file at ``path``, a BOM skipped. Where
    the platform can fork, two CPUs are allowed and no other thread runs, a
    file of :data:`_SPLIT_MIN_BYTES` or more is parsed in two processes by
    :func:`read_halves`, each half's rows merged before the repeat check; if
    either fails, here again in one, so errors read as those of one process."""
    rows = read_halves(path, _read_rows, _Rows.send, _Rows.extend)
    if rows is not None:
        return rows.result()
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


def read_categories(path: str | Path) -> dict[str, frozenset[str]]:
    """Each topic's categories, from the ``topic_id,category`` CSV (one row
    per pair); InvalidInput on a label not in :data:`CATEGORIES`."""
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
    for topic, cats in pairs.items():
        unknown = cats.difference(CATEGORIES)
        if unknown:
            raise InvalidInput(f"topic {topic!r} has unknown categories {sorted(unknown)}")
    return {topic: frozenset(cats) for topic, cats in pairs.items()}


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable,
              texts: Iterable[str] = ()) -> None:
    """Write ``header`` and ``rows`` as a UTF-8 CSV table with ``\\n`` row ends.

    ``texts`` are the free texts the rows may hold (ids, terms). csv quotes
    a field only for the delimiter, the quote character and the characters
    of the row end, so a field holding a bare ``\\r`` would read back as two
    rows; when any of ``texts`` holds one, every field is quoted.
    """
    quoting = csv.QUOTE_ALL if "\r" in "".join(texts) else csv.QUOTE_MINIMAL
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)
