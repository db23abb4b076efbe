"""Event streams and their aggregation into a time-binned voxel volume.

Events are (t, x, y, p) with t in microseconds and p in {-1, +1}, held as
an EventStream of four int64 arrays. A window of the stream is aggregated
into an H x W x B grid where B is the number of temporal bins (default 3);
counts are polarity-agnostic by default, with a signed option.

Event text format: UTF-8 lines "t,x,y,p" with p in {0,1} (0 means -1).
Lines starting with '#' are comments; a header comment may carry
"# H=<int> W=<int>".
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

DEFAULT_BINS = 3

_INT64 = np.iinfo(np.int64)


class EventFormatError(ValueError):
    pass


class Event(NamedTuple):
    """One row of an EventStream, kept for the benchmark's row checks."""
    t: int
    x: int
    y: int
    p: int


@dataclass(frozen=True, eq=False)
class EventStream:
    """Events as four equal-length int64 arrays, p in {-1, +1}.

    The constructor is the one place a stream is built: it rejects
    non-integer arrays, unequal lengths and any other polarity with a
    ValueError naming the first bad index.
    """
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in Event._fields:
            a = np.asarray(getattr(self, name))
            if a.size == 0:
                a = a.astype(np.int64)
            if (a.ndim != 1 or a.dtype.kind not in "iu"
                    or not np.can_cast(a.dtype, np.int64)):
                raise ValueError(f"event 0: {name} is not a 1-d integer "
                                 f"array ({a.dtype}, shape {a.shape})")
            n = np.size(self.t)
            if a.size != n:
                raise ValueError(f"event {min(a.size, n)}: {name} has "
                                 f"{a.size} entries, t has {n}")
            object.__setattr__(self, name, a.astype(np.int64, copy=False))
        bad = np.flatnonzero((self.p != 1) & (self.p != -1))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"event {i}: polarity {self.p[i]} is not "
                             f"-1 or +1")

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other):
        if not isinstance(other, EventStream):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in Event._fields)

    # row access, kept only for the benchmark's checks
    def __iter__(self):
        return map(Event._make, zip(self.t.tolist(), self.x.tolist(),
                                    self.y.tolist(), self.p.tolist()))

    def __getitem__(self, i):
        return list(self)[i]


@dataclass
class EventVolume:
    grid: np.ndarray          # (H, W, B) float64
    window: tuple[int, int]   # (t_start, t_end) microseconds
    bins: int


def voxelize(stream: EventStream, window: tuple[int, int], H: int, W: int,
             B: int = DEFAULT_BINS, signed: bool = False) -> EventVolume:
    """Aggregate in-window events into an H x W x B count volume.

    Event at time t lands in bin floor(B*(t-t_start)/(t_end-t_start)),
    clamped to B-1 at t = t_end. Out-of-window events are skipped; an
    in-window event outside the H x W grid is an EventFormatError.
    """
    t_start, t_end = window
    if t_end <= t_start:
        raise ValueError("empty window: t_end must exceed t_start")
    if B < 1:
        raise ValueError("B must be >= 1")
    xs, ys = stream.x, stream.y
    t0, t1 = float(t_start), float(t_end)
    tf = stream.t.astype(np.float64)
    keep = (tf >= t0) & (tf <= t1)
    bad = keep & ((xs < 0) | (xs >= W) | (ys < 0) | (ys >= H))
    if bad.any():
        i = int(np.argmax(bad))
        raise EventFormatError(
            f"event {i}: coordinates ({xs[i]},{ys[i]}) outside the "
            f"{H}x{W} grid")
    b = (B * (tf[keep] - t0) / (t1 - t0)).astype(np.int64)
    b = np.minimum(b, B - 1)
    cell = (ys[keep] * W + xs[keep]) * B + b
    weights = stream.p[keep].astype(np.float64) if signed else None
    counts = np.bincount(cell, weights=weights, minlength=H * W * B)
    grid = counts.astype(np.float64).reshape(H, W, B)
    return EventVolume(grid=grid, window=(t_start, t_end), bins=B)


def normalize_volume(v: EventVolume) -> EventVolume:
    """Per-channel max normalization to [0, 1]; all-zero channels stay zero."""
    grid = v.grid.copy()
    for b in range(v.bins):
        m = np.abs(grid[:, :, b]).max()
        if m > 0:
            grid[:, :, b] = grid[:, :, b] / m
    return EventVolume(grid=grid, window=v.window, bins=v.bins)


_HEADER_RE = re.compile(r"#\s*H=(\d+)\s+W=(\d+)")
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_ints(fields: list[str]):
    """int() of each field as int64, up to the first field that int()
    rejects or that does not fit in int64, whichever is on the earlier
    line (int() first on a tie). Returns (values, index of that field or
    None, what is wrong with it)."""
    vals = []
    stop = what = None
    try:
        # extend keeps what map yielded before int() raised
        vals.extend(map(int, fields))
    except ValueError:
        stop, what = len(vals), "non-integer field"
    try:
        return np.array(vals, dtype=np.int64), stop, what
    except OverflowError:
        v = np.array(vals, dtype=object)
        i = int(np.argmax((v < _INT64.min) | (v > _INT64.max)))
        if stop is None or i // 4 < stop // 4:
            stop, what = i, "integer field out of int64 range"
        return np.array(vals[:i], dtype=np.int64), stop, what


def _c_ints(text: str, rows: list[str]):
    """The rows' fields as int64 through numpy's C reader, or None when it
    refuses a field, reads other than four fields a row, or warns.

    Where it accepts a field, int() gives the same value, but only in
    ASCII text without the separators \\x1c-\\x1f: numpy strips those as
    whitespace and int() rejects them, and numpy 2.4 reads some non-ASCII
    letters as digits ("\\u01fe" as 462). Other text gets None.
    """
    if not text.isascii() or any(map(text.__contains__, _SEPARATORS)):
        return None
    try:
        with warnings.catch_warnings():
            # a numpy that still reads "1.0" as an integer warns
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=np.int64, delimiter=",",
                               comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    return table.ravel() if table.shape == (len(rows), 4) else None


def read_events(path) -> tuple[EventStream, tuple[int, int] | None]:
    """Parse an event text file; returns (stream, (H, W) or None).

    Verifies nondecreasing timestamps and, when the header declares
    dimensions, coordinate bounds. Errors report the 1-based line number
    of the first bad line, and for that line the first failing check in
    the order: field count, integer fields, polarity, sign, order, bounds.
    The data rows go through numpy's C reader; a file it refuses goes
    through int() per field, so what is accepted, and every error, is
    the same as int() alone gives.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise EventFormatError(f"byte {e.start}: not UTF-8") from None
    lines = list(map(str.strip, text.split("\n")))
    n = len(lines)
    hashed = np.fromiter(map(str.startswith, lines, repeat("#")), dtype=bool,
                         count=n)
    data = np.fromiter(map(bool, lines), dtype=bool, count=n) & ~hashed
    data_no = np.flatnonzero(data) + 1
    rows = list(compress(lines, data))

    # (line number, check rank, what failed) of the first failure of each
    # check; a line reports the first check it fails, in the order below
    errors = []

    def first(mask, line_no, what):
        hit = np.flatnonzero(mask)
        if hit.size:
            i = int(hit[0])
            errors.append((int(line_no[i]), len(errors),
                           what(i) if callable(what) else what))

    matches = list(map(_HEADER_RE.search, compress(lines, hashed)))
    header_no = np.flatnonzero(hashed)[np.fromiter(
        map(bool, matches), dtype=bool, count=len(matches))] + 1
    dims = None
    if header_no.size:
        h = next(filter(None, matches))
        dims = (int(h.group(1)), int(h.group(2)))
        late = np.arange(header_no.size) > 0
        if data_no.size:
            late |= header_no > data_no[0]
        first(late, header_no,
              "a second header, or a header after the first event")

    # numpy's C reader takes a well-formed file; int() per field reads any
    # other, and finds its first bad line
    vals = _c_ints(text, rows)
    stop, line_no = None, data_no
    if vals is None:
        four = np.fromiter(map(str.count, rows, repeat(",")),
                           dtype=np.int64, count=len(rows)) == 3
        first(~four, data_no, "expected 't,x,y,p'")
        line_no = data_no[four]
        vals, stop, what = _parse_ints(
            ",".join(compress(rows, four)).split(",") if four.any() else [])
    parsed = vals.size // 4
    if stop is not None:
        # the line holding the bad field fails here, and no later line
        # can fail first: only the lines before it go on to the checks
        parsed = stop // 4
        errors.append((int(line_no[parsed]), len(errors), what))
    t, x, y, p = vals[:4 * parsed].reshape(-1, 4).T
    line_no = line_no[:parsed]
    first((p != 0) & (p != 1), line_no, "polarity must be 0 or 1")
    first(t < 0, line_no, "negative timestamp")
    first(np.r_[False, t[1:] < t[:-1]], line_no,
          lambda i: f"decreasing timestamp {t[i]} < {t[i - 1]}")
    if dims is not None:
        H, W = dims
        out = (line_no > header_no[0]) & ((x < 0) | (x >= W)
                                          | (y < 0) | (y >= H))
        first(out, line_no,
              lambda i: f"coordinates ({x[i]},{y[i]}) out of bounds")
    if errors:
        lineno, _, what = min(errors)
        raise EventFormatError(f"line {lineno}: {what}")
    return EventStream(t, x, y, 2 * p - 1), dims


def write_events(path, stream: EventStream,
                 dims: tuple[int, int] | None = None):
    rows = np.stack([stream.t, stream.x, stream.y, stream.p > 0], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        if dims is not None:
            fh.write(f"# H={dims[0]} W={dims[1]}\n")
        fh.write("%d,%d,%d,%d\n" * len(stream) % tuple(rows.ravel().tolist()))
