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
from typing import NamedTuple

import numpy as np

DEFAULT_BINS = 3

_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


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


def voxelize(stream: EventStream, window: tuple[int, int], H: int, W: int,
             B: int = DEFAULT_BINS, signed: bool = False) -> EventVolume:
    """Aggregate in-window events into an H x W x B count volume.

    Event at time t lands in bin floor(B*(t-t_start)/(t_end-t_start)),
    clamped to B-1 at t = t_end. Out-of-window events are skipped; an
    in-window event outside the H x W grid is an EventFormatError, and a
    grid numpy cannot allocate, or of more than 2^63 - 1 cells, a
    ValueError naming it.
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
    weights = stream.p[keep].astype(np.float64) if signed else None
    # a cell count past int64 stops at `size`, before the bin and cell
    # arithmetic can overflow or warn of an invalid cast
    try:
        size = np.int64(H * W * B)
        b = (B * (tf[keep] - t0) / (t1 - t0)).astype(np.int64)
        b = np.minimum(b, B - 1)
        cell = (ys[keep] * W + xs[keep]) * B + b
        grid = np.bincount(cell, weights=weights, minlength=size) \
            .astype(np.float64, copy=False).reshape(H, W, B)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"the {H}x{W} grid of {B} bins is too large to "
                         "hold") from None
    return EventVolume(grid=grid)


def normalize_volume(v: EventVolume) -> EventVolume:
    """Per-channel max normalization to [0, 1]; all-zero channels stay zero."""
    grid = v.grid.copy()
    for b in range(grid.shape[2]):
        m = np.abs(grid[:, :, b]).max()
        if m > 0:
            grid[:, :, b] = grid[:, :, b] / m
    return EventVolume(grid=grid)


_HEADER_RE = re.compile(r"#\s*H=(\d+)\s+W=(\d+)")
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _header(line: str) -> tuple[int, int] | None:
    """(H, W) of a "# H=<int> W=<int>" comment line, or None."""
    m = _HEADER_RE.search(line)
    if m is None:
        return None
    try:
        return int(m.group(1)), int(m.group(2))
    except ValueError:  # beyond int()'s 4300-digit limit
        raise EventFormatError("header dimension has too many digits") \
            from None


def _c_reader(text: str):
    """(stream, dims) of text in the layout `write_events` writes, read
    by numpy's C reader in one call, or None.

    The layout: the only '#' opens line 1, whose header gives the dims,
    every other line is empty or four int64 fields, and whole-array
    checks pass: polarity, sign, order, and bounds under a header.
    Where numpy accepts a field, int() gives the same value, but only in
    ASCII text without the separators \\x1c-\\x1f: numpy strips those as
    whitespace and int() rejects them, and numpy 2.4 reads some non-ASCII
    letters as digits ("\\u01fe" as 462). Other text gets None.
    """
    if (not text.isascii() or any(map(text.__contains__, _SEPARATORS))
            or text.count("#") != text.startswith("#")):
        return None
    lines = text.split("\n")
    try:
        dims = _header(lines[0])
        with warnings.catch_warnings():
            # a numpy that still reads "1.0" as an integer warns, and a
            # file of no rows warns
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=np.int64, delimiter=",",
                               comments="#", ndmin=2)
    except (ValueError, OverflowError, Warning):  # EventFormatError too
        return None
    if table.shape[1] != 4:
        return None
    t, x, y, p = table.T
    ok = (((p == 0) | (p == 1)).all() and (t >= 0).all()
          and (t[1:] >= t[:-1]).all())
    if ok and dims is not None:
        H, W = dims
        ok = ((x >= 0) & (x < W) & (y >= 0) & (y < H)).all()
    return (EventStream(t, x, y, 2 * p - 1), dims) if ok else None


def _read_lines(lines: list[str]):
    """(stream, dims) of the stripped lines, read one line at a time as
    the format is specified: the first bad line raises, naming the first
    check it fails in the order header, field count, integer fields, int64
    range, polarity, sign, order, bounds."""
    rows, dims, last_t = [], None, 0
    for no, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            if line.startswith("#"):
                header = _header(line)
                if header and (rows or dims is not None):
                    raise EventFormatError("a second header, or a header "
                                           "after the first event")
                dims = header or dims
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise EventFormatError("expected 't,x,y,p'")
            try:
                t, x, y, p = map(int, fields)
            except ValueError:
                raise EventFormatError("non-integer field") from None
            if min(t, x, y, p) < _INT64_MIN or max(t, x, y, p) > _INT64_MAX:
                raise EventFormatError("integer field out of int64 range")
            if p not in (0, 1):
                raise EventFormatError("polarity must be 0 or 1")
            if t < 0:
                raise EventFormatError("negative timestamp")
            if t < last_t:
                raise EventFormatError(f"decreasing timestamp {t} < {last_t}")
            if dims is not None and not (0 <= x < dims[1]
                                         and 0 <= y < dims[0]):
                raise EventFormatError(f"coordinates ({x},{y}) out of bounds")
        except EventFormatError as e:
            raise EventFormatError(f"line {no}: {e}") from None
        rows.append((t, x, y, p))
        last_t = t
    t, x, y, p = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return EventStream(t, x, y, 2 * p - 1), dims


def read_events(path) -> tuple[EventStream, tuple[int, int] | None]:
    """Parse an event text file; returns (stream, (H, W) or None).

    A file in the layout `write_events` writes is read by `_c_reader`.
    Every other file goes to `_read_lines`, the format's specification,
    which gives the same values for a file both accept, and every error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise EventFormatError(f"byte {e.start}: not UTF-8") from None
    return (_c_reader(text)
            or _read_lines(list(map(str.strip, text.split("\n")))))


def write_events(path, stream: EventStream,
                 dims: tuple[int, int] | None = None):
    rows = np.stack([stream.t, stream.x, stream.y, stream.p > 0], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        if dims is not None:
            fh.write(f"# H={dims[0]} W={dims[1]}\n")
        fh.write("%d,%d,%d,%d\n" * len(stream) % tuple(rows.ravel().tolist()))
