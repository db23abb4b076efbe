"""Event streams and their aggregation into a time-binned voxel volume.

Events are (t, x, y, p) with t in microseconds and p in {-1, +1}. A window
of the stream is aggregated into an H x W x B grid where B is the number of
temporal bins (default 3); counts are polarity-agnostic by default, with a
signed option.

Event text format: UTF-8 lines "t,x,y,p" with p in {0,1} (0 means -1).
Lines starting with '#' are comments; a header comment may carry
"# H=<int> W=<int>".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

DEFAULT_BINS = 3


class EventFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Event:
    t: int
    x: int
    y: int
    p: int


@dataclass
class EventVolume:
    grid: np.ndarray          # (H, W, B) float64
    window: tuple[int, int]   # (t_start, t_end) microseconds
    bins: int


def _stream_arrays(stream):
    events = list(stream)
    ts = np.array([e.t for e in events], dtype=np.int64)
    xs = np.array([e.x for e in events], dtype=np.int64)
    ys = np.array([e.y for e in events], dtype=np.int64)
    ps = np.array([e.p for e in events], dtype=np.float64)
    return ts, xs, ys, ps


def voxelize(stream, window: tuple[int, int], H: int, W: int,
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
    ts, xs, ys, ps = _stream_arrays(stream)
    t0, t1 = float(t_start), float(t_end)
    tf = ts.astype(np.float64)
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
    counts = np.bincount(cell, weights=ps[keep] if signed else None,
                         minlength=H * W * B)
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


def read_events(path) -> tuple[list[Event], tuple[int, int] | None]:
    """Parse an event text file; returns (events, (H, W) or None).

    Verifies nondecreasing timestamps and, when the header declares
    dimensions, coordinate bounds. Errors report the 1-based line number.
    """
    events: list[Event] = []
    dims = None
    last_t = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise EventFormatError(f"byte {e.start}: not UTF-8") from None
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _HEADER_RE.search(line)
                if m:
                    if events or dims is not None:
                        raise EventFormatError(
                            f"line {lineno}: a second header, or a header "
                            f"after the first event")
                    dims = (int(m.group(1)), int(m.group(2)))
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise EventFormatError(f"line {lineno}: expected 't,x,y,p'")
            try:
                t, x, y, p_raw = (int(s) for s in parts)
            except ValueError:
                raise EventFormatError(f"line {lineno}: non-integer field")
            if p_raw not in (0, 1):
                raise EventFormatError(f"line {lineno}: polarity must be 0 or 1")
            if t < 0:
                raise EventFormatError(f"line {lineno}: negative timestamp")
            if last_t is not None and t < last_t:
                raise EventFormatError(
                    f"line {lineno}: decreasing timestamp {t} < {last_t}")
            if dims is not None:
                H, W = dims
                if not (0 <= x < W and 0 <= y < H):
                    raise EventFormatError(
                        f"line {lineno}: coordinates ({x},{y}) out of bounds")
            events.append(Event(t=t, x=x, y=y, p=1 if p_raw == 1 else -1))
            last_t = t
    return events, dims


def write_events(path, events, dims: tuple[int, int] | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        if dims is not None:
            fh.write(f"# H={dims[0]} W={dims[1]}\n")
        for e in events:
            fh.write(f"{e.t},{e.x},{e.y},{1 if e.p > 0 else 0}\n")
