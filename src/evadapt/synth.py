"""Synthetic moving-shape scenes: paired frames, event streams, and masks.

An idealized noise-free event camera watches grayscale shapes translate at
constant velocity over a flat background. Events fire whenever the
per-pixel log-intensity (log(I + 1)) moves a full threshold away from the
level at the last event, with the crossing time linearly interpolated
inside the 1 ms simulation step. Optional uniform background noise events
are available as a realism knob (default off).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import EventStream
from .metrics import MaskSet

SIM_STEP_MS = 1.0
KINDS = ("rectangle", "disk")


def _check_level(name: str, v: float):
    # log(I + 1) must be finite
    if not -1.0 < v < np.inf:
        raise ValueError(f"{name} must be finite and above -1, got {v}")


@dataclass(frozen=True)
class Shape:
    kind: str                  # "rectangle" | "disk"
    position: tuple[float, float]   # (x, y) center at t = 0, pixels
    size: tuple[float, float]       # rectangle (w, h) or disk (radius, _)
    velocity: tuple[float, float] = (0.0, 0.0)  # px per ms
    intensity: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {', '.join(KINDS)}, "
                             f"got {self.kind!r}")
        for name in ("position", "size", "velocity"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)}")
        _check_level("intensity", self.intensity)


@dataclass(frozen=True)
class SceneSpec:
    """A scene, checked once when it is built: a spec and its shapes are
    frozen, so the simulator takes every check as read. Only the shapes
    list can grow, and only by shapes that passed their own checks."""
    height: int = 32
    width: int = 32
    shapes: list[Shape] = field(default_factory=list)
    background: float = 0.1
    window_ms: float = 40.0
    threshold: float = 0.15
    noise_rate: float = 0.0     # expected noise events per pixel per ms
    seed: int = 0

    def __post_init__(self):
        for name in ("height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.window_ms < np.inf:
            raise ValueError(f"window_ms must be finite and > 0, "
                             f"got {self.window_ms}")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        _check_level("background", self.background)
        if not 0.0 <= self.noise_rate < np.inf:
            raise ValueError(f"noise_rate must be finite and >= 0, "
                             f"got {self.noise_rate}")
        # an event's t <= 1000 window_ms, so its sort key (t·H + y)·W + x
        # is under (1000 window_ms + 1)·H·W
        H, W = self.height, self.width
        if (int(self.window_ms * 1000) + 1) * H * W > 2 ** 63:
            raise ValueError(f"a {H}x{W} grid over {self.window_ms} ms "
                             f"overflows the int64 event sort key")


def _span(inside: np.ndarray) -> slice:
    """The slice from the first to the last column of the (T, n) `inside`
    that holds at some step."""
    hit = inside.any(axis=0).nonzero()[0]
    return slice(hit[0], hit[-1] + 1) if hit.size else slice(0, 0)


def _swept_footprints(shape: Shape, H: int, W: int, ts: np.ndarray):
    """The shape's footprints at the times ts, inside its swept box.

    Returns the box, (rows, cols) slices of the (H, W) grid, and the
    (len(ts), rows, cols) footprints in it; each pixel is tested in the
    arithmetic of a full-grid test. The box spans every row and column
    that passes its own axis test at some time: a rectangle's test is
    the AND of its two axis tests, and a disk's sum of two squares is no
    smaller than either square, so no pixel outside the box is inside.
    """
    cx = (shape.position[0] + shape.velocity[0] * ts)[:, None]
    cy = (shape.position[1] + shape.velocity[1] * ts)[:, None]
    xs, ys = np.arange(W), np.arange(H)
    if shape.kind == "rectangle":
        w, h = shape.size
        in_x = np.abs(xs - cx) <= w / 2.0
        in_y = np.abs(ys - cy) <= h / 2.0
        rows, cols = _span(in_y), _span(in_x)
        return (rows, cols), in_y[:, rows, None] & in_x[:, None, cols]
    rr = shape.size[0] * shape.size[0]  # a disk
    dx2, dy2 = (xs - cx) ** 2, (ys - cy) ** 2
    rows, cols = _span(dy2 <= rr), _span(dx2 <= rr)
    return (rows, cols), dx2[:, None, cols] + dy2[:, rows, None] <= rr


def _paint(spec: SceneSpec, ts: np.ndarray, values: np.ndarray):
    """The planes at the times ts inside the union of the shapes' swept
    boxes: values[0] everywhere, shape i's footprint painted
    values[i + 1], later shapes on top. Outside that box every plane is
    values[0] at every time. Returns the box, (rows, cols) slices of the
    (H, W) grid, and the (len(ts), rows, cols) planes in it."""
    swept = [(value, *_swept_footprints(shape, spec.height, spec.width, ts))
             for shape, value in zip(spec.shapes, values[1:])]
    swept = [s for s in swept if s[2].size]  # an empty box paints nothing
    y0, x0 = (min((s[1][a].start for s in swept), default=0) for a in (0, 1))
    y1, x1 = (max((s[1][a].stop for s in swept), default=0) for a in (0, 1))
    planes = np.full((len(ts), y1 - y0, x1 - x0), values[0])
    for value, (rows, cols), fp in swept:
        planes[:, rows.start - y0:rows.stop - y0,
               cols.start - x0:cols.stop - x0][fp] = value
    return (slice(y0, y1), slice(x0, x1)), planes


def _levels(spec: SceneSpec) -> np.ndarray:
    """The background's intensity, then each shape's."""
    return np.array([spec.background] + [s.intensity for s in spec.shapes],
                    dtype=np.float64)


def _plane(spec: SceneSpec, t_ms: float, values: np.ndarray) -> np.ndarray:
    """The (H, W) plane at time t, inside the scene's window: values[0]
    everywhere, shape i's visible cells values[i + 1]."""
    if not 0.0 <= t_ms <= spec.window_ms:
        raise ValueError(f"t={t_ms} ms outside window [0, {spec.window_ms}]")
    plane = np.full((spec.height, spec.width), values[0])
    box, planes = _paint(spec, np.array([t_ms], dtype=np.float64), values)
    plane[box] = planes[0]
    return plane


def render_frame(spec: SceneSpec, t_ms: float) -> np.ndarray:
    """Rasterize the scene at time t into an (H, W, 3) grayscale frame."""
    return np.repeat(_plane(spec, t_ms, _levels(spec))[:, :, None], 3, axis=2)


def ground_truth_masks(spec: SceneSpec, t_ms: float) -> MaskSet:
    """The mask of each shape visible at time t, as one stack: the scene
    painted with shape i as i + 1, so later shapes occlude earlier ones."""
    n = len(spec.shapes)
    plane = _plane(spec, t_ms, np.arange(n + 1))
    masks = plane == np.arange(1, n + 1)[:, None, None]
    shown = masks.any(axis=(1, 2))
    return MaskSet(masks=masks[shown], ids=np.flatnonzero(shown).tolist())


def _threshold_crossings(logI: np.ndarray, step_ms: float, theta: float):
    """Threshold-crossing events of a (T, H, W) log-intensity sequence.

    Each pixel emits whenever its log-intensity sits a full threshold
    away from the level at its last event, at the linearly interpolated
    crossing time inside the step. Every step ends with each pixel
    within one threshold of its level, so only a step that changes a
    pixel can make it cross. Round j takes each pixel's j-th change,
    vectorized over pixels, and loops over the pixels that still cross.
    Returns (t, x, y, p) int64 arrays, each pixel's events in emission
    order.
    """
    T, H, W = logI.shape
    n = H * W
    flat = logI.reshape(T * n)
    ref = flat[:n].copy()
    # the flat index (k - 1) * n + pixel of each change from step k - 1
    # to k, by pixel and then by step; at: each live pixel's next change
    q = np.flatnonzero(flat[n:] != flat[:-n])
    q = q[np.argsort(q % n, kind="stable")]
    q_pix = q % n
    at = np.flatnonzero(np.diff(q_pix, prepend=-1))
    end = np.append(at[1:], q.size)
    none = np.empty(0, dtype=np.int64)
    out = [(none, none, none)]
    while at.size:
        idx, pix = q[at], q_pix[at]
        keep = np.abs(flat[idx + n] - ref[pix]) >= theta
        idx, pix = idx[keep], pix[keep]
        while idx.size:
            c, pv = flat[idx + n], flat[idx]
            pol = np.where(c - ref[pix] >= theta, 1, -1)
            target = ref[pix] + np.where(pol == 1, theta, -theta)
            # c != pv: the pixel changed in this step
            frac = np.clip((target - pv) / (c - pv), 0.0, 1.0)
            out.append(((idx // n + frac) * step_ms * 1000.0, pix, pol))
            ref[pix] = target
            keep = np.abs(c - target) >= theta
            idx, pix = idx[keep], pix[keep]
        at += 1
        live = at < end
        at, end = at[live], end[live]
    t, pix, p = (np.concatenate(a) for a in zip(*out))
    return t.astype(np.int64), pix % W, pix // W, p


def generate_events(spec: SceneSpec) -> EventStream:
    """Simulate the event stream over the scene window, sorted by time."""
    H, W = spec.height, spec.width
    steps = np.arange(int(spec.window_ms // SIM_STEP_MS) + 1) * SIM_STEP_MS
    # no pixel outside the shapes' swept box changes, so none can cross
    (rows, cols), logI = _paint(spec, steps, np.log(_levels(spec) + 1.0))
    ts, xs, ys, ps = _threshold_crossings(logI, SIM_STEP_MS, spec.threshold)
    xs += cols.start
    ys += rows.start
    if spec.noise_rate > 0:
        rng = np.random.default_rng(spec.seed)
        n_noise = rng.poisson(spec.noise_rate * spec.window_ms * H * W)
        noise = np.empty((n_noise, 4), dtype=np.int64)
        for i in range(n_noise):
            noise[i] = (rng.integers(0, int(spec.window_ms * 1000) + 1),
                        rng.integers(0, W), rng.integers(0, H),
                        rng.choice([-1, 1]))
        ts, xs, ys, ps = (np.concatenate([a, noise[:, j]])
                          for j, a in enumerate((ts, xs, ys, ps)))
    # sort on one int64 key (t, y, x), which SceneSpec checked to fit.
    # Stable, so each pixel keeps its own emission order
    order = np.argsort((ts * H + ys) * W + xs, kind="stable")
    return EventStream(ts[order], xs[order], ys[order], ps[order])
