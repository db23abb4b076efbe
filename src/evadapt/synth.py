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


@dataclass
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
        _check_level("intensity", self.intensity)

    def footprint(self, H: int, W: int, t_ms: float) -> np.ndarray:
        cx = self.position[0] + self.velocity[0] * t_ms
        cy = self.position[1] + self.velocity[1] * t_ms
        ys, xs = np.arange(H)[:, None], np.arange(W)
        if self.kind == "rectangle":
            w, h = self.size
            return ((np.abs(xs - cx) <= w / 2.0)
                    & (np.abs(ys - cy) <= h / 2.0))
        if self.kind == "disk":
            r = self.size[0]
            return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
        raise ValueError(f"unknown shape kind: {self.kind}")


@dataclass
class SceneSpec:
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
        if not self.window_ms > 0:
            raise ValueError("window_ms must be > 0")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        _check_level("background", self.background)
        if not 0.0 <= self.noise_rate < np.inf:
            raise ValueError(f"noise_rate must be finite and >= 0, "
                             f"got {self.noise_rate}")


def _render_plane(spec: SceneSpec, t_ms: float, out: np.ndarray) -> None:
    """Rasterize the scene's (H, W) intensity plane at time t into out."""
    if not 0.0 <= t_ms <= spec.window_ms:
        raise ValueError(f"t={t_ms} ms outside window [0, {spec.window_ms}]")
    out.fill(spec.background)
    for shape in spec.shapes:
        out[shape.footprint(spec.height, spec.width, t_ms)] = shape.intensity


def render_frame(spec: SceneSpec, t_ms: float) -> np.ndarray:
    """Rasterize the scene at time t into an (H, W, 3) grayscale frame."""
    frame = np.empty((spec.height, spec.width))
    _render_plane(spec, t_ms, frame)
    return np.repeat(frame[:, :, None], 3, axis=2)


def ground_truth_masks(spec: SceneSpec, t_ms: float) -> MaskSet:
    """One mask per shape at time t; later shapes occlude earlier ones."""
    if not 0.0 <= t_ms <= spec.window_ms:
        raise ValueError(f"t={t_ms} ms outside window [0, {spec.window_ms}]")
    footprints = [s.footprint(spec.height, spec.width, t_ms)
                  for s in spec.shapes]
    masks = []
    ids = []
    for i, fp in enumerate(footprints):
        vis = fp.copy()
        for above in footprints[i + 1:]:
            vis &= ~above
        if vis.any():
            masks.append(vis)
            ids.append(i)
    return MaskSet(masks=masks, ids=ids)


def _threshold_crossings(logI: np.ndarray, step_ms: float, theta: float):
    """Threshold-crossing events of a (T, H, W) log-intensity sequence.

    Each pixel emits whenever its log-intensity sits a full threshold
    away from the level at its last event, at the linearly interpolated
    crossing time inside the step. Vectorized over pixels, looping over
    steps and then over the pixels that still cross. Returns (t, x, y, p)
    int64 arrays, each pixel's events in emission order.
    """
    T, H, W = logI.shape
    flat = logI.reshape(T, H * W)
    ref = flat[0].copy()
    none = np.empty(0, dtype=np.int64)
    out = [(none, none, none)]
    for k in range(1, T):
        prev, cur = flat[k - 1], flat[k]
        idx = np.flatnonzero(np.abs(cur - ref) >= theta)
        while idx.size:
            c, pv = cur[idx], prev[idx]
            pol = np.where(c - ref[idx] >= theta, 1, -1)
            target = ref[idx] + np.where(pol == 1, theta, -theta)
            # c != pv: every step starts within one threshold of the
            # level, so a pixel that crosses has moved in this step
            frac = np.clip((target - pv) / (c - pv), 0.0, 1.0)
            out.append((((k - 1) + frac) * step_ms * 1000.0, idx, pol))
            ref[idx] = target
            idx = idx[np.abs(c - target) >= theta]
    t, pix, p = (np.concatenate(a) for a in zip(*out))
    return t.astype(np.int64), pix % W, pix // W, p


def generate_events(spec: SceneSpec) -> EventStream:
    """Simulate the event stream over the scene window, sorted by time."""
    # a pixel emits until it is within one threshold of its level, so a
    # threshold <= 0 or an infinite log level would never stop emitting
    if not spec.threshold > 0:
        raise ValueError(f"threshold must be > 0, got {spec.threshold}")
    levels = [spec.background] + [s.intensity for s in spec.shapes]
    if not all(-1.0 < v < np.inf for v in levels):
        raise ValueError("scene intensities must be finite and above -1")
    n_steps = int(spec.window_ms // SIM_STEP_MS) + 1
    H, W = spec.height, spec.width
    logI = np.empty((n_steps, H, W))
    for k, plane in enumerate(logI):
        _render_plane(spec, k * SIM_STEP_MS, plane)
        plane += 1.0
        np.log(plane, out=plane)
    ts, xs, ys, ps = _threshold_crossings(logI, SIM_STEP_MS, spec.threshold)
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
    # stable, so each pixel keeps its own emission order
    order = np.lexsort((xs, ys, ts))
    return EventStream(ts[order], xs[order], ys[order], ps[order])
