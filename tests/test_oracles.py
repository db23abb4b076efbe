"""Vectorized hot paths against the scalar loops they replaced.

Each reference below is the plain per-element loop: per-pixel threshold
crossings, per-event voxel accumulation, the per-line event text parser
and writer, per-cell mask overlap, flood-fill component labelling and the
RLE while-loop. The vectorized code does the same float64 arithmetic
elementwise, so every comparison is exact. Reference events are
(t, x, y, p) tuples. The one-node distillation objective is checked the
same way against the chain of single-operation graph nodes it replaced,
the stacked student step against the one-graph-per-sample step, the
flat Adam pass against the per-entry update, and the dataset-order
teacher cache against restacking every chunk every step. The per-mask
RLE writer, the one-loop mask reader and the `count_nonzero` overlap
table are kept as they were before one array pass replaced each, and the
pass must match them exactly.

The test-only graph nodes and the one-term rollout approximation
`transition_approx` live here too; the other test modules import them.
"""

import functools
import hashlib
import os
import re
import tempfile
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from evadapt import (autodiff, cli, distill, encoder, events, io, metrics,
                     significance, synth, trainer)
from evadapt.autodiff import Tensor
from evadapt.events import (EventFormatError, EventStream, read_events,
                            voxelize, write_events)
from test_io import _mutate


# -- reference loops ---------------------------------------------------------

def ref_threshold_crossings(logI, step_ms, theta):
    T, H, W = logI.shape
    out = []
    for y in range(H):
        for x in range(W):
            ref = logI[0, y, x]
            for k in range(1, T):
                prev = logI[k - 1, y, x]
                cur = logI[k, y, x]
                while True:
                    diff = cur - ref
                    if diff >= theta:
                        pol = 1
                    elif diff <= -theta:
                        pol = -1
                    else:
                        break
                    target = ref + (theta if pol == 1 else -theta)
                    if cur != prev:
                        frac = (target - prev) / (cur - prev)
                    else:
                        frac = 1.0
                    if frac < 0.0:
                        frac = 0.0
                    elif frac > 1.0:
                        frac = 1.0
                    out.append((int(((k - 1) + frac) * step_ms * 1000.0),
                                x, y, pol))
                    ref = target
    return out


def ref_footprint(shape, H, W, t_ms):
    """The shape's (H, W) footprint at time t, tested over the full grid."""
    cx = shape.position[0] + shape.velocity[0] * t_ms
    cy = shape.position[1] + shape.velocity[1] * t_ms
    ys, xs = np.arange(H)[:, None], np.arange(W)
    if shape.kind == "rectangle":
        w, h = shape.size
        return (np.abs(xs - cx) <= w / 2.0) & (np.abs(ys - cy) <= h / 2.0)
    r = shape.size[0]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


def ref_render_plane(spec, t_ms):
    plane = np.full((spec.height, spec.width), spec.background,
                    dtype=np.float64)
    for shape in spec.shapes:
        plane[ref_footprint(shape, spec.height, spec.width, t_ms)] = \
            shape.intensity
    return plane


def ref_ground_truth_masks(spec, t_ms):
    """(id, visible mask) of each shape with a visible cell at time t: a
    shape's footprint less those of the shapes after it."""
    fps = [ref_footprint(s, spec.height, spec.width, t_ms)
           for s in spec.shapes]
    out = []
    for i, fp in enumerate(fps):
        vis = fp.copy()
        for above in fps[i + 1:]:
            vis &= ~above
        if vis.any():
            out.append((i, vis))
    return out


def ref_generate_events(spec):
    n_steps = int(round(spec.window_ms / synth.SIM_STEP_MS)) + 1
    H, W = spec.height, spec.width
    logI = np.empty((n_steps, H, W))
    for k in range(n_steps):
        logI[k] = np.log(ref_render_plane(spec, k * synth.SIM_STEP_MS) + 1.0)
    events = ref_threshold_crossings(logI, synth.SIM_STEP_MS, spec.threshold)
    if spec.noise_rate > 0:
        rng = np.random.default_rng(spec.seed)
        n_noise = rng.poisson(spec.noise_rate * spec.window_ms * H * W)
        for _ in range(n_noise):
            events.append(
                (int(rng.integers(0, int(spec.window_ms * 1000) + 1)),
                 int(rng.integers(0, W)), int(rng.integers(0, H)),
                 int(rng.choice([-1, 1]))))
    return stable_sorted(events)


def ref_voxelize(events, t_start, t_end, H, W, B, signed):
    grid = np.zeros((H, W, B), dtype=np.float64)
    t_start, t_end = float(t_start), float(t_end)
    span = float(t_end - t_start)
    for t, x, y, p in events:
        t = np.float64(t)
        if t < t_start or t > t_end:
            continue
        b = int(B * (t - t_start) / span)
        if b >= B:
            b = B - 1
        grid[y, x, b] += float(p) if signed else 1.0
    return grid


_HEADER_RE = re.compile(r"#\s*H=(\d+)\s+W=(\d+)")


def ref_read_events(path):
    events = []
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
                    try:
                        header = (int(m.group(1)), int(m.group(2)))
                    except ValueError:
                        raise EventFormatError(
                            f"line {lineno}: header dimension has too many "
                            f"digits")
                    if events or dims is not None:
                        raise EventFormatError(
                            f"line {lineno}: a second header, or a header "
                            f"after the first event")
                    dims = header
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise EventFormatError(f"line {lineno}: expected 't,x,y,p'")
            try:
                t, x, y, p_raw = (int(s) for s in parts)
            except ValueError:
                raise EventFormatError(f"line {lineno}: non-integer field")
            if not all(-2 ** 63 <= v < 2 ** 63 for v in (t, x, y, p_raw)):
                raise EventFormatError(
                    f"line {lineno}: integer field out of int64 range")
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
            events.append((t, x, y, 1 if p_raw == 1 else -1))
            last_t = t
    return events, dims


def ref_write_events(path, events, dims=None):
    with open(path, "w", encoding="utf-8") as fh:
        if dims is not None:
            fh.write(f"# H={dims[0]} W={dims[1]}\n")
        for t, x, y, p in events:
            fh.write(f"{t},{x},{y},{1 if p > 0 else 0}\n")


def ref_overlap(gt, pred):
    gm = np.stack([m.astype(np.uint8).ravel() for m in gt])
    pm = np.stack([m.astype(np.uint8).ravel() for m in pred])
    inter = np.zeros((len(gt), len(pred)), dtype=np.int64)
    for g in range(len(gt)):
        for p in range(len(pred)):
            s = 0
            for j in range(gm.shape[1]):
                if gm[g, j] != 0 and pm[p, j] != 0:
                    s += 1
            inter[g, p] = s
    return inter, gm.sum(axis=1), pm.sum(axis=1)


def ref_label_components(mask):
    H, W = mask.shape
    labels = np.zeros((H, W), dtype=np.int64)
    current = 0
    for y0 in range(H):
        for x0 in range(W):
            if not mask[y0, x0] or labels[y0, x0] != 0:
                continue
            current += 1
            labels[y0, x0] = current
            stack = [(y0, x0)]
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if (0 <= ny < H and 0 <= nx < W and mask[ny, nx]
                            and labels[ny, nx] == 0):
                        labels[ny, nx] = current
                        stack.append((ny, nx))
    return labels, current


def ref_write_masks(path, masks, ids, shape):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# H={shape[0]} W={shape[1]}\n")
        for mid, mask in zip(ids, masks):
            flat = np.asarray(mask, dtype=bool).ravel()
            runs = []
            i = 0
            n = flat.size
            while i < n:
                if flat[i]:
                    j = i
                    while j < n and flat[j]:
                        j += 1
                    runs.append(f"{i},{j - i}")
                    i = j
                else:
                    i += 1
            fh.write(f"{mid}: {' '.join(runs)}\n")


def ref_write_masks_per_mask(path, masks, ids, shape):
    """write_masks with one edge pass and one line of text per mask."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# H={shape[0]} W={shape[1]}\n")
        for mid, mask in zip(ids, masks):
            flat = np.asarray(mask, dtype=bool).ravel()
            edges = np.flatnonzero(np.diff(flat, prepend=False, append=False))
            runs = " ".join(f"{i},{j - i}" for i, j in
                            zip(edges[0::2].tolist(), edges[1::2].tolist()))
            fh.write(f"{mid}: {runs}\n")


def ref_read_masks(path):
    """read_masks as one loop: each line parsed, checked and filled in
    turn, one run at a time."""
    shape = None
    masks, lines = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise io.DumpFormatError(f"byte {e.start}: not UTF-8") from None
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = io._MASK_HEADER.fullmatch(line)
                if m is None or shape is not None:
                    raise io.DumpFormatError(
                        f"line {lineno}: expected one '# H=.. W=..' header")
                try:
                    shape = (int(m.group(1)), int(m.group(2)))
                except ValueError:
                    raise io.DumpFormatError(f"line {lineno}: header "
                                             "dimension has too many digits")
                header = lineno
                continue
            if shape is None:
                raise io.DumpFormatError(
                    "mask file missing '# H=.. W=..' header")
            head, _, body = line.partition(":")
            try:
                mid = int(head)
                runs = [[int(v) for v in run.split(",")]
                        for run in body.split()]
            except ValueError:
                raise io.DumpFormatError(
                    f"line {lineno}: expected 'id: start,len ...'") from None
            if mid in lines:
                raise io.DumpFormatError(
                    f"line {lineno}: mask id {mid} repeats line {lines[mid]}")
            lines[mid] = lineno
            flat = ref_grid(shape, header, 1)[0]
            for run in runs:
                if (len(run) != 2 or run[0] < 0 or run[1] < 1
                        or sum(run) > flat.size):
                    raise io.DumpFormatError(
                        f"line {lineno}: run {run} is not a nonempty "
                        f"start,len inside the {shape[0]}x{shape[1]} grid")
                flat[run[0]:sum(run)] = True
            masks.append(flat.reshape(shape))
    if shape is None:
        raise io.DumpFormatError("empty mask file")
    if not masks:
        ref_grid(shape, header, 0)  # an empty set still has its grid
    return masks, list(lines), shape


def ref_grid(shape, header, n):
    """n clear flat masks of the grid, or the error naming the header."""
    try:
        return np.zeros((n, shape[0] * shape[1]), dtype=bool)
    except (ValueError, MemoryError):
        raise io.DumpFormatError(
            f"line {header}: the {shape[0]}x{shape[1]} grid is too "
            "large to hold") from None


def ref_overlap_table(gt, pred):
    """_overlap_table counting cells of bool stacks, one GT row at a time."""
    gm, pm = (np.array([np.ravel(m) for m in s.masks], dtype=bool)
              .reshape(len(s), gt.masks[0].size) for s in (gt, pred))
    inter = np.stack([np.count_nonzero(pm & g, axis=1) for g in gm])
    return inter, np.count_nonzero(gm, axis=1), np.count_nonzero(pm, axis=1)


# -- test-only graph nodes ----------------------------------------------------
# Tensor has only +, reshape and .T. These nodes carry the numpy arithmetic
# of the Tensor methods the fused nodes replaced, so the old chains stay
# checkable bit for bit.

def dot(out, g):
    """sum(out.data * g) as a scalar node whose backward hands g to out:
    the value and gradient of (out * Tensor(g)).sum(). g broadcasts to
    out's shape, so dot(out, 1.0) is out.sum()."""
    g = np.broadcast_to(np.asarray(g, dtype=np.float64), out.shape)
    return Tensor._from_op((out.data * g).sum(), (out,),
                           lambda up: (up * g,))


def sub(a, b):
    """a - b, as a + (-b)."""
    return Tensor._from_op(a.data + -b.data, (a, b), lambda g: (g, -g))


def absolute(x):
    return Tensor._from_op(np.abs(x.data), (x,),
                           lambda g: (g * np.sign(x.data),))


def scale(x, w):
    """x times the constant w, broadcast over x's shape."""
    return Tensor._from_op(x.data * w, (x,), lambda g: (g * w,))


def mean(x):
    """The sum of every element over a constant count."""
    n = float(x.data.size)
    return Tensor._from_op(x.data.sum() / n, (x,),
                           lambda g: (np.broadcast_to(g / n, x.shape).copy(),))


def ref_layer_loss(x_m, x_e, w):
    """One layer's weighted mean absolute difference as a node chain."""
    diff = absolute(sub(x_m, x_e))
    if w is None:
        return mean(diff)
    return mean(scale(diff, w.reshape(-1, 1)))


def ref_distill_loss(teacher, student, cfg, weights=None):
    """distill_loss as one node per operation: per layer the chain above,
    scaled by its gamma, summed left to right."""
    if weights is None:
        weights = distill.layer_weights(cfg, (
            student if cfg.attention_source == "student" else teacher
        ).attentions)
    breakdown, total = {}, None
    for layer, w in zip(cfg.layers, weights):
        term = ref_layer_loss(Tensor(teacher.embeddings[layer].data),
                              student.embeddings[layer], w)
        breakdown[layer] = term.item()
        term = scale(term, cfg.gamma_for(layer))
        total = term if total is None else total + term
    return total, breakdown


def transition_approx(stack, s, beta, horizon=None):
    """One-term rollout approximation: beta * (P^(s) ... P^(n)) +
    (1 - beta) * I, the product truncated to `horizon` layers past s when
    it is set. token_significance equals it times the ones vector."""
    mats = significance._layers(stack, s, horizon)
    significance._check_range("beta", beta)
    k = stack[0].shape[0]
    product = functools.reduce(np.matmul, mats, np.eye(k))
    return beta * product + (1.0 - beta) * np.eye(k)


def stable_sorted(events):
    return sorted(events, key=lambda e: (e[0], e[2], e[1]))


def stream_of(rows):
    """The EventStream of (t, x, y, p) tuples."""
    return EventStream(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


# -- strategies ----------------------------------------------------------------

# a few shared levels give flat steps (cur == prev) and jumps of several
# thresholds inside one step; -0.0 equals 0.0 in a different bit pattern
LEVELS = [0.0, 0.05, 0.15, 0.3, 0.45, 0.7, 1.0, -0.2, -0.0]


@st.composite
def log_sequences(draw):
    T = draw(st.integers(1, 6))
    H = draw(st.integers(1, 4))
    W = draw(st.integers(1, 4))
    level = st.one_of(st.sampled_from(LEVELS),
                      st.floats(-1.0, 1.5, allow_nan=False))
    vals = draw(st.lists(level, min_size=T * H * W, max_size=T * H * W))
    return np.array(vals, dtype=np.float64).reshape(T, H, W)


@st.composite
def scene_shapes(draw, i, size):
    """Shape i of a size x size scene: it may start off the grid, leave
    it, cross it within a step or two, or have a zero or negative size."""
    extent = st.one_of(st.floats(-2.0, size / 2),
                       st.sampled_from([0.0, -0.0]))
    speed = st.one_of(st.floats(-0.5, 0.5),
                      st.floats(-2.0 * size, 2.0 * size))
    return synth.Shape(
        kind="rectangle" if i % 2 == 0 else "disk",
        position=(draw(st.floats(-size, 2 * size)),
                  draw(st.floats(-size, 2 * size))),
        size=(draw(extent), draw(extent)),
        velocity=(draw(speed), draw(speed)),
        intensity=draw(st.floats(0.0, 3.0)))


@st.composite
def scenes(draw):
    size = draw(st.integers(4, 14))
    spec = synth.SceneSpec(
        height=size, width=size,
        window_ms=float(draw(st.integers(1, 12))),
        threshold=draw(st.sampled_from([0.05, 0.15, 0.3])),
        noise_rate=draw(st.sampled_from([0.0, 0.02])),
        seed=draw(st.integers(0, 100)))
    for i in range(draw(st.integers(0, 3))):
        spec.shapes.append(draw(scene_shapes(i, size)))
    return spec


def bool_grids(max_side):
    return st.integers(1, max_side).flatmap(lambda h: st.integers(
        1, max_side).flatmap(lambda w: st.lists(
            st.booleans(), min_size=h * w, max_size=h * w).map(
            lambda v: np.array(v, dtype=bool).reshape(h, w))))


# -- event simulation --------------------------------------------------------

class TestThresholdCrossings:
    @settings(max_examples=200, deadline=None)
    @given(log_sequences(), st.sampled_from([0.05, 0.15, 0.3, 0.7]),
           st.sampled_from([1.0, 0.5]))
    def test_matches_scalar_loop(self, logI, theta, step_ms):
        t, x, y, p = synth._threshold_crossings(logI, step_ms, theta)
        got = list(zip(t.tolist(), x.tolist(), y.tolist(), p.tolist()))
        assert stable_sorted(got) == stable_sorted(
            ref_threshold_crossings(logI, step_ms, theta))

    def test_several_crossings_in_one_step_keep_pixel_order(self):
        logI = np.array([0.0, 1.0, 1.0, -0.5]).reshape(4, 1, 1)
        t, _, _, p = synth._threshold_crossings(logI, 1.0, 0.3)
        ref = ref_threshold_crossings(logI, 1.0, 0.3)
        assert [(e[0], e[3]) for e in ref] == list(zip(t.tolist(),
                                                       p.tolist()))
        assert np.count_nonzero(t < 1000) == 3

    @settings(max_examples=40, deadline=None)
    @given(scenes())
    def test_generate_events_matches_reference(self, spec):
        assert synth.generate_events(spec) == stream_of(
            ref_generate_events(spec))

    @pytest.mark.parametrize("shapes, noise_rate, box", [
        # far apart: the union of the swept boxes holds a background gap
        ([synth.Shape("rectangle", (3.0, 3.0), (3.0, 2.0), (0.4, 0.0), 1.0),
          synth.Shape("disk", (26.0, 20.0), (3.0, 0.0), (0.0, -0.5), 0.6)],
         0.0, (slice(2, 24), slice(2, 30))),
        # wholly off the grid beside a shape on it: the box is the other's
        ([synth.Shape("disk", (-40.0, 10.0), (4.0, 0.0), (0.5, 0.0), 1.0),
          synth.Shape("rectangle", (15.0, 12.0), (6.0, 5.0), (-0.3, 0.2),
                      0.7)], 0.0, (slice(10, 17), slice(9, 19))),
        ([], 0.01, (slice(0, 0), slice(0, 0))),
    ], ids=["far-apart", "off-grid", "no-shapes-noise"])
    def test_union_box_matches_reference(self, shapes, noise_rate, box):
        spec = synth.SceneSpec(height=24, width=30, window_ms=10.0,
                               noise_rate=noise_rate, seed=3, shapes=shapes)
        got, planes = synth._paint(spec, np.arange(11.0), synth._levels(spec))
        assert got == box
        assert planes.shape == (11, box[0].stop - box[0].start,
                                box[1].stop - box[1].start)
        events = synth.generate_events(spec)
        assert len(events) and events == stream_of(ref_generate_events(spec))

    def test_eval_scene_event_text_pinned(self, tmp_path):
        # a 128x128 scene shaped like the eval benchmark's, its event file
        # byte for byte as the full-grid simulation wrote it
        spec = synth.SceneSpec(height=128, width=128, shapes=[
            synth.Shape("rectangle", (52.3, 70.1), (30.5, 30.5),
                        (0.21, -0.35), 0.8),
            synth.Shape("disk", (80.2, 55.7), (25.0, 25.0), (-0.3, 0.12),
                        0.6)])
        path = tmp_path / "events.txt"
        write_events(path, synth.generate_events(spec), dims=(128, 128))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "85967a1d0c25c2f1229ef06d8b0ccb90d5340bf4637c119220cbb563c52b0069")

    def test_generate_events_at_128(self):
        spec = synth.SceneSpec(
            height=128, width=128, window_ms=6.0, threshold=0.05,
            noise_rate=0.001, seed=5,
            shapes=[synth.Shape("rectangle", (50.0, 60.0), (40.0, 30.0),
                                (0.8, -0.4), 1.0),
                    synth.Shape("disk", (70.0, 70.0), (20.0, 0.0),
                                (-0.6, 0.5), 0.6)])
        assert synth.generate_events(spec) == stream_of(
            ref_generate_events(spec))


class TestSceneRender:
    @staticmethod
    def assert_matches_full_grid(spec, t):
        want = ref_render_plane(spec, t)
        frame = synth.render_frame(spec, t)
        assert frame.dtype == np.float64
        assert np.array_equal(frame, np.repeat(want[:, :, None], 3, axis=2))
        got = synth.ground_truth_masks(spec, t)
        want = ref_ground_truth_masks(spec, t)
        assert got.ids == [i for i, _ in want]
        assert all(np.array_equal(a, b)
                   for a, (_, b) in zip(got.masks, want, strict=True))

    @settings(max_examples=200, deadline=None)
    @given(scenes(), st.floats(0.0, 1.0))
    # a later rectangle that covers an earlier one whole
    @example(synth.SceneSpec(height=8, width=8, shapes=[
        synth.Shape("rectangle", (4.0, 4.0), (2.0, 2.0)),
        synth.Shape("rectangle", (4.0, 4.0), (6.0, 6.0), intensity=0.5)]),
        0.0)
    # a disk wholly off the grid, next to a rectangle on it
    @example(synth.SceneSpec(height=8, width=8, shapes=[
        synth.Shape("rectangle", (3.0, 3.0), (2.0, 2.0)),
        synth.Shape("disk", (-20.0, 30.0), (3.0, 0.0), (0.1, 0.0))]), 1.0)
    def test_frame_and_masks_match_full_grid(self, spec, at):
        self.assert_matches_full_grid(spec, spec.window_ms * at)

    @pytest.mark.parametrize("kind", synth.KINDS)
    @pytest.mark.parametrize("position, size, velocity", [
        ((-6.0, 5.0), (4.0, 3.0), (1.5, 0.0)),     # enters from the left
        ((5.0, 5.0), (4.0, 4.0), (0.0, -2.5)),     # leaves at the top
        ((-10.0, 12.0), (3.0, 3.0), (7.0, -3.0)),  # crosses in 3 steps
        ((5.0, 5.0), (0.0, 0.0), (0.3, 0.0)),
        ((5.0, 5.0), (-0.0, 2.0), (0.0, 0.0)),
        ((5.5, 4.0), (-3.0, -2.0), (0.25, 0.5)),
    ])
    def test_edge_shapes_match_full_grid(self, kind, position, size,
                                         velocity):
        spec = synth.SceneSpec(
            height=10, width=12, window_ms=8.0, threshold=0.15,
            shapes=[synth.Shape("rectangle", (6.0, 5.0), (5.0, 5.0),
                                (0.2, 0.0), 0.5),
                    synth.Shape(kind, position, size, velocity, 1.0)])
        for k in range(9):
            self.assert_matches_full_grid(spec, float(k))
        assert synth.generate_events(spec) == stream_of(
            ref_generate_events(spec))


# -- voxelization --------------------------------------------------------------

def event_stream(seed, H, W, n, window):
    """Random events whose times reach past both window ends and hit
    t_end exactly."""
    rng = np.random.default_rng(seed)
    t_start, t_end = window
    ts = rng.integers(max(0, t_start - 10), t_end + 11, n)
    ts[rng.random(n) < 0.2] = t_end
    return EventStream(ts, rng.integers(0, W, n), rng.integers(0, H, n),
                       rng.choice([-1, 1], n))


class TestVoxelize:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 60), st.integers(0, 50), st.integers(1, 60),
           st.sampled_from([1, 3, 7]), st.booleans())
    def test_matches_scalar_loop(self, seed, H, W, n, t_start, span, B,
                                 signed):
        window = (t_start, t_start + span)
        events = event_stream(seed, H, W, n, window)
        got = voxelize(events, window, H, W, B=B, signed=signed).grid
        want = ref_voxelize(zip(events.t.tolist(), events.x.tolist(),
                                events.y.tolist(), events.p.tolist()),
                            *window, H, W, B, signed)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# -- event text ----------------------------------------------------------------

def read_outcome(read, path):
    """(stream, dims) as read, or the EventFormatError message."""
    try:
        stream, dims = read(path)
    except EventFormatError as e:
        return str(e)
    return (stream if isinstance(stream, EventStream) else stream_of(stream),
            dims)


# valid files once written, with the 4 x 4 header or none
_ROWS = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3),
                           st.integers(0, 3), st.sampled_from([-1, 1])),
                 max_size=6).map(sorted)


# whole lines, valid and not, so one file can fail several checks on
# several lines and the first failure has to be found
_LINES = st.one_of(
    st.tuples(st.integers(-2, 12), st.integers(-1, 5), st.integers(-1, 5),
              st.integers(-1, 2)).map(lambda r: ",".join(map(str, r))),
    st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
        lambda d: f"# H={d[0]} W={d[1]}"),
    st.sampled_from(["", "  ", "#", "# note", "1,2,3", "1,2,3,1,0", "a,1,1,1",
                     " 3 , 1 ,1, 0 ", "+4,1,1,1", "1_0,1,1,1", "\x0c5,1,1,1",
                     "٣,1,1,1", "##H=2 W=2", "\r",
                     # beyond int()'s 4300-digit limit
                     f"# H=2 W={'9' * 5000}"]))


# one field in the forms int() reads or refuses at its edges, which
# numpy's C reader may read otherwise: signs, padding, underscores,
# non-ASCII digits and letters, floats, hex, 19-20 digits, and a digit
# next to a whitespace or line-break character of either reader
_PADS = ["\r", "\x1c", "\x1f", "\x85", "\u2028", "\x0b", "\xa0", " ", "\t"]
_EDGE_FIELDS = st.one_of(
    st.sampled_from(["+5", " 7\t", "\x0b3\x0b", "\xa02\xa0", "1_0", "٣", "１",
                     "\u01fe", "1\u01fe", "1.0", "1e3", "0x1", "-", "", "-0",
                     "007"]),
    st.integers(10 ** 18, 10 ** 20 - 1).map(str),
    st.integers(10 ** 18, 10 ** 20 - 1).map(lambda v: f"-{v}"),
    st.builds("{d}{c}{d2}".format, d=st.sampled_from(["", "4"]),
              c=st.sampled_from(_PADS), d2=st.sampled_from(["", "7"])))


@st.composite
def _ascii_event_files(draw):
    """Event text a writer might leave: rows, mostly time-sorted, among
    comments, blank lines, padding and CRLF, with 4 x 4 headers anywhere,
    so a row can go back in time, before 0 or outside the header, or the
    header come late or twice."""
    rows = draw(st.lists(st.tuples(st.integers(-1, 99), st.integers(-1, 4),
                                   st.integers(-1, 4), st.integers(0, 1)),
                         min_size=1, max_size=8))
    if draw(st.integers(0, 3)):
        rows.sort()
    lines = [",".join(map(str, r)) for r in rows]
    if draw(st.booleans()):
        lines.insert(0, "# H=4 W=4")
    for extra in draw(st.lists(st.sampled_from(
            ["", "  ", "#", "# note", "# H=4 W=4", "# H=5 W=3"]),
            max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    pad = draw(st.sampled_from(["", " ", "\t"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(pad + line + pad for line in lines) + eol


class TestEventText:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_ROWS.filter(bool), st.booleans(), _EDGE_FIELDS, st.data())
    def test_edge_field_reads_as_reference(self, tmp_path, rows, header,
                                           field, data):
        lines = [f"{t},{x},{y},{1 if p > 0 else 0}" for t, x, y, p in rows]
        i = data.draw(st.integers(0, len(lines) - 1))
        row = lines[i].split(",")
        row[data.draw(st.integers(0, 3))] = field
        lines[i] = ",".join(row)
        p = tmp_path / "e.txt"
        p.write_bytes((("# H=4 W=4\n" if header else "")
                       + "\n".join(lines) + "\n").encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_outcome(read_events, p)
        assert got == read_outcome(ref_read_events, p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_ROWS, st.booleans(), st.data())
    def test_mutated_file_reads_as_reference(self, tmp_path, rows, header,
                                             data):
        p = tmp_path / "e.txt"
        ref_write_events(p, rows, dims=(4, 4) if header else None)
        p.write_bytes(_mutate(data, p.read_bytes()))
        assert read_outcome(read_events, p) == read_outcome(ref_read_events,
                                                            p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_LINES, max_size=8))
    def test_line_soup_reads_as_reference(self, tmp_path, lines):
        p = tmp_path / "e.txt"
        p.write_text("\n".join(lines), encoding="utf-8")
        assert read_outcome(read_events, p) == read_outcome(ref_read_events,
                                                            p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(0, 2 ** 63 - 1),
                              st.integers(-2 ** 63, 2 ** 63 - 1),
                              st.integers(-2 ** 63, 2 ** 63 - 1),
                              st.sampled_from([-1, 1])), max_size=8),
           st.one_of(st.none(), st.tuples(st.integers(0, 999),
                                          st.integers(0, 999))))
    def test_writer_bytes_match_reference(self, tmp_path, rows, dims):
        new, ref = tmp_path / "new.txt", tmp_path / "ref.txt"
        write_events(new, stream_of(rows), dims=dims)
        ref_write_events(ref, rows, dims=dims)
        assert new.read_bytes() == ref.read_bytes()

    def test_synth_file_matches_reference_bytes(self, tmp_path):
        spec = synth.SceneSpec(height=24, width=24, window_ms=8.0,
                               noise_rate=0.01, seed=2, shapes=[synth.Shape(
                                   "disk", (9.0, 12.0), (5.0, 0.0),
                                   (0.5, 0.2))])
        stream = synth.generate_events(spec)
        new, ref = tmp_path / "new.txt", tmp_path / "ref.txt"
        write_events(new, stream, dims=(24, 24))
        ref_write_events(ref, list(zip(stream.t.tolist(), stream.x.tolist(),
                                       stream.y.tolist(), stream.p.tolist())),
                         dims=(24, 24))
        assert new.read_bytes() == ref.read_bytes()
        assert read_events(new) == (stream, (24, 24))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_ascii_event_files())
    def test_fast_path_reads_as_line_reader(self, tmp_path, text):
        p = tmp_path / "e.txt"
        p.write_bytes(text.encode())
        with mock.patch.object(events, "_read_lines",
                               wraps=events._read_lines) as line_reader:
            got = read_outcome(read_events, p)
        if not line_reader.called:
            lines = [s.strip() for s in text.split("\n")]
            assert got == events._read_lines(lines)

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: ls + ["5,1,1,0"], "line 6: decreasing timestamp 5 < 40"),
        (lambda ls: ls[:3] + ["20,1,1,2"] + ls[3:],
         "line 4: polarity must be 0 or 1"),
        (lambda ls: ls[:3] + ["20,1,4,0"] + ls[3:],
         "line 4: coordinates (1,4) out of bounds"),
        (lambda ls: ls[1:3] + ls[:1] + ls[3:],
         "line 3: a second header, or a header after the first event"),
        (lambda ls: ls[:1] + ["# H=8 W=8"] + ls[1:],
         "line 2: a second header, or a header after the first event"),
    ], ids=["decreasing", "polarity", "bounds", "late-header",
            "second-header"])
    def test_array_check_fault_reads_as_reference(self, tmp_path, edit,
                                                  message):
        # the C reader takes the file as written, and refuses each fault:
        # a misplaced header by its '#', the rest by whole-array checks
        p = tmp_path / "e.txt"
        stream = EventStream(np.array([10, 20, 30, 40]),
                             np.array([0, 1, 2, 3]), np.array([3, 2, 1, 0]),
                             np.array([1, -1, 1, -1]))
        write_events(p, stream, dims=(4, 4))
        text = p.read_text(encoding="utf-8")
        assert events._c_reader(text) == (stream, (4, 4))
        p.write_text("\n".join(edit(text.splitlines())) + "\n",
                     encoding="utf-8")
        assert events._c_reader(p.read_text(encoding="utf-8")) is None
        assert read_outcome(read_events, p) == message
        assert read_outcome(ref_read_events, p) == message

    @pytest.mark.parametrize("row", ["x,99999999999999999999,1,1",
                                     "99999999999999999999,x,1,1"])
    def test_non_integer_before_out_of_range(self, tmp_path, row):
        p = tmp_path / "e.txt"
        p.write_text(f"1,1,1,1\n{row}\n", encoding="utf-8")
        assert read_outcome(read_events, p) == "line 2: non-integer field"
        assert read_outcome(ref_read_events, p) == "line 2: non-integer field"



# files the C reader must refuse or read as the line reader does: '#'
# mid-line or after padding, whitespace-only and \x00 lines, headers after
# data or twice, CRLF, no final newline
_KIND_LINES = st.one_of(
    st.tuples(st.integers(0, 9), st.integers(0, 4), st.integers(0, 4),
              st.integers(0, 1)).map(lambda r: ",".join(map(str, r))),
    st.sampled_from(["# H=4 W=4", "# H=5 W=3", "# note", "#", "1,1,# 1,1",
                     "2,1,1,1 # late", " # padded", "\t# H=4 W=4", "",
                     "  ", "\t", "\x0b", "\x00", "\x001,1,1,1", "1,1,1,\x00"]))


def line_reader_outcome(path):
    """_read_lines' (stream, dims) for the file, or its error message."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [s.strip() for s in fh.read().split("\n")]
    try:
        return events._read_lines(lines)
    except EventFormatError as e:
        return str(e)


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def _valid_streams(draw):
    """A stream `read_events` must accept, and its dims or None: t >= 0
    and non-decreasing, coordinates inside the dims when there are any."""
    dims = draw(st.one_of(st.none(), st.tuples(st.integers(1, 2 ** 64),
                                               st.integers(1, 2 ** 64))))
    xs, ys = ((_INT64, _INT64) if dims is None else
              (st.integers(0, min(dims[1], 2 ** 63) - 1),
               st.integers(0, min(dims[0], 2 ** 63) - 1)))
    rows = draw(st.lists(st.tuples(xs, ys, st.sampled_from([-1, 1])),
                         min_size=1, max_size=8))
    t = sorted(draw(st.lists(st.integers(0, 2 ** 63 - 1),
                             min_size=len(rows), max_size=len(rows))))
    x, y, p = zip(*rows)
    return EventStream(*(np.array(a, dtype=np.int64)
                         for a in (t, x, y, p))), dims


class TestLineKinds:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_KIND_LINES, max_size=8), st.sampled_from(["\n", "\r\n"]),
           st.booleans())
    def test_scan_matches_per_line_tests(self, tmp_path, lines, eol, final):
        p = tmp_path / "e.txt"
        p.write_bytes((eol.join(lines) + (eol if final else "")).encode())
        assert read_outcome(read_events, p) == line_reader_outcome(p)

    @pytest.mark.parametrize("text, c_reader", [
        ("# H=4 W=4\n1,1,1,1\n2,2,2,0\n", True),
        ("1,1,1,1\n2,2,2,0", True), ("", False),
        ("# H=4 W=4\r\n1,1,1,1\r\n", True), ("3,1,1,1\n", True),
        ("# H=4 W=4\n", False),
    ], ids=["written", "no-final-newline", "empty", "crlf", "headerless",
            "header-only"])
    def test_settled_files(self, tmp_path, text, c_reader):
        # the C reader takes each file with events in the written layout;
        # a file of none warns in numpy and goes to the line reader
        p = tmp_path / "e.txt"
        p.write_bytes(text.encode())
        with mock.patch.object(events, "_read_lines",
                               wraps=events._read_lines) as line_reader:
            got = read_outcome(read_events, p)
        assert line_reader.called != c_reader
        assert got == line_reader_outcome(p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_valid_streams())
    def test_written_file_takes_c_reader(self, tmp_path, stream_dims):
        # the layout write_events writes never pays for the line reader
        stream, dims = stream_dims
        p = tmp_path / "e.txt"
        write_events(p, stream, dims=dims)
        assert events._c_reader(p.read_text(encoding="utf-8")) == \
            (stream, dims)


# -- masks -------------------------------------------------------------------

def mask_lists(shape, min_size=0, max_size=4):
    cells = st.lists(st.booleans(), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    return st.lists(cells.map(lambda v: np.array(v, dtype=bool).reshape(shape)),
                    min_size=min_size, max_size=max_size)


shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))


class TestOverlap:
    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda s: st.tuples(mask_lists(s, 1),
                                              mask_lists(s))))
    def test_matches_scalar_loop(self, stacks):
        gt, pred = ([m for m in ms if m.any()] for ms in stacks)
        assume(gt)
        inter, ga, pa = metrics._overlap_table(metrics.MaskSet(masks=gt),
                                               metrics.MaskSet(masks=pred))
        if pred:
            r_inter, r_ga, r_pa = ref_overlap(gt, pred)
        else:
            r_inter = np.zeros((len(gt), 0), dtype=np.int64)
            r_ga, r_pa = np.array([m.sum() for m in gt]), np.zeros(0)
        assert np.array_equal(inter, r_inter)
        assert np.array_equal(ga, r_ga)
        assert np.array_equal(pa, r_pa)


class TestLabelComponents:
    @settings(max_examples=200, deadline=None)
    @given(bool_grids(12))
    def test_matches_flood_fill(self, grid):
        labels, count = cli._label_components(grid)
        r_labels, r_count = ref_label_components(grid)
        assert count == r_count
        assert np.array_equal(labels, r_labels)

    @settings(max_examples=50, deadline=None)
    @given(bool_grids(6), st.integers(1, 4))
    def test_upsampled_labels_match_pixel_flood_fill(self, grid, ps):
        labels, count = cli._label_components(grid)
        pixel = np.kron(grid, np.ones((ps, ps), dtype=bool))
        r_labels, r_count = ref_label_components(pixel)
        assert count == r_count
        assert np.array_equal(np.kron(labels, np.ones((ps, ps), np.int64)),
                              r_labels)

    def test_u_shapes_merge_late(self):
        # the U's arms (columns 0 and 4) join only in the last row, and the
        # bar in column 2 starts between them in raster order: cell (0, 4)
        # belongs to component 1 though component 2 appears before it
        grid = np.array([[1, 0, 1, 0, 1],
                         [1, 0, 1, 0, 1],
                         [1, 0, 1, 0, 1],
                         [1, 0, 0, 0, 1],
                         [1, 1, 1, 1, 1]], dtype=bool)
        labels, count = cli._label_components(grid)
        r_labels, r_count = ref_label_components(grid)
        assert count == r_count == 2
        assert labels[0, 4] == 1 and labels[0, 2] == 2
        assert np.array_equal(labels, r_labels)

    def test_empty_grid(self):
        labels, count = cli._label_components(np.zeros((3, 4), dtype=bool))
        assert count == 0 and not labels.any()


class TestWriteMasks:
    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda s: st.tuples(st.just(s), mask_lists(s))))
    def test_matches_while_loop_bytes(self, case):
        shape, masks = case
        ids = list(range(len(masks)))
        with tempfile.TemporaryDirectory() as d:
            new, ref = os.path.join(d, "new.rle"), os.path.join(d, "ref.rle")
            io.write_masks(new, masks, ids, shape=shape)
            ref_write_masks(ref, masks, ids, shape)
            with open(new, "rb") as a, open(ref, "rb") as b:
                assert a.read() == b.read()


@st.composite
def mask_cases(draw, shape=None):
    """(shape, masks): 1x1 and 1xN grids and cell counts on and off a
    multiple of 64 among others; each mask all clear, all set, random,
    or random with a run ending on the last cell; the empty set too."""
    if shape is None:
        shape = draw(st.sampled_from([(1, 1), (1, 7), (1, 64), (1, 65),
                                      (8, 8), (3, 21), (9, 9)])
                     | st.tuples(st.integers(1, 12), st.integers(1, 12)))
    size = shape[0] * shape[1]
    masks = []
    for kind in draw(st.lists(st.sampled_from(["clear", "full", "random",
                                               "last"]), max_size=5)):
        m = np.zeros(size, dtype=bool) if kind == "clear" else \
            np.ones(size, dtype=bool) if kind == "full" else np.array(draw(
                st.lists(st.booleans(), min_size=size, max_size=size)),
                dtype=bool)
        m[-1] |= kind == "last"
        masks.append(m.reshape(shape))
    return shape, masks


def masks_outcome(read, path):
    """(masks, ids, shape) as read, or the DumpFormatError message."""
    try:
        masks, ids, shape = read(path)
    except io.DumpFormatError as e:
        return str(e)
    assert all(m.dtype == bool and m.shape == shape for m in masks)
    return [m.tolist() for m in masks], ids, shape


class TestMaskIdentity:
    """The array passes against the per-mask and per-run code they
    replaced: the same file bytes, masks, errors and overlap counts."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mask_cases(), st.data())
    def test_writer_and_reader_match_per_mask_code(self, tmp_path, case,
                                                    data):
        shape, masks = case
        ids = data.draw(st.permutations(range(len(masks))).map(
            lambda p: [3 * i - 4 for i in p]))
        new, ref = tmp_path / "new.rle", tmp_path / "ref.rle"
        io.write_masks(new, masks, ids, shape=shape)
        ref_write_masks_per_mask(ref, masks, ids, shape)
        assert new.read_bytes() == ref.read_bytes()
        got = masks_outcome(io.read_masks, new)
        assert got == masks_outcome(ref_read_masks, new)
        assert got == ([m.tolist() for m in masks], ids, shape)

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mask_cases(), st.data())
    def test_mutated_file_reads_as_one_loop_reader(self, tmp_path, case,
                                                   data):
        # the first error in file order, whichever check finds it
        shape, masks = case
        p = tmp_path / "m.rle"
        io.write_masks(p, masks, list(range(len(masks))), shape=shape)
        p.write_bytes(_mutate(data, p.read_bytes()))
        assert masks_outcome(io.read_masks, p) == masks_outcome(
            ref_read_masks, p)

    @pytest.mark.parametrize("text", [
        "0: 0,1 3,9\n1: x\n", "0: 0,1\n1: 2,2,1\n0: 1,1\n",
        "0: 1,1\n1: 0,5\n# H=2 W=2\n", "0: 0,4 1\n1: 0,1\n",
        f"0: 0,{2 ** 64}\n1: x\n", f"0: {-2 ** 70},1 0,{2 ** 63}\n",
        f"0: {2 ** 62},{2 ** 62}\n", "0: 0,1 1,0\n", "0: 1,1 -1,2\n",
        "0: 3,1 0,2 1,2\n1:\n2: 0,4\n", "0: 9,1 0,1,1\n", "0: 1 0,1,1\n",
        "0: 1 1,1,1\n",
    ], ids=["bad-run-before-parse", "bad-run-before-repeat",
            "bad-run-before-header", "one-field-run", "past-int64-length",
            "past-int64-fields", "sum-past-int64", "zero-length",
            "negative-start", "overlapping-runs", "off-grid-before-3-fields",
            "commas-total-run-count", "commas-total-run-count-in-grid"])
    def test_run_errors_in_file_order(self, tmp_path, text):
        p = tmp_path / "m.rle"
        p.write_text("# H=2 W=2\n" + text)
        assert masks_outcome(io.read_masks, p) == masks_outcome(
            ref_read_masks, p)

    @pytest.mark.parametrize("text, held", [
        ("# H=2 W=2\n", True), ("\n# H=3 W=1\n\n", True),
        ("# H=10000000000 W=10000000000\n", False),
        ("# H=4294967296 W=4294967296\n", False),
    ], ids=["small", "blank-lines", "past-int64-cells", "2^64-cells"])
    def test_header_only_file_reads_as_one_loop_reader(self, tmp_path, text,
                                                       held):
        p = tmp_path / "m.rle"
        p.write_text(text)
        got = masks_outcome(io.read_masks, p)
        assert got == masks_outcome(ref_read_masks, p)
        assert held == ("grid is too large to hold" not in got)

    def test_many_masks_read_as_one_loop_reader(self, tmp_path):
        # fourteen instances of one 128x128 scene, the eval benchmark's size
        rng = np.random.default_rng(5)
        masks = [np.zeros((128, 128), dtype=bool) for _ in range(14)]
        for m in masks:
            r, c, h, w = rng.integers(0, 96, 2).tolist() + \
                rng.integers(4, 33, 2).tolist()
            m[r:r + h, c:c + w] = rng.random((h, w)) < 0.9
        p = tmp_path / "m.rle"
        io.write_masks(p, masks, list(range(14)), shape=(128, 128))
        got = masks_outcome(io.read_masks, p)
        assert got == masks_outcome(ref_read_masks, p)
        assert got[0] == [m.tolist() for m in masks]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_overlap_matches_count_nonzero_table(self, data):
        shape, gt = data.draw(mask_cases())
        _, pred = data.draw(mask_cases(shape))
        gt, pred = ([m for m in ms if m.any()] for ms in (gt, pred))
        assume(gt)
        gt, pred = metrics.MaskSet(masks=gt), metrics.MaskSet(masks=pred)
        got, want = metrics._overlap_table(gt, pred), ref_overlap_table(gt,
                                                                        pred)
        for a, b in zip(got, want):
            assert a.dtype == np.int64 and a.shape == b.shape
            assert np.array_equal(a, b)


# -- distillation objective --------------------------------------------------

def attention_maps(rng, k, depth):
    maps = []
    for _ in range(depth):
        a = rng.random((k, k)) + 1e-3
        maps.append(a / a.sum(axis=1, keepdims=True))
    return maps


@st.composite
def distill_cases(draw):
    """(seed, k, c, depth, DistillConfig) over every attention source."""
    depth = draw(st.integers(1, 4))
    layers = draw(st.lists(st.integers(0, depth), min_size=1,
                           max_size=depth + 1, unique=True).map(sorted))
    nonzero = [s for s in layers if s != 0]
    cfg = distill.DistillConfig(
        layers=tuple(layers),
        gammas=tuple(draw(st.floats(0.01, 2.0)) for _ in nonzero),
        gamma0=draw(st.floats(0.01, 2.0)),
        beta=draw(st.floats(0.0, 1.0)),
        attention_source=draw(st.sampled_from(distill.ATTENTION_SOURCES)),
        rollout_horizon=draw(st.one_of(st.none(), st.integers(1, 3))))
    return (draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 6)),
            draw(st.integers(1, 5)), depth, cfg)


def loss_and_grads(loss_fn, teacher, student_data, attns, cfg):
    """Total bytes, breakdown and every student embedding's gradient
    bytes for fresh leaves holding `student_data`."""
    student = encoder.EmbeddingCapture(
        embeddings=[Tensor(x, requires_grad=True) for x in student_data],
        attentions=attns)
    total, breakdown = loss_fn(teacher, student, cfg)
    total.backward()
    return (np.asarray(total.data).tobytes(), breakdown,
            [None if x.grad is None else x.grad.tobytes()
             for x in student.embeddings])


class TestDistillObjective:
    @settings(max_examples=200, deadline=None)
    @given(distill_cases())
    def test_one_node_matches_tensor_chain(self, case):
        seed, k, c, depth, cfg = case
        rng = np.random.default_rng(seed)
        teacher = encoder.EmbeddingCapture(
            embeddings=[Tensor(rng.standard_normal((k, c)))
                        for _ in range(depth + 1)],
            attentions=attention_maps(rng, k, depth))
        student_data = [rng.standard_normal((k, c)) for _ in range(depth + 1)]
        # tied rows: |diff| has a kink there and sign() returns 0
        for x, t in zip(student_data, teacher.embeddings):
            tied = rng.random(k) < 0.3
            x[tied] = t.data[tied]
        attns = attention_maps(rng, k, depth)
        got = loss_and_grads(distill.distill_loss, teacher, student_data,
                             attns, cfg)
        want = loss_and_grads(ref_distill_loss, teacher, student_data,
                              attns, cfg)
        assert got == want

    @pytest.mark.parametrize("source", distill.ATTENTION_SOURCES)
    @pytest.mark.parametrize("plan", [
        encoder.TrainablePlan(mode="embed+mlps", layers=(1, 2, 3)),
        encoder.TrainablePlan(mode="embed+blocks", layers=(1, 3),
                              lora_rank=2)])
    def test_student_pipeline_matches_tensor_chain(self, monkeypatch, source,
                                                   plan):
        # the student embeddings are interior nodes here, so each also
        # takes gradient from the next block: the accumulation order of
        # the loss and block contributions must match too
        config = encoder.ViTConfig(img_size=8, patch_size=4, embed_dim=8,
                                   depth=3, num_heads=2, mlp_hidden=16)
        cfg = distill.DistillConfig(layers=(0, 1, 2, 3),
                                    gammas=(0.3, 0.6, 1.0), mixing_ratio=0.25,
                                    attention_source=source)
        rng = np.random.default_rng(5)
        image, volume = rng.random((8, 8, 3)), rng.random((8, 8, 3))
        teacher = encoder.forward_capture(
            encoder.init_params(config, seed=3), image)
        state = trainer.TrainState.create(encoder.init_params(config, seed=4),
                                          plan, seed=4)
        entries = state.params.tensors

        def run():
            for name in state.m:
                entries[name].zero_grad()
            total, breakdown = trainer.student_step_loss(
                teacher, state.params, volume[None], cfg,
                mix_seeds=[[0, 1]])
            total.backward()
            return (np.asarray(total.data).tobytes(), breakdown,
                    {n: entries[n].grad.tobytes() for n in state.m})

        got = run()
        monkeypatch.setattr(trainer, "distill_loss", ref_distill_loss)
        assert got == run()


# -- stacked student step ----------------------------------------------------

def ref_student_step_loss(teacher, params, volume, cfg, mix_seed,
                          weights=None):
    """One sample's loss in its own graph: the patch affine and the
    positional embedding as one add node, one mixing seed."""
    patches = Tensor(encoder.patch_tokens(params.config, volume))
    event_tokens = encoder._affine(params, "embed", patches) \
        + params.tensors["pos"]
    mixed = distill.mix_tokens(event_tokens,
                               Tensor(teacher.embeddings[0].data),
                               cfg.mixing_ratio, [mix_seed])
    capture = encoder.forward_tokens(params, mixed)
    return distill.distill_loss(teacher, capture, cfg, weights)


def ref_stack_captures(captures):
    """Constant captures of single samples as one capture of their stack."""
    if len(captures) == 1:
        return captures[0]
    return encoder.EmbeddingCapture(
        embeddings=[Tensor(np.concatenate([x.data for x in xs]))
                    for xs in zip(*(c.embeddings for c in captures))],
        attentions=[np.stack(a)
                    for a in zip(*(c.attentions for c in captures))])


def ref_stack_weights(per_sample):
    """Single samples' layer weights as the weights of their stacked rows."""
    return [None if ws[0] is None else np.concatenate(ws)
            for ws in zip(*per_sample)]


def ref_adam_step(state, grads, lr):
    """Bias-corrected Adam, one entry at a time in sorted order, each
    update a new array bound in place of the old."""
    state.step += 1
    t = state.step
    b1, b2, eps = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS
    entries = state.params.tensors
    for name in sorted(state.m):
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(entries[name].data)
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = state.m[name] / (1 - b1 ** t)
        vhat = state.v[name] / (1 - b2 ** t)
        entries[name].data = entries[name].data - lr * mhat / (np.sqrt(vhat) + eps)


def flat_grad(state, grads):
    """Gradients by entry name as the flat gradient trainer.adam_step
    takes: layout order, zero for an entry without one."""
    g = np.zeros(state.size)
    for name, (sl, _) in state.layout.items():
        if name in grads:
            g[sl] = np.ravel(grads[name])
    return g


def ref_train(teacher, state, data, tcfg, dcfg, chunk=1):
    """train() with a per-sample teacher cache, every chunk's inputs
    stacked anew each step, a gradient dict and ref_adam_step. With chunk
    1, one graph and one backward per sample, built by
    ref_student_step_loss."""
    cache, history = {}, []
    entries = state.params.tensors
    for step in range(tcfg.epochs * tcfg.steps_per_epoch):
        epoch = step // tcfg.steps_per_epoch + 1
        lr = trainer.lr_at(tcfg, min(epoch, tcfg.epochs))
        grads, total, terms = {}, 0.0, {}
        for first in range(0, tcfg.batch_size, chunk):
            bs = range(first, min(first + chunk, tcfg.batch_size))
            idxs = [(step * tcfg.batch_size + b) % len(data) for b in bs]
            for idx in idxs:
                if idx not in cache:
                    cap = encoder.forward_capture(teacher, data[idx][0])
                    cache[idx] = (cap, None
                                  if dcfg.attention_source == "student"
                                  else distill.layer_weights(
                                      dcfg, cap.attentions))
            caps = [cache[i][0] for i in idxs]
            weights = [cache[i][1] for i in idxs]
            for name in state.m:
                entries[name].zero_grad()
            if chunk == 1:
                loss, breakdown = ref_student_step_loss(
                    caps[0], state.params, data[idxs[0]][1], dcfg,
                    [tcfg.seed, step, first], weights[0])
            else:
                loss, breakdown = trainer.student_step_loss(
                    ref_stack_captures(caps), state.params,
                    np.stack([data[i][1] for i in idxs]), dcfg,
                    mix_seeds=[[tcfg.seed, step, b] for b in bs],
                    weights=None if weights[0] is None
                    else ref_stack_weights(weights))
            loss.backward()
            total += loss.item()
            for layer, v in breakdown.items():
                terms[layer] = terms.get(layer, 0.0) + v
            for name in sorted(state.m):
                if entries[name].grad is not None:
                    grads[name] = grads.get(name, 0.0) \
                        + entries[name].grad / tcfg.batch_size
        ref_adam_step(state, grads, lr)
        history.append({"step": step + 1, "epoch": epoch, "lr": lr,
                        "total": total / tcfg.batch_size,
                        **{f"layer_{s}": v / tcfg.batch_size
                           for s, v in terms.items()}})
    return state, history


STEP_PLANS = [encoder.TrainablePlan(mode="embed+mlps", layers=(1, 2, 3)),
              encoder.TrainablePlan(mode="embed+blocks", layers=(1, 3),
                                    lora_rank=2)]
STEP_CONFIG = encoder.ViTConfig(img_size=8, patch_size=4, embed_dim=8,
                                depth=3, num_heads=2, mlp_hidden=16)


def rel_gap(got, want):
    """Largest difference over the largest magnitude of the reference."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("source", distill.ATTENTION_SOURCES)
@pytest.mark.parametrize("plan", STEP_PLANS, ids=["embed+mlps", "lora"])
class TestStackedStep:
    """trainer.student_step_loss on m samples against the sum of the
    per-sample losses, each in its own graph."""

    def case(self, source, plan, m=3):
        cfg = distill.DistillConfig(layers=(0, 1, 2, 3),
                                    gammas=(0.3, 0.6, 1.0), mixing_ratio=0.25,
                                    attention_source=source)
        rng = np.random.default_rng(12)
        teacher = encoder.init_params(STEP_CONFIG, seed=3)
        caps = [encoder.forward_capture(teacher, rng.random((8, 8, 3)))
                for _ in range(m)]
        weights = [None if source == "student"
                   else distill.layer_weights(cfg, c.attentions) for c in caps]
        state = trainer.TrainState.create(
            encoder.init_params(STEP_CONFIG, seed=4), plan, seed=4)
        # move the student off its init so every block carries gradient
        for name in state.m:
            t = state.params.tensors[name]
            t.data = t.data + rng.normal(0, 0.05, t.data.shape)
        volumes = rng.random((m, 8, 8, 3))
        seeds = [[9, 2, b] for b in range(m)]
        return cfg, caps, weights, state, volumes, seeds

    @staticmethod
    def run(state, loss_fn):
        entries = state.params.tensors
        for name in state.m:
            entries[name].zero_grad()
        total, breakdown = loss_fn()
        total.backward()
        return (total.item(), breakdown,
                {n: entries[n].grad for n in state.m})

    def test_one_sample_chunks_bitwise(self, source, plan):
        cfg, caps, weights, state, volumes, seeds = self.case(source, plan)
        for b in range(len(caps)):
            got = self.run(state, lambda: trainer.student_step_loss(
                caps[b], state.params, volumes[b:b + 1], cfg,
                mix_seeds=[seeds[b]], weights=weights[b]))
            want = self.run(state, lambda: ref_student_step_loss(
                caps[b], state.params, volumes[b], cfg, seeds[b],
                weights[b]))
            assert got[0] == want[0] and got[1] == want[1]
            assert {n: g.tobytes() for n, g in got[2].items()} == \
                {n: g.tobytes() for n, g in want[2].items()}

    def test_whole_batch_chunk_within_1e_12(self, source, plan):
        cfg, caps, weights, state, volumes, seeds = self.case(source, plan)
        got = self.run(state, lambda: trainer.student_step_loss(
            ref_stack_captures(caps), state.params, volumes, cfg,
            mix_seeds=seeds, weights=None if weights[0] is None
            else ref_stack_weights(weights)))
        total, breakdown, grads = 0.0, {}, {}
        for b in range(len(caps)):
            t, br, g = self.run(state, lambda: ref_student_step_loss(
                caps[b], state.params, volumes[b], cfg, seeds[b],
                weights[b]))
            total += t
            breakdown = {s: breakdown.get(s, 0.0) + v for s, v in br.items()}
            grads = {n: grads.get(n, 0.0) + x for n, x in g.items()}
        assert rel_gap(got[0], total) <= 1e-12
        assert list(got[1]) == list(breakdown)
        assert rel_gap(list(got[1].values()), list(breakdown.values())) \
            <= 1e-12
        for name, g in grads.items():
            assert rel_gap(got[2][name], g) <= 1e-12, name

    def test_train_matches_per_sample_loop(self, monkeypatch, source, plan):
        cfg = self.case(source, plan)[0]
        rng = np.random.default_rng(13)
        data = [(rng.random((8, 8, 3)), rng.random((8, 8, 3)))
                for _ in range(4)]
        teacher = encoder.init_params(STEP_CONFIG, seed=3)
        tcfg = trainer.TrainConfig(epochs=1, steps_per_epoch=3, batch_size=3,
                                   lr=1e-3, decay_epoch=1, seed=5)

        def run(fn):
            state = trainer.TrainState.create(teacher, plan, seed=4)
            state, history = fn(teacher, state, data, tcfg, cfg)
            return history, {n: t.data for n, t in
                             state.params.tensors.items()}

        want = run(ref_train)
        stacked = run(trainer.train)        # the whole batch in one chunk
        for row, ref in zip(stacked[0], want[0]):
            assert list(row) == list(ref)
            assert rel_gap([row[c] for c in ref], list(ref.values())) <= 1e-12
        monkeypatch.setattr(trainer, "STACK", 1)  # one sample per chunk
        history, params = run(trainer.train)
        assert history == want[0]
        assert {n: a.tobytes() for n, a in params.items()} == \
            {n: a.tobytes() for n, a in want[1].items()}


# -- layer norm ---------------------------------------------------------------

@pytest.mark.parametrize("shape", [(32, 16), (256, 32), (512, 192)])
def test_layernorm_matches_mean_form(shape):
    """The reduce-and-divide means equal ndarray.mean's, bit for bit."""
    rng = np.random.default_rng(shape[1])
    x, gain, bias = (rng.standard_normal(s) * 3.0 + 1.0
                     for s in (shape, shape[1:], shape[1:]))
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    want = (x - mu) * (1.0 / np.sqrt(var + 1e-6)) * gain + bias
    got = autodiff.layernorm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert np.array_equal(got, want)


# -- flat Adam and the dataset-order teacher cache ----------------------------

def state_bytes(state):
    entries = state.params.tensors
    return (state.step, {n: t.data.tobytes() for n, t in entries.items()},
            {n: a.tobytes() for n, a in state.m.items()},
            {n: a.tobytes() for n, a in state.v.items()})


@pytest.mark.parametrize("plan", [
    encoder.TrainablePlan(mode="embed+all_mlps"),
    encoder.TrainablePlan(mode="embed+blocks", layers=(1, 3), lora_rank=2)],
    ids=["embed+all_mlps", "lora"])
def test_flat_adam_matches_per_entry_adam(plan):
    rng = np.random.default_rng(21)
    flat, ref = (trainer.TrainState.create(
        encoder.init_params(STEP_CONFIG, seed=4), plan, seed=4)
        for _ in range(2))
    names = sorted(flat.m)
    silent = names[len(names) // 2]     # never gets a gradient
    for step, lr in enumerate((1e-3, 1e-3, 5e-4, 5e-4)):
        grads = {n: rng.normal(0, 10.0 ** -step, flat.m[n].shape)
                 for n in names if n != silent}
        trainer.adam_step(flat, flat_grad(flat, grads), lr)
        ref_adam_step(ref, grads, lr)
        assert state_bytes(flat) == state_bytes(ref)
    assert state_bytes(flat)[2][silent] == np.zeros(flat.m[silent].shape) \
        .tobytes()


def held_arrays(cache):
    """The distinct buffers of every array reachable from a TeacherCache,
    through its attributes, containers, captures and Tensors."""
    owners, seen, todo = {}, set(), [cache]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            owners[id(o)] = o
        elif isinstance(o, dict):
            todo += [*o.keys(), *o.values()]
        elif isinstance(o, (list, tuple)):
            todo += o
        elif hasattr(o, "__dict__"):
            todo += vars(o).values()
    return list(owners.values())


def held_bytes(cache):
    """Bytes of the distinct buffers a TeacherCache's arrays live in."""
    return sum(a.nbytes for a in held_arrays(cache))


@pytest.mark.parametrize("source", distill.ATTENTION_SOURCES)
def test_wrapping_chunk_matches_restacking_every_step(monkeypatch, source):
    # 5 samples in batches of 2: the third step's chunk (4, 2) is samples
    # 4 and 0
    cfg = distill.DistillConfig(layers=(0, 1, 2, 3), gammas=(0.3, 0.6, 1.0),
                                mixing_ratio=0.25, attention_source=source)
    rng = np.random.default_rng(14)
    data = [(rng.random((8, 8, 3)), rng.random((8, 8, 3))) for _ in range(5)]
    teacher = encoder.init_params(STEP_CONFIG, seed=3)
    tcfg = trainer.TrainConfig(epochs=1, steps_per_epoch=7, batch_size=2,
                               lr=1e-3, decay_epoch=1, seed=5)
    caches = []

    class Recorded(trainer.TeacherCache):
        def __init__(self, teacher, data, dcfg, span):
            super().__init__(teacher, data, dcfg, span)
            caches.append(self)

    def run(fn, **kw):
        state = trainer.TrainState.create(teacher, STEP_PLANS[0])
        state, history = fn(teacher, state, data, tcfg, cfg, **kw)
        return history, state_bytes(state)

    want = run(ref_train, chunk=trainer.chunk_size(STEP_CONFIG))
    with monkeypatch.context() as patched:
        patched.setattr(trainer, "TeacherCache", Recorded)
        assert run(trainer.train) == want
    cache, = caches
    assert list(cache.chunks) == [(0, 2), (2, 2), (4, 2), (1, 2), (3, 2)]
    # every chunk, (4, 2) = samples 4, 0 too, is a view of the cache, which
    # holds 6 samples: the 5 and sample 0 again
    one = trainer.TeacherCache(teacher, data[:1], cfg, 1)
    one.chunk(0, 1)
    per_sample = held_bytes(one)
    for capture, weights, volumes in cache.chunks.values():
        assert np.shares_memory(volumes, cache.volumes)
        for s, x in capture.embeddings.items():
            assert np.shares_memory(x.data, cache.embeddings[s])
    assert held_bytes(cache) <= (len(data) + 2 - 1) * per_sample


def ref_teacher_chunk(teacher, data, cfg, span, first, m):
    """The chunk (first, m) as the cache built it when it kept every
    layer and map: whole captures of samples 0 .. N + span - 2 modulo N,
    stacked, one rollout of all the stacked maps, then row slices.
    Returns (every layer's rows, the weights)."""
    order = np.arange(len(data) + span - 1) % len(data)
    caps = [encoder.forward_capture(teacher, data[i][0]) for i in order]
    embeddings = [np.concatenate([x.data for x in xs])
                  for xs in zip(*(c.embeddings for c in caps))]
    weights = None if cfg.attention_source == "student" else \
        distill.layer_weights(cfg, [np.stack(a) for a in
                                    zip(*(c.attentions for c in caps))])
    k = teacher.config.tokens
    rows = slice(first * k, (first + m) * k)
    return ([x[rows] for x in embeddings],
            None if weights is None else
            [None if w is None else w[rows] for w in weights])


@pytest.mark.parametrize("source", distill.ATTENTION_SOURCES)
@pytest.mark.parametrize("layers, gammas", [
    ((0, 1, 2, 3), (0.3, 0.6, 1.0)),    # every layer kept
    ((3, 1), (1.0, 0.5)),               # layer 0 kept for mixing, 2 dropped
    ((0, 2), (1.0,))], ids=["every", "unsorted", "skipped"])
def test_cut_cache_chunks_bitwise_whole_capture_cache(monkeypatch, source,
                                                      layers, gammas):
    # 5 samples in chunks of up to 2, wrapping past the last one
    cfg = distill.DistillConfig(layers=layers, gammas=gammas,
                                attention_source=source)
    rng = np.random.default_rng(16)
    data = [(rng.random((8, 8, 3)), rng.random((8, 8, 3))) for _ in range(5)]
    teacher = encoder.init_params(STEP_CONFIG, seed=3)
    maps = []     # every map a forward returns, to see none outlives it

    def recording(params, image):
        c = capture(params, image)
        maps.extend(weakref.ref(a) for a in c.attentions)
        return c

    capture = encoder.forward_capture
    with monkeypatch.context() as patched:
        patched.setattr(encoder, "forward_capture", recording)
        cache = trainer.TeacherCache(teacher, data, cfg, 2)
    assert len(maps) == 5 * STEP_CONFIG.depth
    for first, m in [(0, 2), (4, 2), (3, 1), (2, 2)]:
        got, weights, _ = cache.chunk(first, m)
        want, want_weights = ref_teacher_chunk(teacher, data, cfg, 2,
                                               first, m)
        assert list(got.embeddings) == list(dict.fromkeys((0, *layers)))
        for s, x in got.embeddings.items():
            assert x.data.tobytes() == want[s].tobytes(), s
        assert got.attentions is None
        if want_weights is None:
            assert weights is None
        else:
            assert [None if w is None else w.tobytes() for w in weights] \
                == [None if w is None else w.tobytes() for w in want_weights]
    # no map outlives construction, and none is reachable from the cache:
    # it holds (N + span - 1) k c floats per kept layer, k per weighted
    # layer, and the volumes
    assert all(ref() is None for ref in maps)
    k, c = STEP_CONFIG.tokens, STEP_CONFIG.embed_dim
    assert not any(a.shape[-2:] == (k, k) for a in held_arrays(cache))
    weighted = sum(w is not None for w in weights or ())
    assert held_bytes(cache) == 6 * 8 * (
        k * c * len(got.embeddings) + k * weighted + 8 * 8 * 3)


@pytest.mark.parametrize("source", distill.ATTENTION_SOURCES)
def test_unused_samples_change_no_step(monkeypatch, source):
    # 2 steps in batches of 2 read samples 0..3 of 7: the cache captures
    # 4..6 too, at construction, where ref_train never captures them
    cfg = distill.DistillConfig(layers=(0, 1, 2, 3), gammas=(0.3, 0.6, 1.0),
                                mixing_ratio=0.25, attention_source=source)
    rng = np.random.default_rng(15)
    data = [(rng.random((8, 8, 3)), rng.random((8, 8, 3))) for _ in range(7)]
    teacher = encoder.init_params(STEP_CONFIG, seed=3)
    tcfg = trainer.TrainConfig(epochs=1, steps_per_epoch=2, batch_size=2,
                               lr=1e-3, decay_epoch=1, seed=5)
    assert tcfg.steps_per_epoch * tcfg.batch_size < len(data)

    def run(fn, **kw):
        state = trainer.TrainState.create(teacher, STEP_PLANS[0])
        state, history = fn(teacher, state, data, tcfg, cfg, **kw)
        return history, state_bytes(state)

    want = run(ref_train, chunk=trainer.chunk_size(STEP_CONFIG))
    forwards = []
    capture = encoder.forward_capture
    monkeypatch.setattr(encoder, "forward_capture",
                        lambda p, image: forwards.append(1)
                        or capture(p, image))
    assert run(trainer.train) == want
    assert len(forwards) == len(data)
