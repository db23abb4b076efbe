"""Output checks. Each raises CheckFailed with a one-line reason."""

from __future__ import annotations

import numpy as np

# relative tolerance of the significance weights against the oracle
SIGNIFICANCE_RTOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _curve(history) -> bytes:
    keys = sorted({k for row in history for k in row})
    return np.array([[row.get(k, np.nan) for k in keys] for row in history],
                    dtype=np.float64).tobytes() + repr(keys).encode()


def losses_finite(history):
    _require(history, "empty loss history")
    for row in history:
        for key, value in row.items():
            _require(np.isfinite(value), f"step {row['step']}: {key} = {value}")


def same_curve(history, reference):
    """Two runs of one seed must give bitwise-equal loss curves."""
    _require(len(history) == len(reference),
             f"{len(history)} steps against {len(reference)}")
    _require(_curve(history) == _curve(reference),
             "loss curve differs from the first run of this seed")


def checkpoint_roundtrip(state, loaded):
    """Params, Adam moments and the step come back byte for byte."""
    _require(loaded.step == state.step,
             f"step {loaded.step} read back, {state.step} written")
    want = state.params.all_entries()
    got = loaded.params.all_entries()
    _require(sorted(want) == sorted(got), "parameter names differ")
    for name, t in want.items():
        _require(got[name].data.tobytes() == t.data.tobytes()
                 and got[name].data.shape == t.data.shape,
                 f"parameter {name} differs after reload")
    for label, a, b in (("m", state.m, loaded.m), ("v", state.v, loaded.v)):
        _require(sorted(a) == sorted(b), f"Adam {label} names differ")
        for name in a:
            _require(a[name].tobytes() == b[name].tobytes(),
                     f"Adam {label}[{name}] differs after reload")


def loss_is_zero(loss: float, breakdown: dict):
    _require(loss == 0.0, f"teacher-against-itself loss is {loss!r}, not 0")
    for layer, v in breakdown.items():
        _require(v == 0.0, f"layer {layer} loss is {v!r}, not 0")


def significance(weights: np.ndarray, oracle: np.ndarray):
    """Nonnegative weights summing to k that match the oracle."""
    k = oracle.shape[0]
    _require(weights.shape == (k,), f"weights shape {weights.shape}")
    _require(np.all(np.isfinite(weights)), "non-finite weight")
    _require(np.all(weights >= 0), "negative weight")
    total = float(weights.sum())
    _require(abs(total - k) <= SIGNIFICANCE_RTOL * k,
             f"weights sum to {total!r}, not {k}")
    rel = np.max(np.abs(weights - oracle) / np.abs(oracle))
    _require(rel <= SIGNIFICANCE_RTOL,
             f"weights differ from the oracle by rel {rel:.3e}")


def weighted_term(value: float, expected: float, layer: int):
    """A distill layer term matches the term recomputed with oracle weights."""
    rel = abs(value - expected) / abs(expected)
    _require(rel <= SIGNIFICANCE_RTOL,
             f"layer {layer} term {value!r} differs from the oracle-weighted "
             f"{expected!r} by rel {rel:.3e}")


def events_roundtrip(written, read_back, dims, want_dims):
    _require(dims == want_dims, f"header dims {dims}, wrote {want_dims}")
    _require(len(read_back) == len(written),
             f"{len(read_back)} events read, {len(written)} written")
    _require(list(read_back) == list(written),
             "events read back differ from the stream in memory")


def voxel_count(grid: np.ndarray, stream, window):
    """The unsigned voxel sum counts every event inside the window."""
    t0, t1 = window
    n = sum(1 for e in stream if t0 <= e.t <= t1)
    _require(float(grid.sum()) == float(n),
             f"voxel sum {grid.sum()!r}, {n} events in the window")


def masks_roundtrip(masks, ids, read_masks, read_ids):
    _require(list(read_ids) == list(ids), f"ids {read_ids} read, {ids} written")
    for mid, a, b in zip(ids, masks, read_masks):
        _require(a.shape == b.shape and np.array_equal(a.astype(bool), b),
                 f"mask {mid} differs after the RLE round trip")


def report_consistent(report, gt, pred, iou):
    """Counts add up and every matched IoU equals metrics.iou."""
    _require(report.tp + report.fn == len(gt),
             f"tp+fn = {report.tp + report.fn}, {len(gt)} GT masks")
    _require(report.tp + report.fp == len(pred),
             f"tp+fp = {report.tp + report.fp}, {len(pred)} predictions")
    for inst in report.instances:
        if inst["pred"] is None:
            continue
        g = gt.masks[gt.ids.index(inst["gt"])]
        p = pred.masks[pred.ids.index(inst["pred"])]
        want = iou(g, p)
        _require(inst["iou"] == want,
                 f"gt {inst['gt']} matched IoU {inst['iou']!r}, "
                 f"metrics.iou gives {want!r}")
