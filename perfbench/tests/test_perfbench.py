"""Tests of the benchmark itself: arithmetic, rules and output checks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from evadapt import (distill, encoder, events, io, metrics,  # noqa: E402
                     synth, trainer)

TINY = encoder.ViTConfig(img_size=8, patch_size=4, embed_dim=8, depth=2,
                         num_heads=2, mlp_hidden=16)


def ulp_up(x):
    return np.nextafter(x, np.inf)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [("a", -1, 0.0, 10.0),
             ("b", 0, 1.0, 4.0),
             ("c", 1, 2.0, 3.0),
             ("d", 0, 5.0, 6.0)]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips():
    # children overlap each other (1..5 and 3..7) and one leaks past the
    # parent's end (8..12): covered is 1..7 plus 8..10
    spans = [("p", -1, 0.0, 10.0),
             ("x", 0, 1.0, 5.0),
             ("y", 0, 3.0, 7.0),
             ("z", 0, 8.0, 12.0)]
    assert tracer.self_times(spans)[0] == pytest.approx(2.0)


def test_self_times_partition_the_root():
    rng = np.random.default_rng(0)
    spans, stack, t = [], [], 0.0
    for _ in range(200):            # a random well-nested call tree
        t += rng.random()
        if stack and rng.random() < 0.5:
            spans[stack.pop()][3] = t
        else:
            spans.append(["n", stack[-1] if stack else -1, t, None])
            stack.append(len(spans) - 1)
    while stack:
        t += 1.0
        spans[stack.pop()][3] = t
    roots = sum(e - s for _, p, s, e in spans if p < 0)
    assert sum(tracer.self_times(spans)) == pytest.approx(roots)


# -- tail percentile -----------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    got = run.tail_percentile(list(range(n)))
    if want is None:
        assert got is None
        return
    p, value = got
    assert p == want
    assert sum(1 for x in range(n) if x > value) >= 10
    higher = [q for q in run.PERCENTILES if q > p]
    for q in higher:
        assert n - math.ceil(Fraction(str(q)) * n / 100) < 10


def test_fast_decile_is_nearest_rank():
    assert run.fast_decile([3.0]) == 3.0
    assert run.fast_decile([5.0, 1.0, 4.0, 2.0]) == 1.0
    assert run.fast_decile(list(range(10, 0, -1))) == 1
    assert run.fast_decile(list(range(1, 12))) == 2
    assert run.fast_decile(list(range(1, 26))) == 3


def test_blas_threads_capped_at_cores():
    env = {"OPENBLAS_NUM_THREADS": "64"}
    assert run.cap_blas_threads(env, 2) == 2
    assert set(env.values()) == {"2"}
    env = {}
    assert run.cap_blas_threads(env, 4) == 4
    assert env["OMP_NUM_THREADS"] == "4"
    env = {"OMP_NUM_THREADS": "1"}
    assert run.cap_blas_threads(env, 4) == 1


# -- output checks reject corrupted results ----------------------------------

def oracle_weights(seed=0, k=16, depth=4, beta=0.5, s=2):
    rng = np.random.default_rng(seed)
    attns = []
    for _ in range(depth):
        a = rng.random((k, k)) + 1e-3
        attns.append(a / a.sum(axis=1, keepdims=True))
    stack = workloads.significance.transition_stack(attns)
    prod = workloads.significance.transition_exact(
        stack, s, [1.0] * (depth - s + 1))
    oracle = beta * prod.sum(axis=1) + (1 - beta)
    w = workloads.significance.token_significance(stack, s, beta).values
    return w, oracle


def test_significance_accepts_program_weights():
    w, oracle = oracle_weights()
    checks.significance(w, oracle)


@pytest.mark.parametrize("corrupt", [
    lambda w: w * (1 + 1e-9),
    lambda w: np.where(np.arange(w.size) == 3, -w, w),
    lambda w: np.roll(w, 1),
    lambda w: w[:-1],
    lambda w: np.where(np.arange(w.size) == 0, np.nan, w),
])
def test_significance_rejects_corrupted_weights(corrupt):
    w, oracle = oracle_weights()
    with pytest.raises(CheckFailed):
        checks.significance(corrupt(w), oracle)


def test_weighted_term_rejects_scaled_weights():
    w, oracle = oracle_weights()
    diff = np.random.default_rng(1).random((w.size, 4))
    term = float((diff * w[:, None]).mean())
    checks.weighted_term(term, float((diff * oracle[:, None]).mean()), 3)
    bad = float((diff * (w * (1 + 1e-9))[:, None]).mean())
    with pytest.raises(CheckFailed):
        checks.weighted_term(bad, float((diff * oracle[:, None]).mean()), 3)


def test_loss_is_zero_rejects_tiny_loss():
    checks.loss_is_zero(0.0, {0: 0.0, 3: 0.0})
    with pytest.raises(CheckFailed):
        checks.loss_is_zero(5e-324, {0: 0.0})
    with pytest.raises(CheckFailed):
        checks.loss_is_zero(0.0, {0: 0.0, 3: 1e-300})


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    rng = np.random.default_rng(0)
    teacher = encoder.init_params(TINY, seed=0)
    data = [(rng.random((8, 8, 3)), rng.random((8, 8, 3))) for _ in range(2)]
    plan = encoder.TrainablePlan(mode="embed+mlps", layers=(1, 2))
    dcfg = distill.DistillConfig(layers=(0, 1, 2), gammas=(0.5, 1.0))
    tcfg = trainer.TrainConfig(epochs=1, steps_per_epoch=3, decay_epoch=1)

    def train():
        state = trainer.TrainState.create(teacher.copy(), plan)
        return trainer.train(teacher, state, data, tcfg, dcfg)

    state, history = train()
    path = tmp_path_factory.mktemp("ckpt") / "c.evdt"
    trainer.save_checkpoint(path, state)
    loaded, _, _ = trainer.load_checkpoint(path)
    return {"train": train, "state": state, "history": history,
            "loaded": loaded, "teacher": teacher, "data": data,
            "plan": plan, "dcfg": dcfg, "tcfg": tcfg}


def test_loss_curve_checks(tiny_run):
    history = tiny_run["history"]
    checks.losses_finite(history)
    checks.same_curve(tiny_run["train"]()[1], history)
    bumped = [dict(r) for r in history]
    bumped[-1]["total"] = ulp_up(bumped[-1]["total"])
    with pytest.raises(CheckFailed):
        checks.same_curve(bumped, history)
    with pytest.raises(CheckFailed):
        checks.same_curve(history[:-1], history)
    bumped[0]["layer_1"] = float("nan")
    with pytest.raises(CheckFailed):
        checks.losses_finite(bumped)


def test_checkpoint_roundtrip_check(tiny_run):
    state, loaded = tiny_run["state"], tiny_run["loaded"]
    checks.checkpoint_roundtrip(state, loaded)
    name = sorted(state.m)[0]
    entry = loaded.params.all_entries()[name]
    keep = entry.data.copy()
    entry.data.flat[0] = ulp_up(entry.data.flat[0])
    with pytest.raises(CheckFailed):
        checks.checkpoint_roundtrip(state, loaded)
    entry.data = keep
    loaded.v[name] = loaded.v[name] * (1 + 1e-9)
    with pytest.raises(CheckFailed):
        checks.checkpoint_roundtrip(state, loaded)
    loaded.v[name] = state.v[name].copy()
    loaded.step += 1
    with pytest.raises(CheckFailed):
        checks.checkpoint_roundtrip(state, loaded)
    loaded.step -= 1
    checks.checkpoint_roundtrip(state, loaded)


def test_tracing_leaves_the_loss_curve_bit_identical(tiny_run):
    t = tracer.Tracer(workloads.MODULES)
    t.install()
    try:
        t.phase = "loop"
        history = tiny_run["train"]()[1]
    finally:
        t.close()
    checks.same_curve(history, tiny_run["history"])
    names = {s[0] for s in t.spans}
    assert {"autodiff.backward", "trainer.adam", "distill.loss",
            "encoder.student_forward", "significance.rollout"} <= names
    # close() put every original back
    assert trainer.adam_step.__name__ == "adam_step"
    assert not hasattr(trainer.adam_step, "__wrapped__")
    assert not hasattr(encoder.matmul, "__wrapped__")


def test_layer_metrics_name_every_per_layer_metric(tiny_run):
    t = tracer.Tracer(workloads.MODULES)
    t.install()
    try:
        t.phase = "loop"
        tiny_run["train"]()
    finally:
        t.close()
    out = tracer.layer_metrics(t, items=3, traced_wall=1.0,
                               untraced_wall=1.0, checkpoint_mb=0.0)
    assert sorted(out) == sorted(n for n, _, _ in spec.PER_LAYER)
    assert out["trainer.teacher_cache_misses"] == 2
    assert out["autodiff.graph_nodes"] > 0


@pytest.fixture(scope="module")
def frame(tmp_path_factory):
    d = tmp_path_factory.mktemp("frame")
    spec_ = workloads.scene(3, 0, 32)
    stream = synth.generate_events(spec_)
    events.write_events(d / "e.txt", stream, dims=(32, 32))
    read_back, dims = events.read_events(d / "e.txt")
    window = (0, int(spec_.window_ms * 1000))
    grid = events.voxelize(read_back, window, 32, 32).grid
    gt = synth.ground_truth_masks(spec_, spec_.window_ms)
    pred = metrics.MaskSet(masks=[gt.masks[0], np.roll(gt.masks[-1], 2, 1)])
    io.write_masks(d / "m.rle", pred.masks, pred.ids, shape=(32, 32))
    rm, rids, _ = io.read_masks(d / "m.rle")
    report = metrics.compute_report(gt, metrics.MaskSet(masks=rm, ids=rids))
    return {"stream": stream, "read_back": read_back, "dims": dims,
            "grid": grid, "window": window, "gt": gt, "pred": pred,
            "rm": rm, "rids": rids, "report": report}


def test_event_checks(frame):
    stream, back = frame["stream"], frame["read_back"]
    assert len(stream) > 0
    checks.events_roundtrip(stream, back, frame["dims"], (32, 32))
    with pytest.raises(CheckFailed):
        checks.events_roundtrip(stream, back[:-1], frame["dims"], (32, 32))
    e = back[0]
    flipped = [type(e)(t=e.t, x=e.x, y=e.y, p=-e.p)] + back[1:]
    with pytest.raises(CheckFailed):
        checks.events_roundtrip(stream, flipped, frame["dims"], (32, 32))
    with pytest.raises(CheckFailed):
        checks.events_roundtrip(stream, back, (32, 31), (32, 32))
    checks.voxel_count(frame["grid"], stream, frame["window"])
    grid = frame["grid"].copy()
    grid[0, 0, 0] += 1
    with pytest.raises(CheckFailed):
        checks.voxel_count(grid, stream, frame["window"])


def test_mask_checks(frame):
    pred = frame["pred"]
    checks.masks_roundtrip(pred.masks, pred.ids, frame["rm"], frame["rids"])
    bad = [m.copy() for m in frame["rm"]]
    bad[0][0, 0] = not bad[0][0, 0]
    with pytest.raises(CheckFailed):
        checks.masks_roundtrip(pred.masks, pred.ids, bad, frame["rids"])
    with pytest.raises(CheckFailed):
        checks.masks_roundtrip(pred.masks, pred.ids, frame["rm"], [1, 0])


def test_report_checks(frame):
    gt, report = frame["gt"], frame["report"]
    pred = metrics.MaskSet(masks=frame["rm"], ids=frame["rids"])
    checks.report_consistent(report, gt, pred, metrics.iou)
    assert any(i["pred"] is not None for i in report.instances)
    inst = next(i for i in report.instances if i["pred"] is not None)
    keep = inst["iou"]
    inst["iou"] = ulp_up(keep)
    with pytest.raises(CheckFailed):
        checks.report_consistent(report, gt, pred, metrics.iou)
    inst["iou"] = keep
    report.tp += 1
    with pytest.raises(CheckFailed):
        checks.report_consistent(report, gt, pred, metrics.iou)
    report.tp -= 1


# -- the benchmark as the driver sees it -------------------------------------

def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()
    doc = json.loads(spec.benchmark_json())
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(spec.WORKLOADS) == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-tiny",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
