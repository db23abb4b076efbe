"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line (visible with -s / in verbose logs)
after its assertions, so the suite doubles as a checklist.
"""

import time

import numpy as np
import pytest

from evadapt.autodiff import Tensor
from evadapt.distill import DistillConfig, distill_loss, mix_tokens
from evadapt.encoder import (VIT_B, TrainablePlan, ViTConfig, count_trainable,
                             forward_capture, forward_tokens, init_params)
from evadapt.events import EventStream, voxelize
from evadapt.metrics import (MaskSet, _greedy_match, _overlap_table,
                             compute_report, iou)
from evadapt.significance import (convergence_diagnostic, token_significance,
                                  transition_exact, transition_stack)
from evadapt.trainer import (TrainConfig, TrainState, load_checkpoint,
                             pipeline_grad_check, save_checkpoint, train)
from test_oracles import transition_approx

TINY = ViTConfig(img_size=8, patch_size=4, embed_dim=8, depth=2,
                 num_heads=2, mlp_hidden=16)


def _passed(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS", flush=True)


def random_attention_stack(rng, k, depth):
    attns = []
    for _ in range(depth):
        a = rng.random((k, k)) + 1e-3
        attns.append(a / a.sum(axis=1, keepdims=True))
    return attns


def test_01_parameter_count_reproduction():
    t0 = time.monotonic()
    reference = [
        (TrainablePlan(mode="embed"), 0.6e6),
        (TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12)), 19.5e6),
        (TrainablePlan(mode="embed+all_mlps"), 57.3e6),
        (TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12),
                       lora_rank=16), 1.1e6),
        (TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12),
                       lora_rank=64), 2.6e6),
        (TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12),
                       lora_rank=256), 8.5e6),
        (TrainablePlan(mode="embed+blocks", layers=tuple(range(1, 13)),
                       lora_rank=16), 2.9e6),
    ]
    for plan, figure in reference:
        n = count_trainable(VIT_B, plan)
        # reference figures are rounded to 0.1M, so accept either a 1%
        # relative match or agreement within half the rounding unit
        rel = abs(n - figure) / figure
        assert rel < 0.01 or abs(n - figure) <= 0.05e6, (plan, n, figure)
        assert round(n / 1e5) * 1e5 == figure, (plan, n, figure)
    assert time.monotonic() - t0 < 1.0
    _passed(1, "parameter-count reproduction")


def test_02_stochasticity_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    params = init_params(TINY, seed=1)
    k = TINY.tokens
    for i in range(1000):
        tokens = Tensor(rng.standard_normal((k, TINY.embed_dim)))
        cap = forward_tokens(params, tokens)
        for a in cap.attentions:
            assert np.all(a >= 0)
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-9
        stack = transition_stack(cap.attentions)
        s = int(rng.integers(1, len(stack) + 1))
        h = transition_approx(stack, s, float(rng.random()))
        assert np.max(np.abs(h.sum(axis=0) - 1.0)) <= 1e-9
        sig = token_significance(stack, s, float(rng.random()))
        assert abs(sig.values.sum() - k) <= 1e-6
    assert time.monotonic() - t0 < 30.0
    _passed(2, "stochasticity invariants over 1000 forwards")


def test_03_transpose_degeneracy():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        attns = random_attention_stack(rng, k, int(rng.integers(1, 6)))
        prod = np.eye(k)
        for a in attns:     # untransposed: row-stochastic rollout
            prod = prod @ a
        values = (0.5 * prod + 0.5 * np.eye(k)) @ np.ones(k)
        assert np.max(np.abs(values - 1.0)) < 1e-9
    _passed(3, "untransposed rollout degenerates to uniform")


def test_04_gradient_correctness():
    t0 = time.monotonic()
    err = pipeline_grad_check(
        TINY, TrainablePlan(mode="embed+mlps", layers=(1, 2)),
        DistillConfig(layers=(0, 1, 2), gammas=(0.5, 1.0),
                      mixing_ratio=0.25, attention_source="teacher"),
        seed=0, step=1e-5)
    assert err <= 1e-4, err
    assert time.monotonic() - t0 < 120.0
    _passed(4, f"full-pipeline gradient check (err={err:.2e})")


def test_05_exact_approx_consistency():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 6))
        stack = transition_stack(random_attention_stack(rng, k, depth))
        b = float(rng.random())
        single = transition_stack(random_attention_stack(rng, k, 1))
        gap = np.abs(transition_exact(single, 1, [b])
                     - transition_approx(single, 1, b)).max()
        assert gap <= 1e-12
        assert np.array_equal(transition_approx(stack, 1, 0.0), np.eye(k))
        prod = np.eye(k)
        for p in stack:
            prod = prod @ p
        assert np.abs(transition_approx(stack, 1, 1.0) - prod).max() <= 1e-12
    _passed(5, "exact/approximate rollout consistency")


def test_06_convergence_diagnostic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        depth = int(rng.integers(2, 13))
        stack = transition_stack(random_attention_stack(rng, 5, depth))
        got = convergence_diagnostic(stack)
        full = np.eye(5)
        for p in stack:
            full = full @ p
        prefix = np.eye(5)
        for i, p in enumerate(stack):
            prefix = prefix @ p
            assert abs(got[i] - np.linalg.norm(prefix - full)) <= 1e-10
        assert got[-1] == 0.0
    uniform = [np.full((4, 4), 0.25)] * 6
    assert np.max(np.abs(convergence_diagnostic(uniform))) <= 1e-12
    _passed(6, "prefix-product convergence diagnostic")


def test_07_metrics_oracle():
    def greedy_oracle(gt, pred):
        pairs, used_g, used_p = [], set(), set()
        while True:
            best = None
            for g in range(len(gt)):
                for p in range(len(pred)):
                    if g in used_g or p in used_p:
                        continue
                    v = iou(gt.masks[g], pred.masks[p])
                    if v <= 0:
                        continue
                    key = (-v, g, p)
                    if best is None or key < best[0]:
                        best = (key, g, p)
            if best is None:
                break
            _, g, p = best
            pairs.append((g, p))
            used_g.add(g)
            used_p.add(p)
        return pairs

    rng = np.random.default_rng(4)
    for _ in range(500):
        H = int(rng.integers(4, 17))
        W = int(rng.integers(4, 17))

        def ms(n):
            out = []
            for _ in range(n):
                m = rng.random((H, W)) < rng.uniform(0.1, 0.5)
                if not m.any():
                    m[0, 0] = True
                out.append(m)
            return MaskSet(masks=out)

        gt = ms(int(rng.integers(1, 7)))
        pred = ms(int(rng.integers(1, 7)))
        got = _greedy_match(*_overlap_table(gt, pred))
        assert [(g, p) for g, p, _ in got] == greedy_oracle(gt, pred)

    a = np.zeros((4, 4), bool)
    a[0:2, 0:2] = True
    b = np.zeros((4, 4), bool)
    b[0:2, 1:3] = True
    assert iou(a, b) == 1 / 3

    big_gt = np.zeros((20, 20), bool)
    big_gt[0:6, 0:10] = True
    big_pred = np.zeros((20, 20), bool)
    big_pred[0:3, 0:10] = True
    small = np.zeros((20, 20), bool)
    small[10:12, 0:10] = True
    r = compute_report(MaskSet(masks=[big_gt, small.copy()]),
                       MaskSet(masks=[big_pred, small.copy()]))
    assert r.aIoU == 0.625
    _passed(7, "greedy matching oracle and worked metric examples")


def _smoke_setup():
    from evadapt.cli import make_dataset
    config = ViTConfig(img_size=32, patch_size=8, embed_dim=32, depth=4,
                       num_heads=4, mlp_hidden=64)
    doc = {"scene": {"height": 32, "width": 32, "num_shapes": 2}}
    data = [(img, vol) for img, vol, _ in make_dataset(doc, 4, seed=0)]
    plan = TrainablePlan(mode="embed+all_mlps")
    dcfg = DistillConfig(layers=(0, 2, 4), gammas=(0.7, 1.0))
    return config, data, plan, dcfg


def _smoke_run(config, data, plan, dcfg, steps, batch_size):
    teacher = init_params(config, seed=0)
    state = TrainState.create(teacher.copy(), plan)
    tcfg = TrainConfig(epochs=1, steps_per_epoch=steps,
                       batch_size=batch_size, lr=1e-3, decay_epoch=1, seed=7)
    state, history = train(teacher, state, data, tcfg, dcfg)
    return [r["total"] for r in history]


def test_08_training_smoke():
    t0 = time.monotonic()
    config, data, plan, dcfg = _smoke_setup()
    losses = _smoke_run(config, data, plan, dcfg, steps=200, batch_size=2)
    assert losses[-1] <= 0.5 * losses[0], (losses[0], losses[-1])
    again = _smoke_run(config, data, plan, dcfg, steps=200, batch_size=2)
    assert losses == again
    overfit = _smoke_run(config, data[:1], plan, dcfg,
                         steps=500, batch_size=1)
    assert overfit[-1] <= 0.1 * overfit[0], (overfit[0], overfit[-1])
    assert time.monotonic() - t0 < 300.0
    _passed(8, f"training smoke (ratio {losses[-1] / losses[0]:.3f}, "
               f"overfit {overfit[-1] / overfit[0]:.3f})")


def test_09_reduction_identities():
    rng = np.random.default_rng(5)
    params = init_params(TINY, seed=2)
    img = rng.random((8, 8, 3))
    vol = rng.random((8, 8, 3))
    t_cap = forward_capture(params, img)
    s_cap = forward_capture(init_params(TINY, seed=3), vol)

    cfg = DistillConfig(layers=(0, 1, 2), gammas=(0.4, 1.0), gamma0=1.0,
                        attention_source="uniform")
    total, _ = distill_loss(t_cap, s_cap, cfg)
    want = sum(cfg.gamma_for(l) * np.abs(t_cap.embeddings[l].data
                                         - s_cap.embeddings[l].data).mean()
               for l in cfg.layers)
    assert abs(total.item() - want) <= 1e-12

    # full mixing with a teacher-initialized student reproduces the teacher
    event_tokens = forward_capture(params, vol).embeddings[0]
    mixed = mix_tokens(Tensor(event_tokens.data),
                       Tensor(t_cap.embeddings[0].data), 1.0, [0])
    student_cap = forward_tokens(params, mixed)
    total, _ = distill_loss(
        t_cap, student_cap,
        DistillConfig(layers=(0, 1, 2), gammas=(0.4, 1.0)))
    assert abs(total.item()) <= 1e-12
    _passed(9, "uniform-source and full-mix reduction identities")


def test_10_event_pipeline_and_resume(tmp_path):
    rng = np.random.default_rng(6)
    ts = np.sort(rng.integers(0, 40_001, 200))
    stream = EventStream(ts, rng.integers(0, 6, 200), rng.integers(0, 6, 200),
                         rng.choice([-1, 1], 200))
    v = voxelize(stream, (0, 40_000), 6, 6, B=3)
    assert v.grid.sum() == 200
    off = 5_000_000
    shifted = EventStream(stream.t + off, stream.x, stream.y, stream.p)
    v2 = voxelize(shifted, (off, 40_000 + off), 6, 6, B=3)
    assert np.array_equal(v.grid, v2.grid)
    one = voxelize(EventStream([20_000], [3], [5], [1]), (0, 40_000), 8, 8,
                   B=3)
    assert one.grid[5, 3, 1] == 1.0 and one.grid.sum() == 1.0

    data = [(rng.random((8, 8, 3)), rng.random((8, 8, 3)))
            for _ in range(2)]
    plan = TrainablePlan(mode="embed+mlps", layers=(1, 2))
    dcfg = DistillConfig(layers=(0, 1, 2), gammas=(0.5, 1.0),
                         mixing_ratio=0.25)
    tcfg = TrainConfig(epochs=1, steps_per_epoch=10, batch_size=2,
                       lr=1e-3, decay_epoch=1, seed=11)
    teacher = init_params(TINY, seed=0)
    full = TrainState.create(teacher.copy(), plan)
    full, _ = train(teacher, full, data, tcfg, dcfg)
    part = TrainState.create(teacher.copy(), plan)
    part, _ = train(teacher, part, data, tcfg, dcfg, total_steps=4)
    ck = tmp_path / "ck.evdt"
    save_checkpoint(ck, part)
    resumed, _, _ = load_checkpoint(ck)
    resumed, _ = train(teacher, resumed, data, tcfg, dcfg, total_steps=6)
    for name, t in full.params.tensors.items():
        assert t.data.tobytes() == \
            resumed.params.tensors[name].data.tobytes(), name
    _passed(10, "event pipeline invariants and bitwise resume")
