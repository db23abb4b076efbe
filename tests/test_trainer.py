import hashlib
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from evadapt import cli, distill, encoder, trainer
from evadapt.autodiff import NonFiniteError
from evadapt.distill import DistillConfig
from evadapt.encoder import (PLAN_MODES, TrainablePlan, ViTConfig,
                             count_trainable, forward_capture, init_params)
from evadapt.io import DumpFormatError, read_dump, write_dump
from evadapt.trainer import (TrainConfig, TrainState,
                             adam_step, load_checkpoint, lr_at,
                             pipeline_grad_check, save_checkpoint, train)
from test_oracles import dot, flat_grad, held_bytes, state_bytes

ROOT = Path(__file__).resolve().parents[1]
TINY = ViTConfig(img_size=8, patch_size=4, embed_dim=8, depth=2,
                 num_heads=2, mlp_hidden=16)
PLAN = TrainablePlan(mode="embed+mlps", layers=(1, 2))
DCFG = DistillConfig(layers=(0, 1, 2), gammas=(0.5, 1.0), mixing_ratio=0.25)


def tiny_data(seed=0, n=2):
    rng = np.random.default_rng(seed)
    return [(rng.random((8, 8, 3)), rng.random((8, 8, 3))) for _ in range(n)]


def tiny_state(seed=1):
    return TrainState.create(init_params(TINY, seed=seed), PLAN)


def frozen_sha(state: TrainState) -> str:
    """Digest of all non-trainable parameter bytes."""
    h = hashlib.sha256()
    entries = state.params.tensors
    for name in sorted(entries):
        if name not in state.m:
            h.update(name.encode())
            h.update(entries[name].data.tobytes())
    return h.hexdigest()


class TestLrSchedule:
    def test_reference_values(self):
        # the paper's schedule: 2e-4, one 0.9 decay at epoch 4 of 5
        cfg = TrainConfig(epochs=5, lr=2e-4, decay_factor=0.9, decay_epoch=4)
        assert lr_at(cfg, 1) == 2e-4
        assert lr_at(cfg, 3) == 2e-4
        assert lr_at(cfg, 4) == pytest.approx(1.8e-4)
        assert lr_at(cfg, 5) == pytest.approx(1.8e-4)

    def test_epoch_bounds(self):
        with pytest.raises(ValueError):
            lr_at(TrainConfig(), 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError, match="decay"):
            TrainConfig(epochs=3, decay_epoch=4)
        # a negative factor made every decayed step a gradient ascent
        for factor in (0.0, -1.0):
            with pytest.raises(ValueError, match="decay_factor must be positive"):
                TrainConfig(decay_factor=factor)
        # decay epoch 0 or below decayed the rate from epoch 1
        for epoch in (0, -3):
            with pytest.raises(ValueError, match="decay_epoch must be >= 1"):
                TrainConfig(decay_epoch=epoch)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)


class TestAdamStep:
    def test_first_step_moves_by_lr(self):
        # with bias correction the first update has magnitude lr * g/|g|
        state = tiny_state()
        name = "embed.w"
        before = state.params.tensors[name].data.copy()
        adam_step(state, flat_grad(state, {name: np.ones_like(before)}),
                  lr=1e-3)
        delta = state.params.tensors[name].data - before
        assert np.allclose(np.abs(delta), 1e-3, atol=1e-10)
        assert state.step == 1

    def test_only_trainables_move(self):
        state = tiny_state()
        frozen_before = state.params.tensors["pos"].data.copy()
        adam_step(state, np.ones(state.size), lr=1e-2)
        assert np.array_equal(state.params.tensors["pos"].data, frozen_before)
        assert not np.array_equal(
            state.params.tensors["embed.w"].data,
            init_params(TINY, seed=1).tensors["embed.w"].data)

    def test_non_finite_gradient_names_param(self):
        state = tiny_state()
        grads = {"embed.b": np.full_like(state.m["embed.b"], np.nan)}
        with pytest.raises(NonFiniteError, match="embed.b"):
            adam_step(state, flat_grad(state, grads), lr=1e-3)

    @staticmethod
    def moved_state():
        """A state one step in, so its moments are not all zero."""
        state = tiny_state()
        rng = np.random.default_rng(3)
        adam_step(state, rng.normal(size=state.size), lr=1e-3)
        return state

    @staticmethod
    def snapshot(state):
        entries = state.params.tensors
        return (state.step,
                {n: entries[n].data.tobytes() for n in entries},
                {n: state.m[n].tobytes() for n in state.m},
                {n: state.v[n].tobytes() for n in state.v})

    def test_non_finite_gradient_changes_nothing(self):
        # embed.w is last in sorted order: the other entries, their
        # moments and the step used to move before it raised
        state = self.moved_state()
        before = self.snapshot(state)
        grads = {n: np.ones_like(state.m[n]) for n in state.m}
        grads["embed.w"][3, 1] = np.nan
        assert sorted(state.m)[-1] == "embed.w"
        with pytest.raises(NonFiniteError, match="'embed.w'"):
            adam_step(state, flat_grad(state, grads), lr=1e-3)
        assert self.snapshot(state) == before

    @pytest.mark.parametrize("change", [
        lambda g: g[:-1], lambda g: np.append(g, 1.0),
        lambda g: g.astype(np.float32)], ids=["short", "long", "float32"])
    def test_misshapen_flat_gradient_changes_nothing(self, change):
        state = self.moved_state()
        before = self.snapshot(state)
        with pytest.raises(ValueError, match=rf"the plan float64 "
                           rf"\({state.size},\)"):
            adam_step(state, change(np.ones(state.size)), lr=1e-3)
        assert self.snapshot(state) == before


class TestTrainLoop:
    def test_loss_decreases(self):
        data = tiny_data()
        teacher = init_params(TINY, seed=0)
        state = TrainState.create(teacher.copy(), PLAN)
        tcfg = TrainConfig(epochs=1, steps_per_epoch=60, batch_size=2,
                           lr=1e-3, decay_epoch=1)
        state, history = train(teacher, state, data, tcfg, DCFG)
        assert len(history) == 60
        assert history[-1]["total"] < 0.5 * history[0]["total"]

    def test_history_row_fields(self):
        data = tiny_data()
        teacher = init_params(TINY, seed=0)
        state = TrainState.create(teacher.copy(), PLAN)
        tcfg = TrainConfig(epochs=1, steps_per_epoch=3, batch_size=1,
                           lr=1e-3, decay_epoch=1)
        _, history = train(teacher, state, data, tcfg, DCFG)
        row = history[0]
        assert row["step"] == 1 and row["epoch"] == 1
        assert row["lr"] == pytest.approx(1e-3 * 0.9)
        assert set(row) >= {"total", "layer_0", "layer_1", "layer_2"}
        # breakdown holds unscaled layer terms; total applies the gammas
        assert row["total"] == pytest.approx(
            row["layer_0"] + 0.5 * row["layer_1"] + row["layer_2"], rel=1e-12)

    def test_non_finite_loss_names_step_and_breakdown(self, monkeypatch):
        step_loss, calls = trainer.student_step_loss, []

        def poisoned(*args, **kwargs):
            loss, breakdown = step_loss(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:  # step 2's one chunk
                loss.data, breakdown[2] = np.array(np.nan), float("nan")
            return loss, breakdown

        monkeypatch.setattr(trainer, "student_step_loss", poisoned)
        state = tiny_state()
        with pytest.raises(NonFiniteError, match=(
                r"^non-finite loss at step 2; "
                r"layer breakdown: \{0: [\d.e-]+, 1: [\d.e-]+, 2: nan\}$")):
            train(init_params(TINY, seed=0), state, tiny_data(),
                  TrainConfig(epochs=1, steps_per_epoch=5, decay_epoch=1),
                  DCFG)
        assert state.step == 2

    def test_frozen_params_never_change(self):
        data = tiny_data()
        teacher = init_params(TINY, seed=0)
        state = TrainState.create(teacher.copy(), PLAN)
        sha0 = frozen_sha(state)
        tcfg = TrainConfig(epochs=1, steps_per_epoch=10, batch_size=1,
                           lr=1e-3, decay_epoch=1)
        train(teacher, state, data, tcfg, DCFG)
        assert frozen_sha(state) == sha0

    def test_deterministic_across_runs(self):
        data = tiny_data()
        teacher = init_params(TINY, seed=0)
        tcfg = TrainConfig(epochs=1, steps_per_epoch=8, batch_size=2,
                           lr=1e-3, decay_epoch=1, seed=4)
        outs = []
        for _ in range(2):
            state = TrainState.create(teacher.copy(), PLAN)
            state, history = train(teacher, state, data, tcfg, DCFG)
            outs.append((state.params.tensors["embed.w"].data.tobytes(),
                         [r["total"] for r in history]))
        assert outs[0] == outs[1]


TINY_PROFILE = ViTConfig(img_size=16, patch_size=4, embed_dim=16, depth=2,
                         num_heads=2, mlp_hidden=32)
MID_PROFILE = ViTConfig(img_size=32, patch_size=4, embed_dim=192, depth=12,
                        num_heads=3, mlp_hidden=768)


@pytest.mark.parametrize("stack", [24576, trainer.STACK, 36863])
def test_chunk_rule(monkeypatch, stack):
    # the tiny profile's batch of 2 shares one graph; two train-mid
    # samples (64 tokens of width 192) share one
    monkeypatch.setattr(trainer, "STACK", stack)
    assert trainer.chunk_size(TINY_PROFILE) >= 2
    assert trainer.chunk_size(MID_PROFILE) == 2


def test_chunk_size_values():
    assert trainer.chunk_size(TINY_PROFILE) == 128
    assert trainer.chunk_size(TINY) == 1024
    assert trainer.chunk_size(MID_PROFILE) == 2
    assert trainer.chunk_size(encoder.VIT_B) == 1


@pytest.mark.parametrize("source", distill.ATTENTION_SOURCES)
def test_teacher_weights_rolled_out_once_per_sample(monkeypatch, source):
    calls = {"rollout": 0, "loss": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the names a tracer patches: the trainer must call through them
    monkeypatch.setattr(distill, "token_significance",
                        counting("rollout", distill.token_significance))
    monkeypatch.setattr(trainer, "distill_loss",
                        counting("loss", trainer.distill_loss))
    dcfg = replace(DCFG, attention_source=source)
    data = tiny_data(n=3)
    tcfg = TrainConfig(epochs=1, steps_per_epoch=6, batch_size=2,
                       decay_epoch=1)
    train(init_params(TINY, seed=0), tiny_state(), data, tcfg, dcfg)
    # one loss per chunk; TINY's batch of 2 is one chunk
    assert trainer.chunk_size(TINY) >= tcfg.batch_size
    assert calls["loss"] == tcfg.steps_per_epoch
    # layers 1 and 2 are weighted. The teacher source rolls out layer 1
    # only (2 is the terminal layer), once for all 3 samples' stacked
    # maps; the single-layer source block 2's map once per weighted
    # layer; the student source layer 1 once per chunk of every step
    assert calls["rollout"] == {"teacher": 1, "teacher_single_layer": 2,
                                "uniform": 0,
                                "student": tcfg.steps_per_epoch}[source]


class TestTeacherCache:
    def test_chunks_stack_the_samples_captures(self, monkeypatch):
        teacher = init_params(TINY, seed=0)
        data = tiny_data(n=3)
        forwards = []
        monkeypatch.setattr(encoder, "forward_capture",
                            lambda p, image: forwards.append(1)
                            or forward_capture(p, image))
        cache = trainer.TeacherCache(teacher, data, DCFG, 2)
        # every sample is captured once, at construction
        assert len(forwards) == 3
        caps = [forward_capture(teacher, image) for image, _ in data]
        for first, m in [(1, 2), (2, 2), (0, 1), (1, 2)]:
            idxs = [(first + j) % len(data) for j in range(m)]
            capture, weights, volumes = cache.chunk(first, m)
            # the layers the loss reads, by number, and no maps: the maps
            # reach the chunk only through the weights rolled out of them
            assert list(capture.embeddings) == [0, 1, 2]
            assert capture.attentions is None
            for layer, x in capture.embeddings.items():
                assert x.shape == (m * 4, 8)
                assert x.data.tobytes() == np.concatenate(
                    [caps[i].embeddings[layer].data for i in idxs]).tobytes()
            assert weights[0] is None and weights[2] is None  # 0, terminal
            assert weights[1].tobytes() == np.concatenate(
                [distill.layer_weights(DCFG, caps[i].attentions)[1]
                 for i in idxs]).tobytes()
            assert volumes.tobytes() == np.stack(
                [data[i][1] for i in idxs]).tobytes()
            # every chunk, (2, 2) = samples 2, 0 too, is a view of the cache
            for got, held in [*((x.data, cache.embeddings[s])
                                for s, x in capture.embeddings.items()),
                              (weights[1], cache.weights[1]),
                              (volumes, cache.volumes)]:
                assert np.shares_memory(got, held)
        assert len(forwards) == 3
        assert cache.chunk(1, 2) is cache.chunk(1, 2)

    def test_span_past_the_dataset_cycles(self):
        # 3 samples from 2: the chunk (1, 3) is samples 1, 0, 1
        data = tiny_data(n=2)
        capture, weights, volumes = trainer.TeacherCache(
            init_params(TINY, seed=0), data, DCFG, 3).chunk(1, 3)
        assert volumes.tobytes() == np.stack(
            [data[i][1] for i in (1, 0, 1)]).tobytes()
        assert capture.embeddings[0].shape == (3 * 4, 8)
        assert weights[1].shape == (3 * 4,)

    def test_train_mid_cache_bytes(self):
        # train-mid's shape: 8 samples of k = 64 tokens of width 192 in
        # chunks of 1 under the default layers (0, 3, 6, 9, 12). The cache
        # holds (N + span - 1) k c floats per kept layer, k per weighted
        # layer (3, 6, 9; the terminal 12 is uniform) and the volumes:
        # 3.93 MB of embeddings where every layer and map took 13.37 MB
        rng = np.random.default_rng(0)
        data = [(rng.random((32, 32, 3)), rng.random((32, 32, 3)))
                for _ in range(8)]
        cache = trainer.TeacherCache(init_params(MID_PROFILE, seed=0), data,
                                     DistillConfig(), 1)
        for first in range(8):
            cache.chunk(first, 1)
        k, c = MID_PROFILE.tokens, MID_PROFILE.embed_dim
        assert list(cache.embeddings) == [0, 3, 6, 9, 12]
        assert 8 * k * c * 8 * 5 == 3_932_160
        assert held_bytes(cache) == 8 * 8 * (k * c * 5 + k * 3 + 32 * 32 * 3)

    def test_layer_past_the_depth_named(self):
        # the cache keeps only the layers it can capture, so the loss's
        # own check names the layer, as when the cache kept every layer
        dcfg = replace(DCFG, layers=(0, 1, 3))
        tcfg = TrainConfig(epochs=1, steps_per_epoch=1, decay_epoch=1)
        with pytest.raises(ValueError,
                           match="^layer 3 exceeds encoder depth 2$"):
            train(init_params(TINY, seed=0), tiny_state(), tiny_data(),
                  tcfg, dcfg)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="^data holds no samples$"):
            trainer.TeacherCache(init_params(TINY, seed=0), [], DCFG, 1)

    def test_student_source_keeps_no_weights(self):
        cache = trainer.TeacherCache(init_params(TINY, seed=0), tiny_data(),
                                     replace(DCFG, attention_source="student"),
                                     2)
        assert cache.chunk(0, 2)[1] is None


@pytest.mark.parametrize("stack", [1, trainer.STACK])
def test_stale_grads_reach_no_step(monkeypatch, stack):
    # STACK = 1 runs each batch of 2 as two chunks
    monkeypatch.setattr(trainer, "STACK", stack)
    teacher = init_params(TINY, seed=0)
    tcfg = TrainConfig(epochs=1, steps_per_epoch=3, batch_size=2,
                       decay_epoch=1)
    fresh, stale = tiny_state(), tiny_state()
    for name in stale.m:
        stale.params.tensors[name].grad = np.full(stale.m[name].shape, 1e3)
    runs = [train(teacher, s, tiny_data(n=3), tcfg, DCFG)[1]
            for s in (fresh, stale)]
    assert runs[0] == runs[1]
    assert state_bytes(fresh) == state_bytes(stale)


class TestPackedState:
    """The trainable values and moments live in three flat buffers; the
    arrays a caller handed over, or a file gave, are copied, never
    written."""

    def test_train_leaves_the_callers_arrays_alone(self):
        teacher = init_params(TINY, seed=0)
        params = teacher.copy()
        given = {n: (t.data, t.data.copy()) for n, t in params.tensors.items()}
        state = TrainState.create(params, PLAN)
        tcfg = TrainConfig(epochs=1, steps_per_epoch=3, batch_size=2,
                           decay_epoch=1)
        train(teacher, state, tiny_data(), tcfg, DCFG)
        for a, copy in given.values():
            assert a.tobytes() == copy.tobytes()
        for name in state.m:
            assert not np.array_equal(params.tensors[name].data,
                                      given[name][1])
            for a, flat in zip((params.tensors[name].data, state.m[name],
                                state.v[name]), state.flat):
                assert np.shares_memory(a, flat)

    def test_train_leaves_the_loaded_arrays_alone(self, tmp_path,
                                                  monkeypatch):
        teacher = init_params(TINY, seed=0)
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        read = {}

        def recording(path):
            tensors, meta = read_dump(path)
            read.update((n, (a, a.copy())) for n, a in tensors.items())
            return tensors, meta

        def shared(state):
            return [np.shares_memory(a, read[key][0]) for name in state.layout
                    for a, key in ((state.params.tensors[name].data,
                                    f"param.{name}"),
                                   (state.m[name], f"adam.m.{name}"),
                                   (state.v[name], f"adam.v.{name}"))]

        monkeypatch.setattr(trainer, "read_dump", recording)
        state, _, _ = load_checkpoint(ck)
        # a state that is only read (eval, a checkpoint round trip) holds
        # no copy: packing at load held the file's arrays and their copies
        assert all(shared(state))
        tcfg = TrainConfig(epochs=1, steps_per_epoch=3, decay_epoch=1)
        train(teacher, state, tiny_data(), tcfg, DCFG)
        assert state.step == 3
        assert not any(shared(state))
        assert len(read) == len(state.params.tensors) + 2 * len(state.m)
        for a, copy in read.values():
            assert a.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("rank", [None, 8], ids=["dense", "lora"])
    def test_student_holds_only_what_it_trains(self, rank):
        # train-mid's model shape, whose frozen entries are 33 MB: the
        # student shares them with its teacher, so creating it allocates
        # only the flat values, m and v of the entries it trains
        mid = ViTConfig(img_size=32, patch_size=4, embed_dim=192, depth=12,
                        num_heads=3, mlp_hidden=768)
        plan = TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12),
                             lora_rank=rank)
        teacher = init_params(mid, seed=0)
        digest = {n: hashlib.sha256(t.data).hexdigest()
                  for n, t in teacher.tensors.items()}
        tracemalloc.start()
        try:
            state = TrainState.create(teacher.copy(), plan)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 3 * 8 * count_trainable(mid, plan) + 2 ** 20
        frozen = [n for n in teacher.tensors if n not in state.m]
        assert len(frozen) > len(state.m)
        for name in frozen:
            assert np.shares_memory(state.params.tensors[name].data,
                                    teacher.tensors[name].data), name
        rng = np.random.default_rng(0)
        data = [(rng.random((32, 32, 3)), rng.random((32, 32, 3)))]
        train(teacher, state, data, TrainConfig(
            epochs=1, steps_per_epoch=1, decay_epoch=1), DistillConfig())
        assert state.step == 1
        assert {n: hashlib.sha256(t.data).hexdigest()
                for n, t in teacher.tensors.items()} == digest

    def test_misshapen_moment_named_at_first_pack(self):
        shapes = encoder.trainable_shapes(TINY, PLAN)
        v = {n: np.zeros(s) for n, s in shapes.items()}
        v["block.2.mlp2.b"] = np.zeros(3)
        state = TrainState(params=init_params(TINY, seed=1), plan=PLAN,
                           m={n: np.zeros(s) for n, s in shapes.items()}, v=v)
        with pytest.raises(ValueError, match=r"v of 'block.2.mlp2.b'.*\(3,\)"):
            adam_step(state, np.zeros(state.size), lr=1e-3)
        assert state.step == 0


# every mode dense, and LoRA over both kinds of block parts
EVERY_PLAN = pytest.mark.parametrize("plan", [
    TrainablePlan(mode=m, layers=(2,)) for m in PLAN_MODES
] + [TrainablePlan(mode=f"embed+{k}", layers=(1, 2), lora_rank=2)
     for k in ("mlps", "blocks")],
    ids=[f"{m}-mlps" for m in PLAN_MODES] + ["lora-mlps", "lora-blocks"])


@EVERY_PLAN
def test_every_entry_order_is_the_plans(plan, tmp_path):
    # the entries a state adds after the base ones, its moments, and its
    # checkpoint's param. and adam.m. entries all follow trainable_shapes
    shapes = list(encoder.trainable_shapes(TINY, plan))
    base = list(encoder.param_shapes(TINY))
    state = TrainState.create(init_params(TINY, seed=0), plan, seed=1)
    save_checkpoint(tmp_path / "ck.evdt", state)
    for state in (state, load_checkpoint(tmp_path / "ck.evdt")[0]):
        assert list(state.params.tensors) == \
            base + [n for n in shapes if n not in base]
        assert list(state.m) == list(state.v) == shapes
    names = list(read_dump(tmp_path / "ck.evdt")[0])
    assert [n for n in names if n.startswith("param.")] == \
        [f"param.{n}" for n in state.params.tensors]
    assert [n for n in names if n.startswith("adam.m.")] == \
        [f"adam.m.{n}" for n in shapes]


@EVERY_PLAN
def test_create_marks_exactly_the_moment_entries(plan, tmp_path):
    # a created state and its reload: requires_grad on exactly the layout's
    # entries, every .grad cleared, and a backward reaches only those
    params = init_params(TINY, seed=0)
    for t in params.tensors.values():  # stale marks the state must clear
        t.requires_grad, t.grad = True, np.ones(t.data.shape)
    state = TrainState.create(params, plan)
    save_checkpoint(tmp_path / "ck.evdt", state)
    for state in (state, load_checkpoint(tmp_path / "ck.evdt")[0]):
        entries = state.params.tensors
        assert list(state.layout) == sorted(state.m)
        assert [n for n, t in entries.items() if t.requires_grad] == \
            [n for n in entries if n in state.layout]
        assert all(t.grad is None for t in entries.values())
        assert all(state.m[n].shape == entries[n].data.shape
                   for n in state.m)
        last = forward_capture(state.params, np.random.default_rng(6)
                               .random((8, 8, 3))).embeddings[-1]
        dot(last, last.data).backward()
        assert {n for n, t in entries.items() if t.grad is not None} == \
            set(state.layout)


def test_moments_of_absent_entries_named():
    params = init_params(TINY, seed=0)
    shapes = encoder.trainable_shapes(TINY, PLAN)
    m = {n: np.zeros(s) for n, s in shapes.items()}
    m["block.9.mlp1.w"], m["block.1.qkv.lora_a"] = np.zeros(2), np.zeros(2)
    with pytest.raises(ValueError, match=r"^moments of absent entries: "
                       r"block\.1\.qkv\.lora_a, block\.9\.mlp1\.w$"):
        TrainState(params=params, plan=PLAN, m=m, v=m)
    assert not any(t.requires_grad for t in params.tensors.values())


def test_create_draws_adapters_from_seed():
    plan = TrainablePlan(mode="embed+mlps", layers=(1,), lora_rank=2)
    a = [TrainState.create(init_params(TINY, seed=0), plan, seed=s)
         .params.tensors["block.1.mlp1.lora_a"].data for s in (3, 3, 4)]
    assert np.array_equal(a[0], a[1]) and not np.array_equal(a[0], a[2])


class TestCheckpointResume:
    def test_bitwise_resume(self, tmp_path):
        data = tiny_data()
        teacher = init_params(TINY, seed=0)
        tcfg = TrainConfig(epochs=1, steps_per_epoch=12, batch_size=2,
                           lr=1e-3, decay_epoch=1, seed=9)

        # straight-through run
        full = TrainState.create(teacher.copy(), PLAN)
        full, hist_full = train(teacher, full, data, tcfg, DCFG)

        # run 5 steps, checkpoint, reload, run the remaining 7
        part = TrainState.create(teacher.copy(), PLAN)
        part, hist_a = train(teacher, part, data, tcfg, DCFG, total_steps=5)
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, part)
        resumed, meta, extra = load_checkpoint(ck)
        assert meta["step"] == 5 and extra == {}
        resumed, hist_b = train(teacher, resumed, data, tcfg, DCFG,
                                total_steps=7)

        for name, t in full.params.tensors.items():
            r = resumed.params.tensors[name]
            assert t.data.tobytes() == r.data.tobytes(), name
        assert [r["total"] for r in hist_full] == \
            [r["total"] for r in hist_a + hist_b]

    def test_checkpoint_preserves_plan_and_optimizer(self, tmp_path):
        state = tiny_state()
        state.m["embed.w"][:] = 0.25
        state.step = 3
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, state, extra_tensors={"head.w": np.ones(8)})
        loaded, meta, extra = load_checkpoint(ck)
        assert loaded.plan == PLAN
        assert loaded.step == 3
        assert np.array_equal(loaded.m["embed.w"], state.m["embed.w"])
        assert np.array_equal(extra["head.w"], np.ones(8))

    def test_lora_round_trip(self, tmp_path):
        plan = TrainablePlan(mode="embed+mlps", layers=(1,), lora_rank=2)
        state = TrainState.create(init_params(TINY, seed=2), plan, seed=2)
        assert [n for n in state.params.tensors if ".lora_" in n] == [
            f"block.1.{m}.{f}" for f in ("lora_a", "lora_b")
            for m in ("mlp1", "mlp2")]
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, state)
        assert [n.removeprefix("param.") for n in read_dump(ck)[0]
                if n.startswith("param.")] == list(state.params.tensors)
        loaded, _, _ = load_checkpoint(ck)
        for name, t in state.params.tensors.items():
            assert np.array_equal(loaded.params.tensors[name].data,
                                  t.data), name

    def test_per_site_lora_checkpoint_loads_and_resumes(self, tmp_path):
        # a file written while each site's A was followed by its own B
        # loads to the same state, since entries are found by name
        data, teacher = tiny_data(), init_params(TINY, seed=0)
        plan = TrainablePlan(mode="embed+blocks", layers=(2, 1), lora_rank=2)
        tcfg = TrainConfig(epochs=1, steps_per_epoch=6, batch_size=2,
                           lr=1e-3, decay_epoch=1, seed=9)
        runs = [train(teacher, TrainState.create(teacher.copy(), plan, seed=3),
                      data, tcfg, DCFG, total_steps=n) for n in (6, 2)]
        (full, hist_full), (part, hist_a) = runs
        ck, old = tmp_path / "ck.evdt", tmp_path / "old.evdt"
        save_checkpoint(ck, part)
        tensors, meta = read_dump(ck)
        sites = [n.removesuffix(".lora_a") for n in tensors
                 if n.startswith("param.") and n.endswith(".lora_a")]
        per_site = [f"{s}.{f}" for s in sites for f in ("lora_a", "lora_b")]
        base = [n for n in tensors
                if n.startswith("param.") and n not in per_site]
        rest = [n for n in tensors if n not in base + per_site]
        write_dump(old, {n: tensors[n] for n in base + per_site + rest},
                   meta=meta)
        assert old.read_bytes() != ck.read_bytes()
        new, loaded = (load_checkpoint(p)[0] for p in (ck, old))
        assert loaded.step == new.step == 2
        for got, want in ((loaded.params.tensors, new.params.tensors),
                          (loaded.m, new.m), (loaded.v, new.v)):
            assert list(got) == list(want)
            for name in want:
                a, b = (getattr(x, "data", x) for x in (got[name], want[name]))
                assert a.tobytes() == b.tobytes(), name
        resumed, hist_b = train(teacher, loaded, data, tcfg, DCFG,
                                total_steps=4)
        for name, t in full.params.tensors.items():
            assert t.data.tobytes() == \
                resumed.params.tensors[name].data.tobytes(), name
        assert [r["total"] for r in hist_full] == \
            [r["total"] for r in hist_a + hist_b]

    @pytest.mark.parametrize("layers", [(1,), (2, 1)])
    def test_lora_resave_byte_identical(self, tmp_path, layers):
        # the reload used to attach adapters in sorted-name order, so the
        # saved entries came back in another order than they were created
        plan = TrainablePlan(mode="embed+blocks", layers=layers, lora_rank=2)
        state = TrainState.create(init_params(TINY, seed=2), plan, seed=2)
        first, second = tmp_path / "a.evdt", tmp_path / "b.evdt"
        save_checkpoint(first, state)
        save_checkpoint(second, load_checkpoint(first)[0])
        assert first.read_bytes() == second.read_bytes()


    @pytest.mark.parametrize("dropped", [
        ["param.block.1.mlp1.w"],
        ["param.pos", "param.block.2.ln1.g"],
        ["adam.m.embed.w"],
        ["adam.v.block.2.mlp2.b", "adam.m.block.1.mlp1.b"],
    ])
    def test_missing_entries_listed(self, tmp_path, dropped):
        # these used to load silently: a parameter kept its seed-0 init
        # values, a parameter without Adam moments was never updated
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        tensors, meta = read_dump(ck)
        for name in dropped:
            del tensors[name]
        write_dump(ck, tensors, meta=meta)
        with pytest.raises(DumpFormatError) as exc:
            load_checkpoint(ck)
        msg = str(exc.value)
        assert msg.startswith("checkpoint lacks ")
        assert sorted(msg[len("checkpoint lacks "):].split(", ")) == \
            sorted(dropped)

    def test_stray_entry_rejected(self, tmp_path):
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state(), extra_tensors={
            "adam.m.pos": np.zeros((4, 8)), "head.w": np.ones(8)})
        with pytest.raises(DumpFormatError, match="not in the model: adam.m.pos"):
            load_checkpoint(ck)

    @pytest.mark.parametrize("plan", [PLAN, TrainablePlan(
        mode="embed+blocks", layers=(2, 1), lora_rank=2)],
        ids=["dense", "lora"])
    def test_load_draws_no_model(self, tmp_path, monkeypatch, plan):
        state = TrainState.create(init_params(TINY, seed=3), plan, seed=3)
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, state)

        def drawn(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a throwaway model")

        monkeypatch.setattr(trainer, "init_params", drawn)
        monkeypatch.setattr(trainer, "apply_lora", drawn)
        loaded, _, _ = load_checkpoint(ck)
        want = state.params.tensors
        got = loaded.params.tensors
        assert list(got) == list(want)
        for name, t in want.items():
            assert got[name].data.tobytes() == t.data.tobytes(), name
            assert got[name].requires_grad == (name in state.m), name
        assert list(loaded.m) == list(state.m)

    def test_float32_entries_load_as_float64(self, tmp_path):
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        tensors, meta = read_dump(ck)
        write_dump(ck, {n: a.astype(np.float32) for n, a in tensors.items()},
                   meta=meta)
        loaded, _, _ = load_checkpoint(ck)
        for name, a in tensors.items():
            kind, _, entry = name.partition(".")
            got = (loaded.params.tensors[entry].data if kind == "param"
                   else getattr(loaded, entry[0])[entry[2:]])
            assert got.dtype == np.float64
            assert np.array_equal(got, a.astype(np.float32)), name

    def test_wrong_shape_named(self, tmp_path):
        # a (1,) bias used to load and then broadcast silently
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        tensors, meta = read_dump(ck)
        tensors["param.block.1.mlp2.b"] = np.zeros(1)
        write_dump(ck, tensors, meta=meta)
        with pytest.raises(DumpFormatError,
                           match=r"param\.block\.1\.mlp2\.b \(1,\) \(model \(8,\)\)"):
            load_checkpoint(ck)

    def test_non_finite_parameter_fails_load(self, tmp_path):
        # used to fail with Tensor's generic "non-finite tensor data"
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        tensors, meta = read_dump(ck)
        tensors["param.pos"][1, 2] = np.nan
        write_dump(ck, tensors, meta=meta)
        with pytest.raises(DumpFormatError,
                           match=r"^checkpoint entries not finite: param\.pos$"):
            load_checkpoint(ck)

    @pytest.mark.parametrize("bad", [
        ["adam.m.embed.w"],
        ["adam.v.block.2.mlp2.b", "param.block.1.mlp1.w"],
    ])
    def test_non_finite_entries_named(self, tmp_path, bad):
        # a NaN Adam moment used to load silently and surface only as a
        # non-finite update at the next step
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        tensors, meta = read_dump(ck)
        for name in bad:
            tensors[name].reshape(-1)[-1] = np.inf if "adam.v" in name \
                else np.nan
        write_dump(ck, tensors, meta=meta)
        with pytest.raises(DumpFormatError) as exc:
            load_checkpoint(ck)
        msg = str(exc.value)
        assert msg.startswith("checkpoint entries not finite: ")
        assert sorted(msg.split(": ", 1)[1].split(", ")) == sorted(bad)

    def test_non_finite_extra_tensor_rides_along(self, tmp_path):
        # unprefixed entries belong to the caller, not the model
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state(),
                        extra_tensors={"head.w": np.array([np.nan, 1.0])})
        _, _, extra = load_checkpoint(ck)
        assert np.isnan(extra["head.w"][0])

    def test_missing_metadata_named(self, tmp_path):
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        tensors, meta = read_dump(ck)
        del meta["plan"]
        write_dump(ck, tensors, meta=meta)
        with pytest.raises(DumpFormatError, match="metadata lacks plan"):
            load_checkpoint(ck)

    @pytest.mark.parametrize("step", [[1], 2.5, True, "3", -1])
    def test_step_must_be_non_negative_int(self, tmp_path, step):
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, tiny_state())
        tensors, meta = read_dump(ck)
        meta["step"] = step
        write_dump(ck, tensors, meta=meta)
        with pytest.raises(DumpFormatError, match="step"):
            load_checkpoint(ck)


class TestPipelineGradCheck:
    @pytest.mark.parametrize("mode", list(PLAN_MODES))
    def test_every_plan_mode(self, mode):
        # blocks trained whole put the fused attention node's qkv
        # gradient on the checked path
        plan = TrainablePlan(mode=mode, layers=(1, 2))
        assert pipeline_grad_check(TINY, plan, DCFG, seed=2) <= 1e-4

    @pytest.mark.parametrize("mode", [m for m, (_, parts, _) in
                                      PLAN_MODES.items() if parts])
    def test_every_plan_mode_with_rank(self, mode):
        # ... and so do blocks trained through adapters
        plan = TrainablePlan(mode=mode, layers=(1, 2), lora_rank=2)
        assert pipeline_grad_check(TINY, plan, DCFG, seed=2) <= 1e-4

    def test_dense_plan(self):
        err = pipeline_grad_check(TINY, PLAN, DCFG, seed=0)
        assert err <= 1e-4

    def test_lora_plan(self):
        plan = TrainablePlan(mode="embed+mlps", layers=(1, 2), lora_rank=2)
        err = pipeline_grad_check(TINY, plan, DCFG, seed=1)
        assert err <= 1e-4


def test_backward_frees_the_graph_and_keeps_leaf_grads():
    state = TrainState.create(init_params(TINY, seed=4),
                              TrainablePlan(mode="all"))
    rng = np.random.default_rng(4)
    cap = forward_capture(state.params, rng.random((8, 8, 3)))
    refs = [weakref.ref(x) for x in cap.embeddings]
    loss = dot(cap.embeddings[-1], rng.random(cap.embeddings[-1].shape))
    del cap
    loss.backward()
    assert [r() for r in refs] == [None] * len(refs)
    entries = state.params.tensors
    assert all(entries[n].grad is not None for n in state.m)


def test_embed_only_layer0_run_reaches_its_lad_optimum(monkeypatch):
    # Distilling layer 0 alone, with no mixing, into a trainable embed
    # is c least-absolute-deviation regressions over all N·k rows: the
    # teacher's image tokens less the shared, frozen pos, on the event
    # patches and a ones column. A full batch of 32, as two chunks of 16
    # and as the one chunk of the production STACK, logs the objective at
    # each step's parameters, so no logged loss may lie below the optimum
    # L*. IRLS approaches L* from above; any s with Aᵀs = 0 and |s| <= 1
    # bounds it from below by yᵀs (the LP dual).
    doc = yaml.safe_load((ROOT / "configs" / "tiny.yaml").read_text())
    config = ViTConfig(**doc["model"])
    data = [(img, vol) for img, vol, _ in cli.make_dataset(doc, 32, seed=0)]
    teacher = init_params(config, seed=0)
    images, volumes = (np.stack(x) for x in zip(*data))
    n = len(data) * config.tokens
    y = (encoder.embed_image(teacher, images).data.reshape(
        len(data), config.tokens, -1) - teacher.tensors["pos"].data
         ).reshape(n, -1)
    A = np.hstack([encoder.patch_tokens(config, volumes), np.ones((n, 1))])

    def objective(X):
        return np.abs(y - A @ X).sum() / y.size

    X = np.linalg.lstsq(A, y, rcond=None)[0]
    for _ in range(100):  # IRLS, one weighted solve per column
        AtW = A.T / np.maximum(np.abs(y - A @ X), 1e-10).T[:, None, :]
        X = np.linalg.solve(AtW @ A, AtW @ y.T[:, :, None])[..., 0].T
    upper = objective(X)
    s = np.sign(y - A @ X)
    s -= A @ np.linalg.lstsq(A, s, rcond=None)[0]
    s /= np.abs(s).max(axis=0)
    assert np.abs(A.T @ s).max() < 1e-9
    lower = (y * s).sum() / y.size
    assert 0 < lower < upper

    dcfg = DistillConfig(layers=(0,), gammas=(), mixing_ratio=0.0)
    tcfg = TrainConfig(epochs=2, steps_per_epoch=300, batch_size=32,
                       lr=1e-2, decay_factor=0.1, decay_epoch=2)
    start = np.vstack([teacher.tensors["embed.w"].data,
                       teacher.tensors["embed.b"].data])
    for stack, chunk in ((1 << 12, 16), (trainer.STACK, 32)):
        monkeypatch.setattr(trainer, "STACK", stack)
        assert min(trainer.chunk_size(config), 32) == chunk
        state = TrainState.create(teacher.copy(), TrainablePlan(mode="embed"))
        _, history = train(teacher, state, data, tcfg, dcfg)
        losses = [row["total"] for row in history]
        assert losses[0] == pytest.approx(objective(start), rel=1e-12)
        assert losses[-1] <= 1.01 * upper
        assert min(losses) >= lower
