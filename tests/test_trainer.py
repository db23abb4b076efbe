import hashlib
import weakref

import numpy as np
import pytest

from evadapt import trainer
from evadapt.autodiff import NonFiniteError
from evadapt.distill import DistillConfig
from evadapt.encoder import (PLAN_MODES, TrainablePlan, ViTConfig,
                             forward_capture, init_params)
from evadapt.io import DumpFormatError, read_dump, write_dump
from evadapt.trainer import (FULL_PROFILE, TrainConfig, TrainState,
                             adam_step, load_checkpoint, lr_at,
                             pipeline_grad_check, save_checkpoint, train)

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
    entries = state.params.all_entries()
    for name in sorted(entries):
        if name not in state.m:
            h.update(name.encode())
            h.update(entries[name].data.tobytes())
    return h.hexdigest()


class TestLrSchedule:
    def test_reference_values(self):
        cfg = FULL_PROFILE
        assert lr_at(cfg, 1) == 2e-4
        assert lr_at(cfg, 3) == 2e-4
        assert lr_at(cfg, 4) == pytest.approx(1.8e-4)
        assert lr_at(cfg, 5) == pytest.approx(1.8e-4)

    def test_epoch_bounds(self):
        with pytest.raises(ValueError):
            lr_at(FULL_PROFILE, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError, match="decay"):
            TrainConfig(epochs=3, decay_epoch=4)


class TestAdamStep:
    def test_first_step_moves_by_lr(self):
        # with bias correction the first update has magnitude lr * g/|g|
        state = tiny_state()
        cfg = TrainConfig()
        name = "embed.w"
        before = state.params.tensors[name].data.copy()
        g = np.ones_like(before)
        grads = {n: np.zeros_like(state.m[n]) for n in state.m}
        grads[name] = g
        adam_step(state, grads, lr=1e-3, cfg=cfg)
        delta = state.params.tensors[name].data - before
        assert np.allclose(np.abs(delta), 1e-3, atol=1e-10)
        assert state.step == 1

    def test_only_trainables_move(self):
        state = tiny_state()
        frozen_before = state.params.tensors["pos"].data.copy()
        grads = {n: np.ones_like(state.m[n]) for n in state.m}
        adam_step(state, grads, lr=1e-2, cfg=TrainConfig())
        assert np.array_equal(state.params.tensors["pos"].data, frozen_before)
        assert not np.array_equal(
            state.params.tensors["embed.w"].data,
            init_params(TINY, seed=1).tensors["embed.w"].data)

    def test_non_finite_gradient_names_param(self):
        state = tiny_state()
        grads = {n: np.zeros_like(state.m[n]) for n in state.m}
        grads["embed.b"] = np.full_like(state.m["embed.b"], np.nan)
        with pytest.raises(NonFiniteError, match="embed.b"):
            adam_step(state, grads, lr=1e-3, cfg=TrainConfig())


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


@pytest.mark.parametrize("plan", [
    TrainablePlan(mode=m, layers=(2,))
    for m in ("none", "embed", "embed+mlps", "embed+blocks",
              "embed+all_mlps", "all")
] + [TrainablePlan(mode="lora", lora_rank=2, lora_sites=(k, (1, 2)))
     for k in ("mlps", "blocks")], ids=lambda p: f"{p.mode}-{p.lora_sites[0]}")
def test_create_marks_exactly_the_moment_entries(plan):
    state = TrainState.create(init_params(TINY, seed=0), plan)
    entries = state.params.all_entries()
    assert [n for n, t in entries.items() if t.requires_grad] == \
        [n for n in entries if n in state.m]
    assert all(state.m[n].shape == entries[n].data.shape for n in state.m)


def test_create_draws_adapters_from_seed():
    plan = TrainablePlan(mode="lora", lora_rank=2, lora_sites=("mlps", (1,)))
    a = [TrainState.create(init_params(TINY, seed=0), plan, seed=s)
         .params.lora["block.1.mlp1"][0].data for s in (3, 3, 4)]
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

        for name, t in full.params.all_entries().items():
            r = resumed.params.all_entries()[name]
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
        plan = TrainablePlan(mode="lora", lora_rank=2,
                             lora_sites=("mlps", (1,)))
        state = TrainState.create(init_params(TINY, seed=2), plan, seed=2)
        assert sorted(state.params.lora) == ["block.1.mlp1", "block.1.mlp2"]
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, state)
        loaded, _, _ = load_checkpoint(ck)
        for name, t in state.params.all_entries().items():
            assert np.array_equal(loaded.params.all_entries()[name].data,
                                  t.data), name

    @pytest.mark.parametrize("layers", [(1,), (2, 1)])
    def test_lora_resave_byte_identical(self, tmp_path, layers):
        # the reload used to attach adapters in sorted-name order, so the
        # saved entries came back in another order than they were created
        plan = TrainablePlan(mode="lora", lora_rank=2,
                             lora_sites=("blocks", layers))
        state = TrainState.create(init_params(TINY, seed=2), plan, seed=2)
        first, second = tmp_path / "a.evdt", tmp_path / "b.evdt"
        save_checkpoint(first, state)
        save_checkpoint(second, load_checkpoint(first)[0])
        assert first.read_bytes() == second.read_bytes()
        assert "lora_sites" not in read_dump(first)[1]

    def test_legacy_lora_sites_key_loads(self, tmp_path):
        plan = TrainablePlan(mode="lora", lora_rank=2,
                             lora_sites=("blocks", (2,)))
        state = TrainState.create(init_params(TINY, seed=2), plan, seed=2)
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, state, extra_meta={
            "lora_sites": sorted(state.params.lora)})
        loaded, _, _ = load_checkpoint(ck)
        assert list(loaded.params.all_entries()) == \
            list(state.params.all_entries())


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
        mode="lora", lora_rank=2, lora_sites=("blocks", (2, 1)))],
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
        want = state.params.all_entries()
        got = loaded.params.all_entries()
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
            got = (loaded.params.all_entries()[entry].data if kind == "param"
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


class TestPipelineGradCheck:
    @pytest.mark.parametrize("mode", list(PLAN_MODES))
    def test_every_plan_mode(self, mode):
        # blocks trained whole or through adapters put the fused attention
        # node's qkv gradient on the checked path
        plan = TrainablePlan(mode=mode, layers=(1, 2), lora_rank=2,
                             lora_sites=("blocks", (1, 2)))
        assert pipeline_grad_check(TINY, plan, DCFG, seed=2) <= 1e-4

    def test_dense_plan(self):
        err = pipeline_grad_check(TINY, PLAN, DCFG, seed=0)
        assert err <= 1e-4

    def test_lora_plan(self):
        plan = TrainablePlan(mode="lora", lora_rank=2,
                             lora_sites=("mlps", (1, 2)))
        err = pipeline_grad_check(TINY, plan, DCFG, seed=1)
        assert err <= 1e-4


def test_backward_frees_the_graph_and_keeps_leaf_grads():
    state = TrainState.create(init_params(TINY, seed=4),
                              TrainablePlan(mode="all"))
    rng = np.random.default_rng(4)
    cap = forward_capture(state.params, rng.random((8, 8, 3)))
    refs = [weakref.ref(x) for x in cap.embeddings]
    loss = (cap.embeddings[-1] ** 2.0).mean()
    del cap
    loss.backward()
    assert [r() for r in refs] == [None] * len(refs)
    entries = state.params.all_entries()
    assert all(entries[n].grad is not None for n in state.m)
