import numpy as np
import pytest

from evadapt import autodiff
from evadapt.autodiff import Tensor
from evadapt.encoder import (VIT_B, TrainablePlan, ViTConfig, apply_lora,
                             count_trainable, embed_image, forward_capture,
                             forward_tokens, init_params, param_shapes,
                             patch_tokens, trainable_shapes)
from evadapt.io import ConfigError
from evadapt.trainer import TrainState
from test_oracles import dot

TINY = ViTConfig(img_size=8, patch_size=4, embed_dim=8, depth=2,
                 num_heads=2, mlp_hidden=16)


@pytest.fixture
def params():
    return init_params(TINY, seed=5)


class TestForward:
    def test_capture_shapes(self, params):
        img = np.random.default_rng(0).random((8, 8, 3))
        cap = forward_capture(params, img)
        assert len(cap.embeddings) == 3
        assert len(cap.attentions) == 2
        assert all(e.shape == (4, 8) for e in cap.embeddings)
        assert all(a.shape == (4, 4) for a in cap.attentions)

    def test_zero_input_gives_positional_embedding(self, params):
        cap = forward_capture(params, np.zeros((8, 8, 3)))
        assert np.array_equal(cap.embeddings[0].data, params.tensors["pos"].data)

    def test_attention_rows_stochastic(self, params):
        img = np.random.default_rng(1).random((8, 8, 3)) * 5
        cap = forward_capture(params, img)
        for a in cap.attentions:
            assert np.all(a >= 0)
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-9

    def test_forward_tokens_matches_capture(self, params):
        img = np.random.default_rng(2).random((8, 8, 3))
        cap = forward_capture(params, img)
        cap2 = forward_tokens(params, Tensor(cap.embeddings[0].data))
        for a, b in zip(cap.embeddings, cap2.embeddings):
            assert np.array_equal(a.data, b.data)

    def test_stacked_images_match_one_at_a_time(self, params):
        imgs = np.random.default_rng(4).random((3, 8, 8, 3))
        patches = patch_tokens(TINY, imgs)
        assert patches.tobytes() == np.concatenate(
            [patch_tokens(TINY, im) for im in imgs]).tobytes()
        stacked = forward_capture(params, imgs)
        caps = [forward_capture(params, im) for im in imgs]
        assert stacked.samples == 3 and caps[0].samples == 1
        for i, x in enumerate(stacked.embeddings):
            want = np.concatenate([c.embeddings[i].data for c in caps])
            assert np.allclose(x.data, want, rtol=1e-12, atol=1e-14)
        for i, a in enumerate(stacked.attentions):
            want = np.stack([c.attentions[i] for c in caps])
            assert np.allclose(a, want, rtol=1e-12, atol=1e-14)

    def test_zero_tokens_uniform_attention(self):
        cfg = ViTConfig(img_size=8, patch_size=4, embed_dim=8, depth=1,
                        num_heads=2, mlp_hidden=16)
        p = init_params(cfg, seed=0)
        # zero the qkv map so logits are constant; init_params' arrays
        # are read-only, so rebind rather than write into one
        p.tensors["block.1.qkv.w"].data = np.zeros((8, 24))
        cap = forward_tokens(p, Tensor(np.zeros((4, 8))))
        assert np.allclose(cap.attentions[0], 0.25)

    def test_determinism(self, params):
        tok = Tensor(np.random.default_rng(3).random((4, 8)))
        a = forward_tokens(params, tok)
        b = forward_tokens(params, tok)
        assert a.embeddings[-1].data.tobytes() == b.embeddings[-1].data.tobytes()

    def test_shape_mismatch(self, params):
        with pytest.raises(ValueError):
            forward_capture(params, np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            forward_tokens(params, Tensor(np.zeros((5, 8))))


class TestCountTrainable:
    # reference trainable-parameter figures for the large shape (patch 16, dim 768, depth 12)
    def test_embed(self):
        assert count_trainable(VIT_B, TrainablePlan(mode="embed")) == 590_592

    def test_embed_four_mlps(self):
        plan = TrainablePlan(mode="embed+mlps", layers=(3, 6, 9, 12))
        assert count_trainable(VIT_B, plan) == 19_480_320

    def test_embed_all_mlps(self):
        n = count_trainable(VIT_B, TrainablePlan(mode="embed+all_mlps"))
        assert n == 57_259_776
        assert abs(n - 57.3e6) / 57.3e6 < 0.01

    def test_lora_rows(self):
        four = (3, 6, 9, 12)
        assert count_trainable(VIT_B, TrainablePlan(
            mode="embed+mlps", layers=four, lora_rank=16)) == 1_082_112
        assert count_trainable(VIT_B, TrainablePlan(
            mode="embed+mlps", layers=four, lora_rank=64)) == 2_556_672
        assert count_trainable(VIT_B, TrainablePlan(
            mode="embed+mlps", layers=four, lora_rank=256)) == 8_454_912
        assert count_trainable(VIT_B, TrainablePlan(
            mode="embed+blocks", layers=tuple(range(1, 13)),
            lora_rank=16)) == 2_949_888

    def test_all_equals_total_and_monotone(self):
        embed = count_trainable(VIT_B, TrainablePlan(mode="embed"))
        four = count_trainable(VIT_B, TrainablePlan(mode="embed+mlps",
                                                    layers=(3, 6, 9, 12)))
        allm = count_trainable(VIT_B, TrainablePlan(mode="embed+all_mlps"))
        full = count_trainable(VIT_B, TrainablePlan(mode="all"))
        assert embed <= four <= allm <= full
        # full plan covers every parameter
        p = init_params(TINY, seed=0)
        assert count_trainable(TINY, TrainablePlan(mode="all")) == sum(
            t.data.size for t in p.tensors.values())

    def test_layer_out_of_range(self):
        # named by its key, wherever the plan came from
        with pytest.raises(ConfigError) as exc:
            count_trainable(TINY, TrainablePlan(mode="embed+mlps", layers=(9,)))
        assert str(exc.value) == "plan.layers: layer 9 out of range 1..2"


class TestParamShapes:
    def test_order_is_init_params_draw_order(self):
        # init_params draws in this order, so a reordering would change
        # every initial weight
        assert list(param_shapes(TINY)) == [
            "embed.w", "embed.b",
            "block.1.qkv.w", "block.1.qkv.b", "block.1.proj.w",
            "block.1.proj.b", "block.1.mlp1.w", "block.1.mlp1.b",
            "block.1.mlp2.w", "block.1.mlp2.b",
            "block.2.qkv.w", "block.2.qkv.b", "block.2.proj.w",
            "block.2.proj.b", "block.2.mlp1.w", "block.2.mlp1.b",
            "block.2.mlp2.w", "block.2.mlp2.b",
            "pos",
            "block.1.ln1.g", "block.1.ln1.b", "block.1.ln2.g", "block.1.ln2.b",
            "block.2.ln1.g", "block.2.ln1.b", "block.2.ln2.g", "block.2.ln2.b"]
        assert list(init_params(TINY).tensors) == list(param_shapes(TINY))


class TestTrainableShapes:
    def test_order_and_shapes(self):
        blocks = trainable_shapes(TINY, TrainablePlan(mode="embed+blocks",
                                                      layers=(2,)))
        assert list(blocks) == ["embed.w", "embed.b"] + [
            f"block.2.{n}" for n in ("qkv.w", "qkv.b", "proj.w", "proj.b",
                                     "mlp1.w", "mlp1.b", "mlp2.w", "mlp2.b",
                                     "ln1.g", "ln1.b", "ln2.g", "ln2.b")]
        assert blocks["embed.w"] == (48, 8) and blocks["block.2.qkv.b"] == (24,)
        assert list(trainable_shapes(TINY, TrainablePlan(mode="all")))[:3] == \
            ["pos", "embed.w", "embed.b"]
        lora = TrainablePlan(mode="embed+mlps", layers=(2,), lora_rank=3)
        assert trainable_shapes(TINY, lora) == {
            "embed.w": (48, 8), "embed.b": (8,),
            "block.2.mlp1.lora_a": (3, 8), "block.2.mlp2.lora_a": (3, 16),
            "block.2.mlp1.lora_b": (16, 3), "block.2.mlp2.lora_b": (8, 3)}


    def test_rank_adapts_every_affine_part_of_all(self):
        # pos and embed still train whole; the block layernorms stay frozen
        shapes = trainable_shapes(TINY, TrainablePlan(mode="all", lora_rank=2))
        sites = [f"block.{i}.{part}" for i in (1, 2)
                 for part in ("qkv", "proj", "mlp1", "mlp2")]
        assert list(shapes) == ["pos", "embed.w", "embed.b"] + [
            f"{s}.lora_a" for s in sites] + [f"{s}.lora_b" for s in sites]
        assert shapes["block.2.qkv.lora_a"] == (2, 8)
        assert shapes["block.2.qkv.lora_b"] == (24, 2)


LORA = TrainablePlan(mode="embed+blocks", layers=(2, 1), lora_rank=2)


class TestLora:
    def test_zero_init_preserves_function(self, params):
        img = np.random.default_rng(4).random((8, 8, 3))
        before = forward_capture(params, img).embeddings[-1].data
        lp = apply_lora(params, trainable_shapes(TINY, LORA))
        after = forward_capture(lp, img).embeddings[-1].data
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_entries_are_base_then_every_a_then_every_b(self, params):
        # trainable_shapes' order, the one order of a state and a checkpoint
        shapes = trainable_shapes(TINY, LORA)
        lp = apply_lora(params, shapes)
        sites = [f"block.{i}.{part}" for i in (2, 1)
                 for part in ("qkv", "proj", "mlp1", "mlp2")]
        adapters = [f"{site}.{f}" for f in ("lora_a", "lora_b")
                    for site in sites]
        assert list(lp.tensors) == list(param_shapes(TINY)) + adapters
        assert list(shapes) == ["embed.w", "embed.b"] + adapters

    def test_a_factors_drawn_in_site_order(self, params):
        # only the A factors are drawn, one site after another, so the
        # order of the B entries changes no value
        lp = apply_lora(params, trainable_shapes(TINY, LORA), seed=5)
        rng = np.random.default_rng(5)
        for i in (2, 1):
            for part in ("qkv", "proj", "mlp1", "mlp2"):
                a = lp.tensors[f"block.{i}.{part}.lora_a"].data
                assert a.tobytes() == rng.normal(0.0, 0.01, a.shape).tobytes()
                assert not lp.tensors[f"block.{i}.{part}.lora_b"].data.any()

    def test_copy_shares_no_adapter_array(self, params):
        # adapters are writable and copied; base entries are read-only and
        # shared, so every entry of the copy equals the original's
        lp = apply_lora(params, trainable_shapes(TINY, LORA))
        cp = lp.copy()
        assert list(cp.tensors) == list(lp.tensors)
        for name, t in lp.tensors.items():
            c = cp.tensors[name]
            assert c is not t and np.array_equal(c.data, t.data), name
            adapter = name.endswith((".lora_a", ".lora_b"))
            assert t.data.flags.writeable == adapter, name
            assert np.shares_memory(c.data, t.data) != adapter, name
        with pytest.raises(ValueError, match="read-only"):
            cp.tensors["embed.w"].data[0, 0] = 1.0

    def test_copy_scans_only_writable_entries(self, params, monkeypatch):
        # a read-only entry was checked when its Tensor was built, so its
        # copy shares it unscanned (a second scan cost about 0.08 s per
        # ViT-B copy); a writable entry is copied and scanned once
        scanned = []
        monkeypatch.setattr(autodiff, "check_finite",
                            lambda a, what="value": scanned.append(a))
        cp = params.copy()
        assert scanned == []
        lp = apply_lora(params, trainable_shapes(TINY, LORA))
        adapters = [n for n, t in lp.tensors.items() if t.data.flags.writeable]
        scanned.clear()
        cp = lp.copy()
        assert len(scanned) == len(adapters) > 0
        for a, name in zip(scanned, adapters):
            assert a is cp.tensors[name].data
        assert not any(t.requires_grad or t._parents
                       for t in cp.tensors.values())

    def test_adapter_param_count_shape(self):
        # adapter on a c -> 4c map adds r * (c + 4c) scalars
        base = count_trainable(VIT_B, TrainablePlan(mode="embed"))
        one = count_trainable(VIT_B, TrainablePlan(
            mode="embed+mlps", layers=(3,), lora_rank=8))
        c = VIT_B.embed_dim
        assert one - base == 8 * (c + 4 * c) + 8 * (4 * c + c)


class TestMarkTrainable:
    # building a state marks its entries; the encoder itself marks nothing
    def test_exact_marking(self, params):
        plan = TrainablePlan(mode="embed+mlps", layers=(2,))
        state = TrainState.create(params, plan)
        wanted = set(trainable_shapes(TINY, plan))
        for name, t in state.params.tensors.items():
            assert t.requires_grad == (name in wanted)

    def test_frozen_get_no_gradients(self, params):
        state = TrainState.create(params, TrainablePlan(mode="embed"))
        img = np.random.default_rng(6).random((8, 8, 3))
        cap = forward_capture(state.params, img)
        last = cap.embeddings[-1]
        dot(last, last.data).backward()
        assert state.params.tensors["embed.w"].grad is not None
        assert state.params.tensors["block.1.mlp1.w"].grad is None
        assert state.params.tensors["pos"].grad is None
