import numpy as np
import pytest

from evadapt.autodiff import Tensor
from evadapt.distill import (ATTENTION_SOURCES, DistillConfig, distill_loss,
                             layer_weights, mix_tokens)
from evadapt.encoder import EmbeddingCapture
from evadapt.significance import token_significance, transition_stack
from test_oracles import ref_stack_captures as stack_captures
from test_oracles import ref_stack_weights as stack_weights


def random_capture(rng, k=4, c=8, depth=3):
    attns = []
    for _ in range(depth):
        a = rng.random((k, k)) + 1e-3
        attns.append(a / a.sum(axis=1, keepdims=True))
    embeds = [Tensor(rng.standard_normal((k, c))) for _ in range(depth + 1)]
    return EmbeddingCapture(embeddings=embeds, attentions=attns)


def layer_loss(x_m: Tensor, x_e: Tensor, w: np.ndarray | None) -> float:
    """The unscaled term distill_loss reports for one layer weighed by w."""
    cfg = DistillConfig(layers=(1,), gammas=(1.0,), attention_source="uniform")
    cap = lambda x: EmbeddingCapture(embeddings=[x, x],
                                     attentions=[np.eye(len(x.data))])
    _, breakdown = distill_loss(cap(x_m), cap(x_e), cfg, weights=[w])
    return breakdown[1]


def replaced_rows(mixed: Tensor, event_tokens: Tensor) -> np.ndarray:
    """Rows of the mixed tokens that no longer hold the event tokens."""
    return np.flatnonzero((mixed.data != event_tokens.data).any(axis=1))


class TestMixTokens:
    def test_ratio_zero(self):
        ev = Tensor(np.arange(32.0).reshape(4, 8))
        im = Tensor(np.zeros((4, 8)))
        m = mix_tokens(ev, im, 0.0, [0])
        assert np.array_equal(m.data, ev.data)

    def test_ratio_one(self):
        ev = Tensor(np.arange(32.0).reshape(4, 8))
        im = Tensor(np.ones((4, 8)))
        m = mix_tokens(ev, im, 1.0, [0])
        assert np.array_equal(m.data, im.data)

    def test_quarter_replaces_exactly_one(self):
        ev = Tensor(np.zeros((4, 8)))
        im = Tensor(np.arange(32.0).reshape(4, 8))
        m = mix_tokens(ev, im, 0.25, [3])
        rows = replaced_rows(m, ev)
        assert rows.size == 1
        pos = rows[0]
        assert m.data[pos].tobytes() == im.data[pos].tobytes()
        other = [i for i in range(4) if i != pos]
        assert np.array_equal(m.data[other], np.zeros((3, 8)))

    def test_seed_determinism_and_count(self):
        ev = Tensor(np.zeros((16, 4)))
        im = Tensor(np.ones((16, 4)))
        a = mix_tokens(ev, im, 0.5, [7])
        b = mix_tokens(ev, im, 0.5, [7])
        c = mix_tokens(ev, im, 0.5, [8])
        assert a.data.tobytes() == b.data.tobytes()
        assert replaced_rows(a, ev).size == replaced_rows(c, ev).size == 8

    def test_ratio_out_of_range(self):
        t = Tensor(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            mix_tokens(t, t, 1.5, [0])


class TestWeightedLayerLoss:
    def test_equal_inputs_zero(self):
        x = Tensor(np.random.default_rng(0).random((4, 8)))
        assert layer_loss(x, Tensor(x.data.copy()), None) == 0.0

    def test_scalar_case(self):
        x_m = Tensor([[2.0]])
        x_e = Tensor([[0.0]])
        out = layer_loss(x_m, x_e, np.array([1.5]))
        assert out == pytest.approx(3.0, abs=1e-15)

    def test_uniform_weights_equal_plain_l1(self):
        rng = np.random.default_rng(1)
        a, b = Tensor(rng.random((5, 6))), Tensor(rng.random((5, 6)))
        w = np.ones(5)
        assert layer_loss(a, b, w) == pytest.approx(
            np.abs(a.data - b.data).mean(), abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            layer_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))),
                       None)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError, match="weight length"):
            layer_loss(Tensor(np.zeros((2, 2))), Tensor(np.ones((2, 2))),
                       np.ones(3))


class TestDistillLoss:
    def test_identical_captures_zero(self):
        rng = np.random.default_rng(2)
        cap = random_capture(rng)
        cfg = DistillConfig(layers=(0, 1, 3), gammas=(0.5, 1.0))
        total, breakdown = distill_loss(cap, cap, cfg)
        assert total.item() == 0.0
        assert all(v == 0.0 for v in breakdown.values())

    def test_uniform_source_reduction_identity(self):
        rng = np.random.default_rng(3)
        t, s = random_capture(rng), random_capture(rng)
        cfg = DistillConfig(layers=(0, 1, 2, 3), gammas=(0.1, 0.4, 1.0),
                            gamma0=1.0, attention_source="uniform")
        total, _ = distill_loss(t, s, cfg)
        want = sum(
            cfg.gamma_for(l) * np.abs(t.embeddings[l].data
                                      - s.embeddings[l].data).mean()
            for l in cfg.layers)
        assert total.item() == pytest.approx(want, abs=1e-12)

    def test_teacher_source_matches_compositional_oracle(self):
        rng = np.random.default_rng(4)
        t, s = random_capture(rng), random_capture(rng)
        cfg = DistillConfig(layers=(0, 1, 2), gammas=(0.4, 0.7), beta=0.5)
        total, _ = distill_loss(t, s, cfg)
        stack = transition_stack(t.attentions)
        want = cfg.gamma0 * np.abs(
            t.embeddings[0].data - s.embeddings[0].data).mean()
        for l, gamma in ((1, 0.4), (2, 0.7)):
            w = token_significance(stack, l + 1, cfg.beta).values
            diff = np.abs(t.embeddings[l].data - s.embeddings[l].data)
            want += gamma * (w[:, None] * diff).mean()
        assert total.item() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("source", ["teacher", "student",
                                        "teacher_single_layer", "uniform"])
    def test_precomputed_weights_match_rolled_out(self, source):
        rng = np.random.default_rng(10)
        t, s = random_capture(rng), random_capture(rng)
        cfg = DistillConfig(layers=(0, 1, 2, 3), gammas=(0.1, 0.4, 1.0),
                            attention_source=source)
        weights = layer_weights(
            cfg, (s if source == "student" else t).attentions)
        # layer 0 and the terminal layer are uniform unless a single
        # layer's attention weighs them
        assert weights[0] is None
        if source != "uniform":
            assert weights[1] is not None
        total, breakdown = distill_loss(t, s, cfg)
        total2, breakdown2 = distill_loss(t, s, cfg, weights=weights)
        assert total.data.tobytes() == total2.data.tobytes()
        assert breakdown == breakdown2

    def test_layer_beyond_depth_rejected(self):
        rng = np.random.default_rng(5)
        cap = random_capture(rng, depth=2)
        cfg = DistillConfig(layers=(0, 5), gammas=(1.0,))
        with pytest.raises(ValueError, match="depth"):
            distill_loss(cap, cap, cfg)

    def test_monotone_sensitivity(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.random((4, 3)))
        b = Tensor(rng.random((4, 3)))
        w = np.ones(4)
        base = layer_loss(a, b, w)
        w2 = w.copy()
        w2[1] += 0.5
        assert layer_loss(a, b, w2) > base

    def test_no_gradient_into_teacher(self):
        rng = np.random.default_rng(7)
        t, s = random_capture(rng), random_capture(rng)
        for e in t.embeddings:
            e.requires_grad = True
        for e in s.embeddings:
            e.requires_grad = True
        cfg = DistillConfig(layers=(0, 2), gammas=(1.0,))
        total, _ = distill_loss(t, s, cfg)
        total.backward()
        assert all(e.grad is None for e in t.embeddings)
        assert s.embeddings[0].grad is not None

    def test_student_source_runs(self):
        rng = np.random.default_rng(8)
        t, s = random_capture(rng), random_capture(rng)
        cfg = DistillConfig(layers=(0, 1), gammas=(1.0,),
                            attention_source="student")
        total, _ = distill_loss(t, s, cfg)
        assert total.item() > 0

    def test_single_layer_source_runs(self):
        rng = np.random.default_rng(9)
        t, s = random_capture(rng), random_capture(rng)
        cfg = DistillConfig(layers=(0, 1), gammas=(1.0,),
                            attention_source="teacher_single_layer")
        total, _ = distill_loss(t, s, cfg)
        assert total.item() > 0

    @pytest.mark.parametrize("source", ["teacher", "teacher_single_layer"])
    def test_chunk_without_maps_is_neither_rolled_out_nor_counted(self,
                                                                  source):
        # a TeacherCache chunk holds the kept layers by number and no maps:
        # an empty map list would roll out to uniform weights and count one
        # sample, so a chunk's maps are None and both raise
        rng = np.random.default_rng(10)
        s = random_capture(rng)
        t = EmbeddingCapture(embeddings=dict(enumerate(s.embeddings)),
                             attentions=None)
        cfg = DistillConfig(layers=(0, 1), gammas=(1.0,),
                            attention_source=source)
        with pytest.raises(TypeError):
            distill_loss(t, s, cfg)
        with pytest.raises(TypeError):
            t.samples
        total, _ = distill_loss(t, s, cfg, layer_weights(cfg, s.attentions))
        assert total.item() == 0.0

    @pytest.mark.parametrize("layers, gammas", [((0, 1), (1.0,)), ((0,), ())])
    @pytest.mark.parametrize("source", ["teacher", "student",
                                        "teacher_single_layer"])
    def test_empty_map_list_named(self, source, layers, gammas):
        # no maps would roll out to uniform weights without a word
        cfg = DistillConfig(layers=layers, gammas=gammas,
                            attention_source=source)
        with pytest.raises(ValueError, match="empty attention-map list"):
            layer_weights(cfg, [])

    def test_uniform_source_reads_no_maps(self):
        cfg = DistillConfig(layers=(0, 1), gammas=(1.0,),
                            attention_source="uniform")
        assert layer_weights(cfg, []) == [None, None]


class TestStackedSamples:
    def test_mix_draws_each_samples_positions(self):
        rng = np.random.default_rng(11)
        ev = Tensor(rng.standard_normal((12, 2)))
        im = Tensor(rng.standard_normal((12, 2)))
        seeds = [[1, 2, 0], [1, 2, 1], [1, 2, 2]]
        mixed = mix_tokens(ev, im, 0.5, seeds)
        for s, seed in enumerate(seeds):
            rows = slice(4 * s, 4 * s + 4)
            one = mix_tokens(Tensor(ev.data[rows]), Tensor(im.data[rows]),
                             0.5, [seed])
            assert mixed.data[rows].tobytes() == one.data.tobytes()

    @pytest.mark.parametrize("seeds, match", [
        ([0] * 5, "cannot split 12 tokens into 5 samples"),
        ([], "into 0 samples")])
    def test_mix_checks_the_split(self, seeds, match):
        t = Tensor(np.zeros((12, 2)))
        with pytest.raises(ValueError, match=match):
            mix_tokens(t, t, 0.5, seeds)

    @pytest.mark.parametrize("source", ATTENTION_SOURCES)
    def test_stacked_capture_stacks_each_samples_weights(self, source):
        rng = np.random.default_rng(12)
        caps = [random_capture(rng) for _ in range(3)]
        cfg = DistillConfig(layers=(0, 1, 2, 3), gammas=(0.1, 0.4, 1.0),
                            attention_source=source)
        got = layer_weights(cfg, stack_captures(caps).attentions)
        want = stack_weights([layer_weights(cfg, c.attentions) for c in caps])
        assert [None if w is None else w.tobytes() for w in got] == \
            [None if w is None else w.tobytes() for w in want]
        assert all(w is None or w.shape == (12,) for w in got)

    def test_stacked_loss_sums_the_samples(self):
        rng = np.random.default_rng(13)
        ts = [random_capture(rng) for _ in range(2)]
        ss = [random_capture(rng) for _ in range(2)]
        cfg = DistillConfig(layers=(0, 1, 3), gammas=(0.4, 1.0),
                            attention_source="student")
        total, breakdown = distill_loss(stack_captures(ts),
                                        stack_captures(ss), cfg)
        parts = [distill_loss(t, s, cfg) for t, s in zip(ts, ss)]
        assert total.item() == pytest.approx(
            sum(p[0].item() for p in parts), rel=1e-14)
        for layer in cfg.layers:
            assert breakdown[layer] == pytest.approx(
                sum(p[1][layer] for p in parts), rel=1e-14)


def test_single_layer_source_rolls_out_once_per_weighted_layer(monkeypatch):
    from evadapt import distill
    rng = np.random.default_rng(14)
    cap = random_capture(rng, depth=3)
    cfg = DistillConfig(layers=(0, 1, 2, 3), gammas=(0.1, 0.4, 1.0),
                        attention_source="teacher_single_layer")
    calls = []
    rollout = distill.token_significance
    monkeypatch.setattr(distill, "token_significance",
                        lambda *a, **k: calls.append(a) or rollout(*a, **k))
    weights = layer_weights(cfg, cap.attentions)
    # layers 1, 2 and 3 are weighted; the terminal layer 3 falls back to
    # block 3's map, which layer 2 also uses
    assert len(calls) == 3
    for layer, w in zip(cfg.layers[1:], weights[1:]):
        want = rollout(transition_stack([cap.attentions[min(layer, 2)]]), 1,
                       cfg.beta).values
        assert w.tobytes() == want.tobytes()
    # it is the rollout cut to one block: each non-terminal weighted layer
    # is the teacher source's at horizon 1, and the terminal layer, uniform
    # under a rollout, is the one-block rollout of its incoming block 3
    cut = layer_weights(DistillConfig(layers=cfg.layers, gammas=cfg.gammas,
                                      rollout_horizon=1), cap.attentions)
    for w, want in zip(weights[1:-1], cut[1:-1]):
        assert w.tobytes() == want.tobytes()
    assert cut[-1] is None
    want = rollout(transition_stack(cap.attentions), 3, cfg.beta, horizon=1)
    assert weights[-1].tobytes() == want.values.tobytes()


class TestDistillConfig:
    def test_gamma_count_checked(self):
        with pytest.raises(ValueError, match="gammas"):
            DistillConfig(layers=(0, 3, 6), gammas=(1.0,))

    def test_default_matches_reference_settings(self):
        cfg = DistillConfig()
        assert cfg.layers == (0, 3, 6, 9, 12)
        assert cfg.gammas == (0.1, 0.4, 0.7, 1.0)
        assert cfg.beta == 0.5

    def test_empty_layer_set_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            DistillConfig(layers=(), gammas=())

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="attention source"):
            DistillConfig(attention_source="oracle")

    def test_duplicate_layers_rejected(self):
        # a repeated layer took the first copy's gamma for both copies
        with pytest.raises(ValueError, match="layers must be distinct"):
            DistillConfig(layers=(0, 1, 1), gammas=(0.7, 1.0))

    @pytest.mark.parametrize("name, value, match", [
        ("gammas", (0.5, -1.0), "gammas must be >= 0"),
        ("gamma0", -1.0, "gamma0 must be >= 0"),
        ("beta", 1.5, r"beta must lie in \[0, 1\]"),
        ("beta", -0.5, r"beta must lie in \[0, 1\]"),
        ("rollout_horizon", 0, "rollout_horizon must be null or >= 1"),
        ("rollout_horizon", -1, "rollout_horizon must be null or >= 1")])
    def test_numbers_checked(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            DistillConfig(**{"layers": (0, 1, 2), "gammas": (0.5, 1.0),
                             name: value})

