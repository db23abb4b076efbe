"""A planted teacher: a positive control for the pivotal-token claim.

Every head of every block attends to a known token set P, so the
rollout of its attention has a known right answer: the oracles below
check that it finds P. ROADMAP item 15 builds its control table on it.
"""

import numpy as np
import pytest

from evadapt.autodiff import Tensor
from evadapt.distill import DistillConfig, layer_weights
from evadapt.encoder import ViTConfig, ViTParams, forward_capture, init_params

# 16 tokens of 32 dims: dims 0-15 are positional, dims 16-31 content
PLANTED = ViTConfig(img_size=16, patch_size=4, embed_dim=32, depth=3,
                    num_heads=2, mlp_hidden=32)
P = [5, 6, 9, 10]  # the centre 2 x 2 of the 4 x 4 token grid
DCFG = DistillConfig(layers=(0, 1), gammas=(1.0,))  # beta 0.5


def planted_teacher(seed: int = 0, alpha: float = 8.0) -> ViTParams:
    """init_params(PLANTED, seed) rewired so every head attends to P.

    `pos` is 4·one-hot in the positional dims, and `embed.w` writes only
    the content dims. In each block `qkv.b` sets each head's query to
    `alpha` on its first dim, and `qkv.w` maps the positional dims of P
    onto that head's first key dim and copies the content dims into the
    head's values. `proj.w` is 0.5·I and `mlp2.w` is scaled by 0.1, so the
    positional one-hot survives the blocks. At alpha 0 every query is zero
    and attention is uniform.
    """
    c, k = PLANTED.embed_dim, PLANTED.tokens
    dh = c // PLANTED.num_heads
    arrays = {n: t.data.copy()
              for n, t in init_params(PLANTED, seed).tensors.items()}
    arrays["pos"] = 4.0 * np.eye(k, c)
    arrays["embed.w"][:, :k] = 0.0
    for i in range(1, PLANTED.depth + 1):
        w, b = np.zeros((c, 3 * c)), np.zeros(3 * c)
        content = np.arange(k, c)
        for h in range(PLANTED.num_heads):
            b[h * dh] = alpha                                 # query
            w[P, c + h * dh] = 1.0                            # key
            w[content, 2 * c + h * dh + content - k] = 1.0    # values
        arrays[f"block.{i}.qkv.w"], arrays[f"block.{i}.qkv.b"] = w, b
        arrays[f"block.{i}.proj.w"] = 0.5 * np.eye(c)
        arrays[f"block.{i}.mlp2.w"] *= 0.1
    return ViTParams(PLANTED, {n: Tensor(a) for n, a in arrays.items()})


@pytest.fixture(scope="module")
def frames():
    return np.random.default_rng(0).random((8, 16, 16, 3))


def capture(frames, alpha=8.0):
    """Per layer the (8, k, k) maps of the stacked frames, and layer 1's
    (8, k) rollout weights."""
    maps = forward_capture(planted_teacher(alpha=alpha), frames).attentions
    return maps, layer_weights(DCFG, maps)[1].reshape(len(frames), -1)


def test_attention_goes_to_p(frames):
    # the measured minimum over every row of every layer was 0.99995
    maps, _ = capture(frames)
    for a in maps:
        assert a[..., P].sum(-1).min() >= 0.98


def test_rollout_share_of_p_at_its_bound(frames):
    # weights sum to k, and at most beta·k + (1 - beta)|P| of it is P's;
    # the measured gap to that bound was 1.7e-5
    _, w = capture(frames)
    k, beta = PLANTED.tokens, DCFG.beta
    bound = beta + (1 - beta) * len(P) / k
    assert bound == 0.625
    np.testing.assert_allclose(w.sum(-1), k, rtol=1e-12)
    share = w[:, P].sum(-1) / k
    assert np.all(np.abs(share - bound) <= 0.01)


def test_p_weighs_most(frames):
    _, w = capture(frames)
    for row in w:
        assert sorted(np.argsort(row)[-len(P):]) == P


def test_unplanted_attention_is_uniform(frames):
    # the control: with zero queries no token is pivotal, so P gets its
    # share by count, and the oracles above would fail
    maps, w = capture(frames, alpha=0.0)
    for a in maps:
        np.testing.assert_allclose(a, 1 / PLANTED.tokens, rtol=1e-12)
    np.testing.assert_allclose(w, 1.0, rtol=1e-12)
