"""Plain ViT encoder exposing per-layer token embeddings and attention.

Teacher and student share this architecture. Blocks are pre-norm
(layernorm -> attention -> residual -> layernorm -> MLP -> residual) with
learned absolute positional embeddings and no class token, so the token
count is (img_size / patch_size)^2. The forward pass captures the
embedding matrix after every block plus the head-averaged post-softmax
attention of every block.

Selective trainability is expressed as a TrainablePlan; a plan with a
LoRA rank trains low-rank adapters (additive B @ A on a frozen affine map,
B zero-initialized) in place of its block parts' weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, affine, attention, layernorm, matmul, mlp
from .io import ConfigError

# input channels: the teacher's RGB frame, the student's 3-bin voxel grid
CHANNELS = 3


@dataclass(frozen=True)
class ViTConfig:
    img_size: int = 512
    patch_size: int = 16
    embed_dim: int = 768
    depth: int = 12
    num_heads: int = 12
    mlp_hidden: int | None = None  # defaults to 4 * embed_dim

    def __post_init__(self):
        if self.mlp_hidden is None:
            object.__setattr__(self, "mlp_hidden", 4 * self.embed_dim)
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.img_size % self.patch_size != 0:
            raise ValueError("img_size must be divisible by patch_size")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")

    @property
    def grid(self) -> int:
        return self.img_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size ** 2 * CHANNELS


VIT_B = ViTConfig()  # the defaults are ViT-B


# mode -> (whole-model entries, block parts, whether `layers` chooses the
# blocks, else every block); LoRA adapts only the affine block parts
PLAN_MODES = {
    "embed": (("embed",), (), False),
    "embed+mlps": (("embed",), ("mlp1", "mlp2"), True),
    "embed+blocks": (("embed",),
                     ("qkv", "proj", "mlp1", "mlp2", "ln1", "ln2"), True),
    "embed+all_mlps": (("embed",), ("mlp1", "mlp2"), False),
    "all": (("pos", "embed"), ("qkv", "proj", "mlp1", "mlp2", "ln1", "ln2"),
            False),
}


@dataclass
class TrainablePlan:
    """Which parameters a training run may update (see PLAN_MODES).

    layers: distinct 1-based block indices for embed+mlps / embed+blocks.
    lora_rank: if set, each affine block part of the mode trains rank-r
    adapter factors instead of .w/.b and its block layernorms stay frozen;
    the whole-model entries (embed, pos) still train in full.
    """
    mode: str = "embed+mlps"
    layers: tuple[int, ...] = (3, 6, 9, 12)
    lora_rank: int | None = None

    def __post_init__(self):
        if self.mode not in PLAN_MODES:
            raise ValueError(f"mode must be one of {', '.join(PLAN_MODES)}, "
                             f"got {self.mode!r}")
        if len(set(self.layers)) != len(self.layers):
            raise ValueError(f"layers must be distinct, got {list(self.layers)}")
        r = self.lora_rank
        if r is not None and (r < 1 or not PLAN_MODES[self.mode][1]):
            raise ValueError(f"lora_rank must be >= 1 under a mode with block "
                             f"parts, got {r} under {self.mode!r}")


@dataclass
class ViTParams:
    """Every entry by name: the base entries in param_shapes order, then
    any adapter factors in trainable_shapes order (the checkpoint order)."""
    config: ViTConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def copy(self) -> "ViTParams":
        """New Tensors over the same entries. A read-only array, as
        init_params draws them, is shared as it is; a writable one, such as
        a packed state's trainable view, is copied. So nothing that can
        change is shared, and under every plan the student TrainState.create
        copies from its teacher owns only the entries it packs
        (docs/EQUATIONS.md, "Flat layout"). A shared entry was checked
        finite when its Tensor was built, so only a copy is scanned."""
        return ViTParams(self.config, {
            k: Tensor(v.data.copy()) if v.data.flags.writeable
            else Tensor._from_op(v.data, (), None)
            for k, v in self.tensors.items()})

    def frozen(self) -> "ViTParams":
        """New Tensors over the same arrays, none requiring grad, so a
        forward through them records no graph and keeps no backward
        state (attention's per-head probabilities, the MLP's GELU
        derivative)."""
        return ViTParams(self.config, {
            k: Tensor._from_op(v.data, (), None)
            for k, v in self.tensors.items()})

    def all_entries(self) -> dict[str, Tensor]:
        """`tensors` itself: name -> Tensor of every entry."""
        return self.tensors


def param_shapes(config: ViTConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every base parameter, in init_params order: the affine
    maps' (in, out) .w and (out,) .b, then pos, then the layernorms."""
    c, h = config.embed_dim, config.mlp_hidden
    blocks = range(1, config.depth + 1)
    shapes = {"embed.w": (config.patch_dim, c), "embed.b": (c,)}
    for i in blocks:
        for part, din, dout in (("qkv", c, 3 * c), ("proj", c, c),
                                ("mlp1", c, h), ("mlp2", h, c)):
            shapes[f"block.{i}.{part}.w"] = (din, dout)
            shapes[f"block.{i}.{part}.b"] = (dout,)
    shapes["pos"] = (config.tokens, c)
    for i in blocks:
        for ln in ("ln1", "ln2"):
            shapes[f"block.{i}.{ln}.g"] = shapes[f"block.{i}.{ln}.b"] = (c,)
    return shapes


def init_params(config: ViTConfig, seed: int = 0) -> ViTParams:
    """Weights and pos ~ N(0, 0.02^2) drawn in order, gains 1, biases 0.

    Every array is read-only, so copies share it (see ViTParams.copy) and
    an in-place write raises ValueError instead of editing them all.
    """
    rng = np.random.default_rng(seed)
    p = ViTParams(config)
    for name, shape in param_shapes(config).items():
        if name.endswith(".g"):
            a = np.ones(shape)
        elif name.endswith(".b"):
            a = np.zeros(shape)
        else:
            a = rng.normal(0.0, 0.02, shape)
        a.flags.writeable = False
        p.tensors[name] = Tensor(a)
    return p


def trainable_shapes(config: ViTConfig,
                     plan: TrainablePlan) -> dict[str, tuple[int, ...]]:
    """Shape of every entry the plan trains, adapter factors included, in
    the one order of a state's entries and of a checkpoint's.

    With a LoRA rank, the affine block parts train (rank, in) `.lora_a` and
    (out, rank) `.lora_b` factors instead: the whole entries, every A, every B.
    A block the model lacks raises ConfigError naming `plan.layers`.
    """
    whole, block_parts, chosen = PLAN_MODES[plan.mode]
    blocks = plan.layers if chosen else range(1, config.depth + 1)
    for i in blocks:
        if not 1 <= i <= config.depth:
            raise ConfigError(f"plan.layers: layer {i} out of range "
                              f"1..{config.depth}")
    parts = [f"block.{i}.{part}" for i in blocks for part in block_parts]
    shapes, r = param_shapes(config), plan.lora_rank
    sites = [s for s in parts if f"{s}.w" in shapes] if r else []
    # a part is `pos` itself, or an affine map (.w, .b) or layernorm (.g, .b)
    return {**{n: shapes[n] for part in (whole if r else whole + tuple(parts))
               for n in (part, f"{part}.w", f"{part}.g", f"{part}.b")
               if n in shapes},
            **{f"{s}.lora_a": (r, shapes[f"{s}.w"][0]) for s in sites},
            **{f"{s}.lora_b": (shapes[f"{s}.w"][1], r) for s in sites}}


def count_trainable(config: ViTConfig, plan: TrainablePlan) -> int:
    """Exact number of scalars trainable under the plan."""
    return sum(math.prod(s) for s in trainable_shapes(config, plan).values())


@dataclass
class EmbeddingCapture:
    """One sample's layers, or m stacked samples' (rows in sample order).

    distill.layer_weights rolls out `attentions` as they are: a stack's
    (m, k, k) maps in one rollout, whose weights follow the stacked rows.
    A trainer.TeacherCache chunk holds some layers by number and no maps.
    """
    embeddings: list[Tensor] | dict[int, Tensor]  # X^(layer), each (m·k, c)
    attentions: list[np.ndarray] | None  # head-averaged A^(1) .. A^(n), each
                                         # (k, k), or (m, k, k) for a stack

    @property
    def samples(self) -> int:
        a = self.attentions
        return len(a[0]) if a[0].ndim == 3 else 1


def _effective_weight(params: ViTParams, site: str) -> Tensor:
    t = params.tensors
    w = t[f"{site}.w"]
    if f"{site}.lora_a" in t:
        w = w + matmul(t[f"{site}.lora_b"], t[f"{site}.lora_a"]).T
    return w


def _affine(params: ViTParams, site: str, x: Tensor) -> Tensor:
    return affine(x, _effective_weight(params, site), params.tensors[f"{site}.b"])


def patch_tokens(config: ViTConfig, image: np.ndarray) -> np.ndarray:
    """Rearrange an (H, W, C) image, or an (m, H, W, C) stack of them,
    into (m·k, patch_dim) row-major patches, sample after sample."""
    H = W = config.img_size
    ps, g = config.patch_size, config.grid
    if image.ndim not in (3, 4) or image.shape[-3:] != (H, W, CHANNELS):
        raise ValueError(f"input shape {image.shape} does not match config")
    x = image.reshape(-1, g, ps, g, ps, CHANNELS)
    return x.transpose(0, 1, 3, 2, 4, 5).reshape(-1, config.patch_dim)


def embed_image(params: ViTParams, image: np.ndarray) -> Tensor:
    """Patch projection plus positional embedding: the X^(0) tokens of an
    image or of a stack of images (see patch_tokens)."""
    cfg = params.config
    x = _affine(params, "embed", Tensor(patch_tokens(cfg, image)))
    x = x.reshape(-1, cfg.tokens, cfg.embed_dim) + params.tensors["pos"]
    return x.reshape(-1, cfg.embed_dim)


def _attention(params: ViTParams, i: int, x: Tensor, samples: int):
    qkv = _affine(params, f"block.{i}.qkv", x)            # (m·k, 3c)
    out, head_avg = attention(qkv, params.config.num_heads, samples)
    return _affine(params, f"block.{i}.proj", out), head_avg


def forward_tokens(params: ViTParams, tokens: Tensor) -> EmbeddingCapture:
    """Run the transformer blocks on prepared X^(0) tokens: (k, c) rows
    of one sample, or (m·k, c) rows of m stacked samples."""
    cfg = params.config
    rows = tokens.shape[0] if tokens.ndim == 2 else 0
    if not rows or rows % cfg.tokens or tokens.shape[1] != cfg.embed_dim:
        raise ValueError(
            f"token shape {tokens.shape} does not match config "
            f"({cfg.tokens}, {cfg.embed_dim}) or a stack of it")
    samples = rows // cfg.tokens
    x = tokens
    embeddings = [x]
    attentions = []
    for i in range(1, cfg.depth + 1):
        t = params.tensors
        h = layernorm(x, t[f"block.{i}.ln1.g"], t[f"block.{i}.ln1.b"])
        a_out, head_avg = _attention(params, i, h, samples)
        x = x + a_out
        h = layernorm(x, t[f"block.{i}.ln2.g"], t[f"block.{i}.ln2.b"])
        x = x + mlp(h, _effective_weight(params, f"block.{i}.mlp1"),
                    t[f"block.{i}.mlp1.b"],
                    _effective_weight(params, f"block.{i}.mlp2"),
                    t[f"block.{i}.mlp2.b"])
        embeddings.append(x)
        attentions.append(head_avg)
    return EmbeddingCapture(embeddings=embeddings, attentions=attentions)


def forward_capture(params: ViTParams, image: np.ndarray) -> EmbeddingCapture:
    """Full forward from an (H, W, C) input, capturing every layer."""
    return forward_tokens(params, embed_image(params, image))
