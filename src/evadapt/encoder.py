"""Plain ViT encoder exposing per-layer token embeddings and attention.

Teacher and student share this architecture. Blocks are pre-norm
(layernorm -> attention -> residual -> layernorm -> MLP -> residual) with
learned absolute positional embeddings and no class token, so the token
count is (img_size / patch_size)^2. The forward pass captures the
embedding matrix after every block plus the head-averaged post-softmax
attention of every block.

Selective trainability is expressed as a TrainablePlan; low-rank adapters
(additive B @ A on a frozen affine map, B zero-initialized) are available
as an alternative to full fine-tuning of a site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, affine, attention, gelu, layernorm, matmul


@dataclass(frozen=True)
class ViTConfig:
    img_size: int = 512
    patch_size: int = 16
    in_channels: int = 3
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
        return self.patch_size ** 2 * self.in_channels


VIT_B = ViTConfig(img_size=512, patch_size=16, embed_dim=768, depth=12,
                  num_heads=12, mlp_hidden=3072)


# the block parts each group kind trains; LoRA adapts only the affine ones
GROUPS = {"mlps": ("mlp1", "mlp2"),
          "blocks": ("qkv", "proj", "mlp1", "mlp2", "ln1", "ln2")}

# mode -> (whole-model entries, group kind, layer set): the layer set is
# none, the plan's `layers`, every block, or the blocks of `lora_sites`,
# which also names the group kind
PLAN_MODES = {
    "none": ((), None, "none"),
    "embed": (("embed",), None, "none"),
    "embed+mlps": (("embed",), "mlps", "layers"),
    "embed+blocks": (("embed",), "blocks", "layers"),
    "embed+all_mlps": (("embed",), "mlps", "every"),
    "all": (("pos", "embed"), "blocks", "every"),
    "lora": (("embed",), None, "lora_sites"),
}


@dataclass
class TrainablePlan:
    """Which parameters a training run may update (see PLAN_MODES).

    layers: 1-based block indices for embed+mlps / embed+blocks.
    lora_rank / lora_sites: for mode "lora"; sites is ("mlps", layers) or
    ("blocks", layers). The embed map stays fully trainable under lora,
    matching the fine-tuning baselines.
    """
    mode: str = "embed+mlps"
    layers: tuple[int, ...] = (3, 6, 9, 12)
    lora_rank: int = 16
    lora_sites: tuple[str, tuple[int, ...]] = ("mlps", (3, 6, 9, 12))

    def __post_init__(self):
        if self.mode not in PLAN_MODES:
            raise ValueError(f"mode must be one of {', '.join(PLAN_MODES)}, "
                             f"got {self.mode!r}")
        if self.lora_rank < 1:
            raise ValueError("lora_rank must be >= 1")
        if self.lora_sites[0] not in GROUPS:
            raise ValueError(f"lora_sites kind must be one of "
                             f"{', '.join(GROUPS)}, got {self.lora_sites[0]!r}")


@dataclass
class ViTParams:
    config: ViTConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)
    lora: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)

    def copy(self) -> "ViTParams":
        p = ViTParams(self.config)
        p.tensors = {k: Tensor(v.data.copy()) for k, v in self.tensors.items()}
        p.lora = {k: (Tensor(a.data.copy()), Tensor(b.data.copy()))
                  for k, (a, b) in self.lora.items()}
        return p

    def all_entries(self) -> dict[str, Tensor]:
        """Flat name -> Tensor view including adapter factors."""
        out = dict(self.tensors)
        for site, (a, b) in self.lora.items():
            out[f"{site}.lora_a"] = a
            out[f"{site}.lora_b"] = b
        return out


def affine_shapes(config: ViTConfig) -> dict[str, tuple[int, int]]:
    """(in, out) shape of every affine map, keyed by parameter base name."""
    c, h = config.embed_dim, config.mlp_hidden
    shapes = {"embed": (config.patch_dim, c)}
    for i in range(1, config.depth + 1):
        shapes[f"block.{i}.qkv"] = (c, 3 * c)
        shapes[f"block.{i}.proj"] = (c, c)
        shapes[f"block.{i}.mlp1"] = (c, h)
        shapes[f"block.{i}.mlp2"] = (h, c)
    return shapes


def param_shapes(config: ViTConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every base parameter, in init_params order."""
    c = config.embed_dim
    shapes = {}
    for name, (din, dout) in affine_shapes(config).items():
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (din, dout), (dout,)
    shapes["pos"] = (config.tokens, c)
    for i in range(1, config.depth + 1):
        for ln in ("ln1", "ln2"):
            shapes[f"block.{i}.{ln}.g"] = shapes[f"block.{i}.{ln}.b"] = (c,)
    return shapes


def init_params(config: ViTConfig, seed: int = 0, scale: float = 0.02) -> ViTParams:
    """Weights and pos ~ N(0, scale^2) drawn in order, gains 1, biases 0."""
    rng = np.random.default_rng(seed)
    p = ViTParams(config)
    for name, shape in param_shapes(config).items():
        if name.endswith(".g"):
            p.tensors[name] = Tensor(np.ones(shape))
        elif name.endswith(".b"):
            p.tensors[name] = Tensor(np.zeros(shape))
        else:
            p.tensors[name] = Tensor(rng.normal(0.0, scale, shape))
    return p


def apply_lora(params: ViTParams, rank: int, sites: list[str],
               seed: int = 0, init_scale: float = 0.01) -> ViTParams:
    """Attach additive low-rank adapters to the given affine maps.

    A is small-random (r, in), B is zero (out, r), so the function computed
    by the model is unchanged until training moves B. Base weights at
    adapted sites are frozen by the trainability marking (see mark_trainable).
    """
    if rank < 1:
        raise ValueError("lora rank must be >= 1")
    shapes = affine_shapes(params.config)
    rng = np.random.default_rng(seed)
    out = params.copy()
    for site in sites:
        if site not in shapes:
            raise ValueError(f"invalid lora site: {site}")
        din, dout = shapes[site]
        a = Tensor(rng.normal(0.0, init_scale, (rank, din)))
        b = Tensor(np.zeros((dout, rank)))
        out.lora[site] = (a, b)
    return out


def trainable_shapes(config: ViTConfig,
                     plan: TrainablePlan) -> dict[str, tuple[int, ...]]:
    """Shape of every entry the plan trains, adapter factors included.

    A LoRA plan trains (rank, in) `.lora_a` and (out, rank) `.lora_b`
    factors at its sites instead of their weights and biases.
    """
    whole, kind, layer_set = PLAN_MODES[plan.mode]
    if layer_set == "lora_sites":
        kind, layers = plan.lora_sites
    else:
        layers = {"none": (), "layers": plan.layers,
                  "every": range(1, config.depth + 1)}[layer_set]
    for i in layers:
        if not 1 <= i <= config.depth:
            raise ValueError(f"{layer_set}: layer {i} out of range "
                             f"1..{config.depth}")
    parts = [f"block.{i}.{part}" for i in layers for part in GROUPS[kind]]
    shapes = param_shapes(config)
    if plan.mode == "lora":
        affine, r = affine_shapes(config), plan.lora_rank
        sites = [s for s in parts if s in affine]
        return {"embed.w": shapes["embed.w"], "embed.b": shapes["embed.b"],
                **{f"{s}.lora_a": (r, affine[s][0]) for s in sites},
                **{f"{s}.lora_b": (affine[s][1], r) for s in sites}}
    # a part is `pos` itself, or an affine map (.w, .b) or layernorm (.g, .b)
    return {n: shapes[n] for part in whole + tuple(parts)
            for n in (part, f"{part}.w", f"{part}.g", f"{part}.b")
            if n in shapes}


def count_trainable(config: ViTConfig, plan: TrainablePlan) -> int:
    """Exact number of scalars trainable under the plan."""
    return sum(math.prod(s) for s in trainable_shapes(config, plan).values())


def mark_trainable(params: ViTParams, plan: TrainablePlan):
    """Set requires_grad exactly on the plan's entries; clears all others."""
    wanted = set(trainable_shapes(params.config, plan))
    for name, t in params.all_entries().items():
        t.requires_grad = name in wanted
        t.grad = None
    missing = wanted - set(params.all_entries())
    if missing:
        raise ValueError(f"plan references absent parameters: {sorted(missing)}")


@dataclass
class EmbeddingCapture:
    embeddings: list[Tensor]        # X^(0) .. X^(n), each (k, c)
    attentions: list[np.ndarray]    # head-averaged A^(1) .. A^(n), each (k, k)


def _effective_weight(params: ViTParams, site: str) -> Tensor:
    w = params.tensors[f"{site}.w"]
    if site in params.lora:
        a, b = params.lora[site]
        w = w + matmul(b, a).T
    return w


def _affine(params: ViTParams, site: str, x: Tensor) -> Tensor:
    return affine(x, _effective_weight(params, site), params.tensors[f"{site}.b"])


def patch_tokens(config: ViTConfig, image: np.ndarray) -> np.ndarray:
    """Rearrange an (H, W, C) image into (k, patch_dim) row-major patches."""
    H = W = config.img_size
    ps, g = config.patch_size, config.grid
    if image.shape != (H, W, config.in_channels):
        raise ValueError(f"input shape {image.shape} does not match config")
    x = image.reshape(g, ps, g, ps, config.in_channels)
    x = x.transpose(0, 2, 1, 3, 4).reshape(config.tokens, config.patch_dim)
    return x


def embed_image(params: ViTParams, image: np.ndarray) -> Tensor:
    """Patch projection plus positional embedding: the X^(0) tokens."""
    patches = Tensor(patch_tokens(params.config, image))
    return _affine(params, "embed", patches) + params.tensors["pos"]


def _attention(params: ViTParams, i: int, x: Tensor):
    qkv = _affine(params, f"block.{i}.qkv", x)            # (k, 3c)
    out, head_avg = attention(qkv, params.config.num_heads)
    return _affine(params, f"block.{i}.proj", out), head_avg


def forward_tokens(params: ViTParams, tokens: Tensor) -> EmbeddingCapture:
    """Run the transformer blocks on prepared X^(0) tokens."""
    cfg = params.config
    if tokens.shape != (cfg.tokens, cfg.embed_dim):
        raise ValueError(
            f"token shape {tokens.shape} does not match config "
            f"({cfg.tokens}, {cfg.embed_dim})")
    x = tokens
    embeddings = [x]
    attentions = []
    for i in range(1, cfg.depth + 1):
        t = params.tensors
        h = layernorm(x, t[f"block.{i}.ln1.g"], t[f"block.{i}.ln1.b"])
        a_out, head_avg = _attention(params, i, h)
        x = x + a_out
        h = layernorm(x, t[f"block.{i}.ln2.g"], t[f"block.{i}.ln2.b"])
        m = _affine(params, f"block.{i}.mlp2", gelu(_affine(params, f"block.{i}.mlp1", h)))
        x = x + m
        embeddings.append(x)
        attentions.append(head_avg)
    return EmbeddingCapture(embeddings=embeddings, attentions=attentions)


def forward_capture(params: ViTParams, image: np.ndarray) -> EmbeddingCapture:
    """Full forward from an (H, W, C) input, capturing every layer."""
    return forward_tokens(params, embed_image(params, image))
